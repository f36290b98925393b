import math

import numpy as np
import pytest

from adapterlab import Adam, Tensor, grad_check, objectives
from adapterlab.adapters import (
    LANGUAGE,
    TASK,
    AdapterConfig,
    AdapterStack,
    AdapterWeights,
    init_adapter_stack_slot,
)
from adapterlab.autodiff import cross_entropy, matmul
from adapterlab.encoder import Encoder, EncoderConfig
from adapterlab.errors import ConfigError, ContractError, EmptyLossError, ShapeError
from adapterlab.objectives import (
    MaskingPolicy,
    OrthoLossReport,
    apply_masking,
    labelled_rows,
    mlm_loss,
    ortho_loss,
    seq_cls_loss,
    tagging_loss,
)

VOCAB = 40
FIRST_REGULAR = 5


def encoder_with_stack(num_layers=2, lang=True, task=True, seed=0):
    cfg = EncoderConfig(vocab=VOCAB, num_layers=num_layers, hidden=8, num_heads=2,
                        ffn=12, max_len=10, dropout=0.0)
    enc = Encoder(cfg, seed=seed)
    stack = AdapterStack(num_layers)
    if lang:
        stack.fill(LANGUAGE, init_adapter_stack_slot(
            AdapterConfig(dim=3, kind=LANGUAGE), 8, num_layers, seed + 1))
    if task:
        stack.fill(TASK, init_adapter_stack_slot(
            AdapterConfig(dim=2, kind=TASK), 8, num_layers, seed + 2))
    return enc, stack


# --- masking -------------------------------------------------------------------


def test_exhaustive_masking(monkeypatch):
    monkeypatch.setattr(objectives, "MASK_FRACTION", 1.0)
    monkeypatch.setattr(objectives, "MASK_SPLIT", (1.0, 0.0, 0.0))
    policy = MaskingPolicy(vocab=VOCAB)
    ids = np.array([[2, 7, 8, 9, 0]])
    mask = np.array([[1, 1, 1, 1, 0]])
    corrupted, labels, skipped = apply_masking(ids, mask, policy, np.random.default_rng(0))
    assert skipped == 0
    np.testing.assert_array_equal(corrupted, [[2, 3, 3, 3, 0]])
    np.testing.assert_array_equal(labels, [[-1, 7, 8, 9, -1]])


def test_zero_mask_fraction_rejected():
    with pytest.raises(ConfigError):  # the default vocab=0 leaves no regular ids
        MaskingPolicy()


def test_special_only_sequence_skipped_with_count():
    policy = MaskingPolicy(vocab=VOCAB)
    ids = np.array([[2, 0, 0], [2, 8, 9]])
    mask = np.array([[1, 1, 1], [1, 1, 1]])
    _, labels, skipped = apply_masking(ids, mask, policy, np.random.default_rng(0))
    assert skipped == 1
    assert np.all(labels[0] == -1)
    assert np.any(labels[1] != -1)


def test_masking_statistics_over_10k_tokens():
    policy = MaskingPolicy(vocab=VOCAB)
    rng = np.random.default_rng(7)
    ids = rng.integers(FIRST_REGULAR, VOCAB, size=(100, 100))
    mask = np.ones_like(ids)
    corrupted, labels, _ = apply_masking(ids, mask, policy, np.random.default_rng(8))
    picked = labels != -1
    n_picked = int(picked.sum())
    assert abs(n_picked - 1500) <= 0.02 * 1500
    masked = int(((corrupted == 3) & picked).sum())
    kept = int(((corrupted == ids) & picked).sum())
    randomized = n_picked - masked - kept
    assert abs(masked / n_picked - 0.8) <= 0.03
    assert abs(randomized / n_picked - 0.1) <= 0.03
    assert abs(kept / n_picked - 0.1) <= 0.03
    # unpicked positions are untouched
    np.testing.assert_array_equal(corrupted[~picked], ids[~picked])


# --- ortho loss -----------------------------------------------------------------


def test_identity_init_gives_total_n():
    enc, stack = encoder_with_stack(num_layers=2)
    ids = np.array([[2, 7, 8], [2, 9, 0]])
    mask = np.array([[1, 1, 1], [1, 1, 0]])
    _, acts = enc.encode(ids, mask, stack=stack)
    for slot in (LANGUAGE, TASK):
        report = ortho_loss(acts, slot, mask)
        assert report.per_layer == pytest.approx([1.0, 1.0], abs=1e-12)
        assert report.loss.item() == pytest.approx(2.0, abs=1e-12)


def test_orthogonal_construction_scores_zero():
    # core = -x + v with v orthogonal to x: relu((1, 0) w_down) w_up = (-1, 1),
    # so the slot maps x = (1, 0) to (0, 1)
    weights = AdapterWeights(AdapterConfig(dim=1), Tensor(np.array([[1.0], [0.0]])),
                             Tensor(np.array([[-1.0, 1.0]])))
    acts = {TASK: [(np.array([[[1.0, 0.0]]]), weights)]}
    report = ortho_loss(acts, TASK, np.ones((1, 1)))
    assert report.loss.item() == pytest.approx(0.0, abs=1e-12)


def test_matches_brute_force_double_sum():
    enc, stack = encoder_with_stack(num_layers=2, seed=5)
    # stir the adapters so the loss is non-trivial
    r = np.random.default_rng(3)
    for w in stack.lang + stack.task:
        w.w_up.values[...] = r.normal(scale=0.4, size=w.w_up.shape)
    ids = np.array([[2, 7, 8]])
    mask = np.ones_like(ids)
    _, acts = enc.encode(ids, mask, stack=stack)
    report = ortho_loss(acts, TASK, mask)

    # oracle: plain numpy cos^2 summed over every (layer, token) pair
    eps = 1e-12
    expected = 0.0
    for x_in, w in acts[TASK]:
        u = x_in.reshape(-1, 8)
        v = np.maximum(u @ w.w_down.values, 0.0) @ w.w_up.values + u
        per_token = []
        for uu, vv in zip(u, v):
            s = float(uu @ vv)
            per_token.append(s * s / ((uu @ uu + eps) * (vv @ vv + eps)))
        expected += sum(per_token) / len(per_token)
    assert report.loss.item() == pytest.approx(expected, abs=1e-12)
    assert 0.0 <= report.loss.item() <= 2.0


def test_scale_invariance_per_token():
    # a ReLU bottleneck is positively homogeneous, so scaling x_in scales
    # the slot output with it and leaves each token's cosine unchanged
    r = np.random.default_rng(11)
    u = r.normal(size=(1, 4, 8))
    weights = AdapterWeights(AdapterConfig(dim=3), Tensor(r.normal(size=(8, 3))),
                             Tensor(r.normal(size=(3, 8))))

    def total(x_in):
        acts = {TASK: [(x_in, weights)]}
        return ortho_loss(acts, TASK, np.ones((1, 4))).loss.item()

    assert total(u * 3.7) == pytest.approx(total(u), abs=1e-12)


def test_padded_positions_do_not_affect_loss():
    enc, stack = encoder_with_stack(num_layers=1, lang=False)
    r = np.random.default_rng(4)
    for w in stack.task:
        w.w_up.values[...] = r.normal(scale=0.4, size=w.w_up.shape)
    ids = np.array([[2, 7, 8, 0, 0]])
    mask = np.array([[1, 1, 1, 0, 0]])
    _, acts = enc.encode(ids, mask, stack=stack)
    weights = [stack.task[0].w_down, stack.task[0].w_up]

    def loss_and_grads():
        for w in weights:
            w.requires_grad, w.grad = True, None
        report = ortho_loss(acts, TASK, mask)
        report.loss.backward()
        return report.loss.item(), [w.grad.tobytes() for w in weights]

    base = loss_and_grads()
    x_in = acts[TASK][0][0]
    # a padded position is never read: neither an offset nor a NaN there moves
    # the loss or the slot's gradient
    for fill in (x_in[0, 3:, :] - 3.0, np.nan):
        x_in[0, 3:, :] = fill
        assert loss_and_grads() == base
    # the same offset at a real position does move the loss
    x_in[0, 1, :] -= 3.0
    assert loss_and_grads()[0] != pytest.approx(base[0], abs=1e-6)


def test_missing_slot_raises():
    enc, stack = encoder_with_stack(lang=False)
    ids = np.array([[2, 7]])
    _, acts = enc.encode(ids, np.ones_like(ids), stack=stack)
    with pytest.raises(ContractError):
        ortho_loss(acts, LANGUAGE, np.ones_like(ids))


def test_mask_shape_mismatch_raises():
    enc, stack = encoder_with_stack()
    ids = np.array([[2, 7, 8]])
    _, acts = enc.encode(ids, np.ones_like(ids), stack=stack)
    for mask in (np.ones((1, 2)), np.ones((1, 4)), np.ones(3)):
        with pytest.raises(ShapeError):
            ortho_loss(acts, TASK, mask)


def test_all_padding_mask_raises():
    enc, stack = encoder_with_stack()
    ids = np.array([[2, 7, 8]])
    _, acts = enc.encode(ids, np.ones_like(ids), stack=stack)
    with pytest.raises(ContractError, match="no tokens"):
        ortho_loss(acts, TASK, np.zeros_like(ids))


def test_stop_grad_keeps_backbone_out_of_ortho_gradient():
    enc, stack = encoder_with_stack(num_layers=1, lang=False, task=True)
    stack.register(enc.params)
    r = np.random.default_rng(6)
    for w in stack.task:
        w.w_up.values[...] = r.normal(scale=0.4, size=w.w_up.shape)
    ids = np.array([[2, 7, 8]])
    mask = np.ones_like(ids)
    _, acts = enc.encode(ids, mask, stack=stack)
    ortho_loss(acts, TASK, mask).loss.backward()
    assert enc.params["layer.0.ffn.w2"].grad is None
    assert enc.params["adapter.task.0.w_up"].grad is not None


def test_ortho_loss_gradcheck():
    # encode runs once, so the recorded slot inputs stay fixed: the loss is
    # checked as a function of the slot's own weights, the ortho step's view
    enc, stack = encoder_with_stack(num_layers=2, seed=9)
    r = np.random.default_rng(9)
    for w in stack.lang + stack.task:
        w.w_up.values[...] = r.normal(scale=0.4, size=w.w_up.shape)
    ids = np.array([[2, 7, 8, 9], [2, 10, 0, 0]])
    mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0]])
    _, acts = enc.encode(ids, mask, stack=stack)
    for slot, adapters in ((LANGUAGE, stack.lang), (TASK, stack.task)):
        weights = [t for w in adapters for t in (w.w_down, w.w_up)]
        for exclude in (False, True):
            err = grad_check(
                lambda ts: ortho_loss(acts, slot, mask, exclude_residual=exclude).loss, weights)
            assert err < 1e-6
            assert max(np.abs(t.grad).max() for t in weights) > 1e-3


def test_minimizing_ortho_alone_trains():
    """Directional property: the loss is optimizable by Adam on a fixed batch.

    The adapter starts as a near-identity map (least-squares warm start for
    the up-projection, so the bottleneck output is roughly parallel to its
    input and mean cos^2 is near 1). Scored on the bottleneck output alone
    (residual excluded) 200 steps drive it near zero; scored on the full
    output, the residual anchors the loss strictly above it.
    """
    results = {}
    for exclude in (True, False):
        enc, stack = encoder_with_stack(num_layers=2, lang=False, task=True, seed=8)
        stack.register(enc.params)
        ids = np.array([[2, 7, 8, 9, 10], [2, 11, 12, 13, 0]])
        mask = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 1, 0]])
        # warm start: fit w_up so relu(x_h w_d) w_up ~= x_h on this batch
        _, acts = enc.encode(ids, mask, stack=stack)
        for i, (x_in, _) in enumerate(acts[TASK]):
            feats = np.maximum(x_in.reshape(-1, 8) @ stack.task[i].w_down.values, 0.0)
            target = x_in.reshape(-1, 8)
            w_up, *_ = np.linalg.lstsq(feats, target, rcond=None)
            # cos^2 is scale invariant, so a small multiple keeps the start
            # near-parallel while letting Adam reorient it within the budget
            stack.task[i].w_up.values[...] = 0.02 * w_up
        names = [n for n in enc.params.names() if n.startswith("adapter.task.")]
        enc.params.set_trainable(names)
        opt = Adam(enc.params, names=names, lr=1e-3)
        trace = []
        for _ in range(200):
            _, acts = enc.encode(ids, mask, stack=stack)
            report = ortho_loss(acts, TASK, mask, exclude_residual=exclude)
            trace.append(report.loss.item() / 2.0)  # mean over the 2 layers
            report.loss.backward()
            opt.step()
        results[exclude] = trace
    assert results[True][0] > 0.4  # starts as parallel as the rank-2 core allows
    assert results[False][0] > 0.95  # residual + near-identity core: cos^2 ~ 1
    assert results[True][-1] < 0.05
    assert results[False][-1] < results[False][0]
    assert results[False][-1] > 0.05  # residual keeps it bounded away from zero


# --- task losses -----------------------------------------------------------------


def test_mlm_loss_delegates_to_cross_entropy():
    # the three main losses are one [n, C] definition
    logits = Tensor(np.random.default_rng(0).normal(size=(4, 5)))
    labels = np.array([1, 2, 0, 4])
    direct = cross_entropy(logits, labels).item()
    for loss in (mlm_loss, seq_cls_loss, tagging_loss):
        assert loss(logits, labels).item() == direct


@pytest.mark.parametrize("tie_mlm", [True, False], ids=["tied", "untied"])
def test_labelled_rows_match_full_logits(tie_mlm):
    # a padded batch: the MLM and tag heads over the labelled rows alone must
    # give the loss and every weight's gradient of the head over all B*T
    # positions with the labelled logits gathered after it
    cfg = EncoderConfig(vocab=VOCAB, num_layers=2, hidden=8, num_heads=2, ffn=12,
                        max_len=10, dropout=0.0, tie_mlm=tie_mlm)
    r = np.random.default_rng(4)
    ids = r.integers(FIRST_REGULAR, VOCAB, size=(3, 7))
    mask = np.ones_like(ids)
    mask[1, 4:] = mask[2, 2:] = 0
    ids[mask == 0] = 0
    ids, mlm_labels, _ = apply_masking(ids, mask, MaskingPolicy(vocab=VOCAB), r)
    tag_labels = np.where(mask == 1, r.integers(0, 4, size=ids.shape), -1)
    tag_labels[:, 0] = -1  # [CLS]
    heads = (("mlm", mlm_labels, mlm_loss), ("tag", tag_labels, tagging_loss))
    for head, labels, loss_fn in heads:
        assert 0 < (labels != -1).sum() < ids.size
        results = []
        for gather_first in (False, True):
            enc = Encoder(cfg, seed=3)
            enc.ensure_tag_head(4)
            logits_of = enc.mlm_logits if head == "mlm" else enc.tag_logits
            states, _ = enc.encode(ids, mask)
            if gather_first:
                rows, targets = labelled_rows(states, labels)
                assert rows.shape == (int((labels != -1).sum()), 8)
                loss = loss_fn(logits_of(rows), targets)
            else:
                loss = loss_fn(*labelled_rows(logits_of(states), labels))
            loss.backward()
            results.append((loss.item(), {n: t.grad for n, t in enc.params.items()
                                          if t.grad is not None}))
        (full, full_grads), (rows_loss, rows_grads) = results
        assert rows_loss == pytest.approx(full, rel=1e-12, abs=0.0), head
        other = "head.tag." if head == "mlm" else "head.mlm."
        reached = {n for n in enc.params.names() if not n.startswith(other)}
        assert full_grads.keys() == rows_grads.keys() == reached, head
        for name, g in full_grads.items():
            assert np.abs(rows_grads[name] - g).max() <= 1e-12 * max(1.0, np.abs(g).max()), \
                (head, name)


def test_labelled_rows_ignored_positions_carry_no_gradient():
    states = Tensor(np.random.default_rng(14).normal(size=(1, 3, 4)), requires_grad=True)
    rows, targets = labelled_rows(states, np.array([[2, -1, 0]]))
    tagging_loss(rows, targets).backward()
    np.testing.assert_array_equal(states.grad[0, 1], 0.0)
    assert np.any(states.grad[0, 0] != 0.0)


def test_labelled_rows_refuses_bad_labels():
    enc, _ = encoder_with_stack()
    ids = np.array([[2, 7, 8], [2, 9, 0]])
    states, _ = enc.encode(ids, np.array([[1, 1, 1], [1, 1, 0]]))
    with pytest.raises(EmptyLossError):
        labelled_rows(states, np.full(ids.shape, -1))
    with pytest.raises(ShapeError):
        labelled_rows(states, np.array([7, 8, 9]))


def test_seq_cls_loss_uniform_logits():
    loss = seq_cls_loss(Tensor(np.zeros((4, 3))), np.array([0, 1, 2, 1]))
    assert loss.item() == pytest.approx(math.log(3), abs=1e-12)


def test_tagging_loss_ignores_padding():
    # [CLS] and padding carry the ignore label: whatever their states hold,
    # even NaN, the loss and the real rows' gradients stay the same, and the
    # ignored rows get a zero gradient
    r = np.random.default_rng(1)
    w = Tensor(r.normal(size=(6, 4)))
    states = r.normal(size=(1, 5, 6))
    labels = np.array([[-1, 2, 1, -1, -1]])

    def loss_and_grad(values):
        x = Tensor(values, requires_grad=True)
        rows, targets = labelled_rows(x, labels[:, :values.shape[1]])
        loss = tagging_loss(matmul(rows, w), targets)
        loss.backward()
        return loss.item(), x.grad

    base, base_grad = loss_and_grad(states[:, :3])
    for fill in (r.normal(size=(1, 3, 6)), np.nan):
        padded = states.copy()
        padded[:, [0, 3, 4]] = fill
        loss, grad = loss_and_grad(padded)
        assert loss == base
        assert grad[:, :3].tobytes() == base_grad.tobytes()
        np.testing.assert_array_equal(grad[:, 3:], 0.0)


def test_ortho_report_structure():
    enc, stack = encoder_with_stack(num_layers=2)
    ids = np.array([[2, 7, 8]])
    _, acts = enc.encode(ids, np.ones_like(ids), stack=stack)
    report = ortho_loss(acts, LANGUAGE, np.ones_like(ids))
    assert isinstance(report, OrthoLossReport)
    assert len(report.per_layer) == 2
    assert report.loss.item() == pytest.approx(sum(report.per_layer), abs=1e-12)
