import math

import numpy as np
import pytest

from adapterlab import Adam, Tensor
from adapterlab.adapters import (
    LANGUAGE,
    TASK,
    AdapterConfig,
    AdapterStack,
    init_adapter_stack_slot,
)
from adapterlab.autodiff import cross_entropy
from adapterlab.encoder import Encoder, EncoderConfig, LayerActivations, SlotRecord
from adapterlab.errors import ConfigError, ContractError
from adapterlab.objectives import (
    MaskingPolicy,
    OrthoLossReport,
    apply_masking,
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


def test_exhaustive_masking():
    policy = MaskingPolicy(mask_fraction=1.0, split=(1.0, 0.0, 0.0), vocab=VOCAB)
    ids = np.array([[2, 7, 8, 9, 0]])
    mask = np.array([[1, 1, 1, 1, 0]])
    corrupted, labels, skipped = apply_masking(ids, mask, policy, np.random.default_rng(0))
    assert skipped == 0
    np.testing.assert_array_equal(corrupted, [[2, 3, 3, 3, 0]])
    np.testing.assert_array_equal(labels, [[-1, 7, 8, 9, -1]])


def test_zero_mask_fraction_rejected():
    with pytest.raises(ConfigError):
        MaskingPolicy(mask_fraction=0.0)
    with pytest.raises(ConfigError):  # the default vocab=0 leaves no regular ids
        MaskingPolicy()


def test_bad_split_rejected():
    with pytest.raises(ConfigError):
        MaskingPolicy(split=(0.9, 0.2, 0.1))


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
        assert report.total == pytest.approx(2.0, abs=1e-12)


def test_orthogonal_construction_scores_zero():
    # core = -x_r + v with v orthogonal to x_h: x_in = (1, 0), x_out = (0, 1)
    x_in = Tensor(np.array([[[1.0, 0.0]]]))
    x_out = Tensor(np.array([[[0.0, 1.0]]]))
    acts = LayerActivations(task=[SlotRecord(x_in, x_out)], lang=[None],
                            mask=np.ones((1, 1)))
    report = ortho_loss(acts, TASK)
    assert report.total == pytest.approx(0.0, abs=1e-12)


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
    for rec in acts.task:
        u = rec.x_in.values.reshape(-1, 8)
        v = rec.x_out.values.reshape(-1, 8)
        per_token = []
        for uu, vv in zip(u, v):
            s = float(uu @ vv)
            per_token.append(s * s / ((uu @ uu + eps) * (vv @ vv + eps)))
        expected += sum(per_token) / len(per_token)
    assert report.total == pytest.approx(expected, abs=1e-12)
    assert 0.0 <= report.total <= 2.0


def test_scale_invariance_per_token():
    r = np.random.default_rng(11)
    u = r.normal(size=(1, 4, 8))
    v = r.normal(size=(1, 4, 8))
    base = ortho_loss(
        LayerActivations(lang=[None], task=[SlotRecord(Tensor(u), Tensor(v))],
                         mask=np.ones((1, 4))), TASK)
    scaled = ortho_loss(
        LayerActivations(lang=[None], task=[SlotRecord(Tensor(u), Tensor(v * 3.7))],
                         mask=np.ones((1, 4))), TASK)
    assert scaled.total == pytest.approx(base.total, abs=1e-12)


def test_padded_positions_do_not_affect_loss():
    enc, stack = encoder_with_stack(num_layers=1, lang=False)
    r = np.random.default_rng(4)
    for w in stack.task:
        w.w_up.values[...] = r.normal(scale=0.4, size=w.w_up.shape)
    ids = np.array([[2, 7, 8, 0, 0]])
    mask = np.array([[1, 1, 1, 0, 0]])
    _, acts = enc.encode(ids, mask, stack=stack)
    base = ortho_loss(acts, TASK, mask).total
    # perturb the recorded activations at padded positions only
    rec = acts.task[0]
    rec.x_out.values[0, 3:, :] += 17.0
    rec.x_in.values[0, 3:, :] -= 3.0
    assert ortho_loss(acts, TASK, mask).total == pytest.approx(base, abs=1e-12)
    assert ortho_loss(acts, TASK, mask, include_padding=True).total != pytest.approx(
        base, abs=1e-6)


def test_missing_slot_raises():
    enc, stack = encoder_with_stack(lang=False)
    ids = np.array([[2, 7]])
    _, acts = enc.encode(ids, np.ones_like(ids), stack=stack)
    with pytest.raises(ContractError):
        ortho_loss(acts, LANGUAGE)


def test_stop_grad_keeps_backbone_out_of_ortho_gradient():
    enc, stack = encoder_with_stack(num_layers=1, lang=False, task=True)
    stack.register(enc.params)
    r = np.random.default_rng(6)
    for w in stack.task:
        w.w_up.values[...] = r.normal(scale=0.4, size=w.w_up.shape)
    ids = np.array([[2, 7, 8]])
    mask = np.ones_like(ids)
    _, acts = enc.encode(ids, mask, stack=stack)
    ortho_loss(acts, TASK, mask, stop_grad_input=True).loss.backward()
    assert enc.params["layer.0.ffn.w2"].grad is None
    assert enc.params["adapter.task.0.w_up"].grad is not None

    enc.params.zero_grad()
    _, acts = enc.encode(ids, mask, stack=stack)
    ortho_loss(acts, TASK, mask, stop_grad_input=False).loss.backward()
    assert enc.params["layer.0.ffn.w2"].grad is not None


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
        for i, rec in enumerate(acts.task):
            feats = np.maximum(
                rec.x_in.values.reshape(-1, 8) @ stack.task[i].w_down.values, 0.0)
            target = rec.x_in.values.reshape(-1, 8)
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
            trace.append(report.total / 2.0)  # mean over the 2 layers
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
    logits = Tensor(np.random.default_rng(0).normal(size=(2, 3, 5)))
    labels = np.array([[1, -1, 2], [-1, 0, -1]])
    direct = cross_entropy(Tensor(logits.values.reshape(6, 5)), labels.reshape(-1))
    assert mlm_loss(logits, labels).item() == pytest.approx(direct.item(), abs=1e-15)


def test_seq_cls_loss_uniform_logits():
    loss = seq_cls_loss(Tensor(np.zeros((4, 3))), np.array([0, 1, 2, 1]))
    assert loss.item() == pytest.approx(math.log(3), abs=1e-12)


def test_tagging_loss_ignores_padding():
    r = np.random.default_rng(1)
    logits = r.normal(size=(1, 3, 4))
    labels = np.array([[-1, 2, 1]])
    base = tagging_loss(Tensor(logits), labels).item()
    padded_logits = np.concatenate([logits, r.normal(size=(1, 2, 4))], axis=1)
    padded_labels = np.array([[-1, 2, 1, -1, -1]])
    assert tagging_loss(Tensor(padded_logits), padded_labels).item() == pytest.approx(
        base, abs=1e-15)


def test_tagging_loss_sum_reduction():
    logits = Tensor(np.zeros((1, 3, 4)))
    labels = np.array([[1, 2, -1]])
    mean = tagging_loss(Tensor(logits.values), labels).item()
    total = tagging_loss(Tensor(logits.values), labels, sum_reduction=True).item()
    assert total == pytest.approx(2 * mean, abs=1e-12)


def test_ortho_report_structure():
    enc, stack = encoder_with_stack(num_layers=2)
    ids = np.array([[2, 7, 8]])
    _, acts = enc.encode(ids, np.ones_like(ids), stack=stack)
    report = ortho_loss(acts, LANGUAGE)
    assert isinstance(report, OrthoLossReport)
    assert len(report.per_layer) == 2 and report.token_counts == [3, 3]
    assert report.total == pytest.approx(sum(report.per_layer), abs=1e-12)
