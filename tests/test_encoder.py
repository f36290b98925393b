import re

import numpy as np
import pytest

from adapterlab import autodiff
from adapterlab.adapters import (
    LANGUAGE,
    TASK,
    AdapterConfig,
    AdapterStack,
    init_adapter_stack_slot,
)
from adapterlab.autodiff import IGNORE_LABEL, Tensor, grad_check, mul, take_rows, tsum
from adapterlab.encoder import Encoder, EncoderConfig
from adapterlab.errors import ConfigError, ContractError, SequenceLengthError, VocabError
from adapterlab.objectives import labelled_rows, mlm_loss
from adapterlab.optim import Adam


def encoder(**kw):
    defaults = dict(vocab=13, num_layers=2, hidden=8, num_heads=2, ffn=12,
                    max_len=8, dropout=0.0)
    defaults.update(kw)
    return Encoder(EncoderConfig(**defaults), seed=11)


BATCH = np.array([[2, 5, 6, 7, 8], [2, 9, 10, 0, 0]])
MASK = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0]])


def test_config_validation():
    with pytest.raises(ConfigError):
        EncoderConfig(vocab=10, hidden=30, num_heads=4)
    with pytest.raises(ConfigError):
        EncoderConfig(vocab=10, max_len=0)
    with pytest.raises(ConfigError, match="vocab"):
        EncoderConfig(vocab=1)
    for seed in (-1, 1.5):
        with pytest.raises(ConfigError, match="seed"):
            Encoder(EncoderConfig(vocab=10), seed=seed)
    with pytest.raises(AttributeError):  # checked once, so no field may change later
        EncoderConfig(vocab=10).num_heads = 0


@pytest.mark.parametrize("field, bad", [("num_layers", 0), ("hidden", 0), ("num_heads", 0),
                                        ("num_heads", -4), ("ffn", 0), ("dropout", 1.0),
                                        ("dropout", -0.1), ("vocab", 20.5),
                                        ("ffn", float("nan")), ("num_layers", True),
                                        ("num_heads", 2.0), ("max_len", 8.0),
                                        ("dropout", "x"), ("dropout", None),
                                        ("dropout", True), ("dropout", float("nan")),
                                        ("tie_mlm", "no"), ("tie_mlm", 1), ("tie_mlm", None)])
def test_config_refuses_bad_sizes_naming_the_field(field, bad):
    with pytest.raises(ConfigError, match=field):
        EncoderConfig(**{"vocab": 10, field: bad})


def test_defaults_match_toy_scale():
    cfg = EncoderConfig(vocab=100)
    assert (cfg.num_layers, cfg.hidden, cfg.num_heads, cfg.ffn) == (2, 32, 4, 64)
    assert cfg.max_len == 128 and cfg.dropout == 0.1
    # any real number in [0, 1) is a dropout rate
    assert EncoderConfig(vocab=100, dropout=0).dropout == 0
    assert EncoderConfig(vocab=100, dropout=np.float32(0.25)).dropout == 0.25


def test_vocab_and_length_errors():
    enc = encoder(vocab=10)
    # the token embedding lookup is the one range check of the ids
    with pytest.raises(VocabError, match=re.escape("ids must lie in [0, 10), got 99")) as refused:
        enc.encode(np.array([[2, 99]]), np.ones((1, 2)))
    assert isinstance(refused.value, ContractError)
    with pytest.raises(VocabError, match="got -1"):  # the negative id, not the largest one
        enc.encode(np.array([[-1, 99]]), np.ones((1, 2)))
    with pytest.raises(SequenceLengthError):
        enc.encode(np.full((1, 9), 2), np.ones((1, 9)))
    with pytest.raises(ConfigError):  # an empty batch, before any reduction over it
        enc.encode(np.zeros((0, 4), dtype=np.int64), np.zeros((0, 4)))


def test_mask_entries_other_than_zero_or_one_are_refused():
    # a 2 would make every query attend to that key, while ortho_loss drops
    # the same position as padding
    enc = encoder()
    ids = np.array([[2, 5, 6, 7]])
    for bad in ([[1, 2, 1, 1]], [[1, 0.5, 1, 1]]):
        with pytest.raises(ConfigError, match="0 or 1"):
            enc.encode(ids, np.array(bad))
    enc.encode(ids, np.array([[True, True, True, False]]))  # a boolean mask is 0/1


@pytest.mark.parametrize("bad", [[[2.7, 3.9]], [[True, False]]], ids=["float", "bool"])
def test_token_ids_that_are_not_integers_are_refused(bad):
    # an int64 cast would read 2.7 as 2 and True as 1
    with pytest.raises(ConfigError, match="integers"):
        encoder().encode(np.array(bad), np.ones((1, 2)))


def test_integer_ids_of_any_width_encode_alike(monkeypatch):
    enc = encoder()
    want = enc.encode(BATCH, MASK)[0].values
    for dtype in (np.int32, np.uint8):
        np.testing.assert_array_equal(enc.encode(BATCH.astype(dtype), MASK)[0].values, want)
    looked_up = []
    real = autodiff.embedding_lookup
    monkeypatch.setattr("adapterlab.encoder.embedding_lookup",
                        lambda table, ids: looked_up.append(ids) or real(table, ids))
    enc.encode(BATCH, MASK)
    assert looked_up[0] is BATCH  # int64 ids are used as given, not copied


def test_encode_node_count_is_pinned(monkeypatch):
    # attention, each biased GEMM (linear), each residual layer norm and each
    # adapter slot's layer is one node; the benchmark's tracer does not wrap
    # ``attention``, ``linear`` or ``adapter``, so this count is what keeps
    # them from splitting
    created = []
    real = autodiff._node

    def counting(values, parents, backward):
        created.append(1)
        return real(values, parents, backward)

    monkeypatch.setattr(autodiff, "_node", counting)
    enc = Encoder(EncoderConfig(vocab=13), seed=0)
    ids = np.array([[2, 5, 6, 7]])
    stack = AdapterStack(2)
    for kind, seed in ((LANGUAGE, 1), (TASK, 2)):
        stack.fill(kind, init_adapter_stack_slot(AdapterConfig(4, kind), 32, 2, seed))
    for rng, adapters, nodes in ((np.random.default_rng(0), None, 28), (None, None, 23),
                                 (None, stack, 27)):  # one node per slot and layer
        created.clear()
        enc.encode(ids, np.ones_like(ids), stack=adapters, rng=rng)
        assert len(created) == nodes


def test_empty_stack_equals_plain_forward():
    enc = encoder()
    base, acts = enc.encode(BATCH, MASK, stack=None)
    out, _ = enc.encode(BATCH, MASK, stack=AdapterStack(2))
    np.testing.assert_array_equal(base.values, out.values)
    assert acts == {}


def test_determinism_bit_identical():
    enc = encoder()
    a, _ = enc.encode(BATCH, MASK)
    b, _ = enc.encode(BATCH, MASK)
    np.testing.assert_array_equal(a.values, b.values)


def test_dropout_training_mode_is_seeded_and_reproducible():
    enc = encoder(dropout=0.2)
    a, _ = enc.encode(BATCH, MASK, rng=np.random.default_rng(5))
    b, _ = enc.encode(BATCH, MASK, rng=np.random.default_rng(5))
    c, _ = enc.encode(BATCH, MASK)  # no rng: no dropout
    np.testing.assert_array_equal(a.values, b.values)
    assert np.any(a.values != c.values)


def test_batch_permutation_permutes_outputs():
    enc = encoder()
    out, _ = enc.encode(BATCH, MASK)
    flipped, _ = enc.encode(BATCH[::-1], MASK[::-1])
    np.testing.assert_array_equal(out.values, flipped.values[::-1])


def test_padded_content_does_not_leak():
    enc = encoder()
    out, _ = enc.encode(BATCH, MASK)
    tampered = BATCH.copy()
    tampered[1, 3:] = 7  # rewrite padding ids
    out2, _ = enc.encode(tampered, MASK)
    np.testing.assert_allclose(out.values[MASK == 1], out2.values[MASK == 1],
                               atol=1e-10, rtol=0)


def test_mlm_head_hand_checked_tied_projection():
    enc = encoder(vocab=6, num_layers=1, hidden=2, num_heads=1, ffn=3)
    emb = enc.params["embed.tok"]
    emb.values[...] = 0.0
    emb.values[4] = [1.0, 2.0]
    emb.values[5] = [-1.0, 0.5]
    states = Tensor(np.array([[[2.0, 3.0], [0.5, -1.0]]]))
    logits = enc.mlm_logits(states).values
    # logits = states @ E^T (+ zero bias), checked by hand on the 2x2 block
    np.testing.assert_allclose(logits[0, 0, 4], 2 + 6.0)
    np.testing.assert_allclose(logits[0, 0, 5], -2 + 1.5)
    np.testing.assert_allclose(logits[0, 1, 4], 0.5 - 2.0)


def test_mlm_head_zero_states_gives_bias():
    enc = encoder()
    enc.params["head.mlm.bias"].values[...] = np.arange(13.0)
    logits = enc.mlm_logits(Tensor(np.zeros((1, 2, 8)))).values
    np.testing.assert_array_equal(logits[0, 0], np.arange(13.0))


def test_cls_head_zero_states_gives_output_bias():
    enc = encoder()
    enc.ensure_cls_head(3)
    enc.params["head.cls.out_b"].values[...] = [1.0, 2.0, 3.0]
    enc.params["head.cls.pool_b"].values[...] = 0.0
    logits = enc.cls_logits(Tensor(np.zeros((2, 8)))).values
    np.testing.assert_allclose(logits, [[1.0, 2.0, 3.0]] * 2)


def test_tag_head_hand_case():
    enc = encoder(vocab=6, num_layers=1, hidden=2, num_heads=1, ffn=3)
    enc.ensure_tag_head(2)
    enc.params["head.tag.w"].values[...] = [[1.0, 0.0], [0.0, -1.0]]
    enc.params["head.tag.b"].values[...] = [0.5, 0.0]
    logits = enc.tag_logits(Tensor(np.array([[[2.0, 3.0]]]))).values
    np.testing.assert_allclose(logits, [[[2.5, -3.0]]])


def test_head_class_count_is_pinned():
    enc = encoder()
    enc.ensure_cls_head(3)
    enc.ensure_tag_head(5)
    names = enc.params.names()
    enc.ensure_cls_head(3)  # idempotent
    enc.ensure_tag_head(5)
    assert enc.params.names() == names
    for build in (enc.ensure_cls_head, enc.ensure_tag_head):
        with pytest.raises(ConfigError):
            build(4)


def test_head_with_no_class_is_refused():
    # load_checkpoint refuses such a head, so no model may build one and save it
    enc = encoder()
    for build in (enc.ensure_cls_head, enc.ensure_tag_head):
        for n in (0, -1, 2.5, True, "3"):
            with pytest.raises(ConfigError, match="head classes must be an integer >= 1"):
                build(n)
    assert enc.head_classes == {}


@pytest.mark.parametrize("stack_layers", [1, 3])
def test_stack_with_wrong_layer_count_is_refused(stack_layers):
    enc = encoder()  # 2 layers
    stack = AdapterStack(stack_layers)
    stack.fill(LANGUAGE, init_adapter_stack_slot(
        AdapterConfig(dim=3, kind=LANGUAGE), 8, stack_layers, 1))
    with pytest.raises(ConfigError, match=f"{stack_layers} layers, the encoder 2"):
        enc.encode(BATCH, MASK, stack=stack)


def test_stack_with_a_short_unregistered_slot_is_refused():
    # the stack's layer count fits; its hand-set language slot has one layer
    stack = AdapterStack(2)
    stack.lang = init_adapter_stack_slot(AdapterConfig(dim=3, kind=LANGUAGE), 8, 1, 1)
    with pytest.raises(ContractError, match="the language slot needs 2 language adapters"):
        encoder().encode(BATCH[:1, :3], MASK[:1, :3], stack=stack)


def test_heads_gradcheck():
    enc = encoder(vocab=7, num_layers=1, hidden=4, num_heads=2, ffn=6, max_len=4)
    enc.ensure_cls_head(3)
    enc.ensure_tag_head(2)
    states = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4)))
    w_cls = np.random.default_rng(1).normal(size=(2, 3))
    w_tag = np.random.default_rng(2).normal(size=(2, 3, 2))
    w_mlm = np.random.default_rng(3).normal(size=(2, 3, 7))
    cls_rows = np.array([0, 3])  # each sequence's [CLS] row
    checks = [
        (lambda ts: tsum(mul(enc.cls_logits(take_rows(ts[0], cls_rows)), Tensor(w_cls))), 1e-4),
        (lambda ts: tsum(mul(enc.tag_logits(ts[0]), Tensor(w_tag))), 1e-4),
        (lambda ts: tsum(mul(enc.mlm_logits(ts[0]), Tensor(w_mlm))), 1e-4),
    ]
    for f, tol in checks:
        fresh = Tensor(states.values.copy())
        assert grad_check(f, [fresh]) < tol


def test_end_to_end_mlm_gradcheck_one_layer():
    enc = Encoder(EncoderConfig(vocab=11, num_layers=1, hidden=8, num_heads=2,
                                ffn=12, max_len=4, dropout=0.0), seed=1)
    ids = np.array([[2, 5, 6, 7]])
    mask = np.ones_like(ids)
    labels = np.array([[-1, 5, -1, 7]])

    def f(_):
        states, _acts = enc.encode(ids, mask)
        rows = labelled_rows(labels)
        return mlm_loss(enc.mlm_logits(take_rows(states, rows)), labels.reshape(-1)[rows])

    tensors = [enc.params[n] for n in enc.params.names()]
    assert grad_check(f, tensors) < 1e-4


# --- the read-rows tail ----------------------------------------------------------


def tail_case(loss, tie_mlm, seed, slots=True):
    """A dropout-0.1 model with both slots (or none), and a [16, 20] batch whose read rows
    are at most 15% of its positions: the labelled ones, each [CLS] row for seq_cls."""
    enc = Encoder(EncoderConfig(vocab=40, hidden=32, num_heads=4, ffn=64, max_len=32,
                                dropout=0.1, tie_mlm=tie_mlm), seed=seed)
    stack = AdapterStack(2)
    for kind, dim in ((LANGUAGE, 8), (TASK, 4)) if slots else ():
        stack.fill(kind, init_adapter_stack_slot(AdapterConfig(dim, kind), 32, 2, seed + dim))
    stack.register(enc.params)
    r = np.random.default_rng(seed)
    b, t = 16, 20
    mask = (np.arange(t) < r.integers(6, t + 1, size=(b, 1))).astype(np.int64)
    ids = np.where(mask == 1, r.integers(4, 40, size=(b, t)), 0)
    labels = np.full((b, t), IGNORE_LABEL)
    if loss == "seq_cls":
        enc.ensure_cls_head(3)
        labels[:, 0] = r.integers(0, 3, size=b)
        return enc, stack, ids, mask, labels, np.arange(b) * t
    picked = (r.random((b, t)) < 0.12) & (mask == 1)
    labels[picked] = r.integers(0, 40 if loss == "mlm" else 5, size=picked.sum())
    if loss == "tagging":
        enc.ensure_tag_head(5)
    return enc, stack, ids, mask, labels, np.flatnonzero(picked)


def one_step(loss, tie_mlm, slots, seed, tail):
    """The loss, every gradient and the weights after one Adam step, as bytes."""
    enc, stack, ids, mask, labels, read = tail_case(loss, tie_mlm, seed, slots)
    assert read.size <= 0.15 * ids.size
    heads = {"mlm": "head.mlm.", "seq_cls": "head.cls.", "tagging": "head.tag."}
    names = [n for n in enc.params.names()
             if not n.startswith("head.") or n.startswith(heads[loss])]
    enc.params.set_trainable(names)
    states, _ = enc.encode(ids, mask, stack=stack, rng=np.random.default_rng(seed),
                           read=read if tail else None)
    assert labelled_rows(labels).tolist() == read.tolist()
    head = {"mlm": enc.mlm_logits, "seq_cls": enc.cls_logits, "tagging": enc.tag_logits}[loss]
    out = mlm_loss(head(take_rows(states, read)), labels.reshape(-1)[read])
    out.backward()
    grads = [enc.params[n].grad.tobytes() for n in names]
    Adam(enc.params, names, lr=1e-3).step()
    return repr(out.item()), grads, enc.params.checksum()


@pytest.mark.parametrize("loss, tie_mlm, slots", [
    ("mlm", True, True), ("mlm", False, True), ("mlm", True, False), ("tagging", True, True),
    ("seq_cls", True, True)])
@pytest.mark.parametrize("seed", [0, 1])
def test_tail_on_read_rows_is_the_full_forward_bytes(loss, tie_mlm, slots, seed):
    case = (loss, tie_mlm, slots, seed)
    assert one_step(*case, tail=True) == one_step(*case, tail=False)


def test_rows_outside_read_are_zero_in_states_and_last_slot_records():
    enc, stack, ids, mask, _, read = tail_case("mlm", True, 0)
    states, acts = enc.encode(ids, mask, stack=stack, read=read)
    full, full_acts = enc.encode(ids, mask, stack=stack)
    unread = np.delete(np.arange(ids.size), read)
    for got, want in [(states.values, full.values)] + [
            (acts[kind][-1][0], full_acts[kind][-1][0]) for kind in (LANGUAGE, TASK)]:
        assert not got.reshape(ids.size, -1)[unread].any()
        assert got.reshape(ids.size, -1)[read].tobytes() == \
            want.reshape(ids.size, -1)[read].tobytes()
    assert acts[LANGUAGE][0][0].tobytes() == full_acts[LANGUAGE][0][0].tobytes()


@pytest.mark.parametrize("read", [[2, 1], [0, 0], [-1, 3], [0, 10], [0.0, 1.0], [[0, 1]], 3,
                                  np.array([3, 2], dtype=np.uint8)])
def test_encode_refuses_read_rows_not_strictly_increasing_in_range(read):
    with pytest.raises(ContractError, match=r"read must be strictly increasing .* \[0, 10\)"):
        encoder().encode(BATCH, MASK, read=read)
    encoder().encode(BATCH, MASK, read=[])  # no row read is a legal, empty read
