from dataclasses import replace

import numpy as np
import pytest

from adapterlab import Adam, Tensor, grad_check
from adapterlab.adapters import (
    LANGUAGE,
    TASK,
    AdapterConfig,
    AdapterStack,
    AdapterWeights,
    adapter_forward,
    init_adapter_stack_slot,
    swap_language_adapter,
)
from adapterlab.autodiff import tsum, mul
from adapterlab.encoder import Encoder, EncoderConfig
from adapterlab.errors import ConfigError, ContractError, SwapError
from adapterlab.training import (
    PHASE_FULL,
    PHASE_LANG,
    PHASE_TASK,
    PhaseConfig,
    trainable_names,
)


def small_encoder(**kw):
    cfg = EncoderConfig(vocab=13, num_layers=2, hidden=8, num_heads=2, ffn=12,
                        max_len=8, dropout=0.0, **kw)
    return Encoder(cfg, seed=3)


def test_zero_up_projection_returns_residual():
    r = np.random.default_rng(0)
    x = Tensor(r.normal(size=(4, 6)))
    w_d = Tensor(r.normal(size=(6, 2)))
    w_u = Tensor(np.zeros((2, 6)))
    out = adapter_forward(x, w_d, w_u)
    np.testing.assert_array_equal(out.values, x.values)


def test_hand_computed_bottleneck():
    # relu((1,2)·(1,1)^T) = 3; 3·(1,0) = (3,0); plus the input (1,2)
    out = adapter_forward(
        Tensor([[1.0, 2.0]]), Tensor([[1.0], [1.0]]), Tensor([[1.0, 0.0]]),
    )
    np.testing.assert_array_equal(out.values, [[4.0, 2.0]])


def test_relu_dead_case_returns_residual():
    x = Tensor([[1.0, 1.0]])
    w_d = Tensor([[-1.0], [-1.0]])  # pre-activation -2 < 0
    w_u = Tensor([[4.0, 4.0]])
    out = adapter_forward(x, w_d, w_u)
    np.testing.assert_array_equal(out.values, x.values)


def test_adapter_forward_gradcheck():
    r = np.random.default_rng(1)
    x = Tensor(r.normal(size=(4, 8)))
    w_d = Tensor(r.normal(size=(8, 3)))
    w_u = Tensor(r.normal(size=(3, 8)) * 0.3)
    w = r.normal(size=(4, 8))

    def f(ts):
        return tsum(mul(adapter_forward(*ts), Tensor(w)))

    assert grad_check(f, [x, w_d, w_u]) < 1e-4


def test_init_adapter_identity_and_determinism():
    cfg = AdapterConfig(dim=3, kind=LANGUAGE)
    [a], [b], [c] = (init_adapter_stack_slot(cfg, 8, 1, seed) for seed in (42, 42, 43))
    np.testing.assert_array_equal(a.w_up.values, 0.0)
    np.testing.assert_array_equal(a.w_down.values, b.w_down.values)
    assert np.any(a.w_down.values != c.w_down.values)


def test_adapter_config_validation():
    for bad, match in (({"kind": "bogus"}, "unknown adapter kind"), ({"dim": 0}, "dim"),
                       ({"dim": 2.5}, "dim"), ({"dim": True}, "dim")):
        with pytest.raises(ConfigError, match=match):
            AdapterConfig(**{"dim": 2, **bad})
    with pytest.raises(AttributeError):  # checked once, so no field may change later
        AdapterConfig(dim=2).dim = 0


def test_init_adapter_dim_too_large():
    with pytest.raises(ConfigError):
        init_adapter_stack_slot(AdapterConfig(dim=8), 8, 1, 0)


def test_identity_at_init_leaves_encoder_output_unchanged():
    enc = small_encoder()
    ids = np.array([[2, 5, 6, 7], [2, 8, 9, 0]])
    mask = np.array([[1, 1, 1, 1], [1, 1, 1, 0]])
    base, _ = enc.encode(ids, mask, stack=None)
    for seed in (0, 7):
        stack = AdapterStack(2)
        stack.fill(LANGUAGE, init_adapter_stack_slot(
            AdapterConfig(dim=4, kind=LANGUAGE), 8, 2, seed))
        stack.fill(TASK, init_adapter_stack_slot(
            AdapterConfig(dim=2, kind=TASK), 8, 2, seed + 1))
        out, acts = enc.encode(ids, mask, stack=stack)
        np.testing.assert_allclose(out.values, base.values, atol=1e-12, rtol=0)
        assert [[w for _, w in acts[kind]] for kind in acts] == [stack.lang, stack.task]


def trained_like_stack(seed=9):
    r = np.random.default_rng(seed)
    stack = AdapterStack(2)
    lang = init_adapter_stack_slot(AdapterConfig(dim=4, kind=LANGUAGE), 8, 2, 1)
    task = init_adapter_stack_slot(AdapterConfig(dim=2, kind=TASK), 8, 2, 2)
    for w in lang + task:
        w.w_up.values[...] = r.normal(scale=0.5, size=w.w_up.shape)
    stack.fill(LANGUAGE, lang)
    stack.fill(TASK, task)
    return stack


def test_stacking_order_is_observable():
    enc = small_encoder()
    ids = np.array([[2, 5, 6, 7]])
    mask = np.ones_like(ids)
    stack = trained_like_stack()
    out1, _ = enc.encode(ids, mask, stack=stack)
    # swap which weights sit in which slot: task-then-language ordering; each
    # slot holds adapters of its own kind, so the tensors are re-wrapped
    swapped = AdapterStack(2)
    for kind, weights in ((LANGUAGE, stack.task), (TASK, stack.lang)):
        swapped.fill(kind, [AdapterWeights(replace(w.config, kind=kind), w.w_down, w.w_up)
                            for w in weights])
    out2, _ = enc.encode(ids, mask, stack=swapped)
    assert np.max(np.abs(out1.values - out2.values)) > 1e-8


def test_fill_refuses_weights_that_do_not_fit_the_slot():
    lang3 = init_adapter_stack_slot(AdapterConfig(dim=3, kind=LANGUAGE), 8, 2, 0)
    lang4 = init_adapter_stack_slot(AdapterConfig(dim=4, kind=LANGUAGE), 8, 2, 0)
    task = init_adapter_stack_slot(AdapterConfig(dim=3, kind=TASK), 8, 2, 0)
    stack = AdapterStack(2)
    for kind, weights, match in ((LANGUAGE, [lang3[0], lang4[1]], "share one config"),
                                 (LANGUAGE, task, "language slot needs 2 language"),
                                 (TASK, lang3, "task slot needs 2 task"),
                                 ("bogus", lang3, "bogus slot needs 2 bogus"),
                                 (LANGUAGE, lang3[:1], "needs 2 language adapters"),
                                 (LANGUAGE, lang3 + lang4[:1], "needs 2 language adapters")):
        with pytest.raises(ContractError, match=match):
            stack.fill(kind, weights)
    assert stack.lang is None and stack.task is None


def test_fill_order_does_not_change_the_stacking_order():
    enc = small_encoder()
    ids = np.array([[2, 5, 6, 7], [2, 8, 9, 0]])
    mask = np.array([[1, 1, 1, 1], [1, 1, 1, 0]])
    trained = trained_like_stack()
    states = []
    for order in ((LANGUAGE, TASK), (TASK, LANGUAGE)):
        stack = AdapterStack(2)
        for kind in order:
            stack.fill(kind, trained.slot(kind))
        out, acts = enc.encode(ids, mask, stack=stack)
        assert list(acts) == [LANGUAGE, TASK]
        states.append(out.values.tobytes())
    assert states[0] == states[1]


def test_encode_records_only_the_occupied_slots():
    enc = small_encoder()
    ids = np.array([[2, 5, 6, 7]])
    trained = trained_like_stack()
    for kinds in ((LANGUAGE,), (TASK,), (LANGUAGE, TASK)):
        stack = AdapterStack(2)
        for kind in kinds:
            stack.fill(kind, trained.slot(kind))
        _, acts = enc.encode(ids, np.ones_like(ids), stack=stack)
        assert list(acts) == list(kinds)
        for kind in kinds:
            assert len(acts[kind]) == enc.config.num_layers
            for (x_in, weights), applied in zip(acts[kind], trained.slot(kind)):
                assert type(x_in) is np.ndarray and x_in.shape == (1, 4, 8)
                assert weights is applied


def test_swap_noop_and_roundtrip_bit_identical():
    enc = small_encoder()
    ids = np.array([[2, 5, 6, 7]])
    mask = np.ones_like(ids)
    stack = trained_like_stack()
    source = [(w.w_down.values.copy(), w.w_up.values.copy()) for w in stack.lang]
    target = [(a + 1.0, b - 0.5) for a, b in source]
    before = enc.encode(ids, mask, stack=stack)[0].values.copy()

    swap_language_adapter(stack, source)  # no-op swap
    np.testing.assert_array_equal(enc.encode(ids, mask, stack=stack)[0].values, before)

    task_bytes = [
        (w.w_down.values.tobytes(), w.w_up.values.tobytes()) for w in stack.task
    ]
    swap_language_adapter(stack, target)
    swap_language_adapter(stack, source)
    np.testing.assert_array_equal(enc.encode(ids, mask, stack=stack)[0].values, before)
    after = [(w.w_down.values.tobytes(), w.w_up.values.tobytes()) for w in stack.task]
    assert after == task_bytes


def test_swap_dimension_mismatch_names_layer():
    stack = trained_like_stack()
    bad = [(w.w_down.values, w.w_up.values) for w in stack.lang]
    bad[1] = (np.zeros((8, 7)), np.zeros((7, 8)))
    with pytest.raises(SwapError, match="layer 1"):
        swap_language_adapter(stack, bad)


def test_swap_needs_one_pair_per_layer():
    stack = trained_like_stack()
    pairs = [(w.w_down.values.copy(), w.w_up.values.copy()) for w in stack.lang]
    before = [w.w_up.values.tobytes() for w in stack.lang]
    for bad in (pairs[:1], pairs + pairs[:1]):
        with pytest.raises(SwapError, match="needs 2 layer weight pairs"):
            swap_language_adapter(stack, [(a, b + 1.0) for a, b in bad])
    assert [w.w_up.values.tobytes() for w in stack.lang] == before


def test_swap_without_language_slot():
    stack = AdapterStack(2)
    with pytest.raises(SwapError):
        swap_language_adapter(stack, [])


# --- frozen weights -----------------------------------------------------------


def build_full_model():
    enc = small_encoder()
    enc.ensure_cls_head(3)
    stack = trained_like_stack()
    stack.register(enc.params)
    return enc, stack


def test_lang_phase_trains_only_language_adapters():
    enc, _ = build_full_model()
    trainable = set(trainable_names(enc.params, PhaseConfig(phase=PHASE_LANG, main_loss="mlm")))
    assert trainable == {n for n in enc.params.names() if n.startswith("adapter.lang.")}


def test_lang_phase_includes_untied_mlm_head():
    cfg = EncoderConfig(vocab=13, num_layers=1, hidden=8, num_heads=2, ffn=12,
                        max_len=8, dropout=0.0, tie_mlm=False)
    enc = Encoder(cfg, seed=0)
    stack = AdapterStack(1)
    stack.fill(LANGUAGE, init_adapter_stack_slot(AdapterConfig(dim=2, kind=LANGUAGE), 8, 1, 0))
    stack.register(enc.params)
    trainable = set(trainable_names(enc.params, PhaseConfig(phase=PHASE_LANG, main_loss="mlm")))
    assert "head.mlm.proj" in trainable and "head.mlm.bias" in trainable
    assert all(n.startswith(("adapter.lang.", "head.mlm.")) for n in trainable)


def test_task_phase_freezes_language_adapter_and_backbone():
    enc, _ = build_full_model()
    cfg = PhaseConfig(phase=PHASE_TASK, main_loss="seq_cls")
    trainable = set(trainable_names(enc.params, cfg))
    expected = {n for n in enc.params.names()
                if n.startswith("adapter.task.") or n.startswith("head.cls.")}
    assert trainable == expected


def test_full_finetune_unfreezes_everything():
    # everything but the head of a main loss the phase does not train
    enc, _ = build_full_model()
    cfg = PhaseConfig(phase=PHASE_FULL, main_loss="seq_cls")
    trainable = set(trainable_names(enc.params, cfg))
    assert trainable == {n for n in enc.params.names() if not n.startswith("head.mlm.")}
    assert any(n.startswith("adapter.lang.") for n in trainable)
    assert any(n.startswith("adapter.task.") for n in trainable)


def test_frozen_parameters_survive_adam_steps_bit_identical():
    enc, stack = build_full_model()
    lang = [n for n in enc.params.names() if n.startswith("adapter.lang.")]
    enc.params.set_trainable(lang)
    backbone = [n for n in enc.params.names() if not n.startswith("adapter.lang.")]
    before = enc.params.checksum(names=backbone)
    opt = Adam(enc.params, names=lang, lr=0.05)
    ids = np.array([[2, 5, 6, 7]])
    mask = np.ones_like(ids)
    for _ in range(3):
        out, _ = enc.encode(ids, mask, stack=stack)
        tsum(mul(out, out)).backward()
        opt.step()
    assert enc.params.checksum(names=backbone) == before
