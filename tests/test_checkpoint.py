import json

import numpy as np
import pytest

from adapterlab.adapters import (
    LANGUAGE,
    TASK,
    AdapterConfig,
    AdapterStack,
    init_adapter_stack_slot,
    swap_language_adapter,
)
from adapterlab.checkpoint import (
    load_adapter,
    load_checkpoint,
    save_adapter,
    save_checkpoint,
)
from adapterlab.encoder import Encoder, EncoderConfig
from adapterlab.errors import MissingArtifactError


# orders in which a pipeline may build heads and register its adapter stack
ORDERS = (("cls", "stack"), ("stack", "cls"), ("tag", "cls", "stack"))


def build_model(seed=0, order=ORDERS[0]):
    enc = Encoder(EncoderConfig(vocab=30, num_layers=2, hidden=8, num_heads=2,
                                ffn=12, max_len=10, dropout=0.0), seed=seed)
    stack = AdapterStack(2)
    stack.fill(LANGUAGE, init_adapter_stack_slot(
        AdapterConfig(dim=3, kind=LANGUAGE), 8, 2, seed + 1))
    stack.fill(TASK, init_adapter_stack_slot(
        AdapterConfig(dim=2, kind=TASK, orthogonal=True), 8, 2, seed + 2))
    for part in order:
        if part == "cls":
            enc.ensure_cls_head(3)
        elif part == "tag":
            enc.ensure_tag_head(4)
        else:
            stack.register(enc.params)
    r = np.random.default_rng(seed + 3)
    for w in stack.lang + stack.task:
        w.w_up.values[...] = r.normal(scale=0.3, size=w.w_up.shape)
    return enc, stack


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    for order in ORDERS:
        enc, stack = build_model(order=order)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, enc, stack)
        loaded, loaded_stack, manifest = load_checkpoint(path)
        assert manifest["encoder_config"]["hidden"] == 8
        assert loaded.params.names() == enc.params.names()
        for name in enc.params.names():
            assert loaded.params[name].values.tobytes() == enc.params[name].values.tobytes()
        assert loaded_stack.task[0].config.orthogonal is True

        ids = np.array([[2, 7, 8, 9]])
        mask = np.ones_like(ids)
        a, _ = enc.encode(ids, mask, stack=stack)
        b, _ = loaded.encode(ids, mask, stack=loaded_stack)
        np.testing.assert_array_equal(a.values, b.values)


def test_checkpoint_double_roundtrip_identical_bytes(tmp_path):
    for order in ORDERS:
        enc, stack = build_model(order=order)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, enc, stack)
        loaded, loaded_stack, _ = load_checkpoint(p1)
        save_checkpoint(p2, loaded, loaded_stack)
        assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_directory_mismatch_raises_typed_error(tmp_path):
    enc, stack = build_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, enc, stack)
    head, _, body = path.read_bytes().partition(b"\x00")

    def rewrite(edit):
        manifest = json.loads(head)
        edit(manifest)
        path.write_bytes(json.dumps(manifest).encode() + b"\x00" + body)

    rewrite(lambda m: m["arrays"][0].update(name="embed.typo"))
    with pytest.raises(MissingArtifactError, match="embed.typo"):
        load_checkpoint(path)
    rewrite(lambda m: m["arrays"][0].update(shape=[8, 30]))  # same size, transposed
    with pytest.raises(MissingArtifactError, match="embed.tok"):
        load_checkpoint(path)
    rewrite(lambda m: m.update(format_version=1))  # files of the previous format
    with pytest.raises(MissingArtifactError):
        load_checkpoint(path)
    for key in ("arrays", "adapters"):  # a well-formed header without a key it needs
        rewrite(lambda m: m.pop(key))
        with pytest.raises(MissingArtifactError, match=key):
            load_checkpoint(path)

    saved = head + b"\x00" + body
    for damaged in (saved[:-100], saved + bytes(16), b"garbage"):  # cut, padded, no header
        path.write_bytes(damaged)
        with pytest.raises(MissingArtifactError):
            load_checkpoint(path)


def test_checkpoint_without_stack(tmp_path):
    enc = Encoder(EncoderConfig(vocab=30, num_layers=1, hidden=8, num_heads=2,
                                ffn=12, max_len=10, dropout=0.0), seed=4)
    path = tmp_path / "plain.ckpt"
    save_checkpoint(path, enc)
    loaded, stack, _ = load_checkpoint(path)
    assert stack is None
    assert loaded.params.checksum() == enc.params.checksum()


def test_missing_checkpoint_raises(tmp_path):
    with pytest.raises(MissingArtifactError):
        load_checkpoint(tmp_path / "nope.ckpt")


def test_adapter_file_roundtrip_and_cross_run_swap(tmp_path):
    enc, stack = build_model(seed=0)
    path = tmp_path / "lang.adapter"
    save_adapter(path, stack.lang, seed=5, language="tgt")
    config, pairs, manifest = load_adapter(path)
    assert manifest["language"] == "tgt"
    assert config == stack.lang[0].config
    for w, (down, up) in zip(stack.lang, pairs):
        assert down.tobytes() == w.w_down.values.tobytes()
        assert up.tobytes() == w.w_up.values.tobytes()

    # adapter trained in run A drops into run B's model
    enc_b, stack_b = build_model(seed=9)
    task_before = [w.w_up.values.tobytes() for w in stack_b.task]
    swap_language_adapter(stack_b, pairs)
    for w, (down, up) in zip(stack_b.lang, pairs):
        assert w.w_down.values.tobytes() == down.tobytes()
    assert [w.w_up.values.tobytes() for w in stack_b.task] == task_before


def test_adapter_file_rejects_checkpoint(tmp_path):
    enc, stack = build_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, enc, stack)
    with pytest.raises(MissingArtifactError):
        load_adapter(path)


def test_adapter_header_without_layer_count_raises_typed_error(tmp_path):
    enc, stack = build_model()
    path = tmp_path / "lang.adapter"
    save_adapter(path, stack.lang)
    head, _, body = path.read_bytes().partition(b"\x00")
    manifest = json.loads(head)
    del manifest["num_layers"]
    path.write_bytes(json.dumps(manifest).encode() + b"\x00" + body)
    with pytest.raises(MissingArtifactError, match="num_layers"):
        load_adapter(path)
