import functools
import json
import operator
import re
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapterlab.adapters import (
    LANGUAGE,
    TASK,
    AdapterConfig,
    AdapterStack,
    init_adapter_stack_slot,
    swap_language_adapter,
    zero_slot,
)
from adapterlab.autodiff import Tensor
from adapterlab.checkpoint import (
    load_adapter,
    load_checkpoint,
    save_adapter,
    save_checkpoint,
)
from adapterlab.encoder import Encoder, EncoderConfig
from adapterlab.errors import AdapterLabError, ContractError, MissingArtifactError


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

    # embed.tok bears out the header's vocab, so its loss is refused before any build
    rewrite(lambda m: m["arrays"][0].update(name="embed.typo"))
    with pytest.raises(MissingArtifactError, match="embed.tok"):
        load_checkpoint(path)
    rewrite(lambda m: m["arrays"][2].update(name="layer.0.attn.typo"))
    with pytest.raises(MissingArtifactError, match="layer.0.attn.typo"):
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
    for key in ("shape", "name"):  # an array directory entry without a key it needs
        rewrite(lambda m: m["arrays"][0].pop(key))
        with pytest.raises(MissingArtifactError, match=key):
            load_checkpoint(path)
    # a nested config holding a field its class does not have
    rewrite(lambda m: m["encoder_config"].update(adapter_pre_norm=True))
    with pytest.raises(MissingArtifactError, match="encoder_config"):
        load_checkpoint(path)
    rewrite(lambda m: m["adapters"][LANGUAGE].update(width=3))
    with pytest.raises(MissingArtifactError, match=LANGUAGE):
        load_checkpoint(path)
    # scalar header values of the wrong type, and a head the model does not have
    for key, edit in (("shape", lambda m: m["arrays"][0].update(shape=["a", 8])),
                      ("heads", lambda m: m["heads"].update(cls="3")),
                      ("seed", lambda m: m.update(seed="x")),
                      ("ner", lambda m: m["heads"].update(ner=3)),
                      # containers of the wrong type
                      ("heads", lambda m: m.update(heads=[["cls", 3]])),
                      ("arrays", lambda m: m["arrays"].__setitem__(0, 5)),
                      ("string name", lambda m: m["arrays"][0].update(name=5)),
                      ("shape list", lambda m: m["arrays"][0].update(shape="8")),
                      ("arrays", lambda m: m.update(arrays={})),
                      ("adapters", lambda m: m.update(adapters=[LANGUAGE, TASK])),
                      # a slot entry whose config is of the other kind
                      (f"adapters.{LANGUAGE} has kind {TASK}",
                       lambda m: m["adapters"][LANGUAGE].update(kind=TASK)),
                      (f"adapters.{TASK} has kind {LANGUAGE}",
                       lambda m: m["adapters"][TASK].update(kind=LANGUAGE))):
        rewrite(edit)
        with pytest.raises(MissingArtifactError, match=key):
            load_checkpoint(path)

    saved = head + b"\x00" + body
    for damaged in (saved[:-100], saved + bytes(16), b"garbage"):  # cut, padded, no header
        path.write_bytes(damaged)
        with pytest.raises(MissingArtifactError):
            load_checkpoint(path)


def test_checkpoint_config_out_of_range_raises_typed_error(tmp_path):
    # a header value its config class refuses, refused like one of the wrong type
    enc, stack = build_model()
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, enc, stack)
    head, _, body = path.read_bytes().partition(b"\x00")
    for key, field, bad in (("encoder_config", "num_heads", 0),
                            ("encoder_config", "dropout", 1.0),
                            ("encoder_config", "ffn", float("nan")),
                            (LANGUAGE, "dim", 0), (LANGUAGE, "dim", 2.5), (LANGUAGE, "dim", True)):
        manifest = json.loads(head)
        entry = manifest.get(key) or manifest["adapters"][key]
        entry[field] = bad
        path.write_bytes(json.dumps(manifest).encode() + b"\x00" + body)
        with pytest.raises(MissingArtifactError, match=f"{key}.*{field}"):
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


def test_checkpoint_loader_rejects_adapter_file(tmp_path):
    enc, stack = build_model()
    path = tmp_path / "lang.adapter"
    save_adapter(path, stack.lang)
    with pytest.raises(MissingArtifactError, match="not a checkpoint"):
        load_checkpoint(path)


def test_slot_of_mixed_layers_is_never_written(tmp_path):
    enc, stack = build_model()
    mixed = [stack.lang[0],
             init_adapter_stack_slot(AdapterConfig(dim=4, kind=LANGUAGE), 8, 2, 0)[1]]
    stack.lang = mixed  # set directly, since fill refuses it
    for name, write in (("lang.adapter", lambda path: save_adapter(path, mixed)),
                        ("model.ckpt", lambda path: save_checkpoint(path, enc, stack))):
        with pytest.raises(ContractError, match="share one config"):
            write(tmp_path / name)
    assert list(tmp_path.iterdir()) == []


@st.composite
def slots(draw):
    """(kind, hidden size, slot): 1-3 layers, 4 <= H <= 12, 1 <= dim < H, non-zero w_up."""
    num_layers, hidden = draw(st.integers(1, 3)), draw(st.integers(4, 12))
    config = AdapterConfig(dim=draw(st.integers(1, hidden - 1)),
                           kind=draw(st.sampled_from([LANGUAGE, TASK])),
                           orthogonal=draw(st.booleans()))
    seed = draw(st.integers(0, 2**16))
    slot = init_adapter_stack_slot(config, hidden, num_layers, seed)
    r = np.random.default_rng(seed)
    for w in slot:
        w.w_up.values[...] = r.normal(size=w.w_up.shape)
    return config.kind, hidden, slot


def model_with(kind, hidden, slot):
    enc = Encoder(EncoderConfig(vocab=12, num_layers=len(slot), hidden=hidden, num_heads=1,
                                ffn=6, max_len=6, dropout=0.0), seed=1)
    stack = AdapterStack(len(slot))
    stack.fill(kind, slot)
    stack.register(enc.params)
    return enc, stack


@settings(max_examples=100, derandomize=True, deadline=None)
@given(slots())
def test_any_legal_slot_round_trips_bit_exact(drawn):
    kind, hidden, slot = drawn
    enc, stack = model_with(kind, hidden, slot)
    with tempfile.TemporaryDirectory() as tmp:
        first, second, adapter = (Path(tmp) / name for name in ("a.ckpt", "b.ckpt", "s.adapter"))
        save_checkpoint(first, enc, stack)
        save_checkpoint(second, *load_checkpoint(first)[:2])
        assert first.read_bytes() == second.read_bytes()

        save_adapter(adapter, slot, language="tgt")
        config, pairs, _ = load_adapter(adapter)
    target = AdapterStack(len(slot))
    target.fill(LANGUAGE, zero_slot(replace(config, kind=LANGUAGE), hidden, len(slot)))
    swap_language_adapter(target, pairs)
    assert config == slot[0].config
    for got, want in zip(target.lang, slot):
        assert got.w_down.values.tobytes() == want.w_down.values.tobytes()
        assert got.w_up.values.tobytes() == want.w_up.values.tobytes()


@settings(max_examples=100, derandomize=True, deadline=None)
@given(slots(), st.data())
def test_misshapen_slot_is_refused_and_never_written(drawn, data):
    kind, hidden, slot = drawn
    enc, stack = model_with(kind, hidden, slot)
    layer = data.draw(st.integers(0, len(slot) - 1))
    part = data.draw(st.sampled_from(["w_down", "w_up"]))
    rows, cols = getattr(slot[layer], part).shape
    off = Tensor(np.ones((rows, cols + data.draw(st.sampled_from([-1, 1])))))
    bad = list(slot)
    bad[layer] = replace(slot[layer], **{part: off})
    setattr(stack, "lang" if kind == LANGUAGE else "task", bad)  # fill refuses it
    with pytest.raises(ContractError, match=f"layer {layer} of the slot"):
        AdapterStack(len(slot)).fill(kind, bad)
    with tempfile.TemporaryDirectory() as tmp:
        for write in (lambda path: save_adapter(path, bad),
                      lambda path: save_checkpoint(path, enc, stack)):
            with pytest.raises(ContractError, match=f"layer {layer} of the slot"):
                write(Path(tmp) / "out")
        assert list(Path(tmp).iterdir()) == []


def test_adapter_file_arrays_its_header_does_not_cover_are_refused(tmp_path):
    enc, stack = build_model()
    path = tmp_path / "lang.adapter"
    save_adapter(path, stack.lang)  # two layers
    head, _, body = path.read_bytes().partition(b"\x00")
    junk = json.loads(head)
    junk["arrays"].append({"name": "junk", "shape": [2]})
    one_layer = json.loads(head)
    one_layer["num_layers"] = 1
    for manifest, tail, unexpected in ((junk, bytes(16), "['junk']"),
                                       (one_layer, b"", "['1.w_down', '1.w_up']")):
        path.write_bytes(json.dumps(manifest).encode() + b"\x00" + body + tail)
        with pytest.raises(MissingArtifactError, match=re.escape(f"unexpected {unexpected}")):
            load_adapter(path)


def test_adapter_header_without_layer_count_raises_typed_error(tmp_path):
    enc, stack = build_model()
    path = tmp_path / "lang.adapter"
    save_adapter(path, stack.lang)
    head, _, body = path.read_bytes().partition(b"\x00")
    edits = (
        ("num_layers", lambda m: m.pop("num_layers")),
        ("num_layers", lambda m: m.update(num_layers="2")),
        ("num_layers", lambda m: m.update(num_layers=2.0)),
        ("adapter_config", lambda m: m["adapter_config"].update(width=3)),
    )
    for key, edit in edits:
        manifest = json.loads(head)
        edit(manifest)
        path.write_bytes(json.dumps(manifest).encode() + b"\x00" + body)
        with pytest.raises(MissingArtifactError, match=key):
            load_adapter(path)


def test_array_listed_twice_raises_typed_error(tmp_path):
    enc, stack = build_model()
    files = {"model.ckpt": (lambda path: save_checkpoint(path, enc, stack), load_checkpoint),
             "lang.adapter": (lambda path: save_adapter(path, stack.lang), load_adapter)}
    for name, (save, load) in files.items():
        path = tmp_path / name
        save(path)
        head, _, body = path.read_bytes().partition(b"\x00")
        manifest = json.loads(head)
        first = manifest["arrays"][0]
        manifest["arrays"].insert(0, dict(first))  # the first entry and its bytes, twice
        size = 8 * int(np.prod(first["shape"]))
        path.write_bytes(json.dumps(manifest).encode() + b"\x00" + body[:size] + body)
        with pytest.raises(MissingArtifactError, match=f"{first['name']} twice"):
            load(path)


def test_adapter_array_shapes_must_fit_the_header(tmp_path):
    enc, stack = build_model()
    path = tmp_path / "lang.adapter"
    save_adapter(path, stack.task)  # dim 2, hidden 8, two layers
    head, _, body = path.read_bytes().partition(b"\x00")

    def rewrite(edit):
        manifest = json.loads(head)
        edit(manifest)
        path.write_bytes(json.dumps(manifest).encode() + b"\x00" + body)

    rewrite(lambda m: m["adapter_config"].update(dim=3))
    with pytest.raises(MissingArtifactError, match="0.w_down"):
        load_adapter(path)
    # the same sizes, read as another hidden size: 1.w_down [8, 2] as [4, 4]
    rewrite(lambda m: m["arrays"][2].update(shape=[4, 4]))
    with pytest.raises(MissingArtifactError, match="1.w_down"):
        load_adapter(path)
    rewrite(lambda m: m["arrays"][3].update(shape=[8, 2]))  # 1.w_up [2, 8] transposed
    with pytest.raises(MissingArtifactError, match="1.w_up"):
        load_adapter(path)
    rewrite(lambda m: m["arrays"][2].update(name="1.w_dn"))  # a missing layer
    with pytest.raises(MissingArtifactError, match="1.w_down"):
        load_adapter(path)


def test_failed_write_leaves_earlier_file_whole(tmp_path, monkeypatch):
    enc, stack = build_model()
    real = np.ascontiguousarray
    writers = {
        "model.ckpt": lambda path: save_checkpoint(path, enc, stack),
        "lang.adapter": lambda path: save_adapter(path, stack.lang),
    }
    for name, write in writers.items():
        directory = tmp_path / name.split(".")[1]
        directory.mkdir()
        path = directory / name
        write(path)
        before = path.read_bytes()
        calls = []

        def fail_on_second_array(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise OSError("disk full")
            return real(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np, "ascontiguousarray", fail_on_second_array)
            with pytest.raises(OSError, match="disk full"):
                write(path)
        assert path.read_bytes() == before
        assert list(directory.iterdir()) == [path]  # no temporary file left behind


def test_adapter_file_without_layers_is_refused(tmp_path):
    path = tmp_path / "empty.adapter"
    with pytest.raises(ContractError, match="at least one layer"):
        save_adapter(path, [])
    assert not path.exists()


def _claim(entry, key, value):
    return lambda m: (m[entry] if entry in m else m["adapters"][entry]).update({key: value})


@pytest.mark.parametrize("kind, edit", [
    ("checkpoint", _claim("encoder_config", "vocab", 10**6)),
    ("checkpoint", _claim("encoder_config", "max_len", 10**6)),
    ("checkpoint", _claim("encoder_config", "hidden", 1000)),
    ("checkpoint", _claim("encoder_config", "ffn", 10**5)),
    ("checkpoint", _claim("encoder_config", "num_layers", 2000)),
    ("checkpoint", _claim("heads", "cls", 10**6)),
    ("checkpoint", _claim(LANGUAGE, "dim", 10**5)),
    ("adapter", _claim("adapter_config", "dim", 10**5)),
    ("adapter", lambda m: m.update(num_layers=10**4)),
], ids=["vocab", "max_len", "hidden", "ffn", "num_layers", "classes", "dim",
        "adapter_dim", "adapter_layers"])
def test_a_count_the_file_does_not_hold_is_refused_before_allocating(tmp_path, kind, edit):
    enc, stack = build_model()
    path = tmp_path / kind
    save_checkpoint(path, enc, stack) if kind == "checkpoint" else save_adapter(path, stack.lang)
    head, _, body = path.read_bytes().partition(b"\x00")
    manifest = json.loads(head)
    edit(manifest)
    path.write_bytes(json.dumps(manifest).encode() + b"\x00" + body)
    tracemalloc.start()
    try:
        with pytest.raises(MissingArtifactError):
            (load_checkpoint if kind == "checkpoint" else load_adapter)(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the file itself is about 16 KB


# values of each JSON type but an integer, which the fuzz below writes into a header
ODD_VALUES = st.one_of(st.none(), st.booleans(), st.floats(), st.just(float("nan")),
                       st.text(max_size=3), st.lists(st.integers(-2, 2), max_size=2),
                       st.dictionaries(st.text(max_size=2), st.integers(-2, 2), max_size=2))
LOADERS = {"checkpoint": load_checkpoint, "adapter": load_adapter}


@functools.cache
def saved_file(kind):
    """The header and body of a valid checkpoint or adapter file."""
    enc, stack = build_model()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / kind
        save_checkpoint(path, enc, stack) if kind == "checkpoint" else save_adapter(path, stack.lang)
        head, _, body = path.read_bytes().partition(b"\x00")
    return head, body


def header_paths(node, path=()):
    """The key path of every entry under a JSON container, each before its own entries."""
    entries = node.items() if type(node) is dict else enumerate(node) if type(node) is list else ()
    for key, child in entries:
        yield path + (key,)
        yield from header_paths(child, path + (key,))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(LOADERS)), st.data())
def test_a_damaged_file_raises_only_package_errors(kind, data):
    head, body = saved_file(kind)
    manifest = json.loads(head)
    arrays = manifest["arrays"]
    i = data.draw(st.integers(0, len(arrays) - 1), label="array entry")
    # every header entry outside the array directory, and those of one directory entry
    paths = [p for p in header_paths(manifest) if p[0] != "arrays" or p[1:2] in ((), (i,))]
    damage = data.draw(st.sampled_from(["drop", "set", "shrink", "duplicate", "truncate"]))
    if damage in ("drop", "set"):
        *parents, key = data.draw(st.sampled_from(paths))
        parent = functools.reduce(operator.getitem, parents, manifest)
        if damage == "drop":
            del parent[key]
        else:
            parent[key] = data.draw(ODD_VALUES, label="value")
    elif damage == "shrink":
        shape = arrays[i]["shape"]
        shape[data.draw(st.integers(0, len(shape) - 1))] -= 1
    elif damage == "duplicate":
        arrays.insert(i, dict(arrays[i]))
    else:
        body = body[:data.draw(st.integers(0, len(body) - 1))]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / kind
        path.write_bytes(json.dumps(manifest).encode() + b"\x00" + body)
        try:
            LOADERS[kind](path)
        except AdapterLabError:
            pass
