"""Checkpoint and adapter container files.

One file = a JSON manifest line (format version, configs, a checkpoint's
seed, array directory) + NUL separator + the raw little-endian float64
bytes of every named array in declaration order. Raw bytes make the
round-trip bit-exact. A write goes to a temporary file beside the target
and is renamed over it, so a write that fails partway leaves any earlier
file at the path whole. Both kinds of file lay a slot out by
``adapters.slot_arrays``, which checks its layers first, and take its config
from layer 0; a loader copies a file's slot into an ``adapters.zero_slot``. A read refuses a path it
cannot read (absent, a directory), a header that is not UTF-8 JSON, lacks
a key it needs, holds a container of the wrong type, a config entry its
class does not take or refuses (``num_heads: 0``) or, in a checkpoint, of
another slot kind, a non-integer count, seed or array dimension, an
unknown head, or an array directory that names one array twice, and a body
that does not hold exactly the bytes its array directory lists. Next,
before building anything, ``_check_layout`` compares the array directory in
one pass with the layout the header implies (``encoder.backbone_layout`` and
``head_layout``, ``adapters.slot_layout``; an adapter file's hidden size is
that of ``0.w_down``) and refuses a missing, unexpected or misshapen array,
or a slot whose dim is not below its hidden size.
It reads at most one layout entry past the directory's length, so a load
allocates no more than the file holds; a save refuses, unwritten, a model its
header would not reload. A checkpoint loads by array name, so any
construction order of the saved model (heads and adapter stack in either
order) reloads.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import os
from pathlib import Path

import numpy as np

from .adapters import (SLOT_PREFIX, AdapterConfig, AdapterStack, check_registered,
                       slot_arrays, slot_layout, zero_slot)
from .autodiff import Tensor
from .encoder import HEAD_SEED_OFFSET, Encoder, EncoderConfig, backbone_layout, head_layout
from .errors import ConfigError, MissingArtifactError, require_int
from .optim import ParamSet

FORMAT_VERSION = 2
_SEP = b"\x00"


def _write_container(path, manifest: dict, arrays: list[tuple[str, Tensor]]) -> None:
    manifest = dict(manifest)
    manifest["format_version"] = FORMAT_VERSION
    manifest["arrays"] = [{"name": name, "shape": list(t.shape)} for name, t in arrays]
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8") + _SEP
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
            for _, t in arrays:
                fh.write(np.ascontiguousarray(t.values, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_container(path) -> tuple[dict, dict[str, tuple[int, ...]], bytes]:
    """The header, its array directory (name -> shape) and the array bytes."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:  # absent, a directory, unreadable
        raise MissingArtifactError(f"{path}: not a readable container file: {exc}") from exc
    head, _, body = raw.partition(_SEP)
    try:
        manifest = json.loads(head.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError alike
        raise MissingArtifactError(f"{path}: header is not UTF-8 JSON") from exc
    version = manifest.get("format_version") if isinstance(manifest, dict) else None
    if version != FORMAT_VERSION:
        raise MissingArtifactError(f"{path}: unsupported container format {version}")
    _require(path, "header", manifest, "arrays")
    if type(manifest["arrays"]) is not list:
        raise MissingArtifactError(f"{path}: header entry arrays must be a list")
    directory: dict[str, tuple[int, ...]] = {}
    for i, entry in enumerate(manifest["arrays"]):
        _require(path, f"arrays[{i}]", entry, "name", "shape")
        name, shape = entry["name"], entry["shape"]
        if type(name) is not str or type(shape) is not list:
            raise MissingArtifactError(f"{path}: array directory entry {name!r} needs a "
                                       f"string name and a shape list")
        if name in directory:
            raise MissingArtifactError(f"{path}: array directory lists {name} twice")
        directory[name] = tuple(_integer(path, f"shape of {name}", d, 0) for d in shape)
    listed = sum(8 * math.prod(shape) for shape in directory.values())
    if len(body) != listed:
        raise MissingArtifactError(f"{path}: body holds {len(body)} bytes, "
                                   f"its array directory lists {listed}")
    return manifest, directory, body


def _require(path, where: str, header, *keys: str) -> dict:
    """``header`` if it is a mapping holding every key, else a typed error."""
    if type(header) is not dict:
        raise MissingArtifactError(f"{path}: header entry {where} must be a mapping, "
                                   f"got a {type(header).__name__}")
    missing = [key for key in keys if key not in header]
    if missing:
        raise MissingArtifactError(f"{path}: {where} lacks {', '.join(missing)}")
    return header


def _integer(path, key: str, value, least: int) -> int:
    """``value`` if it is an integer of at least ``least``, else a typed error."""
    return require_int(f"{path}: header entry {key}", value, least, MissingArtifactError)


def _build(path, cls, header: dict, key: str):
    """``cls`` built from the header entry ``key``, which must fit its fields."""
    try:
        return cls(**header[key])
    except (TypeError, ConfigError) as exc:  # a field unknown, missing or out of range
        raise MissingArtifactError(f"{path}: header entry {key} does not fit "
                                   f"{cls.__name__}: {exc}") from exc


def _layout(config: EncoderConfig, heads: dict, slots: dict):
    """(name, shape) of every array of a checkpoint with these configs, heads and slots."""
    hidden, num_layers = config.hidden, config.num_layers
    return itertools.chain(
        backbone_layout(config), *(head_layout(head, hidden, n) for head, n in heads.items()),
        *(slot_layout(acfg, hidden, num_layers, SLOT_PREFIX[kind]) for kind, acfg in slots.items()))


def _check_layout(path, directory: dict, layout, error=MissingArtifactError) -> None:
    """Refuse configs ``layout()`` refuses, or an array directory (name -> shape) that is
    not exactly ``layout()``; reads at most one layout entry past the directory's length,
    so a count no array bears out is cheap."""
    try:
        expected = dict(itertools.islice(layout(), len(directory) + 1))
    except ConfigError as exc:  # a slot not narrower than its hidden size
        raise error(f"{path}: {exc}") from None
    missing = [name for name in expected if name not in directory]
    if len(expected) > len(directory):  # the rest of the layout is never read
        raise error(f"{path}: the header implies more arrays than the {len(directory)} of its "
                    f"array directory; of the first {len(expected)}, missing {missing}")
    extra = [name for name in directory if name not in expected]
    if missing or extra:
        raise error(f"{path}: the arrays do not match the layout the header implies: "
                    f"missing {missing}, unexpected {extra}")
    for name, shape in expected.items():
        if directory[name] != shape:
            raise error(f"{path}: the header implies array {name} of shape {shape}, "
                        f"the array directory holds {directory[name]}")


def _copy_arrays(directory: dict, body: bytes, tensors: dict[str, Tensor]) -> None:
    """Copy each array of ``body`` into the tensor of its name."""
    offset = 0
    for name, shape in directory.items():
        count = math.prod(shape)
        tensors[name].values[...] = np.frombuffer(body, "<f8", count, offset).reshape(shape)
        offset += 8 * count


def save_checkpoint(path, encoder: Encoder, stack: AdapterStack | None = None) -> None:
    """Serialize the encoder (heads included) plus any attached adapter stack."""
    check_registered(stack, encoder.params)  # checks each slot; else the file would not load
    slots = {kind: layers[0].config for kind, layers in stack.slots().items()} if stack else {}
    manifest = {
        "kind": "checkpoint",
        "seed": encoder.seed,
        "encoder_config": dataclasses.asdict(encoder.config),
        "heads": dict(encoder.head_classes),
        # the slot kinds are the keys, so renaming a kind changes the file format
        "adapters": {kind: dataclasses.asdict(slots[kind]) if kind in slots else None
                     for kind in SLOT_PREFIX},
    }
    arrays = list(encoder.params.items())
    _check_layout(path, {name: t.shape for name, t in arrays},
                  lambda: _layout(encoder.config, encoder.head_classes, slots), ConfigError)
    _write_container(path, manifest, arrays)


def load_checkpoint(path) -> tuple[Encoder, AdapterStack | None, dict]:
    """Rebuild an encoder (+stack) from a container file, values bit-exact."""
    manifest, directory, body = _read_container(path)
    if manifest.get("kind") != "checkpoint":
        raise MissingArtifactError(f"{path} is not a checkpoint container")
    _require(path, "header", manifest, "encoder_config", "seed", "heads", "adapters")
    adapters = _require(path, "adapters", manifest["adapters"], *SLOT_PREFIX)
    config = _build(path, EncoderConfig, manifest, "encoder_config")
    heads = _require(path, "heads", manifest["heads"])
    for head, n in heads.items():
        if head not in HEAD_SEED_OFFSET:
            raise MissingArtifactError(f"{path}: header entry heads names an unknown head {head!r}")
        _integer(path, f"heads.{head}", n, 1)
    slots = {kind: _build(path, AdapterConfig, adapters, kind)
             for kind in SLOT_PREFIX if adapters[kind]}
    for kind, acfg in slots.items():
        if acfg.kind != kind:
            raise MissingArtifactError(f"{path}: header entry adapters.{kind} has kind {acfg.kind}")
    _check_layout(path, directory, lambda: _layout(config, heads, slots))
    encoder = Encoder(config, seed=_integer(path, "seed", manifest["seed"], 0))
    for head, n in heads.items():
        (encoder.ensure_cls_head if head == "cls" else encoder.ensure_tag_head)(n)
    stack = AdapterStack(config.num_layers) if slots else None
    for kind, acfg in slots.items():
        stack.fill(kind, zero_slot(acfg, config.hidden, config.num_layers))
    if stack is not None:
        stack.register(encoder.params)
    built = dict(encoder.params.items())
    _copy_arrays(directory, body, built)
    # declared in the file's order, so saving the loaded model writes the same bytes
    encoder.params = ParamSet()
    for name in directory:
        encoder.params.add(name, built[name])
    return encoder, stack, manifest


def save_adapter(path, weights: list, language: str | None = None) -> None:
    """Standalone adapter file of a slot: one (w_down, w_up) pair per layer."""
    arrays = slot_arrays(weights)
    manifest = {
        "kind": "adapter",
        "language": language,
        "adapter_config": dataclasses.asdict(weights[0].config),
        "num_layers": len(weights),
    }
    _write_container(path, manifest, arrays)


def load_adapter(path) -> tuple[AdapterConfig, list[tuple[np.ndarray, np.ndarray]], dict]:
    """(slot config, one (w_down, w_up) array pair per layer, header) of an adapter file."""
    manifest, directory, body = _read_container(path)
    if manifest.get("kind") != "adapter":
        raise MissingArtifactError(f"{path} is not an adapter container")
    _require(path, "header", manifest, "adapter_config", "num_layers")
    config = _build(path, AdapterConfig, manifest, "adapter_config")
    num_layers = _integer(path, "num_layers", manifest["num_layers"], 1)
    hidden = (directory.get("0.w_down") or (0,))[0]  # the one every layer must share
    _check_layout(path, directory, lambda: slot_layout(config, hidden, num_layers))
    slot = zero_slot(config, hidden, num_layers)
    _copy_arrays(directory, body, dict(slot_arrays(slot)))
    return config, [(w.w_down.values, w.w_up.values) for w in slot], manifest
