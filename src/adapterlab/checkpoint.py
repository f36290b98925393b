"""Checkpoint and adapter container files.

One file = a JSON manifest line (format version, configs, seed, array
directory) + NUL separator + the raw little-endian float64 bytes of every
named array in declaration order. Raw bytes make the round-trip bit-exact.
A write goes to a temporary file beside the target and is renamed over it,
so a write that fails partway leaves any earlier file at the path whole.
Both kinds of file lay a slot out by ``adapters.slot_arrays`` and
``adapters.slot_config``, and a loader copies a file's slot into an
``adapters.zero_slot``. A read refuses a header that is not UTF-8 JSON,
lacks a key it needs, holds a container of the wrong type, a config entry
its class does not take or refuses (``num_heads: 0``) or, in a checkpoint,
of another slot kind, a non-integer count, seed or array dimension, an
unknown head, or an array directory that names one array twice, and a body
that does not hold exactly the bytes its array directory lists. Next,
before building anything, ``_check_claims`` refuses a header count no array
bears out, so a load allocates no more than the file holds. Then
``_copy_arrays`` refuses a missing, unexpected or misshapen array (an
adapter file's hidden size is that of ``0.w_down``) before copying any. A
checkpoint loads by array name, so any construction order of the saved
model (heads and adapter stack in either order) reloads.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np

from .adapters import (SLOT_PREFIX, AdapterConfig, AdapterStack, slot_arrays,
                       slot_config, zero_slot)
from .autodiff import Tensor
from .encoder import Encoder, EncoderConfig
from .errors import ConfigError, MissingArtifactError
from .optim import ParamSet

FORMAT_VERSION = 2
_SEP = b"\x00"
_HEAD_CLASSES = {"cls": "head.cls.out_b", "tag": "head.tag.b"}  # [classes] bias of each head


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
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"no such checkpoint or adapter file: {path}")
    raw = path.read_bytes()
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
    if type(value) is not int or value < least:
        raise MissingArtifactError(f"{path}: header entry {key} must be an integer "
                                   f">= {least}, got {value!r}")
    return value


def _build(path, cls, header: dict, key: str):
    """``cls`` built from the header entry ``key``, which must fit its fields."""
    try:
        return cls(**header[key])
    except (TypeError, ConfigError) as exc:  # a field unknown, missing or out of range
        raise MissingArtifactError(f"{path}: header entry {key} does not fit "
                                   f"{cls.__name__}: {exc}") from exc


def _check_claims(path, directory: dict, claims) -> None:
    """Refuse the first (name, shape) claim the array directory does not hold."""
    for name, shape in claims:
        if directory.get(name) != shape:
            raise MissingArtifactError(f"{path}: the header implies array {name} of shape "
                                       f"{shape}, the array directory holds {directory.get(name)}")


def _copy_arrays(path, directory: dict, body: bytes, expected: dict[str, Tensor]) -> None:
    """Copy each array of ``body`` into its tensor, once all names and shapes match."""
    missing = [name for name in expected if name not in directory]
    extra = [name for name in directory if name not in expected]
    if missing or extra:
        raise MissingArtifactError(f"{path}: array directory does not match the model: "
                                   f"missing {missing}, unexpected {extra}")
    for name, shape in directory.items():
        if shape != expected[name].shape:
            raise MissingArtifactError(f"{path}: array {name} has shape {shape}, "
                                       f"the model expects {expected[name].shape}")
    offset = 0
    for name, shape in directory.items():
        count = math.prod(shape)
        expected[name].values[...] = np.frombuffer(body, "<f8", count, offset).reshape(shape)
        offset += 8 * count


def save_checkpoint(path, encoder: Encoder, stack: AdapterStack | None = None) -> None:
    """Serialize the encoder (heads included) plus any attached adapter stack."""
    manifest = {
        "kind": "checkpoint",
        "seed": encoder.seed,
        "encoder_config": dataclasses.asdict(encoder.config),
        "heads": dict(encoder.head_classes),
        # the slot kinds are the keys, so renaming a kind changes the file format
        "adapters": {
            kind: dataclasses.asdict(slot_config(stack.slot(kind)))
            if stack and stack.slot(kind) else None
            for kind in SLOT_PREFIX
        },
    }
    _write_container(path, manifest, list(encoder.params.items()))


def load_checkpoint(path) -> tuple[Encoder, AdapterStack | None, dict]:
    """Rebuild an encoder (+stack) from a container file, values bit-exact."""
    manifest, directory, body = _read_container(path)
    if manifest.get("kind") != "checkpoint":
        raise MissingArtifactError(f"{path} is not a checkpoint container")
    _require(path, "header", manifest, "encoder_config", "seed", "heads", "adapters")
    adapters = _require(path, "adapters", manifest["adapters"], *SLOT_PREFIX)
    config = _build(path, EncoderConfig, manifest, "encoder_config")
    seed = _integer(path, "seed", manifest["seed"], 0)
    hidden, num_layers = config.hidden, config.num_layers
    claims = [("embed.tok", (config.vocab, hidden)), ("embed.pos", (config.max_len, hidden))]
    heads = _require(path, "heads", manifest["heads"])
    for head, n in heads.items():
        if head not in _HEAD_CLASSES:
            raise MissingArtifactError(f"{path}: header entry heads names an unknown "
                                       f"head {head!r}")
        claims.append((_HEAD_CLASSES[head], (_integer(path, f"heads.{head}", n, 1),)))
    slots = {kind: _build(path, AdapterConfig, adapters, kind)
             for kind in SLOT_PREFIX if adapters[kind]}
    for kind, acfg in slots.items():
        if acfg.kind != kind:
            raise MissingArtifactError(f"{path}: header entry adapters.{kind} has kind {acfg.kind}")
        claims.append((f"{SLOT_PREFIX[kind]}0.w_down", (hidden, acfg.dim)))
    _check_claims(path, directory, claims)
    # a generator, so a claimed layer count stops at the first layer the file lacks
    _check_claims(path, directory, ((f"layer.{i}.ffn.w1", (hidden, config.ffn))
                                    for i in range(num_layers)))
    encoder = Encoder(config, seed=seed)
    builders = {"cls": encoder.ensure_cls_head, "tag": encoder.ensure_tag_head}
    for head, n in heads.items():
        builders[head](n)
    stack = AdapterStack(num_layers) if slots else None
    for kind, acfg in slots.items():
        stack.fill(kind, zero_slot(acfg, hidden, num_layers))
    if stack is not None:
        stack.register(encoder.params)
    built = dict(encoder.params.items())
    _copy_arrays(path, directory, body, built)
    # declared in the file's order, so saving the loaded model writes the same bytes
    encoder.params = ParamSet()
    for name in directory:
        encoder.params.add(name, built[name])
    return encoder, stack, manifest


def save_adapter(path, weights: list, seed: int = 0, language: str | None = None) -> None:
    """Standalone adapter file of a slot: one (w_down, w_up) pair per layer."""
    manifest = {
        "kind": "adapter",
        "seed": seed,
        "language": language,
        "adapter_config": dataclasses.asdict(slot_config(weights)),
        "num_layers": len(weights),
    }
    _write_container(path, manifest, slot_arrays(weights))


def load_adapter(path) -> tuple[AdapterConfig, list[tuple[np.ndarray, np.ndarray]], dict]:
    manifest, directory, body = _read_container(path)
    if manifest.get("kind") != "adapter":
        raise MissingArtifactError(f"{path} is not an adapter container")
    _require(path, "header", manifest, "adapter_config", "num_layers")
    config = _build(path, AdapterConfig, manifest, "adapter_config")
    num_layers = _integer(path, "num_layers", manifest["num_layers"], 1)
    hidden = (directory.get("0.w_down") or (0,))[0]  # the one every layer must share
    _check_claims(path, directory, ((f"{i}.w_down", (hidden, config.dim))
                                    for i in range(num_layers)))
    slot = zero_slot(config, hidden, num_layers)
    _copy_arrays(path, directory, body, dict(slot_arrays(slot)))
    return config, [(w.w_down.values, w.w_up.values) for w in slot], manifest
