"""Checkpoint and adapter container files.

One file = a JSON manifest line (format version, configs, seed, array
directory) + NUL separator + the raw little-endian float64 bytes of every
named array in declaration order. Raw bytes make the round-trip bit-exact.
A write goes to a temporary file beside the target and is renamed over it,
so a write that fails partway leaves any earlier file at the path whole.
A read refuses a header that is not UTF-8 JSON, lacks a key it needs, holds
a container of the wrong type, a config entry its class does not take or
refuses (``num_heads: 0``), a non-integer count, seed or array dimension, an
unknown head, or an array directory that names one array twice, and a body
that does not hold exactly the bytes its array directory lists. An adapter
file's arrays must have the shapes its header's ``dim`` and one hidden size
give them.
A checkpoint loads by array name, so any construction order of the saved
model (heads and adapter stack in either order) reloads.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from pathlib import Path

import numpy as np

from .adapters import SLOT_PREFIX, AdapterConfig, AdapterStack, AdapterWeights
from .autodiff import Tensor
from .encoder import Encoder, EncoderConfig
from .errors import ConfigError, ContractError, MissingArtifactError, SwapError
from .optim import ParamSet

FORMAT_VERSION = 2
_SEP = b"\x00"


def _write_container(path, manifest: dict, arrays: list[tuple[str, np.ndarray]]) -> None:
    manifest = dict(manifest)
    manifest["format_version"] = FORMAT_VERSION
    manifest["arrays"] = [
        {"name": name, "shape": list(arr.shape)} for name, arr in arrays
    ]
    blob = json.dumps(manifest, sort_keys=True).encode("utf-8") + _SEP
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(blob)
            for _, arr in arrays:
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_container(path) -> tuple[dict, dict[str, np.ndarray]]:
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
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in directory.items():
        count = math.prod(shape)
        arr = np.frombuffer(body, dtype="<f8", count=count, offset=offset)
        arrays[name] = arr.reshape(shape).astype(np.float64)
        offset += count * 8
    return manifest, arrays


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


def save_checkpoint(path, encoder: Encoder, stack: AdapterStack | None = None) -> None:
    """Serialize the encoder (heads included) plus any attached adapter stack."""
    manifest = {
        "kind": "checkpoint",
        "seed": encoder.seed,
        "encoder_config": dataclasses.asdict(encoder.config),
        "heads": dict(encoder.head_classes),
        # the slot kinds are the keys, so renaming a kind changes the file format
        "adapters": {
            kind: dataclasses.asdict(stack.slot(kind)[0].config)
            if stack and stack.slot(kind) else None
            for kind in SLOT_PREFIX
        },
    }
    arrays = [(name, tensor.values) for name, tensor in encoder.params.items()]
    _write_container(path, manifest, arrays)


def load_checkpoint(path) -> tuple[Encoder, AdapterStack | None, dict]:
    """Rebuild an encoder (+stack) from a container file, values bit-exact."""
    manifest, arrays = _read_container(path)
    if manifest.get("kind") != "checkpoint":
        raise MissingArtifactError(f"{path} is not a checkpoint container")
    _require(path, "header", manifest, "encoder_config", "seed", "heads", "adapters")
    adapters = _require(path, "adapters", manifest["adapters"], *SLOT_PREFIX)
    config = _build(path, EncoderConfig, manifest, "encoder_config")
    encoder = Encoder(config, seed=_integer(path, "seed", manifest["seed"], 0))
    builders = {"cls": encoder.ensure_cls_head, "tag": encoder.ensure_tag_head}
    for head, n in _require(path, "heads", manifest["heads"]).items():
        if head not in builders:
            raise MissingArtifactError(f"{path}: header entry heads names an unknown "
                                       f"head {head!r}")
        builders[head](_integer(path, f"heads.{head}", n, 1))
    kinds = [kind for kind in SLOT_PREFIX if adapters[kind]]
    stack = AdapterStack(config.num_layers) if kinds else None
    for kind in kinds:
        acfg = _build(path, AdapterConfig, adapters, kind)
        stack.fill(kind, [
            AdapterWeights(acfg, Tensor(np.zeros((config.hidden, acfg.dim))),
                           Tensor(np.zeros((acfg.dim, config.hidden))))
            for _ in range(config.num_layers)
        ])
    if stack is not None:
        stack.register(encoder.params)
    built = dict(encoder.params.items())
    missing = [name for name in built if name not in arrays]
    extra = [name for name in arrays if name not in built]
    if missing or extra:
        raise MissingArtifactError(f"{path}: array directory does not match the model: "
                                   f"missing {missing}, unexpected {extra}")
    # declared in the file's order, so saving the loaded model writes the same bytes
    encoder.params = ParamSet()
    for name in arrays:
        tensor = encoder.params.add(name, built[name])
        if tensor.shape != arrays[name].shape:
            raise MissingArtifactError(f"{path}: array {name} has shape "
                                       f"{arrays[name].shape}, the model expects {tensor.shape}")
        tensor.values[...] = arrays[name]
    return encoder, stack, manifest


def save_adapter(path, weights: list[AdapterWeights], seed: int = 0,
                 language: str | None = None) -> None:
    """Standalone adapter file: one (w_down, w_up) pair per layer."""
    if not weights:
        raise ContractError("an adapter file needs the weights of at least one layer")
    manifest = {
        "kind": "adapter",
        "seed": seed,
        "language": language,
        "adapter_config": dataclasses.asdict(weights[0].config),
        "num_layers": len(weights),
    }
    arrays = []
    for i, w in enumerate(weights):
        arrays.append((f"{i}.w_down", w.w_down.values))
        arrays.append((f"{i}.w_up", w.w_up.values))
    _write_container(path, manifest, arrays)


def load_adapter(path) -> tuple[AdapterConfig, list[tuple[np.ndarray, np.ndarray]], dict]:
    manifest, arrays = _read_container(path)
    if manifest.get("kind") != "adapter":
        raise MissingArtifactError(f"{path} is not an adapter container")
    _require(path, "header", manifest, "adapter_config", "num_layers")
    config = _build(path, AdapterConfig, manifest, "adapter_config")
    num_layers = _integer(path, "num_layers", manifest["num_layers"], 1)
    pairs = []
    for i in range(num_layers):
        try:
            w_down, w_up = arrays[f"{i}.w_down"], arrays[f"{i}.w_up"]
        except KeyError as exc:
            raise SwapError(f"{path}: adapter file missing layer {i} arrays") from exc
        if i == 0:  # the hidden size every layer must share
            hidden = w_down.shape[0] if w_down.ndim else 0
        for name, arr, want in ((f"{i}.w_down", w_down, (hidden, config.dim)),
                                (f"{i}.w_up", w_up, (config.dim, hidden))):
            if arr.shape != want:
                raise MissingArtifactError(f"{path}: array {name} has shape {arr.shape}, "
                                           f"adapter dim {config.dim} and hidden size "
                                           f"{hidden} need {want}")
        pairs.append((w_down, w_up))
    return config, pairs, manifest
