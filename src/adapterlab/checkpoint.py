"""Checkpoint and adapter container files.

One file = a JSON manifest line (format version, configs, seed, array
directory) + NUL separator + the raw little-endian float64 bytes of every
named array in declaration order. Raw bytes make the round-trip bit-exact.
A read refuses a header that is not UTF-8 JSON or lacks a key it needs, and a
body that does not hold exactly the bytes its array directory lists.
A checkpoint loads by array name, so any construction order of the saved
model (heads and adapter stack in either order) reloads.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from .adapters import (
    LANGUAGE,
    TASK,
    AdapterConfig,
    AdapterStack,
    AdapterWeights,
)
from .autodiff import Tensor
from .encoder import Encoder, EncoderConfig
from .errors import MissingArtifactError, SwapError
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
    with open(path, "wb") as fh:
        fh.write(blob)
        for _, arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


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
    _require(path, manifest, "arrays")
    directory = [(entry["name"], tuple(entry["shape"])) for entry in manifest["arrays"]]
    listed = sum(8 * math.prod(shape) for _, shape in directory)
    if len(body) != listed:
        raise MissingArtifactError(f"{path}: body holds {len(body)} bytes, "
                                   f"its array directory lists {listed}")
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in directory:
        count = math.prod(shape)
        arr = np.frombuffer(body, dtype="<f8", count=count, offset=offset)
        arrays[name] = arr.reshape(shape).astype(np.float64)
        offset += count * 8
    return manifest, arrays


def _require(path, header: dict, *keys: str) -> None:
    missing = [key for key in keys if key not in header]
    if missing:
        raise MissingArtifactError(f"{path}: header lacks {', '.join(missing)}")


def save_checkpoint(path, encoder: Encoder, stack: AdapterStack | None = None,
                    extra: dict | None = None) -> None:
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
            for kind in (LANGUAGE, TASK)
        },
    }
    if extra:
        manifest["extra"] = extra
    arrays = [(name, tensor.values) for name, tensor in encoder.params.items()]
    _write_container(path, manifest, arrays)


def load_checkpoint(path) -> tuple[Encoder, AdapterStack | None, dict]:
    """Rebuild an encoder (+stack) from a container file, values bit-exact."""
    manifest, arrays = _read_container(path)
    if manifest.get("kind") != "checkpoint":
        raise MissingArtifactError(f"{path} is not a checkpoint container")
    _require(path, manifest, "encoder_config", "seed", "heads", "adapters")
    _require(path, manifest["adapters"], LANGUAGE, TASK)
    config = EncoderConfig(**manifest["encoder_config"])
    encoder = Encoder(config, seed=manifest["seed"])
    for head, n in manifest["heads"].items():
        if head == "cls":
            encoder.ensure_cls_head(n)
        else:
            encoder.ensure_tag_head(n)
    stack = None
    adapters = manifest["adapters"]
    if adapters[LANGUAGE] or adapters[TASK]:
        stack = AdapterStack(config.num_layers)
        for kind in (LANGUAGE, TASK):
            if not adapters[kind]:
                continue
            acfg = AdapterConfig(**adapters[kind])
            stack.fill(kind, [
                AdapterWeights(acfg, Tensor(np.zeros((config.hidden, acfg.dim))),
                               Tensor(np.zeros((acfg.dim, config.hidden))))
                for _ in range(config.num_layers)
            ])
        stack.register(encoder.params)
    built = dict(encoder.params.items())
    stored = [entry["name"] for entry in manifest["arrays"]]
    missing = [name for name in built if name not in arrays]
    extra = [name for name in stored if name not in built]
    if missing or extra:
        raise MissingArtifactError(f"{path}: array directory does not match the model: "
                                   f"missing {missing}, unexpected {extra}")
    # declared in the file's order, so saving the loaded model writes the same bytes
    encoder.params = ParamSet()
    for name in stored:
        tensor = encoder.params.add(name, built[name])
        if tensor.shape != arrays[name].shape:
            raise MissingArtifactError(f"{path}: array {name} has shape "
                                       f"{arrays[name].shape}, the model expects {tensor.shape}")
        tensor.values[...] = arrays[name]
    return encoder, stack, manifest


def save_adapter(path, weights: list[AdapterWeights], seed: int = 0,
                 language: str | None = None) -> None:
    """Standalone adapter file: one (w_down, w_up) pair per layer."""
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
    _require(path, manifest, "adapter_config", "num_layers")
    config = AdapterConfig(**manifest["adapter_config"])
    pairs = []
    for i in range(manifest["num_layers"]):
        try:
            pairs.append((arrays[f"{i}.w_down"], arrays[f"{i}.w_up"]))
        except KeyError as exc:
            raise SwapError(f"{path}: adapter file missing layer {i} arrays") from exc
    return config, pairs, manifest
