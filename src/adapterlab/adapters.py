"""Bottleneck adapters: per-layer slots, stacking order, swapping.

An adapter maps a hidden state through a down-projection, ReLU, and an
up-projection, then adds its input back:

    out = relu(x @ w_down) @ w_up + x

The up-projection starts at zero, so a fresh adapter is the identity map and
inserting one changes nothing until training moves it.

A slot's shape and layout live here alone: ``zero_slot`` builds a slot's
``[H, dim]`` / ``[dim, H]`` tensors, ``slot_config`` checks that they fit one
config and one H, and ``slot_arrays`` names them, in a ParamSet and in
files. The training phase ids are named here too; which weights each phase
trains is decided by ``training.trainable_names``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, add, matmul, relu
from .errors import ConfigError, ContractError, SwapError
from .optim import ParamSet

LANGUAGE = "language"
TASK = "task"
# the ParamSet name prefix of each slot's weights; the order is the stacking order
SLOT_PREFIX = {LANGUAGE: "adapter.lang.", TASK: "adapter.task."}

PHASE_LANG = "lang_adapter_training"
PHASE_TASK = "task_adapter_training"
PHASE_FULL = "full_finetune"


@dataclass(frozen=True)  # so the fields stay as __post_init__ checked them
class AdapterConfig:
    """Shape and behavior of one adapter slot.

    ``dim`` is the bottleneck width (must stay below the hidden size);
    ``orthogonal`` marks the slot as a target of the orthogonality loss.
    """

    dim: int
    kind: str = TASK
    orthogonal: bool = False

    def __post_init__(self):
        if self.kind not in SLOT_PREFIX:
            raise ConfigError(f"unknown adapter kind {self.kind!r}")
        if type(self.dim) is not int or self.dim < 1:  # bools and floats too
            raise ConfigError(f"adapter dim must be an integer >= 1, got {self.dim!r}")


@dataclass
class AdapterWeights:
    config: AdapterConfig
    w_down: Tensor  # [H, d]
    w_up: Tensor  # [d, H]


def adapter_forward(x: Tensor, w_down: Tensor, w_up: Tensor,
                    residual: bool = True) -> Tensor:
    """Bottleneck adapter transform; differentiable in all three inputs."""
    core = matmul(relu(matmul(x, w_down)), w_up)
    return add(core, x) if residual else core


def zero_slot(config: AdapterConfig, hidden: int, num_layers: int) -> list[AdapterWeights]:
    """A slot of ``num_layers`` adapters, every projection zero."""
    return [AdapterWeights(config, Tensor(np.zeros((hidden, config.dim))),
                           Tensor(np.zeros((config.dim, hidden))))
            for _ in range(num_layers)]


def slot_arrays(weights: list[AdapterWeights], prefix: str = "") -> list[tuple[str, Tensor]]:
    """A slot's named tensors in file order: ``{prefix}{layer}.w_down``, then ``.w_up``."""
    return [(f"{prefix}{i}.{part}", tensor) for i, w in enumerate(weights)
            for part, tensor in (("w_down", w.w_down), ("w_up", w.w_up))]


def slot_config(weights: list[AdapterWeights]) -> AdapterConfig:
    """The config a slot's layers share, with [H, dim] / [dim, H] tensors; else ContractError."""
    configs = [w.config for w in weights]
    if not configs or any(c != configs[0] for c in configs):
        raise ContractError(f"a slot needs at least one layer, and its layers must "
                            f"share one config; got {configs}")
    dim, hidden = configs[0].dim, weights[0].w_down.shape[:1]  # layer 0's H; () if 0-d
    for i, w in enumerate(weights):
        if w.w_down.shape != (*hidden, dim) or w.w_up.shape != (dim, *hidden):
            raise ContractError(f"layer {i} of the slot holds {w.w_down.shape}/"
                                f"{w.w_up.shape}, not [H, {dim}]/[{dim}, H] for one H")
    return configs[0]


def init_adapter_stack_slot(config: AdapterConfig, hidden: int, num_layers: int,
                            seed: int) -> list[AdapterWeights]:
    """A fresh slot: layer i's w_down uniform from seed ``seed + 7919 * i``, each w_up zero."""
    if config.dim >= hidden:
        raise ConfigError(f"adapter dim {config.dim} must be smaller than hidden size {hidden}")
    slot = zero_slot(config, hidden, num_layers)
    bound = 1.0 / np.sqrt(hidden)
    for i, w in enumerate(slot):
        w.w_down.values[...] = np.random.default_rng(seed + 7919 * i).uniform(
            -bound, bound, size=w.w_down.shape)
    return slot


class AdapterStack:
    """Per-layer language and task adapter slots.

    The occupied slots apply in ``SLOT_PREFIX`` order (language before task),
    whatever order they were filled in. Every layer carries the same
    occupancy pattern.
    """

    def __init__(self, num_layers: int):
        self.num_layers = num_layers
        self.lang: list[AdapterWeights] | None = None
        self.task: list[AdapterWeights] | None = None

    def fill(self, kind: str, weights: list[AdapterWeights]) -> None:
        if len(weights) != self.num_layers or slot_config(weights).kind != kind:
            raise ContractError(f"the {kind} slot needs {self.num_layers} {kind} adapters, "
                                f"got {[w.config for w in weights]}")
        if kind == LANGUAGE:
            self.lang = weights
        else:
            self.task = weights

    def slot(self, kind: str) -> list[AdapterWeights] | None:
        return self.lang if kind == LANGUAGE else self.task

    def register(self, params: ParamSet) -> None:
        """Declare all adapter tensors in the ParamSet under dotted names."""
        for kind, prefix in SLOT_PREFIX.items():
            for name, tensor in slot_arrays(self.slot(kind) or [], prefix):
                params.add(name, tensor)


def swap_language_adapter(stack: AdapterStack, new_weights: list[tuple[np.ndarray, np.ndarray]]) -> AdapterStack:
    """Replace the language slot's weights in every layer, in place.

    ``new_weights`` is one (w_down, w_up) array pair per layer. Task slots and
    everything else are untouched. Raises SwapError on any shape mismatch,
    naming the offending layer.
    """
    if stack.lang is None:
        raise SwapError("stack has no language slot to swap")
    if len(new_weights) != stack.num_layers:
        raise SwapError(
            f"swap needs {stack.num_layers} layer weight pairs, got {len(new_weights)}"
        )
    for i, (w_down, w_up) in enumerate(new_weights):
        slot = stack.lang[i]
        w_down = np.asarray(w_down, dtype=np.float64)
        w_up = np.asarray(w_up, dtype=np.float64)
        if w_down.shape != slot.w_down.shape or w_up.shape != slot.w_up.shape:
            raise SwapError(
                f"layer {i}: expected {slot.w_down.shape}/{slot.w_up.shape}, "
                f"got {w_down.shape}/{w_up.shape}"
            )
    for i, (w_down, w_up) in enumerate(new_weights):
        stack.lang[i].w_down.values[...] = w_down
        stack.lang[i].w_up.values[...] = w_up
    return stack
