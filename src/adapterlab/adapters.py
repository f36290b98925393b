"""Bottleneck adapters: per-layer slots, stacking order, freezing, swapping.

An adapter maps a hidden state through a down-projection, ReLU, and an
up-projection, then adds its input back:

    out = relu(x @ w_down) @ w_up + x

The up-projection starts at zero, so a fresh adapter is the identity map and
inserting one changes nothing until training moves it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, add, matmul, relu
from .errors import ConfigError, ContractError, SwapError
from .optim import ParamSet

LANGUAGE = "language"
TASK = "task"
# the ParamSet name prefix of each slot's weights
SLOT_PREFIX = {LANGUAGE: "adapter.lang.", TASK: "adapter.task."}

PHASE_LANG = "lang_adapter_training"
PHASE_TASK = "task_adapter_training"
PHASE_FULL = "full_finetune"
PHASE_TASK_ONLY = "task_only_adapter_training"
PHASES = (PHASE_LANG, PHASE_TASK, PHASE_FULL, PHASE_TASK_ONLY)


@dataclass
class AdapterConfig:
    """Shape and behavior of one adapter slot.

    ``dim`` is the bottleneck width (must stay below the hidden size);
    ``orthogonal`` marks the slot as a target of the orthogonality loss.
    """

    dim: int
    kind: str = TASK
    orthogonal: bool = False

    def __post_init__(self):
        if self.kind not in (LANGUAGE, TASK):
            raise ConfigError(f"unknown adapter kind {self.kind!r}")
        if self.dim < 1:
            raise ConfigError(f"adapter dim must be >= 1, got {self.dim}")


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


def init_adapter(config: AdapterConfig, hidden: int, seed: int) -> AdapterWeights:
    """Fresh adapter weights: small uniform down-projection, zero up-projection.

    Zero w_up makes the adapter an exact identity map at initialization.
    """
    if config.dim >= hidden:
        raise ConfigError(
            f"adapter dim {config.dim} must be smaller than hidden size {hidden}"
        )
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(hidden)
    w_down = Tensor(rng.uniform(-bound, bound, size=(hidden, config.dim)))
    w_up = Tensor(np.zeros((config.dim, hidden)))
    return AdapterWeights(config, w_down, w_up)


def init_adapter_stack_slot(config: AdapterConfig, hidden: int, num_layers: int,
                            seed: int) -> list[AdapterWeights]:
    """One adapter per transformer layer, each with its own derived seed."""
    return [init_adapter(config, hidden, seed + 7919 * i) for i in range(num_layers)]


class AdapterStack:
    """Per-layer (language, task) adapter slots with a fixed stacking order.

    The language slot, when present, always applies before the task slot.
    Every layer carries the same occupancy pattern.
    """

    def __init__(self, num_layers: int):
        self.num_layers = num_layers
        self.lang: list[AdapterWeights] | None = None
        self.task: list[AdapterWeights] | None = None

    def fill(self, kind: str, weights: list[AdapterWeights]) -> None:
        if len(weights) != self.num_layers:
            raise ContractError(
                f"need {self.num_layers} adapters for the {kind} slot, got {len(weights)}"
            )
        if kind == LANGUAGE:
            self.lang = weights
        elif kind == TASK:
            self.task = weights
        else:
            raise ConfigError(f"unknown adapter kind {kind!r}")

    def slot(self, kind: str) -> list[AdapterWeights] | None:
        return self.lang if kind == LANGUAGE else self.task

    def register(self, params: ParamSet) -> None:
        """Declare all adapter tensors in the ParamSet under dotted names."""
        for kind in (LANGUAGE, TASK):
            for i, w in enumerate(self.slot(kind) or ()):
                params.add(f"{SLOT_PREFIX[kind]}{i}.w_down", w.w_down)
                params.add(f"{SLOT_PREFIX[kind]}{i}.w_up", w.w_up)


def slot_names(params: ParamSet, kind: str) -> list[str]:
    """Names of one slot's weights in ``params``, in declaration order."""
    return [n for n in params.names() if n.startswith(SLOT_PREFIX[kind])]


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


def set_trainable(params: ParamSet, phase: str) -> ParamSet:
    """Apply a phase's freeze map to the ParamSet and return it.

    lang phase: language adapters only (plus the output projection when the
    MLM head is untied). task phases: task adapters plus task heads. Full
    fine-tune: everything. Each adapter phase also fixes the slots the model
    must carry: lang needs a language slot, the stacked task phase needs both
    slots, and task-only needs a task slot and refuses a language slot.
    """
    if phase not in PHASES:
        raise ConfigError(f"unknown phase {phase!r}; expected one of {PHASES}")
    names = params.names()
    if phase == PHASE_FULL:
        params.set_trainable(names)
        return params
    lang = slot_names(params, LANGUAGE)
    task = slot_names(params, TASK)
    if phase == PHASE_LANG:
        if not lang:
            raise ConfigError("language adapter training needs a language slot")
        trainable = lang
        if "head.mlm.proj" in params:
            trainable += [n for n in names if n.startswith("head.mlm.")]
    else:  # task_adapter_training / task_only_adapter_training
        if not task:
            raise ConfigError("task adapter training needs a task slot")
        if phase == PHASE_TASK and not lang:
            raise ConfigError("stacked task training expects a loaded language slot")
        if phase == PHASE_TASK_ONLY and lang:
            raise ConfigError("task-only phase must not carry a language slot")
        trainable = task + [n for n in names if n.startswith(("head.cls.", "head.tag."))]
    params.set_trainable(trainable)
    return params
