"""Bottleneck adapters: per-layer slots, stacking order, swapping.

An adapter maps a hidden state through a down-projection, ReLU, and an
up-projection, then adds its input back:

    out = relu(x @ w_down) @ w_up + x

The up-projection starts at zero, so a fresh adapter is the identity map and
inserting one changes nothing until training moves it. Each layer of a slot
is one graph node, ``autodiff.adapter``.

A slot's shape and layout live here alone: ``slot_layout`` names and shapes
a slot's ``[H, dim]`` / ``[dim, H]`` tensors and refuses ``dim >= H``, so
every path that builds, fills, saves or loads a slot does; ``zero_slot`` builds
them, ``slot_arrays`` is the one check of a slot's layers and names them by
it, in a ParamSet and in files, ``AdapterStack.slots`` lists a stack's slots,
and ``check_registered`` requires a stack a phase runs or a checkpoint saves to
be, slot for slot, the one registered. The training phase ids are named here
too; which weights each phase trains is decided by ``training.trainable_names``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, adapter
from .errors import ConfigError, ContractError, SwapError, require_int
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

    ``dim`` is the bottleneck width, which ``slot_layout`` requires to be below
    the hidden size. ``orthogonal`` is saved with the slot; whether a phase
    runs the orthogonality loss is ``PhaseConfig.ortho``'s to decide.
    """

    dim: int
    kind: str = TASK
    orthogonal: bool = False

    def __post_init__(self):
        if self.kind not in SLOT_PREFIX:
            raise ConfigError(f"unknown adapter kind {self.kind!r}")
        require_int("adapter dim", self.dim, 1)
        if type(self.orthogonal) is not bool:
            raise ConfigError(f"orthogonal must be a bool, got {self.orthogonal!r}")


@dataclass
class AdapterWeights:
    config: AdapterConfig
    w_down: Tensor  # [H, d]
    w_up: Tensor  # [d, H]


def adapter_forward(x: Tensor, w_down: Tensor, w_up: Tensor,
                    residual: bool = True) -> Tensor:
    """Bottleneck adapter transform, one ``autodiff.adapter`` node; differentiable in all
    three inputs."""
    return adapter(x, w_down, w_up, residual)


def slot_layout(config: AdapterConfig, hidden: int, num_layers: int, prefix: str = ""):
    """(name, shape) of a slot's tensors in file order: per layer ``w_down``, then ``w_up``.

    A slot is a bottleneck: unless ``config.dim < hidden`` the call raises
    ``ConfigError``. The entries themselves are generated as they are read.
    """
    dim = config.dim
    if dim >= hidden:
        raise ConfigError(f"adapter dim {dim} must be smaller than hidden size {hidden}")
    return ((f"{prefix}{i}.{name}", shape) for i in range(num_layers)
            for name, shape in (("w_down", (hidden, dim)), ("w_up", (dim, hidden))))


def zero_slot(config: AdapterConfig, hidden: int, num_layers: int) -> list[AdapterWeights]:
    """A slot of ``num_layers`` adapters, every projection zero."""
    t = [Tensor(np.zeros(shape)) for _, shape in slot_layout(config, hidden, num_layers)]
    return [AdapterWeights(config, w_down, w_up) for w_down, w_up in zip(t[::2], t[1::2])]


def slot_arrays(weights: list[AdapterWeights], prefix: str = "") -> list[tuple[str, Tensor]]:
    """A slot's tensors named by ``slot_layout``: ContractError unless the slot's layers are one
    or more, share one config and are shaped by it for layer 0's hidden size (0 if 0-d)."""
    configs = [w.config for w in weights]
    if not configs or any(c != configs[0] for c in configs):
        raise ContractError(f"a slot needs at least one layer, and its layers must "
                            f"share one config; got {configs}")
    layout = slot_layout(configs[0], (weights[0].w_down.shape or (0,))[0], len(weights), prefix)
    arrays = []
    for i, w in enumerate(weights):
        (down_name, down), (up_name, up) = next(layout), next(layout)
        if (w.w_down.shape, w.w_up.shape) != (down, up):
            raise ContractError(f"layer {i} of the slot holds {w.w_down.shape}/"
                                f"{w.w_up.shape}, not {down}/{up}")
        arrays += [(down_name, w.w_down), (up_name, w.w_up)]
    return arrays


def init_adapter_stack_slot(config: AdapterConfig, hidden: int, num_layers: int,
                            seed: int) -> list[AdapterWeights]:
    """A fresh slot: layer i's w_down uniform from seed ``seed + 7919 * i``, each w_up zero."""
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
    occupancy pattern. ``ConfigError`` unless ``num_layers`` is an int of at least 1.
    """

    def __init__(self, num_layers: int):
        self.num_layers = require_int("num_layers", num_layers, 1)
        self.lang: list[AdapterWeights] | None = None
        self.task: list[AdapterWeights] | None = None

    def fill(self, kind: str, weights: list[AdapterWeights]) -> None:
        _arrays({kind: weights}, self.num_layers)
        setattr(self, "lang" if kind == LANGUAGE else "task", weights)

    def slots(self) -> dict[str, list[AdapterWeights]]:
        """The occupied slots by kind, in stacking order (``SLOT_PREFIX``'s); ``_arrays``'
        ContractError for a slot that does not hold one layer per stack layer."""
        held = {LANGUAGE: self.lang, TASK: self.task}
        slots = {kind: held[kind] for kind in SLOT_PREFIX if held[kind] is not None}
        for kind, weights in slots.items():
            if len(weights) != self.num_layers:
                raise _misfit(kind, weights, self.num_layers)
        return slots

    def register(self, params: ParamSet) -> None:
        """Declare all adapter tensors in the ParamSet under dotted names, if all slots fit."""
        for name, tensor in _arrays(self.slots(), self.num_layers):
            params.add(name, tensor)


def _misfit(kind: str, weights: list[AdapterWeights], num_layers: int) -> ContractError:
    return ContractError(f"the {kind} slot needs {num_layers} {kind} adapters, "
                         f"got {[w.config for w in weights]}")


def _arrays(slots: dict[str, list[AdapterWeights]], num_layers: int) -> list[tuple[str, Tensor]]:
    """The tensors of ``slots`` (kind -> layers) by ``slot_arrays`` under each kind's prefix;
    ``ContractError`` unless each slot fits: one adapter of its kind per stack layer."""
    arrays = []
    for kind, weights in slots.items():
        if not weights or [w.config.kind for w in weights] != [kind] * num_layers:
            raise _misfit(kind, weights, num_layers)
        arrays += slot_arrays(weights, SLOT_PREFIX[kind])
    return arrays


def check_registered(stack: AdapterStack | None, params: ParamSet) -> None:
    """``ConfigError`` naming every slot of ``stack`` (``None`` has none) that does not
    hold exactly the tensor objects ``params`` registers under the slot's prefix; first,
    ``_arrays``' ContractError for a slot that does not fit the stack."""
    arrays = _arrays(stack.slots(), stack.num_layers) if stack is not None else []
    differ = [f"the {kind} slot ({prefix}*)" for kind, prefix in SLOT_PREFIX.items()
              if {n: id(t) for n, t in arrays if n.startswith(prefix)}
              != {n: id(t) for n, t in params.items() if n.startswith(prefix)}]
    if differ:
        raise ConfigError("the stack is not the one registered in " + " and ".join(differ))


def swap_language_adapter(stack: AdapterStack, new_weights: list[tuple[np.ndarray, np.ndarray]]) -> None:
    """Replace the language slot's weights in every layer, in place.

    ``new_weights`` is one (w_down, w_up) array pair per layer. Task slots and
    everything else are untouched. Raises SwapError on any shape mismatch,
    naming the offending layer, and ``stack.slots()``' ContractError on a slot that
    does not hold one layer per stack layer.
    """
    if LANGUAGE not in stack.slots():
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
