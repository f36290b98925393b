"""Training losses: masked LM, sequence classification, tagging, orthogonality.

The orthogonality loss reads the adapter activations recorded by encode: per
layer it averages the squared cosine between each token's slot input and slot
output, then sums the per-layer means. Identity adapters score exactly 1 per
layer; a slot whose outputs are orthogonal to its inputs scores 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import (
    IGNORE_LABEL,
    Tensor,
    add,
    cosine_sq_rows,
    cross_entropy,
    mul,
    reshape,
    tsum,
)
from .encoder import LayerActivations
from .errors import ConfigError, ContractError
from .synthlang import FIRST_REGULAR, MASK

COSINE_EPS = 1e-12


@dataclass
class MaskingPolicy:
    """BERT-style masking: which fraction to corrupt, and how.

    Of the selected positions, ``split`` = (mask, random, keep) fractions.
    Reserved ids below ``FIRST_REGULAR`` are never selected; ``vocab`` bounds
    the random replacements.
    """

    mask_fraction: float = 0.15
    split: tuple[float, float, float] = (0.8, 0.1, 0.1)
    vocab: int = 0

    def __post_init__(self):
        if not 0.0 < self.mask_fraction <= 1.0:
            raise ConfigError(f"mask fraction must be in (0, 1], got {self.mask_fraction}")
        if abs(sum(self.split) - 1.0) > 1e-12 or any(s < 0 for s in self.split):
            raise ConfigError(f"mask/random/keep split must sum to 1, got {self.split}")
        if self.vocab <= FIRST_REGULAR:
            raise ConfigError("vocab leaves no regular ids to mask")


def apply_masking(
    token_ids: np.ndarray,
    mask: np.ndarray,
    policy: MaskingPolicy,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Corrupt a [B, T] id batch for MLM and build its label matrix.

    Selected positions keep their original id as the label; everything else is
    the ignore marker. 80/10/10: mask token, random regular id, unchanged.
    Sequences with no maskable token are skipped; their count is returned.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    corrupted = ids.copy()
    labels = np.full_like(ids, IGNORE_LABEL)
    skipped = 0
    for b in range(ids.shape[0]):
        maskable = np.flatnonzero(
            (mask[b] == 1) & (ids[b] >= FIRST_REGULAR)
        )
        if maskable.size == 0:
            skipped += 1
            continue
        n_pick = max(1, round(policy.mask_fraction * maskable.size))
        picked = rng.choice(maskable, size=n_pick, replace=False)
        labels[b, picked] = ids[b, picked]
        rolls = rng.random(n_pick)
        p_mask, p_rand, _ = policy.split
        for pos, roll in zip(picked, rolls):
            if roll < p_mask:
                corrupted[b, pos] = MASK
            elif roll < p_mask + p_rand:
                corrupted[b, pos] = rng.integers(FIRST_REGULAR, policy.vocab)
            # else: keep original
    return corrupted, labels, skipped


@dataclass
class OrthoLossReport:
    """Differentiable total plus the per-layer means it sums."""

    loss: Tensor
    per_layer: list[float] = field(default_factory=list)
    token_counts: list[int] = field(default_factory=list)

    @property
    def total(self) -> float:
        return self.loss.item()


def ortho_loss(
    acts: LayerActivations,
    slot: str,
    mask: np.ndarray | None = None,
    stop_grad_input: bool = True,
    include_padding: bool = False,
    exclude_residual: bool = False,
) -> OrthoLossReport:
    """Sum over layers of the per-token mean squared cosine for one slot.

    ``slot`` is "language" or "task"; its input/output pair must be recorded
    in every layer. Padded tokens are excluded unless ``include_padding``.
    With ``stop_grad_input`` (default) the slot output is recomputed from a
    detached copy of the slot input, so gradients reach the slot's own
    weights and nothing upstream of it.
    ``exclude_residual`` scores only the bottleneck's own contribution
    (with the residual term, full orthogonality is unreachable).
    """
    # Looked up in ``adapters`` at call time, not bound at module level (there
    # is no import cycle): perfbench's tracer rebinds ``adapters.adapter_forward``,
    # and a module-level binding would hide this recompute from traced runs.
    from .adapters import adapter_forward

    records = acts.slot(slot)
    if not records or any(r is None for r in records):
        raise ContractError(f"ortho_loss: the {slot} slot is not occupied in every layer")
    if mask is None:
        mask = acts.mask
    total: Tensor | None = None
    per_layer: list[float] = []
    counts: list[int] = []
    for rec in records:
        b, t, h = rec.x_in.shape
        x_in = rec.x_in.detach() if stop_grad_input else rec.x_in
        u = reshape(x_in, (b * t, h))
        if rec.weights is not None and (stop_grad_input or exclude_residual):
            w = rec.weights
            out = adapter_forward(x_in, w.w_down, w.w_up, residual=not exclude_residual)
        else:
            out = rec.x_out
        v = reshape(out, (b * t, h))
        cos2 = cosine_sq_rows(u, v, COSINE_EPS)
        if include_padding or mask is None:
            include = np.ones(b * t)
        else:
            include = (np.asarray(mask).reshape(b * t) == 1).astype(np.float64)
        count = int(include.sum())
        if count == 0:
            raise ContractError("ortho_loss: no tokens left after padding exclusion")
        layer_mean = mul(tsum(mul(cos2, Tensor(include))), 1.0 / count)
        total = layer_mean if total is None else add(total, layer_mean)
        per_layer.append(layer_mean.item())
        counts.append(count)
    return OrthoLossReport(loss=total, per_layer=per_layer, token_counts=counts)


def mlm_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy over the labeled (masked) positions of [B, T, V] logits."""
    b, t, v = logits.shape
    return cross_entropy(reshape(logits, (b * t, v)), np.asarray(labels).reshape(-1))


def seq_cls_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Cross-entropy over whole-sequence class logits [B, C]."""
    return cross_entropy(logits, labels)


def tagging_loss(logits: Tensor, labels: np.ndarray, sum_reduction: bool = False) -> Tensor:
    """Token-level cross-entropy over [B, T, C] logits.

    Defaults to the mean over labeled tokens so magnitudes stay comparable
    across batch shapes; ``sum_reduction`` restores the plain sum.
    """
    b, t, c = logits.shape
    flat_labels = np.asarray(labels).reshape(-1)
    loss = cross_entropy(reshape(logits, (b * t, c)), flat_labels)
    if sum_reduction:
        n_labeled = int((flat_labels != IGNORE_LABEL).sum())
        loss = mul(loss, float(n_labeled))
    return loss
