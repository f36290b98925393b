"""Training losses: masked LM, sequence classification, tagging, orthogonality.

Masked LM selects ``MASK_FRACTION`` of each sequence's maskable tokens and
splits them ``MASK_SPLIT`` into ``[MASK]``, a random regular id and kept, as
BERT does (Devlin et al. 2019, arXiv 1810.04805).

Every loss is a plain mean over the rows it receives, and which rows a loss
reads is decided once, before the head or the adapter recompute runs:
``labelled_rows`` picks the masked-LM and tagged positions (the ones whose
label is not ``IGNORE_LABEL``), sequence classification reads the [CLS]
pool, and ``ortho_loss`` reads the real tokens (1 in the mask). A position
a loss does not read cannot move its value or its gradient.

The orthogonality loss is computed one way. It reads the (input values,
weights) pairs that ``Encoder.encode`` returns for one slot kind. Per layer
it takes the real tokens' rows of the recorded slot input, as a constant,
recomputes the slot output from them with the slot's own weights, and
averages the squared cosine between each token's input and output; then it
sums the per-layer means. Gradients therefore reach the slot's weights and
nothing upstream. Identity adapters score exactly 1 per layer; a slot whose
outputs are orthogonal to its inputs scores 0.
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
    embedding_lookup,
    mul,
    reshape,
    tsum,
)
from .errors import ConfigError, ContractError, EmptyLossError, ShapeError
from .synthlang import FIRST_REGULAR, MASK


MASK_FRACTION = 0.15
MASK_SPLIT = (0.8, 0.1, 0.1)


@dataclass
class MaskingPolicy:
    """Masking over ``vocab`` ids, which bounds the random replacements."""

    vocab: int = 0

    def __post_init__(self):
        if self.vocab <= FIRST_REGULAR:
            raise ConfigError("vocab leaves no regular ids to mask")


def apply_masking(
    token_ids: np.ndarray,
    mask: np.ndarray,
    policy: MaskingPolicy,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Corrupt a [B, T] id batch for MLM and build its label matrix.

    Reserved ids below ``FIRST_REGULAR`` are never selected. Selected positions
    keep their original id as the label; everything else is the ignore marker.
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
        n_pick = max(1, round(MASK_FRACTION * maskable.size))
        picked = rng.choice(maskable, size=n_pick, replace=False)
        labels[b, picked] = ids[b, picked]
        rolls = rng.random(n_pick)
        p_mask, p_rand, _ = MASK_SPLIT
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


def ortho_loss(
    acts: dict[str, list],
    slot: str,
    mask: np.ndarray,
    exclude_residual: bool = False,
) -> OrthoLossReport:
    """Sum over layers of the per-token mean squared cosine for one slot.

    ``acts`` is the second return value of ``Encoder.encode``: per occupied
    slot kind, one (slot input values, weights) pair per layer. ``slot``
    ("language" or "task") must be one of its kinds. The slot output is
    recomputed from the real tokens' rows of the recorded slot input, taken
    as a constant, so gradients reach the slot's own weights and nothing
    upstream of it. Padded tokens (0 in ``mask``, the [B, T] mask of the
    batch encode ran on) are never read. ``exclude_residual`` scores only the
    bottleneck's own contribution (with the residual term, full
    orthogonality is unreachable).
    """
    # Looked up in ``adapters`` at call time, not bound at module level (there
    # is no import cycle): perfbench's tracer rebinds ``adapters.adapter_forward``,
    # and a module-level binding would hide this recompute from traced runs.
    from .adapters import adapter_forward

    records = acts.get(slot)
    if not records:
        raise ContractError(f"ortho_loss: the {slot} slot is not occupied")
    mask = np.asarray(mask)
    if mask.shape != records[0][0].shape[:-1]:
        raise ShapeError(f"mask {mask.shape} does not match the slot inputs "
                         f"{records[0][0].shape}")
    real = np.flatnonzero(mask.reshape(-1) == 1)
    if real.size == 0:
        raise ContractError("ortho_loss: no tokens left after padding exclusion")
    total: Tensor | None = None
    per_layer: list[float] = []
    for values, w in records:
        x_in = Tensor(values.reshape(-1, values.shape[-1])[real])
        out = adapter_forward(x_in, w.w_down, w.w_up, residual=not exclude_residual)
        layer_mean = mul(tsum(cosine_sq_rows(x_in, out)), 1.0 / real.size)
        total = layer_mean if total is None else add(total, layer_mean)
        per_layer.append(layer_mean.item())
    return OrthoLossReport(loss=total, per_layer=per_layer)


def labelled_rows(states: Tensor, labels: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """The rows of [B, T, H] states whose label is not ``IGNORE_LABEL``.

    Returns them as [n, H], in row-major position order, with their n
    labels, so a head can score only the positions a loss reads. Raises
    ``EmptyLossError`` when no position carries a label.
    """
    b, t, h = states.shape
    labels = np.asarray(labels)
    if labels.shape != (b, t):
        raise ShapeError(f"labels {labels.shape} do not match states {states.shape}")
    flat = labels.reshape(-1)
    picked = np.flatnonzero(flat != IGNORE_LABEL)
    if picked.size == 0:
        raise EmptyLossError("every position carries the ignore marker")
    return embedding_lookup(reshape(states, (b * t, h)), picked), flat[picked]


def mlm_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of [n, C] logits against their n labels.

    The rows are the ones the loss reads, chosen before the head: the
    ``labelled_rows`` of the states for masked LM and tagging, one [CLS] pool
    per sequence for sequence classification.
    """
    return cross_entropy(logits, labels)


# one definition under the three names ``training`` calls (perfbench's tracer
# rebinds each there)
seq_cls_loss = tagging_loss = mlm_loss
