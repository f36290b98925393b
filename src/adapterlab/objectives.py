"""Training losses: masked LM, sequence classification, tagging, orthogonality.

Masked LM selects ``MASK_FRACTION`` of each sequence's maskable tokens and
splits them ``MASK_SPLIT`` into ``[MASK]``, a random regular id and kept, as
BERT does (Devlin et al. 2019, arXiv 1810.04805).

Every loss is a plain mean over the rows it reads, and two rules, each
stated once, say which rows those are. A main loss (masked LM, tagging,
sequence classification) reads the ``labelled_rows`` of its [B, T] labels:
the positions whose label is not ``IGNORE_LABEL``; sequence classification
labels each sequence at its [CLS] position. The orthogonality loss reads
the ``real_rows`` of the mask: the real tokens. A training step hands the
rows a rule gives to ``Encoder.encode``'s ``read`` and to the loss alike,
so a position a loss does not read cannot move its value or its gradient.

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
    mul,
    tsum,
)
from .errors import ContractError, EmptyLossError, ShapeError, require_int
from .synthlang import FIRST_REGULAR, MASK


MASK_FRACTION = 0.15
MASK_SPLIT = (0.8, 0.1, 0.1)


@dataclass
class MaskingPolicy:
    """Masking over ``vocab`` ids, which bounds the random replacements."""

    vocab: int

    def __post_init__(self):  # a vocab of reserved ids only leaves no regular ids to mask
        require_int("vocab", self.vocab, FIRST_REGULAR + 1)


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
    ``ShapeError`` unless the ids are [B, T] and the mask has their shape.

    The draws, which fix a seed's masks, go row by row: a row of ``n > 0``
    maskable positions draws ``rng.choice(n, k, replace=False)`` for its ``k``
    picks, ``rng.random(k)`` for their rolls, then one ``rng.integers`` for
    each pick, in pick order, whose roll falls in the random-replacement band.
    """
    ids, mask = np.asarray(token_ids, dtype=np.int64), np.asarray(mask)
    if ids.ndim != 2 or mask.shape != ids.shape:
        raise ShapeError(f"apply_masking needs [B, T] ids and mask, got {ids.shape}, {mask.shape}")
    maskable = (mask == 1) & (ids >= FIRST_REGULAR)
    positions = maskable.ravel().nonzero()[0]  # row by row, so each row's are a slice
    counts = np.add.reduce(maskable, axis=1).tolist()
    p_mask, p_rand, _ = MASK_SPLIT
    picked, rolls, replacements, start = [], [], [], 0
    for n in counts:
        if n:
            k = max(1, round(MASK_FRACTION * n))
            picked += positions[start + rng.choice(n, size=k, replace=False)].tolist()
            rolls += rng.random(k).tolist()
            replacements += [rng.integers(FIRST_REGULAR, policy.vocab)
                             for roll in rolls[-k:] if p_mask <= roll < p_mask + p_rand]
        start += n
    picked, rolls = np.array(picked, dtype=np.int64), np.array(rolls)
    corrupted, labels = ids.copy(), np.full(ids.shape, IGNORE_LABEL, dtype=np.int64)
    labels.reshape(-1)[picked] = ids.reshape(-1)[picked]
    corrupted.reshape(-1)[picked[rolls < p_mask]] = MASK  # a roll above the band keeps its id
    corrupted.reshape(-1)[picked[(p_mask <= rolls) & (rolls < p_mask + p_rand)]] = replacements
    return corrupted, labels, counts.count(0)


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
    recomputed from the ``real_rows`` of ``mask`` in the recorded slot input,
    taken as a constant, so gradients reach the slot's own weights and nothing
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
    real = real_rows(mask)
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


def labelled_rows(labels: np.ndarray) -> np.ndarray:
    """The flat rows of a [B, T] label batch that a main loss reads: the positions whose
    label is not ``IGNORE_LABEL``, in increasing order.

    Raises ``ShapeError`` unless ``labels`` is 2-D and ``EmptyLossError`` when
    no position carries a label.
    """
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ShapeError(f"labels must be [B, T], got shape {labels.shape}")
    rows = (labels != IGNORE_LABEL).ravel().nonzero()[0]
    if rows.size == 0:
        raise EmptyLossError("every position carries the ignore marker")
    return rows


def real_rows(mask: np.ndarray) -> np.ndarray:
    """The flat rows of a [B, T] mask that the orthogonality loss reads: the real tokens
    (1 in the mask), in increasing order."""
    return (np.asarray(mask) == 1).ravel().nonzero()[0]


def mlm_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of [n, C] logits, the head's over the ``labelled_rows`` of the
    states alone, against their n labels."""
    return cross_entropy(logits, labels)


# one definition under the three names ``training`` calls (perfbench's tracer
# rebinds each there)
seq_cls_loss = tagging_loss = mlm_loss
