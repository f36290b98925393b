"""Minimal transformer encoder with an adapter injection point per layer.

Each layer runs post-norm self-attention and feed-forward sublayers. The
attention sublayer projects Q, K and V with three ``autodiff.linear`` nodes
(one biased GEMM each), then one ``autodiff.attention`` node splits the
heads, scores, masks padded keys, takes the softmax, weighs V and merges the
heads; the output projection (``linear``), dropout and one ``layer_norm``
node over the residual sum follow. The feed-forward sublayer and the heads
use ``linear`` too, so every weight GEMM and its bias is one node. The
adapter injection point sits after the feed-forward sublayer's residual
layer norm. The occupied adapter slots apply there in the stacking order
of ``AdapterStack.slots``: language first, then task, each one
``autodiff.adapter`` node per layer. For each occupied slot
``encode`` records, per layer, the values of the slot's input and the
weights it applied, so the orthogonality loss can recompute the slot output
from that input taken as a constant.

``encode(read=...)`` runs the last layer's tail after attention (the output
projection, both layer norms, the feed-forward sublayer and their dropout)
on the rows ``read`` alone: the rows some loss reads. One ``scatter_rows``
node puts them back into a zero [B, T, H] before the slots, which run
full-size: their products too would round apart over fewer rows. Rows
outside ``read`` are zero in the returned states and in the last layer's
slot records; on the read rows, every value and gradient is bit for bit
that of the full forward (``autodiff``'s four rules for a row set).

``backbone_layout`` and ``head_layout`` state each weight's name and shape
once: the encoder builds its weights by them, and ``checkpoint`` checks files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adapters import AdapterStack, AdapterWeights, adapter_forward
from .autodiff import (
    Tensor,
    add,
    attention,
    dropout,
    embedding_lookup,
    layer_norm,
    linear,
    relu,
    scatter_rows,
    swap_last,
    take_rows,
    tanh,
)
from .errors import ConfigError, ContractError, SequenceLengthError, require_fraction, require_int
from .optim import ParamSet

MASK_BIAS = -1e9


@dataclass(frozen=True)  # so the fields stay as __post_init__ checked them
class EncoderConfig:
    vocab: int
    num_layers: int = 2
    hidden: int = 32
    num_heads: int = 4
    ffn: int = 64
    max_len: int = 128
    dropout: float = 0.1
    tie_mlm: bool = True

    def __post_init__(self):
        for name, least in (("vocab", 2), ("num_layers", 1), ("hidden", 1), ("num_heads", 1),
                            ("ffn", 1), ("max_len", 1)):
            require_int(name, getattr(self, name), least)
        require_fraction("dropout", self.dropout, below_one=True)
        if type(self.tie_mlm) is not bool:
            raise ConfigError(f"tie_mlm must be a bool, got {self.tie_mlm!r}")
        if self.hidden % self.num_heads != 0:
            raise ConfigError(
                f"hidden size {self.hidden} not divisible by {self.num_heads} heads"
            )


def backbone_layout(config: EncoderConfig):
    """(name, shape) of every backbone weight, in declaration order."""
    c, h = config, config.hidden
    yield from (("embed.tok", (c.vocab, h)), ("embed.pos", (c.max_len, h)))
    for i in range(c.num_layers):
        layer = [(f"attn.w{x}", (h, h)) for x in "qkvo"] + [(f"attn.b{x}", (h,)) for x in "qkvo"]
        layer += [("ln1.gain", (h,)), ("ln1.bias", (h,)), ("ffn.w1", (h, c.ffn)),
                  ("ffn.b1", (c.ffn,)), ("ffn.w2", (c.ffn, h)), ("ffn.b2", (h,)),
                  ("ln2.gain", (h,)), ("ln2.bias", (h,))]
        yield from ((f"layer.{i}.{name}", shape) for name, shape in layer)
    yield "head.mlm.bias", (c.vocab,)
    if not c.tie_mlm:
        yield "head.mlm.proj", (h, c.vocab)


# each head draws from the encoder's seed plus its offset, whatever order heads are built in
HEAD_SEED_OFFSET = {"cls": 101, "tag": 202}


def head_layout(head: str, hidden: int, n: int) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of an ``n``-class head's weights, in declaration order."""
    if head == "tag":
        return [("head.tag.w", (hidden, n)), ("head.tag.b", (n,))]
    return [("head.cls.pool_w", (hidden, hidden)), ("head.cls.pool_b", (hidden,)),
            ("head.cls.out_w", (hidden, n)), ("head.cls.out_b", (n,))]


class Encoder:
    """Backbone encoder plus optional MLM / sequence / tagging heads.

    All weights live in a single ParamSet under dotted names so training
    phases can freeze by prefix and checkpoints can serialize in declaration
    order.
    """

    def __init__(self, config: EncoderConfig, seed: int = 0):
        self.config = config
        self.seed = require_int("seed", seed, 0)
        self.params = ParamSet()
        self._declare(np.random.default_rng(seed), backbone_layout(config))
        self.head_classes: dict[str, int] = {}

    def _declare(self, rng: np.random.Generator, layout) -> None:
        """Add each (name, shape) of ``layout`` as a tensor with its initial values."""
        for name, shape in layout:
            if name.startswith("embed."):
                values = rng.normal(0.0, 0.05, size=shape)
            elif len(shape) == 2:  # Xavier-uniform
                bound = np.sqrt(6.0 / (shape[0] + shape[1]))
                values = rng.uniform(-bound, bound, size=shape)
            else:
                values = np.ones(shape) if name.endswith(".gain") else np.zeros(shape)
            self.params.add(name, Tensor(values))

    # --- heads, created on demand --------------------------------------------

    def ensure_cls_head(self, num_classes: int) -> None:
        self._ensure_head("cls", num_classes)

    def ensure_tag_head(self, num_tags: int) -> None:
        self._ensure_head("tag", num_tags)

    def _ensure_head(self, head: str, num_classes: int) -> None:
        """Build the head once; refuses a class count below 1, or not an int, or changed."""
        require_int(f"{head} head classes", num_classes, 1)
        if self.head_classes.get(head, num_classes) != num_classes:
            raise ConfigError(f"{head} head already built for {self.head_classes[head]} classes")
        if head not in self.head_classes:
            rng = np.random.default_rng(self.seed + HEAD_SEED_OFFSET[head])
            self._declare(rng, head_layout(head, self.config.hidden, num_classes))
            self.head_classes[head] = num_classes

    # --- forward ---------------------------------------------------------------

    def encode(
        self,
        token_ids: np.ndarray,
        mask: np.ndarray,
        stack: AdapterStack | None = None,
        rng: np.random.Generator | None = None,
        read: np.ndarray | None = None,
    ) -> tuple[Tensor, dict[str, list[tuple[np.ndarray, AdapterWeights]]]]:
        """Run the backbone over a [B, T] id batch.

        ``mask`` is 1 on real tokens and 0 on padding; padded positions are
        never attended to. The token embedding lookup range-checks the ids
        (``VocabError``). Dropout at the configured rate applies when an
        ``rng`` is given and never otherwise. Returns final states [B, T, H]
        and, per occupied slot kind, one (input values, weights) pair per
        layer; empty kinds are absent.

        ``read``, if given, lists the flat rows of [B*T] that a loss reads,
        strictly increasing integers in [0, B*T), else ``ContractError``. The
        last layer then runs its tail after attention on those rows only, and
        its slots see (and record) them in a zero [B, T, H], so every other
        row of the final states is zero.
        """
        c = self.config
        p = self.params
        ids = np.asarray(token_ids)
        mask = np.asarray(mask)
        if ids.ndim != 2 or mask.shape != ids.shape or ids.size == 0:
            raise ConfigError(f"ids {ids.shape} and mask {mask.shape} must both be "
                              f"[B, T] with B, T >= 1")
        if ids.dtype.kind not in "iu":
            raise ConfigError(f"token ids must be integers, got dtype {ids.dtype}")
        if not np.logical_and.reduce((mask == 0) | (mask == 1), axis=None):
            raise ConfigError(f"mask entries must be 0 or 1, got {np.unique(mask)}")
        if ids.shape[1] > c.max_len:
            raise SequenceLengthError(
                f"sequence length {ids.shape[1]} exceeds max_len {c.max_len}"
            )
        if stack is not None and stack.num_layers != c.num_layers:
            raise ConfigError(f"adapter stack has {stack.num_layers} layers, "
                              f"the encoder {c.num_layers}")
        if read is not None:
            read = np.asarray(read)
            if read.ndim != 1 or read.size and (read.dtype.kind not in "iu" or read[0] < 0
                    or read[-1] >= ids.size or not np.logical_and.reduce(read[1:] > read[:-1])):
                raise ContractError(f"read must be strictly increasing integer rows in "
                                    f"[0, {ids.size}), got {read}")
            read = read.astype(np.int64, copy=False)
        drop = c.dropout if rng is not None else 0.0
        slots = stack.slots() if stack is not None else {}

        x = dropout(add(embedding_lookup(p["embed.tok"], ids),
                        embedding_lookup(p["embed.pos"], np.arange(ids.shape[1]))), drop, rng)
        # additive key bias: -1e9 on padded keys, broadcast over [B, heads, Tq, Tk]
        key_bias = (1.0 - mask.astype(np.float64))[:, None, None, :] * MASK_BIAS
        acts = {kind: [] for kind in slots}
        for i in range(c.num_layers):
            rows = (read, ids.shape) if read is not None and i == c.num_layers - 1 else None
            x = self._attention_sublayer(i, x, key_bias, drop, rng, rows)
            x = self._ffn_sublayer(i, x, drop, rng, rows)
            if rows is not None:
                x = scatter_rows(x, *rows)
            for kind, weights in slots.items():
                acts[kind].append((x.values, weights[i]))
                x = adapter_forward(x, weights[i].w_down, weights[i].w_up)
        return x, acts

    def _attention_sublayer(self, i, x, key_bias, drop, rng, rows):
        p = self.params
        q = linear(x, p[f"layer.{i}.attn.wq"], p[f"layer.{i}.attn.bq"])
        k = linear(x, p[f"layer.{i}.attn.wk"], p[f"layer.{i}.attn.bk"])
        v = linear(x, p[f"layer.{i}.attn.wv"], p[f"layer.{i}.attn.bv"])
        ctx = attention(q, k, v, key_bias, self.config.num_heads)
        if rows is not None:  # the tail after attention runs on the read rows
            ctx, x = take_rows(ctx, rows[0]), take_rows(x, rows[0])
        out = linear(ctx, p[f"layer.{i}.attn.wo"], p[f"layer.{i}.attn.bo"], rows)
        out = dropout(out, drop, rng, rows)
        return layer_norm(x, out, p[f"layer.{i}.ln1.gain"], p[f"layer.{i}.ln1.bias"])

    def _ffn_sublayer(self, i, x, drop, rng, rows):
        p = self.params
        inner = relu(linear(x, p[f"layer.{i}.ffn.w1"], p[f"layer.{i}.ffn.b1"], rows))
        out = linear(inner, p[f"layer.{i}.ffn.w2"], p[f"layer.{i}.ffn.b2"], rows)
        out = dropout(out, drop, rng, rows)
        return layer_norm(x, out, p[f"layer.{i}.ln2.gain"], p[f"layer.{i}.ln2.bias"])

    # --- output heads ------------------------------------------------------------

    def mlm_logits(self, states: Tensor) -> Tensor:
        """Vocabulary logits per position; projection tied to input embeddings."""
        p = self.params
        proj = swap_last(p["embed.tok"]) if self.config.tie_mlm else p["head.mlm.proj"]
        return linear(states, proj, p["head.mlm.bias"])

    def cls_logits(self, rows: Tensor) -> Tensor:
        """Sequence-level logits from a tanh pool over the [n, H] [CLS] rows it is given."""
        p = self.params
        pooled = tanh(linear(rows, p["head.cls.pool_w"], p["head.cls.pool_b"]))
        return linear(pooled, p["head.cls.out_w"], p["head.cls.out_b"])

    def tag_logits(self, states: Tensor) -> Tensor:
        """Per-position tag logits."""
        p = self.params
        return linear(states, p["head.tag.w"], p["head.tag.b"])
