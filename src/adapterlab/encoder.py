"""Minimal transformer encoder with an adapter injection point per layer.

Each layer runs post-norm self-attention and feed-forward sublayers. The
adapter injection point sits after the feed-forward sublayer's residual
addition and layer norm. Occupied adapter slots apply in fixed order:
language first, then task. The per-layer (slot input, slot output) pairs are
recorded so the orthogonality loss can read them back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adapters import LANGUAGE, AdapterStack, AdapterWeights, adapter_forward
from .autodiff import (
    Tensor,
    add,
    dropout,
    embedding_lookup,
    layer_norm,
    matmul,
    mul,
    relu,
    reshape,
    select_token,
    softmax_rows,
    swap_last,
    tanh,
    transpose,
)
from .errors import ConfigError, SequenceLengthError, VocabError
from .optim import ParamSet

LN_EPS = 1e-12
MASK_BIAS = -1e9


@dataclass
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
        if self.hidden % self.num_heads != 0:
            raise ConfigError(
                f"hidden size {self.hidden} not divisible by {self.num_heads} heads"
            )
        if self.max_len < 1:
            raise ConfigError("max_len must be at least 1")
        if self.vocab < 2:
            raise ConfigError("vocab must hold at least two ids")


@dataclass
class SlotRecord:
    """Input/output activation pair of one occupied adapter slot, one layer.

    The slot's weights ride along so a loss can recompute the output from a
    detached input (gradient stop on everything upstream of the slot).
    """

    x_in: Tensor
    x_out: Tensor
    weights: AdapterWeights | None = None


@dataclass
class LayerActivations:
    """Per-layer adapter activations recorded during encode."""

    lang: list[SlotRecord | None] = field(default_factory=list)
    task: list[SlotRecord | None] = field(default_factory=list)
    mask: np.ndarray | None = None

    def slot(self, kind: str) -> list[SlotRecord | None]:
        return self.lang if kind == LANGUAGE else self.task


def _xavier(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class Encoder:
    """Backbone encoder plus optional MLM / sequence / tagging heads.

    All weights live in a single ParamSet under dotted names so training
    phases can freeze by prefix and checkpoints can serialize in declaration
    order.
    """

    def __init__(self, config: EncoderConfig, seed: int = 0):
        self.config = config
        self.seed = seed
        self.params = ParamSet()
        rng = np.random.default_rng(seed)
        c = config
        p = self.params
        p.add("embed.tok", Tensor(rng.normal(0.0, 0.05, size=(c.vocab, c.hidden))))
        p.add("embed.pos", Tensor(rng.normal(0.0, 0.05, size=(c.max_len, c.hidden))))
        for i in range(c.num_layers):
            for name in ("wq", "wk", "wv", "wo"):
                p.add(f"layer.{i}.attn.{name}", Tensor(_xavier(rng, c.hidden, c.hidden)))
            for name in ("bq", "bk", "bv", "bo"):
                p.add(f"layer.{i}.attn.{name}", Tensor(np.zeros(c.hidden)))
            p.add(f"layer.{i}.ln1.gain", Tensor(np.ones(c.hidden)))
            p.add(f"layer.{i}.ln1.bias", Tensor(np.zeros(c.hidden)))
            p.add(f"layer.{i}.ffn.w1", Tensor(_xavier(rng, c.hidden, c.ffn)))
            p.add(f"layer.{i}.ffn.b1", Tensor(np.zeros(c.ffn)))
            p.add(f"layer.{i}.ffn.w2", Tensor(_xavier(rng, c.ffn, c.hidden)))
            p.add(f"layer.{i}.ffn.b2", Tensor(np.zeros(c.hidden)))
            p.add(f"layer.{i}.ln2.gain", Tensor(np.ones(c.hidden)))
            p.add(f"layer.{i}.ln2.bias", Tensor(np.zeros(c.hidden)))
        p.add("head.mlm.bias", Tensor(np.zeros(c.vocab)))
        if not c.tie_mlm:
            p.add("head.mlm.proj", Tensor(_xavier(rng, c.hidden, c.vocab)))
        self.head_classes: dict[str, int] = {}

    # --- heads, created on demand --------------------------------------------

    def ensure_cls_head(self, num_classes: int, seed: int | None = None) -> None:
        if "head.cls.out_w" in self.params:
            if self.head_classes["cls"] != num_classes:
                raise ConfigError(
                    f"cls head already built for {self.head_classes['cls']} classes"
                )
            return
        rng = np.random.default_rng(self.seed + 101 if seed is None else seed)
        h = self.config.hidden
        self.params.add("head.cls.pool_w", Tensor(_xavier(rng, h, h)))
        self.params.add("head.cls.pool_b", Tensor(np.zeros(h)))
        self.params.add("head.cls.out_w", Tensor(_xavier(rng, h, num_classes)))
        self.params.add("head.cls.out_b", Tensor(np.zeros(num_classes)))
        self.head_classes["cls"] = num_classes

    def ensure_tag_head(self, num_tags: int, seed: int | None = None) -> None:
        if "head.tag.w" in self.params:
            if self.head_classes["tag"] != num_tags:
                raise ConfigError(
                    f"tag head already built for {self.head_classes['tag']} classes"
                )
            return
        rng = np.random.default_rng(self.seed + 202 if seed is None else seed)
        h = self.config.hidden
        self.params.add("head.tag.w", Tensor(_xavier(rng, h, num_tags)))
        self.params.add("head.tag.b", Tensor(np.zeros(num_tags)))
        self.head_classes["tag"] = num_tags

    # --- forward ---------------------------------------------------------------

    def encode(
        self,
        token_ids: np.ndarray,
        mask: np.ndarray,
        stack: AdapterStack | None = None,
        training: bool = False,
        rng: np.random.Generator | None = None,
    ) -> tuple[Tensor, LayerActivations]:
        """Run the backbone over a [B, T] id batch.

        ``mask`` is 1 on real tokens and 0 on padding; padded positions are
        never attended to. Returns final states [B, T, H] and the recorded
        adapter activations.
        """
        c = self.config
        p = self.params
        ids = np.asarray(token_ids, dtype=np.int64)
        mask = np.asarray(mask)
        if ids.ndim != 2 or mask.shape != ids.shape or ids.size == 0:
            raise ConfigError(f"ids {ids.shape} and mask {mask.shape} must both be "
                              f"[B, T] with B, T >= 1")
        lo, hi = int(ids.min()), int(ids.max())
        if lo < 0 or hi >= c.vocab:
            raise VocabError(
                f"token id {lo if lo < 0 else hi} outside vocabulary of size {c.vocab}"
            )
        if ids.shape[1] > c.max_len:
            raise SequenceLengthError(
                f"sequence length {ids.shape[1]} exceeds max_len {c.max_len}"
            )
        drop = c.dropout if training else 0.0
        if drop > 0.0 and rng is None:
            raise ConfigError("training-mode encode needs an rng for dropout")

        b, t = ids.shape
        x = add(embedding_lookup(p["embed.tok"], ids),
                embedding_lookup(p["embed.pos"], np.arange(t)))
        if drop > 0.0:
            x = dropout(x, drop, rng)
        # additive key bias: -1e9 on padded keys, broadcast over [B, heads, Tq, Tk]
        key_bias = Tensor((1.0 - mask.astype(np.float64))[:, None, None, :] * MASK_BIAS)
        acts = LayerActivations(mask=mask.copy())
        dh = c.hidden // c.num_heads
        scale = 1.0 / np.sqrt(dh)
        for i in range(c.num_layers):
            x = self._attention_sublayer(i, x, key_bias, b, t, dh, scale, drop, rng)
            x = self._ffn_adapter_sublayer(i, x, stack, acts, drop, rng)
        return x, acts

    def _attention_sublayer(self, i, x, key_bias, b, t, dh, scale, drop, rng):
        c, p = self.config, self.params
        q = add(matmul(x, p[f"layer.{i}.attn.wq"]), p[f"layer.{i}.attn.bq"])
        k = add(matmul(x, p[f"layer.{i}.attn.wk"]), p[f"layer.{i}.attn.bk"])
        v = add(matmul(x, p[f"layer.{i}.attn.wv"]), p[f"layer.{i}.attn.bv"])
        split = lambda z: transpose(reshape(z, (b, t, c.num_heads, dh)), (0, 2, 1, 3))
        q, k, v = split(q), split(k), split(v)
        scores = add(mul(matmul(q, swap_last(k)), scale), key_bias)
        ctx = matmul(softmax_rows(scores), v)
        ctx = reshape(transpose(ctx, (0, 2, 1, 3)), (b, t, c.hidden))
        out = add(matmul(ctx, p[f"layer.{i}.attn.wo"]), p[f"layer.{i}.attn.bo"])
        if drop > 0.0:
            out = dropout(out, drop, rng)
        return layer_norm(add(x, out), p[f"layer.{i}.ln1.gain"],
                          p[f"layer.{i}.ln1.bias"], LN_EPS)

    def _ffn_adapter_sublayer(self, i, x, stack, acts, drop, rng):
        p = self.params
        inner = relu(add(matmul(x, p[f"layer.{i}.ffn.w1"]), p[f"layer.{i}.ffn.b1"]))
        out = add(matmul(inner, p[f"layer.{i}.ffn.w2"]), p[f"layer.{i}.ffn.b2"])
        if drop > 0.0:
            out = dropout(out, drop, rng)
        h = layer_norm(add(x, out), p[f"layer.{i}.ln2.gain"], p[f"layer.{i}.ln2.bias"], LN_EPS)
        h = self._apply_slot(stack.lang[i] if stack and stack.lang else None, h, acts.lang)
        return self._apply_slot(stack.task[i] if stack and stack.task else None, h, acts.task)

    @staticmethod
    def _apply_slot(weights: AdapterWeights | None, h: Tensor, record: list) -> Tensor:
        if weights is None:
            record.append(None)
            return h
        out = adapter_forward(h, weights.w_down, weights.w_up)
        record.append(SlotRecord(x_in=h, x_out=out, weights=weights))
        return out

    # --- output heads ------------------------------------------------------------

    def mlm_logits(self, states: Tensor) -> Tensor:
        """Vocabulary logits per position; projection tied to input embeddings."""
        p = self.params
        proj = swap_last(p["embed.tok"]) if self.config.tie_mlm else p["head.mlm.proj"]
        return add(matmul(states, proj), p["head.mlm.bias"])

    def cls_logits(self, states: Tensor) -> Tensor:
        """Sequence-level logits from a tanh pool over position 0."""
        p = self.params
        pooled = tanh(add(matmul(select_token(states, 0), p["head.cls.pool_w"]),
                          p["head.cls.pool_b"]))
        return add(matmul(pooled, p["head.cls.out_w"]), p["head.cls.out_b"])

    def tag_logits(self, states: Tensor) -> Tensor:
        """Per-position tag logits."""
        p = self.params
        return add(matmul(states, p["head.tag.w"]), p["head.tag.b"])
