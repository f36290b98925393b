"""Minimal transformer encoder with an adapter injection point per layer.

Each layer runs post-norm self-attention and feed-forward sublayers. The
attention sublayer projects Q, K and V with three ``autodiff.linear`` nodes
(one biased GEMM each), then one ``autodiff.attention`` node splits the
heads, scores, masks padded keys, takes the softmax, weighs V and merges the
heads; the output projection (``linear``), dropout and one ``layer_norm``
node over the residual sum follow. The feed-forward sublayer and the heads
use ``linear`` too, so every weight GEMM and its bias is one node. The
adapter injection point sits after the feed-forward sublayer's residual
layer norm. The occupied adapter slots apply there in the order of
``adapters.SLOT_PREFIX``: language first, then task. For each occupied slot
``encode`` records, per layer, the values of the slot's input and the
weights it applied, so the orthogonality loss can recompute the slot output
from that input taken as a constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adapters import SLOT_PREFIX, AdapterStack, AdapterWeights, adapter_forward
from .autodiff import (
    Tensor,
    add,
    attention,
    dropout,
    embedding_lookup,
    layer_norm,
    linear,
    relu,
    select_token,
    swap_last,
    tanh,
)
from .errors import ConfigError, SequenceLengthError, VocabError, require_fraction, require_int
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
        self.seed = require_int("seed", seed, 0)
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

    def ensure_cls_head(self, num_classes: int) -> None:
        if self._head_built("cls", num_classes):
            return
        rng = np.random.default_rng(self.seed + 101)
        h = self.config.hidden
        self.params.add("head.cls.pool_w", Tensor(_xavier(rng, h, h)))
        self.params.add("head.cls.pool_b", Tensor(np.zeros(h)))
        self.params.add("head.cls.out_w", Tensor(_xavier(rng, h, num_classes)))
        self.params.add("head.cls.out_b", Tensor(np.zeros(num_classes)))
        self.head_classes["cls"] = num_classes

    def ensure_tag_head(self, num_tags: int) -> None:
        if self._head_built("tag", num_tags):
            return
        rng = np.random.default_rng(self.seed + 202)
        h = self.config.hidden
        self.params.add("head.tag.w", Tensor(_xavier(rng, h, num_tags)))
        self.params.add("head.tag.b", Tensor(np.zeros(num_tags)))
        self.head_classes["tag"] = num_tags

    def _head_built(self, head: str, num_classes: int) -> bool:
        """Whether the head is built; refuses a class count below 1, or not an int, or changed."""
        require_int(f"{head} head classes", num_classes, 1)
        if self.head_classes.get(head, num_classes) != num_classes:
            raise ConfigError(f"{head} head already built for {self.head_classes[head]} classes")
        return head in self.head_classes

    # --- forward ---------------------------------------------------------------

    def encode(
        self,
        token_ids: np.ndarray,
        mask: np.ndarray,
        stack: AdapterStack | None = None,
        rng: np.random.Generator | None = None,
    ) -> tuple[Tensor, dict[str, list[tuple[np.ndarray, AdapterWeights]]]]:
        """Run the backbone over a [B, T] id batch.

        ``mask`` is 1 on real tokens and 0 on padding; padded positions are
        never attended to. Dropout at the configured rate applies when an
        ``rng`` is given and never otherwise. Returns final states [B, T, H]
        and, per occupied slot kind, one (input values, weights) pair per
        layer; empty kinds are absent.
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
        if not ((mask == 0) | (mask == 1)).all():
            raise ConfigError(f"mask entries must be 0 or 1, got {np.unique(mask)}")
        lo, hi = int(ids.min()), int(ids.max())
        if lo < 0 or hi >= c.vocab:
            raise VocabError(
                f"token id {lo if lo < 0 else hi} outside vocabulary of size {c.vocab}"
            )
        if ids.shape[1] > c.max_len:
            raise SequenceLengthError(
                f"sequence length {ids.shape[1]} exceeds max_len {c.max_len}"
            )
        if stack is not None and stack.num_layers != c.num_layers:
            raise ConfigError(f"adapter stack has {stack.num_layers} layers, "
                              f"the encoder {c.num_layers}")
        drop = c.dropout if rng is not None else 0.0
        slots = {kind: stack.slot(kind) for kind in SLOT_PREFIX if stack and stack.slot(kind)}

        x = dropout(add(embedding_lookup(p["embed.tok"], ids),
                        embedding_lookup(p["embed.pos"], np.arange(ids.shape[1]))), drop, rng)
        # additive key bias: -1e9 on padded keys, broadcast over [B, heads, Tq, Tk]
        key_bias = (1.0 - mask.astype(np.float64))[:, None, None, :] * MASK_BIAS
        acts = {kind: [] for kind in slots}
        for i in range(c.num_layers):
            x = self._attention_sublayer(i, x, key_bias, drop, rng)
            x = self._ffn_sublayer(i, x, drop, rng)
            for kind, weights in slots.items():
                acts[kind].append((x.values, weights[i]))
                x = adapter_forward(x, weights[i].w_down, weights[i].w_up)
        return x, acts

    def _attention_sublayer(self, i, x, key_bias, drop, rng):
        p = self.params
        q = linear(x, p[f"layer.{i}.attn.wq"], p[f"layer.{i}.attn.bq"])
        k = linear(x, p[f"layer.{i}.attn.wk"], p[f"layer.{i}.attn.bk"])
        v = linear(x, p[f"layer.{i}.attn.wv"], p[f"layer.{i}.attn.bv"])
        ctx = attention(q, k, v, key_bias, self.config.num_heads)
        out = dropout(linear(ctx, p[f"layer.{i}.attn.wo"], p[f"layer.{i}.attn.bo"]), drop, rng)
        return layer_norm(x, out, p[f"layer.{i}.ln1.gain"], p[f"layer.{i}.ln1.bias"])

    def _ffn_sublayer(self, i, x, drop, rng):
        p = self.params
        inner = relu(linear(x, p[f"layer.{i}.ffn.w1"], p[f"layer.{i}.ffn.b1"]))
        out = dropout(linear(inner, p[f"layer.{i}.ffn.w2"], p[f"layer.{i}.ffn.b2"]), drop, rng)
        return layer_norm(x, out, p[f"layer.{i}.ln2.gain"], p[f"layer.{i}.ln2.bias"])

    # --- output heads ------------------------------------------------------------

    def mlm_logits(self, states: Tensor) -> Tensor:
        """Vocabulary logits per position; projection tied to input embeddings."""
        p = self.params
        proj = swap_last(p["embed.tok"]) if self.config.tie_mlm else p["head.mlm.proj"]
        return linear(states, proj, p["head.mlm.bias"])

    def cls_logits(self, states: Tensor) -> Tensor:
        """Sequence-level logits from a tanh pool over position 0."""
        p = self.params
        pooled = tanh(linear(select_token(states, 0), p["head.cls.pool_w"], p["head.cls.pool_b"]))
        return linear(pooled, p["head.cls.out_w"], p["head.cls.out_b"])

    def tag_logits(self, states: Tensor) -> Tensor:
        """Per-position tag logits."""
        p = self.params
        return linear(states, p["head.tag.w"], p["head.tag.b"])
