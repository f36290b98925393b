"""In-memory span tracer and the call-site patches that feed it.

The tracer never edits the package. It rebinds the names one module uses to
reach another (``training.mlm_loss``, ``encoder.matmul``, ``Tensor.backward``,
...) to thin wrappers for the length of a ``with`` block, then restores them.
Wrappers only read clocks and results, so a traced run computes bit-for-bit
what an untraced one does.

A span is (name, start, end, parent); counts sit beside them. Both stay in
memory until ``Tracer.dump`` writes them out.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager

from adapterlab import adapters, autodiff, encoder, objectives, optim, synthlang, training

# every autodiff op, by the names the calling modules bind them to
_OP_NAMES = ("add", "mul", "matmul", "relu", "tanh", "transpose", "swap_last",
             "reshape", "tsum", "select_token", "embedding_lookup", "softmax_rows",
             "layer_norm", "dropout", "cosine_sq_rows", "cross_entropy")
_OP_CALLERS = (encoder, objectives, adapters)

_MAIN_LOSSES = ("mlm_loss", "seq_cls_loss", "tagging_loss")
BATCH_BUILDERS = ("make_mlm_batch", "make_seq_batch", "make_tag_batch")


@contextmanager
def patched(bindings):
    """Rebind ``(owner, attr, replacement)`` triples; restore them on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in bindings]
    try:
        for owner, attr, replacement in bindings:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    """Spans and counts, recorded by wrappers around cross-module calls.

    Inside ``training.run_phase`` a step's first encode, backward and Adam
    step belong to the main loss; after the main Adam step they belong to
    the orthogonality loss. Calls outside any phase are evaluation.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.counts: Counter = Counter()
        self.gauges: dict[str, float] = {}
        self._open: list[int] = []
        self.in_phase = 0
        self.mode = "main"

    # --- recording ------------------------------------------------------------

    def _begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_start.append(time.perf_counter_ns())
        self.span_end.append(0)
        self.span_parent.append(self._open[-1] if self._open else -1)
        self._open.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def timed(self, name, fn, after=None):
        """Wrap ``fn`` in a span; ``name`` may be a callable of the tracer state."""
        def wrapper(*args, **kwargs):
            idx = self._begin(name() if callable(name) else name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if after is not None:
                after(args, out)
            return out
        return wrapper

    # --- call sites ------------------------------------------------------------

    def bindings(self):
        """Every rebinding the traced run installs."""
        b = []

        def phase(fn):
            inner = self.timed("training.phase", fn)

            def run(*args, **kwargs):
                self.in_phase += 1
                try:
                    return inner(*args, **kwargs)
                finally:
                    self.in_phase -= 1
            return run
        b.append((training, "run_phase", phase(training.run_phase)))

        def batch_done(args, out):
            self.mode = "main"
            if self.in_phase:
                self.counts["training.steps"] += 1
                self.counts["training.tokens"] += int(out[1].sum())

        for name in BATCH_BUILDERS:
            b.append((training, name,
                      self.timed("training.batch", getattr(training, name), batch_done)))

        def masked(args, out):
            if self.in_phase:
                self.counts["objectives.skipped_sequences"] += out[2]
        b.append((training, "apply_masking",
                  self.timed("objectives.masking", training.apply_masking, masked)))
        for name in _MAIN_LOSSES:
            b.append((training, name,
                      self.timed("objectives.main_loss", getattr(training, name))))
        b.append((training, "ortho_loss",
                  self.timed("objectives.ortho_loss", training.ortho_loss)))
        b.append((training, "clip_grad_norm",
                  self.timed("optim.clip", training.clip_grad_norm)))

        b.append((encoder.Encoder, "encode", self.timed(
            lambda: f"encoder.encode_{self.mode}" if self.in_phase
            else "encoder.eval_encode", encoder.Encoder.encode)))
        for head in ("mlm_logits", "cls_logits", "tag_logits"):
            b.append((encoder.Encoder, head,
                      self.timed("encoder.head", getattr(encoder.Encoder, head))))
        b.append((autodiff.Tensor, "backward",
                  self.timed(lambda: f"autodiff.backward_{self.mode}",
                             autodiff.Tensor.backward)))

        def adam_done(args, out):
            opt = args[0]
            if self.mode == "main":
                self.gauges["optim.trainable_elems"] = sum(
                    opt.params[n].values.size for n in opt.names
                    if opt.params[n].requires_grad)
                self.mode = "ortho"
        b.append((optim.Adam, "step",
                  self.timed(lambda: f"optim.adam_{self.mode}", optim.Adam.step,
                             adam_done)))

        def adapter_called(args, out):
            if self.in_phase:
                self.counts["adapters.forward_calls"] += 1
        adapter_fwd = self.timed("adapters.forward", adapters.adapter_forward,
                                 adapter_called)
        b.append((encoder, "adapter_forward", adapter_fwd))
        b.append((adapters, "adapter_forward", adapter_fwd))

        def cipher_called(args, out):
            self.counts["synthlang.cipher_calls"] += 1
        b.append((synthlang.SyntheticLanguageSpec, "cipher", self.timed(
            "synthlang.cipher", synthlang.SyntheticLanguageSpec.cipher, cipher_called)))

        ops = {name: self._op(name, getattr(autodiff, name)) for name in _OP_NAMES}
        for module in _OP_CALLERS:
            for name, wrapper in ops.items():
                if getattr(module, name, None) is getattr(autodiff, name):
                    b.append((module, name, wrapper))
        return b

    def _op(self, op: str, fn):
        fwd = f"autodiff.op.{op}"
        bwd = f"autodiff.op.{op}.backward"

        def call(*args, **kwargs):
            idx = self._begin(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if any(out is a for a in args):
                return out  # no new node (dropout with p <= 0)
            if self.in_phase:
                self.counts["autodiff.nodes"] += 1
                if out.requires_grad:
                    self.counts["autodiff.recorded_nodes"] += 1
            if out._backward is not None:
                out._backward = self.timed(bwd, out._backward)
            return out
        return call

    # --- reading -----------------------------------------------------------------

    def totals_ms(self, within: str | None = None) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, total milliseconds).

        With ``within``, only spans that have an ancestor of that name count.
        """
        root = self._name_ids.get(within, -2) if within else None
        inside = array("b")
        calls = Counter()
        total = Counter()
        for nid, a, z, parent in zip(self.span_name, self.span_start,
                                     self.span_end, self.span_parent):
            # a parent always opens before its children, so its flag is known
            flag = parent >= 0 and (self.span_name[parent] == root or inside[parent])
            inside.append(flag)
            if root is None or flag:
                calls[nid] += 1
                total[nid] += z - a
        return {self.names[k]: (calls[k], total[k] / 1e6) for k in calls}

    def self_ms(self, name: str) -> float:
        """Total self time of one span name: its duration minus its children's."""
        nid = self._name_ids.get(name)
        if nid is None:
            return 0.0
        own = {}
        for i, k in enumerate(self.span_name):
            if k == nid:
                own[i] = self.span_end[i] - self.span_start[i]
        for i, parent in enumerate(self.span_parent):
            if parent in own:
                own[parent] -= self.span_end[i] - self.span_start[i]
        return sum(own.values()) / 1e6

    def dump(self, path) -> None:
        """Write names, spans as [name, start_ns, end_ns, parent] rows, and counts."""
        with open(path, "w", encoding="utf-8") as fh:
            head = json.dumps({"names": self.names, "counts": dict(self.counts),
                               "gauges": self.gauges})
            fh.write(head[:-1] + ', "spans": [')
            rows = zip(self.span_name, self.span_start, self.span_end, self.span_parent)
            fh.write(",".join(f"[{n},{a},{z},{p}]" for n, a, z, p in rows))
            fh.write("]}\n")
