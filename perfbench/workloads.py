"""The three workloads: set-up, one repetition, and the checks on its outputs.

Each workload follows one leg of the MAD-X recipe (pretrain, language
adapter, task adapter then language swap) on synthetic languages that the
benchmark generates. The run's seed draws what training consumes: the batch
order, the MLM masks and the dropout masks. The corpus, the held-out split,
the evaluation masks and the initial weights are fixed, so that losses and
accuracies compare across seeds; drawn from the seed, they moved more than a
change to the program would. A repetition builds a fresh model, so every
repetition of one run must reproduce the same losses.

- ``pretrain_mlm``: full MLM pretraining, every weight trains, no adapters.
  It bypasses the adapter machinery, so adapter-side cuts must not move it;
  Adam over all weights and the vocabulary-sized head dominate.
- ``lang_ortho``: a language adapter with the alternating orthogonality
  loss over a frozen backbone, with an untied MLM head that trains along.
  Two forwards and two backwards per step, and most gradients computed
  belong to frozen weights.
- ``zero_shot_tag``: a stacked tagging adapter, a checkpoint round-trip, an
  adapter round-trip and swap per target language, then forward-only
  evaluation: the only workload with disk I/O and an evaluation path.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from adapterlab.adapters import (
    LANGUAGE,
    PHASE_FULL,
    PHASE_LANG,
    PHASE_TASK,
    TASK,
    AdapterConfig,
    AdapterStack,
    AdapterWeights,
    init_adapter_stack_slot,
    swap_language_adapter,
)
from adapterlab.autodiff import IGNORE_LABEL, Tensor
from adapterlab.checkpoint import load_adapter, load_checkpoint, save_adapter, save_checkpoint
from adapterlab.encoder import Encoder, EncoderConfig
from adapterlab.errors import AdapterLabError
from adapterlab.objectives import MaskingPolicy, ortho_loss
from adapterlab.synthlang import (
    SyntheticLanguageSpec,
    build_vocab,
    corpus_to_ids,
    gen_tag_task,
    generate_corpus,
    language_corpus,
)
from adapterlab.training import (
    PhaseConfig,
    make_mlm_batch,
    make_tag_batch,
    pretrain_backbone,
    train_language_adapter,
    train_task_adapter,
)

from clock import PROBE_REF_S, StepClock, slowness, smoothed

N_SENTENCES = 2000  # base sentences, re-lexified into every language
N_HELDOUT = 400  # the last base sentences, kept out of training
N_WORDS = 120
N_CLASSES = 6
N_TAGS = 6
EVAL_BATCH = 50
LAST_STEPS = 50  # the final_* metrics average this many closing steps
ADAPTER_DIM = 8

FIXED_SEED = 0  # seeds everything the run's seed does not draw
LANGUAGES = (
    SyntheticLanguageSpec("src"),
    SyntheticLanguageSpec("tgt_a", cipher_seed=11, divergence=0.5, word_order="reverse"),
    SyntheticLanguageSpec("tgt_b", cipher_seed=23, divergence=0.5, word_order="rotate:2"),
)


def no_span(name):
    return nullcontext()


@dataclass
class Bed:
    """Everything set-up makes: corpus, vocabulary, languages and datasets."""

    vocab_size: int
    corpora: list  # per language: N_SENTENCES id arrays
    tag_train: object  # source-language tagging dataset
    tag_tests: list  # one tagging test split per target language


def build_bed(span=no_span) -> Bed:
    with span("synthlang.corpus"):
        lines = generate_corpus(N_SENTENCES, n_words=N_WORDS, n_classes=N_CLASSES,
                                seed=FIXED_SEED)
        vocab = build_vocab(lines)
        base = corpus_to_ids(lines, vocab)
    with span("synthlang.relex"):
        corpora = [language_corpus(spec, base, vocab) for spec in LANGUAGES]
    split = N_SENTENCES - N_HELDOUT
    with span("synthlang.task"):
        tag_train = gen_tag_task(base[:split], LANGUAGES[0], vocab, split, "train",
                                 FIXED_SEED, N_TAGS)
        tag_tests = [gen_tag_task(base[split:], spec, vocab, N_HELDOUT, "test",
                                  FIXED_SEED, N_TAGS) for spec in LANGUAGES[1:]]
    return Bed(vocab.size, corpora, tag_train, tag_tests)


@dataclass
class Rep:
    """What one repetition measured and what its checks found.

    Times named ``*_ref_s`` are at reference speed (see ``clock``); they are
    kept only when ``probing``, and equal the raw times otherwise.
    """

    probing: bool = True
    wall_s: float = 0.0  # the pipeline; model construction and probes excluded
    wall_ref_s: float = 0.0
    step_s: list = field(default_factory=list)
    step_ref_s: list = field(default_factory=list)
    step_tokens: list = field(default_factory=list)
    slowness: list = field(default_factory=list)  # every probe of the repetition
    probe_s: float = 0.0
    losses: list = field(default_factory=list)
    ortho_cos2: float = 1.0  # mean per-layer cos^2 at the adapter injection point
    eval_tokens: int = 0
    eval_s: list = field(default_factory=list)  # one forward time per eval batch
    eval_ref_s: list = field(default_factory=list)
    eval_batches: int = 0
    eval_cos2: list = field(default_factory=list)
    accuracy: float = 0.0
    checkpoint_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)  # failed operations, by message
    problems: list = field(default_factory=list)  # failed output checks


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def check_losses(rep: Rep, losses: list) -> None:
    if not all(math.isfinite(v) for v in losses):
        rep.problems.append("a main loss is not finite")


def check_cos2(rep: Rep, values) -> None:
    if not all(0.0 <= v <= 1.0 for v in values):
        rep.problems.append("a per-layer cos^2 lies outside [0, 1]")


def frozen_names(encoder: Encoder, trained_prefixes: tuple) -> list:
    return [n for n in encoder.params.names() if not n.startswith(trained_prefixes)]


def _mlm_eval_batches(corpus: list, vocab_size: int) -> list:
    """Masked held-out batches, drawn once at set-up so every repetition sees them."""
    rng = np.random.default_rng([FIXED_SEED, 99])
    policy = MaskingPolicy(vocab=vocab_size)
    batches = []
    for lo in range(0, len(corpus), EVAL_BATCH):
        ids, mask, labels, _ = make_mlm_batch(
            corpus, np.arange(lo, min(lo + EVAL_BATCH, len(corpus))), policy, rng)
        batches.append((ids, mask, labels))
    return batches


def _tag_batches(examples: list) -> list:
    return [make_tag_batch(examples[lo:lo + EVAL_BATCH])
            for lo in range(0, len(examples), EVAL_BATCH)]


def evaluate(rep: Rep, encoder: Encoder, stack, batches, head,
             slot: str | None = None) -> tuple[int, int]:
    """Forward-only token accuracy; returns (correct, labelled).

    Only the forwards are timed, each after a probe. With ``slot``, the
    per-layer cos^2 the orthogonality loss would read for that slot is
    checked and kept.
    """
    hits = labelled = 0
    slow, seconds = [], []
    for ids, mask, labels in batches:
        rep.attempted += 1
        rep.eval_batches += 1
        slow.append(slowness() if rep.probing else 1.0)
        start = time.perf_counter()
        states, acts = encoder.encode(ids, mask, stack=stack)
        logits = head(encoder, states)
        seconds.append(time.perf_counter() - start)
        keep = labels != IGNORE_LABEL
        hits += int((logits.values.argmax(axis=-1)[keep] == labels[keep]).sum())
        labelled += int(keep.sum())
        rep.eval_tokens += int(mask.sum())
        if slot is not None:
            per_layer = ortho_loss(acts, slot, mask).per_layer
            check_cos2(rep, per_layer)
            rep.eval_cos2.append(float(np.mean(per_layer)))
    rep.eval_s += seconds
    rep.eval_ref_s += [t / f for t, f in zip(seconds, smoothed(slow))]
    rep.slowness += slow
    rep.probe_s += PROBE_REF_S * sum(slow) if rep.probing else 0.0
    return hits, labelled


def _stand_in_adapter(hidden: int, layers: int, seed: int) -> list:
    """A language adapter with a non-zero up-projection, in place of a trained one."""
    weights = init_adapter_stack_slot(AdapterConfig(dim=ADAPTER_DIM, kind=LANGUAGE),
                                      hidden, layers, seed)
    rng = np.random.default_rng([seed, 5])
    for w in weights:
        w.w_up.values[...] = rng.normal(0.0, 0.05, size=w.w_up.shape)
    return weights


def _copy_adapter(weights: list) -> list:
    return [AdapterWeights(w.config, Tensor(w.w_down.values.copy()),
                           Tensor(w.w_up.values.copy())) for w in weights]


class Workload:
    """One workload: its set-up beyond the shared bed, its model, one repetition."""

    name = ""
    steps = 0
    hidden = 32
    layers = 2
    tie_mlm = True

    def encoder_config(self, vocab_size: int) -> EncoderConfig:
        return EncoderConfig(vocab=vocab_size, num_layers=self.layers,
                             hidden=self.hidden, num_heads=4, ffn=2 * self.hidden,
                             max_len=16, dropout=0.1, tie_mlm=self.tie_mlm)

    def setup(self, seed: int, span=no_span) -> dict:
        """Bed, workload inputs and one model: what ``setup_s`` times."""
        prep = {"seed": seed, "bed": build_bed(span)}
        self.prepare(prep)
        self.model(prep)
        return prep

    def prepare(self, prep: dict) -> None:
        pass

    def model(self, prep: dict):
        raise NotImplementedError

    def repeat(self, prep: dict, steps: int, workdir: Path, span=None) -> Rep:
        """One pipeline from a fresh model; ``span`` is given in traced runs,
        which skip the probes since their times are not end-to-end metrics."""
        raise NotImplementedError


class PretrainMLM(Workload):
    name = "pretrain_mlm"
    steps = 120
    hidden = 64

    def prepare(self, prep):
        bed = prep["bed"]
        split = N_SENTENCES - N_HELDOUT
        prep["train"] = [s for corpus in bed.corpora for s in corpus[:split]]
        prep["eval"] = _mlm_eval_batches(
            [s for corpus in bed.corpora for s in corpus[split:]], bed.vocab_size)

    def model(self, prep):
        bed = prep["bed"]
        return Encoder(self.encoder_config(bed.vocab_size), seed=FIXED_SEED), None

    def repeat(self, prep, steps, workdir, span=None):
        encoder, _ = self.model(prep)
        cfg = PhaseConfig(phase=PHASE_FULL, main_loss="mlm", steps=steps,
                          batch_size=32, seed=prep["seed"])
        rep, clock = Rep(probing=span is None), StepClock(probe=span is None)
        start = time.perf_counter()
        stats = clock.run(lambda: pretrain_backbone(encoder, prep["train"], cfg))
        hits, labelled = evaluate(rep, encoder, None, prep["eval"],
                                  lambda enc, states: enc.mlm_logits(states))
        _finish(rep, start, clock, stats.main_losses, steps)
        rep.accuracy = hits / labelled
        return rep


class LangOrtho(Workload):
    name = "lang_ortho"
    steps = 250
    target = 1  # the language whose adapter trains
    # untied, the MLM head trains with the adapter; tied to the frozen random
    # embeddings, the adapter alone barely lowers the loss
    tie_mlm = False

    def prepare(self, prep):
        bed = prep["bed"]
        split = N_SENTENCES - N_HELDOUT
        corpus = bed.corpora[self.target]
        prep["train"] = corpus[:split]
        prep["eval"] = _mlm_eval_batches(corpus[split:], bed.vocab_size)

    def model(self, prep):
        bed = prep["bed"]
        encoder = Encoder(self.encoder_config(bed.vocab_size), seed=FIXED_SEED)
        stack = AdapterStack(self.layers)
        stack.fill(LANGUAGE, init_adapter_stack_slot(
            AdapterConfig(dim=ADAPTER_DIM, kind=LANGUAGE, orthogonal=True),
            self.hidden, self.layers, FIXED_SEED + 1))
        stack.register(encoder.params)
        return encoder, stack

    def repeat(self, prep, steps, workdir, span=None):
        encoder, stack = self.model(prep)
        cfg = PhaseConfig(phase=PHASE_LANG, main_loss="mlm", ortho=True,
                          alternation_k=1, steps=steps, batch_size=16, seed=prep["seed"])
        frozen = frozen_names(encoder, ("adapter.lang.", "head.mlm."))
        before = encoder.params.checksum(names=frozen)
        rep, clock = Rep(probing=span is None), StepClock(probe=span is None)
        start = time.perf_counter()
        stats = clock.run(lambda: train_language_adapter(encoder, stack, prep["train"], cfg))
        hits, labelled = evaluate(rep, encoder, stack, prep["eval"],
                                  lambda enc, states: enc.mlm_logits(states))
        _finish(rep, start, clock, stats.main_losses, steps)
        rep.accuracy = hits / labelled
        if encoder.params.checksum(names=frozen) != before:
            rep.problems.append("a frozen weight moved during the language phase")
        per_layer = [[float(v) for v in line.split("\t")[4].split(",")]
                     for line in stats.log_lines if line.split("\t")[2] == "ort"]
        check_cos2(rep, [v for layer in per_layer for v in layer])
        closing = per_layer[-LAST_STEPS:]
        rep.ortho_cos2 = float(np.mean(closing)) if closing else 1.0
        return rep


class ZeroShotTag(Workload):
    name = "zero_shot_tag"
    steps = 150

    def prepare(self, prep):
        bed = prep["bed"]
        prep["source_adapter"] = _stand_in_adapter(self.hidden, self.layers, FIXED_SEED + 3)
        prep["target_adapters"] = [
            _stand_in_adapter(self.hidden, self.layers, FIXED_SEED + 4 + k)
            for k in range(len(bed.tag_tests))]
        prep["eval"] = [_tag_batches(test.examples) for test in bed.tag_tests]

    def model(self, prep):
        # stack registered, then head built: the order the training tests use
        bed = prep["bed"]
        encoder = Encoder(self.encoder_config(bed.vocab_size), seed=FIXED_SEED)
        stack = AdapterStack(self.layers)
        stack.fill(LANGUAGE, _copy_adapter(prep["source_adapter"]))
        stack.fill(TASK, init_adapter_stack_slot(
            AdapterConfig(dim=ADAPTER_DIM, kind=TASK), self.hidden, self.layers,
            FIXED_SEED + 2))
        stack.register(encoder.params)
        encoder.ensure_tag_head(N_TAGS)
        return encoder, stack

    def repeat(self, prep, steps, workdir, span=None):
        bed = prep["bed"]
        encoder, stack = self.model(prep)
        cfg = PhaseConfig(phase=PHASE_TASK, main_loss="tagging", steps=steps,
                          batch_size=16, seed=prep["seed"])
        frozen = frozen_names(encoder, ("adapter.task.", "head.tag."))
        before = encoder.params.checksum(names=frozen)
        rep, clock = Rep(probing=span is None), StepClock(probe=span is None)
        span = span or no_span
        start = time.perf_counter()
        stats = clock.run(lambda: train_task_adapter(encoder, stack, bed.tag_train, cfg))
        frozen_kept = encoder.params.checksum(names=frozen) == before
        self._checkpoint_roundtrip(rep, encoder, stack, workdir / "model.ckpt", span)
        hits = labelled = 0
        for k, (weights, batches) in enumerate(zip(prep["target_adapters"], prep["eval"])):
            if self._swap(rep, stack, weights, LANGUAGES[1 + k].code,
                          workdir / f"lang{k}.adapter", span):
                h, n = evaluate(rep, encoder, stack, batches,
                                lambda enc, states: enc.tag_logits(states), slot=TASK)
                hits += h
                labelled += n
        _finish(rep, start, clock, stats.main_losses, steps)
        rep.accuracy = hits / labelled if labelled else 0.0
        if not frozen_kept:
            rep.problems.append("a frozen weight moved during the task phase")
        # the task slot is trained without the orthogonality loss; this reads
        # the value that loss would have on the target test inputs
        rep.ortho_cos2 = float(np.mean(rep.eval_cos2)) if rep.eval_cos2 else 1.0
        return rep

    @staticmethod
    def _checkpoint_roundtrip(rep, encoder, stack, path, span):
        rep.attempted += 1
        with span("checkpoint.save"):
            save_checkpoint(path, encoder, stack)
        rep.checkpoint_bytes = path.stat().st_size
        try:
            with span("checkpoint.load"):
                loaded, _, _ = load_checkpoint(path)
        except AdapterLabError as exc:
            rep.failed += 1
            rep.failures.append(f"checkpoint load: {exc}".replace(str(path), path.name))
            return
        for name, tensor in encoder.params.items():
            if name not in loaded.params or not same_bits(loaded.params[name].values,
                                                          tensor.values):
                rep.problems.append(f"checkpoint reload changed {name}")
                return

    @staticmethod
    def _swap(rep, stack, weights, language, path, span) -> bool:
        rep.attempted += 1
        try:
            with span("checkpoint.adapter_roundtrip"):
                save_adapter(path, weights, language=language)
                _, pairs, _ = load_adapter(path)
        except AdapterLabError as exc:
            rep.failed += 1
            rep.failures.append(f"adapter load: {exc}".replace(str(path), path.name))
            return False
        if not _pairs_match(pairs, weights):
            rep.problems.append("the adapter round-trip is not bit-exact")
        with span("adapters.swap"):
            swap_language_adapter(stack, pairs)
        if not _pairs_match(pairs, stack.lang):
            rep.problems.append("the swapped language slot differs from the file")
        return True


def _pairs_match(pairs: list, weights: list) -> bool:
    return len(pairs) == len(weights) and all(
        same_bits(d, w.w_down.values) and same_bits(u, w.w_up.values)
        for (d, u), w in zip(pairs, weights))


def _finish(rep: Rep, start: float, clock: StepClock, losses: list, steps: int) -> None:
    """Close the pipeline's clock right after its last operation, then check losses."""
    rep.slowness += clock.slowness
    rep.probe_s += clock.probe_s
    rep.wall_s = time.perf_counter() - start - rep.probe_s
    rep.wall_ref_s = rep.wall_s / statistics.median(rep.slowness)
    rep.step_s = clock.step_s
    rep.step_ref_s = clock.step_ref_s
    rep.step_tokens = clock.tokens
    rep.losses = list(losses)
    rep.attempted += steps
    check_losses(rep, rep.losses)


WORKLOADS = {w.name: w for w in (PretrainMLM(), LangOrtho(), ZeroShotTag())}
