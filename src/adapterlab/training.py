"""Two-phase training orchestration: alternating dual-optimizer loops.

Each iteration takes one batch and runs the main-loss step (forward, then a
descent step: backward, clip, Adam A). With the orthogonality loss on, every
``alternation_k``-th iteration then runs a fresh forward on the same batch
and an ortho step: the same descent step on the orthogonality loss, under
Adam B, over the target slot's weights only. That forward records no graph
(``no_grad``): the ortho loss recomputes each slot output from the slot's
recorded input and live weights, so only that recompute is differentiated.
The ortho loss is never added to the main loss, and the two optimizers
never share moment buffers.

What a phase trains is decided in one place, ``trainable_names``; every
other weight is frozen, and each slot weight it trains must be the very
tensor the stack it runs holds. A task phase runs on a stack with or
without a language slot: the stacked (MAD-X) and the task-adapter-only
configurations differ only in the stack the caller builds.

Every descent step clips the global gradient norm to ``CLIP_NORM``. A run
manifest, written before step 0, is one ``key=value`` line per entry.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .adapters import (
    LANGUAGE,
    PHASE_FULL,
    PHASE_LANG,
    PHASE_TASK,
    SLOT_PREFIX,
    TASK,
    AdapterStack,
    slot_arrays,
)
from .autodiff import IGNORE_LABEL, Tensor, no_grad
from .encoder import Encoder
from .errors import ConfigError, NumericError
from .objectives import (
    MaskingPolicy,
    apply_masking,
    labelled_rows,
    mlm_loss,
    ortho_loss,
    seq_cls_loss,
    tagging_loss,
)
from .optim import Adam, ParamSet, clip_grad_norm
from .synthlang import CLS, PAD, SEP, TaskDataset

CLIP_NORM = 1.0
# each main loss and the head it trains through, whose weights are named head.<head>.*
LOSS_HEADS = {"mlm": "mlm", "seq_cls": "cls", "tagging": "tag"}
MAIN_LOSSES = tuple(LOSS_HEADS)
# the phases, and the main losses each may train with
PHASE_LOSSES = {
    PHASE_LANG: ("mlm",),
    PHASE_TASK: ("seq_cls", "tagging"),
    PHASE_FULL: MAIN_LOSSES,
}


@dataclass(frozen=True)
class PhaseConfig:
    """One training phase: main loss, optional ortho loss, budgets, seeds.

    ``ortho`` switches on the orthogonality loss for the phase's slot, run
    in alternation with the main loss under its own Adam. Frozen, so the
    fields stay as ``__post_init__`` checked them.
    """

    phase: str
    main_loss: str  # mlm | seq_cls | tagging
    ortho: bool = False
    main_lr: float = 1e-3
    ortho_lr: float = 1e-4
    steps: int = 200
    batch_size: int = 16
    alternation_k: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.phase not in PHASE_LOSSES:
            raise ConfigError(f"unknown phase {self.phase!r}")
        if self.main_loss not in MAIN_LOSSES:
            raise ConfigError(f"unknown main loss {self.main_loss!r}")
        if self.main_loss not in PHASE_LOSSES[self.phase]:
            raise ConfigError(f"phase {self.phase} does not train with the "
                              f"{self.main_loss} loss")
        if self.phase == PHASE_FULL and self.ortho:
            raise ConfigError("full fine-tuning runs without the orthogonality loss")
        for name in ("steps", "batch_size", "alternation_k"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("main_lr", "ortho_lr"):
            if not getattr(self, name) > 0.0:
                raise ConfigError(f"{name} must be > 0, got {getattr(self, name)}")

    def slot(self) -> str:
        """The adapter slot an adapter phase trains."""
        return LANGUAGE if self.phase == PHASE_LANG else TASK


@dataclass
class TrainStats:
    """Metrics log plus the per-step losses and the skipped-sequence count."""

    log_lines: list[str] = field(default_factory=list)
    main_losses: list[float] = field(default_factory=list)
    ortho_totals: list[float] = field(default_factory=list)
    skipped_sequences: int = 0

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.log_lines:
                fh.write(line + "\n")


def pad_sequences(seqs: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Stack variable-length id sequences into [B, T] ids + 0/1 mask."""
    t = max(len(s) for s in seqs)
    ids = np.full((len(seqs), t), PAD, dtype=np.int64)
    mask = np.zeros((len(seqs), t), dtype=np.int64)
    for i, s in enumerate(seqs):
        ids[i, : len(s)] = s
        mask[i, : len(s)] = 1
    return ids, mask


def make_mlm_batch(corpus: list[np.ndarray], picks: np.ndarray,
                   policy: MaskingPolicy, rng: np.random.Generator):
    """[CLS]-prefixed corpus sentences, corrupted for MLM."""
    seqs = [np.concatenate(([CLS], corpus[int(i)])) for i in picks]
    ids, mask = pad_sequences(seqs)
    corrupted, labels, skipped = apply_masking(ids, mask, policy, rng)
    return corrupted, mask, labels, skipped


def make_seq_batch(examples: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """[CLS] sent1 [SEP] sent2 inputs with whole-sequence labels."""
    seqs = [np.concatenate(([CLS], a, [SEP], b)) for a, b, _ in examples]
    ids, mask = pad_sequences(seqs)
    labels = np.array([label for _, _, label in examples], dtype=np.int64)
    return ids, mask, labels


def make_tag_batch(examples: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """[CLS]-prefixed sentences with per-token tags; CLS and padding ignored."""
    seqs = [np.concatenate(([CLS], sent)) for sent, _ in examples]
    ids, mask = pad_sequences(seqs)
    labels = np.full_like(ids, IGNORE_LABEL)
    for i, (_, tags) in enumerate(examples):
        labels[i, 1 : 1 + len(tags)] = tags
    return ids, mask, labels


def _batches(cfg: PhaseConfig, vocab_size: int, corpus: list[np.ndarray] | None,
             dataset: TaskDataset | None):
    """Endless seeded (ids, mask, labels, skipped) batches over a corpus or task dataset.

    Each batch is drawn only when the caller asks for it, and each builder is
    looked up when it is called, so a rebound builder sees every draw.
    """
    rng = np.random.default_rng([cfg.seed, 1])
    if cfg.main_loss == "mlm":
        policy = MaskingPolicy(vocab=vocab_size)
        mask_rng = np.random.default_rng([cfg.seed, 2])
        while True:
            picks = rng.integers(len(corpus), size=cfg.batch_size)
            yield make_mlm_batch(corpus, picks, policy, mask_rng)
    while True:
        picks = rng.integers(len(dataset.examples), size=cfg.batch_size)
        examples = [dataset.examples[int(i)] for i in picks]
        build = make_seq_batch if cfg.main_loss == "seq_cls" else make_tag_batch
        yield (*build(examples), 0)


def _main_loss(cfg: PhaseConfig, encoder: Encoder, states, labels) -> Tensor:
    """The phase's main loss on one batch's final states.

    The rows a loss reads are picked before its head runs: masked LM and
    tagging score only the ``labelled_rows`` of the states, sequence
    classification one [CLS] pool per sequence.
    """
    if cfg.main_loss == "seq_cls":
        return seq_cls_loss(encoder.cls_logits(states), labels)
    rows, targets = labelled_rows(states, labels)
    if cfg.main_loss == "mlm":
        return mlm_loss(encoder.mlm_logits(rows), targets)
    return tagging_loss(encoder.tag_logits(rows), targets)


def trainable_names(params: ParamSet, cfg: PhaseConfig) -> list[str]:
    """The weights a phase trains, in declaration order.

    Full fine-tuning trains every weight except the heads of the other main
    losses. An adapter phase trains its slot, which must be present, and its
    own loss's head; a tied MLM head shares the frozen input embedding, so
    the lang phase trains the MLM head only when it is untied. The head of
    the phase's loss must have been built.
    """
    names = params.names()
    head = f"head.{LOSS_HEADS[cfg.main_loss]}."
    if not any(n.startswith(head) for n in names):
        raise ConfigError(f"the {cfg.main_loss} loss needs its head {head}*, "
                          f"which the model has not built")
    if cfg.phase == PHASE_FULL:
        others = tuple(f"head.{h}." for loss, h in LOSS_HEADS.items() if loss != cfg.main_loss)
        return [n for n in names if not n.startswith(others)]
    slot = SLOT_PREFIX[cfg.slot()]
    if not any(n.startswith(slot) for n in names):
        raise ConfigError(f"phase {cfg.phase} needs a {cfg.slot()} slot")
    prefixes = (slot,)
    if cfg.phase != PHASE_LANG or "head.mlm.proj" in params:
        prefixes += (head,)
    return [n for n in names if n.startswith(prefixes)]


def _descend(loss: Tensor, opt: Adam, what: str, step: int) -> tuple[float, float]:
    """One descent step on ``loss`` over ``opt``'s parameters.

    Refuses a non-finite loss, then backpropagates, clips the gradient norm
    of ``opt.names`` and steps. Returns the loss value and the pre-clip norm.
    """
    value = loss.item()
    if not math.isfinite(value):
        raise NumericError(f"non-finite {what} loss {value} at step {step}")
    loss.backward()
    norm = clip_grad_norm(opt.params, opt.names, CLIP_NORM)
    opt.step()
    return value, norm


def run_phase(
    encoder: Encoder,
    stack: AdapterStack | None,
    cfg: PhaseConfig,
    corpus: list[np.ndarray] | None = None,
    dataset: TaskDataset | None = None,
) -> TrainStats:
    """Run one training phase over its step budget and return the stats.

    The caller provides either a corpus (mlm) or a task dataset. Only the
    weights ``trainable_names`` picks move, and each slot tensor among them
    must be in ``stack``, which the forward runs; the ortho optimizer is
    scoped to the phase's slot and owns separate Adam state. Dropout applies
    at the encoder's configured rate.
    """
    if cfg.main_loss == "mlm" and (corpus is None or len(corpus) == 0):
        raise ConfigError("mlm training needs a non-empty corpus")
    if cfg.main_loss != "mlm" and (dataset is None or not dataset.examples):
        raise ConfigError(f"{cfg.main_loss} training needs a non-empty task dataset")
    if cfg.main_loss != "mlm" and dataset.kind != cfg.main_loss:
        raise ConfigError(f"the {cfg.main_loss} loss cannot train on a {dataset.kind} dataset")

    trainable = trainable_names(encoder.params, cfg)
    head = LOSS_HEADS[cfg.main_loss]
    if cfg.main_loss != "mlm" and dataset.num_classes > encoder.head_classes[head]:
        raise ConfigError(f"the {cfg.main_loss} dataset has {dataset.num_classes} classes, "
                          f"more than the {encoder.head_classes[head]} of its {head} head")
    for kind, prefix in SLOT_PREFIX.items():
        # a trained slot tensor the forward does not run would get no gradient
        runs = dict(slot_arrays(stack and stack.slot(kind) or [], prefix))
        if any(encoder.params[n] is not runs.get(n) for n in trainable if n.startswith(prefix)):
            raise ConfigError(f"phase {cfg.phase} trains the {kind} slot ({prefix}*), "
                              f"but the stack it runs does not hold those tensors")
    encoder.params.set_trainable(trainable)
    opt_main = Adam(encoder.params, names=trainable, lr=cfg.main_lr)
    opt_ortho = None
    if cfg.ortho:
        slot = [n for n in trainable if n.startswith(SLOT_PREFIX[cfg.slot()])]
        opt_ortho = Adam(encoder.params, names=slot, lr=cfg.ortho_lr)

    batches = _batches(cfg, encoder.config.vocab, corpus, dataset)
    drop_rng = np.random.default_rng([cfg.seed, 3])
    stats = TrainStats()

    # the range comes first, so no batch is drawn after the last step
    for step, (ids, mask, labels, skipped) in zip(range(cfg.steps), batches):
        stats.skipped_sequences += skipped
        states, _ = encoder.encode(ids, mask, stack=stack, rng=drop_rng)
        loss = _main_loss(cfg, encoder, states, labels)
        value, norm = _descend(loss, opt_main, cfg.main_loss, step)
        stats.main_losses.append(value)
        stats.log_lines.append(
            f"{step}\t{cfg.phase}\t{cfg.main_loss}\t{value!r}\t-\t{norm!r}")

        if opt_ortho is not None and (step + 1) % cfg.alternation_k == 0:
            # fresh forward on the same batch: the main step just moved the weights
            with no_grad():  # ortho_loss differentiates its own recompute only
                _, acts = encoder.encode(ids, mask, stack=stack, rng=drop_rng)
            report = ortho_loss(acts, cfg.slot(), mask)
            total, norm = _descend(report.loss, opt_ortho, "ortho", step)
            stats.ortho_totals.append(total)
            cos2 = ",".join(repr(v) for v in report.per_layer)
            stats.log_lines.append(
                f"{step}\t{cfg.phase}\tort\t{total!r}\t{cos2}\t{norm!r}")
    return stats


def train_language_adapter(encoder: Encoder, stack: AdapterStack,
                           corpus: list[np.ndarray], cfg: PhaseConfig) -> TrainStats:
    """Phase 1: MLM over one language's corpus, language slot trainable."""
    if cfg.phase != PHASE_LANG:
        raise ConfigError("language adapter training uses the lang_adapter_training phase id")
    return run_phase(encoder, stack, cfg, corpus=corpus)


def train_task_adapter(encoder: Encoder, stack: AdapterStack,
                       dataset: TaskDataset, cfg: PhaseConfig) -> TrainStats:
    """Phase 2: task loss on source data; language slot (if any) frozen."""
    if cfg.phase != PHASE_TASK:
        raise ConfigError("task adapter training uses the task_adapter_training phase id")
    return run_phase(encoder, stack, cfg, dataset=dataset)


def pretrain_backbone(encoder: Encoder, corpus: list[np.ndarray],
                      cfg: PhaseConfig) -> TrainStats:
    """Short MLM run over the union corpus; stands in for large-scale pretraining."""
    if cfg.phase != PHASE_FULL or cfg.main_loss != "mlm":
        raise ConfigError("backbone pretraining is a full-phase mlm run")
    return run_phase(encoder, None, cfg, corpus=corpus)


def model_selection(candidates: list[tuple[str, float]]) -> str:
    """Pick the config hash with the best source-language dev metric.

    Ties break toward the lexicographically lowest hash, which keeps the
    choice deterministic.
    """
    if not candidates:
        raise ConfigError("model selection over an empty candidate set")
    return min(candidates, key=lambda item: (-item[1], item[0]))[0]


def write_run_manifest(path, entries: dict) -> None:
    """One ``key=value`` line per entry, in the dict's order."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in entries.items():
            fh.write(f"{key}={value}\n")


def read_run_manifest(path) -> dict[str, str]:
    """Parse ``key=value`` lines; blank lines and ``#`` comments are skipped."""
    entries = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            entries[key] = value
    return entries


def config_hash(*parts) -> str:
    """Deterministic digest of config reprs, used for manifests and ties."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf-8"))
    return h.hexdigest()[:16]
