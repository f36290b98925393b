"""Two-phase training orchestration: alternating dual-optimizer loops.

Each iteration takes one batch and runs the main-loss step (forward, then a
descent step: backward, clip, Adam A). With the orthogonality loss on, every
``alternation_k``-th iteration then runs a fresh forward on the same batch
and an ortho step: the same descent step on the orthogonality loss, under
Adam B, over the target slot's weights only. That forward runs frozen, so
it records no graph: the ortho loss recomputes each slot output from the
slot's recorded input and live weights and differentiates only that.
The ortho loss is never added to the main loss, and the two optimizers
never share moment buffers.

Each step computes the rows its main loss reads once, as the batch's
``labelled_rows`` (sequence classification labels each sequence at its
[CLS] position), and the loss gathers exactly the rows passed to
``Encoder.encode``'s ``read``; the ortho step's forward reads the
``real_rows`` of the mask, the rows ``ortho_loss`` reads. The last layer's
tail runs on those rows only; losses, gradients and weights are bit for bit
those of full-size forwards.

What a phase trains is decided in one place, ``trainable_names``; the stack
it runs must be the one registered, each of its slots one adapter of its kind
per layer that passes the one slot check (``adapters.check_registered``). A
weight is frozen until a phase trains it, and frozen again when the phase
ends, returning or raising. The freeze flag is the one graph switch, so an
encode outside a phase records no graph. A task phase runs on a stack with
or without a language slot: the stacked (MAD-X) and the task-adapter-only
configurations differ only in the stack the caller builds and registers.

Every descent step clips the global gradient norm to ``CLIP_NORM``. Adam A
steps at ``MAIN_LR`` and Adam B at ``ORTHO_LR``. A run manifest, written
before step 0, is one JSON object of strings.
"""

from __future__ import annotations

import hashlib
import json
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
    check_registered,
)
from .autodiff import IGNORE_LABEL, Tensor, index_ids, integer_array, take_rows
from .encoder import Encoder
from .errors import ConfigError, MissingArtifactError, NumericError, ShapeError, require_int
from .objectives import (
    MaskingPolicy,
    apply_masking,
    labelled_rows,
    mlm_loss,
    ortho_loss,
    real_rows,
    seq_cls_loss,
    tagging_loss,
)
from .optim import Adam, ParamSet, clip_grad_norm
from .synthlang import CLS, PAD, SEP, TaskDataset

CLIP_NORM = 1.0
MAIN_LR = 1e-3
ORTHO_LR = 1e-4
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
        if type(self.ortho) is not bool:
            raise ConfigError(f"ortho must be a bool, got {self.ortho!r}")
        if self.phase == PHASE_FULL and self.ortho:
            raise ConfigError("full fine-tuning runs without the orthogonality loss")
        for name, least in (("steps", 1), ("batch_size", 1), ("alternation_k", 1), ("seed", 0)):
            require_int(name, getattr(self, name), least)

    def slot(self) -> str:
        """The adapter slot an adapter phase trains."""
        return LANGUAGE if self.phase == PHASE_LANG else TASK


@dataclass
class TrainStats:
    """Metrics log plus the per-step losses and the skipped-sequence count."""

    log_lines: list[str] = field(default_factory=list)
    main_losses: list[float] = field(default_factory=list)
    skipped_sequences: int = 0


def _padded(seqs: list[tuple[np.ndarray, ...]], head: int):
    """PAD-filled [B, T] ids of ``head`` then each sequence's parts (a tuple of 1-D id arrays,
    as many per sequence), joined by one ``np.concatenate``; their 0/1 mask; and the flat
    positions the parts fill, in order. ``ConfigError`` for an empty batch."""
    if not seqs:
        raise ConfigError("a batch needs at least one example")
    parts = [part for seq in seqs for part in seq]
    lengths = np.add.reduce(np.array([len(p) for p in parts]).reshape(len(seqs), -1), axis=1)
    cols = np.arange(1 + np.maximum.reduce(lengths))
    real = cols <= lengths[:, None]
    mask, body = real.astype(np.int64), (real & (cols > 0)).ravel().nonzero()[0]
    ids = np.where(real, head, PAD)
    ids.reshape(-1)[body] = np.concatenate(parts)
    return ids, mask, body


def make_mlm_batch(corpus: list[np.ndarray], picks: np.ndarray,
                   policy: MaskingPolicy, rng: np.random.Generator):
    """[CLS]-prefixed corpus sentences, corrupted for MLM; ``index_ids`` checks each pick."""
    picks = index_ids(picks, len(corpus), "picks")
    ids, mask, _ = _padded([(corpus[i],) for i in picks.tolist()], CLS)
    corrupted, labels, skipped = apply_masking(ids, mask, policy, rng)
    return corrupted, mask, labels, skipped


def make_seq_batch(examples: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """[CLS] sent1 [SEP] sent2 inputs, each sequence's label at its [CLS] position; a label
    must be an integer >= 0, as a negative one would read as ``IGNORE_LABEL``."""
    ids, mask, _ = _padded([(a, [SEP], b) for a, b, _ in examples], CLS)
    labels = np.full(ids.shape, IGNORE_LABEL, dtype=np.int64)
    labels[:, 0] = index_ids([integer_array(label, f"example {i}'s label")
                              for i, (_, _, label) in enumerate(examples)], math.inf, "labels")
    return ids, mask, labels


def make_tag_batch(examples: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """[CLS]-prefixed sentences with per-token tags, integers >= 0 as labels are; CLS and
    padding ignored. ``ShapeError`` names the first example whose tag count is not its
    sentence length, and ``integer_array``'s ContractError the first whose tags are no integers."""
    for i, (sent, tags) in enumerate(examples):
        if len(tags) != len(sent):
            raise ShapeError(f"example {i} has {len(tags)} tags for its {len(sent)} tokens")
        integer_array(tags, f"example {i}'s tags")
    ids, mask, body = _padded([(sent,) for sent, _ in examples], CLS)
    labels = np.full(ids.shape, IGNORE_LABEL, dtype=np.int64)
    labels.reshape(-1)[body] = np.concatenate([tags for _, tags in examples])
    index_ids(labels.reshape(-1)[body], math.inf, "tags")
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


def _main_loss(cfg: PhaseConfig, encoder: Encoder, rows: Tensor, targets) -> Tensor:
    """The phase's main loss on the [n, H] rows it reads and their n labels."""
    loss, head = {"mlm": (mlm_loss, encoder.mlm_logits),
                  "seq_cls": (seq_cls_loss, encoder.cls_logits),
                  "tagging": (tagging_loss, encoder.tag_logits)}[cfg.main_loss]
    return loss(head(rows), targets)


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
    weights ``trainable_names`` picks move, and ``stack``, which the forward
    runs, must be the one registered in the encoder; the ortho optimizer is
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
    check_registered(stack, encoder.params)
    encoder.params.set_trainable(trainable)
    opt_main = Adam(encoder.params, names=trainable, lr=MAIN_LR)
    opt_ortho = None
    if cfg.ortho:
        slot = [n for n in trainable if n.startswith(SLOT_PREFIX[cfg.slot()])]
        opt_ortho = Adam(encoder.params, names=slot, lr=ORTHO_LR)

    batches = _batches(cfg, encoder.config.vocab, corpus, dataset)
    drop_rng = np.random.default_rng([cfg.seed, 3])
    stats = TrainStats()

    try:
        # the range comes first, so no batch is drawn after the last step
        for step, (ids, mask, labels, skipped) in zip(range(cfg.steps), batches):
            stats.skipped_sequences += skipped
            rows = labelled_rows(labels)
            states, _ = encoder.encode(ids, mask, stack=stack, rng=drop_rng, read=rows)
            loss = _main_loss(cfg, encoder, take_rows(states, rows), labels.reshape(-1)[rows])
            value, norm = _descend(loss, opt_main, cfg.main_loss, step)
            stats.main_losses.append(value)
            stats.log_lines.append(
                f"{step}\t{cfg.phase}\t{cfg.main_loss}\t{value!r}\t-\t{norm!r}")

            if opt_ortho is not None and (step + 1) % cfg.alternation_k == 0:
                # fresh forward on the same batch (the main step just moved the weights),
                # frozen so it records nothing: ortho_loss differentiates its own recompute
                encoder.params.set_trainable(())
                _, acts = encoder.encode(ids, mask, stack=stack, rng=drop_rng,
                                         read=real_rows(mask))
                encoder.params.set_trainable(trainable)
                report = ortho_loss(acts, cfg.slot(), mask)
                total, norm = _descend(report.loss, opt_ortho, "ortho", step)
                cos2 = ",".join(repr(v) for v in report.per_layer)
                stats.log_lines.append(
                    f"{step}\t{cfg.phase}\tort\t{total!r}\t{cos2}\t{norm!r}")
    finally:  # nothing trains outside a phase, so later forwards record no graph
        encoder.params.set_trainable(())
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
    choice deterministic. A NaN or infinite metric, which no order ranks, is refused.
    """
    if not candidates:
        raise ConfigError("model selection over an empty candidate set")
    if not all(math.isfinite(metric) for _, metric in candidates):
        raise NumericError(f"model selection over a non-finite metric: {candidates}")
    return min(candidates, key=lambda item: (-item[1], item[0]))[0]


def write_run_manifest(path, entries: dict) -> None:
    """One JSON object of the entries' ``str`` keys and values, in the dict's order.

    Keys that collide as strings (``1`` and ``"1"``) raise ``ConfigError``.
    """
    manifest = {str(key): str(value) for key, value in entries.items()}
    if len(manifest) != len(entries):
        raise ConfigError(f"manifest keys {list(entries)!r} collide as strings")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest) + "\n")


def read_run_manifest(path) -> dict[str, str]:
    """A run manifest's entries; ``MissingArtifactError`` unless it is a JSON object of strings."""
    try:
        with open(path, encoding="utf-8") as fh:
            entries = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, not JSON
        raise MissingArtifactError(f"{path}: no readable run manifest: {exc}") from exc
    if type(entries) is not dict or any(type(v) is not str for v in entries.values()):
        raise MissingArtifactError(f"{path}: run manifest is not a JSON object of strings")
    return entries


def config_hash(*parts) -> str:
    """Deterministic digest of config reprs, used for manifests and ties."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf-8"))
    return h.hexdigest()[:16]
