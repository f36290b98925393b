"""Two-phase training orchestration: alternating dual-optimizer loops.

Each iteration takes one batch and runs the main-loss step (forward, then a
descent step: backward, clip, Adam A); when the orthogonality loss is
enabled, a fresh forward on the same batch feeds the ortho step (the same
descent step under Adam B, over the target slot's weights only). The two
optimizers never share moment buffers.
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
    PHASE_TASK_ONLY,
    PHASES,
    TASK,
    AdapterStack,
    set_trainable,
    slot_names,
)
from .autodiff import IGNORE_LABEL, Tensor, add, mul
from .encoder import Encoder
from .errors import ConfigError, NumericError
from .objectives import (
    MaskingPolicy,
    apply_masking,
    mlm_loss,
    ortho_loss,
    seq_cls_loss,
    tagging_loss,
)
from .optim import Adam, clip_grad_norm
from .synthlang import CLS, PAD, SEP, TaskDataset, read_key_values, write_key_values

# each main loss and the name prefix of the head it trains through
LOSS_HEADS = {"mlm": "head.mlm.", "seq_cls": "head.cls.", "tagging": "head.tag."}
MAIN_LOSSES = tuple(LOSS_HEADS)
# the main losses each phase may train with
PHASE_LOSSES = {
    PHASE_LANG: ("mlm",),
    PHASE_TASK: ("seq_cls", "tagging"),
    PHASE_TASK_ONLY: ("seq_cls", "tagging"),
    PHASE_FULL: MAIN_LOSSES,
}


@dataclass(frozen=True)
class PhaseConfig:
    """One training phase: main loss, optional ortho loss, budgets, seeds.

    ``ortho`` switches the orthogonality loss on for the phase's slot;
    ``joint_lambda`` only chooses how it runs: ``None`` alternates it with
    the main loss under its own Adam, a positive weight folds it into the
    main loss. Frozen, so the fields stay as ``__post_init__`` checked them.
    """

    phase: str
    main_loss: str  # mlm | seq_cls | tagging
    ortho: bool = False
    main_lr: float = 1e-3
    ortho_lr: float = 1e-4
    steps: int = 200
    batch_size: int = 16
    clip_norm: float = 1.0
    alternation_k: int = 1
    seed: int = 0
    joint_lambda: float | None = None

    def __post_init__(self):
        if self.phase not in PHASES:
            raise ConfigError(f"unknown phase {self.phase!r}")
        if self.main_loss not in MAIN_LOSSES:
            raise ConfigError(f"unknown main loss {self.main_loss!r}")
        if self.main_loss not in PHASE_LOSSES[self.phase]:
            raise ConfigError(f"phase {self.phase} does not train with the "
                              f"{self.main_loss} loss")
        if self.joint_lambda is not None and not self.ortho:
            raise ConfigError("joint_lambda weights the orthogonality loss; set ortho=True")
        if self.joint_lambda is not None and not self.joint_lambda > 0.0:
            raise ConfigError(f"joint_lambda must be > 0, got {self.joint_lambda}")
        if self.phase == PHASE_FULL and self.ortho:
            raise ConfigError("full fine-tuning runs without the orthogonality loss")
        if self.alternation_k < 1:
            raise ConfigError("alternation granularity must be >= 1")

    def ortho_slot(self) -> str:
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
    if cfg.main_loss == "mlm":
        return mlm_loss(encoder.mlm_logits(states), labels)
    if cfg.main_loss == "seq_cls":
        return seq_cls_loss(encoder.cls_logits(states), labels)
    return tagging_loss(encoder.tag_logits(states), labels)


def _descend(loss: Tensor, opt: Adam, clip_norm: float, what: str,
             step: int) -> tuple[float, float]:
    """One descent step on ``loss`` over ``opt``'s parameters.

    Refuses a non-finite loss, then backpropagates, clips the gradient norm
    of ``opt.names`` and steps. Returns the loss value and the pre-clip norm.
    """
    value = loss.item()
    if not math.isfinite(value):
        raise NumericError(f"non-finite {what} loss {value} at step {step}")
    loss.backward()
    norm = clip_grad_norm(opt.params, opt.names, clip_norm)
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

    The caller provides either a corpus (mlm) or a task dataset. Freezing,
    and the slots the model must carry, follow the phase id; the ortho
    optimizer is scoped to the target slot's adapter weights and owns
    separate Adam state.
    """
    if cfg.main_loss == "mlm" and corpus is None:
        raise ConfigError("mlm training needs a corpus")
    if cfg.main_loss != "mlm" and dataset is None:
        raise ConfigError(f"{cfg.main_loss} training needs a task dataset")

    set_trainable(encoder.params, cfg.phase)
    # scope the optimizer to the parameters this phase's loss can reach;
    # heads of other tasks stay frozen-in-place even under full fine-tuning
    other_heads = tuple(head for loss, head in LOSS_HEADS.items() if loss != cfg.main_loss)
    for name in encoder.params.names():
        if name.startswith(other_heads):
            encoder.params[name].requires_grad = False
    trainable = encoder.params.trainable_names()
    if not trainable:
        raise ConfigError(f"phase {cfg.phase} has nothing to train")
    opt_main = Adam(encoder.params, names=trainable, lr=cfg.main_lr)
    opt_ortho = None
    if cfg.ortho and cfg.joint_lambda is None:
        opt_ortho = Adam(encoder.params, names=slot_names(encoder.params, cfg.ortho_slot()),
                         lr=cfg.ortho_lr)

    batches = _batches(cfg, encoder.config.vocab, corpus, dataset)
    drop_rng = np.random.default_rng([cfg.seed, 3])
    stats = TrainStats()
    training = encoder.config.dropout > 0.0

    # the range comes first, so no batch is drawn after the last step
    for step, (ids, mask, labels, skipped) in zip(range(cfg.steps), batches):
        stats.skipped_sequences += skipped
        states, acts = encoder.encode(ids, mask, stack=stack,
                                      training=training, rng=drop_rng)
        loss = _main_loss(cfg, encoder, states, labels)
        if cfg.joint_lambda is not None:
            report = ortho_loss(acts, cfg.ortho_slot(), mask)
            loss = add(loss, mul(report.loss, cfg.joint_lambda))
        value, norm = _descend(loss, opt_main, cfg.clip_norm, cfg.main_loss, step)
        stats.main_losses.append(value)
        stats.log_lines.append(
            f"{step}\t{cfg.phase}\t{cfg.main_loss}\t{value!r}\t-\t{norm!r}")

        if opt_ortho is not None and (step + 1) % cfg.alternation_k == 0:
            # fresh forward on the same batch: the main step just moved the weights
            _, acts = encoder.encode(ids, mask, stack=stack,
                                     training=training, rng=drop_rng)
            report = ortho_loss(acts, cfg.ortho_slot(), mask)
            total, norm = _descend(report.loss, opt_ortho, cfg.clip_norm, "ortho", step)
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
    if cfg.phase not in (PHASE_TASK, PHASE_TASK_ONLY):
        raise ConfigError("task adapter training needs a task phase id")
    return run_phase(encoder, stack, cfg, dataset=dataset)


def train_full_finetune(encoder: Encoder, dataset: TaskDataset,
                        cfg: PhaseConfig) -> TrainStats:
    """Single-optimizer fine-tuning of every parameter, no adapters."""
    if cfg.phase != PHASE_FULL:
        raise ConfigError("full fine-tuning uses the full_finetune phase id")
    return run_phase(encoder, None, cfg, dataset=dataset)


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


# a run manifest, written before step 0, is plain key=value lines
write_run_manifest = write_key_values
read_run_manifest = read_key_values


def config_hash(*parts) -> str:
    """Deterministic digest of config reprs, used for manifests and ties."""
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode("utf-8"))
    return h.hexdigest()[:16]
