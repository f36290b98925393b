import re

import numpy as np
import pytest

from adapterlab import training
from adapterlab.adapters import (
    LANGUAGE,
    PHASE_FULL,
    PHASE_LANG,
    PHASE_TASK,
    TASK,
    AdapterConfig,
    AdapterStack,
    init_adapter_stack_slot,
)
from adapterlab.autodiff import IGNORE_LABEL, no_grad
from adapterlab.encoder import Encoder, EncoderConfig
from adapterlab.errors import ConfigError, EmptyLossError, NumericError
from adapterlab.objectives import MaskingPolicy, labelled_rows, mlm_loss
from adapterlab.synthlang import (
    SyntheticLanguageSpec,
    TaskDataset,
    build_vocab,
    corpus_to_ids,
    gen_seq_task,
    gen_tag_task,
    generate_corpus,
)
from adapterlab.training import (
    PhaseConfig,
    config_hash,
    make_mlm_batch,
    make_seq_batch,
    make_tag_batch,
    model_selection,
    pretrain_backbone,
    read_run_manifest,
    run_phase,
    trainable_names,
    train_language_adapter,
    train_task_adapter,
    write_run_manifest,
)

VOCAB_WORDS = 60
N_CLASSES = 4


def setup_bed(seed=0):
    lines = generate_corpus(500, n_words=VOCAB_WORDS, n_classes=N_CLASSES, seed=seed)
    vocab = build_vocab(lines)
    return vocab, corpus_to_ids(lines, vocab)


def fresh_model(vocab, lang=True, task=True, seed=0, dropout=0.0):
    enc = Encoder(EncoderConfig(vocab=vocab.size, num_layers=2, hidden=16,
                                num_heads=2, ffn=24, max_len=32, dropout=dropout),
                  seed=seed)
    stack = AdapterStack(2)
    if lang:
        stack.fill(LANGUAGE, init_adapter_stack_slot(
            AdapterConfig(dim=4, kind=LANGUAGE), 16, 2, seed + 1))
    if task:
        stack.fill(TASK, init_adapter_stack_slot(
            AdapterConfig(dim=3, kind=TASK), 16, 2, seed + 2))
    stack.register(enc.params)
    return enc, stack


def test_phase_config_validation():
    with pytest.raises(ConfigError):
        PhaseConfig(phase="bogus", main_loss="mlm")
    with pytest.raises(ConfigError):
        PhaseConfig(phase=PHASE_LANG, main_loss="contrastive")
    with pytest.raises(ConfigError):
        PhaseConfig(phase=PHASE_FULL, main_loss="seq_cls", ortho=True)
    with pytest.raises(ConfigError):
        PhaseConfig(phase=PHASE_TASK, main_loss="mlm")
    for bad in ({"alternation_k": 0}, {"batch_size": 0}, {"steps": -3}, {"steps": 0},
                {"main_lr": -1.0}, {"main_lr": 0.0}, {"ortho_lr": 0.0}):
        with pytest.raises(ConfigError, match=next(iter(bad))):
            PhaseConfig(phase=PHASE_LANG, main_loss="mlm", **bad)
    with pytest.raises(AttributeError):  # checked once, so no field may change later
        PhaseConfig(phase=PHASE_LANG, main_loss="mlm").steps = 0


def test_empty_corpus_or_dataset_rejected():
    vocab, _ = setup_bed()
    enc, stack = fresh_model(vocab, task=False)
    cfg = PhaseConfig(phase=PHASE_LANG, main_loss="mlm", steps=2, batch_size=4)
    with pytest.raises(ConfigError, match="corpus"):
        run_phase(enc, stack, cfg, corpus=[])
    enc.ensure_tag_head(3)
    empty = TaskDataset("tagging", "src", "train", [], 3)
    cfg = PhaseConfig(phase=PHASE_FULL, main_loss="tagging", steps=2, batch_size=4)
    with pytest.raises(ConfigError, match="dataset"):
        run_phase(enc, None, cfg, dataset=empty)


def test_lang_phase_without_language_slot_rejected():
    # untied, head.mlm.* alone would be trainable: the slot rule must still refuse
    vocab, corpus = setup_bed()
    enc = Encoder(EncoderConfig(vocab=vocab.size, num_layers=2, hidden=16, num_heads=2,
                                ffn=24, max_len=32, dropout=0.0, tie_mlm=False), seed=0)
    cfg = PhaseConfig(phase=PHASE_LANG, main_loss="mlm", steps=2, batch_size=4)
    with pytest.raises(ConfigError):
        run_phase(enc, None, cfg, corpus=corpus)


# (phase, main loss, language slot, task slot, tie_mlm, heads built) and the
# prefixes that train, in the model's declaration order: embeddings, layers,
# MLM head, the heads built, then the adapter slots; when the phase is refused,
# the slot or head its ConfigError must name instead
FREEZE_MAP = (
    (PHASE_LANG, "mlm", True, False, True, (), ("adapter.lang.",)),
    (PHASE_LANG, "mlm", True, True, False, ("cls",), ("head.mlm.", "adapter.lang.")),
    (PHASE_LANG, "mlm", False, True, False, (), LANGUAGE),
    (PHASE_TASK, "seq_cls", True, True, True, ("cls",), ("head.cls.", "adapter.task.")),
    (PHASE_TASK, "tagging", True, True, True, ("cls", "tag"), ("head.tag.", "adapter.task.")),
    (PHASE_TASK, "seq_cls", False, True, True, ("cls", "tag"), ("head.cls.", "adapter.task.")),
    (PHASE_TASK, "tagging", True, False, True, ("tag",), TASK),
    (PHASE_TASK, "seq_cls", True, True, True, ("tag",), "head.cls."),
    (PHASE_TASK, "tagging", False, True, True, ("cls",), "head.tag."),
    (PHASE_FULL, "seq_cls", False, False, True, (), "head.cls."),
    (PHASE_FULL, "tagging", True, True, True, ("cls",), "head.tag."),
    (PHASE_FULL, "mlm", False, False, True, (), ("embed.", "layer.", "head.mlm.")),
    (PHASE_FULL, "seq_cls", False, False, False, ("cls", "tag"),
     ("embed.", "layer.", "head.cls.")),
    (PHASE_FULL, "tagging", True, True, True, ("cls", "tag"),
     ("embed.", "layer.", "head.tag.", "adapter.")),
)


def test_trainable_names_table():
    vocab, _ = setup_bed()
    for phase, loss, lang, task, tie, heads, trains in FREEZE_MAP:
        row = (phase, loss, lang, task, tie, heads)
        enc = Encoder(EncoderConfig(vocab=vocab.size, num_layers=2, hidden=16, num_heads=2,
                                    ffn=24, max_len=32, dropout=0.0, tie_mlm=tie), seed=0)
        if "cls" in heads:
            enc.ensure_cls_head(3)
        if "tag" in heads:
            enc.ensure_tag_head(N_CLASSES)
        stack = AdapterStack(2)  # registered after the heads, so it is declared last
        if lang:
            stack.fill(LANGUAGE, init_adapter_stack_slot(
                AdapterConfig(dim=4, kind=LANGUAGE), 16, 2, 1))
        if task:
            stack.fill(TASK, init_adapter_stack_slot(AdapterConfig(dim=3, kind=TASK), 16, 2, 2))
        stack.register(enc.params)
        cfg = PhaseConfig(phase=phase, main_loss=loss)
        if isinstance(trains, str):
            with pytest.raises(ConfigError, match=re.escape(trains)):
                trainable_names(enc.params, cfg)
            continue
        expected = [n for p in trains for n in enc.params.names() if n.startswith(p)]
        assert trainable_names(enc.params, cfg) == expected, row


def test_adapter_slot_the_forward_skips_is_refused_before_step_0(monkeypatch):
    # a registered slot missing from the stack the phase runs, or held there by
    # other tensors (a second stack of the same kinds, never registered), would
    # train weights no forward reaches; they get no gradient, so refuse up front
    vocab, corpus = setup_bed()
    enc, stack = fresh_model(vocab)
    enc.ensure_tag_head(N_CLASSES)
    dataset = gen_tag_task(corpus, SyntheticLanguageSpec("src"), vocab, 40, "train", 1,
                           N_CLASSES)
    lang_only = AdapterStack(2)
    lang_only.fill(LANGUAGE, stack.lang)
    _, other = fresh_model(vocab, seed=5)

    def no_forward(*args, **kwargs):
        raise AssertionError("a forward ran")

    monkeypatch.setattr(Encoder, "encode", no_forward)
    full_mlm = PhaseConfig(phase=PHASE_FULL, main_loss="mlm", steps=2, batch_size=4)
    full_tag = PhaseConfig(phase=PHASE_FULL, main_loss="tagging", steps=2, batch_size=4)
    lang = PhaseConfig(phase=PHASE_LANG, main_loss="mlm", steps=2, batch_size=4)
    task = PhaseConfig(phase=PHASE_TASK, main_loss="tagging", steps=2, batch_size=4)
    for run, slot in ((lambda: pretrain_backbone(enc, corpus, full_mlm), LANGUAGE),
                      (lambda: run_phase(enc, None, full_tag, dataset=dataset), LANGUAGE),
                      (lambda: run_phase(enc, lang_only, full_mlm, corpus=corpus), TASK),
                      (lambda: run_phase(enc, None, lang, corpus=corpus), LANGUAGE),
                      (lambda: run_phase(enc, other, lang, corpus=corpus), LANGUAGE),
                      (lambda: run_phase(enc, other, task, dataset=dataset), TASK),
                      (lambda: run_phase(enc, other, full_mlm, corpus=corpus), LANGUAGE)):
        with pytest.raises(ConfigError, match=f"the {slot} slot"):
            run()


def test_dataset_with_more_classes_than_its_head_is_refused_before_step_0(monkeypatch):
    vocab, corpus = setup_bed()
    enc, stack = fresh_model(vocab, lang=False)
    enc.ensure_cls_head(2)
    enc.ensure_tag_head(3)
    spec = SyntheticLanguageSpec("src")
    fewer = gen_tag_task(corpus, spec, vocab, 30, "train", 1, n_tags=2)
    tagging = PhaseConfig(phase=PHASE_TASK, main_loss="tagging", steps=1, batch_size=4)
    run_phase(enc, stack, tagging, dataset=fewer)  # fewer classes than the head is legal

    def no_forward(*args, **kwargs):
        raise AssertionError("a forward ran")

    monkeypatch.setattr(Encoder, "encode", no_forward)
    for loss, dataset, match in (
            ("seq_cls", gen_seq_task(corpus, spec, vocab, 30, "train", 1), "3 classes.*the 2"),
            ("tagging", gen_tag_task(corpus, spec, vocab, 30, "train", 1, n_tags=6),
             "6 classes.*the 3")):
        for phase in (PHASE_TASK, PHASE_FULL):
            cfg = PhaseConfig(phase=phase, main_loss=loss, steps=2, batch_size=4)
            with pytest.raises(ConfigError, match=match):
                run_phase(enc, stack, cfg, dataset=dataset)


def test_phase_wrappers_refuse_another_phase_before_any_forward(monkeypatch):
    vocab, corpus = setup_bed()
    enc, stack = fresh_model(vocab)
    enc.ensure_tag_head(N_CLASSES)
    dataset = gen_tag_task(corpus, SyntheticLanguageSpec("src"), vocab, 40, "train", 1,
                           N_CLASSES)

    def no_forward(*args, **kwargs):
        raise AssertionError("a forward ran")

    monkeypatch.setattr(Encoder, "encode", no_forward)
    lang = PhaseConfig(phase=PHASE_LANG, main_loss="mlm", steps=2, batch_size=4)
    task = PhaseConfig(phase=PHASE_TASK, main_loss="tagging", steps=2, batch_size=4)
    full = PhaseConfig(phase=PHASE_FULL, main_loss="mlm", steps=2, batch_size=4)
    full_tag = PhaseConfig(phase=PHASE_FULL, main_loss="tagging", steps=2, batch_size=4)
    for run, match in ((lambda: train_language_adapter(enc, stack, corpus, full), PHASE_LANG),
                       (lambda: train_task_adapter(enc, stack, dataset, full_tag), PHASE_TASK),
                       (lambda: pretrain_backbone(enc, corpus, lang), "full-phase mlm"),
                       (lambda: pretrain_backbone(enc, corpus, task), "full-phase mlm"),
                       (lambda: pretrain_backbone(enc, corpus, full_tag), "full-phase mlm")):
        with pytest.raises(ConfigError, match=match):
            run()


def test_non_finite_loss_raises_numeric_error():
    vocab, corpus = setup_bed()
    enc = Encoder(EncoderConfig(vocab=vocab.size, num_layers=1, hidden=16, num_heads=2,
                                ffn=24, max_len=32, dropout=0.0), seed=0)
    enc.params["embed.tok"].values[...] = np.nan
    cfg = PhaseConfig(phase=PHASE_FULL, main_loss="mlm", steps=2, batch_size=4)
    with pytest.raises(NumericError, match="non-finite mlm loss nan at step 0"):
        pretrain_backbone(enc, corpus, cfg)


@pytest.mark.parametrize("loss, other", [("tagging", "seq_cls"), ("seq_cls", "tagging")])
def test_dataset_of_the_other_kind_is_refused_before_step_0(monkeypatch, loss, other):
    vocab, corpus = setup_bed()
    enc, stack = fresh_model(vocab, lang=False)
    enc.ensure_cls_head(3)
    enc.ensure_tag_head(N_CLASSES)
    spec = SyntheticLanguageSpec("src")
    datasets = {"seq_cls": gen_seq_task(corpus, spec, vocab, 30, "train", 1),
                "tagging": gen_tag_task(corpus, spec, vocab, 30, "train", 1, N_CLASSES)}

    def no_forward(*args, **kwargs):
        raise AssertionError("a forward ran")

    monkeypatch.setattr(Encoder, "encode", no_forward)
    cfg = PhaseConfig(phase=PHASE_TASK, main_loss=loss, steps=2, batch_size=4)
    with pytest.raises(ConfigError, match=f"{loss} loss.*{other} dataset"):
        run_phase(enc, stack, cfg, dataset=datasets[other])


@pytest.mark.parametrize("tie_mlm", [True, False], ids=["tied", "untied"])
def test_unlabelled_mlm_batch_raises_empty_loss(monkeypatch, tie_mlm):
    vocab, corpus = setup_bed()
    enc = Encoder(EncoderConfig(vocab=vocab.size, num_layers=1, hidden=16, num_heads=2,
                                ffn=24, max_len=32, dropout=0.0, tie_mlm=tie_mlm), seed=0)

    def mask_nothing(ids, mask, policy, rng):
        return ids.copy(), np.full_like(ids, IGNORE_LABEL), 0

    monkeypatch.setattr(training, "apply_masking", mask_nothing)
    cfg = PhaseConfig(phase=PHASE_FULL, main_loss="mlm", steps=2, batch_size=4)
    with pytest.raises(EmptyLossError):
        pretrain_backbone(enc, corpus, cfg)


def test_batch_builders():
    ids, mask, labels = make_seq_batch([
        (np.array([7, 8]), np.array([9]), 1),
        (np.array([7]), np.array([9, 10, 11]), 0),
    ])
    np.testing.assert_array_equal(ids[0], [2, 7, 8, 4, 9, 0])
    np.testing.assert_array_equal(mask[1], [1, 1, 1, 1, 1, 1])
    np.testing.assert_array_equal(labels, [1, 0])

    ids, mask, labels = make_tag_batch([
        (np.array([7, 8]), np.array([0, 3])),
        (np.array([9]), np.array([2])),
    ])
    np.testing.assert_array_equal(ids, [[2, 7, 8], [2, 9, 0]])
    np.testing.assert_array_equal(labels, [[-1, 0, 3], [-1, 2, -1]])


def test_language_adapter_training_freezes_backbone_and_learns():
    vocab, corpus = setup_bed()
    enc, stack = fresh_model(vocab, task=False)
    backbone = [n for n in enc.params.names() if not n.startswith("adapter.")]
    before = enc.params.checksum(names=backbone)
    cfg = PhaseConfig(phase=PHASE_LANG, main_loss="mlm", ortho=True,
                      steps=60, batch_size=8, seed=5)
    stats = train_language_adapter(enc, stack, corpus, cfg)
    assert enc.params.checksum(names=backbone) == before
    assert len(stats.main_losses) == 60
    assert len(stats.ortho_totals) == 60
    # near-identity at the first report (the main step already ran once)
    assert stats.ortho_totals[0] == pytest.approx(2.0, abs=1e-3)
    assert stats.ortho_totals[-1] < stats.ortho_totals[0]


def test_ortho_disabled_is_single_optimizer_run():
    vocab, corpus = setup_bed()
    enc, stack = fresh_model(vocab, task=False)
    cfg = PhaseConfig(phase=PHASE_LANG, main_loss="mlm", ortho=False,
                      steps=10, batch_size=4, seed=1)
    stats = train_language_adapter(enc, stack, corpus, cfg)
    assert stats.ortho_totals == []
    assert all("\tort\t" not in line for line in stats.log_lines)


def test_alternation_consumes_identical_batches(monkeypatch):
    # record what encode actually receives, not what the loop says it passed
    vocab, corpus = setup_bed()
    enc, stack = fresh_model(vocab, task=False)
    received = []
    encode = Encoder.encode

    def recording_encode(self, ids, mask, **kwargs):
        received.append((np.array(ids), np.array(mask)))
        return encode(self, ids, mask, **kwargs)

    monkeypatch.setattr(Encoder, "encode", recording_encode)
    cfg = PhaseConfig(phase=PHASE_LANG, main_loss="mlm", ortho=True,
                      steps=8, batch_size=4, seed=2)
    train_language_adapter(enc, stack, corpus, cfg)
    assert len(received) == 16  # per step: the main forward, then the ortho forward
    for (main_ids, main_mask), (ortho_ids, ortho_mask) in zip(received[::2], received[1::2]):
        np.testing.assert_array_equal(ortho_ids, main_ids)
        np.testing.assert_array_equal(ortho_mask, main_mask)


def test_ortho_forward_records_no_graph(monkeypatch):
    vocab, corpus = setup_bed()
    enc, stack = fresh_model(vocab, task=False)
    records = []
    encode = Encoder.encode

    def recording_encode(self, *args, **kwargs):
        states, acts = encode(self, *args, **kwargs)
        records.append(states.requires_grad)
        return states, acts

    monkeypatch.setattr(Encoder, "encode", recording_encode)
    cfg = PhaseConfig(phase=PHASE_LANG, main_loss="mlm", ortho=True,
                      steps=4, batch_size=4, seed=2)
    stats = train_language_adapter(enc, stack, corpus, cfg)
    assert records == [True, False] * 4  # per step: the main forward, then the ortho one
    assert len(stats.ortho_totals) == 4


def test_alternation_granularity():
    vocab, corpus = setup_bed()
    enc, stack = fresh_model(vocab, task=False)
    cfg = PhaseConfig(phase=PHASE_LANG, main_loss="mlm", ortho=True,
                      alternation_k=3, steps=9, batch_size=4, seed=2)
    stats = train_language_adapter(enc, stack, corpus, cfg)
    assert len(stats.ortho_totals) == 3
    fields = [line.split("\t") for line in stats.log_lines]
    assert [int(f[0]) for f in fields if f[2] == "ort"] == [2, 5, 8]


def test_optimizer_independence_byte_level():
    vocab, corpus = setup_bed()
    enc, stack = fresh_model(vocab, task=False)

    # replicate one alternating iteration by hand to watch the moment buffers
    from adapterlab.objectives import ortho_loss
    from adapterlab.optim import Adam, clip_grad_norm

    trainable = trainable_names(enc.params, PhaseConfig(phase=PHASE_LANG, main_loss="mlm"))
    enc.params.set_trainable(trainable)
    opt_main = Adam(enc.params, names=trainable, lr=1e-3)
    opt_ortho = Adam(enc.params, names=trainable, lr=1e-4)
    policy = MaskingPolicy(vocab=vocab.size)
    rng = np.random.default_rng(0)
    ids, mask, labels, _ = make_mlm_batch(corpus, np.arange(4), policy, rng)

    for _ in range(3):
        states, acts = enc.encode(ids, mask, stack=stack)
        rows, targets = labelled_rows(states, labels)
        mlm_loss(enc.mlm_logits(rows), targets).backward()
        clip_grad_norm(enc.params, trainable, 1.0)
        ortho_before = opt_ortho.state_checksum()
        opt_main.step()
        assert opt_ortho.state_checksum() == ortho_before

        _, acts = enc.encode(ids, mask, stack=stack)
        ortho_loss(acts, LANGUAGE, mask).loss.backward()
        clip_grad_norm(enc.params, trainable, 1.0)
        main_before = opt_main.state_checksum()
        opt_ortho.step()
        assert opt_main.state_checksum() == main_before


def _masked_eval_set(corpus, vocab_size):
    """One pass over the corpus in batches of 50, masked by a dedicated rng."""
    policy = MaskingPolicy(vocab=vocab_size)
    rng = np.random.default_rng([7, 99])
    return [make_mlm_batch(corpus, np.arange(lo, lo + 50), policy, rng)[:3]
            for lo in range(0, len(corpus), 50)]


def _mean_masked_loss(enc, batches):
    """Mean cross-entropy over every labelled position of the set (forward only)."""
    total = count = 0
    for ids, mask, labels in batches:
        with no_grad():
            states, _ = enc.encode(ids, mask)
            rows, targets = labelled_rows(states, labels)
            loss = mlm_loss(enc.mlm_logits(rows), targets).item()
        total += loss * targets.size
        count += targets.size
    return total / count


def test_mlm_loss_decreases_on_smoke_run():
    # The reference is the untrained model on the same fixed masked batches the
    # trained model is scored on. Windows of training-batch losses were too
    # noisy to decide a 0.8 ratio: each step scores ~21 fresh masked positions,
    # and the first window already includes the steepest part of the descent.
    # The unigram bound means "better than token frequencies alone": the model
    # must use context, not just learn which words are common.
    vocab, corpus = setup_bed(seed=7)
    enc = Encoder(EncoderConfig(vocab=vocab.size, num_layers=2, hidden=32,
                                num_heads=4, ffn=64, max_len=32, dropout=0.0), seed=7)
    batches = _masked_eval_set(corpus, vocab.size)
    before = _mean_masked_loss(enc, batches)

    cfg = PhaseConfig(phase=PHASE_FULL, main_loss="mlm", steps=300,
                      batch_size=16, seed=7)
    stats = pretrain_backbone(enc, corpus, cfg)
    assert len(stats.main_losses) == 300
    assert np.all(np.isfinite(stats.main_losses))
    after = _mean_masked_loss(enc, batches)

    counts = np.bincount(np.concatenate(corpus))
    labelled = np.concatenate([labels[labels != IGNORE_LABEL] for _, _, labels in batches])
    unigram = float(-np.log(counts[labelled] / counts.sum()).mean())

    assert after < 0.8 * before
    assert after < unigram


def test_task_adapter_training_freezes_language_slot():
    vocab, corpus = setup_bed()
    spec = SyntheticLanguageSpec("src")
    dataset = gen_seq_task(corpus, spec, vocab, 200, "train", seed=3)
    enc, stack = fresh_model(vocab)
    enc.ensure_cls_head(3)
    lang_before = [w.w_up.values.tobytes() for w in stack.lang]
    cfg = PhaseConfig(phase=PHASE_TASK, main_loss="seq_cls", ortho=True,
                      steps=40, batch_size=8, seed=4)
    stats = train_task_adapter(enc, stack, dataset, cfg)
    assert [w.w_up.values.tobytes() for w in stack.lang] == lang_before
    assert len(stats.main_losses) == 40


def test_task_only_phase_matches_variant_contract():
    vocab, corpus = setup_bed()
    spec = SyntheticLanguageSpec("src")
    dataset = gen_tag_task(corpus, spec, vocab, 150, "train", seed=3, n_tags=N_CLASSES)
    enc, stack = fresh_model(vocab, lang=False)
    enc.ensure_tag_head(N_CLASSES)
    cfg = PhaseConfig(phase=PHASE_TASK, main_loss="tagging", ortho=False,
                      steps=20, batch_size=8, seed=4)
    stats = train_task_adapter(enc, stack, dataset, cfg)
    assert len(stats.main_losses) == 20


def test_full_finetune_trains_everything_deterministically():
    vocab, corpus = setup_bed()
    dataset = gen_seq_task(corpus, SyntheticLanguageSpec("src"), vocab, 120, "train", 1)

    def run():
        enc = Encoder(EncoderConfig(vocab=vocab.size, num_layers=1, hidden=16,
                                    num_heads=2, ffn=24, max_len=32, dropout=0.1),
                      seed=6)
        enc.ensure_cls_head(3)
        cfg = PhaseConfig(phase=PHASE_FULL, main_loss="seq_cls", steps=15,
                          batch_size=8, seed=6)
        stats = run_phase(enc, None, cfg, dataset=dataset)
        return enc.params.checksum(), stats.log_lines

    (sum_a, log_a), (sum_b, log_b) = run(), run()
    assert sum_a == sum_b
    assert log_a == log_b


def test_model_selection_rules():
    assert model_selection([("abc", 0.8)]) == "abc"
    assert model_selection([("abc", 0.8), ("def", 0.9)]) == "def"
    assert model_selection([("bbb", 0.9), ("aaa", 0.9)]) == "aaa"
    with pytest.raises(ConfigError):
        model_selection([])


def test_run_manifest_roundtrip(tmp_path):
    path = tmp_path / "run.manifest"
    entries = {"config_hash": config_hash("x"), "seed": "3", "phases": "lang,task"}
    write_run_manifest(path, entries)
    assert read_run_manifest(path) == entries


def test_metrics_log_format(tmp_path):
    vocab, corpus = setup_bed()
    enc, stack = fresh_model(vocab, task=False)
    cfg = PhaseConfig(phase=PHASE_LANG, main_loss="mlm", ortho=True,
                      steps=3, batch_size=4, seed=1)
    log_path = tmp_path / "metrics.tsv"
    train_language_adapter(enc, stack, corpus, cfg).write(log_path)
    lines = log_path.read_text().splitlines()
    assert len(lines) == 6  # one mlm + one ort line per step
    for line in lines:
        fields = line.split("\t")
        assert len(fields) == 6
        assert fields[1] == PHASE_LANG
        float(fields[3])  # loss parses
        float(fields[5])  # pre-clip grad norm parses
    ort_fields = lines[1].split("\t")
    assert ort_fields[2] == "ort"
    assert len(ort_fields[4].split(",")) == 2  # per-layer mean cos^2
