import numpy as np
import pytest

from adapterlab.adapters import (
    LANGUAGE,
    PHASE_FULL,
    PHASE_LANG,
    PHASE_TASK,
    PHASE_TASK_ONLY,
    TASK,
    AdapterConfig,
    AdapterStack,
    init_adapter_stack_slot,
)
from adapterlab.autodiff import IGNORE_LABEL
from adapterlab.encoder import Encoder, EncoderConfig
from adapterlab.errors import ConfigError
from adapterlab.objectives import MaskingPolicy, mlm_loss
from adapterlab.synthlang import (
    SyntheticLanguageSpec,
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
    train_full_finetune,
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
        PhaseConfig(phase=PHASE_LANG, main_loss="mlm", alternation_k=0)
    with pytest.raises(ConfigError):
        PhaseConfig(phase=PHASE_LANG, main_loss="mlm", ortho=False, joint_lambda=0.5)
    with pytest.raises(ConfigError):
        PhaseConfig(phase=PHASE_LANG, main_loss="mlm", ortho=True, joint_lambda=0.0)
    with pytest.raises(ConfigError):
        PhaseConfig(phase=PHASE_TASK, main_loss="mlm")
    with pytest.raises(AttributeError):  # checked once, so no field may change later
        PhaseConfig(phase=PHASE_LANG, main_loss="mlm").joint_lambda = 0.5


def test_lang_phase_without_language_slot_rejected():
    # untied, head.mlm.* alone would be trainable: the slot rule must still refuse
    vocab, corpus = setup_bed()
    enc = Encoder(EncoderConfig(vocab=vocab.size, num_layers=2, hidden=16, num_heads=2,
                                ffn=24, max_len=32, dropout=0.0, tie_mlm=False), seed=0)
    cfg = PhaseConfig(phase=PHASE_LANG, main_loss="mlm", steps=2, batch_size=4)
    with pytest.raises(ConfigError):
        run_phase(enc, None, cfg, corpus=corpus)


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
    from adapterlab.adapters import set_trainable

    set_trainable(enc.params, PHASE_LANG)
    trainable = enc.params.trainable_names()
    opt_main = Adam(enc.params, names=trainable, lr=1e-3)
    opt_ortho = Adam(enc.params, names=trainable, lr=1e-4)
    policy = MaskingPolicy(vocab=vocab.size)
    rng = np.random.default_rng(0)
    ids, mask, labels, _ = make_mlm_batch(corpus, np.arange(4), policy, rng)

    for _ in range(3):
        states, acts = enc.encode(ids, mask, stack=stack)
        mlm_loss(enc.mlm_logits(states), labels).backward()
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
        states, _ = enc.encode(ids, mask)
        n = int((labels != IGNORE_LABEL).sum())
        total += mlm_loss(enc.mlm_logits(states), labels).item() * n
        count += n
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
    cfg = PhaseConfig(phase=PHASE_TASK_ONLY, main_loss="tagging", ortho=False,
                      steps=20, batch_size=8, seed=4)
    stats = train_task_adapter(enc, stack, dataset, cfg)
    assert len(stats.main_losses) == 20


def test_stacked_task_phase_requires_language_slot():
    vocab, corpus = setup_bed()
    dataset = gen_seq_task(corpus, SyntheticLanguageSpec("src"), vocab, 60, "train", 0)
    enc, stack = fresh_model(vocab, lang=False)
    enc.ensure_cls_head(3)
    cfg = PhaseConfig(phase=PHASE_TASK, main_loss="seq_cls", steps=5, seed=0)
    with pytest.raises(ConfigError):
        train_task_adapter(enc, stack, dataset, cfg)


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
        stats = train_full_finetune(enc, dataset, cfg)
        return enc.params.checksum(), stats.log_lines

    (sum_a, log_a), (sum_b, log_b) = run(), run()
    assert sum_a == sum_b
    assert log_a == log_b


def test_joint_lambda_mode_runs_single_optimizer():
    vocab, corpus = setup_bed()
    enc, stack = fresh_model(vocab, task=False)
    cfg = PhaseConfig(phase=PHASE_LANG, main_loss="mlm", ortho=True,
                      joint_lambda=0.1, steps=6, batch_size=4, seed=1)
    stats = train_language_adapter(enc, stack, corpus, cfg)
    # joint mode folds the ortho term into the main line; no separate steps
    assert stats.ortho_totals == []
    assert len(stats.main_losses) == 6


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
