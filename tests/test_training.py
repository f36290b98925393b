import math
import re
from functools import cache

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adapterlab import autodiff, objectives, training
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
from adapterlab.autodiff import IGNORE_LABEL, take_rows
from adapterlab.encoder import Encoder, EncoderConfig
from adapterlab.errors import (
    ConfigError,
    ContractError,
    EmptyLossError,
    MissingArtifactError,
    NumericError,
    ShapeError,
    VocabError,
)
from adapterlab.objectives import MaskingPolicy, labelled_rows, mlm_loss
from adapterlab.synthlang import (
    CLS,
    FIRST_REGULAR,
    MASK,
    PAD,
    SEP,
    UNK,
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
                {"steps": 2.5}, {"batch_size": 4.0}, {"alternation_k": 1.5}, {"seed": -1},
                {"seed": 1.5}, {"ortho": "no"}):
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
    # other tensors (a second stack of the same kinds, never registered),
    # trains weights no forward reaches, or runs a model no checkpoint can hold
    vocab, corpus = setup_bed()
    enc, stack = fresh_model(vocab)
    enc.ensure_tag_head(N_CLASSES)
    dataset = gen_tag_task(corpus, SyntheticLanguageSpec("src"), vocab, 40, "train", 1,
                           N_CLASSES)
    lang_only, task_only = AdapterStack(2), AdapterStack(2)
    lang_only.fill(LANGUAGE, stack.lang)
    task_only.fill(TASK, stack.task)
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
                      (lambda: run_phase(enc, task_only, task, dataset=dataset), LANGUAGE),
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


def count_recorded_nodes(monkeypatch) -> list:
    """Patch ``autodiff._node`` to log each node it records; returns the log."""
    recorded = []
    real = autodiff._node

    def counting(values, parents, backward):
        out = real(values, parents, backward)
        if out.requires_grad:
            recorded.append(out)
        return out

    monkeypatch.setattr(autodiff, "_node", counting)
    return recorded


@pytest.mark.parametrize("phase", ["pretrain", "lang_ortho", "task"])
def test_a_finished_phase_leaves_every_weight_frozen(monkeypatch, phase):
    vocab, corpus = setup_bed()
    enc, stack = fresh_model(vocab, lang=phase != "pretrain", task=phase == "task",
                             dropout=0.1)
    ids, mask = make_mlm_batch(corpus, np.arange(4), MaskingPolicy(vocab=vocab.size),
                               np.random.default_rng(0))[:2]
    if phase == "pretrain":
        pretrain_backbone(enc, corpus, PhaseConfig(phase=PHASE_FULL, main_loss="mlm",
                                                   steps=2, batch_size=4))
        stack, head = None, enc.mlm_logits
    elif phase == "lang_ortho":
        train_language_adapter(enc, stack, corpus, PhaseConfig(
            phase=PHASE_LANG, main_loss="mlm", ortho=True, steps=2, batch_size=4))
        head = enc.mlm_logits
    else:
        enc.ensure_tag_head(N_CLASSES)
        dataset = gen_tag_task(corpus, SyntheticLanguageSpec("src"), vocab, 20, "train",
                               seed=3, n_tags=N_CLASSES)
        train_task_adapter(enc, stack, dataset, PhaseConfig(
            phase=PHASE_TASK, main_loss="tagging", ortho=True, steps=2, batch_size=4))
        head = enc.tag_logits
    assert [n for n, t in enc.params.items() if t.requires_grad] == []
    recorded = count_recorded_nodes(monkeypatch)
    for rng in (None, np.random.default_rng(1)):  # an evaluation encode, and one with dropout
        states, _ = enc.encode(ids, mask, stack=stack, rng=rng)
        assert not head(states).requires_grad
    assert recorded == []


@pytest.mark.parametrize("where", ["main_step", "ortho_encode"])
def test_a_phase_that_raises_leaves_every_weight_frozen(monkeypatch, where):
    vocab, corpus = setup_bed()
    enc, stack = fresh_model(vocab, task=False)
    if where == "main_step":
        stack.lang[1].w_up.values[0, 0] = np.nan
        match = "non-finite mlm loss"
    else:
        encode, calls = Encoder.encode, []

        def encode_failing_second(self, *args, **kwargs):
            calls.append(None)
            if len(calls) == 2:  # step 0's ortho re-encode, between two set_trainable calls
                raise NumericError("ortho re-encode failed")
            return encode(self, *args, **kwargs)

        monkeypatch.setattr(Encoder, "encode", encode_failing_second)
        match = "ortho re-encode failed"
    cfg = PhaseConfig(phase=PHASE_LANG, main_loss="mlm", ortho=where == "ortho_encode",
                      steps=2, batch_size=4)
    with pytest.raises(NumericError, match=match):
        train_language_adapter(enc, stack, corpus, cfg)
    assert [n for n, t in enc.params.items() if t.requires_grad] == []
    recorded = count_recorded_nodes(monkeypatch)
    ids, mask = make_mlm_batch(corpus, np.arange(3), MaskingPolicy(vocab=vocab.size),
                               np.random.default_rng(0))[:2]
    enc.mlm_logits(enc.encode(ids, mask, stack=stack)[0])
    assert recorded == []


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


def test_skipped_sequences_count_the_drawn_sentences_with_no_maskable_token(monkeypatch):
    vocab, corpus = setup_bed()
    corpus = corpus[:6] + [np.array([], dtype=np.int64), np.array([UNK, UNK])]  # reserved only
    drawn = []

    def recording_batch(corpus, picks, policy, rng):
        drawn.extend(picks.tolist())
        return make_mlm_batch(corpus, picks, policy, rng)

    monkeypatch.setattr(training, "make_mlm_batch", recording_batch)
    enc = Encoder(EncoderConfig(vocab=vocab.size, num_layers=1, hidden=16, num_heads=2,
                                ffn=24, max_len=32, dropout=0.0), seed=0)
    cfg = PhaseConfig(phase=PHASE_FULL, main_loss="mlm", steps=6, batch_size=4, seed=2)
    stats = pretrain_backbone(enc, corpus, cfg)
    skipped = sum(i >= 6 for i in drawn)
    assert len(drawn) == 24 and 0 < skipped < 24
    assert stats.skipped_sequences == skipped


def test_batch_builders():
    ids, mask, labels = make_seq_batch([
        (np.array([7, 8]), np.array([9]), 1),
        (np.array([7]), np.array([9, 10, 11]), 0),
    ])
    np.testing.assert_array_equal(ids[0], [2, 7, 8, 4, 9, 0])
    np.testing.assert_array_equal(mask[1], [1, 1, 1, 1, 1, 1])
    # each sequence is labelled at its [CLS] position only
    np.testing.assert_array_equal(labels, [[1, -1, -1, -1, -1, -1], [0, -1, -1, -1, -1, -1]])

    ids, mask, labels = make_tag_batch([
        (np.array([7, 8]), np.array([0, 3])),
        (np.array([9]), np.array([2])),
    ])
    np.testing.assert_array_equal(ids, [[2, 7, 8], [2, 9, 0]])
    np.testing.assert_array_equal(labels, [[-1, 0, 3], [-1, 2, -1]])
    # an empty sentence with an empty tag list, float-typed as ``np.asarray([])`` is, is legal
    _, _, labels = make_tag_batch([(np.array([], dtype=np.int64), []), (np.array([7]), [3])])
    np.testing.assert_array_equal(labels, [[-1, -1], [-1, 3]])


def per_sequence_padding(seqs):
    """The per-sequence definition of a batch's ids and mask: row i holds ``seqs[i]``
    from position 0, PAD after it."""
    t = max(len(s) for s in seqs)
    ids = np.full((len(seqs), t), PAD, dtype=np.int64)
    mask = np.zeros((len(seqs), t), dtype=np.int64)
    for i, s in enumerate(seqs):
        ids[i, : len(s)] = s
        mask[i, : len(s)] = 1
    return ids, mask


def per_row_masking(ids, mask, policy, rng):
    """The per-row definition of ``apply_masking``: each row's picks drawn over its own
    maskable positions, its corruptions written pick by pick."""
    corrupted, labels, skipped = ids.copy(), np.full_like(ids, IGNORE_LABEL), 0
    p_mask, p_rand, _ = objectives.MASK_SPLIT
    for b in range(ids.shape[0]):
        maskable = np.flatnonzero((mask[b] == 1) & (ids[b] >= FIRST_REGULAR))
        if maskable.size == 0:
            skipped += 1
            continue
        n_pick = max(1, round(objectives.MASK_FRACTION * maskable.size))
        picked = rng.choice(maskable, size=n_pick, replace=False)
        labels[b, picked] = ids[b, picked]
        for pos, roll in zip(picked, rng.random(n_pick)):
            if roll < p_mask:
                corrupted[b, pos] = MASK
            elif roll < p_mask + p_rand:
                corrupted[b, pos] = rng.integers(FIRST_REGULAR, policy.vocab)
    return corrupted, labels, skipped


def assert_same_bytes(got, want):
    for g, w in zip(got, want, strict=True):
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


# ragged sentences over reserved and regular ids, empty ones included
sentences = st.lists(st.lists(st.integers(0, 11), max_size=40), min_size=1, max_size=6).map(
    lambda seqs: [np.array(s, dtype=np.int64) for s in seqs])


@settings(max_examples=80)
@given(corpus=sentences, data=st.data())
def test_array_wide_builders_equal_their_per_sequence_definitions(corpus, data):
    picks = np.array(data.draw(st.lists(st.integers(0, len(corpus) - 1), min_size=1,
                                        max_size=8)))
    seed = data.draw(st.integers(0, 2**16))
    policy, rng, reference_rng = (MaskingPolicy(vocab=12), np.random.default_rng(seed),
                                  np.random.default_rng(seed))
    rows = [corpus[i] for i in picks]
    corrupted, mask, labels, skipped = make_mlm_batch(corpus, picks, policy, rng)
    ids, want_mask = per_sequence_padding([np.concatenate(([CLS], s)) for s in rows])
    want_corrupted, want_labels, want_skipped = per_row_masking(ids, want_mask, policy,
                                                                reference_rng)
    assert_same_bytes((corrupted, mask, labels), (want_corrupted, want_mask, want_labels))
    assert skipped == want_skipped
    assert rng.bit_generator.state == reference_rng.bit_generator.state

    tags = [np.random.default_rng(seed + i).integers(0, 4, size=len(s))
            for i, s in enumerate(rows)]
    ids, mask = per_sequence_padding([np.concatenate(([CLS], s)) for s in rows])
    labels = np.full_like(ids, IGNORE_LABEL)
    for i, t in enumerate(tags):
        labels[i, 1 : 1 + len(t)] = t
    assert_same_bytes(make_tag_batch(list(zip(rows, tags))), (ids, mask, labels))

    pairs = [(a, b, i % 3) for i, (a, b) in enumerate(zip(rows, rows[::-1]))]
    ids, mask = per_sequence_padding([np.concatenate(([CLS], a, [SEP], b)) for a, b, _ in pairs])
    labels = np.full_like(ids, IGNORE_LABEL)
    labels[:, 0] = [label for _, _, label in pairs]
    assert_same_bytes(make_seq_batch(pairs), (ids, mask, labels))


def test_make_tag_batch_refuses_a_tag_count_other_than_its_sentence_length():
    ok = (np.array([7, 8]), np.array([0, 3]))
    with pytest.raises(ShapeError, match="example 1 has 1 tags for its 3 tokens"):
        make_tag_batch([ok, (np.array([7, 8, 9]), np.array([1])),
                        (np.array([7]), np.array([1, 2, 3]))])
    with pytest.raises(ShapeError, match="example 0 has 3 tags for its 1 tokens"):
        make_tag_batch([(np.array([7]), np.array([1, 2, 3])), ok])


@pytest.mark.parametrize("builder", ["mlm", "seq", "tag"])
def test_builders_refuse_an_empty_batch(builder):
    vocab, corpus = setup_bed()
    build = {"mlm": lambda: make_mlm_batch(corpus, np.array([], dtype=np.int64),
                                           MaskingPolicy(vocab=vocab.size),
                                           np.random.default_rng(0)),
             "seq": lambda: make_seq_batch([]),
             "tag": lambda: make_tag_batch([])}[builder]
    with pytest.raises(ConfigError, match="a batch needs at least one example"):
        build()


def raises_exactly(error, match, build):
    """``build()`` raises ``error`` itself, not a subclass (a VocabError is a ContractError)."""
    with pytest.raises(error, match=match) as info:
        build()
    assert type(info.value) is error


# a cast would truncate a float and read a bool as 1, and an index would wrap -1 to the
# last sentence; a label or tag of -1 would equal IGNORE_LABEL and drop out of the loss
@pytest.mark.parametrize("picks, error, match", [
    (np.array([0, -1]), VocabError, r"picks must lie in \[0, 2\), got -1"),
    (np.array([2]), VocabError, r"picks must lie in \[0, 2\), got 2"),
    (np.array([0.9]), ContractError, "picks must be integers, of an integer dtype, got float64"),
    (np.array([True]), ContractError, "picks must be integers, of an integer dtype, got bool"),
])
def test_make_mlm_batch_refuses_a_pick_it_would_change(picks, error, match):
    corpus = [np.array([7, 8]), np.array([9])]
    raises_exactly(error, match, lambda: make_mlm_batch(corpus, picks, MaskingPolicy(vocab=12),
                                                        np.random.default_rng(0)))


@pytest.mark.parametrize("label, error, match", [
    (1.5, ContractError, "example 1's label must be integers, of an integer dtype, got float64"),
    (True, ContractError, "example 1's label must be integers, of an integer dtype, got bool"),
    (-1, VocabError, r"labels must lie in \[0, inf\), got -1"),
])
def test_make_seq_batch_refuses_a_label_it_would_change(label, error, match):
    a, b = np.array([7, 8]), np.array([9])
    raises_exactly(error, match, lambda: make_seq_batch([(a, b, 0), (a, b, label)]))


@pytest.mark.parametrize("tags, error, match", [
    ([0.7, 2.9], ContractError, "example 1's tags must be integers, of an integer dtype"),
    (np.array([True, False]), ContractError, "example 1's tags must be integers"),
    ([1, -1], VocabError, r"tags must lie in \[0, inf\), got -1"),
])
def test_make_tag_batch_refuses_a_tag_it_would_change(tags, error, match):
    raises_exactly(error, match,
                   lambda: make_tag_batch([(np.array([7]), [0]), (np.array([7, 8]), tags)]))


def ortho_totals(stats):
    """The total of each ortho step, from field 3 of its ``ort`` log line."""
    fields = [line.split("\t") for line in stats.log_lines]
    return [float(f[3]) for f in fields if f[2] == "ort"]


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
    totals = ortho_totals(stats)
    assert len(totals) == 60
    # near-identity at the first report (the main step already ran once)
    assert totals[0] == pytest.approx(2.0, abs=1e-3)
    assert totals[-1] < totals[0]


def test_ortho_disabled_is_single_optimizer_run():
    vocab, corpus = setup_bed()
    enc, stack = fresh_model(vocab, task=False)
    cfg = PhaseConfig(phase=PHASE_LANG, main_loss="mlm", ortho=False,
                      steps=10, batch_size=4, seed=1)
    stats = train_language_adapter(enc, stack, corpus, cfg)
    assert ortho_totals(stats) == []
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


@pytest.mark.parametrize("phase, loss", [(PHASE_LANG, "mlm"), (PHASE_TASK, "tagging"),
                                         (PHASE_TASK, "seq_cls")])
def test_phase_on_read_rows_logs_and_trains_the_full_forward_bytes(monkeypatch, phase, loss):
    # each forward reads only its loss's rows; a phase whose forwards run full-size
    # (``read`` dropped) must log the same bytes and end on the same weights
    vocab, corpus = setup_bed()
    spec = SyntheticLanguageSpec("src")
    data = {"mlm": dict(corpus=corpus),
            "tagging": dict(dataset=gen_tag_task(corpus, spec, vocab, 40, "train", 1, 4)),
            "seq_cls": dict(dataset=gen_seq_task(corpus, spec, vocab, 30, "train", 1))}[loss]
    cfg = PhaseConfig(phase=phase, main_loss=loss, ortho=True, steps=4, batch_size=8, seed=3)
    encode, reads, runs = Encoder.encode, [], []

    def full_size(self, ids, mask, **kwargs):
        reads.append((kwargs.pop("read"), np.asarray(mask)))
        return encode(self, ids, mask, **kwargs)

    for tail in (True, False):
        enc, stack = fresh_model(vocab, lang=True, task=phase == PHASE_TASK, dropout=0.1)
        enc.ensure_tag_head(4)
        enc.ensure_cls_head(3)
        if not tail:
            monkeypatch.setattr(Encoder, "encode", full_size)
        stats = run_phase(enc, stack, cfg, **data)
        runs.append((stats.log_lines, enc.params.checksum()))
    assert runs[0] == runs[1]
    assert len(reads) == 8  # a main and an ortho forward per step
    for read, mask in reads[1::2]:  # the ortho step's forward reads the real tokens
        assert read.tolist() == np.flatnonzero(mask.reshape(-1) == 1).tolist()
    for read, mask in reads[::2]:  # the main step's forward reads the rows its loss reads
        body = mask.copy()
        body[:, 0] = 0
        body = np.flatnonzero(body.reshape(-1)).tolist()
        if loss == "tagging":  # every real token but [CLS]
            assert read.tolist() == body
        elif loss == "seq_cls":  # each sequence's [CLS]
            assert read.tolist() == (np.arange(mask.shape[0]) * mask.shape[1]).tolist()
        else:  # the masked picks: real tokens but [CLS], at most half the batch's rows
            assert 0 < read.size <= mask.size / 2 and set(read.tolist()) <= set(body)


@cache
def rows_bed():
    """A vocab and the data each main loss trains on, built once for every example."""
    vocab, corpus = setup_bed()
    spec = SyntheticLanguageSpec("src")
    return vocab, {"mlm": dict(corpus=corpus),
                   "tagging": dict(dataset=gen_tag_task(corpus, spec, vocab, 40, "train", 1, 4)),
                   "seq_cls": dict(dataset=gen_seq_task(corpus, spec, vocab, 30, "train", 1))}


@st.composite
def row_batches(draw, loss, vocab_size):
    """A [B, T] batch with random padding and random labelled real tokens; sequence
    classification labels each sequence's [CLS] position, as ``make_seq_batch`` does."""
    b, t = draw(st.integers(1, 4)), draw(st.integers(2, 8))
    lengths = draw(st.lists(st.integers(1, t), min_size=b, max_size=b))
    mask = (np.arange(t) < np.array(lengths)[:, None]).astype(np.int64)
    r = np.random.default_rng(draw(st.integers(0, 2**16)))
    ids = np.where(mask == 1, r.integers(FIRST_REGULAR, vocab_size, size=(b, t)), 0)
    if loss == "seq_cls":
        picked = np.arange(t) == 0
    else:
        flags = draw(st.lists(st.booleans(), min_size=b * t, max_size=b * t))
        picked = np.array(flags).reshape(b, t) & (mask == 1)
    assume(picked.any())
    classes = {"mlm": vocab_size, "tagging": 4, "seq_cls": 3}[loss]
    labels = np.where(picked, r.integers(0, classes, size=(b, t)), IGNORE_LABEL)
    return ids, mask, labels


@pytest.mark.parametrize("phase, loss", [(PHASE_LANG, "mlm"), (PHASE_TASK, "tagging"),
                                         (PHASE_TASK, "seq_cls")])
@settings(max_examples=40)
@given(data=st.data())
def test_each_step_hands_encode_the_rows_its_loss_gathers(phase, loss, data):
    # the main step's ``read`` is the very array its loss gathers, the labelled rows;
    # the ortho step's forward reads the real tokens, the rows ortho_loss reads
    vocab, inputs = rows_bed()
    ids, mask, labels = data.draw(row_batches(loss, vocab.size))
    reads, gathers, ortho_gathers = [], [], []
    encode, take, real = Encoder.encode, training.take_rows, objectives.real_rows

    def recording_encode(self, ids, mask, **kwargs):
        reads.append(kwargs["read"])
        return encode(self, ids, mask, **kwargs)

    def recording_take(states, rows):
        gathers.append(rows)
        return take(states, rows)

    def recording_real(mask):
        ortho_gathers.append(real(mask))
        return ortho_gathers[-1]

    builder = {"mlm": "make_mlm_batch", "tagging": "make_tag_batch",
               "seq_cls": "make_seq_batch"}[loss]
    batch = (ids, mask, labels, 0) if loss == "mlm" else (ids, mask, labels)
    enc, stack = fresh_model(vocab, task=phase == PHASE_TASK)
    enc.ensure_tag_head(4)
    enc.ensure_cls_head(3)
    cfg = PhaseConfig(phase=phase, main_loss=loss, ortho=True, steps=1,
                      batch_size=len(ids), seed=3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Encoder, "encode", recording_encode)
        mp.setattr(training, "take_rows", recording_take)
        mp.setattr(objectives, "real_rows", recording_real)
        mp.setattr(training, builder, lambda *args: batch)
        run_phase(enc, stack, cfg, **inputs[loss])
    (main_read, ortho_read), [gathered], [ortho_gathered] = reads, gathers, ortho_gathers
    assert gathered.tolist() == np.flatnonzero(labels != IGNORE_LABEL).tolist()
    assert main_read is gathered
    assert ortho_read.tolist() == ortho_gathered.tolist() == np.flatnonzero(mask == 1).tolist()


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
    assert len(ortho_totals(stats)) == 4


def test_alternation_granularity():
    vocab, corpus = setup_bed()
    enc, stack = fresh_model(vocab, task=False)
    cfg = PhaseConfig(phase=PHASE_LANG, main_loss="mlm", ortho=True,
                      alternation_k=3, steps=9, batch_size=4, seed=2)
    stats = train_language_adapter(enc, stack, corpus, cfg)
    assert len(ortho_totals(stats)) == 3
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
        rows = labelled_rows(labels)
        mlm_loss(enc.mlm_logits(take_rows(states, rows)), labels.reshape(-1)[rows]).backward()
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
        rows = labelled_rows(labels)
        targets = labels.reshape(-1)[rows]
        loss = mlm_loss(enc.mlm_logits(take_rows(states, rows)), targets).item()
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


def test_model_selection_refuses_a_metric_no_order_ranks():
    # min over a NaN key depends on where the NaN stands in the list
    for candidates in ([("a", math.nan), ("b", 0.5)], [("b", 0.5), ("a", math.nan)],
                       [("a", math.inf), ("b", 0.5)]):
        with pytest.raises(NumericError, match="non-finite"):
            model_selection(candidates)


def test_run_manifest_roundtrip(tmp_path):
    path = tmp_path / "run.manifest"
    entries = {"config_hash": config_hash("x"), "seed": "3", "phases": "lang,task",
               "note": "a=b # c", "empty": "", "k#": "in side"}
    write_run_manifest(path, entries)
    assert read_run_manifest(path) == entries


@pytest.mark.parametrize("entries", [
    {"note": "a\nseed=9", "#k": "1", " pad ": "x"},
    {"note": "a\nseed=9"}, {"#k": "1"}, {" pad ": "x"}, {"pad ": "x"}, {"": "x"},
    {"a=b": "x"}, {"a\nb": "x"}, {"k": " x"}, {"k": "x\t"}, {"k": "a\rseed=9"},
    {"seed": "3", "k": "x\n"},
])
def test_run_manifest_roundtrip_of_any_strings(tmp_path, entries):
    # line breaks, "=", "#", empty keys and edge whitespace read back unchanged
    path = tmp_path / "run.manifest"
    write_run_manifest(path, entries)
    assert read_run_manifest(path) == entries


def test_run_manifest_keys_that_collide_as_strings_are_refused(tmp_path):
    path = tmp_path / "run.manifest"
    with pytest.raises(ConfigError, match="collide"):
        write_run_manifest(path, {1: "a", "1": "b"})
    assert not path.exists()


@pytest.mark.parametrize("content", [
    None, "directory", b"\xff\xfe{}", b"", b"seed=3\n", b'{"seed": "3"}\nseed=9\n',
    b'["seed"]', b'{"seed": 3}',
], ids=["missing", "directory", "not_utf8", "empty", "key_value_line", "trailing_line",
        "list", "number_value"])
def test_unreadable_run_manifest_is_refused(tmp_path, content):
    path = tmp_path / "run.manifest"
    if isinstance(content, bytes):
        path.write_bytes(content)
    elif content == "directory":
        path.mkdir()
    with pytest.raises(MissingArtifactError, match="run manifest"):
        read_run_manifest(path)


def test_metrics_log_format():
    vocab, corpus = setup_bed()
    enc, stack = fresh_model(vocab, task=False)
    cfg = PhaseConfig(phase=PHASE_LANG, main_loss="mlm", ortho=True,
                      steps=3, batch_size=4, seed=1)
    lines = train_language_adapter(enc, stack, corpus, cfg).log_lines
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
