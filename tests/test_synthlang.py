import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adapterlab.errors import ConfigError, ContractError, MissingArtifactError
from adapterlab.synthlang import (
    CLS,
    EQUAL,
    FIRST_LONGER,
    FIRST_REGULAR,
    MASK,
    PAD,
    RESERVED_TOKENS,
    SECOND_LONGER,
    SEP,
    SEQ_CLS,
    TAGGING,
    UNK,
    SyntheticLanguageSpec,
    TaskDataset,
    Vocab,
    apply_language,
    build_vocab,
    corpus_to_ids,
    gen_seq_task,
    gen_tag_task,
    generate_corpus,
    invert_language,
    language_corpus,
    language_overlap,
    load_task_dataset,
    make_word_list,
    save_task_dataset,
    stable_bucket,
    tag_labels_for_base,
)


WORD_ORDERS = ("identity", "reverse", "rotate:2", "rotate:-1")


def toy_setup(n_sentences=400, seed=0):
    lines = generate_corpus(n_sentences, n_words=60, n_classes=4, seed=seed)
    vocab = build_vocab(lines)
    return lines, vocab, corpus_to_ids(lines, vocab)


# --- vocab ------------------------------------------------------------------------


def test_vocab_frequency_order():
    vocab = build_vocab(["a a b"])
    assert vocab.token_to_id["a"] < vocab.token_to_id["b"]


def test_vocab_tie_breaks_lexicographically():
    vocab = build_vocab(["b a"])
    assert vocab.token_to_id["a"] < vocab.token_to_id["b"]


def test_vocab_reserved_layout_and_size_cap():
    vocab = build_vocab(["a b c", "a b"])  # one id per distinct token, after the reserved
    assert vocab.size == FIRST_REGULAR + 3
    assert vocab.id_to_token[:FIRST_REGULAR] == ["[PAD]", "[UNK]", "[CLS]", "[MASK]", "[SEP]"]
    assert vocab.encode(["a", "zzz"]) == [FIRST_REGULAR, 1]  # unknown -> UNK


def test_vocab_map_is_derived_from_the_token_list():
    vocab = Vocab(list(RESERVED_TOKENS) + ["a"])
    assert vocab.encode(["a"]) == [FIRST_REGULAR]
    with pytest.raises(TypeError):  # a map passed in could disagree with the list
        Vocab(list(RESERVED_TOKENS) + ["a"], token_to_id={"a": 0})
    for tokens, match in ((["a"] + list(RESERVED_TOKENS), "reserved"),
                          (list(RESERVED_TOKENS) + ["a", "b", "a"], "unique")):
        with pytest.raises(ConfigError, match=match):
            Vocab(tokens)


def test_vocab_empty_corpus_rejected():
    with pytest.raises(ConfigError):
        build_vocab([])


def test_vocab_hash_stable_across_runs():
    lines = generate_corpus(1000, n_words=80, n_classes=5, seed=3)
    h1 = build_vocab(lines).content_hash()
    h2 = build_vocab(generate_corpus(1000, n_words=80, n_classes=5, seed=3)).content_hash()
    assert h1 == h2


# --- language transforms -------------------------------------------------------------


def test_identity_spec_is_noop():
    _, vocab, ids = toy_setup()
    spec = SyntheticLanguageSpec("src", divergence=0.0)
    np.testing.assert_array_equal(apply_language(spec, ids[0], vocab.size), ids[0])


def test_cipher_is_a_bijection_with_inverse():
    _, vocab, ids = toy_setup()
    for order in WORD_ORDERS:
        spec = SyntheticLanguageSpec("tgt", cipher_seed=5, divergence=0.7,
                                     word_order=order)
        for sent in ids[:20]:
            # reserved ids inside the sequence split it into runs
            framed = np.concatenate([[CLS], sent, [SEP], sent[:3], [PAD]])
            for seq in (sent, framed):
                out = apply_language(spec, seq, vocab.size)
                np.testing.assert_array_equal(invert_language(spec, out, vocab.size), seq)


def test_reverse_transform_hand_trace():
    spec = SyntheticLanguageSpec("tgt", cipher_seed=1, divergence=1.0,
                                 word_order="reverse")
    vocab_size = 12
    cipher = spec.cipher(vocab_size)
    seq = np.array([CLS, 6, 7, 8, PAD])
    out = apply_language(spec, seq, vocab_size)
    np.testing.assert_array_equal(out, [CLS, cipher[8], cipher[7], cipher[6], PAD])

    # rotate:1 rolls each run between reserved ids on its own
    spec = SyntheticLanguageSpec("tgt", cipher_seed=1, divergence=1.0,
                                 word_order="rotate:1")
    cipher = spec.cipher(vocab_size)
    seq = np.array([CLS, 6, 7, 8, SEP, 9, 10, PAD])
    out = apply_language(spec, seq, vocab_size)
    np.testing.assert_array_equal(
        out, [CLS, cipher[8], cipher[6], cipher[7], SEP, cipher[10], cipher[9], PAD])


def test_reserved_ids_always_fixed():
    spec = SyntheticLanguageSpec("tgt", cipher_seed=9, divergence=1.0)
    cipher = spec.cipher(40)
    np.testing.assert_array_equal(cipher[:FIRST_REGULAR], np.arange(FIRST_REGULAR))
    assert sorted(cipher) == list(range(40))


def test_divergence_controls_remapped_fraction():
    spec = SyntheticLanguageSpec("tgt", cipher_seed=2, divergence=0.5)
    cipher = spec.cipher(105)
    moved = (cipher[FIRST_REGULAR:] != np.arange(FIRST_REGULAR, 105)).mean()
    assert abs(moved - 0.5) < 0.02


def test_disjoint_seeds_give_low_overlap():
    a = SyntheticLanguageSpec("a", cipher_seed=11, divergence=1.0)
    b = SyntheticLanguageSpec("b", cipher_seed=22, divergence=1.0)
    assert language_overlap(a, b, 125) < 0.05


def test_spec_validation():
    for bad in ({"word_order": "sideways"}, {"word_order": "rotate:abc"},
                {"word_order": "rotate:"}, {"divergence": 1.5}):
        with pytest.raises(ConfigError):
            SyntheticLanguageSpec("xx", **bad)


def test_cipher_built_once_per_corpus_and_dataset(monkeypatch):
    _, vocab, ids = toy_setup()
    spec = SyntheticLanguageSpec("tgt", cipher_seed=4, divergence=0.5,
                                 word_order="rotate:2")
    expected = [apply_language(spec, sent, vocab.size) for sent in ids]
    calls = []
    cipher = SyntheticLanguageSpec.cipher

    def counted(self, vocab_size):
        calls.append(vocab_size)
        return cipher(self, vocab_size)

    monkeypatch.setattr(SyntheticLanguageSpec, "cipher", counted)
    corpus = language_corpus(spec, ids, vocab)
    assert len(calls) == 1
    for got, want in zip(corpus, expected):
        np.testing.assert_array_equal(got, want)
    gen_seq_task(ids, spec, vocab, 60, "train", seed=1)
    assert len(calls) == 2
    gen_tag_task(ids, spec, vocab, 60, "train", seed=1)
    assert len(calls) == 3


def edge_case_corpus(ids):
    """Toy sentences plus the shapes a joined batch could get wrong."""
    a, b = ids[0], ids[1]
    return [
        np.array([], dtype=np.int64),
        np.concatenate([a[:2], [UNK], a[2:]]),
        np.concatenate([b[:3], [MASK], b[3:], [MASK]]),
        a[:1],
        np.array([UNK]),
        np.array([], dtype=np.int64),
        np.array([CLS, b[0], SEP]),
    ] + list(ids[2:40])


def one_at_a_time(spec, ids, vocab_size, labels=None):
    """The documented map, one sentence on its own: ``cipher[ids[pos]]``."""
    ids = np.asarray(ids, dtype=np.int64)
    pos = spec.order_map(ids)
    out = spec.cipher(vocab_size)[ids[pos]]
    return out if labels is None else (out, np.asarray(labels)[pos])


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("order", WORD_ORDERS)
def test_batched_relexify_matches_one_sentence_at_a_time(order):
    _, vocab, ids = toy_setup()
    corpus = edge_case_corpus(ids)
    spec = SyntheticLanguageSpec("tgt", cipher_seed=5, divergence=0.7, word_order=order)
    got = language_corpus(spec, corpus, vocab)
    assert len(got) == len(corpus)
    for sent, out in zip(corpus, got):
        assert_same_bytes(out, one_at_a_time(spec, sent, vocab.size))
        assert_same_bytes(apply_language(spec, sent, vocab.size), out)
    data = gen_tag_task(corpus, spec, vocab, len(corpus), "train", seed=4, n_tags=5)
    picks = np.random.default_rng(4).choice(len(corpus), size=len(corpus), replace=False)
    for i, (out, tags) in zip(picks, data.examples):
        base = corpus[int(i)]
        want_ids, want_tags = one_at_a_time(spec, base, vocab.size,
                                            tag_labels_for_base(base, vocab, 5))
        assert_same_bytes(out, want_ids)
        assert_same_bytes(tags, want_tags)


def test_out_of_vocab_id_raises_contract_error():
    _, vocab, ids = toy_setup()
    spec = SyntheticLanguageSpec("tgt", cipher_seed=5, divergence=0.5, word_order="reverse")
    for bad in (vocab.size, -1):
        corpus = [np.append(sent, bad) for sent in ids[:60]]
        with pytest.raises(ContractError, match="outside the vocabulary"):
            language_corpus(spec, corpus, vocab)
        with pytest.raises(ContractError, match="outside the vocabulary"):
            gen_tag_task(corpus, spec, vocab, 20, "train", seed=1)
        with pytest.raises(ContractError, match="outside the vocabulary"):
            gen_seq_task(corpus, spec, vocab, 12, "train", seed=1)
        with pytest.raises(ContractError, match="outside the vocabulary"):
            apply_language(spec, corpus[0], vocab.size)
        with pytest.raises(ContractError, match="outside the vocabulary"):
            invert_language(spec, corpus[0], vocab.size)
        with pytest.raises(ContractError, match="outside the vocabulary"):
            tag_labels_for_base(corpus[0], vocab, 4)


# --- corpora --------------------------------------------------------------------------


def test_generate_corpus_deterministic():
    assert generate_corpus(50, seed=4) == generate_corpus(50, seed=4)
    assert generate_corpus(50, seed=4) != generate_corpus(50, seed=5)


@pytest.mark.parametrize("bad, field", [
    (dict(n_sentences=2.5), "n_sentences"),
    (dict(n_classes=0), "n_classes"),
    (dict(n_classes=1), "n_classes"),
    (dict(n_words=2.5), "n_words"),
    (dict(n_classes=6.0), "n_classes"),
    (dict(n_sentences=-1), "n_sentences"),
    (dict(n_words=3), "n_words"),  # too few words to fill every class
])
def test_generate_corpus_rejects_bad_arguments(monkeypatch, bad, field):
    def no_draws(seed):
        raise AssertionError("drew before checking the arguments")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(ConfigError, match=field):
        generate_corpus(**{"n_sentences": 10, **bad})


def test_word_list_unique():
    words = make_word_list(200)
    assert len(set(words)) == 200


# --- seq task -------------------------------------------------------------------------


def test_seq_task_rule_definition():
    # a 3-token vs 5-token pair is second-longer regardless of language
    _, vocab, _ = toy_setup()
    short = np.array([7, 8, 9])
    long = np.array([7, 8, 9, 10, 11])
    assert len(short) < len(long)
    spec = SyntheticLanguageSpec("tgt", cipher_seed=3, divergence=1.0,
                                 word_order="reverse")
    assert len(apply_language(spec, short, vocab.size)) == 3
    assert len(apply_language(spec, long, vocab.size)) == 5


def test_seq_task_balanced_and_invariant():
    _, vocab, ids = toy_setup(n_sentences=600)
    spec = SyntheticLanguageSpec("tgt", cipher_seed=6, divergence=0.5)
    ds = gen_seq_task(ids, spec, vocab, n_examples=2000, split="train", seed=1)
    counts = ds.label_counts()
    assert ds.kind == SEQ_CLS and ds.num_classes == 3
    for label in (FIRST_LONGER, SECOND_LONGER, EQUAL):
        assert abs(counts[label] - 2000 / 3) <= 0.05 * 2000
    # labels depend only on lengths, which every transform preserves
    for a, b, label in ds.examples[:50]:
        if label == FIRST_LONGER:
            assert len(a) > len(b)
        elif label == SECOND_LONGER:
            assert len(a) < len(b)
        else:
            assert len(a) == len(b)


def test_seq_task_degenerate_corpus_rejected():
    lines = ["a b c"] * 50  # every sentence the same length
    vocab = build_vocab(lines)
    ids = corpus_to_ids(lines, vocab)
    with pytest.raises(ConfigError, match="degenerate"):
        gen_seq_task(ids, SyntheticLanguageSpec("src"), vocab, 30, "train", 0)


# --- tag task -------------------------------------------------------------------------


def test_tag_task_fixed_bucket_per_type():
    _, vocab, ids = toy_setup()
    spec = SyntheticLanguageSpec("src")
    ds = gen_tag_task(ids, spec, vocab, n_examples=50, split="train", seed=2, n_tags=4)
    assert ds.kind == TAGGING
    seen = {}
    for sent, tags in ds.examples:
        for t, tag in zip(sent, tags):
            token = vocab.id_to_token[int(t)]
            assert seen.setdefault(token, int(tag)) == int(tag)
            assert int(tag) == stable_bucket(token, 4)


def test_tag_task_every_bucket_populated():
    _, vocab, ids = toy_setup(n_sentences=2000)
    ds = gen_tag_task(ids, SyntheticLanguageSpec("src"), vocab, n_examples=2000,
                      split="train", seed=3, n_tags=6)
    counts = ds.label_counts()
    total = sum(counts.values())
    assert total > 10000
    assert all(counts[k] > 0 for k in range(6))


def test_tag_count_below_one_is_refused():
    _, vocab, ids = toy_setup(50)
    for n_tags in (0, -2):
        with pytest.raises(ConfigError, match="n_tags"):
            tag_labels_for_base(ids[0], vocab, n_tags)
        with pytest.raises(ConfigError, match="n_tags"):
            gen_tag_task(ids, SyntheticLanguageSpec("src"), vocab, 10, "dev", seed=1,
                         n_tags=n_tags)


def test_labels_commute_with_language_transforms():
    _, vocab, ids = toy_setup(n_sentences=1000)
    n_tags = 5
    for order in WORD_ORDERS:
        spec = SyntheticLanguageSpec("tgt", cipher_seed=8, divergence=0.6,
                                     word_order=order)
        inverse_cipher = np.argsort(spec.cipher(vocab.size))
        for base in ids[:1000]:
            base_tags = tag_labels_for_base(base, vocab, n_tags)
            out = apply_language(spec, base, vocab.size)
            moved_tags = base_tags[spec.order_map(base)]
            # undoing the transform must recover the base labeling exactly
            recovered = invert_language(spec, out, vocab.size)
            np.testing.assert_array_equal(recovered, base)
            recovered_tags = tag_labels_for_base(recovered, vocab, n_tags)
            np.testing.assert_array_equal(np.sort(moved_tags), np.sort(recovered_tags))
            # and the moved tags still ride their own tokens
            for token_id, tag in zip(out, moved_tags):
                pre = vocab.id_to_token[int(inverse_cipher[int(token_id)])]
                assert int(tag) == stable_bucket(pre, n_tags)


def test_splits_disjoint_and_hash_stable():
    lines = generate_corpus(900, n_words=60, n_classes=4, seed=9)
    vocab = build_vocab(lines)
    pools = {
        "train": corpus_to_ids(lines[:600], vocab),
        "dev": corpus_to_ids(lines[600:750], vocab),
        "test": corpus_to_ids(lines[750:], vocab),
    }
    spec = SyntheticLanguageSpec("src")
    sets = {
        name: gen_tag_task(pool, spec, vocab, 100, name, seed=4)
        for name, pool in pools.items()
    }
    hashes = {name: ds.content_hash() for name, ds in sets.items()}
    again = gen_tag_task(pools["test"], spec, vocab, 100, "test", seed=4)
    assert again.content_hash() == hashes["test"]
    train_sents = {tuple(map(int, ex[0])) for ex in sets["train"].examples}
    test_sents = {tuple(map(int, ex[0])) for ex in sets["test"].examples}
    assert not train_sents & test_sents


# --- on-disk formats -------------------------------------------------------------------


def test_seq_dataset_file_roundtrip(tmp_path):
    _, vocab, ids = toy_setup()
    ds = gen_seq_task(ids, SyntheticLanguageSpec("src"), vocab, 60, "dev", seed=5)
    path = tmp_path / "seq.tsv"
    save_task_dataset(ds, vocab, path)
    loaded = load_task_dataset(path, vocab, SEQ_CLS, "src", "dev", 3)
    assert loaded.content_hash() == ds.content_hash()
    path.write_text(path.read_text().replace("\n", "\n\n", 1))  # a blank line is skipped
    assert load_task_dataset(path, vocab, SEQ_CLS, "src", "dev", 3).content_hash() == \
        ds.content_hash()

    first = path.read_text().splitlines()[0]
    path.write_text(f"{first}\n{first.rsplit(chr(9), 1)[0]}\n")  # line 2 lacks a sentence
    with pytest.raises(MissingArtifactError, match="line 2"):
        load_task_dataset(path, vocab, SEQ_CLS, "src", "dev", 3)


def test_tag_dataset_file_roundtrip(tmp_path):
    _, vocab, ids = toy_setup()
    ds = gen_tag_task(ids, SyntheticLanguageSpec("src"), vocab, 40, "dev", seed=6)
    path = tmp_path / "tag.conll"
    save_task_dataset(ds, vocab, path)
    loaded = load_task_dataset(path, vocab, TAGGING, "src", "dev", 6)
    assert loaded.content_hash() == ds.content_hash()
    path.write_text(path.read_text().rstrip("\n"))  # the last sentence ends the file
    assert load_task_dataset(path, vocab, TAGGING, "src", "dev", 6).content_hash() == \
        ds.content_hash()

    path.write_text(path.read_text().replace("\t", " ", 1))  # line 1 has no tab
    with pytest.raises(MissingArtifactError, match="line 1"):
        load_task_dataset(path, vocab, TAGGING, "src", "dev", 6)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from([SEQ_CLS, TAGGING]), st.integers(1, 4), st.data())
def test_any_saved_dataset_loads_the_same_ids_and_labels(kind, num_classes, data):
    vocab = build_vocab(["ka fita lo", "lo me"])
    ids = st.lists(st.integers(0, vocab.size - 1), min_size=1, max_size=5)
    label = st.integers(0, num_classes - 1)
    if kind == SEQ_CLS:
        example = st.tuples(ids, ids, label)
    else:
        example = ids.flatmap(lambda s: st.tuples(st.just(s), st.lists(label, min_size=len(s),
                                                                      max_size=len(s))))
    examples = data.draw(st.lists(example, max_size=4))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dataset.txt"
        save_task_dataset(TaskDataset(kind, "xx", "dev", examples, num_classes), vocab, path)
        loaded = load_task_dataset(path, vocab, kind, "xx", "dev", num_classes)
    assert [[np.asarray(part).tolist() for part in ex] for ex in loaded.examples] == \
        [[np.asarray(part).tolist() for part in ex] for ex in examples]


def test_ids_outside_the_vocabulary_are_refused_before_writing(tmp_path):
    _, vocab, _ = toy_setup(50)
    assert vocab.decode([5, 6]) == [vocab.id_to_token[5], vocab.id_to_token[6]]
    for bad in ([5, -1], [vocab.size]):
        with pytest.raises(ContractError, match="outside the vocabulary"):
            vocab.decode(bad)
    for ds in (TaskDataset(TAGGING, "src", "dev", [([5, 6], [0, 1]), ([5, -1], [0, 1])], 6),
               TaskDataset(SEQ_CLS, "src", "dev", [([5, 6], [vocab.size], 0)], 3)):
        path = tmp_path / f"{ds.kind}.txt"
        with pytest.raises(ContractError, match="outside the vocabulary"):
            save_task_dataset(ds, vocab, path)
        assert not path.exists()


def test_labels_outside_the_classes_are_refused_on_load(tmp_path):
    _, vocab, _ = toy_setup(50)
    for ds, line in ((TaskDataset(TAGGING, "src", "dev", [([5, 6], [0, 9])], 6), 2),
                     (TaskDataset(TAGGING, "src", "dev", [([5], [0]), ([6], [-1])], 6), 3),
                     (TaskDataset(SEQ_CLS, "src", "dev", [([5], [6], 0), ([5, 6], [7], 3)], 3), 2)):
        path = tmp_path / f"{ds.kind}.txt"
        save_task_dataset(ds, vocab, path)
        with pytest.raises(MissingArtifactError, match=f"{path.name}: line {line} .*in \\[0, "
                                                       f"{ds.num_classes}\\)"):
            load_task_dataset(path, vocab, ds.kind, "src", "dev", ds.num_classes)


def test_unknown_dataset_kind_is_refused_before_opening(tmp_path):
    _, vocab, _ = toy_setup(50)
    with pytest.raises(ConfigError, match="nli"):
        load_task_dataset(tmp_path / "absent.txt", vocab, "nli", "src", "dev", 3)
