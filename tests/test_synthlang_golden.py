"""Golden bytes of the synthetic-language bed.

The corpus generator, the re-lexification and the task generators may be
rewritten for speed, but never so that what they build moves: every loss
and accuracy the benchmark reports is computed on these bytes. The digests
below were recorded with the per-token ``Generator.choice`` implementation.
"""

import hashlib
import sys
from pathlib import Path

import pytest

from adapterlab.synthlang import (
    SyntheticLanguageSpec,
    build_vocab,
    corpus_to_ids,
    gen_seq_task,
    generate_corpus,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("n_sentences, seed, digest", [
    (2000, 0, "899cc69423a9bc62ca9a7df9cd21c98f97ce7efb6e65a3454080f958f7a18ccf"),
    (500, 3, "7aca5323735aed7615079be608d36fca76b98ecd9d3ca9969de5be3606e86843"),
])
def test_generate_corpus_golden(n_sentences, seed, digest):
    lines = generate_corpus(n_sentences, n_words=120, n_classes=6, seed=seed)
    assert sha256("\n".join(lines).encode()) == digest


def test_perfbench_bed_golden(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("clock", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    import workloads

    bed = workloads.build_bed()
    assert bed.vocab_size == 125
    corpora = hashlib.sha256()
    for corpus in bed.corpora:
        for ids in corpus:
            corpora.update(ids.tobytes())
            corpora.update(b"|")
        corpora.update(b"#")
    assert corpora.hexdigest() == (
        "ff01a2e0ccf9cb90c4e5b7eb4ba28d6b109b73d0cab778ba4f81b9c6c2677442")
    assert bed.tag_train.content_hash() == (
        "2215fb65b03d5fa0e5561541eea4e6e5c152ea652b582d6a0bbc9f4f314653a8")
    assert [t.content_hash() for t in bed.tag_tests] == [
        "ee7cb1825902998999d06f580f8397480537c47e8ad9358397a73c3cea9e7dc1",
        "2e060f5cf07c4ab17a6a54b3cb6b39a43395153cd612ab10efe142afccfcc12f",
    ]


def test_gen_seq_task_golden():
    lines = generate_corpus(600, n_words=60, n_classes=4, seed=1)
    vocab = build_vocab(lines)
    spec = SyntheticLanguageSpec("tgt", cipher_seed=6, divergence=0.5, word_order="reverse")
    data = gen_seq_task(corpus_to_ids(lines, vocab), spec, vocab, 300, "train", seed=1)
    assert data.content_hash() == (
        "2dfd1f8df2c0ade9b5230bd3e18337ee2327a11286cb3e8055d0b8309e790699")
