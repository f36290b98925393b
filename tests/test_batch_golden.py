"""Golden bytes of the batch builders and of the masking draws.

The builders and ``apply_masking`` may be rewritten for speed, but never so
that what they build moves: every masked-LM loss the benchmark reports is
computed on these bytes, and the generator's state after a batch fixes
every later one. The digests below were recorded with the per-row builders
(``pad_sequences`` and a per-row pick over each row's maskable positions).
"""

import hashlib

import numpy as np

from adapterlab.objectives import MaskingPolicy
from adapterlab.synthlang import FIRST_REGULAR, UNK
from adapterlab.training import make_mlm_batch, make_seq_batch, make_tag_batch

VOCAB = 30


def fixed_corpus() -> list[np.ndarray]:
    """Sentences of 4 to 12 words (one pick per row at 4, two at 10 to 12), some with an
    unmaskable UNK inside, then an empty sentence and a reserved-only one."""
    rng = np.random.default_rng(11)
    corpus = []
    for n in range(4, 13):
        for with_unk in (False, True):
            s = rng.integers(FIRST_REGULAR, VOCAB, size=n)
            if with_unk:
                s[rng.integers(n)] = UNK
            corpus.append(s)
    return corpus + [np.array([], dtype=np.int64), np.array([UNK, UNK, UNK])]


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def test_make_mlm_batch_golden():
    corpus = fixed_corpus()
    policy = MaskingPolicy(vocab=VOCAB)
    picks_rng, rng = np.random.default_rng(5), np.random.default_rng(6)
    h, skipped = hashlib.sha256(), []
    for batch_size in (1, 3, 8, 16, 16, 16, 16, 16, 16, 16):
        picks = picks_rng.integers(len(corpus), size=batch_size)
        corrupted, mask, labels, n_skipped = make_mlm_batch(corpus, picks, policy, rng)
        h.update(digest(corrupted, mask, labels).encode())
        # the empty and the reserved-only sentence, the last two, are each skipped when drawn
        assert n_skipped == int((picks >= len(corpus) - 2).sum())
        skipped.append(n_skipped)
    assert skipped == [0, 0, 1, 2, 2, 0, 1, 0, 4, 2]
    assert h.hexdigest() == "cfaafca4a0bfe861f29bb69b997df741f4e138318b2ae87bb28ee652789382d3"
    assert repr(rng.random()) == "0.7731754229298827"


def test_make_tag_batch_golden():
    corpus = fixed_corpus()
    rng = np.random.default_rng(12)
    examples = [(s, rng.integers(0, 5, size=len(s))) for s in corpus]
    assert digest(*make_tag_batch(examples)) == (
        "12b8ef14cc7bd4d5e7594c201c731192c69f53c1cd7f579ce85d18549f668997")
    assert digest(*make_tag_batch(examples[-3:])) == (
        "3789671259ae99725ee459c1bc5c1b45e23b50dcbd9d5ef3cd19211b623b1624")


def test_make_seq_batch_golden():
    corpus = fixed_corpus()
    examples = [(a, b, i % 3) for i, (a, b) in enumerate(zip(corpus, corpus[::-1]))]
    assert digest(*make_seq_batch(examples)) == (
        "ac5dda0751493ee06a1931f836a24f05255ac6174a94825ecdf5654f19931a28")
    assert digest(*make_seq_batch(examples[:1])) == (
        "74ec4c43cfe888dd21c056ae6fc3b21ea23b5889e0abcb4705285a48fcd86b00")
