"""Synthetic multilingual test bed.

A "language" here is a deterministic bijective cipher over the regular vocab
ids plus an optional word-order transform. Applying one to a base corpus
yields a target-language corpus whose latent structure matches the source,
which is exactly what makes zero-shot transfer measurable at desk scale.

The base corpus is fully synthetic: a generator draws class-structured
sentences of ``MIN_LEN`` to ``MAX_LEN`` words (a seeded Markov chain over
token classes, Zipf-distributed tokens within each class). Token classes
double as the tagging task's gold labels, so tags are lexically determined
per language yet inferable from context structure shared across languages.

Everything here is built array-wide, not token by token: the generator
steps every sentence's class chain at once, and a corpus or dataset is
re-lexified as one ``PAD``-separated id array, with its cipher built once.
The bytes are those of the token-by-token definitions the docstrings give.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .autodiff import integer_array
from .errors import ConfigError, ContractError, require_fraction, require_int

PAD, UNK, CLS, MASK, SEP = 0, 1, 2, 3, 4
RESERVED_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[MASK]", "[SEP]")
FIRST_REGULAR = len(RESERVED_TOKENS)

SEQ_CLS = "seq_cls"
TAGGING = "tagging"

FIRST_LONGER, SECOND_LONGER, EQUAL = 0, 1, 2
MIN_LEN, MAX_LEN = 4, 12  # the shortest and the longest base sentence, in words


def stable_bucket(token: str, n: int) -> int:
    """Deterministic hash bucket of a token string, stable across processes."""
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % n


@dataclass
class Vocab:
    """Whitespace-token vocabulary with fixed reserved ids."""

    id_to_token: list[str]
    token_to_id: dict[str, int] = field(init=False)

    def __post_init__(self):
        if self.id_to_token[:FIRST_REGULAR] != list(RESERVED_TOKENS):
            raise ConfigError("vocab must start with the reserved tokens")
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ConfigError("vocab tokens must be unique")

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def encode(self, tokens: list[str]) -> list[int]:
        return [self.token_to_id.get(t, UNK) for t in tokens]

    def content_hash(self) -> str:
        return hashlib.sha256("\n".join(self.id_to_token).encode()).hexdigest()


def build_vocab(lines: list[str]) -> Vocab:
    """Every token of the corpus, most frequent first; ties break lexicographically."""
    counts = Counter()
    for line in lines:
        counts.update(line.split())
    if not counts:
        raise ConfigError("cannot build a vocabulary from an empty corpus")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return Vocab(list(RESERVED_TOKENS) + [t for t, _ in ranked])


@dataclass(frozen=True)
class SyntheticLanguageSpec:
    """A language = seeded cipher over regular ids + a word-order transform.

    Both act as index maps: ``cipher`` maps each id to its image, and
    ``order_map`` gives each output position of a sentence its source
    position. ``divergence`` is the fraction of the regular vocabulary the
    cipher remaps; the rest map to themselves. ``word_order`` is "identity",
    "reverse", or "rotate:<k>" (each run rolled by k, as ``np.roll`` does), with k a
    nonzero int spelled as ``str`` prints it, so that each order has one spelling.
    """

    code: str
    cipher_seed: int = 0
    divergence: float = 0.0
    word_order: str = "identity"

    def __post_init__(self):
        require_int("cipher_seed", self.cipher_seed, 0)
        require_fraction("divergence", self.divergence)
        if not isinstance(self.word_order, str):
            raise ConfigError(f"word_order must be a string, got {self.word_order!r}")
        shifts = {"identity": 0, "reverse": None}  # how far each run rotates; None reverses
        kind, _, k = self.word_order.partition(":")
        if kind == "rotate" and re.fullmatch("-?[1-9][0-9]*", k):  # k as str(int(k)) spells it
            shifts[self.word_order] = int(k)
        if self.word_order not in shifts:
            raise ConfigError(f"unknown word order transform {self.word_order!r}")
        object.__setattr__(self, "_shift", shifts[self.word_order])

    def cipher(self, vocab_size: int) -> np.ndarray:
        """Permutation over all ids: reserved fixed, a seeded subset rotated.

        The remapped subset is shuffled and cycled by one, which guarantees a
        derangement on it (no remapped id keeps its identity).
        """
        perm = np.arange(vocab_size)
        regular = np.arange(FIRST_REGULAR, vocab_size)
        n_move = round(self.divergence * regular.size)
        if n_move < 2:
            return perm
        rng = np.random.default_rng(self.cipher_seed)
        moved = rng.choice(regular, size=n_move, replace=False)
        order = rng.permutation(moved)
        perm[order] = np.roll(order, 1)
        return perm

    def order_map(self, ids: np.ndarray) -> np.ndarray:
        """Word order of one sentence as source positions: ``out = ids[pos]``.

        Each maximal run of regular ids is reordered on its own and reserved
        ids keep their place. The cipher keeps regular ids regular, so a
        sentence and its image share the map.
        """
        at = np.arange(ids.size)
        regular = ids >= FIRST_REGULAR
        # first index of each position's run, and one past its last
        lo = np.maximum.accumulate(np.where(regular, 0, at + 1))
        hi = np.minimum.accumulate(np.where(regular, ids.size, at)[::-1])[::-1]
        if self._shift is None:
            pos = lo + hi - 1 - at
        else:  # run length hi - lo is -1 on reserved ids, whose values are dropped
            pos = lo + (at - lo - self._shift) % (hi - lo)
        return np.where(regular, pos, at)


def _relexify(spec: SyntheticLanguageSpec, cipher: np.ndarray, sentences) -> list[np.ndarray]:
    """``apply_language`` over many sentences, with the cipher built by the caller.

    The sentences are joined with a ``PAD`` after each one, so one range
    check, one ``order_map`` and one cipher lookup serve them all: ``PAD`` is
    reserved, so no run of regular ids crosses from one sentence into the
    next. Returns one id array per sentence.
    """
    if not len(sentences):
        return []
    lengths = np.array([len(s) for s in sentences], dtype=np.int64)
    stops = np.cumsum(lengths + 1)  # one past each sentence's separator
    ids = np.full(stops[-1], PAD, dtype=np.int64)
    body = np.ones(stops[-1], dtype=bool)
    body[stops - 1] = False
    ids[body] = _joined_ids(sentences, cipher.size)
    out = cipher[ids[spec.order_map(ids)]]
    return [out[b - n - 1 : b - 1] for n, b in zip(lengths.tolist(), stops.tolist())]


def _joined_ids(sentences, vocab_size: int) -> np.ndarray:
    """The sentences' ids joined as int64; ``ContractError`` for a float or bool
    sentence, which the cast would truncate (an empty one may be float, as
    ``np.asarray([])`` is), or for an id outside ``[0, vocab_size)``."""
    parts = [integer_array(s, "token ids") for s in sentences]
    ids = np.concatenate(parts, dtype=np.int64, casting="unsafe")
    if ids.size and (ids.min() < 0 or ids.max() >= vocab_size):
        raise ContractError("token id outside the vocabulary")
    return ids


def apply_language(spec: SyntheticLanguageSpec, token_ids, vocab_size: int) -> np.ndarray:
    """Map a base-language id sequence into the given synthetic language.

    The output is ``cipher[ids[pos]]`` with ``pos = spec.order_map(ids)``:
    reserved ids stay fixed, regular ids go through the cipher, and each
    contiguous regular-id span is reordered. Per-token labels of the base
    sequence move with their tokens as ``labels[pos]``.
    """
    return _relexify(spec, spec.cipher(vocab_size), [token_ids])[0]


def invert_language(spec: SyntheticLanguageSpec, token_ids, vocab_size: int):
    """Inverse of apply_language: undo the word order, then the cipher."""
    ids = _joined_ids([token_ids], vocab_size)
    undone = np.empty_like(ids)
    undone[spec.order_map(ids)] = ids
    return np.argsort(spec.cipher(vocab_size))[undone]


# --- corpora ---------------------------------------------------------------------

_SYLLABLES = ("ba", "de", "fi", "go", "hu", "ka", "lo", "me", "ni", "po",
              "ra", "su", "ta", "vu", "wi", "zo", "cha", "ke")


def make_word_list(n: int) -> list[str]:
    """Deterministic pronounceable word strings, one per index."""
    words = []
    base = len(_SYLLABLES)
    for i in range(n):
        k = i
        parts = [_SYLLABLES[k % base]]
        k //= base
        while k:
            parts.append(_SYLLABLES[k % base])
            k //= base
        words.append("".join(reversed(parts)))
    return words


def class_transition_matrix(n_classes: int, seed: int) -> np.ndarray:
    """Peaky seeded Markov chain over token classes: two preferred successors."""
    rng = np.random.default_rng(seed)
    trans = np.full((n_classes, n_classes), 0.1 / n_classes)
    for k in range(n_classes):
        succ = rng.choice(n_classes, size=2, replace=False)
        trans[k, succ[0]] += 0.45
        trans[k, succ[1]] += 0.45
    return trans / trans.sum(axis=1, keepdims=True)


def generate_corpus(
    n_sentences: int,
    n_words: int = 120,
    n_classes: int = 6,
    seed: int = 0,
) -> list[str]:
    """Synthetic base corpus: class-Markov sentences over a Zipfian lexicon.

    Each word belongs to the class ``stable_bucket(word, n_classes)``; the
    sentence is a Markov walk over classes with a Zipf draw inside each
    class. The same bucket function later labels the tagging task, so gold
    tags reflect the latent class of each slot.

    Draw order, which fixes the corpus of a seed: each sentence in turn
    draws ``rng.integers(MIN_LEN, MAX_LEN + 1)`` for its length,
    ``rng.integers(n_classes)`` for its first class, then
    ``rng.random(2 * length)``: a word draw and a transition draw per
    position, the last transition drawn but unused. A draw ``u`` picks
    ``np.searchsorted(cdf, u, side="right")`` from ``cdf = cumsum(p) /
    cumsum(p)[-1]``, as ``Generator.choice(len(p), p=p)`` does, so the
    corpus is the one two ``choice`` calls per token would give.
    """
    for name, value, least in (("n_sentences", n_sentences, 0), ("n_classes", n_classes, 2),
                               ("n_words", n_words, 0)):
        require_int(f"generate_corpus: {name}", value, least)
    words = make_word_list(n_words)
    by_class: list[list[str]] = [[] for _ in range(n_classes)]
    for w in words:
        by_class[stable_bucket(w, n_classes)].append(w)
    if any(not bucket for bucket in by_class):
        raise ConfigError(f"{n_words} words leave an empty class; increase n_words")
    widest = max(len(b) for b in by_class)
    zipf = [1.0 / (r + 1.0) ** 1.5 for r in range(widest)]
    lexicon = np.array([b + [""] * (widest - len(b)) for b in by_class])
    word_cdf = np.full((n_classes, widest), 2.0)  # past every draw: padding is never picked
    for k, bucket in enumerate(by_class):
        word_cdf[k, : len(bucket)] = _cdf(np.array(zipf[: len(bucket)]) / sum(zipf[: len(bucket)]))
    next_cdf = np.array([_cdf(row) for row in class_transition_matrix(n_classes, seed + 1)])
    rng = np.random.default_rng(seed)
    lengths, first, draws = [], [], []
    for _ in range(n_sentences):
        lengths.append(int(rng.integers(MIN_LEN, MAX_LEN + 1)))
        first.append(int(rng.integers(n_classes)))
        draws.append(rng.random(2 * lengths[-1]))
    if not lengths:
        return []
    live = np.arange(max(lengths)) < np.array(lengths)[:, None]  # sentence x position
    u = np.zeros(live.shape + (2,))  # per position: the word draw, then the transition draw
    u[live] = np.concatenate(draws).reshape(-1, 2)
    classes = np.empty(live.shape, dtype=np.int64)
    classes[:, 0] = first
    for t in range(1, live.shape[1]):
        classes[:, t] = _pick(next_cdf, classes[:, t - 1], u[:, t - 1, 1])
    k = classes[live]
    tokens = lexicon[k, _pick(word_cdf, k, u[live, 0])].tolist()
    stops = np.cumsum(lengths).tolist()
    return [" ".join(tokens[a:b]) for a, b in zip([0] + stops[:-1], stops)]


def _cdf(p: np.ndarray) -> np.ndarray:
    """The CDF ``Generator.choice`` draws from: ``cumsum``, then divided by its last entry."""
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf


def _pick(cdfs: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdfs[r], x, side="right")`` for each row ``r`` and draw ``x``.

    A non-decreasing row has exactly that many entries ``<= x``, so one
    comparison serves every row at once.
    """
    return (cdfs[rows] <= u[:, None]).sum(axis=1)


def corpus_to_ids(lines: list[str], vocab: Vocab) -> list[np.ndarray]:
    return [np.asarray(vocab.encode(line.split()), dtype=np.int64) for line in lines]


def language_corpus(
    spec: SyntheticLanguageSpec, base_ids: list[np.ndarray], vocab: Vocab
) -> list[np.ndarray]:
    """Base corpus re-lexified into one synthetic language."""
    return _relexify(spec, spec.cipher(vocab.size), base_ids)


# --- task datasets ---------------------------------------------------------------


@dataclass
class TaskDataset:
    """One split of one task in one language.

    seq_cls examples are (ids_a, ids_b, label); tagging examples are
    (ids, tags) with one tag per token. Ids are integers >= 0, and labels
    and tags integers in [0, num_classes).
    """

    kind: str
    language: str
    split: str
    examples: list
    num_classes: int

    def label_counts(self) -> Counter:
        if self.kind == SEQ_CLS:
            return Counter(ex[2] for ex in self.examples)
        return Counter(int(t) for _, tags in self.examples for t in tags)

    def content_hash(self) -> str:
        h = hashlib.sha256()
        for ex in self.examples:
            for part in ex:
                h.update(np.asarray(part, dtype=np.int64).tobytes())
            h.update(b"|")
        return h.hexdigest()


def gen_seq_task(
    base_ids: list[np.ndarray],
    spec: SyntheticLanguageSpec,
    vocab: Vocab,
    n_examples: int,
    split: str,
    seed: int,
) -> TaskDataset:
    """Balanced sentence-pair dataset labeled by the pair's length relation.

    Classes: first-longer / second-longer / equal. Lengths survive any
    cipher or reorder, so gold labels are transform invariant by
    construction. Pairs are rejection-sampled from natural sentences; a
    corpus that cannot fill every class is rejected as degenerate.
    """
    require_int("n_examples", n_examples, 0)
    rng = np.random.default_rng(seed)
    per_class = n_examples // 3
    quota = {FIRST_LONGER: per_class, SECOND_LONGER: per_class,
             EQUAL: n_examples - 2 * per_class}
    pairs, labels = [], []  # pairs holds a, b of each accepted pair in turn
    attempts = 0
    while sum(quota.values()) > 0:
        attempts += 1
        if attempts > 200 * n_examples:
            raise ConfigError("degenerate corpus: cannot balance length-relation classes")
        i, j = rng.integers(len(base_ids)), rng.integers(len(base_ids))
        a, b = base_ids[int(i)], base_ids[int(j)]
        label = FIRST_LONGER if len(a) > len(b) else SECOND_LONGER if len(a) < len(b) else EQUAL
        if quota[label] == 0:
            continue
        quota[label] -= 1
        pairs.extend((a, b))
        labels.append(label)
    ids = _relexify(spec, spec.cipher(vocab.size), pairs)
    examples = [(ids[2 * k], ids[2 * k + 1], labels[k]) for k in rng.permutation(len(labels))]
    return TaskDataset(SEQ_CLS, spec.code, split, examples, 3)


def tag_table(vocab: Vocab, n_tags: int) -> np.ndarray:
    """The gold tag of each base-language id: the hash bucket of its token."""
    require_int("n_tags", n_tags, 1)
    return np.array([stable_bucket(t, n_tags) for t in vocab.id_to_token], dtype=np.int64)


def gen_tag_task(
    base_ids: list[np.ndarray],
    spec: SyntheticLanguageSpec,
    vocab: Vocab,
    n_examples: int,
    split: str,
    seed: int,
    n_tags: int = 6,
) -> TaskDataset:
    """Token-tagging dataset: tags follow each token's pre-cipher identity.

    Each output id is tagged with the base tag of the id the cipher sent to
    it, so the labeling commutes with apply_language.
    """
    require_int("n_examples", n_examples, 0)
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(base_ids), size=min(n_examples, len(base_ids)), replace=False)
    cipher = spec.cipher(vocab.size)
    tag_of = np.empty(vocab.size, dtype=np.int64)  # by output id
    tag_of[cipher] = tag_table(vocab, n_tags)
    ids = _relexify(spec, cipher, [base_ids[int(i)] for i in picks])
    examples = [(out, tag_of[out]) for out in ids]
    return TaskDataset(TAGGING, spec.code, split, examples, n_tags)
