"""Synthetic multilingual test bed.

A "language" here is a deterministic bijective cipher over the regular vocab
ids plus an optional word-order transform. Applying one to a base corpus
yields a target-language corpus whose latent structure matches the source,
which is exactly what makes zero-shot transfer measurable at desk scale.

Two corpus sources sit behind the same interface: a bundled public-domain
text, and a fully synthetic generator that draws class-structured sentences
(a seeded Markov chain over token classes, Zipf-distributed tokens within
each class). Token classes double as the tagging task's gold labels, so tags
are lexically determined per language yet inferable from context structure
shared across languages.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import ConfigError, ContractError, MissingArtifactError

PAD, UNK, CLS, MASK, SEP = 0, 1, 2, 3, 4
RESERVED_TOKENS = ("[PAD]", "[UNK]", "[CLS]", "[MASK]", "[SEP]")
FIRST_REGULAR = len(RESERVED_TOKENS)

SEQ_CLS = "seq_cls"
TAGGING = "tagging"

FIRST_LONGER, SECOND_LONGER, EQUAL = 0, 1, 2


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

    def decode(self, ids) -> list[str]:
        return [self.id_to_token[int(i)] for i in ids]

    def content_hash(self) -> str:
        return hashlib.sha256("\n".join(self.id_to_token).encode()).hexdigest()


def build_vocab(lines: list[str], size: int = 0) -> Vocab:
    """Vocabulary of the most frequent tokens; ties break lexicographically."""
    counts = Counter()
    for line in lines:
        counts.update(line.split())
    if not counts:
        raise ConfigError("cannot build a vocabulary from an empty corpus")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    if size:
        if size <= FIRST_REGULAR:
            raise ConfigError(f"vocab size {size} leaves no room for regular tokens")
        ranked = ranked[: size - FIRST_REGULAR]
    return Vocab(list(RESERVED_TOKENS) + [t for t, _ in ranked])


@dataclass(frozen=True)
class SyntheticLanguageSpec:
    """A language = seeded cipher over regular ids + a word-order transform.

    Both act as index maps: ``cipher`` maps each id to its image, and
    ``order_map`` gives each output position of a sentence its source
    position. ``divergence`` is the fraction of the regular vocabulary the
    cipher remaps; the rest map to themselves. ``word_order`` is "identity",
    "reverse", or "rotate:<k>" (each run rolled by k, as ``np.roll`` does).
    """

    code: str
    cipher_seed: int = 0
    divergence: float = 0.0
    word_order: str = "identity"

    def __post_init__(self):
        if not 0.0 <= self.divergence <= 1.0:
            raise ConfigError(f"divergence must be in [0, 1], got {self.divergence}")
        kind, _, k = self.word_order.partition(":")
        named = {"identity": 0, "reverse": None}  # how far each run rotates; None reverses
        try:
            shift = int(k) if kind == "rotate" else named[self.word_order]
        except (KeyError, ValueError):
            raise ConfigError(f"unknown word order transform {self.word_order!r}") from None
        object.__setattr__(self, "_shift", shift)

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

    def to_file(self, path) -> None:
        write_key_values(path, {"code": self.code, "cipher_seed": self.cipher_seed,
                                "divergence": repr(self.divergence),
                                "word_order": self.word_order})

    @classmethod
    def from_file(cls, path) -> "SyntheticLanguageSpec":
        fields = read_key_values(path)
        values = {}
        for key, parse in (("code", str), ("cipher_seed", int), ("divergence", float)):
            if key not in fields:
                raise ConfigError(f"{path}: no {key}= line")
            try:
                values[key] = parse(fields[key])
            except ValueError:
                raise ConfigError(f"{path}: {key}={fields[key]!r} is not "
                                  f"a valid {parse.__name__}") from None
        return cls(**values, word_order=fields.get("word_order", "identity"))


def _relexify(spec: SyntheticLanguageSpec, cipher: np.ndarray, token_ids, labels=None):
    """``apply_language`` with the language's cipher built by the caller."""
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.min(initial=0) < 0 or ids.max(initial=0) >= cipher.size:
        raise ContractError("token id outside the vocabulary")
    pos = spec.order_map(ids)
    if labels is None:
        return cipher[ids[pos]]
    return cipher[ids[pos]], np.asarray(labels)[pos]


def apply_language(
    spec: SyntheticLanguageSpec,
    token_ids,
    vocab_size: int,
    labels=None,
):
    """Map a base-language id sequence into the given synthetic language.

    The output is ``cipher[ids[pos]]`` with ``pos = spec.order_map(ids)``:
    reserved ids stay fixed, regular ids go through the cipher, and each
    contiguous regular-id span is reordered. When ``labels`` is given it is
    indexed by the same ``pos`` and returned too.
    """
    return _relexify(spec, spec.cipher(vocab_size), token_ids, labels)


def invert_language(spec: SyntheticLanguageSpec, token_ids, vocab_size: int):
    """Inverse of apply_language: undo the word order, then the cipher."""
    ids = np.asarray(token_ids, dtype=np.int64)
    undone = np.empty_like(ids)
    undone[spec.order_map(ids)] = ids
    return np.argsort(spec.cipher(vocab_size))[undone]


def language_overlap(a: SyntheticLanguageSpec, b: SyntheticLanguageSpec,
                     vocab_size: int) -> float:
    """Fraction of regular ids the two ciphers send to the same image."""
    ca = a.cipher(vocab_size)[FIRST_REGULAR:]
    cb = b.cipher(vocab_size)[FIRST_REGULAR:]
    return float((ca == cb).mean())


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
    min_len: int = 4,
    max_len: int = 12,
) -> list[str]:
    """Synthetic base corpus: class-Markov sentences over a Zipfian lexicon.

    Each word belongs to the class ``stable_bucket(word, n_classes)``; the
    sentence is a Markov walk over classes with a Zipf draw inside each
    class. The same bucket function later labels the tagging task, so gold
    tags reflect the latent class of each slot.
    """
    words = make_word_list(n_words)
    by_class: list[list[str]] = [[] for _ in range(n_classes)]
    for w in words:
        by_class[stable_bucket(w, n_classes)].append(w)
    if any(not bucket for bucket in by_class):
        raise ConfigError(f"{n_words} words leave an empty class; increase n_words")
    zipf = [1.0 / (r + 1.0) ** 1.5 for r in range(max(len(b) for b in by_class))]
    class_probs = [np.array(zipf[: len(b)]) / sum(zipf[: len(b)]) for b in by_class]
    trans = class_transition_matrix(n_classes, seed + 1)
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n_sentences):
        length = int(rng.integers(min_len, max_len + 1))
        k = int(rng.integers(n_classes))
        tokens = []
        for _ in range(length):
            bucket = by_class[k]
            tokens.append(bucket[int(rng.choice(len(bucket), p=class_probs[k]))])
            k = int(rng.choice(trans.shape[1], p=trans[k]))
        lines.append(" ".join(tokens))
    return lines


def load_bundled_corpus() -> list[str]:
    """The bundled public-domain text, one sentence-ish line at a time."""
    text = resources.files("adapterlab").joinpath("data/corpus.txt").read_text("utf-8")
    return [line.strip() for line in text.splitlines() if line.strip()]


def corpus_to_ids(lines: list[str], vocab: Vocab) -> list[np.ndarray]:
    return [np.asarray(vocab.encode(line.split()), dtype=np.int64) for line in lines]


def language_corpus(
    spec: SyntheticLanguageSpec, base_ids: list[np.ndarray], vocab: Vocab
) -> list[np.ndarray]:
    """Base corpus re-lexified into one synthetic language."""
    cipher = spec.cipher(vocab.size)
    return [_relexify(spec, cipher, ids) for ids in base_ids]


# --- task datasets ---------------------------------------------------------------


@dataclass
class TaskDataset:
    """One split of one task in one language.

    seq_cls examples are (ids_a, ids_b, label); tagging examples are
    (ids, tags) with tags aligned per token.
    """

    kind: str
    language: str
    split: str
    examples: list
    num_classes: int

    def label_counts(self) -> Counter:
        counts = Counter()
        for ex in self.examples:
            if self.kind == SEQ_CLS:
                counts[ex[2]] += 1
            else:
                counts.update(int(t) for t in ex[1])
        return counts

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
    rng = np.random.default_rng(seed)
    cipher = spec.cipher(vocab.size)
    per_class = n_examples // 3
    quota = {FIRST_LONGER: per_class, SECOND_LONGER: per_class,
             EQUAL: n_examples - 2 * per_class}
    examples = []
    attempts = 0
    max_attempts = 200 * n_examples
    while sum(quota.values()) > 0:
        attempts += 1
        if attempts > max_attempts:
            raise ConfigError(
                "degenerate corpus: cannot balance length-relation classes")
        i, j = rng.integers(len(base_ids)), rng.integers(len(base_ids))
        a, b = base_ids[int(i)], base_ids[int(j)]
        if len(a) > len(b):
            label = FIRST_LONGER
        elif len(a) < len(b):
            label = SECOND_LONGER
        else:
            label = EQUAL
        if quota[label] == 0:
            continue
        quota[label] -= 1
        examples.append((_relexify(spec, cipher, a), _relexify(spec, cipher, b), label))
    order = rng.permutation(len(examples))
    examples = [examples[int(k)] for k in order]
    return TaskDataset(SEQ_CLS, spec.code, split, examples, 3)


def tag_labels_for_base(base_sentence: np.ndarray, vocab: Vocab, n_tags: int) -> np.ndarray:
    """Gold tags of a base-language sentence: hash bucket of each token type."""
    return np.array(
        [stable_bucket(vocab.id_to_token[int(t)], n_tags) for t in base_sentence],
        dtype=np.int64,
    )


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

    Labels are computed on the base sentence and permuted together with any
    word-order transform, so the labeling commutes with apply_language.
    """
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(base_ids), size=min(n_examples, len(base_ids)), replace=False)
    cipher = spec.cipher(vocab.size)
    examples = []
    for i in picks:
        base = base_ids[int(i)]
        tags = tag_labels_for_base(base, vocab, n_tags)
        ids, tags = _relexify(spec, cipher, base, tags)
        examples.append((ids, tags))
    return TaskDataset(TAGGING, spec.code, split, examples, n_tags)


# --- on-disk formats ----------------------------------------------------------------


def save_task_dataset(dataset: TaskDataset, vocab: Vocab, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if dataset.kind == SEQ_CLS:
            for a, b, label in dataset.examples:
                fh.write(f"{label}\t{' '.join(vocab.decode(a))}\t{' '.join(vocab.decode(b))}\n")
        else:
            for ids, tags in dataset.examples:
                for t, tag in zip(ids, tags):
                    fh.write(f"{vocab.id_to_token[int(t)]}\t{int(tag)}\n")
                fh.write("\n")


def load_task_dataset(path, vocab: Vocab, kind: str, language: str, split: str,
                      num_classes: int) -> TaskDataset:
    examples = []
    with open(path, encoding="utf-8") as fh:
        if kind == SEQ_CLS:
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    label, a, b = line.split("\t")
                    label = int(label)
                except ValueError:
                    raise _bad_line(path, lineno, "label<TAB>sentence<TAB>sentence") from None
                examples.append((
                    np.asarray(vocab.encode(a.split()), dtype=np.int64),
                    np.asarray(vocab.encode(b.split()), dtype=np.int64),
                    label,
                ))
        else:
            ids, tags = [], []
            for lineno, line in enumerate(fh, 1):
                line = line.rstrip("\n")
                if not line:
                    if ids:
                        examples.append((np.asarray(ids, dtype=np.int64),
                                         np.asarray(tags, dtype=np.int64)))
                        ids, tags = [], []
                    continue
                try:
                    token, tag = line.split("\t")
                    tags.append(int(tag))
                except ValueError:
                    raise _bad_line(path, lineno, "token<TAB>tag") from None
                ids.append(vocab.token_to_id.get(token, UNK))
            if ids:
                examples.append((np.asarray(ids, dtype=np.int64),
                                 np.asarray(tags, dtype=np.int64)))
    return TaskDataset(kind, language, split, examples, num_classes)


def _bad_line(path, lineno: int, expected: str) -> MissingArtifactError:
    return MissingArtifactError(f"{path}: line {lineno} is not {expected}")


def write_key_values(path, entries: dict) -> None:
    """One ``key=value`` line per entry, in the dict's order."""
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in entries.items():
            fh.write(f"{key}={value}\n")


def read_key_values(path) -> dict[str, str]:
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
