"""Seeded input generators for the three workloads.

Everything here is plain numpy and string work; nothing imports packbert,
so the numbers the checks compare against (token counts, entropies, bucket
counts) are computed apart from the program under test.  The same seed
always gives the same inputs.
"""

from __future__ import annotations

import math

import numpy as np

SPECIALS = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")
MASK_ID = SPECIALS.index("[MASK]")

_CONSONANTS = "bdfgklmnprstvw"
_VOWELS = "aeiou"
SYLLABLES = tuple(c + v for c in _CONSONANTS for v in _VOWELS)  # 70, no 'x'


def rng_for(seed: int, purpose: str) -> np.random.Generator:
    """Independent stream per (seed, purpose)."""
    return np.random.default_rng([seed, *purpose.encode("ascii")])


def zipf_probs(n: int, exponent: float) -> np.ndarray:
    p = np.arange(1, n + 1, dtype=np.float64) ** -exponent
    return p / p.sum()


def stratified_lengths(rng, n: int, lo: int, hi: int) -> np.ndarray:
    """n lengths in [lo, hi], one per equal-width stratum, in random order.

    The multiset of lengths barely moves with the seed, so the cost of a
    workload (which grows with the sum of squared lengths) does not either.
    """
    width = hi - lo + 1
    strata = (np.arange(n) + rng.random(n)) * width / n
    lengths = lo + np.floor(strata).astype(np.int64)
    return rng.permutation(lengths)


# ---------------------------------------------------------------------------
# Masked-LM corpora: i.i.d. Zipf draws over whole-word pieces


def whole_words(n: int, syllables: int) -> list[str]:
    """The first n words of ``syllables`` syllables, in a fixed order."""
    words = [""]
    for _ in range(syllables):
        words = [w + s for w in words for s in SYLLABLES]
    if n > len(words):
        raise ValueError(f"only {len(words)} words of {syllables} syllables")
    return words[:n]


class ZipfCorpus:
    """Members of i.i.d. tokens; piece id = len(SPECIALS) + Zipf rank."""

    def __init__(self, n_words: int, syllables: int, exponent: float):
        self.words = whole_words(n_words, syllables)
        self.probs = zipf_probs(n_words, exponent)

    @property
    def vocab_lines(self) -> list[str]:
        return list(SPECIALS) + self.words

    @property
    def entropy(self) -> float:
        return float(-(self.probs * np.log(self.probs)).sum())

    def members(self, rng, n: int, lo: int, hi: int) -> list[np.ndarray]:
        lengths = stratified_lengths(rng, n, lo, hi)
        ranks = rng.choice(len(self.words), size=int(lengths.sum()), p=self.probs)
        ids = (ranks + len(SPECIALS)).astype(np.int32)
        return np.split(ids, np.cumsum(lengths)[:-1])

    def text(self, members) -> str:
        """One document of one paragraph per member (two blank lines apart)."""
        base = len(SPECIALS)
        docs = (" ".join(self.words[i - base] for i in m) for m in members)
        return "\n\n\n".join(docs) + "\n"

    def uniform_members(self, rng, n: int, lo: int, hi: int) -> list[np.ndarray]:
        """Same lengths as ``members`` but tokens drawn uniformly (a broken input)."""
        lengths = stratified_lengths(rng, n, lo, hi)
        ids = rng.integers(0, len(self.words), size=int(lengths.sum())) + len(SPECIALS)
        return np.split(ids.astype(np.int32), np.cumsum(lengths)[:-1])


def masked_sample(rng, members, rate: float):
    """Corrupted copies plus (member, position, gold id) of every masked slot."""
    corrupted, where = [], []
    for s, m in enumerate(members):
        hit = rng.random(m.size) < rate
        c = m.copy()
        c[hit] = MASK_ID
        corrupted.append(c)
        where.extend((s, int(i), int(m[i])) for i in np.flatnonzero(hit))
    return corrupted, where


# ---------------------------------------------------------------------------
# Haystacks: subword text whose token counts are known by construction

N_ANSWERS = 64


class HaystackText:
    """Words of 1-3 syllables: a stem piece plus ``##`` continuation pieces.

    Every piece has two letters, so greedy longest match splits a word into
    exactly its syllables.  Answers are single pieces that contain an 'x',
    a letter no syllable has, so no distractor can contain an answer.
    """

    def __init__(self):
        self.answers = ["x" + s for s in SYLLABLES[:N_ANSWERS]]

    @property
    def vocab_lines(self) -> list[str]:
        return (
            list(SPECIALS)
            + list(SYLLABLES)
            + ["##" + s for s in SYLLABLES]
            + self.answers
        )

    @property
    def answer_ids(self) -> list[int]:
        base = len(SPECIALS) + 2 * len(SYLLABLES)
        return list(range(base, base + N_ANSWERS))

    def paragraph(self, rng, n_tokens: int) -> list[str]:
        """Words whose syllable counts sum to exactly n_tokens."""
        words, left = [], n_tokens
        while left:
            k = min(left, int(rng.integers(1, 4)))
            words.append("".join(SYLLABLES[i] for i in rng.integers(0, len(SYLLABLES), k)))
            left -= k
        return words

    def needle(self, rng, n_tokens: int, answer: str):
        """(text, answer_start): n_tokens tokens, the answer one of them."""
        words = self.paragraph(rng, n_tokens - 1)
        at = int(rng.integers(0, len(words) + 1))
        words.insert(at, answer)
        text = " ".join(words)
        start = sum(len(w) + 1 for w in words[:at])
        return text, start


def bucket_of(n_tokens: int) -> str:
    """Length buckets of the haystack report: <1024, 1024-4095, 4096-8192."""
    if n_tokens < 1024:
        return "<1024"
    return "1024-4095" if n_tokens < 4096 else "4096-8192"


def zero_mean_unit(rng, dim: int) -> np.ndarray:
    u = rng.standard_normal(dim)
    u -= u.mean()
    return u / math.sqrt(float(u @ u))
