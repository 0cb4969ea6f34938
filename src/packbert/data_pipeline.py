"""Corpus preparation: dedup, quality filtering, splitting, composition stats.

Text comes in as plain files where one blank line separates paragraphs and
two or more blank lines separate documents. Token sequences go out as a
tensor_store container of flat tokens plus lengths, which the trainer reads.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .tensor_store import read_tensors, write_tensors
from .tokenizer import Vocab, count_tokens, encode

_DOC_SPLIT = re.compile(r"\n[ \t]*\n(?:[ \t]*\n)+")
_PARA_SPLIT = re.compile(r"\n[ \t]*\n")


def split_documents(text: str) -> list[list[str]]:
    """Documents (each a list of paragraphs) from two-tier blank-line text."""
    text = text.replace("\r\n", "\n")
    docs = []
    for chunk in _DOC_SPLIT.split(text):
        paras = [p.strip() for p in _PARA_SPLIT.split(chunk)]
        paras = [p for p in paras if p]
        if paras:
            docs.append(paras)
    return docs


def join_documents(docs: list[list[str]]) -> str:
    return "\n\n\n".join("\n\n".join(paras) for paras in docs) + "\n"


def read_documents(path) -> list[list[str]]:
    try:
        return split_documents(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise DataError(f"cannot read corpus {path}: {e}") from e


# ---------------------------------------------------------------------------
# Bloom filter


class BloomFilter:
    """Plain m-bit Bloom filter with k seeded double-hashed probes.

    Inserted items are never reported absent; distinct items collide with
    probability roughly (1 - e^(-k n / m))^k.
    """

    def __init__(self, m_bits: int, k_hashes: int, seed: int = 0):
        if m_bits < 8 or k_hashes < 1:
            raise ConfigError(
                f"need at least 8 bits and 1 hash, got m={m_bits}, k={k_hashes}"
            )
        self.m = int(m_bits)
        self.k = int(k_hashes)
        self.seed = int(seed)
        self.bits = np.zeros((self.m + 7) // 8, dtype=np.uint8)
        self.inserted = 0

    @classmethod
    def sized_for(cls, n_items: int, fp_rate: float, seed: int = 0) -> "BloomFilter":
        """Smallest standard sizing that meets the target false-positive rate."""
        if n_items < 1 or not 0.0 < fp_rate < 1.0:
            raise ConfigError(
                f"need n_items >= 1 and fp_rate in (0,1), got {n_items}, {fp_rate}"
            )
        m = math.ceil(-n_items * math.log(fp_rate) / (math.log(2.0) ** 2))
        k = max(1, round(m / n_items * math.log(2.0)))
        return cls(m, k, seed)

    def _probes(self, item: bytes):
        h = hashlib.blake2b(item, digest_size=16, salt=self.seed.to_bytes(8, "little"))
        d = h.digest()
        h1 = int.from_bytes(d[:8], "little")
        h2 = int.from_bytes(d[8:], "little") | 1  # odd, so probes cycle the whole range
        for i in range(self.k):
            yield (h1 + i * h2) % self.m

    @staticmethod
    def _as_bytes(item) -> bytes:
        return item if isinstance(item, bytes) else str(item).encode("utf-8")

    def add(self, item) -> bool:
        """Insert; returns True if the item was possibly present already."""
        data = self._as_bytes(item)
        seen = True
        for pos in self._probes(data):
            byte, bit = divmod(pos, 8)
            if not (self.bits[byte] >> bit) & 1:
                seen = False
                self.bits[byte] |= 1 << bit
        self.inserted += 1
        return seen

    def __contains__(self, item) -> bool:
        data = self._as_bytes(item)
        return all((self.bits[pos // 8] >> (pos % 8)) & 1 for pos in self._probes(data))


# ---------------------------------------------------------------------------
# Dedup


@dataclass
class DedupStats:
    seen: int = 0
    survivors: int = 0
    dropped: int = 0


def dedup(paragraphs, bloom: BloomFilter) -> tuple[list, DedupStats]:
    """Keep the first occurrence of each paragraph, drop later exact repeats.

    A Bloom false positive drops a fresh paragraph; the filter sizing
    bounds how often that happens.
    """
    stats = DedupStats()
    out = []
    for para in paragraphs:
        stats.seen += 1
        if bloom.add(para):
            stats.dropped += 1
        else:
            stats.survivors += 1
            out.append(para)
    return out, stats


def dedup_documents(
    docs: list[list[str]], bloom: BloomFilter
) -> tuple[list[list[str]], DedupStats]:
    """Paragraph-level dedup that keeps document structure; empty docs vanish."""
    stats = DedupStats()
    out = []
    for paras in docs:
        kept, part = dedup(paras, bloom)
        stats.seen += part.seen
        stats.survivors += part.survivors
        stats.dropped += part.dropped
        if kept:
            out.append(kept)
    return out, stats


# ---------------------------------------------------------------------------
# Quality filter and splitting


def ratio_filter(doc: str, vocab: Vocab, threshold: float = 2.5) -> bool:
    """Keep a document iff tokens-per-whitespace-word stays at or under the bar."""
    if threshold <= 0:
        raise ConfigError(f"threshold must be positive, got {threshold}")
    words = len(doc.split())
    if words == 0:
        return False
    return count_tokens(doc, vocab) / words <= threshold


def split_long(doc: str, vocab: Vocab, target_len: int = 8192) -> list[np.ndarray]:
    """Chop a document's token stream into pieces of at most target_len.

    Concatenating the pieces reproduces the document's tokenization
    exactly; the final piece may be short.
    """
    if target_len < 1:
        raise ConfigError(f"target_len must be >= 1, got {target_len}")
    ids = np.asarray(encode(doc, vocab, add_specials=False), dtype=np.int32)
    if ids.size == 0:
        return []
    return [ids[i : i + target_len] for i in range(0, ids.size, target_len)]


def compose_report(dataset) -> dict:
    """Token count, sequence count, and lower-middle median length."""
    lengths = sorted(int(np.asarray(s).size) for s in dataset)
    n = len(lengths)
    return {
        "token_count": int(sum(lengths)),
        "sequence_count": n,
        "median_length": int(lengths[(n - 1) // 2]) if n else 0,
    }


# ---------------------------------------------------------------------------
# Token sequence files

SEQ_FORMAT = "packbert-sequences"


def write_sequences(path, sequences) -> None:
    """Store sequences as one flat int32 token tensor plus their int32 lengths."""
    arrs = [np.asarray(seq, dtype=np.int32) for seq in sequences]
    if any(arr.ndim != 1 for arr in arrs):
        raise DataError("sequences must be one-dimensional")
    tokens = np.concatenate(arrs) if arrs else np.zeros(0, dtype=np.int32)
    lengths = np.array([arr.size for arr in arrs], dtype=np.int32)
    write_tensors(path, {"tokens": tokens, "lengths": lengths}, {"format": SEQ_FORMAT})


def read_sequences(path) -> list[np.ndarray]:
    tensors, meta = read_tensors(path)
    tokens, lengths = tensors.get("tokens"), tensors.get("lengths")
    if (
        meta.get("format") != SEQ_FORMAT
        or sorted(tensors) != ["lengths", "tokens"]
        or {tokens.dtype, lengths.dtype} != {np.dtype(np.int32)}
        or (tokens.ndim, lengths.ndim) != (1, 1)
        or (lengths.size and lengths.min() < 0)
        or lengths.sum(dtype=np.int64) != tokens.size
    ):
        raise DataError(f"{path} is not a consistent sequence file")
    ends = np.cumsum(lengths, dtype=np.int64).tolist()
    return [tokens[end - n : end] for n, end in zip(lengths.tolist(), ends)]
