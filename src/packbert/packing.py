"""Sequence packing (unpadding) and attention mask kinds.

A PackedBatch is the concatenation of variable-length sequences plus the
prefix-sum offsets of the members.  Attention over a PackedBatch must never
mix members; the boundary array is the single source of truth for that
block-diagonal structure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

MASK_KINDS = ("global_bidirectional", "sliding_window", "causal")

# Integer codes the attention kernels take.
KIND_GLOBAL = 0
KIND_WINDOW = 1
KIND_CAUSAL = 2

_KIND_CODE = {
    "global_bidirectional": KIND_GLOBAL,
    "sliding_window": KIND_WINDOW,
    "causal": KIND_CAUSAL,
}


@dataclass(frozen=True)
class MaskSpec:
    """Which key positions a query may attend to, within one member sequence."""

    kind: str
    window: int = 0

    def __post_init__(self):
        if self.kind not in MASK_KINDS:
            raise ValueError(f"unknown mask kind {self.kind!r}; expected one of {MASK_KINDS}")
        if self.kind == "sliding_window":
            if self.window <= 0 or self.window % 2 != 0:
                raise ValueError(f"sliding_window requires an even window > 0, got {self.window}")

    @property
    def code(self) -> int:
        return _KIND_CODE[self.kind]


GLOBAL_SPEC = MaskSpec("global_bidirectional")
CAUSAL_SPEC = MaskSpec("causal")


def allowed(i: int, j: int, spec: MaskSpec) -> bool:
    """May query position i attend to key position j (same member assumed)?"""
    if i < 0 or j < 0:
        raise ValueError(f"positions must be non-negative, got ({i}, {j})")
    if spec.kind == "global_bidirectional":
        return True
    if spec.kind == "sliding_window":
        return abs(i - j) <= spec.window // 2
    return j <= i


def mask_matrix(n: int, spec: MaskSpec) -> np.ndarray:
    """Boolean (n, n) matrix of allowed(i, j); True = attend."""
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    if spec.kind == "global_bidirectional":
        return np.ones((n, n), dtype=bool)
    if spec.kind == "sliding_window":
        return np.abs(i - j) <= spec.window // 2
    return j <= i


@dataclass(frozen=True)
class PackedBatch:
    """Concatenated sequences: ``tokens[boundaries[s]:boundaries[s+1]]`` is member s."""

    tokens: np.ndarray  # (total,) int32
    boundaries: np.ndarray  # (n_seqs + 1,) int64, strictly increasing from 0
    max_member_len: int

    def __post_init__(self):
        b = self.boundaries
        if b.ndim != 1 or len(b) < 2 or b[0] != 0 or b[-1] != len(self.tokens):
            raise ValueError("boundaries must run from 0 to the total token count")
        if not np.all(np.diff(b) > 0):
            raise ValueError("boundaries must be strictly increasing (empty member?)")

    @property
    def n_seqs(self) -> int:
        return len(self.boundaries) - 1

    @property
    def total_tokens(self) -> int:
        return int(self.boundaries[-1])

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.boundaries)

    @property
    def positions(self) -> np.ndarray:
        """Local (within-member) position of every flat slot."""
        return local_positions(self.boundaries)

    def member(self, s: int) -> np.ndarray:
        return self.tokens[int(self.boundaries[s]):int(self.boundaries[s + 1])]


def local_positions(boundaries: np.ndarray) -> np.ndarray:
    total = int(boundaries[-1])
    pos = np.arange(total, dtype=np.int64)
    starts = np.repeat(boundaries[:-1], np.diff(boundaries))
    return pos - starts


def pack(sequences) -> PackedBatch:
    """Concatenate sequences in order; boundaries are prefix sums of lengths."""
    seqs = [np.asarray(s, dtype=np.int32) for s in sequences]
    if not seqs:
        raise DataError("pack requires at least one sequence")
    lengths = []
    for idx, s in enumerate(seqs):
        if s.ndim != 1 or len(s) == 0:
            raise DataError(f"member {idx} must be a non-empty 1-D sequence")
        if np.any(s < 0):
            raise DataError(f"member {idx} contains negative token ids")
        lengths.append(len(s))
    boundaries = np.zeros(len(seqs) + 1, dtype=np.int64)
    np.cumsum(lengths, out=boundaries[1:])
    tokens = np.concatenate(seqs)
    return PackedBatch(tokens=tokens, boundaries=boundaries, max_member_len=max(lengths))


def unpack(batch: PackedBatch) -> list[np.ndarray]:
    return [batch.member(s).copy() for s in range(batch.n_seqs)]
