"""Sequence packing (unpadding) and attention mask kinds.

A PackedBatch is the concatenation of variable-length sequences plus the
prefix-sum offsets of the members.  Attention over a PackedBatch must never
mix members; the boundary array is the single source of truth for that
block-diagonal structure.

Within a member, a layer's mask is an integer kind (``KIND_GLOBAL``,
``KIND_WINDOW``, ``KIND_CAUSAL``) plus a window width: the one mask vocabulary,
from ``model._layer_attn`` to the kernels, which refuse a pair that
``check_mask`` refuses.  ``mask_matrix`` is its dense form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError

# Which keys a query at member position i may see, as the attention kernels
# take it: a kind and, for KIND_WINDOW, an even window w > 0.
KIND_GLOBAL = 0  # every key of the member
KIND_WINDOW = 1  # keys j with |i - j| <= w / 2
KIND_CAUSAL = 2  # keys j <= i


def check_mask(kind: int, window: int) -> None:
    """Raise ValueError unless (kind, window) names a mask; a window kind
    needs an even window > 0, and other kinds ignore the window."""
    if kind not in (KIND_GLOBAL, KIND_WINDOW, KIND_CAUSAL):
        raise ValueError(f"unknown mask kind {kind!r}")
    if kind == KIND_WINDOW and (window <= 0 or window % 2 != 0):
        raise ValueError(f"a window mask needs an even window > 0, got {window}")


def mask_matrix(n: int, kind: int, window: int) -> np.ndarray:
    """Boolean (n, n) mask of one n-token member; [i, j] True = i may see j.

    The dense reference of the kernels' masks, for the padded path and tests.
    """
    check_mask(kind, window)
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    if kind == KIND_GLOBAL:
        return np.ones((n, n), dtype=bool)
    if kind == KIND_WINDOW:
        return np.abs(i - j) <= window // 2
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
