"""Rotary position embeddings with a configurable base (theta).

Dimension pairs are interleaved: pair k rotates components (2k, 2k+1) by
angle(p, k) = p * theta^(-2k/head_dim).  Position 0 is the exact identity.
Tables are pure functions of (theta, head_dim, max_positions), so cached
tables and regenerated tables are bit-identical.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RopeTable:
    theta: float
    head_dim: int
    max_positions: int
    cos: np.ndarray  # (max_positions, head_dim/2) float64
    sin: np.ndarray


@functools.lru_cache(maxsize=64)
def _build(theta: float, head_dim: int, max_positions: int) -> RopeTable:
    if head_dim <= 0 or head_dim % 2 != 0:
        raise ValueError(f"head_dim must be positive and even, got {head_dim}")
    if max_positions <= 0:
        raise ValueError(f"max_positions must be positive, got {max_positions}")
    if not theta > 0.0:
        raise ValueError(f"theta must be positive, got {theta}")
    k = np.arange(head_dim // 2, dtype=np.float64)
    inv_freq = theta ** (-2.0 * k / head_dim)
    angles = np.arange(max_positions, dtype=np.float64)[:, None] * inv_freq[None, :]
    cos = np.cos(angles)
    sin = np.sin(angles)
    cos.setflags(write=False)
    sin.setflags(write=False)
    return RopeTable(theta=theta, head_dim=head_dim, max_positions=max_positions, cos=cos, sin=sin)


def build_rope_table(theta: float, head_dim: int, max_positions: int) -> RopeTable:
    return _build(float(theta), int(head_dim), int(max_positions))


@functools.lru_cache(maxsize=128)
def _complex_table(theta: float, head_dim: int, max_positions: int, dtype_str: str) -> np.ndarray:
    """cos + i sin of the table, in the complex dtype made of two ``dtype_str`` floats."""
    table = _build(theta, head_dim, max_positions)
    rot = np.empty(table.cos.shape, dtype=np.result_type(dtype_str, np.complex64))
    rot.real = table.cos
    rot.imag = table.sin
    rot.setflags(write=False)
    return rot


def apply_rope(
    vectors: np.ndarray, positions: np.ndarray, table: RopeTable, inverse: bool = False
) -> np.ndarray:
    """Rotate head vectors by their position's angles.

    ``vectors`` is (..., T, head_dim), read in place in any layout with a
    contiguous last axis, such as the model's (heads, T, head_dim) views of
    token-major memory; the result keeps that layout.  ``positions`` is (T,).
    ``inverse`` applies the transpose rotation (used by the backward pass:
    the rotation is orthogonal, so the gradient is rotated by the negative angle).
    """
    vectors = np.asarray(vectors)
    positions = np.asarray(positions, dtype=np.int64)
    if vectors.shape[-1] != table.head_dim:
        raise ValueError(
            f"vector width {vectors.shape[-1]} != table head_dim {table.head_dim}"
        )
    if positions.ndim != 1 or vectors.shape[-2] != len(positions):
        raise ValueError("positions must be 1-D and match the token axis")
    if len(positions) and (positions.min() < 0 or positions.max() >= table.max_positions):
        raise ValueError(
            f"position out of range: table covers [0, {table.max_positions})"
        )
    # Each interleaved pair (2k, 2k+1) is one complex number x + iy, and the
    # rotation is a multiply by cos + i sin (by its conjugate for the inverse).
    real = np.dtype(np.float32 if vectors.dtype == np.float32 else np.float64)
    rot = _complex_table(table.theta, table.head_dim, table.max_positions, real.str)[positions]
    if inverse:
        rot = rot.conj()
    vectors = np.asarray(vectors, dtype=real)
    if vectors.strides[-1] != real.itemsize:  # the complex view needs contiguous pairs
        vectors = np.ascontiguousarray(vectors)
    pairs = vectors.view(rot.dtype)
    return np.multiply(pairs, rot, out=np.empty_like(pairs)).view(real)
