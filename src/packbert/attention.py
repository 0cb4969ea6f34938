"""Masked softmax attention over packed batches, plus the padded path.

The packed path runs the blocked kernels of ``packbert.kernels``.  The
padded path computes conventional dense attention over (batch, max_len)
tensors including PAD slots; it exists so the throughput benchmark can price
padding waste, and it doubles as an oracle for the packed≡padded
equivalence tests.
"""

from __future__ import annotations

import math

import numpy as np

from . import kernels
from .packing import MaskSpec, mask_matrix


def _normalize_qkv(q, k, v):
    q = np.ascontiguousarray(q)
    k = np.ascontiguousarray(k)
    v = np.ascontiguousarray(v)
    if q.shape != k.shape or q.shape != v.shape:
        raise ValueError(f"q/k/v shapes differ: {q.shape}, {k.shape}, {v.shape}")
    squeezed = q.ndim == 2
    if squeezed:
        q, k, v = q[None], k[None], v[None]
    if q.ndim != 3:
        raise ValueError(f"expected (heads, total, head_dim) or (total, head_dim), got {q.shape}")
    return q, k, v, squeezed


def _check_boundaries(boundaries, total: int) -> np.ndarray:
    if boundaries is None:
        return np.array([0, total], dtype=np.int64)
    b = np.asarray(boundaries, dtype=np.int64)
    if b.ndim != 1 or len(b) < 2 or b[0] != 0 or b[-1] != total or not np.all(np.diff(b) > 0):
        raise ValueError("boundaries must be strictly increasing from 0 to the total length")
    return b


def attention(q, k, v, spec: MaskSpec, boundaries=None, scale: float | None = None):
    """Softmax attention restricted to allowed(i, j) within each member.

    q, k, v: (heads, total, head_dim) or (total, head_dim).  ``boundaries``
    delimits packed members (None = single sequence).  Returns outputs of the
    same shape as q.
    """
    q3, k3, v3, squeezed = _normalize_qkv(q, k, v)
    b = _check_boundaries(boundaries, q3.shape[1])
    if scale is None:
        scale = 1.0 / math.sqrt(q3.shape[2])
    out = kernels.attn_forward(q3, k3, v3, b, spec.code, spec.window, scale)
    return out[0] if squeezed else out


def attention_vjp(q, k, v, d_out, spec: MaskSpec, boundaries=None, scale: float | None = None):
    """Gradients of attention outputs w.r.t. q, k, v."""
    q3, k3, v3, squeezed = _normalize_qkv(q, k, v)
    g3 = np.ascontiguousarray(d_out)
    if squeezed:
        g3 = g3[None]
    if g3.shape != q3.shape:
        raise ValueError(f"d_out shape {d_out.shape} does not match q shape")
    b = _check_boundaries(boundaries, q3.shape[1])
    if scale is None:
        scale = 1.0 / math.sqrt(q3.shape[2])
    dq, dk, dv = kernels.attn_backward(q3, k3, v3, g3, b, spec.code, spec.window, scale)
    if squeezed:
        return dq[0], dk[0], dv[0]
    return dq, dk, dv


def padded_mask(max_len: int, lengths: np.ndarray, spec: MaskSpec) -> np.ndarray:
    """(batch, max_len, max_len) boolean mask for the padded path.

    A real query attends to allowed(i, j) among real keys.  PAD rows keep a
    self-connection so their softmax stays finite; their outputs are never
    read.
    """
    base = mask_matrix(max_len, spec)  # (L, L)
    key_ok = np.arange(max_len)[None, :] < np.asarray(lengths)[:, None]  # (B, L)
    mask = base[None, :, :] & key_ok[:, None, :]
    diag = np.eye(max_len, dtype=bool)
    return mask | diag[None, :, :]


def attention_padded(q, k, v, lengths, spec: MaskSpec, scale: float | None = None):
    """Dense attention over padded tensors: q, k, v are (batch, heads, L, D).

    Every slot costs compute, PAD included; this is the conventional padded
    execution model.
    """
    q = np.asarray(q)
    if q.ndim != 4:
        raise ValueError(f"expected (batch, heads, max_len, head_dim), got {q.shape}")
    if scale is None:
        scale = 1.0 / math.sqrt(q.shape[3])
    mask = padded_mask(q.shape[2], lengths, spec)[:, None, :, :]  # (B,1,L,L)
    scores = (q @ np.swapaxes(k, 2, 3)) * scale
    neg = np.array(-np.inf, dtype=scores.dtype)
    scores = np.where(mask, scores, neg)
    scores -= scores.max(axis=-1, keepdims=True)
    probs = np.exp(scores)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs @ v
