"""Blocked softmax attention over packed batches.

Each packed member is processed in ``BLOCK``-row query blocks, or
``WINDOW_BLOCK``-row blocks for sliding-window layers.  A block's scores
cover only the keys it may see: the whole member for global attention,
``[i0 - w/2, i1 + w/2)`` for a sliding window of width ``w`` and
``[lo, i1)`` for causal attention.  Window layers therefore cost
O(total * window), and no call holds more than a (heads, BLOCK, member
length) score block.  The backward pass recomputes each block's
probabilities instead of saving them.  The same code serves every float
dtype; float64 is what the gradient checks run on.
"""

from __future__ import annotations

import numpy as np

from .packing import KIND_CAUSAL, KIND_GLOBAL, KIND_WINDOW

BLOCK = 128
# A window block of b rows scores b * (b + w) keys, of which about b * (w + 1)
# are visible, so shorter blocks waste less on window layers.
WINDOW_BLOCK = 64


def _blocks(boundaries, kind, window):
    """Yield (i0, i1, j0, j1): a query block and the key span it may see."""
    if kind not in (KIND_GLOBAL, KIND_WINDOW, KIND_CAUSAL):
        raise ValueError(f"unknown mask kind code {kind}")
    half = window // 2
    step = WINDOW_BLOCK if kind == KIND_WINDOW else BLOCK
    b = np.asarray(boundaries).tolist()
    for lo, hi in zip(b[:-1], b[1:]):
        for i0 in range(lo, hi, step):
            i1 = min(i0 + step, hi)
            if kind == KIND_WINDOW:
                yield i0, i1, max(lo, i0 - half), min(hi, i1 + half)
            elif kind == KIND_CAUSAL:
                yield i0, i1, lo, i1
            else:
                yield i0, i1, lo, hi


def _probs(q, k, i0, i1, j0, j1, kind, window, scale):
    """Softmax probabilities of query rows [i0, i1) over keys [j0, j1)."""
    scores = q[:, i0:i1] @ k[:, j0:j1].transpose(0, 2, 1)
    scores *= scale
    if kind != KIND_GLOBAL:
        # A causal block sees every key before i0; only its diagonal tile is masked.
        c0 = i0 - j0 if kind == KIND_CAUSAL else 0
        d = np.arange(j0 + c0, j1)[None, :] - np.arange(i0, i1)[:, None]
        blocked = d > 0 if kind == KIND_CAUSAL else np.abs(d) > window // 2
        np.copyto(scores[:, :, c0:], -np.inf, where=blocked)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores


def attn_forward(q, k, v, boundaries, kind, window, scale):
    """q, k, v: (heads, total, head_dim); returns the attention output, same shape."""
    out = np.empty_like(q)
    for i0, i1, j0, j1 in _blocks(boundaries, kind, window):
        probs = _probs(q, k, i0, i1, j0, j1, kind, window, scale)
        out[:, i0:i1] = probs @ v[:, j0:j1]
    return out


def attn_backward(q, k, v, d_out, boundaries, kind, window, scale):
    """Recompute-based backward pass; returns (dq, dk, dv)."""
    dq = np.empty_like(q)
    dk = np.zeros_like(k)
    dv = np.zeros_like(v)
    for i0, i1, j0, j1 in _blocks(boundaries, kind, window):
        probs = _probs(q, k, i0, i1, j0, j1, kind, window, scale)
        g = d_out[:, i0:i1]
        dv[:, j0:j1] += probs.transpose(0, 2, 1) @ g
        d_scores = g @ v[:, j0:j1].transpose(0, 2, 1)
        d_scores -= (d_scores * probs).sum(axis=-1, keepdims=True)
        d_scores *= probs  # zero wherever masked: probs == 0 there
        d_scores *= scale
        dq[:, i0:i1] = d_scores @ k[:, j0:j1]
        dk[:, j0:j1] += d_scores.transpose(0, 2, 1) @ q[:, i0:i1]
    return dq, dk, dv
