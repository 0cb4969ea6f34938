"""Blocked softmax attention over packed batches.

A call's mask is packing's ``(kind, window)`` pair, which both entry points
check (``check_mask``) before any work.  Each packed member is processed in
``BLOCK``-row query blocks, or ``WINDOW_BLOCK``-row blocks for sliding-window
layers.  A block's scores cover only the keys it may see: the whole member
for global attention, ``[i0 - w/2, i1 + w/2)`` for a sliding window of width
``w`` and ``[lo, i1)`` for causal attention.  Window layers therefore cost
O(total * window), and no worker holds more than a (heads, BLOCK, member
length) score block; in a global or causal forward call large enough for
the pool, one head's (BLOCK, member length) block.  Each query block is
scaled as it is scored, so no call holds a scaled copy of the whole q.  The backward pass recomputes each
block's probabilities instead of saving them.  The same code serves every
float dtype; float64 is what the gradient checks run on.

The model passes (heads, total, head_dim) views of token-major memory.  Each
output is allocated like its input, so it keeps that layout, and numpy hands
a block whose rows are contiguous to the same gemm either way: same bits.

Large calls run on the pinned worker pool of ``pool.py``, which the layer
stack in ``model.py`` shares.  The forward pass hands out query blocks,
which write disjoint output rows; a global or causal call hands out one
(query block, head) task per head, since its score blocks span whole
members, while window blocks stay whole, as their short blocks gain nothing
per head.  The backward pass hands out whole packed members, longest
first, which own disjoint dq/dk/dv rows, and walks a member's blocks in
order; a global or causal call with fewer members than
twice the workers hands out one (member, head) task per head instead.  Block
boundaries never depend on the worker count, and a head's arithmetic is the
same alone or beside the others, so the results are bit-identical for any
count.
"""

from __future__ import annotations

import functools

import numpy as np

from . import pool
from .packing import KIND_CAUSAL, KIND_GLOBAL, KIND_WINDOW, check_mask

BLOCK = 128
# A window block of b rows scores b * (b + w) keys, of which about b * (w + 1)
# are visible, so shorter blocks waste less on window layers.
WINDOW_BLOCK = 64
# Calls that score fewer query-key pairs than this (heads x sum over blocks of
# rows x keys) run in the caller: below it, a kernel-only sweep on a 2-vCPU
# machine found waking the pool cost more than it saved.
PARALLEL_MIN_PAIRS = 1 << 17


def _blocks(boundaries, kind, window):
    """Per packed member, its (i0, i1, j0, j1): query blocks and the key spans they may see."""
    check_mask(kind, window)
    half = window // 2
    step = WINDOW_BLOCK if kind == KIND_WINDOW else BLOCK
    b = np.asarray(boundaries).tolist()
    members = []
    for lo, hi in zip(b[:-1], b[1:]):
        blocks = []
        for i0 in range(lo, hi, step):
            i1 = min(i0 + step, hi)
            if kind == KIND_WINDOW:
                blocks.append((i0, i1, max(lo, i0 - half), min(hi, i1 + half)))
            elif kind == KIND_CAUSAL:
                blocks.append((i0, i1, lo, i1))
            else:
                blocks.append((i0, i1, lo, hi))
        members.append(blocks)
    return members


def _pairs(heads, members) -> int:
    return heads * sum((i1 - i0) * (j1 - j0) for m in members for i0, i1, j0, j1 in m)


@functools.lru_cache(maxsize=256)
def _blocked(kind, half, offset, rows, cols):
    """Masked keys of a block whose first query sits ``offset`` keys into its span.

    Depends on the block's shape and offset only, so the interior blocks of
    every member share one mask.  Causal masks cover the diagonal tile only.
    """
    if kind == KIND_CAUSAL:
        d = np.arange(cols - offset)[None, :] - np.arange(rows)[:, None]
        blocked = d > 0
    else:
        d = np.arange(cols)[None, :] - np.arange(offset, offset + rows)[:, None]
        blocked = np.abs(d) > half
    blocked.flags.writeable = False
    return blocked


def _exp_scores(qb, k, i0, i1, j0, j1, kind, window):
    """exp(scores - row max) of the scaled query block ``qb``, rows [i0, i1), over
    keys [j0, j1), and row sums."""
    scores = qb @ k[:, j0:j1].transpose(0, 2, 1)
    if kind != KIND_GLOBAL:
        # A causal block sees every key before i0; only its diagonal tile is masked.
        c0 = i0 - j0 if kind == KIND_CAUSAL else 0
        blocked = _blocked(kind, window // 2, i0 - j0, i1 - i0, j1 - j0)
        np.copyto(scores[:, :, c0:], -np.inf, where=blocked)
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    return scores, scores.sum(axis=-1, keepdims=True)


def _forward_block(q, k, v, out, scale, kind, window, block):
    i0, i1, j0, j1 = block
    e, sums = _exp_scores(q[:, i0:i1] * scale, k, i0, i1, j0, j1, kind, window)
    # Normalise the (heads, b, d) output rows, not the (heads, b, L) weights.
    np.divide(e @ v[:, j0:j1], sums, out=out[:, i0:i1])


def _backward_member(q, k, v, d_out, dq, dk, dv, scale, kind, window, blocks):
    for i0, i1, j0, j1 in blocks:
        qb = q[:, i0:i1] * scale  # with q scaled, dk needs no scale
        probs, sums = _exp_scores(qb, k, i0, i1, j0, j1, kind, window)
        probs /= sums
        g = d_out[:, i0:i1]
        dv[:, j0:j1] += probs.transpose(0, 2, 1) @ g
        d_scores = g @ v[:, j0:j1].transpose(0, 2, 1)
        d_scores -= (d_scores * probs).sum(axis=-1, keepdims=True)
        d_scores *= probs  # zero wherever masked: probs == 0 there
        dq[:, i0:i1] = d_scores @ k[:, j0:j1]
        dk[:, j0:j1] += d_scores.transpose(0, 2, 1) @ qb


def attn_forward(q, k, v, boundaries, kind, window, scale):
    """q, k, v: (heads, total, head_dim); returns the attention output, laid out like q."""
    members = _blocks(boundaries, kind, window)
    heads = q.shape[0]
    large = _pairs(heads, members) >= PARALLEL_MIN_PAIRS
    per_head = large and heads > 1 and kind != KIND_WINDOW
    split = [slice(h, h + 1) for h in range(heads)] if per_head else [slice(None)]
    tasks = [(h, blk) for m in members for blk in m for h in split]
    out = np.empty_like(q)

    def step(task):
        h, block = task
        _forward_block(q[h], k[h], v[h], out[h], scale, kind, window, block)

    pool._run(step, tasks, large)
    return out


def attn_backward(q, k, v, d_out, boundaries, kind, window, scale):
    """Recompute-based backward pass; returns (dq, dk, dv), each laid out like its input."""
    members = _blocks(boundaries, kind, window)
    heads = q.shape[0]
    large = _pairs(heads, members) >= PARALLEL_MIN_PAIRS
    # Longest first, so that the last task handed out is a short one.
    members.sort(key=lambda m: -_pairs(1, [m]))
    tasks = [(slice(None), m) for m in members]
    workers = pool._worker_count() if large else 1
    if workers > 1 and heads > 1 and kind != KIND_WINDOW and len(members) < 2 * workers:
        # Too few members to keep the workers busy: one task per head.  Window
        # members stay whole, since their short blocks gain nothing per head.
        tasks = [(slice(h, h + 1), m) for m in members for h in range(heads)]
    dq = np.empty_like(q)
    dk = np.zeros_like(k)
    dv = np.zeros_like(v)

    def step(task):
        h, blocks = task
        _backward_member(q[h], k[h], v[h], d_out[h], dq[h], dk[h], dv[h], scale, kind, window, blocks)

    pool._run(step, tasks, large)
    dq *= scale  # the scores' scale, taken once
    return dq, dk, dv
