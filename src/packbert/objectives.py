"""Training objectives: MLM masking and loss, MNTP targets, InfoNCE.

``info_nce`` scores each query against in-batch negatives: every other
query's positive, plus any explicit negatives.

Loss functions return analytic gradients alongside the scalar so training
never needs a general autodiff graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

IGNORE = -100

MASK_POLICIES = ("all_mask", "bert_80_10_10")


@dataclass(frozen=True)
class MaskedBatch:
    corrupted_ids: np.ndarray
    labels: np.ndarray  # original id at masked positions, IGNORE elsewhere
    mask_positions: np.ndarray  # sorted indices


def mlm_mask(
    ids,
    rate: float,
    rng: np.random.Generator,
    special_ids,
    policy: str = "all_mask",
    mask_id: int | None = None,
    vocab_size: int | None = None,
) -> MaskedBatch:
    """Mask each non-special position independently with probability ``rate``.

    all_mask replaces every selected position with the MASK id.  The
    bert_80_10_10 policy replaces 80% with MASK, 10% with a random
    non-special id, and leaves 10% unchanged (labels still set).
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"rate must be in [0,1), got {rate}")
    if policy not in MASK_POLICIES:
        raise ValueError(f"unknown mask policy {policy!r}")
    if mask_id is None:
        raise ValueError("mask_id is required")
    ids = np.asarray(ids, dtype=np.int32)
    # A compare against the few special ids; np.isin would sort every call.
    special = (ids[..., None] == np.fromiter(special_ids, dtype=np.int32)).any(axis=-1)
    draw = rng.random(ids.shape)
    selected = (draw < rate) & ~special
    labels = np.full(ids.shape, IGNORE, dtype=np.int64)
    labels[selected] = ids[selected]
    corrupted = ids.copy()
    positions = np.flatnonzero(selected)
    if policy == "all_mask":
        corrupted[selected] = mask_id
    else:
        if vocab_size is None:
            raise ValueError("bert_80_10_10 requires vocab_size")
        choice = rng.random(positions.shape)
        special_set = np.fromiter(special_ids, dtype=np.int64)
        for p, c in zip(positions, choice):
            if c < 0.8:
                corrupted[p] = mask_id
            elif c < 0.9:
                while True:
                    r = int(rng.integers(0, vocab_size))
                    if r not in special_set:
                        corrupted[p] = r
                        break
            # else: leave unchanged
    return MaskedBatch(corrupted_ids=corrupted, labels=labels, mask_positions=positions)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def mlm_loss(logits: np.ndarray, labels: np.ndarray):
    """Mean cross-entropy over non-ignored positions.

    Returns (loss, d_logits); d_logits is zero at ignored rows.
    """
    labels = np.asarray(labels)
    active = labels != IGNORE
    n = int(active.sum())
    if n == 0:
        raise ValueError("mlm_loss requires at least one non-ignored label")
    all_active = n == labels.size
    rows = slice(None) if all_active else np.flatnonzero(active)
    z = logits[rows].astype(np.float64)
    gold = labels[rows]
    z -= z.max(axis=-1, keepdims=True)
    picked = (np.arange(n), gold)
    gold_z = z[picked]
    np.exp(z, out=z)
    sums = z.sum(axis=-1, keepdims=True)
    loss = float(np.mean(np.log(sums[:, 0]) - gold_z))
    z *= 1.0 / (sums * n)  # softmax / n
    z[picked] -= 1.0 / n
    if all_active:
        return loss, z.astype(logits.dtype)
    d = np.zeros_like(logits)
    d[rows] = z
    return loss, d


def mntp_targets(ids, mask_positions):
    """Shift masked targets one position left: logits at i-1 predict ids[i].

    A mask at position 0 has no predecessor and is dropped.
    """
    ids = np.asarray(ids)
    pos = np.asarray(mask_positions, dtype=np.int64)
    kept = pos[pos > 0]
    return kept - 1, ids[kept].astype(np.int64)


def _normalize_rows(x: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    if np.any(norms == 0):
        raise ValueError(f"zero-norm vector in {what}")
    return x / norms, norms


def info_nce(
    query_vecs: np.ndarray,
    positive_vecs: np.ndarray,
    negative_vecs: np.ndarray | None = None,
    temperature: float = 0.05,
    with_grads: bool = False,
):
    """Contrastive loss: each query against its positive vs the other candidates.

    Candidates per query: all in-batch positives (own positive is the target
    class) plus all explicit negatives, as in LLM2Vec's contrastive step.
    Similarities are cosine divided by ``temperature``; loss is the mean
    cross-entropy.  With with_grads=True returns
    (loss, d_query, d_positive, d_negative).
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    q = np.asarray(query_vecs, dtype=np.float64)
    p = np.asarray(positive_vecs, dtype=np.float64)
    if q.ndim != 2 or p.shape != q.shape:
        raise ValueError("query and positive vectors must share shape (batch, dim)")
    b = q.shape[0]
    if b < 2:
        raise ValueError(f"batch must be >= 2, got {b}")
    n = None
    if negative_vecs is not None and np.size(negative_vecs):
        n = np.asarray(negative_vecs, dtype=np.float64)
        if n.ndim == 3:  # per-query negatives pool together as shared candidates
            n = n.reshape(-1, n.shape[-1])
        if n.ndim != 2 or n.shape[1] != q.shape[1]:
            raise ValueError("negatives must be (count, dim)")
    qh, qn = _normalize_rows(q, "queries")
    ph, pn = _normalize_rows(p, "positives")
    if n is not None:
        nh, nn = _normalize_rows(n, "negatives")

    cand = np.concatenate([ph, nh]) if n is not None else ph
    gold = np.arange(b)
    sims = (qh @ cand.T) / temperature
    logp = _log_softmax(sims)
    loss = -logp[gold, gold].mean()
    if not with_grads:
        return float(loss)
    soft = np.exp(logp)
    soft[gold, gold] -= 1.0
    soft /= b
    d_qh = (soft @ cand) / temperature
    d_cand = (soft.T @ qh) / temperature

    def back_through_norm(d_hat, x_hat, norm):
        inner = (d_hat * x_hat).sum(axis=-1, keepdims=True)
        return (d_hat - x_hat * inner) / norm

    d_q = back_through_norm(d_qh, qh, qn)
    d_p = back_through_norm(d_cand[:b], ph, pn)
    d_n = back_through_norm(d_cand[b:], nh, nn) if n is not None else None
    return float(loss), d_q, d_p, d_n
