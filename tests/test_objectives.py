"""Loss functions: masking statistics, cross-entropy analytics, InfoNCE."""

import math

import numpy as np
import pytest

from packbert.objectives import (
    IGNORE,
    MaskedBatch,
    info_nce,
    mlm_loss,
    mlm_mask,
    mntp_targets,
)

SPECIALS = frozenset({0, 1, 2, 3, 4})
MASK_ID = 4


def rand_ids(rng, n, lo=5, hi=100):
    return rng.integers(lo, hi, size=n, dtype=np.int32)


# --- mlm_mask ---


def test_rate_zero_masks_nothing():
    rng = np.random.default_rng(0)
    ids = rand_ids(rng, 50)
    out = mlm_mask(ids, 0.0, rng, SPECIALS, mask_id=MASK_ID)
    assert out.mask_positions.size == 0
    assert np.all(out.labels == IGNORE)
    np.testing.assert_array_equal(out.corrupted_ids, ids)


def test_masked_count_within_binomial_bound():
    # 10,000 positions at rate 0.3: 3 sigma = 3*sqrt(n*p*(1-p)) ~ 137.
    rng = np.random.default_rng(1)
    ids = rand_ids(rng, 10_000)
    out = mlm_mask(ids, 0.3, rng, SPECIALS, mask_id=MASK_ID)
    assert abs(out.mask_positions.size - 3000) <= 3 * math.sqrt(10_000 * 0.3 * 0.7)


def test_mask_rate_monte_carlo():
    total = masked = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        ids = rand_ids(rng, 1000)
        out = mlm_mask(ids, 0.3, rng, SPECIALS, mask_id=MASK_ID)
        total += 1000
        masked += out.mask_positions.size
    assert abs(masked / total - 0.3) < 0.005


def test_specials_never_masked_1000_batches():
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        ids = rand_ids(rng, 64, lo=0, hi=100)  # includes special ids
        out = mlm_mask(ids, 0.5, rng, SPECIALS, mask_id=MASK_ID)
        special_slots = np.isin(ids, list(SPECIALS))
        assert not np.any(special_slots[out.mask_positions])
        np.testing.assert_array_equal(
            out.corrupted_ids[special_slots], ids[special_slots]
        )


def test_all_mask_policy_replaces_with_mask_id():
    rng = np.random.default_rng(2)
    ids = rand_ids(rng, 500)
    out = mlm_mask(ids, 0.4, rng, SPECIALS, policy="all_mask", mask_id=MASK_ID)
    assert np.all(out.corrupted_ids[out.mask_positions] == MASK_ID)
    untouched = np.setdiff1d(np.arange(500), out.mask_positions)
    np.testing.assert_array_equal(out.corrupted_ids[untouched], ids[untouched])


def test_labels_hold_original_ids():
    rng = np.random.default_rng(3)
    ids = rand_ids(rng, 200)
    out = mlm_mask(ids, 0.3, rng, SPECIALS, mask_id=MASK_ID)
    np.testing.assert_array_equal(out.labels[out.mask_positions],
                                  ids[out.mask_positions])
    others = np.setdiff1d(np.arange(200), out.mask_positions)
    assert np.all(out.labels[others] == IGNORE)


def test_bert_policy_produces_three_outcomes():
    rng = np.random.default_rng(4)
    ids = rand_ids(rng, 20_000)
    out = mlm_mask(ids, 0.3, rng, SPECIALS, policy="bert_80_10_10",
                   mask_id=MASK_ID, vocab_size=100)
    got = out.corrupted_ids[out.mask_positions]
    orig = ids[out.mask_positions]
    n = got.size
    frac_mask = np.mean(got == MASK_ID)
    frac_same = np.mean(got == orig)
    assert abs(frac_mask - 0.8) < 0.02
    # "same" collects the 10% unchanged plus random draws that hit the
    # original id by chance (~1%).
    assert 0.07 < frac_same < 0.15
    assert np.any((got != MASK_ID) & (got != orig))
    assert n > 5000


def test_bad_rate_rejected():
    rng = np.random.default_rng(5)
    ids = rand_ids(rng, 10)
    for rate in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            mlm_mask(ids, rate, rng, SPECIALS, mask_id=MASK_ID)


def test_mask_deterministic_given_rng_state():
    ids = rand_ids(np.random.default_rng(0), 300)
    a = mlm_mask(ids, 0.3, np.random.default_rng(7), SPECIALS, mask_id=MASK_ID)
    b = mlm_mask(ids, 0.3, np.random.default_rng(7), SPECIALS, mask_id=MASK_ID)
    np.testing.assert_array_equal(a.corrupted_ids, b.corrupted_ids)
    np.testing.assert_array_equal(a.mask_positions, b.mask_positions)


# --- mlm_loss ---


def test_uniform_logits_give_ln_v():
    v = 73
    logits = np.zeros((5, v))
    labels = np.array([3, 9, 0, 72, 10])
    loss, _ = mlm_loss(logits, labels)
    assert loss == pytest.approx(math.log(v), abs=1e-12)


def test_one_hot_margin_monotone():
    losses = []
    for margin in (1.0, 5.0, 10.0):
        logits = np.zeros((1, 10))
        logits[0, 4] = margin
        loss, _ = mlm_loss(logits, np.array([4]))
        losses.append(loss)
    assert losses[0] > losses[1] > losses[2]
    assert losses[2] < 1e-3


def test_ignored_positions_contribute_nothing():
    rng = np.random.default_rng(6)
    logits = rng.normal(size=(4, 12))
    labels = np.array([3, IGNORE, 7, IGNORE])
    loss, d = mlm_loss(logits, labels)
    small_loss, _ = mlm_loss(logits[[0, 2]], labels[[0, 2]])
    assert loss == pytest.approx(small_loss, abs=1e-12)
    assert np.all(d[[1, 3]] == 0.0)


def test_loss_matches_brute_force():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(6, 9))
    labels = rng.integers(0, 9, size=6)
    loss, _ = mlm_loss(logits, labels)
    per_pos = []
    for i in range(6):
        p = np.exp(logits[i]) / np.exp(logits[i]).sum()
        per_pos.append(-math.log(p[labels[i]]))
    assert loss == pytest.approx(np.mean(per_pos), abs=1e-7)


def test_no_active_labels_rejected():
    with pytest.raises(ValueError):
        mlm_loss(np.zeros((3, 5)), np.full(3, IGNORE))


def test_loss_gradient_matches_fd():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(4, 7))
    labels = np.array([2, IGNORE, 5, 0])
    _, d = mlm_loss(logits, labels)
    eps = 1e-6
    for idx in ((0, 3), (2, 5), (3, 0)):
        up, dn = logits.copy(), logits.copy()
        up[idx] += eps
        dn[idx] -= eps
        fd = (mlm_loss(up, labels)[0] - mlm_loss(dn, labels)[0]) / (2 * eps)
        assert abs(fd - d[idx]) < 1e-8


def _one_shot_mlm_loss(logits, labels):
    """The loss and gradient with the whole float64 softmax taken at once."""
    active = labels != IGNORE
    n = int(active.sum())
    z = logits[active].astype(np.float64)
    picked = (np.arange(n), labels[active])
    z -= z.max(axis=-1, keepdims=True)
    gold_z = z[picked]
    np.exp(z, out=z)
    sums = z.sum(axis=-1, keepdims=True)
    loss = float(np.mean(np.log(sums[:, 0]) - gold_z))
    z *= 1.0 / (sums * n)
    z[picked] -= 1.0 / n
    d = np.zeros_like(logits)
    d[active] = z
    return loss, d


@pytest.mark.parametrize("ignored", (False, True), ids=("all_active", "with_ignored"))
@pytest.mark.parametrize("n", (1, 255, 256, 257, 3 * 256 + 5))
def test_chunked_loss_equals_one_shot_bit_for_bit(n, ignored):
    # mlm_loss takes its rows at once; the trainer hands it row chunks of the
    # head (tests/test_trainer.py), and each row's bits are its own.
    vocab = 4096
    rng = np.random.default_rng(n)
    rows = 2 * n + 3 if ignored else n
    logits = (rng.normal(size=(rows, vocab)) * 4).astype(np.float32)
    labels = rng.integers(0, vocab, size=rows)
    if ignored:
        labels[rng.permutation(rows)[n:]] = IGNORE
    loss, d = mlm_loss(logits, labels)
    want_loss, want_d = _one_shot_mlm_loss(logits, labels)
    assert loss == want_loss
    assert d.dtype == np.float32 and d.tobytes() == want_d.tobytes()


# --- mntp_targets ---


def test_mntp_shifts_left_by_one():
    ids = np.array([10, 11, 12, 13, 14], dtype=np.int32)
    rows, labels = mntp_targets(ids, np.array([2, 4]))
    np.testing.assert_array_equal(rows, [1, 3])
    np.testing.assert_array_equal(labels, [12, 14])


def test_mntp_drops_position_zero():
    ids = np.array([10, 11, 12], dtype=np.int32)
    rows, labels = mntp_targets(ids, np.array([0, 2]))
    np.testing.assert_array_equal(rows, [1])
    np.testing.assert_array_equal(labels, [12])


def test_mntp_count_relation():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 50))
        ids = rand_ids(rng, n)
        k = int(rng.integers(1, n))
        pos = np.sort(rng.choice(n, size=k, replace=False))
        rows, labels = mntp_targets(ids, pos)
        expect = k - (1 if 0 in pos else 0)
        assert rows.size == labels.size == expect


def test_mntp_empty_mask():
    rows, labels = mntp_targets(np.array([1, 2, 3]), np.array([], dtype=np.int64))
    assert rows.size == 0 and labels.size == 0


# --- info_nce ---


def test_identical_similarities_give_ln_n():
    # 64 pairs + one extra negative each: candidate pool is 128 per query.
    q = np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (64, 1))
    pos = q.copy()
    negs = np.tile(q[None, 0], (64, 1, 1))
    loss = info_nce(q, pos, negs, temperature=0.05)
    assert loss == pytest.approx(math.log(128), abs=1e-9)
    assert round(loss, 4) == 4.8520


def test_strong_positive_drives_loss_to_zero():
    rng = np.random.default_rng(10)
    d = 8
    q = rng.normal(size=(4, d))
    pos = q * 10.0  # cosine 1 with own positive
    negs = -q[:, None, :] + rng.normal(size=(4, 3, d)) * 0.01
    loss = info_nce(q, pos, negs, temperature=0.01)
    assert loss < 1e-6


def test_negative_permutation_invariance():
    rng = np.random.default_rng(11)
    q = rng.normal(size=(3, 5))
    pos = rng.normal(size=(3, 5))
    negs = rng.normal(size=(3, 4, 5))
    loss_a = info_nce(q, pos, negs, temperature=0.05)
    loss_b = info_nce(q, pos, negs[:, ::-1], temperature=0.05)
    assert loss_a == pytest.approx(loss_b, abs=1e-12)


def test_single_query_rejected():
    q = np.ones((1, 4))
    with pytest.raises(ValueError):
        info_nce(q, q, np.ones((1, 1, 4)), temperature=0.05)


def test_info_nce_gradients_match_fd():
    rng = np.random.default_rng(12)
    q = rng.normal(size=(3, 6))
    pos = rng.normal(size=(3, 6))
    negs = rng.normal(size=(3, 2, 6))
    _, dq, dpos, dnegs = info_nce(q, pos, negs, temperature=0.05, with_grads=True)
    eps = 1e-6

    def f(q_, p_, n_):
        return info_nce(q_, p_, n_, temperature=0.05)

    for arr, grad in ((q, dq), (pos, dpos), (negs, dnegs)):
        flat = arr.reshape(-1)
        gflat = np.asarray(grad).reshape(-1)
        for i in rng.choice(flat.size, size=4, replace=False):
            orig = flat[i]
            flat[i] = orig + eps
            up = f(q, pos, negs)
            flat[i] = orig - eps
            dn = f(q, pos, negs)
            flat[i] = orig
            fd = (up - dn) / (2 * eps)
            assert abs(fd - gflat[i]) <= 1e-4 * max(1.0, abs(fd))


def test_info_nce_uses_cosine_not_raw_dot():
    # Scaling all vectors must not change the loss.
    rng = np.random.default_rng(13)
    q = rng.normal(size=(3, 5))
    pos = rng.normal(size=(3, 5))
    negs = rng.normal(size=(3, 2, 5))
    a = info_nce(q, pos, negs, temperature=0.05)
    b = info_nce(q * 7, pos * 3, negs * 0.5, temperature=0.05)
    assert a == pytest.approx(b, abs=1e-10)


def test_masked_batch_type_fields():
    rng = np.random.default_rng(14)
    ids = rand_ids(rng, 30)
    out = mlm_mask(ids, 0.3, rng, SPECIALS, mask_id=MASK_ID)
    assert isinstance(out, MaskedBatch)
    assert out.corrupted_ids.shape == ids.shape
    assert out.labels.shape == ids.shape
