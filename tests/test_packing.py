"""Packed batches, boundaries, local positions, and mask kinds."""

import numpy as np
import pytest

from packbert.errors import DataError
from packbert.packing import (
    KIND_CAUSAL,
    KIND_GLOBAL,
    KIND_WINDOW,
    PackedBatch,
    check_mask,
    local_positions,
    mask_matrix,
    pack,
    unpack,
)


def test_pack_three_sequences():
    seqs = [np.arange(3, dtype=np.int32),
            np.arange(5, dtype=np.int32) + 10,
            np.arange(2, dtype=np.int32) + 40]
    batch = pack(seqs)
    assert batch.tokens.dtype == np.int32
    assert batch.boundaries.dtype == np.int64
    np.testing.assert_array_equal(batch.boundaries, [0, 3, 8, 10])
    assert batch.total_tokens == 10
    assert batch.n_seqs == 3
    assert batch.max_member_len == 5


def test_boundaries_strictly_increasing_start_zero():
    rng = np.random.default_rng(5)
    for _ in range(50):
        seqs = [rng.integers(0, 99, size=rng.integers(1, 9), dtype=np.int32)
                for _ in range(rng.integers(1, 7))]
        b = pack(seqs).boundaries
        assert b[0] == 0
        assert np.all(np.diff(b) > 0)
        assert b[-1] == sum(len(s) for s in seqs)


def test_unpack_inverts_pack():
    rng = np.random.default_rng(3)
    seqs = [rng.integers(0, 99, size=n, dtype=np.int32) for n in (4, 1, 7)]
    out = unpack(pack(seqs))
    assert len(out) == 3
    for a, b in zip(seqs, out):
        np.testing.assert_array_equal(a, b)


def test_member_view(rand_batch):
    parts = unpack(rand_batch)
    for s in range(rand_batch.n_seqs):
        np.testing.assert_array_equal(rand_batch.member(s), parts[s])


def test_local_positions_restart_per_member():
    b = np.array([0, 3, 5, 9], dtype=np.int64)
    np.testing.assert_array_equal(
        local_positions(b), [0, 1, 2, 0, 1, 0, 1, 2, 3]
    )


def test_positions_property_matches_local_positions(rand_batch):
    np.testing.assert_array_equal(
        rand_batch.positions, local_positions(rand_batch.boundaries)
    )


def test_pack_rejects_empty_batch():
    with pytest.raises(DataError):
        pack([])


def test_pack_rejects_empty_member():
    with pytest.raises(DataError):
        pack([np.array([1], dtype=np.int32), np.array([], dtype=np.int32)])


def test_pack_rejects_negative_ids():
    with pytest.raises(DataError):
        pack([np.array([1, -2], dtype=np.int32)])


def test_bad_boundaries_rejected():
    # The packed path's one check on boundaries: attention kernels trust them.
    tokens = np.zeros(6, dtype=np.int32)
    for bad in ([0, 3], [1, 6], [0, 4, 3, 6], [0, 6, 6]):
        with pytest.raises(ValueError):
            PackedBatch(tokens=tokens, boundaries=np.array(bad, dtype=np.int64), max_member_len=6)


def test_lengths_property():
    seqs = [np.zeros(n, dtype=np.int32) for n in (2, 6, 3)]
    np.testing.assert_array_equal(pack(seqs).lengths, [2, 6, 3])


# --- mask kinds ---


def test_window_spec_requires_window():
    for window in (0, -2, 7):
        with pytest.raises(ValueError):
            check_mask(KIND_WINDOW, window)
    check_mask(KIND_WINDOW, 8)
    check_mask(KIND_GLOBAL, 0)
    check_mask(KIND_CAUSAL, 0)


def test_unknown_kind_rejected():
    for kind in (3, -1):
        with pytest.raises(ValueError):
            check_mask(kind, 0)
        with pytest.raises(ValueError):
            mask_matrix(4, kind, 0)


def test_global_allows_everything():
    m = mask_matrix(6, KIND_GLOBAL, 0)
    assert m.shape == (6, 6) and m.all()


def test_causal_allows_past_only():
    i, j = np.indices((6, 6))
    np.testing.assert_array_equal(mask_matrix(6, KIND_CAUSAL, 0), j <= i)


def test_window_half_width_inclusive():
    i, j = np.indices((12, 12))
    np.testing.assert_array_equal(mask_matrix(12, KIND_WINDOW, 8), np.abs(i - j) <= 4)


def test_window_allowed_set_symmetric():
    m = mask_matrix(10, KIND_WINDOW, 6)
    np.testing.assert_array_equal(m, m.T)
    assert not m.all()


def test_mask_matrix_partial_queries():
    m = mask_matrix(5, KIND_CAUSAL, 0)[:2]
    assert m.shape == (2, 5)
    expect = np.array([[1, 0, 0, 0, 0], [1, 1, 0, 0, 0]], dtype=bool)
    np.testing.assert_array_equal(m, expect)
