"""Rotary embedding tables and the relative-position property."""

import numpy as np
import pytest

from packbert.rope import RopeTable, apply_rope, build_rope_table


@pytest.fixture(scope="module")
def table():
    return build_rope_table(theta=10000.0, head_dim=64, max_positions=256)


def test_position_zero_is_identity_exact(table):
    # angle(0, k) = 0 for every pair, so cos=1/sin=0 exactly in fp.
    assert np.all(table.cos[0] == 1.0)
    assert np.all(table.sin[0] == 0.0)
    rng = np.random.default_rng(0)
    v = rng.normal(size=(1, 64)).astype(np.float32)
    out = apply_rope(v, np.array([0]), table)
    np.testing.assert_array_equal(out, v)


def test_regeneration_bit_identical():
    a = build_rope_table(160000.0, 64, 512)
    b = build_rope_table(160000.0, 64, 512)
    np.testing.assert_array_equal(a.cos, b.cos)
    np.testing.assert_array_equal(a.sin, b.sin)


def test_angle_formula_against_direct_computation(table):
    # angle(p, k) = p * theta^(-2k/head_dim), checked in 64-bit.
    p, k = 37, 11
    angle = p * 10000.0 ** (-2.0 * k / 64)
    assert table.cos[p, k] == pytest.approx(np.cos(angle), abs=1e-12)
    assert table.sin[p, k] == pytest.approx(np.sin(angle), abs=1e-12)


def test_rotation_preserves_norm(table):
    rng = np.random.default_rng(1)
    v = rng.normal(size=(8, 64))
    pos = rng.integers(0, 256, size=8)
    out = apply_rope(v, pos, table)
    np.testing.assert_allclose(
        np.linalg.norm(out, axis=-1), np.linalg.norm(v, axis=-1), rtol=1e-12
    )


def test_inverse_is_true_inverse(table):
    rng = np.random.default_rng(2)
    v = rng.normal(size=(5, 64))
    pos = rng.integers(0, 256, size=5)
    back = apply_rope(apply_rope(v, pos, table), pos, table, inverse=True)
    np.testing.assert_allclose(back, v, atol=1e-12)


def test_relative_position_property_1000_draws():
    # <rot(q,p), rot(k,d)> depends on positions only through p-d.
    table = build_rope_table(10000.0, 32, 4096)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        q = rng.normal(size=32)
        k = rng.normal(size=32)
        p = int(rng.integers(0, 4096))
        d = int(rng.integers(0, 4096))
        shift = int(rng.integers(0, 4096 - max(p, d)))
        a = apply_rope(q[None], np.array([p]), table)[0] @ apply_rope(
            k[None], np.array([d]), table
        )[0]
        b = apply_rope(q[None], np.array([p + shift]), table)[0] @ apply_rope(
            k[None], np.array([d + shift]), table
        )[0]
        worst = max(worst, abs(a - b))
    assert worst <= 1e-6


def test_batched_shapes_match_loop(table):
    rng = np.random.default_rng(3)
    v = rng.normal(size=(2, 3, 7, 64)).astype(np.float64)  # (h, b, t, d)
    pos = rng.integers(0, 256, size=7)
    out = apply_rope(v, pos, table)
    assert out.shape == v.shape
    for h in range(2):
        for b in range(3):
            np.testing.assert_allclose(
                out[h, b], apply_rope(v[h, b], pos, table), atol=1e-12
            )


@pytest.mark.parametrize("inverse", (False, True), ids=("rotate", "inverse"))
@pytest.mark.parametrize("dtype", (np.float32, np.float64), ids=("f32", "f64"))
def test_head_first_view_of_token_major_memory(table, dtype, inverse):
    # The layer stack rotates (heads, T, head_dim) views of (T, heads, head_dim)
    # memory: read in place, with the contiguous call's bits, in the view's layout.
    rng = np.random.default_rng(8)
    view = rng.normal(size=(40, 4, 64)).astype(dtype).transpose(1, 0, 2)
    positions = rng.integers(0, 256, size=40)
    out = apply_rope(view, positions, table, inverse=inverse)
    assert out.dtype == dtype and out.strides == view.strides
    np.testing.assert_array_equal(
        out, apply_rope(np.ascontiguousarray(view), positions, table, inverse=inverse))


def test_input_without_a_contiguous_last_axis(table):
    rng = np.random.default_rng(9)
    v = rng.normal(size=(64, 10)).astype(np.float32).T  # (10, 64), last axis strided
    positions = np.arange(10)
    np.testing.assert_array_equal(apply_rope(v, positions, table),
                                  apply_rope(np.ascontiguousarray(v), positions, table))


def test_width_mismatch_rejected(table):
    with pytest.raises(ValueError):
        apply_rope(np.zeros((4, 32)), np.arange(4), table)


def test_position_out_of_range_rejected(table):
    with pytest.raises(ValueError):
        apply_rope(np.zeros((1, 64)), np.array([256]), table)


def test_odd_head_dim_rejected():
    with pytest.raises(ValueError):
        build_rope_table(10000.0, 63, 16)


def test_nonpositive_theta_rejected():
    with pytest.raises(ValueError):
        build_rope_table(0.0, 64, 16)


def test_table_kept_in_float64(table):
    # Full-precision master table; compute paths cast on use.
    assert isinstance(table, RopeTable)
    assert table.cos.dtype == np.float64
    assert table.sin.dtype == np.float64
    assert not table.cos.flags.writeable


def test_apply_preserves_input_dtype(table):
    for dt in (np.float32, np.float64):
        v = np.ones((2, 64), dtype=dt)
        out = apply_rope(v, np.array([3, 9]), table)
        assert out.dtype == dt


def test_distinct_thetas_give_distinct_tables():
    a = build_rope_table(10000.0, 64, 64)
    b = build_rope_table(160000.0, 64, 64)
    assert not np.array_equal(a.cos, b.cos)
