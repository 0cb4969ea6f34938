"""Attention kernels: dense oracles, block edges, worker pool, isolation,
causal witnesses, and the padded path's dense attention."""

import os
import sys
import threading

import numpy as np
import pytest

from packbert import kernels, pool
from packbert.model import attention_padded, padded_mask
from packbert.packing import KIND_CAUSAL, KIND_GLOBAL, KIND_WINDOW, mask_matrix

from conftest import traced_peak

# Masks as the kernels take them: (kind, window).
GLOBAL = (KIND_GLOBAL, 0)
WINDOW = (KIND_WINDOW, 8)
CAUSAL = (KIND_CAUSAL, 0)
ALL_MASKS = (GLOBAL, WINDOW, CAUSAL)
ALL_IDS = ("global_bidirectional", "sliding_window", "causal")


def attn(q, k, v, mask, boundaries, scale):
    return kernels.attn_forward(q, k, v, boundaries, *mask, scale)


def attn_vjp(q, k, v, d_out, mask, boundaries, scale):
    return kernels.attn_backward(q, k, v, d_out, boundaries, *mask, scale)


def whole(total):
    """Boundaries of a single member of ``total`` tokens."""
    return np.array([0, total], dtype=np.int64)


def rand_qkv(rng, heads, total, dim, dtype=np.float32):
    shape = (heads, total, dim)
    return (rng.normal(size=shape).astype(dtype),
            rng.normal(size=shape).astype(dtype),
            rng.normal(size=shape).astype(dtype))


def brute_force(q, k, v, mask, boundaries, scale):
    """Dense per-member softmax in float64; the independent oracle."""
    h, total, d = q.shape
    out = np.zeros((h, total, d))
    for s in range(len(boundaries) - 1):
        lo, hi = int(boundaries[s]), int(boundaries[s + 1])
        n = hi - lo
        m = mask_matrix(n, *mask)
        for head in range(h):
            scores = (q[head, lo:hi].astype(np.float64)
                      @ k[head, lo:hi].astype(np.float64).T) * scale
            scores[~m] = -np.inf
            scores -= scores.max(axis=1, keepdims=True)
            p = np.exp(scores)
            p /= p.sum(axis=1, keepdims=True)
            out[head, lo:hi] = p @ v[head, lo:hi].astype(np.float64)
    return out


def brute_force_vjp(q, k, v, d_out, mask, boundaries, scale):
    """Dense per-member attention gradients (dq, dk, dv) in float64."""
    q, k, v, d_out = (x.astype(np.float64) for x in (q, k, v, d_out))
    dq, dk, dv = np.zeros_like(q), np.zeros_like(k), np.zeros_like(v)
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        m = mask_matrix(hi - lo, *mask)
        scores = (q[:, lo:hi] @ k[:, lo:hi].transpose(0, 2, 1)) * scale
        scores[:, ~m] = -np.inf
        p = np.exp(scores - scores.max(axis=-1, keepdims=True))
        p /= p.sum(axis=-1, keepdims=True)
        g = d_out[:, lo:hi]
        dv[:, lo:hi] = p.transpose(0, 2, 1) @ g
        dp = g @ v[:, lo:hi].transpose(0, 2, 1)
        ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True)) * scale
        dq[:, lo:hi] = ds @ k[:, lo:hi]
        dk[:, lo:hi] = ds.transpose(0, 2, 1) @ q[:, lo:hi]
    return dq, dk, dv


@pytest.fixture(scope="module")
def boundaries():
    return np.array([0, 7, 12, 30], dtype=np.int64)


@pytest.mark.parametrize("mask", ALL_MASKS, ids=ALL_IDS)
def test_forward_matches_brute_force(mask, boundaries):
    rng = np.random.default_rng(0)
    q, k, v = rand_qkv(rng, 2, 30, 16)
    scale = 1.0 / 4.0
    got = attn(q, k, v, mask, boundaries, scale)
    want = brute_force(q, k, v, mask, boundaries, scale)
    np.testing.assert_allclose(got, want, atol=2e-6)


# Members on both sides of the 64-row window block and of the 128-row block of
# the other kinds, and one spanning several blocks; windows far narrower than a
# block, and one wider than most members.
EDGE_LENGTHS = (1, 63, 64, 65, 127, 128, 129, 300)
EDGE_MASKS = (GLOBAL, CAUSAL, (KIND_WINDOW, 2), (KIND_WINDOW, 8), (KIND_WINDOW, 256))
EDGE_IDS = ("global_bidirectional", "causal", "window2", "window8", "window256")
# dtype -> (forward atol, backward atol) against the float64 oracle.
EDGE_TOL = {np.float32: (2e-6, 1e-5), np.float64: (1e-12, 1e-11)}


@pytest.fixture(scope="module")
def edge_boundaries():
    return np.concatenate([[0], np.cumsum(EDGE_LENGTHS)]).astype(np.int64)


@pytest.mark.parametrize("dtype", (np.float32, np.float64), ids=("f32", "f64"))
@pytest.mark.parametrize("mask", EDGE_MASKS, ids=EDGE_IDS)
def test_block_edges_forward_matches_brute_force(mask, dtype, edge_boundaries):
    rng = np.random.default_rng(14)
    q, k, v = rand_qkv(rng, 2, int(edge_boundaries[-1]), 16, dtype=dtype)
    got = attn(q, k, v, mask, edge_boundaries, 0.25)
    assert got.dtype == dtype
    want = brute_force(q, k, v, mask, edge_boundaries, 0.25)
    np.testing.assert_allclose(got, want, rtol=0, atol=EDGE_TOL[dtype][0])


@pytest.mark.parametrize("dtype", (np.float32, np.float64), ids=("f32", "f64"))
@pytest.mark.parametrize("mask", EDGE_MASKS, ids=EDGE_IDS)
def test_block_edges_backward_matches_brute_force(mask, dtype, edge_boundaries):
    rng = np.random.default_rng(15)
    q, k, v = rand_qkv(rng, 2, int(edge_boundaries[-1]), 16, dtype=dtype)
    d_out = rng.normal(size=q.shape).astype(dtype)
    got = attn_vjp(q, k, v, d_out, mask, edge_boundaries, 0.25)
    want = brute_force_vjp(q, k, v, d_out, mask, edge_boundaries, 0.25)
    for name, g, w in zip("qkv", got, want):
        assert g.dtype == dtype, name
        np.testing.assert_allclose(g, w, rtol=0, atol=EDGE_TOL[dtype][1], err_msg=name)


@pytest.mark.parametrize("mask", EDGE_MASKS[:3], ids=EDGE_IDS[:3])
def test_long_member_backward_matches_finite_differences(mask):
    # One 300-token member: three query blocks, so dk and dv sum over blocks.
    rng = np.random.default_rng(16)
    h, t, d = 1, 300, 4
    q, k, v = (rng.normal(size=(h, t, d)) for _ in range(3))
    d_out = rng.normal(size=(h, t, d))
    b, scale = whole(t), 0.5
    grads = dict(zip("qkv", attn_vjp(q, k, v, d_out, mask, b, scale)))
    eps = 1e-6
    for name in "qkv":
        for pos in (0, 127, 128, 200, 299):
            idx = (0, pos, int(rng.integers(d)))
            inputs = {"q": q, "k": k, "v": v}
            sides = []
            for sign in (1, -1):
                moved = inputs[name].copy()
                moved[idx] += sign * eps
                args = {**inputs, name: moved}
                sides.append(float(np.sum(attn(args["q"], args["k"], args["v"], mask, b, scale) * d_out)))
            fd = (sides[0] - sides[1]) / (2 * eps)
            assert abs(fd - grads[name][idx]) <= 1e-6 * max(1.0, abs(fd)), (name, pos)


def test_global_memory_is_bounded_by_a_query_block(pool_workers):
    # One L x L float32 score matrix at L = 4096 is 64 MiB; each worker holds
    # only a 128-row block of it at a time.
    rng = np.random.default_rng(17)
    q, k, v = rand_qkv(rng, 1, 4096, 16)
    d_out = rng.normal(size=q.shape).astype(np.float32)

    def forward_and_backward():
        attn(q, k, v, GLOBAL, whole(4096), 0.25)
        attn_vjp(q, k, v, d_out, GLOBAL, whole(4096), 0.25)

    for workers in (1, 2):
        pool_workers(workers)
        _, _, peak = traced_peak(forward_and_backward)
        assert peak < 16 * 2**20, f"{workers} workers: peak {peak / 2**20:.1f} MiB"


def test_global_forward_holds_one_head_score_block_per_worker(pool_workers):
    # The moderngbert_134m shape: 12 heads of 64 over one 8,192-token member.
    # A 128-row score block of every head is 48 MiB; one head's is 4 MiB.  One
    # worker, as two would share the CPUs with a multi-threaded BLAS here.
    rng = np.random.default_rng(19)
    q, k, v = rand_qkv(rng, 12, 8192, 64)
    pool_workers(1)
    out, _, peak = traced_peak(lambda: attn(q, k, v, GLOBAL, whole(8192), 0.125))
    assert out.nbytes == 24 * 2**20
    assert peak < 48 * 2**20, f"peak {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize("dtype", (np.float32, np.float64), ids=("f32", "f64"))
@pytest.mark.parametrize("mask", ALL_MASKS, ids=ALL_IDS)
def test_forward_head_tasks_match_whole_blocks_bit_for_bit(mask, dtype, pool_workers):
    # Global and causal calls run one (query block, head) task per head; a
    # whole block scores all heads in one batched product.
    b = np.array([0, 300, 700, 1200], dtype=np.int64)
    rng = np.random.default_rng(20)
    q, k, v = rand_qkv(rng, 4, 1200, 16, dtype=dtype)
    want = np.empty_like(q)
    for member in kernels._blocks(b, *mask):
        for block in member:
            kernels._forward_block(q, k, v, want, 0.3, *mask, block)
    for workers in (1, 2):
        pool_workers(workers)
        assert np.array_equal(attn(q, k, v, mask, b, 0.3), want), workers


# --- worker pool ---

POOL_LAYOUTS = {
    "one_long": (1000,),
    "sixteen_short": (24, 40, 31, 17, 38, 29, 33, 26, 40, 35, 22, 30, 39, 27, 36, 25),
    "edges": EDGE_LENGTHS,
    # Fewer members than twice the workers: global and causal backward passes
    # hand out one task per head, which must match the whole member's bits.
    "one_long_4_heads": (1000,),
    "three_4_heads": (300, 700, 500),
    # Head-first views of (tokens, heads, head_dim) memory, as the layer stack
    # passes them: the same bits as contiguous copies, in the views' layout.
    "one_long_4_heads_token_major": (1000,),
    "three_4_heads_token_major": (100, 300, 200),
    "three_1_head_token_major": (100, 300, 200),
}
POOL_HEADS = {"one_long_4_heads": 4, "three_4_heads": 4, "one_long_4_heads_token_major": 4,
              "three_4_heads_token_major": 4, "three_1_head_token_major": 1}


@pytest.mark.parametrize("layout", POOL_LAYOUTS)
@pytest.mark.parametrize("dtype", (np.float32, np.float64), ids=("f32", "f64"))
@pytest.mark.parametrize("mask", ALL_MASKS, ids=ALL_IDS)
def test_pool_matches_serial_bit_for_bit(mask, dtype, layout, pool_workers):
    lengths = POOL_LAYOUTS[layout]
    b = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    rng = np.random.default_rng(18)
    q, k, v = rand_qkv(rng, POOL_HEADS.get(layout, 2), int(b[-1]), 16, dtype=dtype)
    d_out = rng.normal(size=q.shape).astype(dtype)
    arrays = (q, k, v, d_out)
    if layout.endswith("token_major"):
        arrays = tuple(np.ascontiguousarray(x.transpose(1, 0, 2)).transpose(1, 0, 2)
                       for x in arrays)

    def run(q, k, v, d_out):
        out = kernels.attn_forward(q, k, v, b, *mask, 0.3)
        return (out, *kernels.attn_backward(q, k, v, d_out, b, *mask, 0.3))

    pool_workers(1)
    serial = run(q, k, v, d_out)
    for workers in (1, 2, 3):
        pool_workers(workers)
        for name, got, want in zip(("out", "dq", "dk", "dv"), run(*arrays), serial):
            assert got.dtype == dtype
            assert got.strides == arrays[0].strides, (workers, name)  # the input's layout
            assert np.array_equal(got, want), (workers, name)
    assert pool._pool[0] == 3  # the last calls ran on a pool of three


def test_pool_stress_with_more_workers_than_cpus(pool_workers):
    # Many small members and a short switch interval: a lost update of a
    # shared dk/dv row, or two workers taking one task, changes the bits.
    rng = np.random.default_rng(21)
    lengths = rng.integers(1, 70, size=120)
    b = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    q, k, v = rand_qkv(rng, 2, int(b[-1]), 8)
    d_out = rng.normal(size=q.shape).astype(np.float32)
    mask = (KIND_WINDOW, 16)
    pool_workers(1)
    want = kernels.attn_backward(q, k, v, d_out, b, *mask, 0.5)
    pool_workers((os.cpu_count() or 1) + 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            got = kernels.attn_backward(q, k, v, d_out, b, *mask, 0.5)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
    finally:
        sys.setswitchinterval(interval)


def test_worker_exception_surfaces_from_the_call(pool_workers, monkeypatch):
    pool_workers(2)
    rng = np.random.default_rng(19)
    q, k, v = rand_qkv(rng, 2, 400, 8)
    b = np.array([0, 150, 400], dtype=np.int64)
    serial = kernels.attn_forward(q, k, v, b, *GLOBAL, 0.5)
    real = kernels._exp_scores

    def fail_off_main_thread(*args):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("worker failed")
        return real(*args)

    monkeypatch.setattr(kernels, "_exp_scores", fail_off_main_thread)
    with pytest.raises(RuntimeError, match="worker failed"):
        kernels.attn_forward(q, k, v, b, *GLOBAL, 0.5)
    with pytest.raises(RuntimeError, match="worker failed"):
        kernels.attn_backward(q, k, v, q, b, *GLOBAL, 0.5)
    # The pool survives a failed call.
    monkeypatch.setattr(kernels, "_exp_scores", real)
    again = kernels.attn_forward(q, k, v, b, *GLOBAL, 0.5)
    assert np.array_equal(again, serial)


@pytest.mark.parametrize("pinned, cpus, want", [(True, 2, 2), (True, 4, 4), (False, 2, 1), (False, 4, 1)])
def test_worker_count_is_usable_cpus_once_blas_is_pinned(pinned, cpus, want, monkeypatch):
    monkeypatch.setattr(pool, "_BLAS_PINNED", pinned)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(pool, "_workers", None)
    assert pool._worker_count() == want


@pytest.mark.parametrize("probed, cpus, want", [(2, 2, 1), (None, 2, 1)])
def test_worker_count_is_usable_cpus_over_blas_threads(probed, cpus, want, monkeypatch,
                                                         tmp_path):
    # The pin itself fails: a mapped BLAS with a thread getter (it keeps its
    # `probed` threads) but no setter, or no BLAS mapped at all (None).  The
    # pool then holds one worker, as it shares the CPUs with the BLAS.
    import ctypes

    from packbert import util

    maps = tmp_path / "maps"
    lib = "7f00-7f01 r-xp 00000000 00:00 0 /usr/lib/libopenblas.so.0\n"
    maps.write_text("" if probed is None else lib, encoding="ascii")
    real_open = open
    monkeypatch.setattr(util, "open", lambda path, **kw: real_open(maps, **kw), raising=False)

    class GetterOnly:
        def openblas_get_num_threads(self):
            return probed

    monkeypatch.setattr(ctypes, "CDLL", lambda path: GetterOnly())
    monkeypatch.setattr(pool, "_BLAS_PINNED", util.pin_blas_to_one_thread())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(pool, "_workers", None)
    assert pool._BLAS_PINNED is False
    assert pool._worker_count() == want


def test_single_position_returns_v():
    q = np.full((1, 1, 4), 0.3, dtype=np.float32)
    k = np.full((1, 1, 4), -2.0, dtype=np.float32)
    v = np.arange(4, dtype=np.float32).reshape(1, 1, 4)
    for mask in ALL_MASKS:
        out = attn(q, k, v, mask, whole(1), 0.5)
        np.testing.assert_allclose(out, v, atol=1e-7)


def test_member_isolation_witness(boundaries):
    # Perturbing every token of one member leaves the others bit-identical.
    rng = np.random.default_rng(3)
    q, k, v = rand_qkv(rng, 2, 30, 16)
    base = attn(q, k, v, GLOBAL, boundaries, 0.25)
    q2, k2, v2 = q.copy(), k.copy(), v.copy()
    lo, hi = 7, 12  # member 1
    q2[:, lo:hi] += rng.normal(size=(2, hi - lo, 16)).astype(np.float32)
    k2[:, lo:hi] += rng.normal(size=(2, hi - lo, 16)).astype(np.float32)
    v2[:, lo:hi] += rng.normal(size=(2, hi - lo, 16)).astype(np.float32)
    pert = attn(q2, k2, v2, GLOBAL, boundaries, 0.25)
    np.testing.assert_array_equal(base[:, :7], pert[:, :7])
    np.testing.assert_array_equal(base[:, 12:], pert[:, 12:])
    assert not np.array_equal(base[:, lo:hi], pert[:, lo:hi])


def test_causal_prefix_invariance_witness():
    # Output at i never changes when any j > i changes.
    rng = np.random.default_rng(4)
    q, k, v = rand_qkv(rng, 1, 12, 8)
    b, scale = whole(12), 8 ** -0.5
    base = attn(q, k, v, CAUSAL, b, scale)
    for j in (5, 11):
        k2, v2 = k.copy(), v.copy()
        k2[:, j] += 1.0
        v2[:, j] -= 3.0
        pert = attn(q, k2, v2, CAUSAL, b, scale)
        np.testing.assert_array_equal(base[:, :j], pert[:, :j])
        assert not np.array_equal(base[:, j:], pert[:, j:])


def test_bidirectional_fails_prefix_invariance():
    rng = np.random.default_rng(5)
    q, k, v = rand_qkv(rng, 1, 12, 8)
    b, scale = whole(12), 8 ** -0.5
    base = attn(q, k, v, GLOBAL, b, scale)
    k2 = k.copy()
    k2[:, 11] += 1.0
    pert = attn(q, k2, v, GLOBAL, b, scale)
    assert not np.array_equal(base[:, :11], pert[:, :11])


def test_sliding_window_boundary_inclusive():
    # window=8 means |i-j| <= 4; position 0 and 4 interact, 0 and 5 do not.
    rng = np.random.default_rng(6)
    q, k, v = rand_qkv(rng, 1, 10, 8)
    b, scale = whole(10), 8 ** -0.5
    base = attn(q, k, v, WINDOW, b, scale)
    v2 = v.copy()
    v2[:, 5] += 10.0
    pert = attn(q, k, v2, WINDOW, b, scale)
    np.testing.assert_array_equal(base[:, 0], pert[:, 0])  # 5 out of range of 0
    assert not np.array_equal(base[:, 1], pert[:, 1])  # |1-5| = 4 in range


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    h, t, d = 1, 9, 6
    q, k, v = (rng.normal(size=(h, t, d)) for _ in range(3))
    b = np.array([0, 4, 9], dtype=np.int64)
    d_out = rng.normal(size=(h, t, d))
    mask = (KIND_WINDOW, 4)
    scale = 6 ** -0.5
    dq, dk, dv = attn_vjp(q, k, v, d_out, mask, b, scale)
    eps = 1e-6

    def loss(q_, k_, v_):
        return float(np.sum(attn(q_, k_, v_, mask, b, scale) * d_out))

    for arr, grad, name in ((q, dq, "q"), (k, dk, "k"), (v, dv, "v")):
        idx = (0, int(rng.integers(t)), int(rng.integers(d)))
        up, down = arr.copy(), arr.copy()
        up[idx] += eps
        down[idx] -= eps
        args_up = {"q": (up, k, v), "k": (q, up, v), "v": (q, k, up)}[name]
        args_dn = {"q": (down, k, v), "k": (q, down, v), "v": (q, k, down)}[name]
        fd = (loss(*args_up) - loss(*args_dn)) / (2 * eps)
        assert abs(fd - grad[idx]) <= 1e-4 * max(1.0, abs(fd)), name


def test_float64_stays_float64():
    rng = np.random.default_rng(8)
    q, k, v = rand_qkv(rng, 1, 6, 4, dtype=np.float64)
    out = attn(q, k, v, GLOBAL, whole(6), 0.5)
    assert out.dtype == np.float64


def test_unknown_kind_code_rejected():
    q = np.zeros((1, 4, 8), dtype=np.float32)
    b = np.array([0, 4], dtype=np.int64)
    with pytest.raises(ValueError):
        kernels.attn_forward(q, q, q, b, 7, 0, 1.0)
    with pytest.raises(ValueError):
        kernels.attn_backward(q, q, q, q, b, 7, 0, 1.0)


@pytest.mark.parametrize("window", (0, -2, 7))
def test_window_kind_refuses_a_window_that_is_not_even_and_positive(window):
    q = np.zeros((1, 4, 8), dtype=np.float32)
    b = np.array([0, 4], dtype=np.int64)
    with pytest.raises(ValueError, match="even window"):
        kernels.attn_forward(q, q, q, b, KIND_WINDOW, window, 1.0)
    with pytest.raises(ValueError, match="even window"):
        kernels.attn_backward(q, q, q, q, b, KIND_WINDOW, window, 1.0)


# --- packed vs padded equivalence ---


def member_views(q, lengths):
    """(heads, total, d) -> (batch, heads, maxlen, d) zero-padded."""
    h, _, d = q.shape
    out = np.zeros((len(lengths), h, max(lengths), d), dtype=q.dtype)
    lo = 0
    for i, n in enumerate(lengths):
        out[i, :, :n] = q[:, lo:lo + n]
        lo += n
    return out


@pytest.mark.parametrize("mask", ALL_MASKS, ids=ALL_IDS)
def test_packed_equals_padded(mask):
    rng = np.random.default_rng(12)
    lengths = [3, 9, 1, 6]
    total = sum(lengths)
    b = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    q, k, v = rand_qkv(rng, 2, total, 8)
    scale = 8 ** -0.5
    packed = attn(q, k, v, mask, b, scale)
    qp, kp, vp = (member_views(x, lengths) for x in (q, k, v))
    padded = attention_padded(qp, kp, vp, np.array(lengths), *mask, scale)
    lo = 0
    for i, n in enumerate(lengths):
        np.testing.assert_allclose(
            packed[:, lo:lo + n], padded[i, :, :n], atol=1e-5
        )
        lo += n


def test_padded_mask_blocks_pad_slots():
    m = padded_mask(5, np.array([3, 5]), *GLOBAL)
    assert m.shape == (2, 5, 5)
    # Live queries see exactly the live keys; PAD rows keep a self slot so
    # their (discarded) softmax stays finite.
    assert m[0][:3, :3].all()
    assert not m[0][:3, 3:].any()
    for i in (3, 4):
        assert m[0][i, i]
    assert m[1].all()


def test_padded_pad_rows_produce_no_nan():
    rng = np.random.default_rng(13)
    lengths = [2, 5]
    qp = rng.normal(size=(2, 1, 5, 4)).astype(np.float32)
    out = attention_padded(qp, qp, qp, np.array(lengths), *GLOBAL, 0.5)
    assert np.all(np.isfinite(out[0, :, :2]))
    assert np.all(np.isfinite(out))
