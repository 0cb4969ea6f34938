"""Encoder stack: skeleton identities, equivalences, heads, pooling."""

import dataclasses
import math
import os
import sys

import numpy as np
import pytest

from packbert import config, kernels, model, pool
from packbert.objectives import IGNORE, mlm_loss
from packbert.packing import pack

from conftest import traced_peak

# --- parameters ---


def test_param_shapes_counts(tiny_cfg):
    shapes = model.param_shapes(tiny_cfg)
    # per layer: 4 attn + 2 ffn + 2 norms x (scale, offset) = 10 tensors
    assert len(shapes) == tiny_cfg.n_layers * 10 + 2 + 1 + 1  # final norm, emb, span
    assert shapes["tok_emb"] == (tiny_cfg.vocab_size, tiny_cfg.hidden)
    assert shapes["layers.0.ffn.wu"] == (tiny_cfg.hidden, 2 * tiny_cfg.intermediate)
    assert shapes["layers.0.ffn.wd"] == (tiny_cfg.intermediate, tiny_cfg.hidden)
    assert shapes["span_head.w"] == (tiny_cfg.hidden, 2)


def test_tied_by_default(tiny_cfg):
    params = model.init_params(tiny_cfg, seed=0)
    assert model.is_tied(params)
    untied = model.init_params(tiny_cfg, seed=0, tied=False)
    assert not model.is_tied(untied)
    assert untied["mlm_head.w"].shape == (tiny_cfg.hidden, tiny_cfg.vocab_size)


def test_init_statistics(tiny_cfg):
    cfg = dataclasses.replace(tiny_cfg, vocab_size=4096, hidden=128,
                              head_dim=128, intermediate=256)
    params = model.init_params(cfg, seed=1)
    emb = params["tok_emb"]
    assert abs(emb.std() - 0.02) < 0.001
    # Output projections shrunk by 1/sqrt(2 * n_layers).
    wo = params["layers.0.attn.wo"]
    expect = 0.02 / np.sqrt(2 * cfg.n_layers)
    assert abs(wo.std() - expect) < expect * 0.2
    assert np.all(params["final_norm.scale"] == 1.0)
    assert np.all(params["final_norm.offset"] == 0.0)


def test_init_deterministic(tiny_cfg):
    a = model.init_params(tiny_cfg, seed=5)
    b = model.init_params(tiny_cfg, seed=5)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k])
    c = model.init_params(tiny_cfg, seed=6)
    assert not np.array_equal(a["tok_emb"], c["tok_emb"])


def test_validate_params_catches_problems(tiny_cfg):
    params = model.init_params(tiny_cfg, seed=0)
    assert model.validate_params(params, tiny_cfg) == []
    broken = dict(params)
    broken["tok_emb"] = broken["tok_emb"][:, :32]
    assert model.validate_params(broken, tiny_cfg)
    del broken["tok_emb"]
    assert model.validate_params(broken, tiny_cfg)


# --- forward ---


def layer_norm(x, eps):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps)


def test_identity_skeleton(tiny_cfg):
    # Pre-norm residual: zero every block output weight and the stream is
    # the raw embeddings; the final norm is all that remains.
    params = model.init_params(tiny_cfg, seed=0)
    for name in list(params):
        if name.endswith((".wo", ".wd")):
            params[name][:] = 0.0
    batch = pack([np.array([5, 17, 9, 200], dtype=np.int32)])
    out = model.forward(params, tiny_cfg, batch)
    emb = params["tok_emb"][batch.tokens]
    want = layer_norm(emb.astype(np.float64), tiny_cfg.norm_eps)
    np.testing.assert_allclose(out.hidden, want, atol=1e-5)


def test_forward_deterministic(tiny_cfg, rand_batch):
    params = model.init_params(tiny_cfg, seed=0)
    a = model.forward(params, tiny_cfg, rand_batch).hidden
    b = model.forward(params, tiny_cfg, rand_batch).hidden
    np.testing.assert_array_equal(a, b)


# Two-head cases catch a head/batch axis mix-up in the padded core, which a
# one-head config cannot see.
PADDED_CASES = {
    "tiny_test": {},
    "two_head_window": dict(n_heads=2, head_dim=32),
    "two_head_decoder": dict(n_heads=2, head_dim=32, block_style="post_norm", norm="rms_norm",
                             activation="silu", attention_mode="causal", global_every=0),
}


@pytest.mark.parametrize("case", list(PADDED_CASES))
def test_forward_packed_matches_padded(tiny_cfg, case):
    cfg = dataclasses.replace(tiny_cfg, **PADDED_CASES[case])
    rng = np.random.default_rng(0)
    seqs = [rng.integers(0, 256, size=n, dtype=np.int32) for n in (5, 11, 2, 8)]
    params = {k: v.astype(np.float64) for k, v in model.init_params(cfg, seed=0).items()}
    packed = model.forward(params, cfg, pack(seqs)).hidden
    lengths = np.array([len(s) for s in seqs])
    ids = np.zeros((len(seqs), lengths.max()), dtype=np.int32)
    for i, s in enumerate(seqs):
        ids[i, :len(s)] = s
    padded = model.forward_padded(params, cfg, ids, lengths)
    lo = 0
    for i, s in enumerate(seqs):
        np.testing.assert_allclose(
            packed[lo:lo + len(s)], padded[i, :len(s)], atol=1e-5
        )
        lo += len(s)


def test_member_isolation_through_full_stack(tiny_cfg):
    rng = np.random.default_rng(1)
    a = rng.integers(0, 256, size=6, dtype=np.int32)
    b = rng.integers(0, 256, size=9, dtype=np.int32)
    b2 = rng.integers(0, 256, size=9, dtype=np.int32)
    params = model.init_params(tiny_cfg, seed=0)
    out1 = model.forward(params, tiny_cfg, pack([a, b])).hidden
    out2 = model.forward(params, tiny_cfg, pack([a, b2])).hidden
    np.testing.assert_array_equal(out1[:6], out2[:6])


def test_rejects_out_of_vocab_ids(tiny_cfg):
    params = model.init_params(tiny_cfg, seed=0)
    batch = pack([np.array([0, 300], dtype=np.int32)])  # vocab is 256
    with pytest.raises(ValueError):
        model.forward(params, tiny_cfg, batch)


def test_rejects_overlong_member(tiny_cfg):
    cfg = dataclasses.replace(tiny_cfg, max_seq_len=8)
    params = model.init_params(cfg, seed=0)
    batch = pack([np.arange(9, dtype=np.int32)])
    with pytest.raises(ValueError):
        model.forward(params, cfg, batch)


def test_causal_mode_runs(tiny_cfg):
    cfg = dataclasses.replace(tiny_cfg, attention_mode="causal")
    params = model.init_params(cfg, seed=0)
    batch = pack([np.arange(10, dtype=np.int32)])
    out = model.forward(params, cfg, batch)
    assert np.all(np.isfinite(out.hidden))


def test_dropout_needs_rate_and_seeds(tiny_cfg, rand_batch):
    params = model.init_params(tiny_cfg, seed=0)
    plain = model.forward(params, tiny_cfg, rand_batch).hidden
    seeds = [7] * rand_batch.n_seqs
    # A rate without seeds, or seeds at rate 0, change nothing.
    for kw in ({"dropout_rate": 0.5}, {"dropout_rate": 0.0, "seq_seeds": seeds}):
        np.testing.assert_array_equal(plain, model.forward(params, tiny_cfg, rand_batch, **kw).hidden)
    dropped = model.forward(
        params, tiny_cfg, rand_batch, dropout_rate=0.5, seq_seeds=seeds
    ).hidden
    assert not np.array_equal(plain, dropped)


def test_dropout_is_per_sequence_seeded(tiny_cfg):
    rng = np.random.default_rng(2)
    a = rng.integers(0, 256, size=7, dtype=np.int32)
    b = rng.integers(0, 256, size=4, dtype=np.int32)
    params = model.init_params(tiny_cfg, seed=0)
    joint = model.forward(params, tiny_cfg, pack([a, b]),
                          dropout_rate=0.3, seq_seeds=[11, 22]).hidden
    solo = model.forward(params, tiny_cfg, pack([a]),
                         dropout_rate=0.3, seq_seeds=[11]).hidden
    # Member a's dropout pattern depends only on its own seed, so outputs
    # agree no matter what shares the batch (microbatch invariance).
    np.testing.assert_allclose(joint[:7], solo, atol=1e-6)


def test_forward_output_dtype_is_float32(tiny_cfg, rand_batch):
    params = model.init_params(tiny_cfg, seed=0)
    out = model.forward(params, tiny_cfg, rand_batch)
    assert out.hidden.dtype == np.float32


def test_float64_params_give_float64_stream(tiny_cfg, rand_batch):
    params = {k: v.astype(np.float64)
              for k, v in model.init_params(tiny_cfg, seed=0).items()}
    out = model.forward(params, tiny_cfg, rand_batch)
    assert out.hidden.dtype == np.float64


# --- heads ---


def test_mlm_logits_tied_uses_embedding(tiny_cfg, rand_batch):
    params = model.init_params(tiny_cfg, seed=0)
    hidden = model.forward(params, tiny_cfg, rand_batch).hidden
    logits = model.mlm_logits(hidden, params)
    assert logits.shape == (rand_batch.total_tokens, tiny_cfg.vocab_size)
    np.testing.assert_allclose(logits, hidden @ params["tok_emb"].T, atol=1e-6)


def test_mlm_logits_untied(tiny_cfg, rand_batch):
    params = model.init_params(tiny_cfg, seed=0, tied=False)
    hidden = model.forward(params, tiny_cfg, rand_batch).hidden
    logits = model.mlm_logits(hidden, params)
    np.testing.assert_allclose(logits, hidden @ params["mlm_head.w"], atol=1e-6)


def test_span_logits_shapes(tiny_cfg, rand_batch):
    params = model.init_params(tiny_cfg, seed=0)
    hidden = model.forward(params, tiny_cfg, rand_batch).hidden
    start, end = model.span_logits(hidden, params)
    assert start.shape == end.shape == (rand_batch.total_tokens,)


# --- pooling ---


def test_pool_mean_packed_per_member():
    rng = np.random.default_rng(4)
    h = rng.normal(size=(7, 4))
    b = np.array([0, 3, 7], dtype=np.int64)
    got = model.pool_mean_packed(h, b)
    np.testing.assert_allclose(got[0], h[:3].mean(axis=0), atol=1e-7)
    np.testing.assert_allclose(got[1], h[3:].mean(axis=0), atol=1e-7)


def test_pool_mean_packed_vjp_matches_fd():
    rng = np.random.default_rng(5)
    h = rng.normal(size=(6, 3))
    b = np.array([0, 2, 6], dtype=np.int64)
    d_pool = rng.normal(size=(2, 3))
    grad = model.pool_mean_packed_vjp(d_pool, b, 6)
    eps = 1e-6
    for idx in ((0, 1), (4, 2)):
        up, dn = h.copy(), h.copy()
        up[idx] += eps
        dn[idx] -= eps
        fd = (np.sum(model.pool_mean_packed(up, b) * d_pool)
              - np.sum(model.pool_mean_packed(dn, b) * d_pool)) / (2 * eps)
        assert abs(fd - grad[idx]) < 1e-8


def test_pool_invariant_to_other_members():
    rng = np.random.default_rng(6)
    h = rng.normal(size=(8, 4))
    b = np.array([0, 5, 8], dtype=np.int64)
    base = model.pool_mean_packed(h, b)[0]
    h2 = h.copy()
    h2[5:] += 100.0
    np.testing.assert_array_equal(model.pool_mean_packed(h2, b)[0], base)


# --- span prediction ---


def test_predict_span_basic():
    start = np.array([0.0, 5.0, 1.0, 0.0])
    end = np.array([0.0, 0.0, 4.0, 1.0])
    assert model.predict_span(start, end, max_answer_len=4) == (1, 2)


def test_predict_span_respects_max_len():
    start = np.array([9.0, 0.0, 0.0, 0.0, 0.0])
    end = np.array([0.0, 0.0, 0.0, 0.0, 9.0])
    # Span 0..4 has length 5; cap at 3 forces a shorter argmax.
    s, e = model.predict_span(start, end, max_answer_len=3)
    assert e - s + 1 <= 3


def test_predict_span_requires_start_before_end():
    start = np.array([0.0, 0.0, 9.0])
    end = np.array([9.0, 0.0, 0.1])
    s, e = model.predict_span(start, end, max_answer_len=3)
    assert s <= e


def test_predict_span_tie_prefers_shortest_then_earliest():
    start = np.zeros(4)
    end = np.zeros(4)
    assert model.predict_span(start, end, max_answer_len=4) == (0, 0)


def test_predict_span_single_position():
    assert model.predict_span(np.array([1.0]), np.array([2.0]), 5) == (0, 0)


# --- erf and the gated activation ---


@pytest.mark.parametrize("dtype, bound", ((np.float32, 5e-7), (np.float64, 4.5e-16)),
                         ids=("f32", "f64"))
def test_erf_matches_math_erf(dtype, bound):
    x = np.linspace(-10.0, 10.0, 400_001).astype(dtype)
    want = np.array([math.erf(float(v)) for v in x])
    got = model.erf(x)
    assert got.dtype == dtype
    assert np.abs(got.astype(np.float64) - want).max() <= bound
    assert np.abs(got).max() == 1.0


@pytest.mark.parametrize("dtype", (np.float32, np.float64), ids=("f32", "f64"))
def test_erf_special_values(dtype):
    got = model.erf(np.array([np.inf, -np.inf, np.nan, -0.0, 0.0], dtype=dtype))
    assert got[0] == 1.0 and got[1] == -1.0
    assert np.isnan(got[2])
    assert got[3] == 0.0 and np.signbit(got[3])
    assert got[4] == 0.0 and not np.signbit(got[4])


@pytest.mark.parametrize("dtype", (np.float32, np.float64), ids=("f32", "f64"))
def test_erf_keeps_dtype_and_shape(dtype):
    rng = np.random.default_rng(21)
    scalar = model.erf(np.array(0.5, dtype=dtype))
    assert scalar.shape == () and scalar.dtype == dtype
    assert scalar == model.erf(np.array([0.5], dtype=dtype))[0]
    empty = model.erf(np.zeros((0, 7), dtype=dtype))
    assert empty.shape == (0, 7) and empty.dtype == dtype
    # Column slices, as the FFN gate is, and rows wider than one float32 chunk.
    for shape in ((5000, 12), (3, 40_000), (2, 70_000)):
        full = (rng.normal(size=shape) * 3).astype(dtype)
        cols = full[:, 1:-1]
        assert not cols.flags.c_contiguous
        got = model.erf(cols)
        assert got.shape == cols.shape and got.dtype == dtype
        np.testing.assert_array_equal(got, model.erf(np.ascontiguousarray(cols)))
        np.testing.assert_array_equal(got.ravel(), model.erf(cols.ravel()))


def test_erf_rejects_other_dtypes():
    with pytest.raises(TypeError):
        model.erf(np.zeros(3, dtype=np.float16))


def test_erf_runs_once_per_layer_per_training_step(tiny_cfg, rand_batch, monkeypatch):
    assert tiny_cfg.activation == "gelu"
    calls = []
    real = model.erf
    monkeypatch.setattr(model, "erf", lambda x: calls.append(x.shape) or real(x))
    params = model.init_params(tiny_cfg, seed=2)
    out = model.forward(params, tiny_cfg, rand_batch, want_cache=True)
    labels = np.full(rand_batch.total_tokens, IGNORE, dtype=np.int64)
    labels[::3] = rand_batch.tokens[::3]
    logits = model.mlm_logits(out.hidden, params)
    _, d_logits = mlm_loss(logits, labels)
    grads = model.zeros_like_params(params)
    d_hidden = model.mlm_logits_vjp(d_logits, out.hidden, params, grads)
    model.backward(params, tiny_cfg, out.cache, d_hidden, grads)
    assert calls == [(rand_batch.total_tokens, tiny_cfg.intermediate)] * tiny_cfg.n_layers


def test_backward_consumes_its_cache(tiny_cfg, rand_batch):
    params = model.init_params(tiny_cfg, seed=2)
    out = model.forward(params, tiny_cfg, rand_batch, want_cache=True)
    d_hidden = np.ones_like(out.hidden)
    model.backward(params, tiny_cfg, out.cache, d_hidden)
    with pytest.raises(ValueError, match="consumed"):
        model.backward(params, tiny_cfg, out.cache, d_hidden)


@pytest.mark.parametrize("norm", config.NORMS)
@pytest.mark.parametrize("dtype", (np.float32, np.float64), ids=("f32", "f64"))
def test_every_norm_caches_xhat_and_inverse_std(tiny_cfg, dtype, norm):
    # Both norms keep (xhat, 1 / std); only a layer norm centres its rows.  No
    # cache holds the norm's input, which in a pre-norm stack is the residual
    # stream, so the stack can add into that stream in place.
    cfg = dataclasses.replace(tiny_cfg, norm=norm)
    rng = np.random.default_rng(8)
    params = {"n.scale": (1.0 + 0.2 * rng.normal(size=cfg.hidden)).astype(dtype)}
    if norm == "layer_norm":
        params["n.offset"] = (0.2 * rng.normal(size=cfg.hidden)).astype(dtype)
    x = (rng.normal(size=(37, cfg.hidden)) * 2.0 + 0.5).astype(dtype)
    y, (xhat, r) = model._norm_forward(x, params, "n", cfg)
    assert xhat.shape == x.shape and r.shape == (37, 1)
    assert xhat.dtype == r.dtype == dtype
    assert not np.shares_memory(xhat, x)
    xc = x - x.mean(axis=-1, keepdims=True) if norm == "layer_norm" else x
    rtol = 1e-6 if dtype == np.float32 else 1e-14
    np.testing.assert_allclose(r, 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True)
                                                + cfg.norm_eps), rtol=rtol)
    np.testing.assert_allclose(xhat, xc * r, rtol=rtol, atol=rtol)
    assert np.array_equal(model._norm_output((xhat, r), params, "n", cfg), y)


def _held_arrays(obj, found):
    """The distinct arrays under ``obj``'s tuples and lists, each by its own buffer."""
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
        found[id(obj)] = obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            _held_arrays(item, found)
    return found


@pytest.mark.parametrize("dropout", (False, True), ids=("plain", "dropout"))
@pytest.mark.parametrize("norm", config.NORMS)
@pytest.mark.parametrize("block_style", config.BLOCK_STYLES)
@pytest.mark.parametrize("dtype", (np.float32, np.float64), ids=("f32", "f64"))
def test_cache_bytes_per_token_counts_the_forward_cache(tiny_cfg, dtype, block_style, norm,
                                                        dropout):
    # Hidden (32, which is heads x head_dim) differs from intermediate (40), so
    # a term counted with the wrong width shows.
    cfg = dataclasses.replace(tiny_cfg, hidden=32, n_heads=2, head_dim=16, intermediate=40,
                              block_style=block_style, norm=norm, max_seq_len=64)
    params = {k: v.astype(dtype) for k, v in model.init_params(cfg, seed=1).items()}
    rng = np.random.default_rng(4)
    batch = pack([rng.integers(0, 256, size=n, dtype=np.int32) for n in (5, 9, 13)])
    kw = {"dropout_rate": 0.1, "seq_seeds": [1, 2, 3]} if dropout else {}
    cache = model.forward(params, cfg, batch, want_cache=True, **kw).cache
    held = _held_arrays((cache["layers"], cache["final_norm"]), {})
    got = sum(a.nbytes for a in held.values())
    want = model.cache_bytes_per_token(cfg, np.dtype(dtype).itemsize, dropout)
    assert got == want * batch.total_tokens


def test_cached_attention_state_is_token_major(tiny_cfg, monkeypatch):
    # q, k, v and the context live in (tokens, heads, head_dim) memory that the
    # kernels read through head-first views, so the merged context is the
    # kernel's output itself, not a copy of it.
    cfg = dataclasses.replace(tiny_cfg, n_heads=4, head_dim=16)
    params = model.init_params(cfg, seed=2)
    rng = np.random.default_rng(6)
    batch = pack([rng.integers(0, 256, size=n, dtype=np.int32) for n in (30, 50, 20)])
    outputs, attn_forward = [], kernels.attn_forward
    monkeypatch.setattr(kernels, "attn_forward",
                        lambda *a: outputs.append(attn_forward(*a)) or outputs[-1])
    cache = model.forward(params, cfg, batch, want_cache=True).cache
    assert len(outputs) == cfg.n_layers
    for (_, ac, *_), ctx in zip(cache["layers"], outputs):
        for x in (*ac[1:4], ctx):
            assert x.shape == (4, 100, 16)
            assert x.transpose(1, 0, 2).flags.c_contiguous
        assert ac[4].shape == (100, 64) and np.shares_memory(ac[4], ctx)


# --- the layer stack on the worker pool ---

POOL_ROWS = 4099  # four row blocks: three of 1,025 rows and a ragged 1,024


def pooled_layer_ops(dtype, norm, activation):
    """Every pooled layer op on POOL_ROWS rows; returns {name: array}.

    Weight gradients split into two blocks of 100 rows (150 for the MLM
    head), and the float32 erf into 25 chunks of 170 gate rows.
    """
    rng = np.random.default_rng(23)
    cfg = dataclasses.replace(config.preset("tiny_test"), vocab_size=300, hidden=200,
                              intermediate=96, norm=norm, activation=activation)
    params = {k: v.astype(dtype) for k, v in model.init_params(cfg, seed=4, tied=False).items()}
    params["layers.0.norm1.scale"] += rng.normal(size=cfg.hidden).astype(dtype) * 0.1
    x = rng.normal(size=(POOL_ROWS, cfg.hidden)).astype(dtype)
    dy = rng.normal(size=x.shape).astype(dtype)
    grads = model.zeros_like_params(params)
    got = {}
    wq = "layers.0.attn.wq"
    got["linear"] = model._linear(x, params, wq)
    got["linear_dx"] = model._linear_backward(dy, x, params, wq, grads, None)
    y, cache = model._norm_forward(x, params, "layers.0.norm1", cfg)
    got["norm"] = y
    got["norm_dx"] = model._norm_backward(dy, cache, params, "layers.0.norm1", cfg, grads)
    f, cache = model._ffn_forward(x, 0, params, cfg)
    got["ffn"] = f
    got["ffn_dx"] = model._ffn_backward(dy, cache, 0, params, cfg, grads, None)
    gate = (x[:, :2 * cfg.intermediate] * 3.0)[:, : cfg.intermediate]  # a column slice, as in the FFN
    got["act"], s = model.act_forward(gate, activation)
    got["act_grad"] = model.act_grad(gate, s, activation)
    for tied in (True, False):
        head = dict(params)
        if tied:
            del head["mlm_head.w"]
        d_logits = rng.normal(size=(POOL_ROWS, cfg.vocab_size)).astype(dtype)
        got[f"logits_tied={tied}"] = model.mlm_logits(x, head)
        got[f"logits_dx_tied={tied}"] = model.mlm_logits_vjp(d_logits, x, head, grads)
    # An adapter pair on wk: its dA and dB are two tasks on the pool.
    wk = "layers.0.attn.wk"
    extra = {wk: (rng.normal(size=(cfg.hidden, 4)).astype(dtype),
                  rng.normal(size=(4, cfg.hidden)).astype(dtype), 2.0)}
    grads.update({k: np.zeros_like(v) for k, v in model.adapter_params(extra).items()})
    got["adapter_linear"] = model._linear(x, {wk: model._weight(params, wk, extra)}, wk)
    got["adapter_linear_dx"] = model._linear_backward(dy, x, params, wk, grads, extra)
    got.update({f"grad {k}": v for k, v in grads.items() if v.any()})
    return got


@pytest.mark.parametrize("norm, activation", (("layer_norm", "gelu"), ("rms_norm", "silu")))
@pytest.mark.parametrize("dtype", (np.float32, np.float64), ids=("f32", "f64"))
def test_pool_matches_serial_bit_for_bit(dtype, norm, activation, pool_workers, monkeypatch):
    pool_workers(1)
    blocked = pooled_layer_ops(dtype, norm, activation)
    assert [r.stop - r.start for r in model._rowwise_blocks(blocked["norm"])] == [1025] * 3 + [1024]
    # More workers than CPUs and a short switch interval: two workers taking
    # one block, or a lost partial, changes the bits.
    many = (os.cpu_count() or 1) + 2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3, many):
            pool_workers(workers)
            got = pooled_layer_ops(dtype, norm, activation)
            assert got.keys() == blocked.keys()
            for name, want in blocked.items():
                assert got[name].dtype == dtype, name
                assert np.array_equal(got[name], want), (workers, name)
    finally:
        sys.setswitchinterval(interval)
    assert pool._pool[0] == many  # the last ops ran on the largest pool
    # Blocks change the summation order only: whole ops agree to rounding.
    monkeypatch.setattr(model, "MATMUL_MIN_MACS", 1 << 62)
    monkeypatch.setattr(model, "ROWWISE_MIN_ELEMS", 1 << 62)
    whole = pooled_layer_ops(dtype, norm, activation)
    assert len(model._rowwise_blocks(whole["norm"])) == 1
    # Column sums over 4,099 rows cancel, so the bound scales with each array's largest entry.
    rtol = 1e-4 if dtype == np.float32 else 1e-12
    for name, want in whole.items():
        atol = rtol * 0.1 * float(np.abs(want).max())
        np.testing.assert_allclose(blocked[name], want, rtol=rtol, atol=atol, err_msg=name)


# --- the streamed cache-free forward ---

STREAM_CASES = {
    "pre_layer_gelu": dict(block_style="pre_norm", norm="layer_norm", activation="gelu"),
    "post_rms_silu": dict(block_style="post_norm", norm="rms_norm", activation="silu"),
    "adapter": dict(block_style="pre_norm", norm="layer_norm", activation="gelu"),
    "dropout": dict(block_style="post_norm", norm="rms_norm", activation="silu"),
}
# Streams longer than ROWS: one member just over it (two blocks), one of
# four blocks, and a packed batch whose total crosses it; and a packed batch
# of exactly ROWS tokens, which runs as one block either way.
STREAM_LENGTHS = {"2049": (2049,), "4500": (4500,), "packed": (700, 900, 650),
                  "one_block": (1100, 948)}


def stream_cfg(**kw):
    # Two heads; layer 0 global, layer 1 a window of 8.
    shape = dict(hidden=32, n_heads=2, head_dim=16, intermediate=48, max_seq_len=4608)
    return dataclasses.replace(config.preset("tiny_test"), **{**shape, **kw})


@pytest.mark.parametrize("lengths", list(STREAM_LENGTHS))
@pytest.mark.parametrize("case", list(STREAM_CASES))
@pytest.mark.parametrize("dtype", (np.float32, np.float64), ids=("f32", "f64"))
def test_streamed_forward_equals_cached(dtype, case, lengths, monkeypatch):
    cfg = stream_cfg(**STREAM_CASES[case])
    params = {k: v.astype(dtype) for k, v in model.init_params(cfg, seed=5).items()}
    rng = np.random.default_rng(6)
    batch = pack([rng.integers(0, 256, size=n, dtype=np.int32) for n in STREAM_LENGTHS[lengths]])
    kw = {}
    if case == "adapter":
        kw["extra_linear"] = {
            name: (rng.normal(size=(cfg.hidden, 4)).astype(dtype) * 0.1,
                   rng.normal(size=(4, params[name].shape[1])).astype(dtype) * 0.1, 2.0)
            for name in ("layers.0.attn.wq", "layers.1.attn.wo", "layers.1.ffn.wu")
        }
    if case == "dropout":
        kw.update(dropout_rate=0.2, seq_seeds=list(range(batch.n_seqs)))
    want = model.forward(params, cfg, batch, want_cache=True, **kw).hidden
    rows = []
    real = model.act_forward
    monkeypatch.setattr(model, "act_forward", lambda x, kind: rows.append(len(x)) or real(x, kind))
    got = model.forward(params, cfg, batch, **kw).hidden
    # The FFN ran block by block, each block at most ROWS rows.
    assert max(rows) <= model.ROWS and sum(rows) == cfg.n_layers * batch.total_tokens
    assert got.dtype == dtype
    if batch.total_tokens <= model.ROWS:
        # One block of the one layer stack, with or without a cache: the same bits.
        assert np.array_equal(got, want)
        return
    rtol = 1e-12 if dtype == np.float64 else 4 * np.finfo(np.float32).eps
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * float(np.abs(want).max()))


def test_padded_over_rows_matches_packed():
    cfg = stream_cfg(max_seq_len=1030)
    rng = np.random.default_rng(7)
    seqs = [rng.integers(0, 256, size=n, dtype=np.int32) for n in (1030, 600)]
    lengths = np.array([len(s) for s in seqs])
    assert len(seqs) * lengths.max() > model.ROWS
    params = {k: v.astype(np.float64) for k, v in model.init_params(cfg, seed=8).items()}
    packed = model.forward(params, cfg, pack(seqs)).hidden
    ids = np.zeros((len(seqs), lengths.max()), dtype=np.int32)
    for i, s in enumerate(seqs):
        ids[i, :len(s)] = s
    padded = model.forward_padded(params, cfg, ids, lengths)
    np.testing.assert_allclose(packed[:1030], padded[0], atol=1e-5)
    np.testing.assert_allclose(packed[1030:], padded[1, :600], atol=1e-5)


def test_streamed_forward_memory_is_bounded(pool_workers):
    # Unstreamed, one 8,192-token member holds its (tokens x 2 intermediate)
    # FFN product, 64 MiB here, and the activation's temporaries beside it.
    cfg = dataclasses.replace(config.preset("tiny_test"), intermediate=1024, max_seq_len=8192)
    params = model.init_params(cfg, seed=9)
    batch = pack([np.random.default_rng(10).integers(0, 256, size=8192, dtype=np.int32)])
    for workers in (1, 2):
        pool_workers(workers)
        _, _, peak = traced_peak(lambda: model.forward(params, cfg, batch))
        assert peak < 96 * 2**20, f"{workers} workers: peak {peak / 2**20:.1f} MiB"


def test_streamed_forward_peak_is_one_phase_at_a_time(pool_workers):
    # ROADMAP aim 3's bound, computed from the shape phase by phase.  While the
    # attention core runs, the forward holds the residual stream, q, k, v and
    # the context at full length, plus one score block per worker.  In the
    # block pass after it, it holds the residual stream and the context, plus
    # one row block's hidden-width arrays (norm output, merged heads,
    # out-projection, FFN output) and gelu FFN products: gate|value (2 x
    # intermediate), the scaled gate, its CDF and the activation.  The 4 MiB
    # slack covers the erf chunks and the kernel's per-block temporaries.
    # Holding q, k and v into the block pass (12 MiB here), or one block's
    # FFN cache beside the next block's (24 MiB), goes over it.
    cfg = dataclasses.replace(config.preset("tiny_test"), hidden=128, n_heads=2, head_dim=64,
                              intermediate=1024, max_seq_len=8192)
    assert cfg.activation == "gelu" and cfg.layer_is_global(0)
    params = model.init_params(cfg, seed=9)
    n = 8192
    batch = pack([np.random.default_rng(10).integers(0, 256, size=n, dtype=np.int32)])
    itemsize = 4
    full = n * cfg.hidden * itemsize
    score_block = cfg.n_heads * kernels.BLOCK * n * itemsize
    row_block = model.ROWS * (5 * cfg.intermediate + 4 * cfg.hidden) * itemsize
    for workers in (1, 2):
        pool_workers(workers)
        model.forward(params, cfg, batch)  # fills the rope and mask caches first
        _, _, peak = traced_peak(lambda: model.forward(params, cfg, batch))
        bound = max(5 * full + workers * score_block, 2 * full + row_block) + 4 * 2**20
        assert peak < bound, f"{workers} workers: peak {peak / 2**20:.1f} MiB, bound {bound / 2**20:.1f}"


def test_streamed_forward_forms_each_adapter_sum_once_per_layer(monkeypatch):
    cfg = stream_cfg()
    params = model.init_params(cfg, seed=11)
    rng = np.random.default_rng(12)
    names = ("layers.0.attn.wq", "layers.0.ffn.wd", "layers.1.attn.wo", "layers.1.ffn.wu")
    extra = {n: (rng.normal(size=(params[n].shape[0], 2)).astype(np.float32),
                 rng.normal(size=(2, params[n].shape[1])).astype(np.float32), 0.5) for n in names}
    formed = []
    real = model._weight

    def counted(p, name, e):
        if e is not None and name in e:
            formed.append(name)
        return real(p, name, e)

    monkeypatch.setattr(model, "_weight", counted)
    batch = pack([rng.integers(0, 256, size=4500, dtype=np.int32)])
    assert len(model._row_blocks(batch.total_tokens, True)) == 4
    model.forward(params, cfg, batch, extra_linear=extra)
    assert sorted(formed) == sorted(names)
