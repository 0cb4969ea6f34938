"""Encoder stack: skeleton identities, equivalences, heads, pooling."""

import dataclasses
import math
import os
import sys

import numpy as np
import pytest

from packbert import config, model, pool
from packbert.objectives import IGNORE, mlm_loss
from packbert.packing import pack

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


def test_forward_packed_matches_padded(tiny_cfg):
    rng = np.random.default_rng(0)
    seqs = [rng.integers(0, 256, size=n, dtype=np.int32) for n in (5, 11, 2, 8)]
    params = model.init_params(tiny_cfg, seed=0)
    packed = model.forward(params, tiny_cfg, pack(seqs)).hidden
    lengths = np.array([len(s) for s in seqs])
    ids = np.zeros((len(seqs), lengths.max()), dtype=np.int32)
    for i, s in enumerate(seqs):
        ids[i, :len(s)] = s
    padded = model.forward_padded(params, tiny_cfg, ids, lengths)
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


def test_dropout_needs_train_rate_and_seeds(tiny_cfg, rand_batch):
    params = model.init_params(tiny_cfg, seed=0)
    plain = model.forward(params, tiny_cfg, rand_batch).hidden
    # Seeds alone (train=False) change nothing.
    seeds = [7] * rand_batch.n_seqs
    eval_out = model.forward(
        params, tiny_cfg, rand_batch, dropout_rate=0.5, seq_seeds=seeds
    ).hidden
    np.testing.assert_array_equal(plain, eval_out)
    dropped = model.forward(
        params, tiny_cfg, rand_batch, train=True, dropout_rate=0.5, seq_seeds=seeds
    ).hidden
    assert not np.array_equal(plain, dropped)


def test_dropout_is_per_sequence_seeded(tiny_cfg):
    rng = np.random.default_rng(2)
    a = rng.integers(0, 256, size=7, dtype=np.int32)
    b = rng.integers(0, 256, size=4, dtype=np.int32)
    params = model.init_params(tiny_cfg, seed=0)
    joint = model.forward(params, tiny_cfg, pack([a, b]), train=True,
                          dropout_rate=0.3, seq_seeds=[11, 22]).hidden
    solo = model.forward(params, tiny_cfg, pack([a]), train=True,
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
    got["linear"] = model._linear(x, params, wq, None)
    got["linear_dx"] = model._linear_backward(dy, x, params, wq, grads)
    y, cache = model._norm_forward(x, params, "layers.0.norm1", cfg)
    got["norm"] = y
    got["norm_dx"] = model._norm_backward(dy, cache, params, "layers.0.norm1", cfg, grads)
    f, cache = model._ffn_forward(x, 0, params, cfg, None)
    got["ffn"] = f
    got["ffn_dx"] = model._ffn_backward(dy, cache, 0, params, cfg, grads)
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
