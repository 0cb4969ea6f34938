"""Analytic gradients vs central finite differences, in 64-bit."""

import dataclasses

import numpy as np
import pytest

from packbert import config, model
from packbert.adapters import init_adapters, runtime_extras
from packbert.objectives import IGNORE, mlm_loss
from packbert.packing import pack


def f64_params(cfg, seed=0, tied=True):
    return {k: v.astype(np.float64)
            for k, v in model.init_params(cfg, seed=seed, tied=tied).items()}


def make_case(cfg, seed=0, tied=True):
    rng = np.random.default_rng(seed)
    params = f64_params(cfg, seed, tied)
    seqs = [rng.integers(0, cfg.vocab_size, size=n, dtype=np.int32)
            for n in (6, 11)]
    batch = pack(seqs)
    labels = np.full(batch.total_tokens, IGNORE, dtype=np.int64)
    masked = rng.choice(batch.total_tokens, size=5, replace=False)
    labels[masked] = rng.integers(0, cfg.vocab_size, size=5)
    return params, batch, labels


def loss_of(params, cfg, batch, labels, extra=None):
    out = model.forward(params, cfg, batch, want_cache=True, extra_linear=extra)
    logits = model.mlm_logits(out.hidden, params)
    loss, d_logits = mlm_loss(logits, labels)
    return loss, out, d_logits


def analytic_grads(params, cfg, batch, labels, extra=None, grads=None):
    loss, out, d_logits = loss_of(params, cfg, batch, labels, extra)
    if grads is None:
        grads = model.zeros_like_params(params)
    d_hidden = model.mlm_logits_vjp(d_logits, out.hidden, params, grads)
    model.backward(params, cfg, out.cache, d_hidden, grads)
    return loss, grads


def fd_check(params, cfg, batch, labels, grads, rng, samples_per_tensor=3,
             eps=1e-4, tol=1e-4, extra=None):
    """Check every tensor in ``grads``: parameters, or adapter pairs of ``extra``."""
    tensors = params | model.adapter_params(extra or {})
    worst = 0.0
    for name in sorted(grads):
        arr = tensors[name]
        flat = arr.reshape(-1)
        g = grads[name].reshape(-1)
        for _ in range(samples_per_tensor):
            i = int(rng.integers(flat.size))
            orig = flat[i]
            flat[i] = orig + eps
            up, _, _ = loss_of(params, cfg, batch, labels, extra)
            flat[i] = orig - eps
            down, _, _ = loss_of(params, cfg, batch, labels, extra)
            flat[i] = orig
            fd = (up - down) / (2 * eps)
            # Floor sits above central-difference noise (~1e-11 for a
            # loss of this size) so near-zero gradients compare cleanly.
            scale = max(abs(fd), abs(g[i]), 1e-6)
            rel = abs(fd - g[i]) / scale
            worst = max(worst, rel)
            assert rel <= tol, f"{name}[{i}]: fd={fd:.3e} analytic={g[i]:.3e}"
    return worst


def test_every_tensor_matches_fd(tiny_cfg):
    cfg = dataclasses.replace(tiny_cfg, max_seq_len=32)
    params, batch, labels = make_case(cfg)
    _, grads = analytic_grads(params, cfg, batch, labels)
    rng = np.random.default_rng(99)
    worst = fd_check(params, cfg, batch, labels, grads, rng)
    assert worst <= 1e-4


def test_untied_head_gradient(tiny_cfg):
    cfg = dataclasses.replace(tiny_cfg, max_seq_len=32)
    params, batch, labels = make_case(cfg, tied=False)
    assert "mlm_head.w" in params
    _, grads = analytic_grads(params, cfg, batch, labels)
    rng = np.random.default_rng(3)
    fd_check({"mlm_head.w": params["mlm_head.w"]} | params, cfg, batch,
             labels, grads, rng, samples_per_tensor=2)


@pytest.mark.parametrize("norm", config.NORMS)
def test_post_norm_gradients(tiny_cfg, norm):
    cfg = dataclasses.replace(tiny_cfg, block_style="post_norm", norm=norm, max_seq_len=32)
    params, batch, labels = make_case(cfg, seed=1)
    _, grads = analytic_grads(params, cfg, batch, labels)
    rng = np.random.default_rng(4)
    fd_check(params, cfg, batch, labels, grads, rng, samples_per_tensor=2)


def test_rms_norm_silu_gradients(tiny_cfg):
    cfg = dataclasses.replace(
        tiny_cfg, norm="rms_norm", activation="silu", max_seq_len=32
    )
    params, batch, labels = make_case(cfg, seed=2)
    _, grads = analytic_grads(params, cfg, batch, labels)
    rng = np.random.default_rng(5)
    fd_check(params, cfg, batch, labels, grads, rng, samples_per_tensor=2)


def test_causal_mode_gradients(tiny_cfg):
    cfg = dataclasses.replace(
        tiny_cfg, attention_mode="causal", max_seq_len=32
    )
    params, batch, labels = make_case(cfg, seed=3)
    _, grads = analytic_grads(params, cfg, batch, labels)
    rng = np.random.default_rng(6)
    fd_check(params, cfg, batch, labels, grads, rng, samples_per_tensor=2)


def test_adapter_extras_match_fd(tiny_cfg):
    # Adapter pairs on every attention and FFN weight, with B nonzero so that
    # dA is too.  The gradient dict names the pairs only: the frozen weights,
    # norms and embedding get no gradient.  Layer 1's pairs pass dx through
    # their extras term back to layer 0's pairs.
    cfg = dataclasses.replace(tiny_cfg, max_seq_len=32)
    params, batch, labels = make_case(cfg, seed=9)
    aset = init_adapters(params, cfg, rank=3, alpha=6.0, seed=10)
    rng = np.random.default_rng(11)
    for _, b in aset.tensors.values():
        b += rng.normal(0.0, 0.05, size=b.shape)
    extra = runtime_extras(aset)
    grads = {k: np.zeros_like(v) for k, v in model.adapter_params(extra).items()}
    analytic_grads(params, cfg, batch, labels, extra, grads)
    assert sorted(grads) == sorted(model.adapter_params(extra))
    assert all(np.any(g != 0.0) for g in grads.values())
    fd_check(params, cfg, batch, labels, grads, rng, samples_per_tensor=2, extra=extra)

    # dx of one attention and one FFN linear with its extras term, directly.
    for name in ("layers.0.attn.wq", "layers.1.ffn.wd"):
        x = rng.normal(size=(5, params[name].shape[0]))
        w_out = rng.normal(size=(5, params[name].shape[1]))
        dx = model._linear_backward(w_out, x, params, name, {}, extra)
        summed = {name: model._weight(params, name, extra)}
        eps = 1e-6
        for _ in range(6):
            idx = tuple(int(rng.integers(n)) for n in x.shape)
            orig = x[idx]
            x[idx] = orig + eps
            up = np.sum(model._linear(x, summed, name) * w_out)
            x[idx] = orig - eps
            down = np.sum(model._linear(x, summed, name) * w_out)
            x[idx] = orig
            fd = (up - down) / (2 * eps)
            assert abs(fd - dx[idx]) <= 1e-6 * max(1.0, abs(fd)), (name, idx)


def test_span_head_gradients(tiny_cfg):
    cfg = dataclasses.replace(tiny_cfg, max_seq_len=32)
    rng = np.random.default_rng(7)
    params = f64_params(cfg, seed=7)
    batch = pack([rng.integers(0, 256, size=9, dtype=np.int32)])

    def span_loss(p):
        out = model.forward(p, cfg, batch, want_cache=True)
        start, end = model.span_logits(out.hidden, p)
        return float(np.sum(start * w_s) + np.sum(end * w_e)), out

    w_s = rng.normal(size=9)
    w_e = rng.normal(size=9)
    _, out = span_loss(params)
    grads = model.zeros_like_params(params)
    d_hidden = model.span_logits_vjp(w_s, w_e, out.hidden, params, grads)
    model.backward(params, cfg, out.cache, d_hidden, grads)
    w = params["span_head.w"]
    eps = 1e-6
    for idx in ((3, 0), (10, 1)):
        up, dn = w.copy(), w.copy()
        up[idx] += eps
        dn[idx] -= eps
        params2 = dict(params, **{"span_head.w": up})
        params3 = dict(params, **{"span_head.w": dn})
        fd = (span_loss(params2)[0] - span_loss(params3)[0]) / (2 * eps)
        assert abs(fd - grads["span_head.w"][idx]) <= 1e-6 * max(1, abs(fd))


def test_gradients_accumulate_across_calls(tiny_cfg):
    cfg = dataclasses.replace(tiny_cfg, max_seq_len=32)
    params, batch, labels = make_case(cfg, seed=8)
    _, g1 = analytic_grads(params, cfg, batch, labels)
    # Same batch twice through a shared grad dict doubles every entry.
    grads = model.zeros_like_params(params)
    for _ in range(2):
        _, out, d_logits = loss_of(params, cfg, batch, labels)
        d_hidden = model.mlm_logits_vjp(d_logits, out.hidden, params, grads)
        model.backward(params, cfg, out.cache, d_hidden, grads)
    for k in g1:
        np.testing.assert_allclose(grads[k], 2 * g1[k], atol=1e-12)


@pytest.mark.parametrize("activation", ("gelu", "silu"))
def test_ffn_matches_fd(tiny_cfg, activation):
    # The backward pass rebuilds the activation from the gate saved in the
    # forward cache; check it against central differences of the FFN alone.
    cfg = dataclasses.replace(tiny_cfg, activation=activation)
    rng = np.random.default_rng(12)
    params = f64_params(cfg, seed=12)
    x = rng.normal(size=(5, cfg.hidden))
    w_out = rng.normal(size=(5, cfg.hidden))

    def loss(p, xs):
        out, cache = model._ffn_forward(xs, 0, p, cfg)
        return float(np.sum(out * w_out)), cache

    _, cache = loss(params, x)
    grads = model.zeros_like_params(params)
    dx = model._ffn_backward(w_out, cache, 0, params, cfg, grads, None)
    eps = 1e-6
    checks = [("x", x, dx)] + [
        (name, params[name], grads[name]) for name in ("layers.0.ffn.wu", "layers.0.ffn.wd")
    ]
    for name, arr, g in checks:
        for _ in range(6):
            idx = tuple(int(rng.integers(n)) for n in arr.shape)
            orig = arr[idx]
            arr[idx] = orig + eps
            up = loss(params, x)[0]
            arr[idx] = orig - eps
            down = loss(params, x)[0]
            arr[idx] = orig
            fd = (up - down) / (2 * eps)
            assert abs(fd - g[idx]) <= 1e-6 * max(1.0, abs(fd)), (name, idx)


@pytest.mark.parametrize("norm", ("layer_norm", "rms_norm"))
def test_blocked_norm_matches_fd(tiny_cfg, norm, pool_workers):
    # 4,099 rows run as four blocks on two workers; the scale and offset
    # gradients are sums of per-block partials.
    pool_workers(2)
    cfg = dataclasses.replace(tiny_cfg, hidden=6, norm=norm)
    rng = np.random.default_rng(31)
    x = rng.normal(size=(4099, cfg.hidden)) * 2.0 + 0.5
    w_out = rng.normal(size=x.shape)
    params = {"n.scale": 1.0 + 0.2 * rng.normal(size=cfg.hidden)}
    if norm == "layer_norm":
        params["n.offset"] = 0.2 * rng.normal(size=cfg.hidden)
    edges = [r.start for r in model._rowwise_blocks(x)]
    assert edges == [0, 1025, 2050, 3075]

    def loss(p, xs):
        return float(np.sum(model._norm_forward(xs, p, "n", cfg)[0] * w_out))

    _, cache = model._norm_forward(x, params, "n", cfg)
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    dx = model._norm_backward(w_out, cache, params, "n", cfg, grads)
    eps = 1e-6
    checks = [(name, params[name], grads[name], [(j,) for j in range(cfg.hidden)]) for name in params]
    checks.append(("x", x, dx, [(e + d, (e + d) % cfg.hidden) for e in edges[1:] for d in (-1, 0)]))
    for name, arr, g, indices in checks:
        for idx in indices:
            orig = arr[idx]
            arr[idx] = orig + eps
            up = loss(params, x)
            arr[idx] = orig - eps
            down = loss(params, x)
            arr[idx] = orig
            fd = (up - down) / (2 * eps)
            assert abs(fd - g[idx]) <= 1e-6 * max(1.0, abs(fd)), (name, idx, fd, g[idx])
