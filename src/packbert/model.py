"""Transformer encoder/decoder stack with hand-written gradients.

Parameters live in a flat ``dict[str, np.ndarray]`` keyed by dotted names
("layers.3.attn.wq", "final_norm.scale", ...).  ``forward`` runs over a
PackedBatch and can retain per-layer caches; ``backward`` consumes those
caches and returns a gradient dict with the same keys.  A separate padded
path (``forward_padded``) executes conventional dense attention over
(batch, max_len) tensors, PAD slots included, for the throughput benchmark
and as the oracle of the packed≡padded equivalence tests.

Architecture per ArchConfig: pre- or post-norm residual blocks, gated
feed-forward (up-projection to 2x intermediate, split into gate/value,
activation(gate) * value, down-projection), rotary positions with per-layer
theta, alternating global/sliding-window attention, optional causal masking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ArchConfig
from .packing import MaskSpec, PackedBatch, mask_matrix
from .rope import apply_rope, build_rope_table
from . import kernels, pool

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_PHILOX_STREAM = 0xD1B54A32D192ED03


# --- parameter construction -------------------------------------------------


def param_shapes(cfg: ArchConfig, tied: bool = True) -> dict[str, tuple]:
    h, f, v = cfg.hidden, cfg.intermediate, cfg.vocab_size
    shapes: dict[str, tuple] = {"tok_emb": (v, h)}
    ln = cfg.norm == "layer_norm"
    for i in range(cfg.n_layers):
        p = f"layers.{i}"
        for w in ("wq", "wk", "wv", "wo"):
            shapes[f"{p}.attn.{w}"] = (h, h)
        shapes[f"{p}.ffn.wu"] = (h, 2 * f)
        shapes[f"{p}.ffn.wd"] = (f, h)
        for n in ("norm1", "norm2"):
            shapes[f"{p}.{n}.scale"] = (h,)
            if ln:
                shapes[f"{p}.{n}.offset"] = (h,)
    shapes["final_norm.scale"] = (h,)
    if ln:
        shapes["final_norm.offset"] = (h,)
    if not tied:
        shapes["mlm_head.w"] = (h, v)
    shapes["span_head.w"] = (h, 2)
    return shapes


def init_params(
    cfg: ArchConfig,
    seed: int = 0,
    tied: bool = True,
    dtype=np.float32,
) -> dict[str, np.ndarray]:
    """Scaled normal init: std 0.02, output projections shrunk by 1/sqrt(2L)."""
    rng = np.random.default_rng(seed)
    out_std = 0.02 / math.sqrt(2.0 * cfg.n_layers)
    params: dict[str, np.ndarray] = {}
    for name, shape in sorted(param_shapes(cfg, tied).items()):
        if name.endswith(".scale"):
            params[name] = np.ones(shape, dtype=dtype)
        elif name.endswith(".offset"):
            params[name] = np.zeros(shape, dtype=dtype)
        else:
            std = out_std if name.endswith((".wo", ".wd")) else 0.02
            params[name] = rng.normal(0.0, std, size=shape).astype(dtype)
    return params


def is_tied(params: dict[str, np.ndarray]) -> bool:
    return "mlm_head.w" not in params


def zeros_like_params(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in params.items()}


def validate_params(params: dict[str, np.ndarray], cfg: ArchConfig) -> list[str]:
    """Shape/finiteness check against the config; returns violations."""
    v: list[str] = []
    expected = param_shapes(cfg, tied=is_tied(params))
    for name, shape in expected.items():
        if name not in params:
            v.append(f"missing tensor {name}")
        elif tuple(params[name].shape) != shape:
            v.append(f"{name}: shape {params[name].shape}, expected {shape}")
        elif not np.all(np.isfinite(params[name])):
            v.append(f"{name}: non-finite values")
    for name in params:
        if name not in expected:
            v.append(f"unexpected tensor {name}")
    return v


# --- row blocks on the worker pool -------------------------------------------

# Large ops run in row blocks on the pinned pool of pool.py: blocks of their
# input rows, or of a weight gradient's rows, each of which sums over all
# tokens.  Whether an op is blocked, and where its blocks end, depends only on
# its shape, through the thresholds below, never on the worker count, so the
# results are bit-identical for any count.  Smaller ops run whole in the
# caller and start no thread.  An even number of near-equal blocks keeps two
# workers balanced; at most ROWS rows per block keeps the count low, because
# each block repacks the other matmul operand, which made 512-row blocks 20%
# slower than whole products at one worker and two BLAS threads.  Thresholds
# and ROWS come from sweeps at one and two BLAS threads on a 2-vCPU machine;
# see CHANGES.md.
ROWS = 2048
MATMUL_MIN_MACS = 1 << 25  # multiply-adds of one product
ROWWISE_MIN_ELEMS = 1 << 18  # elements of a row-wise op's input


def _row_blocks(n, large):
    """Row slices of an n-row op: if ``large``, an even number of near-equal
    blocks of at most ROWS rows; else all rows."""
    if not large:
        return [slice(None)]
    count = 2 * max(1, -(-n // (2 * ROWS)))
    step = max(1, -(-n // count))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _matmul(a, b):
    """a @ b for a 2-D a, in row blocks of a when large."""
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.result_type(a, b))
    large = a.shape[0] * a.shape[1] * b.shape[1] >= MATMUL_MIN_MACS
    pool._run(lambda r: np.matmul(a[r], b, out=out[r]), _row_blocks(a.shape[0], large))
    return out


def _matmul_tn(a, b):
    """a.T @ b, in row blocks of the result when large."""
    out = np.empty((a.shape[1], b.shape[1]), dtype=np.result_type(a, b))
    large = a.shape[0] * a.shape[1] * b.shape[1] >= MATMUL_MIN_MACS
    pool._run(lambda r: np.matmul(a[:, r].T, b, out=out[r]), _row_blocks(a.shape[1], large))
    return out


def _rowwise_blocks(x):
    return _row_blocks(x.shape[0], x.size >= ROWWISE_MIN_ELEMS)


def _rowwise(fn, x):
    """fn(rows) over the rows of x: in row blocks when x is large."""
    pool._run(fn, _rowwise_blocks(x))


# --- primitive ops with backward --------------------------------------------


# float32 erf: x * P(x^2) / Q(x^2) on x clamped to [-4, 4], the form Eigen and
# XLA use; beyond |x| = 4, erf rounds to +-1 in float32.  Evaluated in chunks
# of _ERF_CHUNK elements so that the temporaries stay in cache.
_ERF32_P = (-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
            -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
            -1.60960333262415e-02)
_ERF32_Q = (-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
            -7.37332916720468e-03, -1.42647390514189e-02)
_ERF_CHUNK = 65536
# float64 erf: the Cephes ndtr.c rationals (Cody 1969), erf on |x| < 1 and
# 1 - erfc above; beyond |x| = 8, erfc underflows against 1.
_ERF64_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
            7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF64_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
            4.59432382970980127987e3, 2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC64_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
             4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
             9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC64_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
             3.54937778887819891062e2, 9.75708501743205489753e2, 1.82390916687909736289e3,
             2.24633760818710981792e3, 1.65666309194161350182e3, 5.57535340817727675546e2)


def _horner(z, coefs):
    """Polynomial with ``coefs`` from the highest power down, evaluated at z."""
    acc = z * coefs[0]
    acc += coefs[1]
    for c in coefs[2:]:
        acc *= z
        acc += c
    return acc


def _erf32_block(x, out):
    t = np.clip(x, -4.0, 4.0)
    z = t * t
    p = _horner(z, _ERF32_P)
    p *= t
    p /= _horner(z, _ERF32_Q)
    np.clip(p, -1.0, 1.0, out=out)


def erf(x: np.ndarray) -> np.ndarray:
    """Error function of a float32 or float64 array, in the input's dtype.

    Max abs error against the exact value: about 4.2e-7 in float32 and
    3.3e-16 in float64.  erf(+-inf) = +-1, erf(nan) = nan, erf(-0.0) = -0.0.
    """
    x = np.asarray(x)
    if x.dtype == np.float64:
        a = np.minimum(np.abs(x), 8.0)
        z = a * a
        small = x * _horner(z, _ERF64_T) / _horner(z, _ERF64_U)
        big = 1.0 - np.exp(-z) * _horner(a, _ERFC64_P) / _horner(a, _ERFC64_Q)
        return np.where(a < 1.0, small, np.copysign(big, x))
    if x.dtype != np.float32:
        raise TypeError(f"erf takes float32 or float64, got {x.dtype}")
    out = np.empty(x.shape, dtype=np.float32)
    if x.size == 0:
        return out
    rows = x.reshape(-1, x.shape[-1]) if x.ndim else x.reshape(1, 1)
    dst = out.reshape(rows.shape)
    width = min(rows.shape[1], _ERF_CHUNK)
    height = _ERF_CHUNK // width
    chunks = [
        (slice(i, i + height), slice(j, j + width))
        for i in range(0, rows.shape[0], height)
        for j in range(0, rows.shape[1], width)
    ]
    pool._run(lambda c: _erf32_block(rows[c], dst[c]), chunks, x.size >= ROWWISE_MIN_ELEMS)
    return out


def act_forward(x: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Activation of x and the gate s with act = x * s that act_grad reuses.

    s is the normal CDF 0.5 * (1 + erf(x / sqrt 2)) for gelu and sigmoid(x)
    for silu.  Large inputs run in row blocks.
    """
    act = np.empty(x.shape, dtype=x.dtype)
    if kind == "gelu":
        t = np.empty_like(act)
        _rowwise(lambda r: np.multiply(x[r], _INV_SQRT2, out=t[r]), x)
        s = erf(t)

        def block(r):
            s[r] += 1.0
            s[r] *= 0.5
            np.multiply(x[r], s[r], out=act[r])
    elif kind == "silu":
        s = np.empty_like(act)

        def block(r):
            np.divide(1.0, 1.0 + np.exp(-x[r]), out=s[r])
            np.multiply(x[r], s[r], out=act[r])
    else:
        raise ValueError(f"unknown activation {kind!r}")
    _rowwise(block, x)
    return act, s


def act_grad(x: np.ndarray, s: np.ndarray, kind: str) -> np.ndarray:
    """d act / dx from x and the gate s that act_forward returned."""
    g = np.empty(x.shape, dtype=np.result_type(x, s))
    if kind == "gelu":
        def block(r):
            xr = x[r]
            np.add(s[r], xr * np.exp(-0.5 * xr * xr) * _INV_SQRT_2PI, out=g[r])
    elif kind == "silu":
        def block(r):
            np.multiply(s[r], 1.0 + x[r] * (1.0 - s[r]), out=g[r])
    else:
        raise ValueError(f"unknown activation {kind!r}")
    _rowwise(block, x)
    return g


def _norm_forward(x, params, prefix, cfg):
    scale = params[f"{prefix}.scale"]
    eps = cfg.norm_eps
    y = np.empty(x.shape, dtype=np.result_type(x, scale))
    r = np.empty((x.shape[0], 1), dtype=x.dtype)  # 1 / std of each row
    if cfg.norm == "layer_norm":
        offset = params[f"{prefix}.offset"]
        xhat = np.empty_like(x)

        def block(b):
            mean = x[b].mean(axis=-1, keepdims=True)
            xc = x[b] - mean
            var = (xc * xc).mean(axis=-1, keepdims=True)
            np.divide(1.0, np.sqrt(var + eps), out=r[b])
            np.multiply(xc, r[b], out=xhat[b])
            np.multiply(xhat[b], scale, out=y[b])
            y[b] += offset

        _rowwise(block, x)
        return y, (xhat, r)

    def block(b):
        xb = x[b]
        np.divide(1.0, np.sqrt((xb * xb).mean(axis=-1, keepdims=True) + eps), out=r[b])
        np.multiply(xb, r[b], out=y[b])
        y[b] *= scale

    _rowwise(block, x)
    return y, (x, r)


def _norm_backward(dy, cache, params, prefix, cfg, grads):
    """d x of a norm; the scale and offset gradients sum per-block partials in block order."""
    scale = params[f"{prefix}.scale"]
    xin, r = cache  # (xhat, 1 / std) for layer norm, (x, 1 / rms) for RMS norm
    ln = cfg.norm == "layer_norm"
    blocks = _rowwise_blocks(dy)
    d_scale = np.empty((len(blocks), dy.shape[1]), dtype=dy.dtype)
    d_offset = np.empty_like(d_scale) if ln else None
    dx = np.empty(dy.shape, dtype=np.result_type(dy, scale, xin))

    def block(task):
        i, b = task
        g, xb, rb = dy[b], xin[b], r[b]
        if ln:
            d_scale[i] = (g * xb).sum(axis=0)
            d_offset[i] = g.sum(axis=0)
            dxhat = g * scale
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xb).mean(axis=-1, keepdims=True)
            np.multiply(rb, dxhat - m1 - xb * m2, out=dx[b])
        else:
            d_scale[i] = (g * xb * rb).sum(axis=0)
            gs = g * scale
            m = (gs * xb).mean(axis=-1, keepdims=True)
            np.subtract(rb * gs, xb * (rb ** 3) * m, out=dx[b])

    pool._run(block, list(enumerate(blocks)))
    grads[f"{prefix}.scale"] += d_scale.sum(axis=0)
    if ln:
        grads[f"{prefix}.offset"] += d_offset.sum(axis=0)
    return dx


def _linear(x, params, name, extra):
    y = _matmul(x, params[name])
    if extra is not None and name in extra:
        a_mat, b_mat, s = extra[name]
        y = y + ((x @ a_mat) @ b_mat) * s
    return y


def _linear_backward(dy, x, params, name, grads):
    grads[name] += _matmul_tn(x, dy)
    return _matmul(dy, params[name].T)


# --- attention / ffn blocks --------------------------------------------------


def _layer_spec(cfg: ArchConfig, layer: int) -> MaskSpec:
    if cfg.attention_mode == "causal":
        return MaskSpec("causal")
    if cfg.layer_is_global(layer):
        return MaskSpec("global_bidirectional")
    return MaskSpec("sliding_window", window=cfg.local_window)


def _split_heads(x, n_heads, head_dim):
    t = x.shape[0]
    return np.ascontiguousarray(x.reshape(t, n_heads, head_dim).transpose(1, 0, 2))


def _merge_heads(x):
    h, t, d = x.shape
    return np.ascontiguousarray(x.transpose(1, 0, 2)).reshape(t, h * d)


def _attn_forward(x, layer, params, cfg, positions, boundaries, extra):
    p = f"layers.{layer}.attn"
    q = _split_heads(_linear(x, params, f"{p}.wq", extra), cfg.n_heads, cfg.head_dim)
    k = _split_heads(_linear(x, params, f"{p}.wk", extra), cfg.n_heads, cfg.head_dim)
    v = _split_heads(_linear(x, params, f"{p}.wv", extra), cfg.n_heads, cfg.head_dim)
    table = build_rope_table(cfg.rope_theta_for_layer(layer), cfg.head_dim, cfg.max_seq_len)
    qr = apply_rope(q, positions, table)
    kr = apply_rope(k, positions, table)
    spec = _layer_spec(cfg, layer)
    scale = 1.0 / math.sqrt(cfg.head_dim)
    ctx = kernels.attn_forward(qr, kr, v, boundaries, spec.code, spec.window, scale)
    merged = _merge_heads(ctx)
    out = _linear(merged, params, f"{p}.wo", extra)
    cache = (x, qr, kr, v, merged, spec, table, scale)
    return out, cache


def _attn_backward(d_out, cache, layer, params, cfg, positions, boundaries, grads):
    x, qr, kr, v, merged, spec, table, scale = cache
    p = f"layers.{layer}.attn"
    d_merged = _linear_backward(d_out, merged, params, f"{p}.wo", grads)
    d_ctx = _split_heads(d_merged, cfg.n_heads, cfg.head_dim)
    dqr, dkr, dv = kernels.attn_backward(qr, kr, v, d_ctx, boundaries, spec.code, spec.window, scale)
    dq = apply_rope(dqr, positions, table, inverse=True)
    dk = apply_rope(dkr, positions, table, inverse=True)
    dx = _linear_backward(_merge_heads(dq), x, params, f"{p}.wq", grads)
    dx += _linear_backward(_merge_heads(dk), x, params, f"{p}.wk", grads)
    dx += _linear_backward(_merge_heads(dv), x, params, f"{p}.wv", grads)
    return dx


def _ffn_forward(x, layer, params, cfg, extra):
    p = f"layers.{layer}.ffn"
    z = _linear(x, params, f"{p}.wu", extra)
    gate, value = z[:, : cfg.intermediate], z[:, cfg.intermediate:]
    act, s = act_forward(gate, cfg.activation)
    _rowwise(lambda r: np.multiply(act[r], value[r], out=act[r]), act)  # act * value
    out = _linear(act, params, f"{p}.wd", extra)
    return out, (x, gate, value, s)


def _ffn_backward(d_out, cache, layer, params, cfg, grads):
    x, gate, value, s = cache
    p = f"layers.{layer}.ffn"
    act = np.empty_like(s)
    inner = np.empty_like(s)

    def products(r):
        np.multiply(gate[r], s[r], out=act[r])
        np.multiply(act[r], value[r], out=inner[r])

    _rowwise(products, s)
    d_inner = _linear_backward(d_out, inner, params, f"{p}.wd", grads)
    d_act = act_grad(gate, s, cfg.activation)
    f = s.shape[1]
    dz = np.empty((s.shape[0], 2 * f), dtype=np.result_type(d_inner, value, d_act))

    def gate_grads(r):
        # [d_inner * value * d_act | d_inner * act]
        np.multiply(d_inner[r], value[r], out=dz[r, :f])
        dz[r, :f] *= d_act[r]
        np.multiply(d_inner[r], act[r], out=dz[r, f:])

    _rowwise(gate_grads, s)
    return _linear_backward(dz, x, params, f"{p}.wu", grads)


# --- full forward / backward --------------------------------------------------


@dataclass
class ForwardOutput:
    hidden: np.ndarray  # (total, hidden) for packed input
    cache: object | None = None


def _dropout_masks(batch: PackedBatch, cfg, n_layers, rate, seq_seeds, dtype):
    """Per-layer inverted-dropout masks, drawn per member sequence.

    Each member owns an independent Philox stream keyed by its seed, consumed
    layer by layer, so masks do not depend on how sequences are grouped into
    microbatches.
    """
    gens = [
        np.random.Generator(np.random.Philox(key=np.array([int(s) & 0xFFFFFFFFFFFFFFFF, _PHILOX_STREAM], dtype=np.uint64)))
        for s in seq_seeds
    ]
    total = batch.total_tokens
    keep = 1.0 - rate
    masks = []
    for _ in range(n_layers):
        m = np.empty((total, cfg.hidden), dtype=dtype)
        for s, g in enumerate(gens):
            lo, hi = int(batch.boundaries[s]), int(batch.boundaries[s + 1])
            m[lo:hi] = (g.random((hi - lo, cfg.hidden)) >= rate) / keep
        masks.append(m)
    return masks


def _validate_batch(batch: PackedBatch, cfg: ArchConfig):
    ids = batch.tokens
    if ids.size and (ids.min() < 0 or ids.max() >= cfg.vocab_size):
        raise ValueError(f"token id out of range for vocab_size {cfg.vocab_size}")
    if batch.max_member_len > cfg.max_seq_len:
        raise ValueError(
            f"member length {batch.max_member_len} exceeds max_seq_len {cfg.max_seq_len}"
        )


def forward(
    params: dict[str, np.ndarray],
    cfg: ArchConfig,
    batch: PackedBatch,
    *,
    train: bool = False,
    dropout_rate: float = 0.0,
    seq_seeds=None,
    extra_linear=None,
    want_cache: bool = False,
) -> ForwardOutput:
    """Run the stack over a packed batch; returns final hidden states.

    ``want_cache`` retains everything ``backward`` needs.  Attention-output
    dropout is applied only when ``train`` is true, the rate is positive and
    per-sequence seeds are provided.
    """
    _validate_batch(batch, cfg)
    boundaries = batch.boundaries
    positions = batch.positions
    dtype = params["tok_emb"].dtype
    h = params["tok_emb"][batch.tokens]

    use_dropout = train and dropout_rate > 0.0 and seq_seeds is not None
    masks = (
        _dropout_masks(batch, cfg, cfg.n_layers, dropout_rate, seq_seeds, dtype)
        if use_dropout
        else [None] * cfg.n_layers
    )

    layer_caches = []
    pre = cfg.block_style == "pre_norm"
    for i in range(cfg.n_layers):
        if pre:
            y1, n1c = _norm_forward(h, params, f"layers.{i}.norm1", cfg)
            a, ac = _attn_forward(y1, i, params, cfg, positions, boundaries, extra_linear)
            if masks[i] is not None:
                a = a * masks[i]
            h = h + a
            y2, n2c = _norm_forward(h, params, f"layers.{i}.norm2", cfg)
            f, fc = _ffn_forward(y2, i, params, cfg, extra_linear)
            h = h + f
        else:
            a, ac = _attn_forward(h, i, params, cfg, positions, boundaries, extra_linear)
            if masks[i] is not None:
                a = a * masks[i]
            h, n1c = _norm_forward(h + a, params, f"layers.{i}.norm1", cfg)
            f, fc = _ffn_forward(h, i, params, cfg, extra_linear)
            h, n2c = _norm_forward(h + f, params, f"layers.{i}.norm2", cfg)
        if want_cache:
            layer_caches.append((n1c, ac, n2c, fc, masks[i]))
    out, fn_cache = _norm_forward(h, params, "final_norm", cfg)
    cache = None
    if want_cache:
        cache = {
            "batch": batch,
            "positions": positions,
            "layers": layer_caches,
            "final_norm": fn_cache,
        }
    return ForwardOutput(hidden=out, cache=cache)


def backward(
    params: dict[str, np.ndarray],
    cfg: ArchConfig,
    cache: dict,
    d_hidden: np.ndarray,
    grads: dict[str, np.ndarray] | None = None,
) -> dict[str, np.ndarray]:
    """Accumulate gradients of a scalar loss given d(loss)/d(final hidden)."""
    if grads is None:
        grads = zeros_like_params(params)
    batch: PackedBatch = cache["batch"]
    positions = cache["positions"]
    boundaries = batch.boundaries
    dh = _norm_backward(d_hidden, cache["final_norm"], params, "final_norm", cfg, grads)
    pre = cfg.block_style == "pre_norm"
    for i in reversed(range(cfg.n_layers)):
        n1c, ac, n2c, fc, mask = cache["layers"][i]
        if pre:
            d_f = _ffn_backward(dh, fc, i, params, cfg, grads)
            dh = dh + _norm_backward(d_f, n2c, params, f"layers.{i}.norm2", cfg, grads)
            d_a = dh if mask is None else dh * mask
            d_y1 = _attn_backward(d_a, ac, i, params, cfg, positions, boundaries, grads)
            dh = dh + _norm_backward(d_y1, n1c, params, f"layers.{i}.norm1", cfg, grads)
        else:
            d_t2 = _norm_backward(dh, n2c, params, f"layers.{i}.norm2", cfg, grads)
            d_f = _ffn_backward(d_t2, fc, i, params, cfg, grads)
            dh = d_t2 + d_f
            d_t1 = _norm_backward(dh, n1c, params, f"layers.{i}.norm1", cfg, grads)
            d_a = d_t1 if mask is None else d_t1 * mask
            dh = d_t1 + _attn_backward(d_a, ac, i, params, cfg, positions, boundaries, grads)
    np.add.at(grads["tok_emb"], batch.tokens, dh)
    return grads


def padded_mask(max_len: int, lengths: np.ndarray, spec: MaskSpec) -> np.ndarray:
    """(batch, max_len, max_len) boolean mask for the padded path.

    A real query attends to allowed(i, j) among real keys.  PAD rows keep a
    self-connection so their softmax stays finite; their outputs are never
    read.
    """
    base = mask_matrix(max_len, spec)  # (L, L)
    key_ok = np.arange(max_len)[None, :] < np.asarray(lengths)[:, None]  # (B, L)
    mask = base[None, :, :] & key_ok[:, None, :]
    diag = np.eye(max_len, dtype=bool)
    return mask | diag[None, :, :]


def attention_padded(q, k, v, lengths, spec: MaskSpec, scale: float):
    """Dense attention over padded tensors: q, k, v are (batch, heads, L, D).

    Every slot costs compute, PAD included; this is the conventional padded
    execution model.
    """
    mask = padded_mask(q.shape[2], lengths, spec)[:, None, :, :]  # (B,1,L,L)
    scores = (q @ np.swapaxes(k, 2, 3)) * scale
    neg = np.array(-np.inf, dtype=scores.dtype)
    scores = np.where(mask, scores, neg)
    scores -= scores.max(axis=-1, keepdims=True)
    probs = np.exp(scores)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs @ v


def forward_padded(
    params: dict[str, np.ndarray],
    cfg: ArchConfig,
    ids: np.ndarray,
    lengths: np.ndarray,
) -> np.ndarray:
    """Dense padded forward: ids (batch, max_len), PAD slots cost compute.

    Eval-only; returns hidden states (batch, max_len, hidden).  Outputs at
    PAD slots are garbage by design and must be ignored by the caller.
    """
    ids = np.asarray(ids)
    if ids.ndim != 2:
        raise ValueError(f"expected (batch, max_len) ids, got {ids.shape}")
    bsz, max_len = ids.shape
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (bsz,) or lengths.min() <= 0 or lengths.max() > max_len:
        raise ValueError("lengths must be positive and bounded by max_len")
    if max_len > cfg.max_seq_len:
        raise ValueError(f"max_len {max_len} exceeds max_seq_len {cfg.max_seq_len}")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise ValueError(f"token id out of range for vocab_size {cfg.vocab_size}")

    positions = np.arange(max_len, dtype=np.int64)
    flat = ids.reshape(-1)
    h = params["tok_emb"][flat]  # (B*L, hidden)

    def to_heads(x):
        return np.ascontiguousarray(
            x.reshape(bsz, max_len, cfg.n_heads, cfg.head_dim).transpose(0, 2, 1, 3)
        )

    scale = 1.0 / math.sqrt(cfg.head_dim)
    pre = cfg.block_style == "pre_norm"
    for i in range(cfg.n_layers):
        p = f"layers.{i}"
        if pre:
            y1, _ = _norm_forward(h, params, f"{p}.norm1", cfg)
        else:
            y1 = h
        q = to_heads(_linear(y1, params, f"{p}.attn.wq", None))
        k = to_heads(_linear(y1, params, f"{p}.attn.wk", None))
        v = to_heads(_linear(y1, params, f"{p}.attn.wv", None))
        table = build_rope_table(cfg.rope_theta_for_layer(i), cfg.head_dim, cfg.max_seq_len)
        q = apply_rope(q, positions, table)
        k = apply_rope(k, positions, table)
        spec = _layer_spec(cfg, i)
        ctx = attention_padded(q, k, v, lengths, spec, scale)
        merged = np.ascontiguousarray(ctx.transpose(0, 2, 1, 3)).reshape(bsz * max_len, cfg.hidden)
        a = _linear(merged, params, f"{p}.attn.wo", None)
        if pre:
            h = h + a
            y2, _ = _norm_forward(h, params, f"{p}.norm2", cfg)
            f, _ = _ffn_forward(y2, i, params, cfg, None)
            h = h + f
        else:
            h, _ = _norm_forward(h + a, params, f"{p}.norm1", cfg)
            f, _ = _ffn_forward(h, i, params, cfg, None)
            h, _ = _norm_forward(h + f, params, f"{p}.norm2", cfg)
    out, _ = _norm_forward(h, params, "final_norm", cfg)
    return out.reshape(bsz, max_len, cfg.hidden)


# --- output heads --------------------------------------------------------------


def mlm_logits(hidden: np.ndarray, params: dict[str, np.ndarray]) -> np.ndarray:
    if is_tied(params):
        return _matmul(hidden, params["tok_emb"].T)
    return _matmul(hidden, params["mlm_head.w"])


def mlm_logits_vjp(d_logits, hidden, params, grads):
    """Backward of mlm_logits; returns d_hidden, accumulates weight grads."""
    if is_tied(params):
        grads["tok_emb"] += _matmul_tn(d_logits, hidden)
        return _matmul(d_logits, params["tok_emb"])
    grads["mlm_head.w"] += _matmul_tn(hidden, d_logits)
    return _matmul(d_logits, params["mlm_head.w"].T)


def span_logits(hidden: np.ndarray, params: dict[str, np.ndarray]):
    scores = hidden @ params["span_head.w"]
    return scores[:, 0], scores[:, 1]


def span_logits_vjp(d_start, d_end, hidden, params, grads):
    d_scores = np.stack([d_start, d_end], axis=1).astype(hidden.dtype)
    grads["span_head.w"] += hidden.T @ d_scores
    return d_scores @ params["span_head.w"].T


def pool_mean_packed(hidden: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Per-member mean over a packed batch; returns (n_members, hidden)."""
    sums = np.add.reduceat(hidden, boundaries[:-1].astype(np.int64), axis=0)
    lens = np.diff(boundaries).astype(hidden.dtype)
    return sums / lens[:, None]


def pool_mean_packed_vjp(d_pooled: np.ndarray, boundaries: np.ndarray, total: int) -> np.ndarray:
    lens = np.diff(boundaries)
    d_hidden = np.repeat(d_pooled / lens[:, None].astype(d_pooled.dtype), lens, axis=0)
    assert d_hidden.shape[0] == total
    return d_hidden


def predict_span(start_scores: np.ndarray, end_scores: np.ndarray, max_answer_len: int):
    """Best (s, e): s <= e, span length <= max_answer_len, max start[s]+end[e].

    Ties resolve to the shortest span, then the smallest start index.
    """
    if max_answer_len < 1:
        raise ValueError("max_answer_len must be >= 1")
    n = len(start_scores)
    if n == 0 or len(end_scores) != n:
        raise ValueError("score vectors must be non-empty and equally long")
    best_val = -np.inf
    best = (0, 0)
    for d in range(min(max_answer_len, n)):
        vals = start_scores[: n - d] + end_scores[d:]
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best = (i, i + d)
    return best
