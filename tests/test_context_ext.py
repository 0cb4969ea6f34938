"""Context extension: config surgery, weight preservation, long inputs."""

import dataclasses

import numpy as np
import pytest

from packbert import config, model
from packbert.context_ext import extend
from packbert.errors import ConfigError
from packbert.packing import pack
from packbert.trainer import train_masked
from packbert.util import params_digest

from conftest import quick_phase

SPECIALS = frozenset({0, 1, 2, 3, 4})
MASK_ID = 4


@pytest.fixture
def short_cfg(tiny_cfg):
    # Pre-extension shape: short positions, small global theta.
    return dataclasses.replace(
        tiny_cfg, max_seq_len=512, rope_theta_global=10_000.0
    )


def test_extend_touches_only_theta_and_len(short_cfg):
    params = model.init_params(short_cfg, seed=0)
    new_params, new_cfg = extend(params, short_cfg,
                                 new_theta=160_000.0, new_max_len=8192)
    assert new_cfg.rope_theta_global == 160_000.0
    assert new_cfg.max_seq_len == 8192
    unchanged = dataclasses.replace(
        new_cfg, rope_theta_global=short_cfg.rope_theta_global,
        max_seq_len=short_cfg.max_seq_len,
    )
    assert unchanged == short_cfg


def test_extend_preserves_weights_exactly(short_cfg):
    params = model.init_params(short_cfg, seed=0)
    before = params_digest(params)
    new_params, _ = extend(params, short_cfg, 160_000.0, 8192)
    assert params_digest(new_params) == before
    assert params_digest(params) == before


def test_extend_is_idempotent(short_cfg):
    params = model.init_params(short_cfg, seed=0)
    p1, c1 = extend(params, short_cfg, 160_000.0, 8192)
    p2, c2 = extend(p1, c1, 160_000.0, 8192)
    assert c1 == c2
    assert params_digest(p1) == params_digest(p2)


def test_extend_rejects_shrinking(short_cfg):
    params = model.init_params(short_cfg, seed=0)
    with pytest.raises(ConfigError):
        extend(params, short_cfg, 160_000.0, 256)


def test_extend_rejects_bad_theta(short_cfg):
    params = model.init_params(short_cfg, seed=0)
    for theta in (0.0, float("inf"), float("nan")):
        with pytest.raises(ConfigError):
            extend(params, short_cfg, theta, 8192)


def test_extension_changes_long_range_attention(short_cfg):
    # Same weights, new global theta: outputs at long distance must differ,
    # which is the witness that the extension took effect.
    params = model.init_params(short_cfg, seed=0)
    _, ext_cfg = extend(params, short_cfg, 160_000.0, 8192)
    rng = np.random.default_rng(0)
    batch = pack([rng.integers(5, 256, size=300, dtype=np.int32)])
    a = model.forward(params, short_cfg, batch).hidden
    b = model.forward(params, ext_cfg, batch).hidden
    assert not np.allclose(a, b, atol=1e-7)


def test_extended_model_finite_at_scaled_lengths(short_cfg):
    params = model.init_params(short_cfg, seed=0)
    _, ext_cfg = extend(params, short_cfg, 160_000.0, 8192)
    rng = np.random.default_rng(1)
    for n in (8, 1024, 8192):
        batch = pack([rng.integers(5, 256, size=n, dtype=np.int32)])
        out = model.forward(params, ext_cfg, batch).hidden
        assert np.all(np.isfinite(out)), n


def test_short_input_still_works_after_extension(short_cfg):
    params = model.init_params(short_cfg, seed=0)
    _, ext_cfg = extend(params, short_cfg, 160_000.0, 8192)
    rng = np.random.default_rng(2)
    batch = pack([rng.integers(5, 256, size=16, dtype=np.int32)])
    out = model.forward(params, ext_cfg, batch).hidden
    assert np.all(np.isfinite(out))


def test_extension_phase_trains_and_tags(short_cfg):
    rng = np.random.default_rng(3)
    data = [rng.integers(5, 256, size=rng.integers(6, 14), dtype=np.int32)
            for _ in range(8)]
    params = model.init_params(short_cfg, seed=0)
    _, ext_cfg = extend(params, short_cfg, 160_000.0, 8192)
    result = train_masked(params, ext_cfg, data, quick_phase(token_budget=200),
                          mask_id=MASK_ID, special_ids=SPECIALS, phase_id="ext1")
    assert result.checkpoint.phase_id == "ext1"
    assert result.checkpoint.step >= 1
