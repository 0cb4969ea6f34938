"""Optimizer arithmetic, clipping bound, and the lr schedule."""

import math

import numpy as np
import pytest

from packbert.config import TrainPhaseConfig, validate_phase
from packbert.errors import TrainingError
from packbert.optim import OptState, lr_at, step


def phase(**kw):
    base = dict(token_budget=1000, betas=(0.9, 0.98), eps=1e-6,
                weight_decay=0.0, peak_lr=1e-3)
    base.update(kw)
    return TrainPhaseConfig(**base)


def fresh(params, **kw):
    return OptState.init(params, phase(**kw))


def test_first_step_closed_form():
    # From zero state: m-hat = g, v-hat = g^2, so the unclipped update is
    # lr * g / (|g| + eps) and decoupled decay shrinks the weight first.
    rng = np.random.default_rng(0)
    theta0 = rng.normal(size=5)
    g = rng.normal(size=5)
    lr, wd, eps = 1e-3, 0.01, 1e-6
    params = {"w": theta0.copy()}
    state = fresh(params, weight_decay=wd, eps=eps)
    step(params, {"w": g.copy()}, state, lr, clipping=False)
    expect = theta0 * (1 - lr * wd) - lr * g / (np.abs(g) + eps)
    np.testing.assert_allclose(params["w"], expect, atol=1e-10)


def textbook_adamw(theta, gs, lr, b1, b2, eps, wd):
    """Straight-line reimplementation, no shared code with the package."""
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    out = theta.copy()
    for t, g in enumerate(gs, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        out = out - lr * wd * out
        out = out - lr * mhat / (np.sqrt(vhat) + eps)
    return out


def test_matches_textbook_adamw_over_ten_steps():
    rng = np.random.default_rng(1)
    theta0 = rng.normal(size=3)
    gs = [rng.normal(size=3) for _ in range(10)]
    lr, wd = 3e-4, 0.1
    params = {"w": theta0.copy()}
    state = fresh(params, weight_decay=wd, betas=(0.9, 0.98), eps=1e-6)
    for g in gs:
        step(params, {"w": g.copy()}, state, lr, clipping=False)
    want = textbook_adamw(theta0, gs, lr, 0.9, 0.98, 1e-6, wd)
    np.testing.assert_allclose(params["w"], want, atol=1e-12)


def test_clip_bounds_update_under_huge_gradients():
    rng = np.random.default_rng(2)
    theta0 = rng.normal(size=64)
    g = rng.normal(size=64) * 1e6
    lr = 1e-2
    params = {"w": theta0.copy()}
    state = fresh(params, weight_decay=0.0)
    step(params, {"w": g}, state, lr, clipping=True)
    delta = params["w"] - theta0
    rms = math.sqrt(float(np.mean(delta ** 2)))
    assert rms <= lr * (1 + 1e-12)


def test_clip_inactive_for_small_updates():
    rng = np.random.default_rng(3)
    theta0 = rng.normal(size=8)
    g = rng.normal(size=8) * 1e-4
    params_a = {"w": theta0.copy()}
    params_b = {"w": theta0.copy()}
    sa = fresh(params_a)
    sb = fresh(params_b)
    step(params_a, {"w": g.copy()}, sa, 1e-5, clipping=True)
    step(params_b, {"w": g.copy()}, sb, 1e-5, clipping=False)
    # u = g/(|g|+eps) sits just under unit rms here, so the clip factor
    # max(1, rms) is exactly 1 and both paths agree bitwise.
    np.testing.assert_allclose(params_a["w"], params_b["w"], atol=1e-15)


def test_rms_is_per_tensor():
    # A tensor with a huge gradient is clipped; an independent tensor with
    # a small one is not dragged down with it.
    theta = {"big": np.zeros(4), "small": np.zeros(4)}
    grads = {"big": np.full(4, 1e6), "small": np.full(4, 1e-9)}
    state = fresh(theta)
    lr = 1e-3
    step(theta, grads, state, lr, clipping=True)
    big_rms = math.sqrt(float(np.mean(theta["big"] ** 2)))
    assert big_rms <= lr * (1 + 1e-12)
    assert np.all(theta["small"] != 0.0)


def test_weight_decay_decoupled_from_gradient():
    # Zero gradient still decays the weight; the decay factor is exact.
    theta0 = np.array([1.0, -2.0, 3.0])
    params = {"w": theta0.copy()}
    state = fresh(params, weight_decay=0.5)
    step(params, {"w": np.zeros(3)}, state, 0.1, clipping=False)
    np.testing.assert_allclose(params["w"], theta0 * (1 - 0.1 * 0.5), atol=1e-15)


def test_nonfinite_gradient_refused():
    params = {"w": np.zeros(3)}
    state = fresh(params)
    bad = {"w": np.array([1.0, np.nan, 0.0])}
    with pytest.raises(TrainingError):
        step(params, bad, state, 1e-3)
    assert state.t == 0  # refused before any state advanced
    np.testing.assert_array_equal(params["w"], np.zeros(3))


def test_negative_lr_rejected():
    params = {"w": np.zeros(2)}
    state = fresh(params)
    with pytest.raises(ValueError):
        step(params, {"w": np.ones(2)}, state, -1e-3)


def test_state_init_shapes():
    params = {"a": np.zeros((2, 3)), "b": np.zeros(5)}
    state = fresh(params)
    assert state.t == 0
    assert state.m["a"].shape == (2, 3)
    assert state.v["b"].shape == (5,)
    assert all(np.all(x == 0) for x in state.m.values())


def test_updates_happen_in_place():
    params = {"w": np.zeros(3)}
    ref = params["w"]
    state = fresh(params)
    step(params, {"w": np.ones(3)}, state, 1e-3)
    assert params["w"] is ref


# --- schedule ---


def sched_phase(**kw):
    base = dict(token_budget=1000, peak_lr=8e-4, schedule="trapezoidal",
                warmup_tokens=100, decay_tokens=400)
    base.update(kw)
    return TrainPhaseConfig(**base)


def test_lr_zero_at_start():
    assert lr_at(0, sched_phase()) == 0.0


def test_lr_peak_at_warmup_end():
    assert lr_at(100, sched_phase()) == 8e-4


def test_lr_linear_during_warmup():
    p = sched_phase()
    assert lr_at(50, p) == pytest.approx(4e-4, abs=1e-18)
    assert lr_at(25, p) == pytest.approx(2e-4, abs=1e-18)


def test_lr_constant_on_plateau():
    p = sched_phase()
    for t in (100, 300, 599, 600):
        assert lr_at(t, p) == 8e-4


def test_lr_half_peak_quarter_into_decay():
    # decay runs 600..1000; f=0.25 at 700; 1 - sqrt(0.25) = 0.5.
    assert lr_at(700, sched_phase()) == pytest.approx(4e-4, rel=1e-12)


def test_lr_zero_at_budget_end():
    assert lr_at(1000, sched_phase()) == 0.0
    assert lr_at(5000, sched_phase()) == 0.0


def test_lr_continuous_at_decay_start():
    p = sched_phase()
    assert lr_at(600, p) == pytest.approx(lr_at(599, p), rel=1e-2)
    assert lr_at(600, p) == 8e-4


def test_lr_nonincreasing_during_decay():
    p = sched_phase()
    values = [lr_at(t, p) for t in range(600, 1001, 10)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_constant_schedule_ignores_position():
    p = sched_phase(schedule="constant", warmup_tokens=0, decay_tokens=0)
    for t in (0, 1, 999, 10**9):
        assert lr_at(t, p) == 8e-4


def test_one_sqrt_decay_schedule():
    p = sched_phase(schedule="trapezoidal", warmup_tokens=0,
                    decay_tokens=1000)
    assert validate_phase(p) == []
    assert lr_at(0, p) == 8e-4
    assert lr_at(250, p) == pytest.approx(4e-4, rel=1e-12)
    assert lr_at(1000, p) == 0.0


def test_negative_tokens_rejected():
    with pytest.raises(ValueError):
        lr_at(-1, sched_phase())
