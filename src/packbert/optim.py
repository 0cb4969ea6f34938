"""StableAdamW with per-tensor update clipping, plus the LR schedule.

The update is AdamW with bias correction, u = m_hat / (sqrt(v_hat) + eps),
scaled per tensor by c = 1 / max(1, RMS(u)), with decoupled weight decay:
params <- params - lr*c*u - lr*weight_decay*params.  Steps with non-finite
gradients are refused.

The schedule is trapezoidal: linear warmup to the peak over warmup_tokens,
a plateau, then a 1-sqrt decay (peak * (1 - sqrt(f))) over the final
decay_tokens of the budget; with zero warmup and the whole budget as decay
it is a pure 1-sqrt decay.  "constant" holds the peak throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import TrainPhaseConfig
from .errors import TrainingError


@dataclass
class OptState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int
    betas: tuple[float, float]
    eps: float
    weight_decay: float

    @classmethod
    def init(cls, params: dict[str, np.ndarray], phase: TrainPhaseConfig) -> "OptState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            t=0,
            betas=phase.betas,
            eps=phase.eps,
            weight_decay=phase.weight_decay,
        )


def step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptState,
    lr: float,
    clipping: bool = True,
) -> tuple[dict[str, np.ndarray], OptState]:
    """One optimizer step over every tensor in ``params``, in place."""
    if lr < 0:
        raise ValueError(f"lr must be >= 0, got {lr}")
    for k in params:
        if not np.all(np.isfinite(grads[k])):
            raise TrainingError(f"non-finite gradient for {k!r}; step refused")
    b1, b2 = state.betas
    state.t += 1
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for k in params:
        g = grads[k]
        m = state.m[k]
        v = state.v[k]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        u = (m / c1) / (np.sqrt(v / c2) + state.eps)
        if clipping:
            rms = math.sqrt(float(np.mean(np.square(u, dtype=np.float64))))
            c = 1.0 / max(1.0, rms)
        else:
            c = 1.0
        p = params[k]
        if state.weight_decay:
            p -= (lr * state.weight_decay) * p
        p -= (lr * c) * u
    return params, state


def lr_at(tokens_seen: int, phase: TrainPhaseConfig) -> float:
    """Learning rate after ``tokens_seen`` tokens of the phase's budget."""
    if tokens_seen < 0:
        raise ValueError(f"tokens_seen must be >= 0, got {tokens_seen}")
    if phase.schedule == "constant":
        return phase.peak_lr
    if phase.warmup_tokens > 0 and tokens_seen < phase.warmup_tokens:
        return phase.peak_lr * (tokens_seen / phase.warmup_tokens)
    if phase.decay_tokens > 0:
        decay_start = phase.token_budget - phase.decay_tokens
        if tokens_seen >= decay_start:
            f = (tokens_seen - decay_start) / phase.decay_tokens
            f = min(f, 1.0)
            return max(0.0, phase.peak_lr * (1.0 - math.sqrt(f)))
    return phase.peak_lr
