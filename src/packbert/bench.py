"""Throughput harness: padded vs packed execution on synthetic corpora.

Reports seconds per million tokens with dispersion over repetitions. The
denominator is always the real token count; padding waste shows up as
time, not as extra credited tokens. A correctness probe comparing both
paths on one batch runs before any timing. In a "normal:MEAN:SPREAD" spec
the spread is the standard deviation of the document lengths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .config import ArchConfig
from .errors import ConfigError, TrainingError
from .model import forward, forward_padded
from .packing import pack
from .util import PURPOSE_DATA, derived_rng

PATHS = ("padded", "packed")


@dataclass(frozen=True)
class SyntheticSpec:
    kind: str  # fixed | normal
    length: int = 0  # fixed only
    mean: float = 0.0  # normal only
    spread: float = 0.0  # standard deviation, normal only
    n_docs: int = 8192
    seed: int = 0

    def describe(self) -> str:
        if self.kind == "fixed":
            return f"fixed:{self.length}"
        return f"normal:{self.mean:g}:{self.spread:g}(std)"


def parse_spec(text: str, *, n_docs: int = 8192, seed: int = 0):
    """Parse "fixed:512" or "normal:256:8" into a SyntheticSpec."""
    parts = text.split(":")
    try:
        if parts[0] == "fixed" and len(parts) == 2:
            return SyntheticSpec(
                kind="fixed", length=int(parts[1]), n_docs=n_docs, seed=seed
            )
        if parts[0] == "normal" and len(parts) == 3:
            return SyntheticSpec(
                kind="normal",
                mean=float(parts[1]),
                spread=float(parts[2]),
                n_docs=n_docs,
                seed=seed,
            )
    except ValueError as e:
        raise ConfigError(f"bad synthetic spec {text!r}: {e}") from e
    raise ConfigError(
        f"bad synthetic spec {text!r}; expected fixed:LEN or normal:MEAN:SPREAD"
    )


def gen_synthetic(
    spec: SyntheticSpec,
    vocab_size: int,
    special_ids=(),
    max_len: int | None = None,
) -> list[np.ndarray]:
    """Documents of uniformly random non-special ids, deterministic per seed."""
    if spec.n_docs < 1:
        raise ConfigError(f"n_docs must be >= 1, got {spec.n_docs}")
    rng = derived_rng(spec.seed, PURPOSE_DATA, 0)
    if spec.kind == "fixed":
        if spec.length < 1:
            raise ConfigError(f"fixed length must be >= 1, got {spec.length}")
        if max_len is not None and spec.length > max_len:
            raise ConfigError(
                f"length {spec.length} exceeds the model maximum {max_len}"
            )
        lengths = np.full(spec.n_docs, spec.length, dtype=np.int64)
    elif spec.kind == "normal":
        if not (1 <= spec.mean < np.inf and 0 <= spec.spread < np.inf):
            raise ConfigError(f"need a finite mean >= 1 and spread >= 0, got {spec}")
        draw = rng.normal(spec.mean, spec.spread, size=spec.n_docs)
        lengths = np.rint(draw).astype(np.int64)
        lengths = np.clip(lengths, 1, max_len)
    else:
        raise ConfigError(f"unknown synthetic kind {spec.kind!r}")
    allowed = np.setdiff1d(
        np.arange(vocab_size, dtype=np.int32),
        np.asarray(list(special_ids), dtype=np.int32),
    )
    if allowed.size == 0:
        raise ConfigError("vocabulary has no non-special ids to sample")
    return [
        allowed[rng.integers(0, allowed.size, size=int(n))] for n in lengths
    ]


@dataclass
class ThroughputReport:
    model_id: str
    spec: str
    path: str
    seconds_per_million_mean: float
    seconds_per_million_std: float
    reps: int
    token_count: int
    positions: int
    notes: dict = field(default_factory=dict)

    def to_line(self) -> str:
        extra = "".join(f" {k}={v}" for k, v in sorted(self.notes.items()))
        return (
            f"model={self.model_id} spec={self.spec} path={self.path} "
            f"tokens={self.token_count} positions={self.positions} "
            f"reps={self.reps} spmt_mean={self.seconds_per_million_mean:.6f} "
            f"spmt_std={self.seconds_per_million_std:.6f}{extra}"
        )


def _packed_batches(dataset, budget: int):
    batches, cur, cur_tokens = [], [], 0
    for seq in dataset:
        n = len(seq)
        if cur and cur_tokens + n > budget:
            batches.append(cur)
            cur, cur_tokens = [], 0
        cur.append(seq)
        cur_tokens += n
    if cur:
        batches.append(cur)
    return batches


def _padded_batches(dataset, budget: int):
    # Conventional padding: dataset order, batch padded to its longest member.
    batches, cur, cur_max = [], [], 0
    for seq in dataset:
        n = len(seq)
        new_max = max(cur_max, n)
        if cur and new_max * (len(cur) + 1) > budget:
            batches.append(cur)
            cur, cur_max = [], 0
            new_max = n
        cur.append(seq)
        cur_max = new_max
    if cur:
        batches.append(cur)
    return batches


def padded_positions(batches) -> int:
    return sum(len(b) * max(len(s) for s in b) for b in batches)


def packed_positions(batches) -> int:
    return sum(len(s) for b in batches for s in b)


def _run_packed(params, cfg, batches):
    for batch in batches:
        packed = pack(batch)
        forward(params, cfg, packed)


def _padded_ids(batch):
    """(ids, lengths) of a batch of sequences: ids (batch, max_len), zero past each end."""
    lengths = np.asarray([len(s) for s in batch], dtype=np.int64)
    ids = np.zeros((len(batch), int(lengths.max())), dtype=np.int32)
    for i, seq in enumerate(batch):
        ids[i, : len(seq)] = seq
    return ids, lengths


def _run_padded(params, cfg, batches):
    for batch in batches:
        forward_padded(params, cfg, *_padded_ids(batch))


def check_paths_agree(params, cfg, batch, *, tol: float = 1e-5):
    """Probe one batch through both paths; refuse to time if they disagree."""
    packed = pack(batch)
    packed_h = forward(params, cfg, packed).hidden
    padded_h = forward_padded(params, cfg, *_padded_ids(batch))
    worst = 0.0
    for i in range(len(batch)):
        lo, hi = int(packed.boundaries[i]), int(packed.boundaries[i + 1])
        worst = max(
            worst, float(np.abs(packed_h[lo:hi] - padded_h[i, : hi - lo]).max())
        )
    if worst > tol:
        raise TrainingError(
            f"padded and packed outputs disagree by {worst:.3e} (> {tol:.0e}); "
            "refusing to time a broken configuration"
        )
    return worst


def measure(
    params,
    cfg: ArchConfig,
    dataset,
    path: str,
    *,
    batch_budget: int = 16384,
    reps: int = 10,
    model_id: str = "",
    spec_label: str = "",
    probe: bool = True,
) -> ThroughputReport:
    """Time one execution path over the full dataset, reps times plus warmup."""
    if path not in PATHS:
        raise ConfigError(f"unknown path {path!r}; expected one of {PATHS}")
    if reps < 1:
        raise ConfigError(f"reps must be >= 1, got {reps}")
    if batch_budget < 1:
        raise ConfigError(f"batch_budget must be >= 1, got {batch_budget}")
    if len(dataset) == 0:
        raise ConfigError("cannot time an empty dataset")
    token_count = int(sum(len(s) for s in dataset))
    notes = {}

    budget = batch_budget
    for _ in range(8):
        try:
            if path == "packed":
                batches = _packed_batches(dataset, budget)
                positions = packed_positions(batches)
            else:
                batches = _padded_batches(dataset, budget)
                positions = padded_positions(batches)
            if probe:
                check_paths_agree(params, cfg, batches[0])

            times = []
            for rep in range(reps + 1):  # first pass warms caches, then discard
                t0 = time.perf_counter()
                if path == "packed":
                    _run_packed(params, cfg, batches)
                else:
                    _run_padded(params, cfg, batches)
                elapsed = time.perf_counter() - t0
                if rep > 0:
                    times.append(elapsed / (token_count / 1e6))
            break
        except MemoryError:
            budget = max(budget // 2, 1)
            notes["budget_reduced_to"] = budget
    else:
        raise TrainingError("out of memory even at the minimum batch budget")

    arr = np.asarray(times, dtype=np.float64)
    return ThroughputReport(
        model_id=model_id,
        spec=spec_label,
        path=path,
        seconds_per_million_mean=float(arr.mean()),
        seconds_per_million_std=float(arr.std(ddof=1)) if reps > 1 else 0.0,
        reps=reps,
        token_count=token_count,
        positions=int(positions),
        notes=notes,
    )


def render_table(reports) -> str:
    """Human-readable table: one row per (spec, path)."""
    header = f"{'spec':<24} {'path':<8} {'tokens':>12} {'positions':>12} {'s/1M tokens':>22}"
    rows = [header, "-" * len(header)]
    for r in reports:
        cell = f"{r.seconds_per_million_mean:.4f} ± {r.seconds_per_million_std:.4f}"
        rows.append(
            f"{r.spec:<24} {r.path:<8} {r.token_count:>12} {r.positions:>12} {cell:>22}"
        )
    return "\n".join(rows)
