"""Throughput harness: spec parsing, synthetic data, position accounting."""

import time

import numpy as np
import pytest

from packbert.bench import (
    SyntheticSpec,
    check_paths_agree,
    gen_synthetic,
    measure,
    packed_positions,
    padded_positions,
    parse_spec,
    render_table,
)
from packbert.errors import ConfigError, TrainingError
from packbert.model import init_params


def test_parse_fixed_spec():
    spec = parse_spec("fixed:512", n_docs=100, seed=3)
    assert spec.kind == "fixed"
    assert spec.length == 512
    assert spec.n_docs == 100
    assert spec.seed == 3
    assert spec.describe() == "fixed:512"


def test_parse_normal_spec():
    spec = parse_spec("normal:256:8")
    assert spec.kind == "normal"
    assert spec.mean == 256.0
    assert spec.spread == 8.0
    assert spec.describe() == "normal:256:8(std)"


@pytest.mark.parametrize(
    "text",
    ["", "fixed", "fixed:12:9", "normal:256", "uniform:3:4", "fixed:abc", "normal:a:b"],
)
def test_parse_rejects_garbage(text):
    with pytest.raises(ConfigError):
        parse_spec(text)


def test_gen_fixed_lengths():
    spec = SyntheticSpec(kind="fixed", length=17, n_docs=40, seed=1)
    docs = gen_synthetic(spec, vocab_size=256)
    assert len(docs) == 40
    assert all(len(d) == 17 for d in docs)


def test_gen_is_deterministic():
    spec = SyntheticSpec(kind="normal", mean=30.0, spread=6.0, n_docs=64, seed=9)
    a = gen_synthetic(spec, 256, special_ids=(0, 1, 2))
    b = gen_synthetic(spec, 256, special_ids=(0, 1, 2))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = gen_synthetic(
        SyntheticSpec(kind="normal", mean=30.0, spread=6.0, n_docs=64, seed=10),
        256,
        special_ids=(0, 1, 2),
    )
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_gen_avoids_special_ids():
    spec = SyntheticSpec(kind="fixed", length=64, n_docs=32, seed=4)
    specials = (0, 1, 2, 3, 4)
    docs = gen_synthetic(spec, vocab_size=16, special_ids=specials)
    flat = np.concatenate(docs)
    assert flat.min() >= 0 and flat.max() < 16
    assert not np.isin(flat, specials).any()
    # Small id space: every non-special id should show up somewhere.
    assert set(np.unique(flat)) == set(range(5, 16))


def test_gen_normal_length_laws():
    spec = SyntheticSpec(kind="normal", mean=48.0, spread=12.0, n_docs=2000, seed=7)
    docs = gen_synthetic(spec, 256, max_len=64)
    lens = np.asarray([len(d) for d in docs])
    assert lens.min() >= 1
    assert lens.max() <= 64
    # Truncation at 64 pulls the mean below 48; it should stay in range.
    assert 40 < lens.mean() < 50


def test_gen_rejects_bad_specs():
    with pytest.raises(ConfigError):
        gen_synthetic(SyntheticSpec(kind="fixed", length=0, n_docs=4), 256)
    with pytest.raises(ConfigError):
        gen_synthetic(SyntheticSpec(kind="fixed", length=9, n_docs=0), 256)
    with pytest.raises(ConfigError):
        gen_synthetic(SyntheticSpec(kind="fixed", length=99, n_docs=4), 256, max_len=64)
    with pytest.raises(ConfigError):
        gen_synthetic(SyntheticSpec(kind="normal", mean=0.5, spread=1.0, n_docs=4), 256)
    with pytest.raises(ConfigError):
        gen_synthetic(SyntheticSpec(kind="zipf", n_docs=4), 256)
    with pytest.raises(ConfigError):
        gen_synthetic(
            SyntheticSpec(kind="fixed", length=4, n_docs=4),
            4,
            special_ids=(0, 1, 2, 3),
        )


def _ragged_batches():
    rng = np.random.default_rng(0)
    return [
        [rng.integers(5, 50, size=n).astype(np.int32) for n in (3, 9, 5)],
        [rng.integers(5, 50, size=n).astype(np.int32) for n in (12, 2)],
    ]


def test_position_accounting_padded_dominates():
    batches = _ragged_batches()
    padded = padded_positions(batches)
    packed = packed_positions(batches)
    assert packed == 3 + 9 + 5 + 12 + 2
    assert padded == 3 * 9 + 2 * 12
    assert padded > packed


def test_position_accounting_equal_iff_fixed():
    fixed = [[np.zeros(8, dtype=np.int32) for _ in range(3)] for _ in range(2)]
    assert padded_positions(fixed) == packed_positions(fixed) == 48
    ragged = [[np.zeros(8, dtype=np.int32), np.zeros(7, dtype=np.int32)]]
    assert padded_positions(ragged) == 16
    assert packed_positions(ragged) == 15


def test_measure_with_fake_clock(tiny_cfg, monkeypatch):
    params = init_params(tiny_cfg, seed=0)
    docs = gen_synthetic(
        SyntheticSpec(kind="fixed", length=8, n_docs=4, seed=1), tiny_cfg.vocab_size
    )
    # Reps see elapsed 1, 2, 3, 4 fake seconds; the warmup pass is dropped.
    ticks = iter([0.0, 1.0, 1.0, 3.0, 3.0, 6.0, 6.0, 10.0])
    monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))
    rep = measure(
        params, tiny_cfg, docs, "packed", reps=3, probe=False, spec_label="fixed:8"
    )
    tokens = 32
    scaled = [e / (tokens / 1e6) for e in (2.0, 3.0, 4.0)]
    assert rep.token_count == tokens
    assert rep.reps == 3
    assert rep.seconds_per_million_mean == pytest.approx(np.mean(scaled))
    assert rep.seconds_per_million_std == pytest.approx(np.std(scaled, ddof=1))


def test_measure_single_rep_reports_zero_std(tiny_cfg):
    params = init_params(tiny_cfg, seed=0)
    docs = gen_synthetic(
        SyntheticSpec(kind="fixed", length=8, n_docs=2, seed=1), tiny_cfg.vocab_size
    )
    rep = measure(params, tiny_cfg, docs, "padded", reps=1)
    assert rep.seconds_per_million_std == 0.0
    assert rep.seconds_per_million_mean > 0.0


def test_measure_position_fields(tiny_cfg):
    params = init_params(tiny_cfg, seed=0)
    rng = np.random.default_rng(3)
    docs = [
        rng.integers(5, 200, size=n).astype(np.int32)
        for n in rng.integers(4, 24, size=10)
    ]
    packed = measure(params, tiny_cfg, docs, "packed", reps=1, batch_budget=64)
    padded = measure(params, tiny_cfg, docs, "padded", reps=1, batch_budget=64)
    assert packed.token_count == padded.token_count == sum(len(d) for d in docs)
    assert packed.positions == packed.token_count
    assert padded.positions >= packed.positions


def test_measure_rejects_bad_arguments(tiny_cfg):
    params = init_params(tiny_cfg, seed=0)
    docs = gen_synthetic(
        SyntheticSpec(kind="fixed", length=8, n_docs=2, seed=1), tiny_cfg.vocab_size
    )
    with pytest.raises(ConfigError):
        measure(params, tiny_cfg, docs, "vectorized")
    with pytest.raises(ConfigError):
        measure(params, tiny_cfg, docs, "packed", reps=0)
    for budget in (0, -5):
        with pytest.raises(ConfigError, match="batch_budget"):
            measure(params, tiny_cfg, docs, "packed", batch_budget=budget)
    with pytest.raises(ConfigError):
        measure(params, tiny_cfg, [], "packed")


def test_probe_agrees_on_healthy_model(tiny_cfg):
    params = init_params(tiny_cfg, seed=0)
    rng = np.random.default_rng(5)
    batch = [rng.integers(5, 200, size=n).astype(np.int32) for n in (4, 9, 6)]
    worst = check_paths_agree(params, tiny_cfg, batch)
    assert worst <= 1e-5


def test_probe_refusal_path(tiny_cfg):
    params = init_params(tiny_cfg, seed=0)
    rng = np.random.default_rng(5)
    batch = [rng.integers(5, 200, size=n).astype(np.int32) for n in (4, 9)]
    with pytest.raises(TrainingError, match="refusing to time"):
        check_paths_agree(params, tiny_cfg, batch, tol=-1.0)


def test_report_line_format(tiny_cfg):
    params = init_params(tiny_cfg, seed=0)
    docs = gen_synthetic(
        SyntheticSpec(kind="fixed", length=8, n_docs=2, seed=1), tiny_cfg.vocab_size
    )
    rep = measure(
        params, tiny_cfg, docs, "packed", reps=2,
        model_id="tiny_test", spec_label="fixed:8",
    )
    line = rep.to_line()
    assert line.startswith("model=tiny_test spec=fixed:8 path=packed tokens=16 ")
    assert "positions=16" in line
    assert "reps=2" in line
    assert "spmt_mean=" in line and "spmt_std=" in line
    assert line.endswith(f"spmt_std={rep.seconds_per_million_std:.6f}")


def test_render_table_shape(tiny_cfg):
    params = init_params(tiny_cfg, seed=0)
    docs = gen_synthetic(
        SyntheticSpec(kind="fixed", length=8, n_docs=2, seed=1), tiny_cfg.vocab_size
    )
    reports = [
        measure(params, tiny_cfg, docs, p, reps=1, spec_label="fixed:8")
        for p in ("padded", "packed")
    ]
    table = render_table(reports)
    lines = table.splitlines()
    assert len(lines) == 4  # header, rule, two rows
    assert "±" in lines[2] and "±" in lines[3]
    assert "packed" in table and "padded" in table
