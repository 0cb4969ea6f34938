"""Training engine: determinism, provenance, resume, and the task heads."""

import collections
import dataclasses
import logging
import os
from pathlib import Path

import numpy as np
import pytest

from packbert import config, model, objectives, optim, trainer, util
from packbert.errors import ConfigError, DataError, TrainingError
from packbert.tensor_store import read_tensors, write_tensors
from packbert.trainer import (
    Checkpoint,
    ProvenanceRecord,
    SpanExample,
    Triplet,
    _microbatches,
    load_checkpoint,
    resume_masked,
    retrieval_accuracy,
    save_checkpoint,
    span_batch_loss,
    train_embedder,
    train_masked,
    train_mlm,
    train_span_qa,
    verify_provenance,
)

from conftest import quick_phase, traced_peak

SPECIALS = frozenset({0, 1, 2, 3, 4})
MASK_ID = 4


def toy_dataset(n=10, seed=0, lo=5, hi=20):
    rng = np.random.default_rng(seed)
    return [rng.integers(5, 256, size=rng.integers(lo, hi), dtype=np.int32)
            for _ in range(n)]


def run_mlm(cfg, dataset, phase, seed=0, **kw):
    params = model.init_params(cfg, seed=seed)
    return train_mlm(params, cfg, dataset, phase,
                     mask_id=MASK_ID, special_ids=SPECIALS, **kw)


def assert_params_equal(a, b):
    assert sorted(a) == sorted(b)
    for k in a:
        np.testing.assert_array_equal(a[k], b[k], err_msg=k)


# --- determinism ---


def test_rerun_is_bit_identical(tiny_cfg):
    data = toy_dataset()
    phase = quick_phase(token_budget=600)
    r1 = run_mlm(tiny_cfg, data, phase)
    r2 = run_mlm(tiny_cfg, data, phase)
    assert_params_equal(r1.checkpoint.params, r2.checkpoint.params)
    assert r1.provenance == r2.provenance
    assert r1.metrics == r2.metrics


def test_attention_worker_count_leaves_weights_unchanged(tiny_cfg, pool_workers):
    # Every pooled op (attention, linears, MLM head, norms, gate) runs in
    # blocks on the pool here, whatever its size; microbatches of two
    # 300-500 token members span two or more 512-row blocks.
    data = toy_dataset(n=8, lo=300, hi=500)
    phase = quick_phase(token_budget=3000)
    digests = []
    for workers in (1, 2, 3):
        pool_workers(workers)
        digests.append(util.params_digest(run_mlm(tiny_cfg, data, phase).checkpoint.params))
    assert digests[0] == digests[1] == digests[2]


def test_seed_changes_trajectory(tiny_cfg):
    data = toy_dataset()
    r1 = run_mlm(tiny_cfg, data, quick_phase(token_budget=400, seed=1))
    r2 = run_mlm(tiny_cfg, data, quick_phase(token_budget=400, seed=2))
    assert r1.provenance != r2.provenance


def test_loss_finite_at_every_step(tiny_cfg):
    result = run_mlm(tiny_cfg, toy_dataset(), quick_phase(token_budget=600))
    assert len(result.metrics) > 0
    for _, _, loss, lr in result.metrics:
        assert np.isfinite(loss)
        assert lr >= 0


# --- budget and batch geometry ---


def test_budget_halts_within_one_batch(tiny_cfg):
    data = toy_dataset(n=12)
    phase = quick_phase(token_budget=100, batch_tokens_or_sequences=3)
    result = run_mlm(tiny_cfg, data, phase)
    tokens = result.checkpoint.tokens_seen
    max_batch_tokens = 3 * max(len(s) for s in data)
    assert tokens >= 100
    assert tokens < 100 + max_batch_tokens


def test_budget_zero_takes_no_step(tiny_cfg):
    cfg = tiny_cfg
    params = model.init_params(cfg, seed=0)
    before = {k: v.copy() for k, v in params.items()}
    result = train_mlm(params, cfg, toy_dataset(), quick_phase(token_budget=0),
                       mask_id=MASK_ID, special_ids=SPECIALS)
    assert result.checkpoint.step == 0
    assert result.checkpoint.tokens_seen == 0
    assert len(result.provenance) == 0
    assert_params_equal(result.checkpoint.params, before)


def test_empty_dataset_rejected(tiny_cfg):
    with pytest.raises(DataError):
        run_mlm(tiny_cfg, [], quick_phase())


def _bad_id_runs(cfg, bad_id):
    """(trainer name, run(out_dir), item named in the error) per trainer, each
    with one token id ``bad_id`` in its last item."""
    params = model.init_params(cfg, seed=0)
    seqs = toy_dataset(n=8)
    seqs[7][3] = bad_id
    spans = span_examples()
    spans[5].ids[1] = bad_id
    trips = triplets()
    trips[5].negatives[1][0] = bad_id
    phase = quick_phase(batch_tokens_or_sequences=2)
    return [
        ("masked", lambda out: train_mlm(params, cfg, seqs, phase, mask_id=MASK_ID,
                                         special_ids=SPECIALS, out_dir=out), "sequence 7"),
        ("span", lambda out: train_span_qa(params, cfg, spans, phase, out_dir=out), "example 5"),
        ("embed", lambda out: train_embedder(params, cfg, trips, phase, out_dir=out), "triplet 5"),
    ]


@pytest.mark.parametrize("bad_id", (256, 10_000, -1), ids=("vocab", "far", "negative"))
def test_bad_token_id_is_rejected_before_any_step(tiny_cfg, tmp_path, monkeypatch, bad_id):
    monkeypatch.setattr(trainer, "_run_microbatches",
                        lambda *a, **k: pytest.fail("a step ran"))
    for name, run, item in _bad_id_runs(tiny_cfg, bad_id):
        with pytest.raises(DataError, match=f"{item} holds token id {bad_id}"):
            run(tmp_path / name)
        assert not (tmp_path / name).exists(), name


def test_wide_token_id_is_not_wrapped_into_the_vocabulary(tiny_cfg):
    # 2**32 + 7 is 7 once cast to int32; the check reads the id as given.
    seqs = [s.astype(np.int64) for s in toy_dataset(n=8)]
    seqs[2][0] = 2**32 + 7
    with pytest.raises(DataError, match=f"sequence 2 holds token id {2**32 + 7}"):
        run_mlm(tiny_cfg, seqs, quick_phase())


def test_batch_larger_than_dataset_rejected(tiny_cfg):
    data = toy_dataset(n=2)
    with pytest.raises(TrainingError):
        run_mlm(tiny_cfg, data, quick_phase(batch_tokens_or_sequences=5))


def test_partial_batch_dropped_and_logged(tiny_cfg, caplog):
    # 10 sequences, batch of 4: 2 full batches per epoch, 2 dropped.
    data = toy_dataset(n=10)
    phase = quick_phase(token_budget=10_000, batch_tokens_or_sequences=4,
                        microbatch=4)
    with caplog.at_level(logging.INFO, logger="packbert"):
        result = run_mlm(tiny_cfg, data, phase)
    for rec in result.provenance:
        assert len(rec.sequence_ids) == 4
    assert any("dropp" in m.lower() for m in caplog.messages)


def test_epoch_reshuffles_order(tiny_cfg):
    data = toy_dataset(n=8)
    phase = quick_phase(token_budget=4000, batch_tokens_or_sequences=4)
    result = run_mlm(tiny_cfg, data, phase)
    # At ~12 tokens/seq, 4000 tokens needs > 2 epochs of 8 sequences.
    epoch0 = [i for rec in result.provenance[:2]
              for i in rec.sequence_ids]
    epoch1 = [i for rec in result.provenance[2:4]
              for i in rec.sequence_ids]
    assert sorted(epoch0) == sorted(epoch1) == list(range(8))
    assert epoch0 != epoch1  # same pool, fresh permutation


# --- provenance ---


def test_provenance_token_counts_are_cumulative_lengths(tiny_cfg):
    data = toy_dataset(n=8)
    phase = quick_phase(token_budget=2000, batch_tokens_or_sequences=4)
    result = run_mlm(tiny_cfg, data, phase)
    running = 0
    for rec in result.provenance:
        running += sum(len(data[i]) for i in rec.sequence_ids)
        assert rec.token_count == running
    assert result.checkpoint.tokens_seen == running


def test_provenance_verify_and_tamper_detection(tiny_cfg):
    phase = quick_phase(token_budget=400)
    result = run_mlm(tiny_cfg, toy_dataset(), phase)
    verify_provenance(result.provenance, phase.seed)
    tampered = list(result.provenance)
    good = tampered[0]
    tampered[0] = ProvenanceRecord(
        step=good.step, token_count=good.token_count,
        sequence_ids=tuple(reversed(good.sequence_ids)), digest=good.digest,
    )
    with pytest.raises(TrainingError):
        verify_provenance(tampered, phase.seed)


def test_checkpoint_provenance_roundtrip(tiny_cfg, tmp_path):
    result = run_mlm(tiny_cfg, toy_dataset(), quick_phase(token_budget=500))
    ck = result.checkpoint
    assert ck.provenance == result.provenance
    assert ck.n_provenance == len(result.provenance) > 0
    path = tmp_path / "ck.pbt"
    save_checkpoint(ck, path)
    back = load_checkpoint(path)
    assert back.provenance == result.provenance
    assert back.n_provenance == len(result.provenance)
    verify_provenance(back.provenance, ck.phase.seed)


def test_checkpoint_provenance_count_must_match(tiny_cfg, tmp_path):
    ck = run_mlm(tiny_cfg, toy_dataset(), quick_phase(token_budget=300)).checkpoint
    ck.n_provenance += 1
    path = tmp_path / "ck.pbt"
    save_checkpoint(ck, path)
    with pytest.raises(DataError):
        load_checkpoint(path)


# --- checkpoints ---


def test_checkpoint_roundtrip(tiny_cfg, tmp_path):
    phase = quick_phase(token_budget=300)
    result = run_mlm(tiny_cfg, toy_dataset(), phase)
    ck = result.checkpoint
    path = tmp_path / "ck.pbt"
    save_checkpoint(ck, path)
    back = load_checkpoint(path)
    assert_params_equal(back.params, ck.params)
    assert_params_equal(back.opt.m, ck.opt.m)
    assert_params_equal(back.opt.v, ck.opt.v)
    assert back.opt.t == ck.opt.t
    assert back.opt.betas == ck.opt.betas
    assert back.cfg == ck.cfg
    assert back.phase == ck.phase
    assert (back.step, back.tokens_seen, back.epoch) == (
        ck.step, ck.tokens_seen, ck.epoch)
    assert back.pos_in_epoch == ck.pos_in_epoch
    assert back.consumed == ck.consumed
    assert back.dataset_digest == ck.dataset_digest
    assert back.extra == ck.extra


def test_checkpoint_with_settings_in_its_opt_block_loads(tiny_cfg, tmp_path):
    # Earlier files repeat the phase's betas, eps and weight decay beside t.
    ck = run_mlm(tiny_cfg, toy_dataset(), quick_phase(token_budget=300, weight_decay=0.01)).checkpoint
    path = tmp_path / "ck.pbt"
    save_checkpoint(ck, path)
    tensors, meta = read_tensors(path)
    assert meta["opt"] == {"t": ck.opt.t}
    meta["opt"] = {"t": ck.opt.t, "beta1": ck.opt.betas[0], "beta2": ck.opt.betas[1],
                   "eps": ck.opt.eps, "weight_decay": ck.opt.weight_decay}
    write_tensors(path, tensors, meta)
    back = load_checkpoint(path)
    assert_params_equal(back.params, ck.params)
    assert_params_equal(back.opt.m, ck.opt.m)
    assert_params_equal(back.opt.v, ck.opt.v)
    assert back.opt.t == ck.opt.t
    phase = back.phase
    assert (back.opt.betas, back.opt.eps, back.opt.weight_decay) == (
        phase.betas, phase.eps, phase.weight_decay) == ((0.9, 0.98), 1e-6, 0.01)


def test_output_dir_contents(tiny_cfg, tmp_path):
    phase = quick_phase(token_budget=800)
    run_mlm(tiny_cfg, toy_dataset(), phase,
            out_dir=tmp_path, checkpoint_interval_tokens=300)
    names = {p.name for p in tmp_path.iterdir()}
    assert "ckpt_final.pbt" in names
    assert "provenance.bin" not in names  # the log lives inside each checkpoint
    assert "metrics.txt" in names
    assert any(n.startswith("ckpt_step") for n in names)
    lines = (tmp_path / "metrics.txt").read_text().strip().splitlines()
    assert all(line.startswith("step=") and " loss=" in line for line in lines)


def _logged_steps(out_dir):
    lines = (out_dir / "metrics.txt").read_text().strip().splitlines()
    return [int(line.split()[0].removeprefix("step=")) for line in lines]


def test_fresh_runs_into_one_dir_log_each_step_once(tiny_cfg, tmp_path):
    phase = quick_phase(token_budget=800)
    for _ in range(2):
        result = run_mlm(tiny_cfg, toy_dataset(), phase, out_dir=tmp_path)
    assert _logged_steps(tmp_path) == [m[0] for m in result.metrics]


def test_resume_into_same_dir_continues_metrics_log(tiny_cfg, tmp_path):
    data = toy_dataset(n=8)
    full_phase = quick_phase(token_budget=1200, batch_tokens_or_sequences=4)
    half = run_mlm(tiny_cfg, data, quick_phase(token_budget=600, batch_tokens_or_sequences=4),
                   out_dir=tmp_path)
    ckpt = load_checkpoint(tmp_path / "ckpt_final.pbt")
    ckpt.phase = full_phase
    resumed = resume_masked(ckpt, data, mask_id=MASK_ID, special_ids=SPECIALS, out_dir=tmp_path)
    full = run_mlm(tiny_cfg, data, full_phase)
    steps = [m[0] for m in half.metrics] + [m[0] for m in resumed.metrics]
    assert _logged_steps(tmp_path) == steps == [m[0] for m in full.metrics]


def test_checkpoint_cadence_marks(tiny_cfg, tmp_path):
    data = toy_dataset(n=8)
    phase = quick_phase(token_budget=900, batch_tokens_or_sequences=4)
    result = run_mlm(tiny_cfg, data, phase, checkpoint_interval_tokens=200,
                     out_dir=tmp_path)
    crossings = [load_checkpoint(p) for p in sorted(tmp_path.glob("ckpt_step*.pbt"))]
    final = load_checkpoint(tmp_path / "ckpt_final.pbt")
    assert crossings
    marks = [ck.tokens_seen for ck in crossings + [final]]
    assert marks == sorted(marks)
    # Every interval checkpoint is the first step at or past a fresh multiple
    # of the interval.
    seen = set()
    for ck in crossings:
        mark = ck.tokens_seen // 200
        assert mark not in seen
        seen.add(mark)
    assert final.tokens_seen == result.checkpoint.tokens_seen


def _held_bytes(run):
    """Bytes still allocated, per tracemalloc, while the result of ``run()`` is held."""
    result, held, _ = traced_peak(run)
    assert result.checkpoint.step == 48
    return held


def test_interval_checkpoints_are_not_held_in_memory(tiny_cfg, tmp_path):
    # 40-token steps: an interval of 40 writes a checkpoint after every step.
    data = toy_dataset(n=8, lo=10, hi=11)

    def run(name, interval=0):
        return lambda: run_mlm(tiny_cfg, data, _steps_phase(48), out_dir=tmp_path / name,
                               checkpoint_interval_tokens=interval)

    run("warm")()  # caches fill outside the measurement
    plain = _held_bytes(run("plain"))
    every_step = _held_bytes(run("every", interval=40))
    assert len(list((tmp_path / "every").glob("ckpt_step*.pbt"))) == 48
    assert every_step - plain <= 2 * 2**20, (every_step, plain)


def test_interval_checkpoint_equals_shorter_runs_final(tiny_cfg, tmp_path):
    data = toy_dataset(n=8, lo=10, hi=11)
    run_mlm(tiny_cfg, data, _steps_phase(8), out_dir=tmp_path / "long",
            checkpoint_interval_tokens=160)
    run_mlm(tiny_cfg, data, _steps_phase(4), out_dir=tmp_path / "short")
    mark = load_checkpoint(tmp_path / "long" / "ckpt_step00000004.pbt")
    final = load_checkpoint(tmp_path / "short" / "ckpt_final.pbt")
    for a, b in ((mark.params, final.params), (mark.opt.m, final.opt.m),
                 (mark.opt.v, final.opt.v)):
        assert sorted(a) == sorted(b)
        assert all(a[k].tobytes() == b[k].tobytes() for k in a)
    assert mark.opt.t == final.opt.t == 4
    assert mark.provenance == final.provenance


def test_final_checkpoint_on_a_mark_is_the_step_file(tiny_cfg, tmp_path):
    # 40-token steps and a 160-token interval: step 8, the last, lands on a mark.
    data = toy_dataset(n=8, lo=10, hi=11)
    run_mlm(tiny_cfg, data, _steps_phase(8), out_dir=tmp_path, checkpoint_interval_tokens=160)
    step, final = tmp_path / "ckpt_step00000008.pbt", tmp_path / "ckpt_final.pbt"
    assert load_checkpoint(step).step == load_checkpoint(final).step == 8
    assert step.read_bytes() == final.read_bytes()
    assert os.stat(step).st_ino == os.stat(final).st_ino
    assert not any(p.name.startswith(".") for p in tmp_path.iterdir())  # no temporary left


def test_final_checkpoint_is_written_when_the_link_is_refused(tiny_cfg, tmp_path, monkeypatch):
    def refuse(src, dst):
        raise OSError("links not supported")

    monkeypatch.setattr(os, "link", refuse)
    data = toy_dataset(n=8, lo=10, hi=11)
    run_mlm(tiny_cfg, data, _steps_phase(8), out_dir=tmp_path, checkpoint_interval_tokens=160)
    step, final = tmp_path / "ckpt_step00000008.pbt", tmp_path / "ckpt_final.pbt"
    assert step.read_bytes() == final.read_bytes()
    assert os.stat(step).st_ino != os.stat(final).st_ino


def test_training_step_holds_each_activation_once(tiny_cfg):
    cfg = dataclasses.replace(tiny_cfg, n_layers=4, hidden=128, n_heads=2, intermediate=192,
                              local_window=64, max_seq_len=256)
    rng = np.random.default_rng(3)
    data = [rng.integers(5, 256, size=256, dtype=np.int32) for _ in range(8)]
    tokens = 8 * 256
    phase = quick_phase(token_budget=tokens, batch_tokens_or_sequences=8, microbatch=8)
    params = model.init_params(cfg, seed=0)

    def step():
        return train_mlm(params, cfg, data, phase, mask_id=MASK_ID, special_ids=SPECIALS)

    step()  # caches fill outside the measurement
    result, _, peak = traced_peak(step)
    assert result.checkpoint.step == 1
    # The trained copy, two moments and the gradients; per layer two norm
    # xhats, q, k, v, the merged context, gate|value and the gate CDF.  On
    # top, two layers' worth covers one layer's working set in the forward
    # and in the backward pass and the small MLM head here.
    state = 4 * sum(t.nbytes for t in params.values())
    per_layer = tokens * (6 * cfg.hidden + 3 * cfg.intermediate) * 4
    bound = state + (cfg.n_layers + 2) * per_layer
    assert peak < bound, (peak / 2**20, bound / 2**20)


# --- microbatches bounded by forward-cache bytes ---


def _best_cut(lengths, micro, cap):
    """(slices, largest slice's tokens) of the best cut, by brute force over every
    contiguous cut: the fewest slices, then the smallest largest one."""
    n, best = len(lengths), None
    for mask in range(1 << (n - 1)):
        starts = [0] + [i + 1 for i in range(n - 1) if mask >> i & 1]
        parts = [lengths[a:b] for a, b in zip(starts, starts[1:] + [n])]
        if all(len(p) <= micro and (sum(p) <= cap or len(p) == 1) for p in parts):
            key = (len(parts), max(sum(p) for p in parts))
            best = key if best is None else min(best, key)
    return best


def test_microbatch_cut_is_fewest_and_balanced():
    rng = np.random.default_rng(5)
    for _ in range(400):
        n = int(rng.integers(1, 11))
        lengths = rng.integers(1, 60, size=n).tolist()
        micro, cap = int(rng.integers(1, n + 1)), int(rng.integers(1, 200))
        cut = _microbatches(lengths, micro, cap)
        assert cut == _microbatches(list(lengths), micro, cap)
        # Every member once, in order.
        assert [i for sl in cut for i in range(n)[sl]] == list(range(n))
        parts = [lengths[sl] for sl in cut]
        for part in parts:
            assert 0 < len(part) <= micro
            assert sum(part) <= cap or len(part) == 1, (lengths, micro, cap, cut)
        assert (len(parts), max(sum(p) for p in parts)) == _best_cut(lengths, micro, cap)


def test_microbatch_cut_keeps_the_member_cap_when_tokens_do_not_bind():
    assert _microbatches([30] * 8, 4, 10**6) == [slice(0, 4), slice(4, 8)]
    assert _microbatches([5, 6, 7, 8, 9, 10], 2, 10**6) == [slice(0, 2), slice(2, 4), slice(4, 6)]
    # A member over the cap is a slice of its own; the rest still share.
    assert _microbatches([5, 6, 100, 7, 8], 5, 20) == [slice(0, 2), slice(2, 3), slice(3, 5)]


def _float64_params(cfg):
    return {k: v.astype(np.float64) for k, v in model.init_params(cfg, seed=0).items()}


def _runs_per_budget(monkeypatch, budgets, run):
    """run() under each MICROBATCH_CACHE_BYTES (None: the module's own); per
    budget, its result and the member count of every forward call."""
    real, out = trainer.forward, {}
    for budget in budgets:
        calls = []

        def counting(params, cfg, batch, **kw):
            calls.append(batch.n_seqs)
            return real(params, cfg, batch, **kw)

        monkeypatch.setattr(trainer, "forward", counting)
        if budget is not None:
            monkeypatch.setattr(trainer, "MICROBATCH_CACHE_BYTES", budget)
        out[budget] = (run(), calls)
    return out


def _assert_same_step(a, b):
    for k in a.checkpoint.params:
        np.testing.assert_allclose(a.checkpoint.params[k], b.checkpoint.params[k],
                                   rtol=0, atol=1e-10, err_msg=k)
    assert a.provenance == b.provenance
    assert [m[:2] for m in a.metrics] == [m[:2] for m in b.metrics]
    np.testing.assert_allclose([m[2] for m in a.metrics], [m[2] for m in b.metrics],
                               rtol=0, atol=1e-10)


def test_token_split_mlm_step_equals_the_unsplit_step(tiny_cfg, monkeypatch):
    # 4-member steps of 29-30 token members, 116-120 tokens, over a 115-token
    # cap: the fewest slices are two, balanced as two members each.  Counted
    # without dropout's masks the cap would be 124 tokens and the step whole.
    rng = np.random.default_rng(8)
    data = [rng.integers(5, 256, size=int(rng.integers(29, 31)), dtype=np.int32)
            for _ in range(8)]
    phase = quick_phase(token_budget=300, batch_tokens_or_sequences=4, microbatch=4)
    per_token = model.cache_bytes_per_token(tiny_cfg, 8, True)

    def run():
        return train_mlm(_float64_params(tiny_cfg), tiny_cfg, data, phase, mask_id=MASK_ID,
                         special_ids=SPECIALS, dropout_rate=0.1)

    runs = _runs_per_budget(monkeypatch, (None, 115 * per_token, 1), run)
    (whole, whole_calls), (two, two_calls), (single, single_calls) = runs.values()
    steps = whole.checkpoint.step
    assert steps >= 3
    assert (whole_calls, two_calls, single_calls) == ([4] * steps, [2] * 2 * steps,
                                                      [1] * 4 * steps)
    _assert_same_step(whole, two)
    _assert_same_step(whole, single)


def test_token_split_span_step_equals_the_unsplit_step(tiny_cfg, monkeypatch):
    # 4-member steps of 12-15 tokens: any two fit 32 tokens and no three do.
    rng = np.random.default_rng(9)
    examples = []
    for _ in range(8):
        ids = rng.integers(5, 256, size=int(rng.integers(12, 16)), dtype=np.int32)
        start = int(rng.integers(0, ids.size - 3))
        examples.append(SpanExample(ids=ids, start=start, end=start + 2))
    phase = quick_phase(token_budget=150, batch_tokens_or_sequences=4, microbatch=4)
    per_token = model.cache_bytes_per_token(tiny_cfg, 8, False)

    def run():
        return train_span_qa(_float64_params(tiny_cfg), tiny_cfg, examples, phase)

    runs = _runs_per_budget(monkeypatch, (None, 32 * per_token, 1), run)
    (whole, whole_calls), (two, two_calls), (single, single_calls) = runs.values()
    steps = whole.checkpoint.step
    assert steps >= 2
    assert (whole_calls, two_calls, single_calls) == ([4] * steps, [2] * 2 * steps,
                                                      [1] * 4 * steps)
    _assert_same_step(whole, two)
    _assert_same_step(whole, single)


def test_step_over_the_budget_holds_one_microbatch_of_cache(tiny_cfg, monkeypatch):
    # One step of 8 members of 256 tokens, under a budget of 256 tokens' cache:
    # it runs as 8 microbatches of one member.
    cfg = dataclasses.replace(tiny_cfg, n_layers=4, hidden=128, n_heads=2, intermediate=192,
                              local_window=64, max_seq_len=256)
    rng = np.random.default_rng(3)
    data = [rng.integers(5, 256, size=256, dtype=np.int32) for _ in range(8)]
    tokens = 8 * 256
    phase = quick_phase(token_budget=tokens, batch_tokens_or_sequences=8, microbatch=8)
    params = model.init_params(cfg, seed=0)
    per_token = model.cache_bytes_per_token(cfg, 4, False)
    budget = 256 * per_token
    monkeypatch.setattr(trainer, "MICROBATCH_CACHE_BYTES", budget, raising=False)

    def step():
        return train_mlm(params, cfg, data, phase, mask_id=MASK_ID, special_ids=SPECIALS)

    step()  # caches fill outside the measurement
    result, _, peak = traced_peak(step)
    assert result.checkpoint.step == 1
    # The trained copy, two moments and the gradients; one microbatch's forward
    # cache; and one layer's cache over the whole step, which covers a layer's
    # working set in the forward and backward passes and the small MLM head.
    # Unsplit, the step's forward cache alone is eight budgets.
    state = 4 * sum(t.nbytes for t in params.values())
    one_layer = tokens * 4 * (2 * cfg.hidden + 4 * cfg.n_heads * cfg.head_dim
                              + 3 * cfg.intermediate + 2)
    bound = state + budget + one_layer
    assert peak < bound, (peak / 2**20, bound / 2**20)


# --- the vocabulary head in row chunks ---

HEAD_VOCAB = 4096
CHUNK = objectives.head_chunk_rows(HEAD_VOCAB)


def _head_case(n, tied):
    """float64 head weights, a slice's hidden rows, n masked rows and targets."""
    rng = np.random.default_rng(n)
    params = {"tok_emb": rng.normal(size=(HEAD_VOCAB, 16))}
    if not tied:
        params["mlm_head.w"] = rng.normal(size=(16, HEAD_VOCAB))
    hidden = rng.normal(size=(2 * n + 7, 16))
    rows = np.sort(rng.permutation(hidden.shape[0])[:n])
    return params, hidden, rows, rng.integers(0, HEAD_VOCAB, size=n)


def _one_shot_head(hidden, rows, targets, params, total):
    """The head over all rows at once, from the same three public ops."""
    grads = model.zeros_like_params(params)
    x = hidden[rows]
    loss, d_logits = objectives.mlm_loss(model.mlm_logits(x, params), targets)
    weight = rows.size / total
    d_logits *= weight
    d_hidden = np.zeros_like(hidden)
    d_hidden[rows] = model.mlm_logits_vjp(d_logits, x, params, grads)
    return loss * weight, d_hidden, grads


@pytest.mark.parametrize("tied", (True, False), ids=("tied", "untied"))
@pytest.mark.parametrize("n", (1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5))
def test_chunked_head_equals_one_shot(n, tied):
    params, hidden, rows, targets = _head_case(n, tied)
    total = n + 3  # another slice holds three more rows of the step's mean
    grads = model.zeros_like_params(params)
    loss, d_hidden = trainer._vocab_head(hidden, rows, targets, params, grads, total)
    want_loss, want_d_hidden, want_grads = _one_shot_head(hidden, rows, targets, params, total)
    pairs = [(d_hidden, want_d_hidden)] + [(grads[k], want_grads[k]) for k in grads]
    if n <= CHUNK:  # one chunk: the same ops on the same arrays
        assert loss == want_loss
        assert all(got.tobytes() == want.tobytes() for got, want in pairs)
    assert loss == pytest.approx(want_loss, rel=1e-12, abs=0)
    for got, want in pairs:
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_chunked_head_calls_the_traced_names_once_per_chunk(monkeypatch):
    # The benchmark's tracer wraps these names where the trainer looks them up.
    calls = collections.Counter()
    for name in ("mlm_logits", "mlm_loss", "mlm_logits_vjp"):
        def counting(*args, _name=name, _real=getattr(trainer, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(trainer, name, counting)
    params, hidden, rows, targets = _head_case(3 * CHUNK + 5, tied=True)
    grads = model.zeros_like_params(params)
    trainer._vocab_head(hidden, rows, targets, params, grads, rows.size)
    assert calls == {"mlm_logits": 4, "mlm_loss": 4, "mlm_logits_vjp": 4}


@pytest.mark.parametrize("tied", (True, False), ids=("tied", "untied"))
@pytest.mark.parametrize("objective", trainer.MASKED_OBJECTIVES)
def test_chunked_head_trains_the_one_shot_step(tiny_cfg, objective, tied, monkeypatch):
    # Two 2-member slices of 20-40 token members, about 18 masked rows each:
    # 3-row chunks against chunks larger than any slice.
    rng = np.random.default_rng(21)
    data = [rng.integers(5, 256, size=int(rng.integers(20, 41)), dtype=np.int32)
            for _ in range(8)]
    phase = quick_phase(token_budget=1, batch_tokens_or_sequences=4, microbatch=2)
    real_step = trainer.opt_step

    def first_step(chunk_rows):
        monkeypatch.setattr(trainer, "head_chunk_rows", lambda vocab: chunk_rows)
        seen = []

        def capture(trained, grads, opt, lr):
            seen.append({k: g.copy() for k, g in grads.items()})
            real_step(trained, grads, opt, lr)

        monkeypatch.setattr(trainer, "opt_step", capture)
        params = {k: v.astype(np.float64)
                  for k, v in model.init_params(tiny_cfg, seed=0, tied=tied).items()}
        result = train_masked(params, tiny_cfg, data, phase, objective=objective,
                              mask_id=MASK_ID, special_ids=SPECIALS)
        assert result.checkpoint.step == len(seen) == 1
        return result.metrics[0][2], seen[0]

    loss, grads = first_step(3)
    want_loss, want_grads = first_step(1 << 20)
    assert loss == pytest.approx(want_loss, rel=1e-12, abs=0)
    assert grads.keys() == want_grads.keys()
    for k, want in want_grads.items():
        np.testing.assert_allclose(grads[k], want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max(), err_msg=k)


def test_masked_step_holds_one_chunk_of_the_head(tiny_cfg):
    # A head-heavy shape: 16,384 classes over 4 members of 500 tokens, 30%
    # masked.  The whole head of about 600 rows, logits and their gradient,
    # is about 79 MB of float32 beside a forward cache of about 13 MB.
    cfg = dataclasses.replace(tiny_cfg, vocab_size=16384, max_seq_len=512)
    rng = np.random.default_rng(22)
    data = [rng.integers(5, cfg.vocab_size, size=500, dtype=np.int32) for _ in range(4)]
    tokens = 4 * 500
    phase = quick_phase(token_budget=tokens, batch_tokens_or_sequences=4, microbatch=4,
                        mask_rate=0.3)
    params = model.init_params(cfg, seed=0)

    def step():
        return train_mlm(params, cfg, data, phase, mask_id=MASK_ID, special_ids=SPECIALS)

    step()  # caches fill outside the measurement
    result, _, peak = traced_peak(step)
    assert result.checkpoint.step == 1
    # The weights, two moments and the gradients; the step's forward cache;
    # two head chunks of float32 logits, their float64 softmax and float32
    # gradient; and one layer's working set.
    state = 4 * sum(t.nbytes for t in params.values())
    cache = tokens * model.cache_bytes_per_token(cfg, 4, False)
    chunk = objectives.head_chunk_rows(cfg.vocab_size) * cfg.vocab_size * (4 + 8 + 4)
    one_layer = tokens * (6 * cfg.hidden + 3 * cfg.intermediate) * 4
    bound = state + cache + 2 * chunk + one_layer
    assert peak < bound, (peak / 2**20, bound / 2**20)


def test_resume_from_an_interval_checkpoint_logs_each_step_once(tiny_cfg, tmp_path):
    # 16 steps, a checkpoint every 4; the resume from step 4 runs steps 5-16
    # again into the same directory, whose log already holds them.
    data = toy_dataset(n=8, lo=10, hi=11)
    run_mlm(tiny_cfg, data, _steps_phase(16), out_dir=tmp_path, checkpoint_interval_tokens=160)
    uninterrupted = (tmp_path / "metrics.txt").read_text()
    ckpt = load_checkpoint(tmp_path / "ckpt_step00000004.pbt")
    resumed = resume_masked(ckpt, data, mask_id=MASK_ID, special_ids=SPECIALS, out_dir=tmp_path)
    assert [m[0] for m in resumed.metrics] == list(range(5, 17))
    assert _logged_steps(tmp_path) == list(range(1, 17))
    assert (tmp_path / "metrics.txt").read_text() == uninterrupted


def test_train_masked_trains_the_dict_it_is_given(tiny_cfg):
    params = model.init_params(tiny_cfg, seed=0)
    before = {k: v.copy() for k, v in params.items()}
    result = run_mlm(tiny_cfg, toy_dataset(), quick_phase(token_budget=200))
    trained = train_mlm(params, tiny_cfg, toy_dataset(), quick_phase(token_budget=200),
                        mask_id=MASK_ID, special_ids=SPECIALS)
    assert trained.checkpoint.params is params
    assert_params_equal(params, result.checkpoint.params)
    assert any(not np.array_equal(params[k], before[k]) for k in params)


def test_resume_trains_a_copy_of_the_checkpoint(tiny_cfg):
    data = toy_dataset(n=8)
    half = run_mlm(tiny_cfg, data, quick_phase(token_budget=300)).checkpoint
    half.phase = quick_phase(token_budget=600)
    kept = {k: v.copy() for k, v in half.params.items()}
    first = resume_masked(half, data, mask_id=MASK_ID, special_ids=SPECIALS).checkpoint
    second = resume_masked(half, data, mask_id=MASK_ID, special_ids=SPECIALS).checkpoint
    assert_params_equal(half.params, kept)
    assert_params_equal(first.params, second.params)
    assert not any(np.shares_memory(first.params[k], half.params[k]) for k in kept)


def test_lr_metric_matches_schedule(tiny_cfg):
    phase = quick_phase(token_budget=800, schedule="trapezoidal",
                        warmup_tokens=300, decay_tokens=300, peak_lr=1e-3)
    result = run_mlm(tiny_cfg, toy_dataset(), phase)
    for _, tokens, _, lr in result.metrics:
        assert lr == pytest.approx(optim.lr_at(tokens, phase), abs=1e-15)


# --- resume ---


def test_resume_reproduces_uninterrupted_run(tiny_cfg, tmp_path):
    data = toy_dataset(n=8)
    full_phase = quick_phase(token_budget=1200, batch_tokens_or_sequences=4)
    half_phase = quick_phase(token_budget=600, batch_tokens_or_sequences=4)
    full = run_mlm(tiny_cfg, data, full_phase)

    half = run_mlm(tiny_cfg, data, half_phase)
    path = tmp_path / "half.pbt"
    save_checkpoint(half.checkpoint, path)
    loaded = load_checkpoint(path)
    # Give the resumed run the full budget.
    loaded.phase = full_phase
    resumed = resume_masked(loaded, data, mask_id=MASK_ID, special_ids=SPECIALS)

    assert_params_equal(resumed.checkpoint.params, full.checkpoint.params)
    assert_params_equal(resumed.checkpoint.opt.m, full.checkpoint.opt.m)
    assert resumed.checkpoint.tokens_seen == full.checkpoint.tokens_seen
    # Fresh log holds only post-resume records; concatenation replays the
    # uninterrupted history.
    assert half.provenance + resumed.provenance == full.provenance


def test_resumed_phase_sets_the_optimizer(tiny_cfg, tmp_path):
    data = toy_dataset(n=8)
    half_phase = quick_phase(token_budget=600, batch_tokens_or_sequences=4, weight_decay=0.0)
    save_checkpoint(run_mlm(tiny_cfg, data, half_phase).checkpoint, tmp_path / "half.pbt")
    loaded = load_checkpoint(tmp_path / "half.pbt")
    resumed = {}
    for wd in (0.0, 0.1):
        loaded.phase = dataclasses.replace(half_phase, token_budget=1200, weight_decay=wd)
        resumed[wd] = resume_masked(loaded, data, mask_id=MASK_ID, special_ids=SPECIALS,
                                    out_dir=tmp_path / f"wd{wd}")
    assert loaded.opt.weight_decay == 0.0  # a resume leaves its checkpoint alone
    ck = resumed[0.1].checkpoint
    assert ck.opt.weight_decay == 0.1
    back = load_checkpoint(tmp_path / "wd0.1" / "ckpt_final.pbt")
    assert back.opt.weight_decay == back.phase.weight_decay == 0.1
    kept = resumed[0.0].checkpoint.params
    assert any(not np.array_equal(ck.params[k], kept[k]) for k in ck.params)


def _steps_phase(steps):
    # toy_dataset(lo=10, hi=11) members are 10 tokens: 40 tokens per 4-member step.
    return quick_phase(token_budget=40 * steps, batch_tokens_or_sequences=4)


def test_resume_into_same_dir_keeps_full_provenance(tiny_cfg, tmp_path):
    data = toy_dataset(n=8, lo=10, hi=11)
    run_mlm(tiny_cfg, data, _steps_phase(12), out_dir=tmp_path)
    half = load_checkpoint(tmp_path / "ckpt_final.pbt")
    assert half.n_provenance == 12
    half.phase = _steps_phase(24)
    resumed = resume_masked(half, data, mask_id=MASK_ID, special_ids=SPECIALS,
                            out_dir=tmp_path)
    full = run_mlm(tiny_cfg, data, _steps_phase(24))
    assert len(resumed.provenance) == 12
    assert len(full.provenance) == 24
    back = load_checkpoint(tmp_path / "ckpt_final.pbt")
    assert back.n_provenance == 24
    assert back.provenance == full.provenance
    verify_provenance(back.provenance, back.phase.seed)


def test_failed_checkpoint_write_leaves_previous_checkpoint(tiny_cfg, tmp_path, monkeypatch):
    real_replace = os.replace
    targets = []

    def crash_on_second(src, dst):
        targets.append(Path(dst).name)
        if len(targets) == 2:
            raise OSError("simulated crash before the rename")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", crash_on_second)
    with pytest.raises(OSError, match="simulated crash"):
        run_mlm(tiny_cfg, toy_dataset(n=8, lo=10, hi=11), _steps_phase(12),
                out_dir=tmp_path, checkpoint_interval_tokens=160)
    first, second = targets
    assert (first, second) == ("ckpt_step00000004.pbt", "ckpt_step00000008.pbt")
    ck = load_checkpoint(tmp_path / first)
    assert [r.step for r in ck.provenance] == [1, 2, 3, 4]
    assert ck.n_provenance == 4
    verify_provenance(ck.provenance, ck.phase.seed)
    assert sorted(p.name for p in tmp_path.iterdir()) == [first, "metrics.txt"]


def test_resume_refuses_different_dataset(tiny_cfg):
    data = toy_dataset(n=8)
    half = run_mlm(tiny_cfg, data, quick_phase(token_budget=300))
    shuffled = list(reversed(data))
    with pytest.raises(TrainingError):
        resume_masked(half.checkpoint, shuffled,
                      mask_id=MASK_ID, special_ids=SPECIALS)


@pytest.mark.parametrize("change", ({"seed": 8}, {"batch_tokens_or_sequences": 2}),
                         ids=("seed", "batch"))
def test_resume_refuses_a_phase_that_would_diverge(tiny_cfg, tmp_path, change):
    # A new seed fails the provenance check of the records before the resume;
    # a new batch size moves the epoch positions.
    data = toy_dataset(n=8)
    half = run_mlm(tiny_cfg, data, quick_phase(token_budget=300)).checkpoint
    half.phase = dataclasses.replace(half.phase, token_budget=600, **change)
    name = next(iter(change))
    with pytest.raises(ConfigError, match=f"resume changes {name}"):
        resume_masked(half, data, mask_id=MASK_ID, special_ids=SPECIALS,
                      out_dir=tmp_path / "resumed")
    assert not (tmp_path / "resumed").exists()


def test_resume_refuses_a_new_mask_policy_or_dropout(tiny_cfg, tmp_path):
    # Both change what each step trains on.  A checkpoint from before they
    # were recorded holds only its objective, and still resumes.
    data = toy_dataset(n=8)
    half = run_mlm(tiny_cfg, data, quick_phase(token_budget=300)).checkpoint
    assert half.extra == {"objective": "mlm", "mask_policy": "all_mask", "dropout_rate": 0.0}
    half.phase = dataclasses.replace(half.phase, token_budget=600)
    for change in ({"mask_policy": "bert_80_10_10"}, {"dropout_rate": 0.1}):
        name = next(iter(change))
        with pytest.raises(ConfigError, match=f"resume changes {name}"):
            resume_masked(half, data, mask_id=MASK_ID, special_ids=SPECIALS,
                          out_dir=tmp_path / "resumed", **change)
        assert not (tmp_path / "resumed").exists()
    half.extra = {"objective": "mlm"}
    save_checkpoint(half, tmp_path / "old.pbt")
    resumed = resume_masked(load_checkpoint(tmp_path / "old.pbt"), data, mask_id=MASK_ID,
                            special_ids=SPECIALS, dropout_rate=0.1).checkpoint
    assert resumed.tokens_seen >= 600 > half.tokens_seen
    assert resumed.extra == {"objective": "mlm", "mask_policy": "all_mask", "dropout_rate": 0.1}


def test_resume_keeps_the_checkpoints_other_extra_keys(tiny_cfg, tmp_path):
    # A merged checkpoint records the adapter phases it absorbed; a masked
    # run resumed from it writes its own keys and keeps that one.
    data = toy_dataset(n=8)
    half = run_mlm(tiny_cfg, data, quick_phase(token_budget=300)).checkpoint
    half.extra = {**half.extra, "absorbed_phases": ["mntp"]}
    half.phase = dataclasses.replace(half.phase, token_budget=600)
    save_checkpoint(half, tmp_path / "merged.pbt")
    resumed = resume_masked(load_checkpoint(tmp_path / "merged.pbt"), data, mask_id=MASK_ID,
                            special_ids=SPECIALS).checkpoint
    assert resumed.tokens_seen >= 600 > half.tokens_seen
    assert resumed.extra == {"objective": "mlm", "mask_policy": "all_mask",
                             "dropout_rate": 0.0, "absorbed_phases": ["mntp"]}


def test_resume_accepts_a_new_microbatch_budget_and_optimizer(tiny_cfg):
    data = toy_dataset(n=8)
    half = run_mlm(tiny_cfg, data, quick_phase(token_budget=300)).checkpoint
    half.phase = dataclasses.replace(half.phase, token_budget=600, microbatch=1, peak_lr=5e-4,
                                     weight_decay=0.01, betas=(0.8, 0.9), eps=1e-7)
    resumed = resume_masked(half, data, mask_id=MASK_ID, special_ids=SPECIALS).checkpoint
    assert resumed.tokens_seen >= 600 > half.tokens_seen
    assert resumed.opt.betas == (0.8, 0.9)
    verify_provenance(resumed.provenance, resumed.phase.seed)


def test_resume_reads_objective_from_checkpoint(tiny_cfg):
    data = toy_dataset(n=6)
    params = model.init_params(tiny_cfg, seed=0)
    half = train_masked(params, tiny_cfg, data, quick_phase(token_budget=300),
                        objective="mntp", mask_id=MASK_ID, special_ids=SPECIALS)
    assert half.checkpoint.extra["objective"] == "mntp"
    full = train_masked(model.init_params(tiny_cfg, seed=0), tiny_cfg, data,
                        quick_phase(token_budget=600),
                        objective="mntp", mask_id=MASK_ID, special_ids=SPECIALS)
    half.checkpoint.phase = quick_phase(token_budget=600)
    resumed = resume_masked(half.checkpoint, data,
                            mask_id=MASK_ID, special_ids=SPECIALS)
    assert_params_equal(resumed.checkpoint.params, full.checkpoint.params)


# --- objectives differ ---


def test_mlm_and_mntp_diverge(tiny_cfg):
    data = toy_dataset(n=6)
    phase = quick_phase(token_budget=400)
    a = run_mlm(tiny_cfg, data, phase)
    params = model.init_params(tiny_cfg, seed=0)
    b = train_masked(params, tiny_cfg, data, phase,
                     objective="mntp", mask_id=MASK_ID, special_ids=SPECIALS)
    assert not np.array_equal(a.checkpoint.params["tok_emb"],
                              b.checkpoint.params["tok_emb"])


# --- span QA ---


def span_examples(n=6, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        ids = rng.integers(5, 256, size=rng.integers(8, 16), dtype=np.int32)
        s = int(rng.integers(0, len(ids) - 2))
        e = int(rng.integers(s, min(len(ids), s + 4)))
        out.append(SpanExample(ids=ids, start=s, end=e))
    return out


def test_span_batch_loss_weighting():
    # Two members; each member's CE averaged over its own positions,
    # then 0.5*(start+end) averaged over members.
    rng = np.random.default_rng(1)
    start = rng.normal(size=7)
    end = rng.normal(size=7)
    b = np.array([0, 3, 7], dtype=np.int64)
    golds = [(0, 2), (1, 3)]

    def ce(scores, gold):
        z = scores - scores.max()
        return float(-(z[gold] - np.log(np.exp(z).sum())))

    want = 0.0
    for i, (lo, hi) in enumerate(((0, 3), (3, 7))):
        want += 0.5 * (ce(start[lo:hi], golds[i][0]) + ce(end[lo:hi], golds[i][1]))
    want /= 2
    loss, _, _ = span_batch_loss(start, end, b, golds)
    assert loss == pytest.approx(want, abs=1e-9)


def test_span_training_reduces_loss(tiny_cfg):
    examples = span_examples()
    phase = quick_phase(token_budget=1500, batch_tokens_or_sequences=3,
                        peak_lr=3e-3)
    params = model.init_params(tiny_cfg, seed=0)
    result = train_span_qa(params, tiny_cfg, examples, phase)
    losses = [m[2] for m in result.metrics]
    assert losses[-1] < losses[0]


def test_span_example_validation():
    ids = np.arange(5, dtype=np.int32) + 10
    with pytest.raises(DataError):
        SpanExample(ids=ids, start=3, end=2)  # end before start
    with pytest.raises(DataError):
        SpanExample(ids=ids, start=0, end=5)  # end out of range
    with pytest.raises(DataError):
        SpanExample(ids=ids, start=-1, end=2)


def test_span_qa_empty_rejected(tiny_cfg):
    with pytest.raises(DataError):
        train_span_qa(model.init_params(tiny_cfg, seed=0), tiny_cfg, [],
                      quick_phase())


def test_span_digest_covers_gold_spans(tiny_cfg):
    examples = span_examples()
    moved = [dataclasses.replace(examples[0], end=examples[0].start), *examples[1:]]
    assert moved[0].end != examples[0].end

    def digest(exs):
        return train_span_qa(model.init_params(tiny_cfg, seed=0), tiny_cfg, exs,
                             quick_phase(token_budget=0)).checkpoint.dataset_digest

    assert digest(examples) == digest(list(examples))
    assert digest(moved) != digest(examples)


def test_span_qa_deterministic(tiny_cfg):
    examples = span_examples()
    phase = quick_phase(token_budget=400, batch_tokens_or_sequences=3)
    a = train_span_qa(model.init_params(tiny_cfg, seed=0), tiny_cfg,
                      examples, phase)
    b = train_span_qa(model.init_params(tiny_cfg, seed=0), tiny_cfg,
                      examples, phase)
    assert_params_equal(a.checkpoint.params, b.checkpoint.params)


# --- embedder ---


def triplets(n=6, seed=0, n_negs=2):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        q = rng.integers(5, 256, size=rng.integers(5, 10), dtype=np.int32)
        p = rng.integers(5, 256, size=rng.integers(5, 10), dtype=np.int32)
        negs = [rng.integers(5, 256, size=rng.integers(5, 10), dtype=np.int32)
                for _ in range(n_negs)]
        out.append(Triplet(query=q, positive=p, negatives=negs))
    return out


def test_embedder_zero_budget_leaves_params(tiny_cfg):
    params = model.init_params(tiny_cfg, seed=0)
    before = {k: v.copy() for k, v in params.items()}
    result = train_embedder(params, tiny_cfg, triplets(),
                            quick_phase(token_budget=0,
                                        batch_tokens_or_sequences=2))
    assert result.checkpoint.step == 0
    assert_params_equal(result.checkpoint.params, before)


def test_embedder_loss_decreases(tiny_cfg):
    phase = quick_phase(token_budget=3000, batch_tokens_or_sequences=3,
                        peak_lr=2e-3)
    params = model.init_params(tiny_cfg, seed=0)
    result = train_embedder(params, tiny_cfg, triplets(), phase)
    losses = [m[2] for m in result.metrics]
    assert losses[-1] < losses[0]


def test_embedder_deterministic(tiny_cfg):
    phase = quick_phase(token_budget=600, batch_tokens_or_sequences=3)
    a = train_embedder(model.init_params(tiny_cfg, seed=0), tiny_cfg,
                       triplets(), phase)
    b = train_embedder(model.init_params(tiny_cfg, seed=0), tiny_cfg,
                       triplets(), phase)
    assert_params_equal(a.checkpoint.params, b.checkpoint.params)


def test_retrieval_accuracy_bounds(tiny_cfg):
    params = model.init_params(tiny_cfg, seed=0)
    acc = retrieval_accuracy(params, tiny_cfg, triplets(n=10, seed=3))
    assert 0.0 <= acc <= 1.0


def test_triplet_with_no_explicit_negatives_trains_in_batch(tiny_cfg):
    # In-batch positives alone still give every query a candidate pool.
    rng = np.random.default_rng(4)
    trips = [
        Triplet(query=rng.integers(5, 256, size=6, dtype=np.int32),
                positive=rng.integers(5, 256, size=6, dtype=np.int32),
                negatives=())
        for _ in range(4)
    ]
    result = train_embedder(model.init_params(tiny_cfg, seed=0), tiny_cfg,
                            trips, quick_phase(token_budget=100,
                                               batch_tokens_or_sequences=4))
    assert result.checkpoint.step >= 1


@pytest.mark.parametrize("setting, kw, batch", [
    ("temperature", {"temperature": 0.0}, 3),
    ("temperature", {"temperature": -0.05}, 3),
    ("temperature", {"temperature": float("nan")}, 3),
    ("at least 2 triplets", {}, 1),
], ids=("zero", "negative", "nan", "batch"))
def test_embedder_refuses_bad_settings_before_a_step(tiny_cfg, tmp_path, setting, kw, batch):
    with pytest.raises(ConfigError, match=setting):
        train_embedder(model.init_params(tiny_cfg, seed=0), tiny_cfg, triplets(),
                       quick_phase(batch_tokens_or_sequences=batch), out_dir=tmp_path / "run",
                       **kw)
    assert not (tmp_path / "run").exists()


def test_contrastive_step_is_one_forward_of_every_member(tiny_cfg, monkeypatch):
    # Queries, positives and every explicit negative share one candidate
    # pool, so a step runs them as one slice under any cache budget and
    # whatever microbatch says.
    trips = triplets(n=6, seed=2, n_negs=2)
    phase = quick_phase(token_budget=150, batch_tokens_or_sequences=3, microbatch=1)
    per_token = model.cache_bytes_per_token(tiny_cfg, 8, False)

    def run():
        return train_embedder(_float64_params(tiny_cfg), tiny_cfg, trips, phase)

    runs = _runs_per_budget(monkeypatch, (None, per_token), run)
    (whole, whole_calls), (tight, tight_calls) = runs.values()
    steps = whole.checkpoint.step
    assert steps >= 2
    assert whole_calls == tight_calls == [2 * 3 + 3 * 2] * steps
    assert_params_equal(whole.checkpoint.params, tight.checkpoint.params)
    assert whole.metrics == tight.metrics


def test_moving_a_negative_changes_the_embed_digest(tiny_cfg):
    # The same arrays in the same order, but the first triplet's second
    # negative now belongs to the second triplet.
    trips = triplets(n=4, n_negs=2)
    t0, t1 = trips[0], trips[1]
    moved = [Triplet(t0.query, t0.positive, t0.negatives[:1]),
             Triplet(t1.query, t1.positive, (t0.negatives[1], *t1.negatives)), *trips[2:]]

    def digest(ts):
        return train_embedder(model.init_params(tiny_cfg, seed=0), tiny_cfg, ts,
                              quick_phase(token_budget=0, batch_tokens_or_sequences=2)
                              ).checkpoint.dataset_digest

    assert digest(trips) == digest(triplets(n=4, n_negs=2))
    assert digest(moved) != digest(trips)


def test_embedder_rejects_empty_member_sequence(tiny_cfg):
    rng = np.random.default_rng(5)
    trips = [Triplet(query=rng.integers(5, 256, size=6, dtype=np.int32),
                     positive=np.array([], dtype=np.int32),
                     negatives=())
             for _ in range(3)]
    with pytest.raises(DataError):
        train_embedder(model.init_params(tiny_cfg, seed=0), tiny_cfg, trips,
                       quick_phase(batch_tokens_or_sequences=3))
