"""Low-rank adapters: identity start, merge algebra, frozen-base training."""

import dataclasses

import numpy as np
import pytest

from packbert import config, model
from packbert.adapters import (
    TARGETS,
    AdapterSet,
    apply_adapters,
    enable_bidirectional,
    init_adapters,
    load_adapters,
    merge_into_checkpoint,
    runtime_extras,
    save_adapters,
    target_names,
    train_mntp_adapter,
)
from packbert.errors import ConfigError, TrainingError
from packbert.packing import pack
from packbert.trainer import load_checkpoint, resume_masked, save_checkpoint
from packbert.util import params_digest

from conftest import quick_phase

SPECIALS = frozenset({0, 1, 2, 3, 4})
MASK_ID = 4


def toy_dataset(n=8, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.integers(5, 256, size=rng.integers(6, 14), dtype=np.int32)
            for _ in range(n)]


def test_target_names_cover_all_layers(tiny_cfg):
    names = target_names(tiny_cfg)
    assert len(names) == tiny_cfg.n_layers * len(TARGETS)
    assert "layers.0.attn.wq" in names
    assert f"layers.{tiny_cfg.n_layers - 1}.ffn.wd" in names


def test_init_shapes_and_identity_start(tiny_cfg):
    params = model.init_params(tiny_cfg, seed=0)
    aset = init_adapters(params, tiny_cfg, rank=4, alpha=8.0, seed=1)
    assert aset.rank == 4
    assert aset.scale == pytest.approx(2.0)
    for name, (a, b) in aset.tensors.items():
        din, dout = params[name].shape
        assert a.shape == (din, 4)
        assert b.shape == (4, dout)
        assert np.all(b == 0.0)  # identity start
        assert a.std() == pytest.approx(0.02, rel=0.3)


def test_fresh_adapter_is_exact_identity(tiny_cfg, rand_batch):
    params = model.init_params(tiny_cfg, seed=0)
    aset = init_adapters(params, tiny_cfg, rank=8, alpha=16.0, seed=2)
    merged = apply_adapters(params, [aset])
    base_out = model.forward(params, tiny_cfg, rand_batch).hidden
    merged_out = model.forward(merged, tiny_cfg, rand_batch).hidden
    assert float(np.max(np.abs(base_out - merged_out))) <= 1e-7
    runtime_out = model.forward(params, tiny_cfg, rand_batch,
                                extra_linear=runtime_extras(aset)).hidden
    assert float(np.max(np.abs(base_out - runtime_out))) <= 1e-7


def test_apply_leaves_input_untouched(tiny_cfg):
    params = model.init_params(tiny_cfg, seed=0)
    digest = params_digest(params)
    aset = init_adapters(params, tiny_cfg, rank=4, alpha=8.0, seed=3)
    rng = np.random.default_rng(4)
    for a, b in aset.tensors.values():
        b += rng.normal(size=b.shape).astype(b.dtype)
    apply_adapters(params, [aset])
    assert params_digest(params) == digest


def test_delta_shape_and_scale(tiny_cfg):
    params = model.init_params(tiny_cfg, seed=0)
    aset = init_adapters(params, tiny_cfg, rank=2, alpha=4.0, seed=5)
    name = "layers.0.attn.wq"
    a, b = aset.tensors[name]
    b[:] = 1.0
    d = apply_adapters(params, [aset])[name] - params[name]
    assert d.shape == params[name].shape
    np.testing.assert_allclose(d, (a @ b) * aset.scale, atol=1e-7)


def test_merge_linearity(tiny_cfg):
    params = model.init_params(tiny_cfg, seed=0)
    rng = np.random.default_rng(6)
    sets = []
    for seed in (7, 8):
        aset = init_adapters(params, tiny_cfg, rank=3, alpha=6.0, seed=seed)
        for a, b in aset.tensors.values():
            b += rng.normal(size=b.shape).astype(b.dtype) * 0.1
        sets.append(aset)
    combined = apply_adapters(params, sets)
    sequential = apply_adapters(apply_adapters(params, [sets[0]]), [sets[1]])
    for k in params:
        np.testing.assert_array_equal(combined[k], sequential[k], err_msg=k)


def test_merge_delta_decomposes_elementwise(tiny_cfg):
    params = model.init_params(tiny_cfg, seed=0)
    rng = np.random.default_rng(9)
    sets = []
    for seed in (10, 11):
        aset = init_adapters(params, tiny_cfg, rank=2, alpha=2.0, seed=seed)
        for a, b in aset.tensors.values():
            b += rng.normal(size=b.shape).astype(b.dtype)
        sets.append(aset)
    both = apply_adapters(params, sets)
    only1 = apply_adapters(params, [sets[0]])
    only2 = apply_adapters(params, [sets[1]])
    for k in target_names(tiny_cfg):
        lhs = both[k] - params[k]
        rhs = (only1[k] - params[k]) + (only2[k] - params[k])
        np.testing.assert_allclose(lhs, rhs, atol=1e-6, err_msg=k)


def test_apply_rejects_shape_mismatch(tiny_cfg):
    params = model.init_params(tiny_cfg, seed=0)
    aset = init_adapters(params, tiny_cfg, rank=2, alpha=2.0, seed=12)
    name = next(iter(aset.tensors))
    a, b = aset.tensors[name]
    aset.tensors[name] = (a[:-1], b)
    with pytest.raises(ConfigError):
        apply_adapters(params, [aset])


def test_apply_rejects_unknown_target(tiny_cfg):
    params = model.init_params(tiny_cfg, seed=0)
    aset = init_adapters(params, tiny_cfg, rank=2, alpha=2.0, seed=13)
    a, b = next(iter(aset.tensors.values()))
    aset.tensors["layers.99.attn.wq"] = (a, b)
    with pytest.raises(ConfigError):
        apply_adapters(params, [aset])


def test_init_rejects_bad_rank(tiny_cfg):
    params = model.init_params(tiny_cfg, seed=0)
    with pytest.raises(ConfigError):
        init_adapters(params, tiny_cfg, rank=0, alpha=8.0, seed=0)


def test_enable_bidirectional_flips_mode(tiny_cfg):
    causal = dataclasses.replace(tiny_cfg, attention_mode="causal")
    flipped = enable_bidirectional(causal)
    assert flipped.attention_mode == "bidirectional"
    again = enable_bidirectional(flipped)  # no-op, logged notice
    assert again.attention_mode == "bidirectional"


def test_causal_to_bidirectional_changes_outputs(tiny_cfg, rand_batch):
    causal = dataclasses.replace(tiny_cfg, attention_mode="causal")
    params = model.init_params(causal, seed=0)
    a = model.forward(params, causal, rand_batch).hidden
    b = model.forward(params, enable_bidirectional(causal), rand_batch).hidden
    assert not np.array_equal(a, b)


# --- adapter training ---


def test_train_mntp_adapter_freezes_base(tiny_cfg):
    params = model.init_params(tiny_cfg, seed=0)
    digest_before = params_digest(params)
    aset, result = train_mntp_adapter(
        params, tiny_cfg, toy_dataset(), quick_phase(token_budget=300),
        mask_id=MASK_ID, special_ids=SPECIALS, rank=4, alpha=8.0,
    )
    assert params_digest(params) == digest_before
    # B tensors moved away from zero, so the adapter absorbed the update.
    moved = any(np.any(b != 0.0) for _, b in aset.tensors.values())
    assert moved
    assert result.checkpoint.step >= 1


def test_train_mntp_adapter_requires_bidirectional(tiny_cfg):
    causal = dataclasses.replace(tiny_cfg, attention_mode="causal")
    params = model.init_params(causal, seed=0)
    with pytest.raises(ConfigError):
        train_mntp_adapter(params, causal, toy_dataset(),
                           quick_phase(token_budget=100),
                           mask_id=MASK_ID, special_ids=SPECIALS)


def test_adapter_training_deterministic(tiny_cfg):
    data = toy_dataset()
    phase = quick_phase(token_budget=300)

    def go():
        params = model.init_params(tiny_cfg, seed=0)
        aset, _ = train_mntp_adapter(params, tiny_cfg, data, phase,
                                     mask_id=MASK_ID, special_ids=SPECIALS,
                                     rank=4, alpha=8.0)
        return aset

    a, b = go(), go()
    for name in a.tensors:
        np.testing.assert_array_equal(a.tensors[name][0], b.tensors[name][0])
        np.testing.assert_array_equal(a.tensors[name][1], b.tensors[name][1])


def test_merged_equals_runtime_after_training(tiny_cfg, rand_batch):
    params = model.init_params(tiny_cfg, seed=0)
    aset, _ = train_mntp_adapter(
        params, tiny_cfg, toy_dataset(), quick_phase(token_budget=300),
        mask_id=MASK_ID, special_ids=SPECIALS, rank=4, alpha=8.0,
    )
    merged = apply_adapters(params, [aset])
    out_merged = model.forward(merged, tiny_cfg, rand_batch).hidden
    out_runtime = model.forward(params, tiny_cfg, rand_batch,
                                extra_linear=runtime_extras(aset)).hidden
    assert float(np.max(np.abs(out_merged - out_runtime))) <= 1e-6


def test_adapter_checkpoint_holds_frozen_base_and_pair_moments(tiny_cfg, tmp_path):
    params = model.init_params(tiny_cfg, seed=0)
    train_mntp_adapter(
        params, tiny_cfg, toy_dataset(), quick_phase(token_budget=300),
        mask_id=MASK_ID, special_ids=SPECIALS, rank=2, alpha=4.0,
        out_dir=tmp_path,
    )
    ck = load_checkpoint(tmp_path / "ckpt_final.pbt")
    want = sorted(model.adapter_key(n, h) for n in target_names(tiny_cfg) for h in "AB")
    assert sorted(ck.opt.m) == want
    assert sorted(ck.opt.v) == want
    assert sorted(ck.params) == sorted(params)
    for k in params:
        np.testing.assert_array_equal(ck.params[k], params[k], err_msg=k)


def test_adapter_checkpoint_resume_is_refused(tiny_cfg, tmp_path):
    # The checkpoint holds the frozen base and the pairs' moments, not the
    # pairs, so a plain resume would train the wrong tensors.
    params = model.init_params(tiny_cfg, seed=0)
    data = toy_dataset()
    train_mntp_adapter(
        params, tiny_cfg, data, quick_phase(token_budget=300),
        mask_id=MASK_ID, special_ids=SPECIALS, rank=2, alpha=4.0,
        out_dir=tmp_path, checkpoint_interval_tokens=100,
    )
    interval = sorted(tmp_path.glob("ckpt_step*.pbt"))
    assert interval
    with pytest.raises(TrainingError, match="resume refused"):
        resume_masked(load_checkpoint(interval[0]), data,
                      mask_id=MASK_ID, special_ids=SPECIALS)


# --- persistence ---


def test_adapter_file_roundtrip(tiny_cfg, tmp_path):
    params = model.init_params(tiny_cfg, seed=0)
    aset = init_adapters(params, tiny_cfg, rank=4, alpha=8.0, seed=15,
                         phase_tag="mntp")
    rng = np.random.default_rng(16)
    for a, b in aset.tensors.values():
        b += rng.normal(size=b.shape).astype(b.dtype)
    path = tmp_path / "adapters.pbt"
    save_adapters(aset, path)
    back = load_adapters(path)
    assert back.rank == aset.rank
    assert back.alpha == aset.alpha
    assert back.phase_tag == "mntp"
    assert sorted(back.tensors) == sorted(aset.tensors)
    for name in aset.tensors:
        np.testing.assert_array_equal(back.tensors[name][0], aset.tensors[name][0])
        np.testing.assert_array_equal(back.tensors[name][1], aset.tensors[name][1])


def test_merge_into_checkpoint_accumulates_phases(tiny_cfg, tmp_path):
    params = model.init_params(tiny_cfg, seed=0)
    data = toy_dataset()
    aset, result = train_mntp_adapter(
        params, tiny_cfg, data, quick_phase(token_budget=200),
        mask_id=MASK_ID, special_ids=SPECIALS, rank=2, alpha=4.0,
        phase_tag="mntp",
    )
    merged_ck = merge_into_checkpoint(result.checkpoint, [aset])
    assert "mntp" in merged_ck.extra["absorbed_phases"]
    want = apply_adapters(params, [aset])
    for k in want:
        np.testing.assert_array_equal(merged_ck.params[k], want[k], err_msg=k)
    # Survives a save/load cycle.
    path = tmp_path / "merged.pbt"
    save_checkpoint(merged_ck, path)
    back = load_checkpoint(path)
    assert back.extra["absorbed_phases"] == merged_ck.extra["absorbed_phases"]
