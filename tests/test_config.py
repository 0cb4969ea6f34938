"""Config presets, validation rules, and text round-trips."""

import dataclasses

import pytest

from packbert import config
from packbert.errors import ConfigError


def test_all_presets_validate_clean():
    for name in config.PRESET_NAMES:
        cfg = config.preset(name)
        assert config.validate(cfg) == [], name


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        config.preset("nonexistent_model")


def test_head_dim_mismatch_flagged(tiny_cfg):
    bad = dataclasses.replace(tiny_cfg, head_dim=65)
    msgs = config.validate(bad)
    assert any("hidden != n_heads*head_dim" in m for m in msgs)


def test_vocab_multiple_of_64_flagged(tiny_cfg):
    bad = dataclasses.replace(tiny_cfg, vocab_size=31170)
    msgs = config.validate(bad)
    assert any("multiple of 64" in m for m in msgs)


def test_bad_enum_values_flagged(tiny_cfg):
    for field, value in [
        ("block_style", "mid_norm"),
        ("norm", "batch_norm"),
        ("activation", "relu6"),
        ("attention_mode", "mixed"),
    ]:
        bad = dataclasses.replace(tiny_cfg, **{field: value})
        assert config.validate(bad), field


def test_nonpositive_dimensions_flagged(tiny_cfg):
    for field in ("n_layers", "hidden", "n_heads", "intermediate", "max_seq_len"):
        bad = dataclasses.replace(tiny_cfg, **{field: 0})
        assert config.validate(bad), field


@pytest.mark.parametrize("value", (float("inf"), float("-inf"), float("nan")),
                         ids=("inf", "-inf", "nan"))
@pytest.mark.parametrize("field", ("norm_eps", "rope_theta_global", "rope_theta_local"))
def test_non_finite_arch_floats_flagged(tiny_cfg, field, value):
    msgs = config.validate(dataclasses.replace(tiny_cfg, **{field: value}))
    assert f"{field} must be finite, got {value!r}" in msgs


@pytest.mark.parametrize("value", (float("inf"), float("nan")), ids=("inf", "nan"))
@pytest.mark.parametrize("field", ("peak_lr", "weight_decay", "eps", "mask_rate", "betas"))
def test_non_finite_phase_floats_flagged(field, value):
    bad = value if field != "betas" else (0.9, value)
    msgs = config.validate_phase(dataclasses.replace(config.TrainPhaseConfig(), **{field: bad}))
    assert f"{field} must be finite, got {bad!r}" in msgs


def test_layer_is_global_rule():
    cfg = dataclasses.replace(config.preset("tiny_test"), n_layers=9, global_every=3)
    flags = [cfg.layer_is_global(i) for i in range(9)]
    assert flags == [True, False, False, True, False, False, True, False, False]


def test_first_layer_always_global():
    for name in config.PRESET_NAMES:
        assert config.preset(name).layer_is_global(0)


def test_rope_theta_per_layer(tiny_cfg):
    cfg = dataclasses.replace(
        tiny_cfg, n_layers=4, global_every=2,
        rope_theta_global=160000.0, rope_theta_local=10000.0,
    )
    assert cfg.rope_theta_for_layer(0) == 160000.0
    assert cfg.rope_theta_for_layer(1) == 10000.0
    assert cfg.rope_theta_for_layer(2) == 160000.0
    assert cfg.rope_theta_for_layer(3) == 10000.0


def test_arch_roundtrip_bit_exact():
    for name in config.PRESET_NAMES:
        cfg = config.preset(name)
        text = config.format_pairs(config.arch_to_pairs(cfg))
        back = config.arch_from_pairs(config.parse_kv_text(text))
        assert back == cfg, name


def job_text(namespace, pairs):
    """Job-file text with every key of ``pairs`` under ``namespace.``."""
    return "".join(f"{namespace}.{line}\n" for line in config.format_pairs(pairs).splitlines())


def test_arch_roundtrip_through_file(tmp_path):
    cfg = config.preset("moderngbert_134m")
    path = tmp_path / "arch.cfg"
    path.write_text(job_text("arch", config.arch_to_pairs(cfg)), encoding="utf-8")
    assert config.read_job_config(path) == (cfg, None)


def test_phase_roundtrip_bit_exact():
    phase = config.TrainPhaseConfig(
        token_budget=10**12,
        peak_lr=8e-4,
        betas=(0.9, 0.98),
        eps=1e-6,
        weight_decay=1e-5,
        schedule="trapezoidal",
        warmup_tokens=2 * 10**9,
        decay_tokens=5 * 10**11,
        mask_rate=0.3,
        seed=1234,
    )
    text = config.format_pairs(config.phase_to_pairs(phase))
    back = config.phase_from_pairs(config.parse_kv_text(text))
    assert back == phase


def test_phase_roundtrip_through_file(tmp_path):
    phase = config.TrainPhaseConfig(token_budget=4096, max_seq_len=8192)
    path = tmp_path / "phase.cfg"
    path.write_text(job_text("train", config.phase_to_pairs(phase)), encoding="utf-8")
    assert config.read_job_config(path) == (None, phase)


def test_phase_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "phase.cfg"
    path.write_text(
        "train.token_budget = 4096\ntrain.rope_theta_override = 160000.0\n", encoding="utf-8"
    )
    with pytest.raises(ConfigError, match="rope_theta_override"):
        config.read_job_config(path)


def test_parse_kv_rejects_garbage():
    with pytest.raises(ConfigError):
        config.parse_kv_text("this is not a key value line\n")


def test_parse_kv_skips_comments_and_blanks():
    pairs = config.parse_kv_text("# comment\n\nvocab_size = 256\n")
    assert pairs == {"vocab_size": "256"}


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        config.parse_kv_text("a = 1\na = 2\n")


def test_arch_from_pairs_unknown_key():
    good = config.parse_kv_text(
        config.format_pairs(config.arch_to_pairs(config.preset("tiny_test")))
    )
    good["mystery_knob"] = "1"
    with pytest.raises(ConfigError):
        config.arch_from_pairs(good)


def test_validate_phase_flags_bad_budgets():
    phase = config.TrainPhaseConfig(token_budget=-1)
    assert config.validate_phase(phase)
    phase = config.TrainPhaseConfig(
        token_budget=100, warmup_tokens=80, decay_tokens=40
    )
    assert any("exceeds" in m for m in config.validate_phase(phase))


def test_validate_phase_flags_bad_schedule():
    phase = config.TrainPhaseConfig(token_budget=10, schedule="cosine")
    assert config.validate_phase(phase)


def test_validate_phase_accepts_defaults():
    assert config.validate_phase(config.TrainPhaseConfig(token_budget=100)) == []


def test_read_job_config(tmp_path):
    cfg = config.preset("tiny_test")
    lines = ["preset = tiny_test", "train.token_budget = 999", "train.seed = 3"]
    path = tmp_path / "job.cfg"
    path.write_text("\n".join(lines) + "\n")
    arch, phase = config.read_job_config(path)
    assert arch == cfg
    assert phase.token_budget == 999
    assert phase.seed == 3


def test_read_job_config_arch_overrides(tmp_path):
    path = tmp_path / "job.cfg"
    path.write_text("preset = tiny_test\narch.n_layers = 4\n")
    arch, _ = config.read_job_config(path)
    assert arch.n_layers == 4
    assert arch.hidden == config.preset("tiny_test").hidden


def test_published_size_presets_are_consistent():
    cfg = config.preset("moderngbert_134m")
    assert cfg.hidden == cfg.n_heads * cfg.head_dim
    assert cfg.vocab_size % 64 == 0
    big = config.preset("moderngbert_1b")
    assert big.hidden > cfg.hidden
    assert big.n_layers > cfg.n_layers
