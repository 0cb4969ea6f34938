"""Architecture and training-phase configuration.

Two frozen dataclasses describe everything a run needs: ``ArchConfig`` pins
the network shape (layer count, widths, attention layout, RoPE bases) and
``TrainPhaseConfig`` pins one training phase (token budget, batch geometry,
optimizer and schedule settings).  Named presets cover the model family this
package targets plus ``tiny_test``, a 2-layer toy used throughout the test
suite.

Configs serialize to a flat ``key = value`` text format (UTF-8, ``#``
comments).  Unknown keys are rejected so typos fail loudly.  Presets
round-trip through the format bit-exactly.  A job file holds both halves
under ``preset``/``arch.*`` and ``train.*`` keys; ``read_job_config`` reads
it.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Iterable

from .errors import ConfigError

BLOCK_STYLES = ("pre_norm", "post_norm")
NORMS = ("layer_norm", "rms_norm")
ACTIVATIONS = ("gelu", "silu")
ATTENTION_MODES = ("bidirectional", "causal")
SCHEDULES = ("trapezoidal", "constant")


@dataclass(frozen=True)
class ArchConfig:
    """Complete architectural description of one encoder or decoder."""

    vocab_size: int
    n_layers: int
    hidden: int
    n_heads: int
    head_dim: int
    intermediate: int
    block_style: str  # pre_norm | post_norm
    norm: str  # layer_norm | rms_norm
    norm_eps: float
    activation: str  # gelu | silu
    global_every: int  # 0 = every layer global
    local_window: int  # sliding-window width in tokens; 0 = none
    rope_theta_global: float
    rope_theta_local: float
    max_seq_len: int
    attention_mode: str  # bidirectional | causal

    def layer_is_global(self, layer: int) -> bool:
        """Layer ``layer`` uses unrestricted attention span.

        With ``global_every == 0`` every layer is global; otherwise layer
        indices divisible by ``global_every`` are global (layer 0 included).
        """
        if self.global_every <= 0:
            return True
        return layer % self.global_every == 0

    def rope_theta_for_layer(self, layer: int) -> float:
        return self.rope_theta_global if self.layer_is_global(layer) else self.rope_theta_local


@dataclass(frozen=True)
class TrainPhaseConfig:
    """Hyperparameters for a single training phase."""

    token_budget: int = 0
    batch_tokens_or_sequences: int = 32  # batch size, counted in sequences
    # Most sequences per gradient-accumulation slice.  A slice also holds at
    # most as many tokens as trainer.MICROBATCH_CACHE_BYTES of forward cache
    # allows, so a step of long members runs as more, smaller slices.
    microbatch: int = 8
    peak_lr: float = 8e-4
    schedule: str = "trapezoidal"  # trapezoidal | constant
    warmup_tokens: int = 0
    decay_tokens: int = 0
    weight_decay: float = 1e-5
    betas: tuple[float, float] = (0.90, 0.98)
    eps: float = 1e-6
    mask_rate: float = 0.30
    max_seq_len: int = 1024
    seed: int = 0


_PRESETS: dict[str, ArchConfig] = {
    # Encoder family: alternating global/local attention with distinct RoPE
    # bases, gated-GeLU FFN, pre-norm LayerNorm blocks.
    "moderngbert_134m": ArchConfig(
        vocab_size=31168,
        n_layers=22,
        hidden=768,
        n_heads=12,
        head_dim=64,
        intermediate=1152,
        block_style="pre_norm",
        norm="layer_norm",
        norm_eps=1e-5,
        activation="gelu",
        global_every=3,
        local_window=128,
        rope_theta_global=160000.0,
        rope_theta_local=10000.0,
        max_seq_len=8192,
        attention_mode="bidirectional",
    ),
    "moderngbert_1b": ArchConfig(
        vocab_size=31168,
        n_layers=28,
        hidden=2048,
        n_heads=32,
        head_dim=64,
        intermediate=3072,
        block_style="pre_norm",
        norm="layer_norm",
        norm_eps=1e-5,
        activation="gelu",
        global_every=3,
        local_window=128,
        rope_theta_global=160000.0,
        rope_theta_local=10000.0,
        max_seq_len=8192,
        attention_mode="bidirectional",
    ),
    # Converted-decoder family: every layer global, gated-SiLU FFN, post-norm
    # RMSNorm blocks.  Shipped causal; conversion flips the attention mode.
    "llammlein2vec_120m": ArchConfig(
        vocab_size=32064,
        n_layers=12,
        hidden=768,
        n_heads=12,
        head_dim=64,
        intermediate=2048,
        block_style="post_norm",
        norm="rms_norm",
        norm_eps=1e-5,
        activation="silu",
        global_every=0,
        local_window=0,
        rope_theta_global=160000.0,
        rope_theta_local=160000.0,
        max_seq_len=8192,
        attention_mode="causal",
    ),
    "llammlein2vec_1b": ArchConfig(
        vocab_size=32064,
        n_layers=22,
        hidden=2048,
        n_heads=32,
        head_dim=64,
        intermediate=5632,
        block_style="post_norm",
        norm="rms_norm",
        norm_eps=1e-5,
        activation="silu",
        global_every=0,
        local_window=0,
        rope_theta_global=160000.0,
        rope_theta_local=160000.0,
        max_seq_len=8192,
        attention_mode="causal",
    ),
    "llammlein2vec_7b": ArchConfig(
        vocab_size=32064,
        n_layers=32,
        hidden=4096,
        n_heads=32,
        head_dim=128,
        intermediate=11008,
        block_style="post_norm",
        norm="rms_norm",
        norm_eps=1e-5,
        activation="silu",
        global_every=0,
        local_window=0,
        rope_theta_global=160000.0,
        rope_theta_local=160000.0,
        max_seq_len=8192,
        attention_mode="causal",
    ),
    # Canonical small model for tests.  One head keeps head_dim at the
    # required multiple of 64; global_every=2 exercises the dual-theta
    # alternation with a window small enough to matter on short inputs.
    "tiny_test": ArchConfig(
        vocab_size=256,
        n_layers=2,
        hidden=64,
        n_heads=1,
        head_dim=64,
        intermediate=128,
        block_style="pre_norm",
        norm="layer_norm",
        norm_eps=1e-5,
        activation="gelu",
        global_every=2,
        local_window=8,
        rope_theta_global=160000.0,
        rope_theta_local=10000.0,
        max_seq_len=512,
        attention_mode="bidirectional",
    ),
}

PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> ArchConfig:
    """Return the named architecture preset.

    Raises ConfigError for unknown names.
    """
    try:
        return _PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; expected one of {', '.join(PRESET_NAMES)}"
        ) from None


def _non_finite(cfg) -> list[str]:
    """A violation per float field of the dataclass ``cfg`` (a float pair
    counts) that holds an infinity or a NaN."""
    v = []
    for field in dataclasses.fields(cfg):
        value = getattr(cfg, field.name)
        if field.type in ("float", "tuple[float, float]") and not all(
            math.isfinite(x) for x in (value if isinstance(value, tuple) else (value,))
        ):
            v.append(f"{field.name} must be finite, got {value!r}")
    return v


def validate(cfg: ArchConfig) -> list[str]:
    """Check ArchConfig invariants; returns a list of violations (empty = ok)."""
    v = _non_finite(cfg)
    for field, positive in (
        ("vocab_size", True),
        ("n_layers", True),
        ("hidden", True),
        ("n_heads", True),
        ("head_dim", True),
        ("intermediate", True),
        ("max_seq_len", True),
    ):
        value = getattr(cfg, field)
        if not isinstance(value, int) or (positive and value <= 0):
            v.append(f"{field} must be a positive integer, got {value!r}")
    if cfg.block_style not in BLOCK_STYLES:
        v.append(f"block_style must be one of {BLOCK_STYLES}, got {cfg.block_style!r}")
    if cfg.norm not in NORMS:
        v.append(f"norm must be one of {NORMS}, got {cfg.norm!r}")
    if cfg.activation not in ACTIVATIONS:
        v.append(f"activation must be one of {ACTIVATIONS}, got {cfg.activation!r}")
    if cfg.attention_mode not in ATTENTION_MODES:
        v.append(f"attention_mode must be one of {ATTENTION_MODES}, got {cfg.attention_mode!r}")
    if cfg.norm_eps <= 0:
        v.append(f"norm_eps must be positive, got {cfg.norm_eps!r}")
    if isinstance(cfg.hidden, int) and isinstance(cfg.n_heads, int) and isinstance(cfg.head_dim, int):
        if cfg.hidden != cfg.n_heads * cfg.head_dim:
            v.append(
                f"hidden != n_heads*head_dim ({cfg.hidden} != {cfg.n_heads}*{cfg.head_dim})"
            )
    for field in ("vocab_size", "hidden", "head_dim"):
        value = getattr(cfg, field)
        if isinstance(value, int) and value % 64 != 0:
            v.append(f"{field} not multiple of 64 ({value})")
    if cfg.global_every < 0:
        v.append(f"global_every must be >= 0, got {cfg.global_every}")
    if cfg.local_window < 0:
        v.append(f"local_window must be >= 0, got {cfg.local_window}")
    if cfg.global_every > 0 and cfg.local_window <= 0:
        v.append("global_every > 0 requires local_window > 0")
    if cfg.local_window % 2 != 0:
        v.append(f"local_window must be even, got {cfg.local_window}")
    if cfg.rope_theta_global <= 0 or cfg.rope_theta_local <= 0:
        v.append("rope theta values must be positive")
    return v


def validate_phase(phase: TrainPhaseConfig) -> list[str]:
    """Check TrainPhaseConfig invariants; returns violations (empty = ok)."""
    v = _non_finite(phase)
    if not 0.0 < phase.mask_rate < 1.0:
        v.append(f"mask_rate must be in (0,1), got {phase.mask_rate!r}")
    if phase.schedule not in SCHEDULES:
        v.append(f"schedule must be one of {SCHEDULES}, got {phase.schedule!r}")
    if phase.schedule == "trapezoidal" and phase.warmup_tokens + phase.decay_tokens > phase.token_budget:
        v.append(
            "warmup_tokens + decay_tokens exceeds token_budget "
            f"({phase.warmup_tokens} + {phase.decay_tokens} > {phase.token_budget})"
        )
    if phase.token_budget < 0:
        v.append(f"token_budget must be >= 0, got {phase.token_budget}")
    for field in ("batch_tokens_or_sequences", "microbatch", "max_seq_len"):
        if getattr(phase, field) <= 0:
            v.append(f"{field} must be positive, got {getattr(phase, field)}")
    if phase.microbatch > phase.batch_tokens_or_sequences:
        v.append("microbatch larger than batch")
    if phase.warmup_tokens < 0 or phase.decay_tokens < 0:
        v.append("warmup_tokens and decay_tokens must be >= 0")
    if phase.peak_lr < 0 or phase.weight_decay < 0 or phase.eps <= 0:
        v.append("peak_lr/weight_decay must be >= 0 and eps > 0")
    b1, b2 = phase.betas
    if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
        v.append(f"betas must lie in [0,1), got {phase.betas!r}")
    return v


# --- flat key = value serialization ---------------------------------------


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ", ".join(_format_value(x) for x in value)
    return str(value)


def format_pairs(pairs: Iterable[tuple[str, object]]) -> str:
    return "".join(f"{k} = {_format_value(v)}\n" for k, v in pairs)


def parse_kv_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blank lines skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def _parse_int(key: str, s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise ConfigError(f"{key}: expected integer, got {s!r}") from None


def _parse_float(key: str, s: str) -> float:
    try:
        return float(s)
    except ValueError:
        raise ConfigError(f"{key}: expected number, got {s!r}") from None


def _coerce(key: str, s: str, annot) -> object:
    if annot is int:
        return _parse_int(key, s)
    if annot is float:
        return _parse_float(key, s)
    if annot is str:
        return s
    if annot == "tuple[float, float]":
        parts = [p.strip() for p in s.split(",")]
        if len(parts) != 2:
            raise ConfigError(f"{key}: expected two comma-separated numbers, got {s!r}")
        return (_parse_float(key, parts[0]), _parse_float(key, parts[1]))
    raise ConfigError(f"{key}: unsupported field type {annot!r}")


_ARCH_FIELDS = {f.name: f for f in dataclasses.fields(ArchConfig)}
_PHASE_FIELDS = {f.name: f for f in dataclasses.fields(TrainPhaseConfig)}


def _annot_of(field: dataclasses.Field) -> object:
    # Annotations are strings under `from __future__ import annotations`.
    mapping = {"int": int, "float": float, "str": str}
    return mapping.get(field.type, field.type)


def arch_to_pairs(cfg: ArchConfig) -> list[tuple[str, object]]:
    return [(f, getattr(cfg, f)) for f in _ARCH_FIELDS]


def arch_from_pairs(pairs: dict[str, str]) -> ArchConfig:
    unknown = set(pairs) - set(_ARCH_FIELDS)
    if unknown:
        raise ConfigError(f"unknown architecture keys: {', '.join(sorted(unknown))}")
    missing = set(_ARCH_FIELDS) - set(pairs)
    if missing:
        raise ConfigError(f"missing architecture keys: {', '.join(sorted(missing))}")
    kwargs = {
        name: _coerce(name, pairs[name], _annot_of(field))
        for name, field in _ARCH_FIELDS.items()
    }
    cfg = ArchConfig(**kwargs)  # type: ignore[arg-type]
    violations = validate(cfg)
    if violations:
        raise ConfigError("invalid architecture config: " + "; ".join(violations))
    return cfg


def phase_to_pairs(phase: TrainPhaseConfig) -> list[tuple[str, object]]:
    return [(f, getattr(phase, f)) for f in _PHASE_FIELDS]


def phase_from_pairs(pairs: dict[str, str]) -> TrainPhaseConfig:
    """Build a TrainPhaseConfig from string pairs; absent keys keep defaults."""
    unknown = set(pairs) - set(_PHASE_FIELDS)
    if unknown:
        raise ConfigError(f"unknown training keys: {', '.join(sorted(unknown))}")
    kwargs = {
        name: _coerce(name, pairs[name], _annot_of(field))
        for name, field in _PHASE_FIELDS.items()
        if name in pairs
    }
    phase = TrainPhaseConfig(**kwargs)  # type: ignore[arg-type]
    violations = validate_phase(phase)
    if violations:
        raise ConfigError("invalid training config: " + "; ".join(violations))
    return phase


def read_job_config(path) -> tuple[ArchConfig | None, TrainPhaseConfig | None]:
    """Read a combined job file.

    Keys are namespaced: ``preset = <name>`` or ``arch.<field>`` for the
    architecture (preset first, arch.* keys override it), ``train.<field>``
    for the phase.  Returns (arch, phase); each half is None when no keys of
    its kind are present.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    raw = parse_kv_text(text)
    arch_pairs: dict[str, str] = {}
    phase_pairs: dict[str, str] = {}
    preset_name: str | None = None
    for key, value in raw.items():
        if key == "preset":
            preset_name = value
        elif key.startswith("arch."):
            arch_pairs[key[len("arch."):]] = value
        elif key.startswith("train."):
            phase_pairs[key[len("train."):]] = value
        else:
            raise ConfigError(
                f"unknown key {key!r}; expected 'preset', 'arch.<field>' or 'train.<field>'"
            )
    arch: ArchConfig | None = None
    if preset_name is not None:
        base = preset(preset_name)
        if arch_pairs:
            merged = {k: _format_value(v) for k, v in arch_to_pairs(base)}
            merged.update(arch_pairs)
            arch = arch_from_pairs(merged)
        else:
            arch = base
    elif arch_pairs:
        arch = arch_from_pairs(arch_pairs)
    phase = phase_from_pairs(phase_pairs) if phase_pairs else None
    return arch, phase
