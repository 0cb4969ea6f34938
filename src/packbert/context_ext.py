"""Long-context adaptation: swap the global rotation base, then keep training.

Extension touches no learned tensor. It only changes how positions are
rotated on global-attention layers and how long an input may be. The
follow-up training phases do the actual adaptation work; they are ordinary
``trainer`` runs on the extended config.
"""

from __future__ import annotations

import dataclasses

from .config import ArchConfig, validate
from .errors import ConfigError


def extend(
    params: dict,
    cfg: ArchConfig,
    new_theta: float = 160_000.0,
    new_max_len: int = 8_192,
) -> tuple[dict, ArchConfig]:
    """Raise the global-attention rotation base and the length ceiling.

    Local-attention layers keep their own base untouched. Idempotent:
    applying the same arguments twice equals applying them once.
    """
    if new_max_len < cfg.max_seq_len:
        raise ConfigError(
            f"cannot shrink max_seq_len from {cfg.max_seq_len} to {new_max_len}"
        )
    new_cfg = dataclasses.replace(
        cfg, rope_theta_global=float(new_theta), max_seq_len=int(new_max_len)
    )
    violations = validate(new_cfg)
    if violations:
        raise ConfigError("invalid extended config: " + "; ".join(violations))
    return params, new_cfg
