"""Low-rank additive adapters and decoder-to-encoder conversion.

An adapter holds a pair (A, B) per targeted weight matrix; the effective
weight is W + (alpha/rank) * A @ B. B starts at zero, so a fresh adapter
is an exact identity. Training and inference both pass the pairs beside the
weights (``runtime_extras``), so the base is never modified; the backward
pass computes the gradients of A and B directly, and none for the frozen
base. ``apply_adapters`` folds the deltas into a copy of the weights, for
``merge-adapters``, through the forward pass's own ``model._weight``.
"""

from __future__ import annotations

import dataclasses
import logging
from dataclasses import dataclass

import numpy as np

from .config import ArchConfig
from .errors import ConfigError, DataError
from .model import _weight, adapter_key, adapter_params
from .tensor_store import meta_entry, read_tensors, write_tensors
from .trainer import Checkpoint, TrainResult, _copy_tensors, train_masked

logger = logging.getLogger("packbert.adapters")

# Per-layer matrix roles an adapter attaches to.
TARGETS = ("attn.wq", "attn.wk", "attn.wv", "attn.wo", "ffn.wu", "ffn.wd")


@dataclass
class AdapterSet:
    rank: int
    alpha: float
    targets: tuple  # per-layer role suffixes, e.g. "attn.wq"
    phase_tag: str
    tensors: dict  # full param name -> (A (in, r), B (r, out))

    @property
    def scale(self) -> float:
        return self.alpha / self.rank


def target_names(cfg: ArchConfig) -> list[str]:
    return [
        f"layers.{layer}.{role}" for layer in range(cfg.n_layers) for role in TARGETS
    ]


def init_adapters(
    params: dict,
    cfg: ArchConfig,
    *,
    rank: int = 16,
    alpha: float = 32.0,
    phase_tag: str = "",
    seed: int = 0,
) -> AdapterSet:
    """Fresh zero-delta adapter pairs for every targeted matrix: A ~ N(0, 0.02), B = 0."""
    if rank < 1:
        raise ConfigError(f"rank must be >= 1, got {rank}")
    if not 0 < alpha < np.inf:
        raise ConfigError(f"alpha must be finite and positive, got {alpha}")
    names = target_names(cfg)
    missing = [n for n in names if n not in params]
    if missing:
        raise ConfigError(f"adapter targets missing from params: {missing[:3]}")
    rng = np.random.default_rng(seed)
    tensors = {}
    for name in sorted(names):
        w = params[name]
        a = rng.normal(0.0, 0.02, size=(w.shape[0], rank)).astype(w.dtype)
        b = np.zeros((rank, w.shape[1]), dtype=w.dtype)
        tensors[name] = (a, b)
    return AdapterSet(
        rank=rank,
        alpha=float(alpha),
        targets=TARGETS,
        phase_tag=phase_tag,
        tensors=tensors,
    )


def apply_adapters(params: dict, adapter_sets) -> dict:
    """Merge one or more adapters into copies of the base weights.

    Deltas add sequentially in the given order, so merging a list equals
    merging its members one at a time, bit for bit.
    """
    merged = _copy_tensors(params)
    for aset in adapter_sets:
        extra = runtime_extras(aset)
        for name, (a, b, _) in extra.items():
            if name not in merged:
                raise ConfigError(f"adapter targets unknown tensor {name!r}")
            if (a.shape[0], b.shape[1]) != merged[name].shape:
                raise ConfigError(
                    f"adapter delta for {name} has shape {(a.shape[0], b.shape[1])}, "
                    f"weight is {merged[name].shape}"
                )
            merged[name] = _weight(merged, name, extra)
    return merged


def runtime_extras(aset: AdapterSet) -> dict:
    """Adapter terms for the forward pass without touching any weight."""
    return {
        name: (a, b, aset.scale) for name, (a, b) in aset.tensors.items()
    }


def enable_bidirectional(cfg: ArchConfig) -> ArchConfig:
    """Replace the causal mask with full attention; weights untouched."""
    if cfg.attention_mode == "bidirectional":
        logger.info("attention is already bidirectional; nothing to change")
        return cfg
    return dataclasses.replace(cfg, attention_mode="bidirectional")


def train_mntp_adapter(
    params: dict,
    cfg: ArchConfig,
    dataset,
    phase,
    *,
    mask_id: int,
    special_ids,
    rank: int = 16,
    alpha: float = 32.0,
    phase_tag: str = "ext1",
    adapter_seed: int = 0,
    **kwargs,
) -> tuple[AdapterSet, TrainResult]:
    """Adapt a converted decoder with shifted masked-token prediction.

    Only the adapter pairs move; ``params`` stay frozen, and the checkpoints
    of the run hold them with the pairs' optimizer moments.  Train on top of
    a bidirectional config.
    """
    if cfg.attention_mode != "bidirectional":
        raise ConfigError(
            "adapter training expects a bidirectional model; "
            "call enable_bidirectional first"
        )
    adapters = init_adapters(
        params,
        cfg,
        rank=rank,
        alpha=alpha,
        phase_tag=phase_tag,
        seed=adapter_seed,
    )
    result = train_masked(
        params,
        cfg,
        dataset,
        phase,
        objective="mntp",
        mask_id=mask_id,
        special_ids=special_ids,
        phase_id=phase_tag,
        extra_linear=runtime_extras(adapters),
        **kwargs,
    )
    return adapters, result


def save_adapters(aset: AdapterSet, path) -> None:
    meta = {
        "format": "packbert-adapters",
        "version": 1,
        "rank": aset.rank,
        "alpha": aset.alpha,
        "targets": list(aset.targets),
        "phase_tag": aset.phase_tag,
    }
    write_tensors(path, adapter_params(runtime_extras(aset)), meta)


def load_adapters(path) -> AdapterSet:
    tensors, meta = read_tensors(path)
    if meta.get("format") != "packbert-adapters":
        raise DataError(f"{path} is not an adapter file")
    pairs: dict = {}
    for key, arr in tensors.items():
        name, _, half = key.partition("/")[2].rpartition("/")
        if not name or half not in ("A", "B") or adapter_key(name, half) != key:
            raise DataError(f"{path} has unexpected adapter tensor {key!r}")
        pairs.setdefault(name, {})[half] = arr
    rank = meta_entry(meta, "rank", int, path)
    if rank < 1:
        raise DataError(f"{path} has rank {rank}; want >= 1")
    alpha = float(meta_entry(meta, "alpha", float, path))
    if not 0 < alpha < np.inf:
        raise DataError(f"{path} has alpha {alpha}; want finite and positive")
    tensors_out = {}
    for name, ab in pairs.items():
        if set(ab) != {"A", "B"}:
            raise DataError(f"{path} is missing half of the pair for {name}")
        a, b = ab["A"], ab["B"]
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != rank or b.shape[0] != rank:
            raise DataError(f"{path} has rank {rank}, but the pair for {name} "
                            f"is A {a.shape}, B {b.shape}")
        tensors_out[name] = (a, b)
    targets = meta_entry(meta, "targets", list, path)
    if not all(isinstance(t, str) for t in targets):
        raise DataError(f"{path} has non-string adapter targets")
    return AdapterSet(
        rank=rank,
        alpha=alpha,
        targets=tuple(targets),
        phase_tag=meta_entry(meta, "phase_tag", str, path),
        tensors=tensors_out,
    )


def merge_into_checkpoint(ckpt: Checkpoint, adapter_sets) -> Checkpoint:
    """New checkpoint with adapters folded into the weights, under the
    bidirectional attention they were trained with.

    Absorbed phase tags accumulate in the metadata so a merged model
    remembers what went into it.
    """
    sets = list(adapter_sets)
    merged = apply_adapters(ckpt.params, sets)
    extra = dict(ckpt.extra)
    absorbed = list(extra.get("absorbed_phases", []))
    absorbed.extend(a.phase_tag for a in sets)
    extra["absorbed_phases"] = absorbed
    return dataclasses.replace(ckpt, params=merged, cfg=enable_bidirectional(ckpt.cfg), extra=extra)
