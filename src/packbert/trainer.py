"""Training loops with deterministic data order and auditable provenance.

One (seed, dataset) pair fixes the epoch shuffles, the batch membership,
every mask draw and every dropout mask, and therefore every parameter bit.
Each optimizer step appends a provenance record naming the sequences it
consumed. Every checkpoint stores the run's whole log beside the weights in
one tensor_store container, so it can be audited or replayed exactly, and a
resumed run continues its checkpoint's log.

A run's state is one Checkpoint, which the loop advances in place. Its
optimizer settings are its phase's: a resumed run's phase governs the rest
of the run and is what its checkpoints record. Given an ``out_dir``, it writes
``ckpt_stepNNNNNNNN.pbt`` at each ``checkpoint_interval_tokens`` mark and
``ckpt_final.pbt`` at the end, as a hard link to the last interval
checkpoint when that holds the final state; interval checkpoints live on
disk only. The returned TrainResult holds the final checkpoint, this call's
provenance records and its per-step metrics.

The same engine drives masked-token pretraining (MLM and its shifted
variant), span extraction fine-tuning, and contrastive embedding
fine-tuning; objectives differ only in their head, the loss over a slice's
hidden states. ``_run_microbatches`` is the one place a step becomes
gradients: per slice it packs, runs forward with a cache, calls the head
and runs backward. Masked and span steps are cut into slices of at most
``microbatch`` members whose forward cache fits MICROBATCH_CACHE_BYTES, so
long members cost more microbatches, not more memory. A contrastive step is
one slice whatever the two caps say: InfoNCE normalises over the whole
batch's candidates, and a split forward would split that pool.
The engine moves one dict of trained tensors: every parameter for full
training, or, when ``train_masked`` is given ``extra_linear``, only the
adapter pairs, whose gradients the backward pass computes directly while
the base weights stay frozen and get none.  ``train_masked`` trains the
weights it is given in place; the span and contrastive trainers train a
copy.  The masked objectives' vocabulary head runs one row chunk at a time,
so its logits never cover a whole slice.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import (
    ArchConfig,
    TrainPhaseConfig,
    arch_from_pairs,
    arch_to_pairs,
    format_pairs,
    parse_kv_text,
    phase_from_pairs,
    phase_to_pairs,
    validate_phase,
)
from .errors import ConfigError, DataError, TrainingError
from .model import (
    adapter_params,
    backward,
    cache_bytes_per_token,
    forward,
    mlm_logits,
    mlm_logits_vjp,
    pool_mean_packed,
    pool_mean_packed_vjp,
    span_logits,
    span_logits_vjp,
    validate_params,
)
from .objectives import (
    MASK_POLICIES,
    _log_softmax,
    head_chunk_rows,
    info_nce,
    mlm_loss,
    mlm_mask,
    mntp_targets,
)
from .optim import OptState, lr_at, step as opt_step
from .packing import pack
from .tensor_store import link_tensors, meta_entry, read_tensors, write_tensors
from .tokenizer import encode
from .util import (
    PURPOSE_DROP,
    PURPOSE_MASK,
    PURPOSE_ORDER,
    dataset_digest,
    derived_rng,
    derived_seed,
    read_jsonl,
)

logger = logging.getLogger("packbert.trainer")

_U64 = (1 << 64) - 1


# ---------------------------------------------------------------------------
# Provenance


@dataclass(frozen=True)
class ProvenanceRecord:
    step: int
    token_count: int  # cumulative tokens consumed after this step
    sequence_ids: tuple[int, ...]  # dataset indices in consumption order
    digest: str  # 32 hex chars, replayable from (seed, step, ids)


def _record_digest(seed: int, step: int, ids) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(int(seed & _U64).to_bytes(8, "little"))
    h.update(int(step).to_bytes(8, "little"))
    for i in ids:
        h.update(int(i).to_bytes(8, "little"))
    return h.hexdigest()


def verify_provenance(records, seed: int) -> None:
    """Recompute every record digest; a mismatch means the log was edited."""
    for rec in records:
        if _record_digest(seed, rec.step, rec.sequence_ids) != rec.digest:
            raise TrainingError(
                f"provenance digest mismatch at step {rec.step}; log does not replay"
            )


# ---------------------------------------------------------------------------
# Checkpoints


@dataclass
class Checkpoint:
    """A run's whole state; the training loop advances one in place.

    ``opt`` holds the moments and step count under ``phase``'s betas, eps and
    weight decay, so a file stores each optimizer setting once, in its phase.
    """

    params: dict[str, np.ndarray]
    opt: OptState
    cfg: ArchConfig
    phase: TrainPhaseConfig
    phase_id: str
    step: int
    tokens_seen: int
    epoch: int
    pos_in_epoch: int  # sequences already drawn from the current epoch order
    consumed: int  # sequence instances consumed across all epochs
    dataset_digest: str
    n_provenance: int  # must equal len(provenance)
    extra: dict = field(default_factory=dict)
    provenance: list[ProvenanceRecord] = field(default_factory=list)  # the run's full history


def _copy_tensors(d: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: v.copy() for k, v in d.items()}


_PROVENANCE_KEYS = ("step", "tokens", "n_ids", "ids", "digest")


def _provenance_tensors(recs: list[ProvenanceRecord]) -> dict[str, np.ndarray]:
    """The log as int32/uint8 tensors; per-step token counts fit int32, running totals may not."""
    cumulative = np.array([r.token_count for r in recs], dtype=np.int64)
    digests = b"".join(bytes.fromhex(r.digest) for r in recs)
    return {
        "provenance/step": np.array([r.step for r in recs], dtype=np.int32),
        "provenance/tokens": np.diff(cumulative, prepend=0).astype(np.int32),
        "provenance/n_ids": np.array([len(r.sequence_ids) for r in recs], dtype=np.int32),
        "provenance/ids": np.array([i for r in recs for i in r.sequence_ids], dtype=np.int32),
        "provenance/digest": np.frombuffer(digests, dtype=np.uint8).reshape(-1, 16),
    }


def _provenance_from_tensors(prov: dict[str, np.ndarray], path) -> list[ProvenanceRecord]:
    if sorted(prov) != sorted(_PROVENANCE_KEYS):
        raise DataError(f"{path} has provenance tensors {sorted(prov)}")
    steps, tokens, n_ids, ids, digest = (prov[k] for k in _PROVENANCE_KEYS)
    n, n_flat = steps.size, int(n_ids.sum(dtype=np.int64))
    if (
        {a.dtype for a in (steps, tokens, n_ids, ids)} != {np.dtype(np.int32)}
        or digest.dtype != np.uint8
        or (steps.shape, tokens.shape, n_ids.shape, digest.shape, ids.shape)
        != ((n,), (n,), (n,), (n, 16), (n_flat,))
        or (n and n_ids.min() < 0)
    ):
        raise DataError(f"{path} has an inconsistent provenance log")
    ends = np.cumsum(n_ids, dtype=np.int64)
    bounds = zip((ends - n_ids).tolist(), ends.tolist())
    counts = np.cumsum(tokens, dtype=np.int64).tolist()
    flat = ids.tolist()
    return [
        ProvenanceRecord(step, count, tuple(flat[lo:hi]), bytes(d).hex())
        for step, count, (lo, hi), d in zip(steps.tolist(), counts, bounds, digest)
    ]


_COUNTER_KEYS = ("step", "tokens_seen", "epoch", "pos_in_epoch", "consumed", "n_provenance")


def _opt_state(m, v, t: int, phase: TrainPhaseConfig) -> OptState:
    """Saved moments and step count under the phase's optimizer settings."""
    return OptState(
        m=m, v=v, t=t, betas=phase.betas, eps=phase.eps, weight_decay=phase.weight_decay
    )


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    tensors = _provenance_tensors(ckpt.provenance)
    for name, arr in ckpt.params.items():
        tensors[f"params/{name}"] = arr
    for name, arr in ckpt.opt.m.items():
        tensors[f"opt.m/{name}"] = arr
    for name, arr in ckpt.opt.v.items():
        tensors[f"opt.v/{name}"] = arr
    meta = {
        "format": "packbert-checkpoint",
        "version": 2,
        "phase_id": ckpt.phase_id,
        "arch": format_pairs(arch_to_pairs(ckpt.cfg)),
        "phase": format_pairs(phase_to_pairs(ckpt.phase)),
        "counters": {k: getattr(ckpt, k) for k in _COUNTER_KEYS},
        "opt": {"t": ckpt.opt.t},
        "dataset_digest": ckpt.dataset_digest,
        "extra": ckpt.extra,
    }
    write_tensors(path, tensors, meta)


def load_checkpoint(path) -> Checkpoint:
    tensors, meta = read_tensors(path)
    if meta.get("format") != "packbert-checkpoint":
        raise DataError(f"{path} is not a checkpoint (format {meta.get('format')!r})")
    groups = {"params": {}, "opt.m": {}, "opt.v": {}, "provenance": {}}
    for name, arr in tensors.items():
        group, _, rest = name.partition("/")
        if group not in groups:
            raise DataError(f"{path} has unexpected tensor group {group!r}")
        groups[group][rest] = arr
    params, m, v = groups["params"], groups["opt.m"], groups["opt.v"]
    provenance = _provenance_from_tensors(groups["provenance"], path)
    counters = meta_entry(meta, "counters", dict, path)
    count = {k: meta_entry(counters, k, int, path) for k in _COUNTER_KEYS}
    if count["n_provenance"] != len(provenance):
        raise DataError(f"{path} counts {count['n_provenance']} provenance records, "
                        f"holds {len(provenance)}")
    try:
        cfg = arch_from_pairs(parse_kv_text(meta_entry(meta, "arch", str, path)))
        phase = phase_from_pairs(parse_kv_text(meta_entry(meta, "phase", str, path)))
    except ConfigError as e:
        raise DataError(f"{path} holds an invalid configuration: {e}") from e
    problems = validate_params(params, cfg)
    if sorted(m) != sorted(v) or any(m[k].shape != v[k].shape for k in m):
        problems.append("optimizer moments m and v differ in names or shapes")
    if problems:
        raise DataError(f"{path} does not fit its config: {'; '.join(problems)}")
    # Older files also hold betas, eps and weight decay here; the phase is
    # their one source, so only t is read.
    t = meta_entry(meta_entry(meta, "opt", dict, path), "t", int, path)
    return Checkpoint(
        params=params,
        opt=_opt_state(m, v, t, phase),
        cfg=cfg,
        phase=phase,
        phase_id=meta_entry(meta, "phase_id", str, path),
        dataset_digest=meta_entry(meta, "dataset_digest", str, path),
        extra=meta_entry(meta, "extra", dict, path),
        provenance=provenance,
        **count,
    )


@dataclass
class TrainResult:
    checkpoint: Checkpoint  # the final state
    provenance: list[ProvenanceRecord]  # this call's records only; a resume excludes the prior ones
    metrics: list[tuple[int, int, float, float]]  # (step, tokens, loss, lr)


# ---------------------------------------------------------------------------
# Engine


def _epoch_order(seed: int, epoch: int, n: int) -> np.ndarray:
    return derived_rng(seed, PURPOSE_ORDER, epoch).permutation(n)


def _id_arrays(items, limit: int, vocab: int, kind: str) -> list[list[np.ndarray]]:
    """Each item's member id lists as 1-D int32 arrays.

    An empty, non-1-D or over-limit member, or an id outside [0, ``vocab``),
    is a DataError naming its item, raised before any step runs.
    """
    out = []
    for i, members in enumerate(items):
        arrs = []
        for m in members:
            arr = np.asarray(m)
            if arr.ndim != 1 or arr.size == 0:
                raise DataError(f"{kind} {i} holds an empty or non-1-D sequence")
            if arr.size > limit:
                raise DataError(
                    f"{kind} {i} holds {arr.size} tokens, over the {limit}-token limit"
                )
            # Checked before the int32 cast, which could wrap a wide id into range.
            lo, hi = arr.min(), arr.max()
            if lo < 0 or hi >= vocab:
                raise DataError(f"{kind} {i} holds token id {lo if lo < 0 else hi}, "
                                f"outside the vocabulary [0, {vocab})")
            arrs.append(arr.astype(np.int32, copy=False))
        out.append(arrs)
    return out


# What one microbatch's forward cache may hold.  With the model's
# cache_bytes_per_token this caps a microbatch's tokens: in float32, 2,046 for
# 6 layers of hidden 256 and intermediate 384, and 20,906 for tiny_test.
MICROBATCH_CACHE_BYTES = 128 << 20


def _microbatches(lengths, micro: int, cap: int) -> list[slice]:
    """Cut members of these token ``lengths``, in order, into the fewest slices
    of at most ``micro`` members and ``cap`` tokens, the largest slice as small
    as that count allows.  A member longer than ``cap`` is a slice of its own.

    Greedy filling under a token limit gives the fewest slices for that limit;
    the smallest limit that keeps the count of the ``cap`` fill balances the
    slices.  When ``cap`` does not bind and ``micro`` divides the member
    count, every slice holds ``micro`` members.  The cut depends on the
    lengths alone, so reruns and resumes make the same one.
    """

    def fill(limit):
        cuts, lo, tokens = [], 0, 0
        for i, n in enumerate(lengths):
            if i > lo and (i - lo == micro or tokens + n > limit):
                cuts.append(slice(lo, i))
                lo, tokens = i, 0
            tokens += n
        cuts.append(slice(lo, len(lengths)))
        return cuts

    count = len(fill(cap))
    lo, hi = 0, cap  # fill(hi) makes count slices, fill(lo) more
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if len(fill(mid)) <= count:
            hi = mid
        else:
            lo = mid
    return fill(hi)


def microbatch_token_cap(cfg: ArchConfig, itemsize: int, dropout: bool) -> int:
    """Tokens whose forward cache fits MICROBATCH_CACHE_BYTES."""
    return MICROBATCH_CACHE_BYTES // cache_bytes_per_token(cfg, itemsize, dropout)


def _run_microbatches(
    live, cfg, grads, members, slices, head, *, seeds=None, dropout_rate=0.0, extra_linear=None
):
    """Add one step's gradients into ``grads``; returns the step's loss.

    ``head(sl, packed, hidden, grads)`` returns a slice's weighted loss and
    d(loss)/d(hidden), adding its own weights' gradients.  Its activations
    die when it returns, so backward peaks without them, and the slice's
    output and d(hidden) die before the next slice's forward.
    """
    loss = 0.0
    for sl in slices:
        packed = pack(members[sl])
        out = forward(live, cfg, packed, dropout_rate=dropout_rate, extra_linear=extra_linear,
                      seq_seeds=None if seeds is None else seeds[sl], want_cache=True)
        part_loss, d_hidden = head(sl, packed, out.hidden, grads)
        loss += part_loss
        backward(live, cfg, out.cache, d_hidden, grads)
        del out, d_hidden
    return loss


def _vocab_head(hidden, rows, targets, live, grads, total: int):
    """Cross-entropy of the vocabulary head at ``hidden[rows]`` against
    ``targets``, as this slice's share of a mean over ``total`` rows.

    Returns (weighted loss, d(loss)/d(hidden)) and adds the head's weight
    gradient into ``grads``.  The rows run in chunks of ``head_chunk_rows``:
    each chunk's logits, float64 softmax and logit gradient die before the
    next chunk's logits are formed.
    """
    d_hidden = np.zeros_like(hidden)
    chunk = head_chunk_rows(live["tok_emb"].shape[0])
    loss = 0.0
    for lo in range(0, rows.size, chunk):
        part = rows[lo : lo + chunk]
        x = hidden[part]
        part_loss, d_logits = mlm_loss(mlm_logits(x, live), targets[lo : lo + chunk])
        weight = part.size / total
        d_logits *= weight
        d_hidden[part] = mlm_logits_vjp(d_logits, x, live, grads)
        loss += part_loss * weight
    return loss, d_hidden


def _open_metrics(path: Path, resume_step: int | None):
    """The metrics log, opened to append a record per step.

    A fresh run (``resume_step`` None) replaces any old log.  A resumed run
    continues it after the records of steps up to its checkpoint's and drops
    the rest, which a run that went on past that checkpoint logged, so each
    step keeps one record.
    """
    if resume_step is None:
        return open(path, "w", encoding="utf-8")
    with open(path, "a+b") as f:
        f.seek(0)
        keep = 0
        for line in f:
            step = re.match(rb"step=(\d+) .*\n", line)
            if step is None or int(step[1]) > resume_step:
                break
            keep += len(line)
        f.truncate(keep)
    return open(path, "a", encoding="utf-8")


def _train_loop(
    params: dict[str, np.ndarray],
    trained: dict[str, np.ndarray],
    cfg: ArchConfig,
    phase: TrainPhaseConfig,
    *,
    lengths,
    compute,
    phase_id: str,
    data_digest: str,
    extra_meta: dict,
    checkpoint_interval_tokens: int = 0,
    out_dir=None,
    resume_from: Checkpoint | None = None,
) -> TrainResult:
    """Run the steps; ``params`` are the model's live weights, checkpointed
    as they are, and ``trained`` the tensors the optimizer moves in place.
    For full training the two are one dict.  ``compute(items, grads)`` adds
    a step's gradients into ``grads`` and returns its loss; ``lengths``, the
    items' token counts, order and count a step's tokens."""
    problems = validate_phase(phase)
    if checkpoint_interval_tokens < 0:
        problems.append(f"checkpoint interval must be >= 0 tokens, got {checkpoint_interval_tokens}")
    if problems:
        raise ConfigError("; ".join(problems))
    n_items = len(lengths)
    if n_items == 0:
        raise DataError("empty dataset")
    batch_size = phase.batch_tokens_or_sequences
    if batch_size > n_items:
        raise TrainingError(
            f"batch of {batch_size} sequences exceeds dataset size {n_items}"
        )

    if resume_from is not None:
        # The record digests are keyed by the seed, and the epoch positions
        # count whole batches: a resume that changes either would diverge.
        # The last record says what the run used, however the phase was edited.
        if resume_from.provenance:
            last = resume_from.provenance[-1]
            if _record_digest(phase.seed, last.step, last.sequence_ids) != last.digest:
                raise ConfigError(f"resume changes seed: the checkpoint's records do not "
                                  f"replay under seed {phase.seed}; resume refused")
            if len(last.sequence_ids) != batch_size:
                raise ConfigError(f"resume changes batch_tokens_or_sequences from "
                                  f"{len(last.sequence_ids)} to {batch_size}; resume refused")
        # So would one that changes a setting the run recorded in ``extra``,
        # such as the mask policy or dropout; older checkpoints lack some keys.
        for key, was in resume_from.extra.items():
            if key in extra_meta and extra_meta[key] != was:
                raise ConfigError(f"resume changes {key} from {was!r} to "
                                  f"{extra_meta[key]!r}; resume refused")
        if resume_from.dataset_digest != data_digest:
            raise TrainingError(
                "dataset digest does not match the checkpoint; resume refused"
            )
        # Copies, so one checkpoint can seed several resumes.
        ck = dataclasses.replace(
            resume_from,
            params=params,
            opt=_opt_state(
                _copy_tensors(resume_from.opt.m), _copy_tensors(resume_from.opt.v),
                resume_from.opt.t, phase,
            ),
            cfg=cfg,
            phase=phase,
            phase_id=phase_id,
            # Keys this trainer does not write, such as absorbed_phases, stay.
            extra={**resume_from.extra, **extra_meta},
            provenance=list(resume_from.provenance),
        )
        if {k: m.shape for k, m in ck.opt.m.items()} != {k: t.shape for k, t in trained.items()}:
            raise TrainingError("checkpoint moments do not match the trained tensors; resume refused")
    else:
        ck = Checkpoint(
            params=params,
            opt=OptState.init(trained, phase),
            cfg=cfg,
            phase=phase,
            phase_id=phase_id,
            dataset_digest=data_digest,
            extra=extra_meta,
            **dict.fromkeys(_COUNTER_KEYS, 0),
        )

    out_path = Path(out_dir) if out_dir is not None else None
    interval = checkpoint_interval_tokens if out_path is not None else 0
    next_mark = (ck.tokens_seen // interval + 1) * interval if interval else None
    order = _epoch_order(phase.seed, ck.epoch, n_items)
    prior = len(ck.provenance)  # a resume continues its checkpoint's log
    metrics: list[tuple[int, int, float, float]] = []
    # One gradient dict for the whole run, zeroed in place before each step.
    grads = {k: np.zeros_like(t) for k, t in trained.items()}

    saved = None  # (step, path) of the last interval checkpoint
    metrics_file = None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        metrics_file = _open_metrics(out_path / "metrics.txt",
                                     None if resume_from is None else resume_from.step)

    # Checkpoints hold the live arrays, not copies: an interval checkpoint is
    # written before the next step moves them, and nothing moves them after
    # the loop.
    try:
        while ck.tokens_seen < phase.token_budget:
            if ck.pos_in_epoch + batch_size > n_items:
                dropped = n_items - ck.pos_in_epoch
                if dropped:
                    logger.info(
                        "epoch %d: dropping final partial batch of %d sequences",
                        ck.epoch,
                        dropped,
                    )
                ck.epoch += 1
                ck.pos_in_epoch = 0
                order = _epoch_order(phase.seed, ck.epoch, n_items)
                continue
            chosen = order[ck.pos_in_epoch : ck.pos_in_epoch + batch_size]
            ck.pos_in_epoch += batch_size
            members = sorted((int(g) for g in chosen), key=lambda g: (lengths[g], g))
            items = [(g, ck.consumed + j) for j, g in enumerate(members)]

            for g in grads.values():
                g.fill(0.0)
            loss = compute(items, grads)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite loss {loss!r} at step {ck.step + 1}")

            ck.consumed += batch_size
            ck.step += 1
            ck.tokens_seen += sum(lengths[g] for g in members)
            lr = lr_at(ck.tokens_seen, phase)
            opt_step(trained, grads, ck.opt, lr)

            ck.provenance.append(
                ProvenanceRecord(
                    step=ck.step,
                    token_count=ck.tokens_seen,
                    sequence_ids=tuple(members),
                    digest=_record_digest(phase.seed, ck.step, members),
                )
            )
            ck.n_provenance = len(ck.provenance)
            metrics.append((ck.step, ck.tokens_seen, float(loss), lr))
            if metrics_file is not None:
                metrics_file.write(
                    f"step={ck.step} tokens={ck.tokens_seen} loss={float(loss)!r} lr={lr!r}\n"
                )
                metrics_file.flush()

            if interval and ck.tokens_seen >= next_mark:
                saved = (ck.step, out_path / f"ckpt_step{ck.step:08d}.pbt")
                save_checkpoint(ck, saved[1])
                next_mark = (ck.tokens_seen // interval + 1) * interval
    finally:
        if metrics_file is not None:
            metrics_file.close()

    if out_path is not None:
        path = out_path / "ckpt_final.pbt"
        # The loop ends after a step, so an interval checkpoint at the last
        # step holds this very state: it is also the final one.
        if saved is None or saved[0] != ck.step or not link_tensors(saved[1], path):
            save_checkpoint(ck, path)
    return TrainResult(
        checkpoint=ck,
        provenance=ck.provenance[prior:],
        metrics=metrics,
    )


# ---------------------------------------------------------------------------
# Masked-token objectives (MLM and the shifted MNTP variant)

MASKED_OBJECTIVES = ("mlm", "mntp")


def train_masked(
    params: dict[str, np.ndarray],
    cfg: ArchConfig,
    dataset,
    phase: TrainPhaseConfig,
    *,
    objective: str = "mlm",
    mask_id: int,
    special_ids,
    mask_policy: str = "all_mask",
    dropout_rate: float = 0.0,
    phase_id: str = "pretrain",
    checkpoint_interval_tokens: int = 0,
    out_dir=None,
    resume_from: Checkpoint | None = None,
    extra_linear: dict | None = None,
) -> TrainResult:
    """Pretrain on masked-token prediction over packed variable-length batches.

    objective "mlm" trains each masked position against its own identity;
    "mntp" trains the position one to the left of each mask instead, which
    is the form a converted decoder is adapted with.

    The tensors are trained in place, and no copy is made.  Without
    ``extra_linear``, the ``params`` dict is trained and is the result's
    ``checkpoint.params``; a caller that needs its initial weights keeps
    a copy.  Given ``extra_linear`` ({weight name: (A, B, scale)}, as
    ``forward`` takes it), only its A and B arrays are trained; ``params``
    stay frozen and are what the checkpoints hold.
    """
    if objective not in MASKED_OBJECTIVES:
        raise ConfigError(f"unknown objective {objective!r}")
    if mask_policy not in MASK_POLICIES:
        raise ConfigError(f"unknown mask policy {mask_policy!r}, not in {MASK_POLICIES}")
    if not 0.0 <= dropout_rate < 1.0:
        raise ConfigError(f"dropout rate must be in [0, 1), got {dropout_rate}")
    limit = min(cfg.max_seq_len, phase.max_seq_len)
    seqs = [arr for (arr,) in _id_arrays(([s] for s in dataset), limit, cfg.vocab_size, "sequence")]
    digest = dataset_digest(seqs)
    trained = params if extra_linear is None else adapter_params(extra_linear)
    cap = microbatch_token_cap(cfg, params["tok_emb"].itemsize, dropout_rate > 0.0)

    def rows_and_targets(seq, masked):
        if objective == "mlm":
            return masked.mask_positions, seq[masked.mask_positions].astype(np.int64)
        return mntp_targets(seq, masked.mask_positions)

    def compute(items, grads):
        corrupted, all_rows, all_targets = [], [], []
        for g, inst in items:
            rng = derived_rng(phase.seed, PURPOSE_MASK, inst)
            masked = mlm_mask(
                seqs[g],
                phase.mask_rate,
                rng,
                special_ids,
                mask_policy,
                mask_id=mask_id,
                vocab_size=cfg.vocab_size,
            )
            rows, targets = rows_and_targets(seqs[g], masked)
            corrupted.append(masked.corrupted_ids)
            all_rows.append(np.asarray(rows, dtype=np.int64))
            all_targets.append(np.asarray(targets, dtype=np.int64))
        total_active = int(sum(r.size for r in all_rows))
        if total_active == 0:
            raise TrainingError(
                "no trainable masked positions in this batch; "
                "raise mask_rate or batch size"
            )

        def head(sl, packed, hidden, grads):
            rows = np.concatenate(
                [r + int(packed.boundaries[s]) for s, r in enumerate(all_rows[sl])]
            )
            targets = np.concatenate(all_targets[sl])
            return _vocab_head(hidden, rows, targets, params, grads, total_active)

        # A slice with no masked row has no loss: it costs no forward.
        lengths = [int(c.size) for c in corrupted]
        slices = [
            sl for sl in _microbatches(lengths, phase.microbatch, cap)
            if any(r.size for r in all_rows[sl])
        ]
        seeds = [derived_seed(phase.seed, PURPOSE_DROP, inst) for _, inst in items]
        return _run_microbatches(params, cfg, grads, corrupted, slices, head, seeds=seeds,
                                 dropout_rate=dropout_rate, extra_linear=extra_linear)

    return _train_loop(
        params,
        trained,
        cfg,
        phase,
        lengths=[s.size for s in seqs],
        compute=compute,
        phase_id=phase_id,
        data_digest=digest,
        checkpoint_interval_tokens=checkpoint_interval_tokens,
        out_dir=out_dir,
        resume_from=resume_from,
        extra_meta={"objective": objective, "mask_policy": mask_policy,
                    "dropout_rate": float(dropout_rate)},
    )


def train_mlm(params, cfg, dataset, phase, **kwargs) -> TrainResult:
    return train_masked(params, cfg, dataset, phase, objective="mlm", **kwargs)


def resume_masked(
    checkpoint: Checkpoint,
    dataset,
    *,
    mask_id: int,
    special_ids,
    **kwargs,
) -> TrainResult:
    """Continue a masked-objective run from a checkpoint, bit-exactly.

    The dataset must be the one the checkpoint was trained on; any change
    of content or order is refused, as is a ``mask_policy`` or
    ``dropout_rate`` other than the one the checkpoint records.  The run
    trains a copy of the checkpoint's weights, so one checkpoint can seed
    several resumes.
    """
    objective = checkpoint.extra.get("objective", "mlm")
    return train_masked(
        _copy_tensors(checkpoint.params),
        checkpoint.cfg,
        dataset,
        checkpoint.phase,
        objective=objective,
        mask_id=mask_id,
        special_ids=special_ids,
        phase_id=checkpoint.phase_id,
        resume_from=checkpoint,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# Span-extraction fine-tuning


@dataclass(frozen=True)
class SpanExample:
    ids: np.ndarray  # token ids of the full document
    start: int  # gold span, inclusive token indices
    end: int

    def __post_init__(self):
        arr = np.asarray(self.ids, dtype=np.int32)
        if arr.ndim != 1 or arr.size == 0:
            raise DataError("span example document is empty")
        if not (0 <= self.start <= self.end < arr.size):
            raise DataError(
                f"gold span [{self.start}, {self.end}] outside document "
                f"of {arr.size} tokens"
            )
        object.__setattr__(self, "ids", arr)


def span_batch_loss(start_scores, end_scores, boundaries, golds):
    """Mean over members of the averaged start/end cross-entropies.

    Each member's distributions run over its own token positions only.
    Returns (loss, d_start, d_end) with gradients for the batch mean.
    """
    n = len(golds)
    d_start = np.zeros_like(start_scores, dtype=np.float64)
    d_end = np.zeros_like(end_scores, dtype=np.float64)
    loss = 0.0
    for s, (gs, ge) in enumerate(golds):
        lo, hi = int(boundaries[s]), int(boundaries[s + 1])
        for scores, gold, d_out in (
            (start_scores, gs, d_start),
            (end_scores, ge, d_end),
        ):
            logp = _log_softmax(np.asarray(scores[lo:hi], dtype=np.float64))
            loss += -float(logp[gold]) * 0.5 / n
            d = np.exp(logp)
            d[gold] -= 1.0
            d_out[lo:hi] = d * (0.5 / n)
    return loss, d_start, d_end


def train_span_qa(
    params: dict[str, np.ndarray],
    cfg: ArchConfig,
    examples,
    phase: TrainPhaseConfig,
    *,
    out_dir=None,
) -> TrainResult:
    """Fine-tune start/end span extraction with per-document cross-entropy."""
    limit = min(cfg.max_seq_len, phase.max_seq_len)
    docs = _id_arrays(([e.ids] for e in examples), limit, cfg.vocab_size, "example")
    exs = [SpanExample(ids, int(e.start), int(e.end)) for (ids,), e in zip(docs, examples)]
    # The documents, then each example's gold (start, end): the labels count too.
    digest = dataset_digest([e.ids for e in exs] + [np.array([e.start, e.end]) for e in exs])
    live = _copy_tensors(params)
    cap = microbatch_token_cap(cfg, live["tok_emb"].itemsize, False)

    def compute(items, grads):
        batch = [exs[g] for g, _ in items]

        def head(sl, packed, hidden, grads):
            start_sc, end_sc = span_logits(hidden, live)
            golds = [(e.start, e.end) for e in batch[sl]]
            part_loss, d_start, d_end = span_batch_loss(
                start_sc, end_sc, packed.boundaries, golds
            )
            scale = len(golds) / len(batch)
            d_hidden = span_logits_vjp(d_start * scale, d_end * scale, hidden, live, grads)
            return part_loss * scale, d_hidden.astype(hidden.dtype)

        members = [e.ids for e in batch]
        slices = _microbatches([int(m.size) for m in members], phase.microbatch, cap)
        return _run_microbatches(live, cfg, grads, members, slices, head)

    return _train_loop(
        live,
        live,
        cfg,
        phase,
        lengths=[e.ids.size for e in exs],
        compute=compute,
        phase_id="span_qa",
        data_digest=digest,
        out_dir=out_dir,
        extra_meta={"objective": "span_qa"},
    )


# ---------------------------------------------------------------------------
# Contrastive embedding fine-tuning


@dataclass(frozen=True)
class Triplet:
    query: np.ndarray
    positive: np.ndarray
    negatives: tuple  # tuple of id arrays, possibly empty


def read_triplets(path, vocab) -> list[Triplet]:
    """JSONL records of a query, a positive and, optionally, a list of negatives, encoded."""
    fields = {"query": str, "positive": str, "negatives": list}
    return read_jsonl(path, "triplet", fields, lambda r: Triplet(
        query=encode(r["query"], vocab), positive=encode(r["positive"], vocab),
        negatives=tuple(encode(t, vocab) for t in r["negatives"])), defaults={"negatives": []})


def _as_triplets(triplets, limit: int, vocab: int) -> list[Triplet]:
    groups = ([t.query, t.positive, *t.negatives] for t in triplets)
    return [
        Triplet(query=q, positive=p, negatives=tuple(negs))
        for q, p, *negs in _id_arrays(groups, limit, vocab, "triplet")
    ]


def _triplet_tokens(t: Triplet) -> int:
    return int(t.query.size + t.positive.size + sum(n.size for n in t.negatives))


def train_embedder(
    params: dict[str, np.ndarray],
    cfg: ArchConfig,
    triplets,
    phase: TrainPhaseConfig,
    *,
    temperature: float = 0.05,
    out_dir=None,
) -> TrainResult:
    """Contrastive fine-tune over mean-pooled embeddings.

    In-batch positives plus each triplet's explicit negatives form the
    candidate pool.  A step's members, all queries, then all positives, then
    each triplet's negatives in order, run as one slice, whatever
    ``microbatch`` and the cache cap say: splitting the forward would split
    the pool that InfoNCE normalises over.
    """
    if not 0 < temperature < np.inf:
        raise ConfigError(f"temperature must be finite and positive, got {temperature}")
    if phase.batch_tokens_or_sequences < 2:
        raise ConfigError("a contrastive batch needs at least 2 triplets, "
                          f"got {phase.batch_tokens_or_sequences}")
    trips = _as_triplets(triplets, min(cfg.max_seq_len, phase.max_seq_len), cfg.vocab_size)
    # Each triplet's negative count leads its arrays, so the flat list decodes
    # one way only: moving a negative to another triplet changes the digest.
    digest = dataset_digest([a for t in trips for a in
                             (np.array([len(t.negatives)]), t.query, t.positive, *t.negatives)])
    live = _copy_tensors(params)

    def compute(items, grads):
        batch = [trips[g] for g, _ in items]
        b = len(batch)
        members = [t.query for t in batch] + [t.positive for t in batch]
        members += [n for t in batch for n in t.negatives]

        def head(sl, packed, hidden, grads):
            pooled = pool_mean_packed(hidden, packed.boundaries)
            # No explicit negatives: an empty block, which info_nce skips.
            loss, *d_parts = info_nce(pooled[:b], pooled[b : 2 * b], pooled[2 * b :],
                                      temperature=temperature, with_grads=True)
            d_pooled = np.concatenate([d for d in d_parts if d is not None], axis=0)
            d_hidden = pool_mean_packed_vjp(
                d_pooled.astype(hidden.dtype), packed.boundaries, packed.total_tokens
            )
            return loss, d_hidden

        return _run_microbatches(live, cfg, grads, members, [slice(None)], head)

    return _train_loop(
        live,
        live,
        cfg,
        phase,
        lengths=[_triplet_tokens(t) for t in trips],
        compute=compute,
        phase_id="embed",
        data_digest=digest,
        out_dir=out_dir,
        extra_meta={"objective": "embed", "temperature": temperature},
    )


def retrieval_accuracy(params, cfg, triplets) -> float:
    """Fraction of triplets whose positive outranks every explicit negative."""
    trips = _as_triplets(triplets, cfg.max_seq_len, cfg.vocab_size)
    if not trips:
        raise DataError("no triplets to evaluate")
    hits = 0
    for t in trips:
        members = [t.query, t.positive, *t.negatives]
        packed = pack(members)
        out = forward(params, cfg, packed)
        pooled = pool_mean_packed(out.hidden, packed.boundaries)
        unit = pooled / np.linalg.norm(pooled, axis=1, keepdims=True)
        sims = unit[1:] @ unit[0]
        if sims.size == 1 or sims[0] > sims[1:].max():
            hits += 1
    return hits / len(trips)
