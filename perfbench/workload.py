"""One workload in one fresh process: set-up, timed stage, output checks.

``run.py`` starts this file with BLAS pinned to one thread and reads the
JSON result it writes.  The timed stage drives the program only through
``packbert.cli.main``, the entry point of the ``packbert`` command; the
public Python API is used to build inputs and, after the timed stage, to
check outputs.  The timed stage repeats whole rounds of identical
operations until ``--seconds`` have passed, or exactly ``--rounds`` rounds.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import envinfo
import inputs
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Every module the CLI handlers import lazily, loaded now so that import
# cost lands in start-up and the tracer can wrap them all before set-up.
# Calls below go through module attributes, so set-up work is traced too.
import packbert.cli  # noqa: E402
import packbert.config as config  # noqa: E402
import packbert.context_ext  # noqa: E402,F401
import packbert.data_pipeline  # noqa: E402,F401
import packbert.model as model  # noqa: E402
import packbert.niah as niah  # noqa: E402
import packbert.optim as optim  # noqa: E402
import packbert.packing as packing  # noqa: E402
import packbert.tokenizer as tokenizer  # noqa: E402
import packbert.trainer as trainer  # noqa: E402
import packbert.util as util  # noqa: E402

HELD_OUT_MASK_RATE = 0.3


def cli(*argv) -> tuple[int, str]:
    """Run one ``packbert`` subcommand in this process; (exit code, stdout).

    An exception that ``main`` lets through gives exit code 1, as it would
    from the ``packbert`` command, and its traceback goes to the log.
    """
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            rc = packbert.cli.main([str(a) for a in argv])
    except Exception:
        traceback.print_exc()
        rc = 1
    return rc, out.getvalue()


def write_lines(path: Path, lines) -> None:
    path.write_text("".join(f"{x}\n" for x in lines), encoding="utf-8")


def write_job(path: Path, pairs: dict) -> None:
    write_lines(path, (f"{k} = {v}" for k, v in pairs.items()))


class Check:
    def __init__(self):
        self.items: list[dict] = []

    def __call__(self, name: str, ok: bool, detail: str) -> None:
        self.items.append({"name": name, "ok": bool(ok), "detail": detail})

    @property
    def ok(self) -> bool:
        return bool(self.items) and all(c["ok"] for c in self.items)

    def run(self, name: str, fn, *args):
        """Call ``fn``; if it raises, log the traceback and fail check ``name``."""
        try:
            return fn(*args)
        except Exception as e:
            traceback.print_exc()
            self(name, False, f"raised {type(e).__name__}: {e}")
            return None


def heldout_loss(params, cfg, corrupted, where, chunk: int) -> float:
    """Mean cross-entropy at the masked slots, softmax in float64 here."""
    total, count = 0.0, 0
    for lo in range(0, len(corrupted), chunk):
        batch = packing.pack(corrupted[lo : lo + chunk])
        slots = [(s - lo, i, g) for s, i, g in where if lo <= s < lo + chunk]
        rows = np.array([batch.boundaries[s] + i for s, i, _ in slots], dtype=np.int64)
        gold = np.array([g for _, _, g in slots], dtype=np.int64)
        hidden = model.forward(params, cfg, batch).hidden
        logits = model.mlm_logits(hidden[rows], params).astype(np.float64)
        logits -= logits.max(axis=1, keepdims=True)
        logp = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        total += float(-logp[np.arange(gold.size), gold].sum())
        count += gold.size
    return total / count


# ---------------------------------------------------------------------------
# Masked-LM workloads: rounds of `packbert pretrain` over a tokenized corpus


class MaskedLM:
    corpus: inputs.ZipfCorpus
    n_members: int
    length_range: tuple[int, int]
    batch: int
    preset: str | None = None
    arch: dict
    train: dict
    ckpt_interval = 0
    heldout_members = 0
    eval_chunk = 8

    def __init__(self, work: Path, seed: int, broken: str | None):
        self.work, self.seed, self.broken = work, seed, broken
        self.members: list[np.ndarray] = []

    @property
    def expected_tokens(self) -> int:
        return int(sum(m.size for m in self.members))

    @property
    def expected_steps(self) -> int:
        return self.n_members // self.batch

    def training_members(self):
        rng = inputs.rng_for(self.seed, "train")
        if self.broken == "data":
            return self.corpus.uniform_members(rng, self.n_members, *self.length_range)
        return self.corpus.members(rng, self.n_members, *self.length_range)

    def setup(self) -> None:
        self.members = self.training_members()
        text_members = self.members[:-1] if self.broken == "count" else self.members
        write_lines(self.work / "vocab.txt", self.corpus.vocab_lines)
        (self.work / "corpus.txt").write_text(self.corpus.text(text_members), encoding="utf-8")
        total = self.expected_tokens
        train = {
            "token_budget": total,
            "batch_tokens_or_sequences": self.batch,
            "microbatch": self.batch,
            "schedule": "trapezoidal",
            "warmup_tokens": total // 20,
            "decay_tokens": total // 5,
            "mask_rate": 0.3,
            "seed": self.seed,
            **self.train,
        }
        job = {"preset": self.preset} if self.preset else {}
        job.update({f"arch.{k}": v for k, v in self.arch.items()})
        job.update({f"train.{k}": v for k, v in train.items()})
        write_job(self.work / "job.cfg", job)
        rc, _ = cli(
            "tokenize",
            "--vocab", self.work / "vocab.txt",
            "--input", self.work / "corpus.txt",
            "--out", self.work / "data.pbseq",
        )
        if rc != 0:
            raise RuntimeError(f"packbert tokenize exited {rc}")

    def round(self, rdir: Path) -> tuple[int, int, bool]:
        """One `packbert pretrain`; (operations, tokens, exit code was 0)."""
        argv = [
            "pretrain",
            "--config", self.work / "job.cfg",
            "--vocab", self.work / "vocab.txt",
            "--data", self.work / "data.pbseq",
            "--out", rdir,
        ]
        if self.ckpt_interval:
            argv += ["--ckpt-interval", self.ckpt_interval]
        rc, _ = cli(*argv)
        return self.expected_steps, self.expected_tokens, rc == 0

    def check_round(self, rdir: Path, check: Check) -> None:
        rc, out = cli("inspect", "--ckpt", rdir / "ckpt_final.pbt")
        m = re.search(r"step=(\d+) tokens_seen=(\d+)", out)
        got = (int(m.group(1)), int(m.group(2))) if rc == 0 and m else None
        want = (self.expected_steps, self.expected_tokens)
        check(
            "trained_tokens",
            got == want,
            f"(steps, tokens) from `packbert inspect` {got}, "
            f"from the seed, batch {self.batch} and budget {want}",
        )

    def heldout(self):
        rng = inputs.rng_for(self.seed, "heldout")
        members = self.corpus.members(rng, self.heldout_members, *self.length_range)
        return inputs.masked_sample(rng, members, HELD_OUT_MASK_RATE)


class MlmShort(MaskedLM):
    """tiny_test over thousands of 24-40 token members, 16 per step."""

    corpus = inputs.ZipfCorpus(59, 1, 1.4)
    n_members = 4096
    length_range = (24, 40)
    batch = 16
    preset = "tiny_test"
    arch = {}
    train = {"peak_lr": 3e-3}
    heldout_members = 1024
    eval_chunk = 256
    margin_nats = 0.05

    def check_outputs(self, rdir: Path, check: Check) -> str:
        ckpt = trainer.load_checkpoint(rdir / "ckpt_final.pbt")
        corrupted, where = self.heldout()
        loss = heldout_loss(ckpt.params, ckpt.cfg, corrupted, where, self.eval_chunk)
        probs = self.corpus.probs
        base = len(inputs.SPECIALS)
        sample_truth = float(np.mean([-math.log(probs[g - base]) for _, _, g in where]))
        h = self.corpus.entropy
        lo, hi = sample_truth - 0.02, sample_truth + self.margin_nats
        check(
            "heldout_loss_near_entropy",
            lo <= loss <= hi,
            f"held-out masked loss {loss:.4f} nats on {len(where)} slots; the Zipf law's "
            f"own loss on these slots {sample_truth:.4f} (its entropy {h:.4f}); "
            f"bound [{lo:.4f}, {hi:.4f}]",
        )
        return util.params_digest(ckpt.params)


class MlmMid(MaskedLM):
    """6 layers, hidden 256, 4 heads, window 128, every third layer global."""

    corpus = inputs.ZipfCorpus(4091, 2, 0.5)
    n_members = 16
    length_range = (384, 640)
    batch = 8
    arch = {
        "vocab_size": 4096,
        "n_layers": 6,
        "hidden": 256,
        "n_heads": 4,
        "head_dim": 64,
        "intermediate": 384,
        "block_style": "pre_norm",
        "norm": "layer_norm",
        "norm_eps": 1e-5,
        "activation": "gelu",
        "global_every": 3,
        "local_window": 128,
        "rope_theta_global": 160000.0,
        "rope_theta_local": 10000.0,
        "max_seq_len": 1024,
        "attention_mode": "bidirectional",
    }
    train = {"peak_lr": 2e-3, "schedule": "constant"}
    # A round is one epoch: 2 steps of 8 members whose stratified lengths sum
    # to about 8192 tokens.  One step holds at most 8 * 640 = 5120 tokens, so
    # a 7500-token interval writes a checkpoint after step 2, then the final.
    ckpt_interval = 7500
    heldout_members = 16

    def setup(self) -> None:
        if self.broken == "train":
            self.train = {**self.train, "peak_lr": 0.0}
        super().setup()

    def check_outputs(self, rdir: Path, check: Check) -> str:
        ckpt = trainer.load_checkpoint(rdir / "ckpt_final.pbt")
        cfg = ckpt.cfg
        corrupted, where = self.heldout()
        init = model.init_params(cfg, seed=self.seed)  # what `pretrain` starts from
        if self.broken == "init":
            init = {**init, "tok_emb": init["tok_emb"] * 30.0}
        init_loss = heldout_loss(init, cfg, corrupted, where, self.eval_chunk)
        final_loss = heldout_loss(ckpt.params, cfg, corrupted, where, self.eval_chunk)
        ln_v = math.log(cfg.vocab_size)
        check(
            "init_loss_is_ln_vocab",
            abs(init_loss - ln_v) <= 0.01 * ln_v,
            f"held-out loss at initialisation {init_loss:.4f}, ln({cfg.vocab_size}) = "
            f"{ln_v:.4f}, bound 1%",
        )
        check(
            "final_loss_below_init",
            final_loss < init_loss,
            f"held-out loss final {final_loss:.4f} < initial {init_loss:.4f}",
        )
        # float64, as in the acceptance suite's gradient checks, so that the
        # comparison tests packing itself rather than float32 rounding.
        params64 = {k: v.astype(np.float64) for k, v in ckpt.params.items()}
        batch_members = self.members[: self.batch]
        packed = model.forward(params64, cfg, packing.pack(batch_members)).hidden
        lengths = np.array([m.size for m in batch_members], dtype=np.int64)
        ids = np.zeros((len(batch_members), int(lengths.max())), dtype=np.int32)
        rows = list(range(len(batch_members)))
        if self.broken == "padded":
            rows = rows[::-1]
        for r, s in enumerate(rows):
            ids[r, : lengths[s]] = batch_members[s]
        padded = model.forward_padded(params64, cfg, ids, lengths[rows])
        worst = 0.0
        for s in range(len(batch_members)):
            lo = int(sum(lengths[:s]))
            diff = np.abs(packed[lo : lo + lengths[s]] - padded[s, : lengths[s]])
            worst = max(worst, float(diff.max()))
        check(
            "packed_equals_padded",
            worst <= 1e-5,
            f"max |forward - forward_padded| {worst:.2e} in float64 on one batch of "
            f"{len(batch_members)} members (bound 1e-5)",
        )
        return util.params_digest(ckpt.params)


# ---------------------------------------------------------------------------
# Haystack evaluation: rounds of `packbert niah-eval` over planted 8k inputs


class Niah8k:
    """2 layers (global + window-128), extended to 8,192 tokens, planted."""

    text = inputs.HaystackText()
    needle_tokens = 64
    para_tokens = 120
    pool_size = 80
    # (token cap, documents): one build per length class, all three buckets.
    classes = ((1000, 4), (3600, 4), (8192, 3))
    base_cfg = config.ArchConfig(
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
        local_window=128,
        rope_theta_global=10000.0,
        rope_theta_local=10000.0,
        max_seq_len=1024,
        attention_mode="bidirectional",
    )
    plant_strength = 1.0

    def __init__(self, work: Path, seed: int, broken: str | None):
        self.work, self.seed, self.broken = work, seed, broken
        self.doc_tokens: list[int] = []

    def setup(self) -> None:
        rng = inputs.rng_for(self.seed, "haystack")
        text = self.text
        pool = [" ".join(text.paragraph(rng, self.para_tokens)) for _ in range(self.pool_size)]
        n_docs = sum(n for _, n in self.classes)
        answers = rng.choice(len(text.answers), size=n_docs, replace=False)
        write_lines(self.work / "vocab.txt", text.vocab_lines)
        vocab = tokenizer.load_vocab(self.work / "vocab.txt")
        examples, k = [], 0
        for cap, n in self.classes:
            pairs = []
            for a in answers[k : k + n]:
                needle, start = text.needle(rng, self.needle_tokens, text.answers[a])
                answer = text.answers[a]
                pairs.append(niah.QAPair("which code is hidden here?", needle, answer, start))
            k += n
            examples += niah.build_dataset(
                pairs, "test", vocab=vocab, seed=self.seed, pool=pool,
                max_distractors=10**6, token_cap=cap,
            )
        self.doc_tokens = [
            self.needle_tokens + self.para_tokens * (len(ex.paragraphs) - 1) for ex in examples
        ]
        if self.broken == "counts":
            examples = examples[:-1]
        niah.write_examples(self.work / "haystacks.jsonl", examples)
        trainer.save_checkpoint(self.planted_checkpoint(), self.work / "base.pbt")
        rc, _ = cli(
            "extend",
            "--ckpt", self.work / "base.pbt",
            "--theta", 160000,
            "--max-len", 8192,
            "--out", self.work / "model.pbt",
        )
        if rc != 0:
            raise RuntimeError(f"packbert extend exited {rc}")

    def planted_checkpoint(self) -> trainer.Checkpoint:
        """Answer embeddings carry a large zero-mean direction u; the span
        head reads u, so the answer token is the argmax for start and end."""
        cfg = self.base_cfg
        params = model.init_params(cfg, seed=self.seed)
        u = inputs.zero_mean_unit(inputs.rng_for(self.seed, "plant"), cfg.hidden)
        u = u.astype(np.float32)
        emb = params["tok_emb"]
        emb -= np.outer(emb @ u, u)
        if self.broken != "plant":
            emb[self.text.answer_ids] += self.plant_strength * u
        params["span_head.w"] = np.stack([u, u], axis=1) * 4.0
        phase = config.TrainPhaseConfig()
        return trainer.Checkpoint(
            params=params, opt=optim.OptState.init(params, phase), cfg=cfg, phase=phase,
            phase_id="planted", step=0, tokens_seen=0, epoch=0, pos_in_epoch=0,
            consumed=0, dataset_digest="", n_provenance=0,
        )

    def round(self, rdir: Path) -> tuple[int, int, bool]:
        rc, out = cli(
            "niah-eval",
            "--ckpt", self.work / "model.pbt",
            "--vocab", self.work / "vocab.txt",
            "--examples", self.work / "haystacks.jsonl",
        )
        (rdir / "report.txt").write_text(out, encoding="utf-8")
        return sum(n for _, n in self.classes), sum(self.doc_tokens), rc == 0

    def check_round(self, rdir: Path, check: Check) -> None:
        out = (rdir / "report.txt").read_text(encoding="utf-8")
        head = re.search(r"examples=(\d+) exact_match=([\d.]+) missing=(\d+)", out)
        buckets = {
            m.group(1): (int(m.group(2)), float(m.group(3)))
            for m in re.finditer(r"bucket=(\S+) count=(\d+) exact_match=([\d.]+)", out)
        }
        own = {label: 0 for label in ("<1024", "1024-4095", "4096-8192")}
        for n in self.doc_tokens:
            own[inputs.bucket_of(n)] += 1
        got_counts = {k: c for k, (c, _) in buckets.items()}
        ems = [em for c, em in buckets.values() if c]
        check(
            "bucket_counts",
            bool(head) and int(head.group(1)) == len(self.doc_tokens) and got_counts == own,
            f"report counts {got_counts}, benchmark's own {own}",
        )
        check(
            "exact_match_all_buckets",
            bool(head) and float(head.group(2)) == 1.0 and int(head.group(3)) == 0
            and len(ems) == 3 and all(em == 1.0 for em in ems),
            "report: " + " | ".join(out.strip().splitlines()),
        )

    def check_outputs(self, rdir: Path, check: Check) -> str:
        ckpt = trainer.load_checkpoint(self.work / "model.pbt")
        check(
            "extended_to_8192",
            ckpt.cfg.max_seq_len == 8192 and ckpt.cfg.rope_theta_global == 160000.0,
            f"max_seq_len {ckpt.cfg.max_seq_len}, global base {ckpt.cfg.rope_theta_global:g}",
        )
        report = (rdir / "report.txt").read_text(encoding="utf-8")
        return util.params_digest(ckpt.params) + ":" + report.strip().replace("\n", " | ")


WORKLOADS = {"mlm_short": MlmShort, "mlm_mid": MlmMid, "niah_8k": Niah8k}
BREAKS = {"mlm_short": ("data", "count"), "mlm_mid": ("init", "train", "padded"),
          "niah_8k": ("plant", "counts")}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--rounds", type=int, default=0, help="fixed round count (0: time-based)")
    p.add_argument("--setup-only", action="store_true", help="stop after set-up")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--t0", type=float, required=True, help="launcher's perf_counter at spawn")
    p.add_argument("--break", dest="broken", default=None)
    args = p.parse_args(argv)
    startup_s = time.perf_counter() - args.t0
    if args.broken is not None and args.broken not in BREAKS[args.workload]:
        p.error(f"--break for {args.workload} is one of {BREAKS[args.workload]}")

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    work = Path(args.work)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = WORKLOADS[args.workload](work, args.seed, args.broken)

    if tracer:
        tracer.stage = "setup"
    check = Check()
    t = time.perf_counter()
    # If set-up fails, the rounds still run: their commands fail and count.
    check.run("setup_completed", wl.setup)
    setup_work_s = time.perf_counter() - t
    t_timed = time.perf_counter()
    setup_s = t_timed - args.t0
    if args.setup_only:
        Path(args.result).write_text(json.dumps({"setup_s": setup_s}), encoding="utf-8")
        return 0

    if tracer:
        tracer.stage = "timed"
    round_s, round_cpu_s, attempted, failed, tokens = [], [], 0, 0, 0
    rdir = work / "round"
    while True:
        shutil.rmtree(rdir, ignore_errors=True)
        rdir.mkdir()
        t, c = time.perf_counter(), time.process_time()
        ops, n_tok, ok = wl.round(rdir)
        round_s.append(time.perf_counter() - t)
        round_cpu_s.append(time.process_time() - c)
        attempted += ops
        if ok:
            tokens += n_tok
        else:
            failed += ops
        if args.rounds:
            if len(round_s) >= args.rounds:
                break
        elif sum(round_s) >= args.seconds:
            break
        if tracer:
            tracer.stage = "check"
        if ok:
            check.run("check_round_completed", wl.check_round, rdir, check)
        if tracer:
            tracer.stage = "timed"
    rss = peak_rss_mb()

    if tracer:
        tracer.stage = "check"
    check("all_rounds_exit_0", failed == 0, f"{failed} of {attempted} operations failed")
    digest = ""
    if failed == 0:
        check.run("check_round_completed", wl.check_round, rdir, check)
        digest = check.run("check_outputs_completed", wl.check_outputs, rdir, check) or ""

    timed_s = sum(round_s)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "broken": args.broken,
        "correct": check.ok,
        "checks": check.items,
        "attempted": attempted,
        "failed": failed,
        "rounds": len(round_s),
        "round_s": round_s,
        "round_cpu_s": round_cpu_s,
        "tokens": tokens,
        "timed_s": timed_s,
        # Median over rounds, so one round slowed by the machine does not
        # move the figure; rounds are identical, so each has the same tokens.
        "tokens_per_s": statistics.median(
            (tokens / len(round_s)) / r for r in round_s
        ),
        "startup_s": startup_s,
        "setup_work_s": setup_work_s,
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "digest": digest,
        "env": envinfo.collect(ROOT),
    }
    if tracer:
        result["trace"] = trace_report(tracer, setup_work_s, timed_s)
        tracer.dump(work / "trace.json")
    Path(args.result).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


def trace_report(tracer: Tracer, setup_wall: float, timed_wall: float) -> dict:
    layers = tracer.summary(("setup", "timed"))
    out = {"layers": layers, "absent": tracer.absent}
    for stage, wall in (("setup", setup_wall), ("timed", timed_wall)):
        own = tracer.summary((stage,))
        attributed = sum(v for k, v in own.items() if k.endswith(".s"))
        out[f"{stage}.wall_s"] = wall
        out[f"{stage}.unattributed_s"] = wall - attributed
        out[f"{stage}.split"] = {k: v for k, v in own.items() if k.endswith(".s")}
    return out


if __name__ == "__main__":
    sys.exit(main())
