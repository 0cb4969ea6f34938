"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload mlm_short --seed 1 --seconds 20 --trace 0

Starts the workload in a fresh process with BLAS pinned to one thread
(``workload.py``), waits for it, and prints as the last line of standard
output one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` they are its per-layer metrics, from a
traced process that runs a fixed number of rounds after an untraced one with
the same seed and rounds (their outputs must match; the tokens/s difference
is the tracing overhead).  Lines before the last give the environment and
every output check.  ``--break NAME`` feeds the workload a deliberately
broken input to show that a check catches it.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mlm_short", "mlm_mid", "niah_8k")
# Whole run, both children included, stays inside the 180 s limit.
CHILD_TIMEOUT_S = 170.0
TRACE_ROUNDS = 1
SETUP_PROBES = 10

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    # Bytecode of every module, the standard library's too, is read from and
    # written to out/pycache only, so whatever __pycache__ the tree holds,
    # each measured process loads the .pyc files of an unmeasured set-up.
    "PYTHONPYCACHEPREFIX": str(HERE / "out" / "pycache"),
}
# Inherited variables that would change what the program runs or loads.
DROPPED_ENV = ("PACKBERT_ATTN", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def run_child(args, *, trace: int, rounds: int, deadline: float, setup_only=False) -> dict:
    tag = f"{args.workload}-{'setup' if setup_only else 'traced' if trace else 'plain'}"
    work = HERE / "out" / tag
    result = HERE / "out" / f"{tag}.json"
    log = HERE / "out" / f"{tag}.log"
    result.parent.mkdir(parents=True, exist_ok=True)
    result.unlink(missing_ok=True)
    argv = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--rounds", str(rounds),
        "--trace", str(trace),
        "--work", str(work),
        "--result", str(result),
    ]
    if args.broken:
        argv += ["--break", args.broken]
    if setup_only:
        argv.append("--setup-only")
    env = {k: v for k, v in os.environ.items() if k not in DROPPED_ENV} | PINNED_ENV
    with open(log, "w", encoding="utf-8") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv + ["--t0", repr(t0)], cwd=ROOT, env=env, stdout=out, stderr=subprocess.STDOUT
        )
        try:
            rc = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise SystemExit(f"{args.workload}: workload process timed out; log in {log}")
    if rc != 0 or not result.exists():
        tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise SystemExit(f"{args.workload}: workload process exited {rc}:\n{tail}")
    return json.loads(result.read_text(encoding="utf-8"))


def trace_values(plain: dict, traced: dict, names) -> tuple[dict, list[str]]:
    tr = traced["trace"]
    layers = tr["layers"]
    absent_layers = set(tr["absent"])
    stage = {
        "trace.setup.wall_s": tr["setup.wall_s"],
        "trace.setup.unattributed_s": tr["setup.unattributed_s"],
        "trace.timed.wall_s": tr["timed.wall_s"],
        "trace.timed.unattributed_s": tr["timed.unattributed_s"],
        "trace.overhead_tokens_per_s": plain["tokens_per_s"] - traced["tokens_per_s"],
    }
    got, absent = {}, []
    for name in names:
        if name in stage:
            got[name] = stage[name]
        elif any(name.startswith(a + ".") for a in absent_layers):
            absent.append(name)
        else:
            got[name] = layers.get(name, 0.0)
    return got, absent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--break", dest="broken", default=None,
                   help="deliberately broken input (see README)")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "packbert" / "cli.py").is_file():
        print(f"error: no packbert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        p.error("--seed must be >= 0")
    bench = spec()
    deadline = time.perf_counter() + CHILD_TIMEOUT_S

    if not args.trace:
        # Set-up is also timed in SETUP_PROBES processes that stop after it,
        # half before the measured process and half after, so that they
        # sample the machine across the run; setup_s is the median of all.
        # A first, unmeasured one fills out/pycache.
        def probe():
            return run_child(args, trace=0, rounds=0, deadline=deadline, setup_only=True)
        probe()
        before = [probe()["setup_s"] for _ in range(SETUP_PROBES // 2)]
        res = run_child(args, trace=0, rounds=0, deadline=deadline)
        after = [probe()["setup_s"] for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        res["setup_runs_s"] = before + [res["setup_s"]] + after
        res["setup_s"] = statistics.median(res["setup_runs_s"])
        runs = [res]
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        values, absent = {n: res[n] for n in units}, []
    else:
        plain = run_child(args, trace=0, rounds=TRACE_ROUNDS, deadline=deadline)
        traced = run_child(args, trace=1, rounds=TRACE_ROUNDS, deadline=deadline)
        runs = [plain, traced]
        names = [m["name"] for m in bench["per_layer"]]
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        values, absent = trace_values(plain, traced, names)
        same = plain["digest"] == traced["digest"]
        traced["checks"].append({
            "name": "traced_equals_untraced",
            "ok": same,
            "detail": f"output digest untraced {plain['digest'][:32]} traced {traced['digest'][:32]}",
        })
        traced["correct"] = traced["correct"] and same

    def ms(xs):  # at most ten timings, to the millisecond
        return [round(x, 3) for x in xs[:10]] + (["..."] if len(xs) > 10 else [])

    res = runs[-1]
    print("env " + json.dumps(res["env"], sort_keys=True))
    for r in runs:
        mode = "traced" if "trace" in r else "untraced"
        print(
            f"run {mode}: rounds={r['rounds']} round_s={ms(r['round_s'])} "
            f"round_cpu_s={ms(r['round_cpu_s'])} "
            f"tokens_per_s={r['tokens_per_s']:.1f} startup_s={r['startup_s']:.3f} "
            f"setup_work_s={r['setup_work_s']:.3f} "
            f"setup_runs_s={ms(r.get('setup_runs_s', [r['setup_s']]))}"
        )
        for c in r["checks"]:
            print(f"check {'PASS' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    if absent:
        print("absent (wrapped target no longer exists): " + ", ".join(absent))
    correct = all(r["correct"] for r in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
