"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/repeat.py --workload niah_8k --seeds 1-10

Each run lasts BENCHMARK.json's ``run_seconds``.  For every metric of the final JSON line it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median.  Runs compared
this way must agree on the attention kernel in their ``env`` line; the
summary warns when they do not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    args = p.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

    rows, kernels = [], set()
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
        if out.returncode != 0:
            print(out.stdout + out.stderr, file=sys.stderr)
            return 1
        lines = out.stdout.strip().splitlines()
        line = json.loads(lines[-1])
        env = json.loads(next(x for x in lines if x.startswith("env "))[4:])
        kernels.add(env["attention_kernel"])
        rows.append(line)
        vals = " ".join(f"{k}={v['value']:.6g}" for k, v in line["metrics"].items())
        print(f"seed {seed}: correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']} {vals}", flush=True)
    print(f"{args.workload}: {len(rows)} runs, all correct={all(r['correct'] for r in rows)}")
    if len(kernels) > 1:
        print(f"warning: runs used different attention kernels {sorted(kernels)}; "
              "their figures are not comparable")
    for name in rows[0]["metrics"]:
        s = summarise([r["metrics"][name]["value"] for r in rows])
        print(f"  {name:40s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
              f"q3 {s['q3']:<12.6g} spread {100 * s['spread']:.2f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
