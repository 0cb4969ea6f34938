"""Print the traced per-layer split of a workload's timed stage as a table.

    python3 perfbench/run.py --workload mlm_mid --seed 1 --seconds 20 --trace 1
    python3 perfbench/split.py mlm_mid

Reads the traced process's result that the first command leaves in
``perfbench/out/`` and lists each span name's self time as a share of the
timed stage's wall time, with the unattributed remainder last.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Spans below this share of the wall time are summed into one row.
MIN_SHARE = 0.002


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("workload")
    args = p.parse_args(argv)
    res = json.loads((HERE / "out" / f"{args.workload}-traced.json").read_text(encoding="utf-8"))
    tr = res["trace"]
    wall = tr["timed.wall_s"]
    split = sorted(tr["timed.split"].items(), key=lambda kv: -kv[1])
    print(f"{args.workload}, timed stage: {wall:.3f} s wall, seed {res['seed']}, "
          f"{res['rounds']} round(s)")
    print("| span (self time) | s | share |")
    print("| --- | ---: | ---: |")
    other = 0.0
    for name, s in split:
        if s / wall < MIN_SHARE:
            other += s
            continue
        print(f"| `{name[:-2]}` | {s:.3f} | {100 * s / wall:.1f}% |")
    if other:
        print(f"| other spans (each < {100 * MIN_SHARE:.1f}%) | {other:.3f} | "
              f"{100 * other / wall:.1f}% |")
    un = tr["timed.unattributed_s"]
    print(f"| unattributed | {un:.3f} | {100 * un / wall:.1f}% |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
