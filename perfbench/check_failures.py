"""Show that every output check can fail: one run per deliberately broken input.

    python3 perfbench/check_failures.py

Each broken input must make its run report ``correct: false`` with the named
check failing; the script exits 1 if any run passes instead.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED = 1

# (workload, --break value, check that must fail, what is broken)
CASES = (
    ("mlm_short", "data", "heldout_loss_near_entropy",
     "training corpus drawn uniformly instead of from the Zipf law"),
    ("mlm_short", "count", "trained_tokens",
     "one member left out of the text given to `packbert tokenize`"),
    ("mlm_mid", "init", "init_loss_is_ln_vocab",
     "initial embeddings scaled by 30 before the held-out loss"),
    ("mlm_mid", "train", "final_loss_below_init",
     "peak learning rate 0, so training cannot lower the loss"),
    ("mlm_mid", "padded", "packed_equals_padded",
     "padded rows in reverse member order"),
    ("niah_8k", "plant", "exact_match_all_buckets",
     "planted checkpoint without the answer direction"),
    ("niah_8k", "counts", "bucket_counts",
     "one haystack left out of the file given to `packbert niah-eval`"),
)


def main() -> int:
    caught = 0
    for workload, broken, must_fail, what in CASES:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(SEED), "--seconds", "1", "--trace", "0", "--break", broken],
            capture_output=True, text=True, cwd=HERE.parent,
        )
        lines = out.stdout.strip().splitlines()
        correct = json.loads(lines[-1])["correct"] if out.returncode == 0 and lines else None
        failed = [ln for ln in lines if ln.startswith(f"check FAIL {must_fail}:")]
        ok = correct is False and bool(failed)
        caught += ok
        print(f"{workload:9s} --break {broken:7s} ({what}): "
              f"{'caught' if ok else 'NOT CAUGHT'}; correct={correct}")
        for ln in failed:
            print(f"    {ln}")
    print(f"{caught} of {len(CASES)} broken inputs caught")
    return 0 if caught == len(CASES) else 1


if __name__ == "__main__":
    sys.exit(main())
