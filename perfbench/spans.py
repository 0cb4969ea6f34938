"""In-memory span tracer that wraps packbert's public functions from outside.

Each wrapped call records one span (name, start, end, parent).  A wrapper
replaces every binding of the original function object across the loaded
``packbert`` modules, so it sits on the name each caller looks up
(``trainer.opt_step`` as well as ``optim.step``).  Self time is a span's
duration minus the durations of its direct children.  Spans stay in memory
until ``dump`` writes them at the end of a run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# (module, function) pairs to wrap.  Counts beyond calls are named in
# _COUNTERS; attention kernels are split by mask kind.
TARGETS = (
    ("tokenizer", "encode_with_offsets"),
    ("tokenizer", "load_vocab"),
    ("data_pipeline", "read_documents"),
    ("data_pipeline", "write_sequences"),
    ("data_pipeline", "read_sequences"),
    ("config", "read_job_config"),
    ("niah", "build_dataset"),
    ("niah", "write_examples"),
    ("niah", "read_examples"),
    ("niah", "predict_example"),
    ("niah", "doc_tokens"),
    ("niah", "evaluate"),
    ("packing", "pack"),
    ("objectives", "mlm_mask"),
    ("objectives", "mlm_loss"),
    ("model", "init_params"),
    ("model", "forward"),
    ("model", "backward"),
    ("model", "act_forward"),
    ("model", "act_grad"),
    ("model", "mlm_logits"),
    ("model", "mlm_logits_vjp"),
    ("model", "span_logits"),
    ("model", "predict_span"),
    ("rope", "apply_rope"),
    ("kernels", "attn_forward"),
    ("kernels", "attn_backward"),
    ("optim", "step"),
    ("util", "dataset_digest"),
    ("trainer", "train_masked"),
    ("trainer", "save_checkpoint"),
    ("trainer", "load_checkpoint"),
    ("tensor_store", "write_tensors"),
    ("tensor_store", "read_tensors"),
)

_KIND_NAMES = {0: "global", 1: "window", 2: "causal"}


def allowed_pairs(boundaries, kind: int, window: int) -> int:
    """Query-key pairs a mask allows, per head, summed over packed members."""
    total = 0
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        n = int(hi) - int(lo)
        if kind == 0:
            total += n * n
        elif kind == 1:
            # |i - j| <= half: the diagonal plus two bands at each offset d.
            m = min(int(window) // 2, n - 1)
            total += n + 2 * (m * n - m * (m + 1) // 2)
        else:
            total += n * (n + 1) // 2
    return total


def _tensor_bytes(tensors) -> int:
    return int(sum(getattr(a, "nbytes", 0) for a in tensors.values()))


def _kernel_counts(bound, result):
    a = bound.arguments
    q, boundaries = a.get("q"), a.get("boundaries")
    kind, window = a.get("kind"), a.get("window", 0)
    if q is None or boundaries is None or kind is None:
        return "", {}
    label = _KIND_NAMES.get(int(kind), f"kind{int(kind)}")
    heads = int(q.shape[0]) if q.ndim == 3 else 1
    return label, {"pairs": heads * allowed_pairs(boundaries, int(kind), window)}


# Per-target extra counters: f(bound arguments, result) -> (suffix, counts).
_COUNTERS = {
    "tokenizer.encode_with_offsets": lambda b, r: ("", {"tokens": len(r[0])}),
    "model.forward": lambda b, r: (
        "",
        {"tokens": int(b.arguments["batch"].total_tokens)}
        if "batch" in b.arguments
        else {},
    ),
    "tensor_store.write_tensors": lambda b, r: (
        "",
        {"bytes": _tensor_bytes(b.arguments["tensors"])}
        if "tensors" in b.arguments
        else {},
    ),
    "tensor_store.read_tensors": lambda b, r: ("", {"bytes": _tensor_bytes(r[0])}),
    "kernels.attn_forward": _kernel_counts,
    "kernels.attn_backward": _kernel_counts,
}


class Tracer:
    def __init__(self):
        # (name, start, end, parent index, stage, extra counts or None)
        self.spans: list[tuple] = []
        self.stage = ""
        self.absent: list[str] = []
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap every target that exists in the loaded packbert modules."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "packbert" and m]
        for mod_name, fn_name in TARGETS:
            name = f"{mod_name}.{fn_name}"
            home = sys.modules.get(f"packbert.{mod_name}")
            orig = getattr(home, fn_name, None) if home is not None else None
            if not callable(orig):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)

    def _wrap(self, name, fn):
        counter = _COUNTERS.get(name)
        try:
            sig = inspect.signature(fn) if counter else None
        except (TypeError, ValueError):
            sig = None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.stage, None)
            label, extra = name, None
            if sig is not None:
                suffix, extra = counter(sig.bind(*args, **kwargs), result)
                if suffix:
                    label = f"{name}.{suffix}"
            spans[idx] = (label, start, end, parent, self.stage, extra or None)
            return result

        return wrapper

    def summary(self, stages) -> dict[str, float]:
        """Per span name: self seconds (``.s``), ``.calls`` and extra counts.

        Only spans that ended in one of ``stages`` are counted.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (label, start, end, _, stage, extra) in enumerate(self.spans):
            if stage not in stages:
                continue
            out[f"{label}.s"] += (end - start) - child[i]
            out[f"{label}.calls"] += 1
            for key, value in (extra or {}).items():
                out[f"{label}.{key}"] += value
        return dict(out)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "stage", "counts"],
                    "spans": self.spans,
                    "absent": self.absent,
                },
                f,
            )
