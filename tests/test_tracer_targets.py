"""The benchmark tracer's targets name functions that packbert still has."""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_name_resolves(monkeypatch):
    # A refactor that drops or renames a traced function fails here, not as
    # an ``absent`` entry in a benchmark run.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{mod}.{fn}" for mod, fn in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"packbert.{mod}"), fn, None))
    ]
    assert spans.TARGETS and not missing, missing
