"""What the benchmark uses of packbert still exists and works: the tracer's
targets and mask-kind names, and the checkpoint that the haystack workload
builds by hand."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

from packbert import config, model, optim, packing, trainer
from packbert.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKLOAD = PERFBENCH / "workload.py"


def _load_spans(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_resolves(monkeypatch):
    # A refactor that drops or renames a traced function fails here, not as
    # an ``absent`` entry in a benchmark run.
    spans = _load_spans(monkeypatch)
    missing = [
        f"{mod}.{fn}" for mod, fn in spans.TARGETS
        if not callable(getattr(importlib.import_module(f"packbert.{mod}"), fn, None))
    ]
    assert spans.TARGETS and not missing, missing


def test_kernel_mask_kinds_keep_their_metric_names(monkeypatch):
    # The benchmark names its kernels.attn_*.{global,window} metrics by the
    # kernels' integer mask kind, the one mask vocabulary packbert has.
    names = _load_spans(monkeypatch)._KIND_NAMES
    assert names[packing.KIND_GLOBAL] == "global"
    assert names[packing.KIND_WINDOW] == "window"
    assert names[packing.KIND_CAUSAL] == "causal"


def test_hand_built_checkpoint_saves_and_inspects(tmp_path, capsys):
    # niah_8k's set-up builds a Checkpoint from keywords alone, saves it and
    # runs `extend` on it.  Build one with exactly those keywords, so a change
    # to a field's type or default fails here, not in a benchmark run.
    calls = [node for node in ast.walk(ast.parse(WORKLOAD.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "Checkpoint"]
    assert len(calls) == 1
    keywords = {kw.arg for kw in calls[0].keywords}
    cfg = config.preset("tiny_test")
    params = model.init_params(cfg, seed=0)
    phase = config.TrainPhaseConfig()
    values = dict(
        params=params, opt=optim.OptState.init(params, phase), cfg=cfg, phase=phase,
        phase_id="planted", step=0, tokens_seen=0, epoch=0, pos_in_epoch=0, consumed=0,
        dataset_digest="", n_provenance=0,
    )
    assert keywords <= values.keys(), keywords - values.keys()
    path = tmp_path / "base.pbt"
    trainer.save_checkpoint(trainer.Checkpoint(**{k: values[k] for k in keywords}), path)
    assert trainer.load_checkpoint(path).provenance == []
    extended = tmp_path / "model.pbt"
    assert main(["extend", "--ckpt", str(path), "--theta", "160000", "--max-len", "8192",
                 "--out", str(extended)]) == 0
    for ckpt in (path, extended):
        assert main(["inspect", "--ckpt", str(ckpt)]) == 0
        assert "provenance: 0 records verify=ok\n" in capsys.readouterr().out
