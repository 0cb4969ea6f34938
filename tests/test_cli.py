"""Command-line surface: exit codes, help, and end-to-end happy paths."""

import dataclasses
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import packbert
from packbert import model, objectives, trainer
from packbert.adapters import load_adapters, runtime_extras
from packbert.cli import build_parser, main
from packbert.data_pipeline import read_sequences, write_sequences
from packbert.packing import pack
from packbert.tokenizer import save_vocab, toy_vocab
from packbert.trainer import load_checkpoint, save_checkpoint

from conftest import traced_peak

SUBCOMMANDS = (
    "tokenize", "dedup", "filter", "split-long", "pretrain", "extend",
    "mntp", "merge-adapters", "embed-train", "niah-gen", "niah-eval",
    "qa-finetune", "bench", "inspect",
)

WORDS = [
    "the", "secret", "code", "is", "omega", "today", "rain", "fell",
    "over", "green", "hills", "a", "cat", "sat", "on", "mat",
    "birds", "sing", "at", "dawn", "rivers", "run", "to", "sea",
]

DOCS = [
    "the secret code is omega today",
    "rain fell over green hills today",
    "a cat sat on the mat at dawn",
    "birds sing at dawn over the hills",
    "rivers run to the sea at dawn",
    "the cat sat on the green mat",
    "rain fell over the secret hills",
    "birds sing to the sea today",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Vocab file, corpus file, and a tokenized dataset built via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    vocab_path = root / "vocab.txt"
    save_vocab(
        toy_vocab(WORDS, extra_pieces=("w", "##o", "##r", "##d", "##s")),
        vocab_path,
    )
    corpus = root / "corpus.txt"
    # One blank line separates paragraphs; two separate documents.
    corpus.write_text("\n\n\n".join(DOCS) + "\n", encoding="utf-8")
    data = root / "data.pbseq"
    rc = main(
        ["tokenize", "--vocab", str(vocab_path), "--input", str(corpus),
         "--out", str(data)]
    )
    assert rc == 0
    return {"root": root, "vocab": vocab_path, "corpus": corpus, "data": data}


def _write_job(path, preset="tiny_test", **overrides):
    base = {
        "train.token_budget": 512,
        "train.batch_tokens_or_sequences": 4,
        "train.microbatch": 2,
        "train.peak_lr": 1e-3,
        "train.schedule": "constant",
        "train.weight_decay": 0.0,
        "train.seed": 3,
    }
    base.update(overrides)
    lines = [f"preset = {preset}"] + [f"{k} = {v}" for k, v in base.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def trained(workspace):
    """One short masked-token run shared by the checkpoint-consuming tests."""
    out = workspace["root"] / "pretrain"
    job = _write_job(workspace["root"] / "job.cfg")
    rc = main(
        ["pretrain", "--config", str(job), "--vocab", str(workspace["vocab"]),
         "--data", str(workspace["data"]), "--out", str(out),
         "--ckpt-interval", "256"]
    )
    assert rc == 0
    ckpt = out / "ckpt_final.pbt"
    assert ckpt.exists()
    assert (out / "metrics.txt").exists()
    return {"out": out, "ckpt": ckpt, **workspace}


def test_top_level_help():
    assert main(["--help"]) == 0


@pytest.mark.parametrize("name", SUBCOMMANDS)
def test_subcommand_help(name):
    assert main([name, "--help"]) == 0


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1


def test_missing_required_arguments():
    assert main(["tokenize"]) == 1


def test_kernel_choice_option_is_rejected_before_output(workspace, capsys):
    # There is one attention kernel, so no option chooses one.
    out = workspace["root"] / "never-created"
    rc = main(
        ["pretrain", "--config", str(_write_job(workspace["root"] / "opt.cfg")),
         "--vocab", str(workspace["vocab"]), "--data", str(workspace["data"]),
         "--out", str(out), "--backend", "reference"]
    )
    assert rc == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--mask-policy", "bogus"), ("--dropout", "1.5")])
def test_bad_masking_option_is_rejected_before_output(workspace, capsys, flag, value):
    out = workspace["root"] / "never-created"
    rc = main(
        ["pretrain", "--config", str(_write_job(workspace["root"] / "opt.cfg")),
         "--vocab", str(workspace["vocab"]), "--data", str(workspace["data"]),
         "--out", str(out), flag, value]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_spread_reading_option_is_rejected_before_output(capsys):
    # The spread of a normal:MEAN:SPREAD spec is always a standard deviation.
    rc = main(["bench", "--spec", "normal:16:4", "--n-docs", "2", "--reps", "1",
               "--spread-as-variance"])
    assert rc == 1
    out = capsys.readouterr()
    assert "unrecognized arguments" in out.err
    assert out.out == ""


def test_config_error_maps_to_one():
    assert main(["bench", "--spec", "nope:12", "--reps", "1"]) == 1


def test_data_error_maps_to_two(workspace):
    rc = main(
        ["tokenize", "--vocab", str(workspace["vocab"]),
         "--input", str(workspace["root"] / "absent.txt"),
         "--out", str(workspace["root"] / "x.pbseq")]
    )
    assert rc == 2


def _run_cli(*args):
    """``python -m packbert.cli ARGS`` in a fresh process; (exit code, stderr)."""
    src = str(Path(packbert.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-m", "packbert.cli", *map(str, args)],
                         capture_output=True, text=True, timeout=120, env=env)
    return out.returncode, out.stderr


@pytest.mark.parametrize("command, missing, code", [
    ("tokenize", "--vocab", 2),
    ("pretrain", "--config", 1),
    ("niah-gen", "--vocab", 2),
    ("embed-train", "--data", 2),
])
def test_missing_input_file_gives_a_message(trained, tmp_path, command, missing, code):
    present = {
        "tokenize": {"--input": trained["corpus"], "--out": tmp_path / "x.pbseq"},
        "pretrain": {"--vocab": trained["vocab"], "--data": trained["data"],
                     "--out": tmp_path / "run"},
        "niah-gen": {"--pairs": _write_pairs(tmp_path / "pairs.jsonl"), "--split": "test",
                     "--out": tmp_path / "niah.jsonl"},
        "embed-train": {"--ckpt": trained["ckpt"], "--vocab": trained["vocab"],
                        "--config": _write_job(tmp_path / "job.cfg"),
                        "--out": tmp_path / "embed"},
    }[command]
    args = {**present, missing: tmp_path / "nope.txt"}
    rc, err = _run_cli(command, *(x for pair in args.items() for x in pair))
    assert rc == code, err
    assert "Traceback" not in err
    assert "nope.txt" in err


def test_training_error_maps_to_three(workspace):
    job = _write_job(
        workspace["root"] / "job_big_batch.cfg",
        **{"train.batch_tokens_or_sequences": 64, "train.microbatch": 64},
    )
    rc = main(
        ["pretrain", "--config", str(job), "--vocab", str(workspace["vocab"]),
         "--data", str(workspace["data"]),
         "--out", str(workspace["root"] / "nope")]
    )
    assert rc == 3


def test_tokenize_output_is_readable(workspace, capsys):
    seqs = read_sequences(workspace["data"])
    assert len(seqs) == len(DOCS)
    assert all(len(s) > 0 for s in seqs)


def test_dedup_drops_repeats(workspace, capsys):
    src = workspace["root"] / "dup.txt"
    src.write_text(
        "one common line\n\ntotally new text\n\none common line\n",
        encoding="utf-8",
    )
    out = workspace["root"] / "dedup.txt"
    rc = main(["dedup", "--input", str(src), "--out", str(out)])
    assert rc == 0
    assert "dropped=1" in capsys.readouterr().out
    assert out.read_text(encoding="utf-8").count("one common line") == 1


def test_filter_drops_fragmenting_documents(workspace, capsys):
    src = workspace["root"] / "mixed.txt"
    # "words words words" fragments into 5 pieces per word; the other
    # document is whole words and survives any ratio above 1.
    src.write_text(
        "the cat sat on the mat\n\n\nwords words words\n", encoding="utf-8"
    )
    out = workspace["root"] / "filtered.txt"
    rc = main(
        ["filter", "--vocab", str(workspace["vocab"]), "--input", str(src),
         "--out", str(out), "--threshold", "2.5"]
    )
    assert rc == 0
    assert "kept=1 dropped=1" in capsys.readouterr().out
    assert "words" not in out.read_text(encoding="utf-8")


@pytest.mark.parametrize("command", ["dedup", "filter"])
def test_corpus_output_directory_is_created(workspace, tmp_path, command):
    out = tmp_path / "new" / "dir" / "corpus.txt"
    extra = ["--vocab", str(workspace["vocab"])] if command == "filter" else []
    rc = main([command, *extra, "--input", str(workspace["corpus"]), "--out", str(out)])
    assert rc == 0
    assert out.read_text(encoding="utf-8").startswith(DOCS[0])


def test_split_long_bounds_sequences(workspace, capsys):
    out = workspace["root"] / "split.pbseq"
    rc = main(
        ["split-long", "--vocab", str(workspace["vocab"]),
         "--input", str(workspace["corpus"]), "--out", str(out),
         "--target", "4"]
    )
    assert rc == 0
    assert all(len(s) <= 4 for s in read_sequences(out))
    assert "median_length=" in capsys.readouterr().out


def test_pretrain_reports_progress(trained, capsys):
    metrics = (trained["out"] / "metrics.txt").read_text(encoding="utf-8")
    assert "loss=" in metrics
    ckpt = load_checkpoint(trained["ckpt"])
    assert ckpt.tokens_seen >= 512


def test_pretrain_trains_its_one_copy_of_the_weights(workspace, monkeypatch):
    # A weights-heavy shape: 4 layers of hidden 256 (2.6M parameters, 10.5 MB
    # a copy) over one step of 4 short members, whose cache and head are tiny.
    job = _write_job(workspace["root"] / "heavy.cfg", **{
        "arch.n_layers": 4, "arch.hidden": 256, "arch.n_heads": 4,
        "arch.intermediate": 512, "train.token_budget": 1, "train.microbatch": 4,
    })
    seen = {}
    real = trainer.train_masked

    def recording(params, *args, **kwargs):
        seen["given"] = params
        seen["result"] = real(params, *args, **kwargs)
        return seen["result"]

    monkeypatch.setattr(trainer, "train_masked", recording)

    def pretrain(out):
        return main(["pretrain", "--config", str(job), "--vocab", str(workspace["vocab"]),
                     "--data", str(workspace["data"]), "--out", str(workspace["root"] / out)])

    assert pretrain("heavy-warm") == 0  # caches fill outside the measurement
    rc, _, peak = traced_peak(lambda: pretrain("heavy"))
    assert rc == 0
    ckpt = seen["result"].checkpoint
    assert ckpt.step == 1
    assert all(np.shares_memory(ckpt.params[k], seen["given"][k]) for k in ckpt.params)
    # The weights, two moments and the gradients; the step's forward cache and
    # its one head chunk; and half a copy of slack for the per-tensor
    # temporaries of the init and the optimizer.  A fifth copy would not fit.
    cfg = ckpt.cfg
    weights = sum(t.nbytes for t in ckpt.params.values())
    tokens = sum(len(ids) for ids in read_sequences(workspace["data"]))
    cache = tokens * model.cache_bytes_per_token(cfg, 4, False)
    head = min(tokens, objectives.head_chunk_rows(cfg.vocab_size)) * cfg.vocab_size * 16
    bound = 4.5 * weights + cache + head
    assert bound < 5 * weights
    assert peak < bound, (peak / 2**20, bound / 2**20)


def test_negative_checkpoint_interval_is_rejected_before_any_step(workspace, tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["pretrain", "--config", str(_write_job(tmp_path / "job.cfg")),
               "--vocab", str(workspace["vocab"]), "--data", str(workspace["data"]),
               "--out", str(out), "--ckpt-interval", "-1"])
    assert rc == 1
    assert "checkpoint interval" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("arch.rope_theta_global", "inf"), ("arch.rope_theta_global", "nan"),
    ("arch.norm_eps", "nan"), ("train.eps", "inf"), ("train.peak_lr", "nan"),
    ("train.peak_lr", "inf"), ("train.weight_decay", "nan"),
])
def test_pretrain_refuses_a_non_finite_config_value(workspace, tmp_path, capsys, key, value):
    out = tmp_path / "run"
    rc = main(["pretrain", "--config", str(_write_job(tmp_path / "job.cfg", **{key: value})),
               "--vocab", str(workspace["vocab"]), "--data", str(workspace["data"]),
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert f"{key.partition('.')[2]} must be finite, got {value}" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("bad_id", (300, -1), ids=("over_vocab", "negative"))
def test_pretrain_rejects_a_bad_token_id_before_any_step(workspace, tmp_path, capsys, bad_id):
    # tiny_test's vocabulary holds ids 0-255; the bad id sits in one of 64
    # sequences, so no step may run before it is found.
    rng = np.random.default_rng(0)
    seqs = [rng.integers(5, 256, size=12, dtype=np.int32) for _ in range(64)]
    seqs[37][5] = bad_id
    data = tmp_path / "bad.pbseq"
    write_sequences(data, seqs)
    out = tmp_path / "run"
    rc = main(["pretrain", "--config", str(_write_job(tmp_path / "job.cfg")),
               "--vocab", str(workspace["vocab"]), "--data", str(data),
               "--out", str(out), "--ckpt-interval", "80"])
    err = capsys.readouterr().err
    assert rc == 2, err
    assert f"sequence 37 holds token id {bad_id}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_inspect_prints_metadata(trained, capsys):
    rc = main(["inspect", "--ckpt", str(trained["ckpt"])])
    out = capsys.readouterr().out
    assert rc == 0
    assert "phase_id=" in out
    assert "dataset_digest=" in out
    ckpt = load_checkpoint(trained["ckpt"])
    assert f"train.weight_decay = {ckpt.phase.weight_decay!r}\n" in out
    n = ckpt.n_provenance
    assert f"provenance: {n} records steps 1..{n} verify=ok" in out


def test_inspect_sizes_a_microbatch(trained, capsys):
    # tiny_test in float32: per layer 2*64 + 4*64 + 3*128 + 2 = 770 values,
    # two layers and a final norm of 65: 1,605 values, 6,420 bytes per token;
    # 128 MiB of forward cache holds 20,906 tokens.  Dropout keeps 64 more
    # values per layer.
    assert main(["inspect", "--ckpt", str(trained["ckpt"])]) == 0
    out = capsys.readouterr().out
    assert "cache_bytes_per_token=6420 microbatch_token_cap=20906 " in out
    assert "(dropout off; dropout adds 512)" in out


def test_inspect_reports_tampered_provenance(trained, capsys):
    ckpt = load_checkpoint(trained["ckpt"])
    first = ckpt.provenance[0]
    ckpt.provenance[0] = dataclasses.replace(
        first, sequence_ids=tuple(reversed(first.sequence_ids)))
    path = trained["root"] / "tampered.pbt"
    save_checkpoint(ckpt, path)
    rc = main(["inspect", "--ckpt", str(path)])
    assert rc == 3
    assert "verify=FAILED" in capsys.readouterr().out


def test_extend_rewrites_geometry_only(trained, capsys):
    out = trained["root"] / "extended.pbt"
    rc = main(["extend", "--ckpt", str(trained["ckpt"]), "--theta", "160000",
               "--max-len", "8192", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    before, after = None, None
    for tok in stdout.split():
        if tok.startswith("before="):
            before = tok.removeprefix("before=")
        if tok.startswith("after="):
            after = tok.removeprefix("after=")
    assert before == after  # weights untouched
    loaded = load_checkpoint(out)
    assert loaded.cfg.max_seq_len == 8192
    assert loaded.cfg.rope_theta_global == 160000


@pytest.mark.parametrize("theta", ("inf", "nan"))
def test_extend_refuses_a_non_finite_theta(trained, tmp_path, capsys, theta):
    out = tmp_path / "extended.pbt"
    rc = main(["extend", "--ckpt", str(trained["ckpt"]), "--theta", theta, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert f"rope_theta_global must be finite, got {theta}" in err
    assert not out.exists()


@pytest.mark.parametrize("command, arch, field", [
    ("mntp", {"preset": "moderngbert_1b", "arch.n_layers": 99}, "vocab_size"),
    ("mntp", {"arch.attention_mode": "causal"}, "attention_mode"),
    ("embed-train", {"preset": "moderngbert_1b", "arch.n_layers": 99}, "vocab_size"),
    ("embed-train", {"arch.n_layers": 3}, "n_layers"),
    ("qa-finetune", {"arch.local_window": 16}, "local_window"),
], ids=("mntp_preset", "mntp_causal", "embed_preset", "embed_layers", "qa_window"))
def test_later_phase_refuses_a_config_naming_another_architecture(trained, tmp_path, capsys,
                                                                  command, arch, field):
    # mntp trains the checkpoint's bidirectional form, the others the checkpoint's own.
    job = _write_job(tmp_path / "job.cfg", **arch, **{
        "train.token_budget": 128, "train.batch_tokens_or_sequences": 2, "train.microbatch": 2})
    out = tmp_path / "out"
    common = ["--ckpt", trained["ckpt"], "--vocab", trained["vocab"], "--out", out,
              "--config", job]
    if command == "mntp":
        args = ["--data", trained["data"], "--rank", "2"]
    elif command == "embed-train":
        data = tmp_path / "triplets.jsonl"
        data.write_text(2 * (json.dumps(_TRIPLET) + "\n"), encoding="utf-8")
        args = ["--data", data]
    else:
        data = tmp_path / "niah.jsonl"
        assert main(["niah-gen", "--pairs", str(_write_pairs(tmp_path / "pairs.jsonl")),
                     "--vocab", str(trained["vocab"]), "--split", "train",
                     "--out", str(data)]) == 0
        args = ["--examples", data]
    capsys.readouterr()
    rc = main([command, *map(str, common + args)])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert err.startswith(f"error: {job} names {field} = ")
    assert "Traceback" not in err
    assert not out.exists()


def test_mntp_and_merge(trained, capsys):
    job = _write_job(
        trained["root"] / "mntp.cfg", **{"train.token_budget": 256}
    )
    adapters = trained["root"] / "mntp.pbt"
    rc = main(
        ["mntp", "--ckpt", str(trained["ckpt"]), "--vocab", str(trained["vocab"]),
         "--data", str(trained["data"]), "--out", str(adapters),
         "--config", str(job), "--rank", "2", "--phase-tag", "ext1"]
    )
    assert rc == 0
    assert "final step=" in capsys.readouterr().out

    merged = trained["root"] / "merged.pbt"
    rc = main(["merge-adapters", "--ckpt", str(trained["ckpt"]),
               "--adapters", str(adapters), "--out", str(merged)])
    assert rc == 0
    assert "absorbed phases" in capsys.readouterr().out
    assert load_checkpoint(merged).extra.get("absorbed_phases") == ["ext1"]


def test_mntp_and_merge_convert_a_causal_checkpoint(trained, tmp_path, capsys):
    # The walkthrough's chain as written: mntp on a causal checkpoint needs no
    # flag, and the merged checkpoint keeps the bidirectional attention that
    # the adapters were trained under.
    base = load_checkpoint(trained["ckpt"])
    causal = tmp_path / "causal.pbt"
    save_checkpoint(dataclasses.replace(
        base, cfg=dataclasses.replace(base.cfg, attention_mode="causal")), causal)
    job = _write_job(tmp_path / "mntp.cfg", **{"train.token_budget": 256})
    adapters, merged = tmp_path / "mntp.pbt", tmp_path / "merged.pbt"
    assert main(["mntp", "--ckpt", str(causal), "--vocab", str(trained["vocab"]),
                 "--data", str(trained["data"]), "--out", str(adapters),
                 "--config", str(job), "--rank", "2"]) == 0
    assert main(["merge-adapters", "--ckpt", str(causal), "--adapters", str(adapters),
                 "--out", str(merged)]) == 0
    capsys.readouterr()
    out = load_checkpoint(merged)
    assert out.cfg == base.cfg  # the bidirectional config the adapters were trained under
    batch = pack(read_sequences(trained["data"])[:3])
    want = model.forward(base.params, out.cfg, batch,
                         extra_linear=runtime_extras(load_adapters(adapters))).hidden
    assert np.array_equal(model.forward(out.params, out.cfg, batch).hidden, want)


@pytest.mark.parametrize("alpha", ("inf", "nan", "0"))
def test_mntp_refuses_an_alpha_that_is_not_finite_and_positive(trained, tmp_path, capsys,
                                                               alpha):
    job = _write_job(tmp_path / "mntp.cfg", **{"train.token_budget": 256})
    out = tmp_path / "mntp.pbt"
    rc = main(["mntp", "--ckpt", str(trained["ckpt"]), "--vocab", str(trained["vocab"]),
               "--data", str(trained["data"]), "--out", str(out), "--config", str(job),
               "--rank", "2", "--alpha", alpha])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert f"alpha must be finite and positive, got {float(alpha)}" in err
    assert not out.exists()


def test_embed_train(trained, capsys):
    triplets = trained["root"] / "triplets.jsonl"
    recs = [
        {"query": "rain fell", "positive": "rain fell over green hills",
         "negatives": ["birds sing at dawn"]},
        {"query": "a cat sat", "positive": "a cat sat on the mat",
         "negatives": ["rivers run to the sea"]},
    ]
    triplets.write_text(
        "".join(json.dumps(r) + "\n" for r in recs), encoding="utf-8"
    )
    job = _write_job(
        trained["root"] / "embed.cfg",
        **{"train.token_budget": 128, "train.batch_tokens_or_sequences": 2,
           "train.microbatch": 2},
    )
    out = trained["root"] / "embed"
    rc = main(
        ["embed-train", "--ckpt", str(trained["ckpt"]),
         "--vocab", str(trained["vocab"]), "--data", str(triplets),
         "--out", str(out), "--config", str(job)]
    )
    assert rc == 0
    assert "final step=" in capsys.readouterr().out
    assert (out / "ckpt_final.pbt").exists()


@pytest.mark.parametrize("flag, overrides", [
    (["--temperature", "0"], {}),
    ([], {"train.batch_tokens_or_sequences": 1, "train.microbatch": 1}),
    (["--temperature", "inf"], {}),
], ids=("temperature", "batch", "temperature_inf"))
def test_embed_train_refuses_bad_settings_as_config_errors(trained, tmp_path, capsys,
                                                           flag, overrides):
    triplets = tmp_path / "triplets.jsonl"
    triplets.write_text(json.dumps({"query": "a cat sat", "positive": "a cat sat on the mat"})
                        + "\n", encoding="utf-8")
    job = _write_job(tmp_path / "embed.cfg", **{"train.token_budget": 128, **overrides})
    out = tmp_path / "embed"
    rc = main(["embed-train", "--ckpt", str(trained["ckpt"]), "--vocab", str(trained["vocab"]),
               "--data", str(triplets), "--out", str(out), "--config", str(job), *flag])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


_TRIPLET = {"query": "a cat sat", "positive": "a cat sat on the mat"}
_EXAMPLE = {"question": "the code is", "paragraphs": ["rain fell", "the secret code is omega"],
            "needle_index": 1, "gold_start": 6, "gold_end": 6, "answer": "omega",
            "total_tokens": 7}
_PAIR = {"question": "the code is", "context": "the secret code is omega today",
         "answer": "omega", "answer_start": 19}


@pytest.mark.parametrize("command, record", [
    ("embed-train", {**_TRIPLET, "query": 5}),
    ("embed-train", {**_TRIPLET, "negatives": "abcd"}),
    ("niah-eval", {**_EXAMPLE, "paragraphs": "a b c"}),
    ("niah-eval", {**_EXAMPLE, "gold_start": 1.9}),
    ("niah-gen", {**_PAIR, "question": 5}),
], ids=("int_query", "string_negatives", "string_paragraphs", "float_gold_start",
        "int_question"))
def test_mistyped_jsonl_field_is_a_data_error(trained, tmp_path, capsys, command, record):
    good = {"embed-train": _TRIPLET, "niah-eval": _EXAMPLE, "niah-gen": _PAIR}[command]
    data = tmp_path / "records.jsonl"
    data.write_text(json.dumps(good) + "\n" + json.dumps(record) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    args = {
        "embed-train": ["--ckpt", trained["ckpt"], "--data", data, "--out", out,
                        "--config", _write_job(tmp_path / "job.cfg")],
        "niah-eval": ["--ckpt", trained["ckpt"], "--examples", data],
        "niah-gen": ["--pairs", data, "--split", "test", "--out", out],
    }[command]
    rc = main([command, "--vocab", str(trained["vocab"]), *map(str, args)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "data error" in err
    assert f"{data}:2: malformed" in err
    assert not out.exists()


def _write_pairs(path):
    recs = [
        {"question": "the code is", "context": "the secret code is omega today",
         "answer": "omega", "answer_start": 19},
        {"question": "what fell", "context": "rain fell over green hills",
         "answer": "rain", "answer_start": 0},
        {"question": "who sat", "context": "a cat sat on the mat",
         "answer": "cat", "answer_start": 2},
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in recs), encoding="utf-8")
    return path


def test_niah_gen_is_byte_identical(workspace, capsys):
    pairs = _write_pairs(workspace["root"] / "pairs.jsonl")
    a = workspace["root"] / "niah_a.jsonl"
    b = workspace["root"] / "niah_b.jsonl"
    for out in (a, b):
        rc = main(
            ["niah-gen", "--pairs", str(pairs), "--vocab", str(workspace["vocab"]),
             "--split", "train", "--seed", "11", "--out", str(out)]
        )
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    assert "built 3 examples" in capsys.readouterr().out


def test_niah_eval_runs(trained, capsys):
    pairs = _write_pairs(trained["root"] / "pairs_eval.jsonl")
    examples = trained["root"] / "niah_eval.jsonl"
    assert main(
        ["niah-gen", "--pairs", str(pairs), "--vocab", str(trained["vocab"]),
         "--split", "train", "--seed", "1", "--out", str(examples)]
    ) == 0
    rc = main(
        ["niah-eval", "--ckpt", str(trained["ckpt"]),
         "--vocab", str(trained["vocab"]), "--examples", str(examples)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "examples=3 exact_match=" in out
    assert "bucket=<1024" in out


@pytest.mark.parametrize("value", ("0", "-3"))
def test_niah_eval_rejects_a_short_answer_limit_as_usage(trained, tmp_path, monkeypatch,
                                                          capsys, value):
    pairs = _write_pairs(tmp_path / "pairs.jsonl")
    examples = tmp_path / "niah.jsonl"
    assert main(["niah-gen", "--pairs", str(pairs), "--vocab", str(trained["vocab"]),
                 "--split", "train", "--seed", "1", "--out", str(examples)]) == 0
    capsys.readouterr()
    loaded, load = [], trainer.load_checkpoint
    monkeypatch.setattr(trainer, "load_checkpoint", lambda path: loaded.append(path) or load(path))
    rc = main(["niah-eval", "--ckpt", str(trained["ckpt"]), "--vocab", str(trained["vocab"]),
               "--examples", str(examples), "--max-answer-len", value])
    out = capsys.readouterr()
    assert rc == 1
    assert "--max-answer-len" in out.err and out.out == ""
    assert loaded == []  # refused before the checkpoint is read


def test_niah_eval_reads_characters_only_where_the_span_lands(trained, monkeypatch, capsys):
    from packbert import niah
    from packbert.tokenizer import count_tokens, load_vocab

    pairs = _write_pairs(trained["root"] / "pairs_spans.jsonl")
    examples = trained["root"] / "niah_spans.jsonl"
    assert main(
        ["niah-gen", "--pairs", str(pairs), "--vocab", str(trained["vocab"]),
         "--split", "train", "--seed", "5", "--out", str(examples)]
    ) == 0
    predicted, offsets_of = [], []
    predict, offsets = niah.predict_example, niah.encode_with_offsets
    monkeypatch.setattr(niah, "predict_example",
                        lambda *a, **k: predicted.append(predict(*a, **k)) or predicted[-1])
    monkeypatch.setattr(niah, "encode_with_offsets",
                        lambda text, *a, **k: offsets_of.append(text) or offsets(text, *a, **k))
    rc = main(["niah-eval", "--ckpt", str(trained["ckpt"]),
               "--vocab", str(trained["vocab"]), "--examples", str(examples)])
    assert rc == 0 and "examples=3" in capsys.readouterr().out
    vocab = load_vocab(trained["vocab"])
    touched, paragraphs = [], 0
    for ex, (start, end) in zip(niah.read_examples(examples), predicted):
        base = 0
        for para in ex.paragraphs:
            n = count_tokens(para, vocab)
            if max(start, base) <= min(end, base + n - 1):
                touched.append(para)
            base += n
        paragraphs += len(ex.paragraphs)
    assert paragraphs > len(touched)  # some paragraphs lie outside every span
    assert offsets_of == touched


@pytest.mark.parametrize("command, bad", [
    ("tokenize", "--input"),
    ("dedup", "--input"),
    ("niah-gen", "--pairs"),
    ("niah-eval", "--examples"),
])
def test_non_utf8_input_names_its_file(trained, tmp_path, capsys, command, bad):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"caf\xe9 ol\xff\n")
    args = {
        "tokenize": {"--vocab": trained["vocab"], "--out": tmp_path / "x.pbseq"},
        "dedup": {"--out": tmp_path / "x.txt"},
        "niah-gen": {"--vocab": trained["vocab"], "--split": "test",
                     "--out": tmp_path / "niah.jsonl"},
        "niah-eval": {"--ckpt": trained["ckpt"], "--vocab": trained["vocab"]},
    }[command]
    args[bad] = path
    rc = main([command, *(str(x) for pair in args.items() for x in pair)])
    err = capsys.readouterr().err
    assert rc == 2
    assert str(path) in err and "utf-8" in err
    assert "Traceback" not in err


def test_qa_finetune_runs(trained, capsys):
    pairs = _write_pairs(trained["root"] / "pairs_ft.jsonl")
    examples = trained["root"] / "niah_ft.jsonl"
    assert main(
        ["niah-gen", "--pairs", str(pairs), "--vocab", str(trained["vocab"]),
         "--split", "train", "--seed", "2", "--out", str(examples)]
    ) == 0
    job = _write_job(
        trained["root"] / "qa.cfg",
        **{"train.token_budget": 128, "train.batch_tokens_or_sequences": 2,
           "train.microbatch": 2},
    )
    out = trained["root"] / "qa"
    rc = main(
        ["qa-finetune", "--ckpt", str(trained["ckpt"]),
         "--vocab", str(trained["vocab"]), "--examples", str(examples),
         "--out", str(out), "--config", str(job)]
    )
    assert rc == 0
    assert "final step=" in capsys.readouterr().out


@pytest.mark.parametrize("command", ("pretrain", "mntp", "embed-train", "qa-finetune"))
def test_training_commands_print_one_report_line(trained, tmp_path, capsys, command):
    # Every training phase runs through one runner and ends with one line,
    # whose counters are those of the checkpoint it wrote.
    out = tmp_path / "out"
    # mntp masks too few positions in two short members; the others have two items.
    batch = 4 if command == "mntp" else 2
    job = _write_job(tmp_path / "job.cfg", **{
        "train.token_budget": 128, "train.batch_tokens_or_sequences": batch})
    common = ["--vocab", trained["vocab"], "--out", out, "--config", job]
    if command != "pretrain":
        common += ["--ckpt", trained["ckpt"]]
    rc = main([command, *map(str, common + _phase_data(command, trained, tmp_path))])
    printed = capsys.readouterr().out
    assert rc == 0
    reports = [line for line in printed.splitlines() if line.startswith("final ")]
    assert len(reports) == 1, printed
    m = re.fullmatch(r"final step=(\d+) tokens=(\d+) loss=(\S+)", reports[0])
    assert m and np.isfinite(float(m.group(3))), reports[0]
    step, tokens = int(m.group(1)), int(m.group(2))
    assert step >= 1
    if command != "mntp":  # mntp writes adapters, not a checkpoint
        assert main(["inspect", "--ckpt", str(out / "ckpt_final.pbt")]) == 0
        assert f" step={step} tokens_seen={tokens}\n" in capsys.readouterr().out


def _phase_data(command, trained, tmp_path):
    """The data arguments of one training command: two triplets or examples for JSONL readers."""
    if command in ("pretrain", "mntp"):
        return ["--data", trained["data"]] + (["--rank", "2"] if command == "mntp" else [])
    if command == "embed-train":
        data = tmp_path / "triplets.jsonl"
        data.write_text(2 * (json.dumps(_TRIPLET) + "\n"), encoding="utf-8")
        return ["--data", data]
    return ["--examples", _write_examples(tmp_path / "niah.jsonl", {}, {})]


@pytest.mark.parametrize("command", ("pretrain", "mntp", "embed-train", "qa-finetune"))
def test_training_command_refuses_a_phase_that_trains_no_token(trained, tmp_path, capsys,
                                                               command):
    # A later phase without --config has a budget of 0; pretrain's job file names 0.
    if command == "pretrain":
        common = ["--config", _write_job(tmp_path / "job.cfg", **{"train.token_budget": 0})]
    else:
        common = ["--ckpt", trained["ckpt"]]
    args = [command, *map(str, common + _phase_data(command, trained, tmp_path))]
    inputs = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    rc = main(args + ["--vocab", str(trained["vocab"]), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert rc == 1, err
    assert "train.token_budget" in err
    assert sorted(tmp_path.rglob("*")) == inputs


def _walkthrough_commands():
    """Each `packbert ...` command of README's CLI walkthrough, as an argv."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI walkthrough", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("packbert ")]


def test_readme_walkthrough_parses():
    # A shared flag that is dropped or renamed fails here, not in a reader's shell.
    commands = _walkthrough_commands()
    assert {"pretrain", "mntp", "embed-train", "qa-finetune"} <= {argv[0] for argv in commands}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def _write_examples(path, *records):
    path.write_text("".join(json.dumps({**_EXAMPLE, **r}) + "\n" for r in records),
                    encoding="utf-8")
    return path


def _qa_finetune(trained, tmp_path, examples, **overrides):
    job = _write_job(tmp_path / "qa.cfg", **{
        "train.token_budget": 32, "train.batch_tokens_or_sequences": 2,
        "train.microbatch": 2, **overrides})
    return main(["qa-finetune", "--ckpt", str(trained["ckpt"]), "--vocab", str(trained["vocab"]),
                 "--examples", str(examples), "--out", str(tmp_path / "qa"),
                 "--config", str(job)])


@pytest.mark.parametrize("start, end", [(6, 40), (6, 7), (-1, 6), (6, 5)],
                         ids=("far_past", "one_past", "negative", "reversed"))
def test_qa_finetune_refuses_a_gold_span_outside_its_document(trained, tmp_path, capsys,
                                                             start, end):
    # _EXAMPLE's document is 7 tokens long; the second example's span is bad.
    examples = _write_examples(tmp_path / "niah.jsonl", {},
                               {"gold_start": start, "gold_end": end})
    rc = _qa_finetune(trained, tmp_path, examples)
    out = capsys.readouterr()
    assert rc == 2, out.err
    assert f"example 1 has gold span {start}..{end}, outside its 7-token document" in out.err
    assert "skipped" not in out.out
    assert not (tmp_path / "qa").exists()


def test_qa_finetune_skips_only_examples_over_the_limit(trained, tmp_path, capsys):
    long = {"paragraphs": ["rain fell over green hills today", "the secret code is omega"],
            "gold_start": 10, "gold_end": 10}
    examples = _write_examples(tmp_path / "niah.jsonl", {}, long, {})
    assert _qa_finetune(trained, tmp_path, examples, **{"train.max_seq_len": 8}) == 0
    assert "skipped 1 examples over the 8-token limit" in capsys.readouterr().out


def test_bench_prints_table(capsys):
    rc = main(
        ["bench", "--spec", "fixed:8", "--n-docs", "2", "--reps", "1",
         "--budget", "64", "--path", "both"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "spmt_mean=" in out
    assert "padded" in out and "packed" in out
    assert "s/1M tokens" in out


@pytest.mark.parametrize("spec", ("normal:nan:1", "normal:inf:1", "normal:8:nan",
                                  "normal:8:inf"))
def test_bench_refuses_a_non_finite_normal_spec(capsys, spec):
    rc = main(["bench", "--spec", spec, "--n-docs", "8", "--reps", "1", "--budget", "64"])
    out = capsys.readouterr()
    assert rc == 1, out.out
    assert "need a finite mean" in out.err
    assert out.out == ""


def test_entry_modules_do_not_import_scipy():
    # scipy.special costs about 0.3 s at start-up; nothing in packbert needs it.
    src = str(Path(packbert.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]);"
        "import packbert.cli, packbert.model, packbert.trainer, packbert.niah;"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def _run_python(code, *args, env_extra=None):
    src = str(Path(packbert.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
    env.update(env_extra or {})
    out = subprocess.run([sys.executable, "-c", code, src, *args], capture_output=True,
                         text=True, timeout=60, check=True, env=env)
    return json.loads(out.stdout)


def test_small_attention_calls_start_no_thread():
    # An mlm_short-sized attention call (16 members of 32 tokens) and a whole
    # tiny_test training step over 16 members of 24-40 tokens stay in the
    # caller: no pool, no thread, no concurrent.futures import.  BLAS is set
    # to one thread at import, so on this many CPUs a large call would use
    # the pool; the worker count is not even looked up.
    code = (
        "import json, sys, threading; sys.path.insert(0, sys.argv[1]);"
        "import numpy as np; before = threading.active_count();"
        "import packbert.cli, packbert.model, packbert.kernels, packbert.trainer, packbert.niah;"
        "from packbert import config, kernels, model, pool, trainer;"
        "q = np.random.default_rng(0).normal(size=(1, 512, 64)).astype(np.float32);"
        "b = np.arange(0, 513, 32);"
        "kernels.attn_forward(q, q, q, b, 0, 0, 0.125);"
        "kernels.attn_backward(q, q, q, q, b, 0, 0, 0.125);"
        "cfg = config.preset('tiny_test'); rng = np.random.default_rng(1);"
        "data = [rng.integers(5, 256, size=n, dtype=np.int32) for n in rng.integers(24, 41, size=16)];"
        "phase = config.TrainPhaseConfig(token_budget=sum(d.size for d in data),"
        " batch_tokens_or_sequences=16, microbatch=16, schedule='constant',"
        " warmup_tokens=0, decay_tokens=0, max_seq_len=64);"
        "result = trainer.train_mlm(model.init_params(cfg), cfg, data, phase,"
        " mask_id=4, special_ids={0, 1, 2, 3, 4});"
        "print(json.dumps({'steps': len(result.metrics),"
        " 'futures': 'concurrent.futures' in sys.modules,"
        " 'new_threads': threading.active_count() - before,"
        " 'probed': pool._workers is not None}))"
    )
    got = _run_python(code, env_extra={"OPENBLAS_NUM_THREADS": "1"})
    assert got == {"steps": 1, "futures": False, "new_threads": 0, "probed": False}


@pytest.mark.parametrize("threads", (1, 2))
def test_blas_thread_probe_reads_the_loaded_blas(threads):
    # Read the mapped BLAS's own thread count before and after importing
    # packbert: the variable sets it first, packbert's import then sets 1.
    code = (
        "import ctypes, json, sys; sys.path.insert(0, sys.argv[1]); import numpy;"
        "maps = open('/proc/self/maps', encoding='ascii', errors='replace');"
        "libs = sorted({l.split()[-1] for l in maps if 'blas' in l.lower() and '.so' in l});"
        "syms = ('scipy_openblas_get_num_threads64_', 'scipy_openblas_get_num_threads',"
        " 'openblas_get_num_threads64_', 'openblas_get_num_threads', 'MKL_Get_Max_Threads');"
        "get = next((getattr(ctypes.CDLL(p), s) for p in libs for s in syms"
        " if hasattr(ctypes.CDLL(p), s)), None);"
        "before = get and get(); from packbert import pool; after = get and get();"
        "print(json.dumps([before, after, pool._BLAS_PINNED]))"
    )
    env = {f"{lib}_NUM_THREADS": str(threads) for lib in ("OPENBLAS", "OMP", "MKL")}
    before, after, pinned = _run_python(code, env_extra=env)
    if before is None:
        pytest.skip("numpy's BLAS exposes no known thread-count symbol")
    assert before == threads
    assert pinned is True
    assert after == 1


def test_bits_do_not_depend_on_the_blas_thread_variable():
    # An mlm_mid-sized forward and backward: six layers, hidden 256, every
    # third layer global, four members of 384-640 tokens.  Its matmuls are
    # large enough for a BLAS left at two threads to split them differently.
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]);"
        "import dataclasses, numpy as np; from packbert import config, model, pool, util;"
        "from packbert.packing import pack;"
        "cfg = dataclasses.replace(config.preset('moderngbert_134m'), vocab_size=4096,"
        " n_layers=6, hidden=256, n_heads=4, intermediate=384, max_seq_len=1024);"
        "rng = np.random.default_rng(0); params = model.init_params(cfg, seed=0);"
        "batch = pack([rng.integers(5, 4096, size=n, dtype=np.int32)"
        " for n in rng.integers(384, 641, size=4)]);"
        "out = model.forward(params, cfg, batch, want_cache=True);"
        "d = rng.normal(size=out.hidden.shape).astype(out.hidden.dtype);"
        "grads = model.backward(params, cfg, out.cache, d);"
        "print(json.dumps([pool._BLAS_PINNED, util.params_digest({'h': out.hidden, **grads})]))"
    )
    at = [{f"{lib}_NUM_THREADS": n for lib in ("OPENBLAS", "OMP", "MKL")} for n in "12"]
    got = [_run_python(code, env_extra=env) for env in (*at, None)]
    if not all(pinned for pinned, _ in got):
        pytest.skip("numpy's BLAS exposes no known thread-count setter")
    assert len({digest for _, digest in got}) == 1, got
