"""Command-line surface: exit codes, help, and end-to-end happy paths."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import packbert
from packbert.cli import main
from packbert.data_pipeline import read_sequences
from packbert.tokenizer import save_vocab, toy_vocab
from packbert.trainer import load_checkpoint, save_checkpoint

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


def _write_job(path, **overrides):
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
    lines = ["preset = tiny_test"] + [f"{k} = {v}" for k, v in base.items()]
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


def test_inspect_prints_metadata(trained, capsys):
    rc = main(["inspect", "--ckpt", str(trained["ckpt"])])
    out = capsys.readouterr().out
    assert rc == 0
    assert "phase_id=" in out
    assert "dataset_digest=" in out
    n = load_checkpoint(trained["ckpt"]).n_provenance
    assert f"provenance: {n} records steps 1..{n} verify=ok" in out


def test_inspect_reports_tampered_provenance(trained, capsys):
    ckpt = load_checkpoint(trained["ckpt"])
    first = ckpt.provenance.records[0]
    ckpt.provenance.records[0] = dataclasses.replace(
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
    assert "mntp loss" in capsys.readouterr().out

    merged = trained["root"] / "merged.pbt"
    rc = main(["merge-adapters", "--ckpt", str(trained["ckpt"]),
               "--adapters", str(adapters), "--out", str(merged)])
    assert rc == 0
    assert "absorbed phases" in capsys.readouterr().out
    assert load_checkpoint(merged).extra.get("absorbed_phases") == ["ext1"]


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
    assert "final contrastive loss" in capsys.readouterr().out
    assert (out / "ckpt_final.pbt").exists()


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
    assert "final span loss" in capsys.readouterr().out


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
    # caller: no pool, no thread, no BLAS probe, no concurrent.futures import.
    # With one BLAS thread on this many CPUs a large call would use the pool.
    # (numpy itself imports ctypes, so the probe's import cannot be seen.)
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
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]);"
        "import numpy; from packbert import util; print(json.dumps(util.blas_threads()))"
    )
    env = {f"{lib}_NUM_THREADS": str(threads) for lib in ("OPENBLAS", "OMP", "MKL")}
    got = _run_python(code, env_extra=env)
    if got is None:
        pytest.skip("numpy's BLAS exposes no known thread-count symbol")
    assert got == threads
