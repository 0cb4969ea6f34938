"""Seeded fuzz of every loader: a damaged container is refused with DataError, never accepted.

So is an intact, checksum-valid file whose metadata lacks or mistypes an entry, or
whose tensors do not fit its stored config.  A damaged JSONL file carries no
checksum, so a byte flipped inside a string can leave it valid: it is refused with
DataError or read into records whose every field has its type, never anything else."""

import functools
import json

import numpy as np
import pytest

from packbert import model
from packbert.adapters import init_adapters, load_adapters, save_adapters
from packbert.cli import main
from packbert.data_pipeline import read_sequences, write_sequences
from packbert.errors import DataError
from packbert.niah import read_examples, read_qa_pairs
from packbert.tensor_store import read_tensors, write_tensors
from packbert.tokenizer import toy_vocab
from packbert.trainer import load_checkpoint, read_triplets, train_mlm

from conftest import quick_phase

CASES = 400


def _damaged(raw: bytes, rng) -> bytes:
    """Half the cases truncate the file, half flip one byte somewhere in it."""
    if rng.random() < 0.5:
        return raw[: int(rng.integers(0, len(raw)))]
    out = bytearray(raw)
    out[int(rng.integers(0, len(raw)))] ^= int(rng.integers(1, 256))
    return bytes(out)


def _checkpoint(cfg, path):
    rng = np.random.default_rng(3)
    data = [rng.integers(5, 256, size=int(rng.integers(5, 20)), dtype=np.int32)
            for _ in range(8)]
    result = train_mlm(model.init_params(cfg, seed=0), cfg, data,
                       quick_phase(token_budget=200), mask_id=4,
                       special_ids=frozenset(range(5)), out_dir=path.parent)
    assert len(result.provenance) > 0
    return path.parent / "ckpt_final.pbt"


def _adapters(cfg, path):
    params = model.init_params(cfg, seed=0)
    save_adapters(init_adapters(params, cfg, rank=2, alpha=4.0, seed=1), path)
    return path


def _sequences(cfg, path):
    rng = np.random.default_rng(5)
    write_sequences(path, [rng.integers(0, 256, size=int(rng.integers(1, 30)),
                                        dtype=np.int32) for _ in range(40)])
    return path


@pytest.mark.parametrize("make, load", [
    pytest.param(_checkpoint, load_checkpoint, id="checkpoint"),
    pytest.param(_adapters, load_adapters, id="adapters"),
    pytest.param(_sequences, read_sequences, id="sequences"),
])
def test_every_damaged_file_raises_data_error(tiny_cfg, tmp_path, make, load):
    good = make(tiny_cfg, tmp_path / "src" / "file.pbt")
    load(good)
    raw = good.read_bytes()
    rng = np.random.default_rng(2024)
    target = tmp_path / "damaged.pbt"
    accepted, other = [], []
    for case in range(CASES):
        target.write_bytes(_damaged(raw, rng))
        try:
            load(target)
        except DataError:
            continue
        except Exception as e:  # any other exception type is a failure to report
            other.append((case, repr(e)))
        else:
            accepted.append(case)
    assert accepted == [] and other == []


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _all_str(*xs):
    return all(isinstance(x, str) for x in xs)


def _ids(*seqs):
    return all(isinstance(s, list) and all(map(_is_int, s)) for s in seqs)


_WORDS = ("the", "code", "is", "omega", "rain", "fell", "a", "cat", "sat")
# name -> (records, reader, whether a read record's fields have their types)
JSONL_READERS = {
    "examples": (
        [{"question": f"the code {i}", "paragraphs": ["rain fell", "the code is omega"],
          "needle_index": 1, "gold_start": 2 + i, "gold_end": 5 + i, "answer": "omega",
          "total_tokens": 6 + i} for i in range(6)],
        read_examples,
        lambda e: (_all_str(e.question, e.answer, *e.paragraphs) and isinstance(e.paragraphs, tuple)
                   and all(map(_is_int, (e.needle_index, e.gold_start, e.gold_end,
                                         e.total_tokens)))),
    ),
    "qa_pairs": (
        [{"question": f"what {i}", "context": "the code is omega", "answer": "omega",
          "answer_start": 12} for i in range(6)],
        read_qa_pairs,
        lambda p: _all_str(p.question, p.needle, p.answer) and _is_int(p.answer_start),
    ),
    "triplets": (
        [{"query": "a cat", "positive": "a cat sat", "negatives": ["rain fell"] * (i % 3)}
         for i in range(6)],
        functools.partial(read_triplets, vocab=toy_vocab(_WORDS)),
        lambda t: _ids(t.query, t.positive, *t.negatives) and isinstance(t.negatives, tuple),
    ),
}


@pytest.mark.parametrize("name", JSONL_READERS)
def test_every_damaged_jsonl_file_is_refused_or_well_typed(tmp_path, name):
    records, read, typed = JSONL_READERS[name]
    raw = "".join(json.dumps(r) + "\n" for r in records).encode("utf-8")
    good = tmp_path / "good.jsonl"
    good.write_bytes(raw)
    assert len(read(good)) == len(records)
    rng = np.random.default_rng(2025)
    target = tmp_path / "damaged.jsonl"
    refused, mistyped, other = 0, [], []
    for case in range(CASES):
        target.write_bytes(_damaged(raw, rng))
        try:
            got = read(target)
        except DataError:
            refused += 1
            continue
        except Exception as e:  # any other exception type is a failure to report
            other.append((case, repr(e)))
        else:
            if not all(map(typed, got)):
                mistyped.append(case)
    assert mistyped == [] and other == []
    assert refused > CASES // 4  # the damage reaches the parser, not only string contents


def test_inspect_exits_2_on_damaged_checkpoint(tiny_cfg, tmp_path, capsys):
    good = _checkpoint(tiny_cfg, tmp_path / "src" / "file.pbt")
    raw = bytearray(good.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    bad = tmp_path / "bad.pbt"
    bad.write_bytes(bytes(raw))
    assert main(["inspect", "--ckpt", str(bad)]) == 2
    assert "data error" in capsys.readouterr().err


# name -> (file kind, edit of its tensors and metadata)
MALFORMED_META = {
    "checkpoint_without_counters": ("checkpoint", lambda t, meta: meta.pop("counters")),
    "checkpoint_opt_is_a_string": ("checkpoint", lambda t, meta: meta.update(opt="adamw")),
    "checkpoint_without_final_norm": ("checkpoint", lambda t, meta: t.pop(
        "params/final_norm.scale")),
    "checkpoint_tok_emb_of_10_rows": ("checkpoint", lambda t, meta: t.update(
        {"params/tok_emb": t["params/tok_emb"][:10]})),
    "checkpoint_moments_differ": ("checkpoint", lambda t, meta: t.pop("opt.v/tok_emb")),
    "adapters_without_rank": ("adapters", lambda t, meta: meta.pop("rank")),
    "adapters_of_rank_0": ("adapters", lambda t, meta: meta.update(rank=0)),
    "adapters_rank_1_on_width_2_pairs": ("adapters", lambda t, meta: meta.update(rank=1)),
    "adapters_alpha_inf": ("adapters", lambda t, meta: meta.update(alpha=float("inf"))),
    "adapters_alpha_negative": ("adapters", lambda t, meta: meta.update(alpha=-1.0)),
}


@pytest.mark.parametrize("case", MALFORMED_META)
def test_malformed_meta_is_a_data_error(tiny_cfg, tmp_path, capsys, case):
    kind, edit = MALFORMED_META[case]
    ckpt = _checkpoint(tiny_cfg, tmp_path / "src" / "file.pbt")
    good = ckpt if kind == "checkpoint" else _adapters(tiny_cfg, tmp_path / "adapters.pbt")
    tensors, meta = read_tensors(good)
    edit(tensors, meta)
    bad = tmp_path / "bad.pbt"
    write_tensors(bad, tensors, meta)  # a fresh checksum: only the edit is wrong
    if kind == "checkpoint":
        with pytest.raises(DataError):
            load_checkpoint(bad)
        argv = ["inspect", "--ckpt", bad]
    else:
        with pytest.raises(DataError):
            load_adapters(bad)
        argv = ["merge-adapters", "--ckpt", ckpt, "--adapters", bad,
                "--out", tmp_path / "merged.pbt"]
    assert main([str(a) for a in argv]) == 2
    assert "data error" in capsys.readouterr().err
