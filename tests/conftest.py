"""Shared fixtures: small configs, toy vocabularies, random batches."""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from packbert import config, kernels, model, pool
from packbert.packing import pack
from packbert.tokenizer import toy_vocab


def pytest_report_header(config):
    """The parallel layout every timing of this run was taken under."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"BLAS {blas.get('name')} {blas.get('version')}, set to one thread by packbert: "
            f"{pool._BLAS_PINNED}; pool workers: {pool._worker_count()}")


@pytest.fixture
def tiny_cfg():
    return config.preset("tiny_test")


@pytest.fixture
def pool_workers(monkeypatch):
    """Set the worker pool's size, with every pool threshold at 0: ops of any size use it."""
    monkeypatch.setattr(kernels, "PARALLEL_MIN_PAIRS", 0)
    monkeypatch.setattr(model, "MATMUL_MIN_MACS", 0)
    monkeypatch.setattr(model, "ROWWISE_MIN_ELEMS", 0)
    monkeypatch.setattr(pool, "_pool", None)
    yield lambda n: monkeypatch.setattr(pool, "_workers", n)
    if pool._pool is not None:
        pool._pool[1].shutdown()


@pytest.fixture
def micro_cfg(tiny_cfg):
    # Cheapest config that still exercises both attention flavours.
    return dataclasses.replace(tiny_cfg, max_seq_len=64)


@pytest.fixture
def letters_vocab():
    words = [f"w{i}" for i in range(20)]
    return toy_vocab(words)


def random_sequences(rng, n, lo=2, hi=24, vocab=256):
    return [
        rng.integers(0, vocab, size=rng.integers(lo, hi + 1), dtype=np.int32)
        for _ in range(n)
    ]


@pytest.fixture
def rand_batch():
    rng = np.random.default_rng(11)
    return pack(random_sequences(rng, 4, lo=3, hi=12))


def quick_phase(**kw):
    base = dict(
        token_budget=2048,
        batch_tokens_or_sequences=4,
        microbatch=2,
        peak_lr=1e-3,
        schedule="constant",
        warmup_tokens=0,
        decay_tokens=0,
        weight_decay=0.0,
        seed=7,
        max_seq_len=512,
    )
    base.update(kw)
    return config.TrainPhaseConfig(**base)


def traced_peak(fn):
    """(fn(), bytes still held once it returned, peak bytes while it ran), as
    tracemalloc counts them from a collected heap."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        gc.collect()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, held, peak
