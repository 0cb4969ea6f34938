"""Corpus plumbing: dedup, filtering, splitting, stats, sequence files."""

import math

import numpy as np
import pytest

from packbert.data_pipeline import (
    BloomFilter,
    compose_report,
    dedup,
    dedup_documents,
    join_documents,
    ratio_filter,
    read_documents,
    read_sequences,
    split_documents,
    split_long,
    write_sequences,
)
from packbert.errors import DataError
from packbert.tokenizer import toy_vocab


# --- document format ---


def test_two_tier_blank_line_parsing():
    text = "para one\n\npara two\n\n\ndoc two para"
    docs = split_documents(text)
    assert docs == [["para one", "para two"], ["doc two para"]]


def test_more_blank_lines_still_split_documents():
    text = "a\n\n\n\n\nb"
    assert split_documents(text) == [["a"], ["b"]]


def test_whitespace_only_lines_count_as_blank():
    text = "a\n \t\nb\n\n  \n\nc"
    assert split_documents(text) == [["a", "b"], ["c"]]


def test_join_documents_roundtrip():
    docs = [["p1", "p2"], ["q1"], ["r1", "r2", "r3"]]
    assert split_documents(join_documents(docs)) == docs


def test_read_documents(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("alpha\n\nbeta\n\n\ngamma\n")
    assert read_documents(path) == [["alpha", "beta"], ["gamma"]]


def test_empty_text_gives_no_documents():
    assert split_documents("") == []
    assert split_documents("\n\n\n") == []


# --- bloom filter ---


def test_bloom_no_false_negatives():
    rng = np.random.default_rng(0)
    bloom = BloomFilter.sized_for(1000, 0.01, seed=1)
    items = [f"item-{rng.integers(10**9)}-{i}" for i in range(1000)]
    for it in items:
        bloom.add(it)
    assert all(it in bloom for it in items)


def test_bloom_false_positive_rate_within_twice_bound():
    n, fp = 10_000, 0.01
    bloom = BloomFilter.sized_for(n, fp, seed=2)
    for i in range(n):
        bloom.add(f"member-{i}")
    probes = 20_000
    hits = sum(f"outsider-{j}" in bloom for j in range(probes))
    assert hits / probes <= 2 * fp


def test_bloom_sized_for_formulas():
    n, p = 5000, 0.01
    bloom = BloomFilter.sized_for(n, p)
    m = math.ceil(-n * math.log(p) / (math.log(2) ** 2))
    k = max(1, round(m / n * math.log(2)))
    assert bloom.m == m
    assert bloom.k == k


def test_bloom_add_reports_prior_presence():
    bloom = BloomFilter.sized_for(100, 0.01, seed=3)
    assert bloom.add("x") is False  # definitely new
    assert bloom.add("x") is True  # definitely seen


def test_bloom_seed_changes_probe_pattern():
    a = BloomFilter.sized_for(100, 0.01, seed=4)
    b = BloomFilter.sized_for(100, 0.01, seed=5)
    a.add("collision-probe")
    # Different salt: the same item hashes elsewhere, so b stays clean.
    assert "collision-probe" not in b


def test_bloom_rejects_bad_parameters():
    with pytest.raises(ValueError):
        BloomFilter.sized_for(0, 0.01)
    with pytest.raises(ValueError):
        BloomFilter.sized_for(100, 0.0)
    with pytest.raises(ValueError):
        BloomFilter.sized_for(100, 1.0)


# --- dedup ---


def test_dedup_keeps_first_occurrence():
    paras = ["a", "b", "a", "c", "b", "a"]
    bloom = BloomFilter.sized_for(100, 0.001, seed=6)
    kept, stats = dedup(paras, bloom)
    assert kept == ["a", "b", "c"]
    assert stats.seen == 6
    assert stats.dropped == 3


def test_dedup_recall_is_total_on_randomized_repeats():
    rng = np.random.default_rng(7)
    uniques = [f"paragraph {i} " + "x" * int(rng.integers(1, 30))
               for i in range(200)]
    stream = list(uniques)
    for _ in range(300):
        stream.append(uniques[int(rng.integers(200))])
    rng.shuffle(stream)
    bloom = BloomFilter.sized_for(10_000, 1e-4, seed=8)
    kept, stats = dedup(stream, bloom)
    # Exact duplicates can never survive: recall 100%.
    assert len(kept) == len(set(kept))
    assert set(kept) == set(uniques)
    assert stats.dropped == 300


def test_dedup_documents_preserves_structure():
    docs = [["a", "b"], ["b", "c"], ["a"]]
    out, stats = dedup_documents(docs, BloomFilter.sized_for(100, 0.001, seed=9))
    assert out == [["a", "b"], ["c"]]
    assert stats.seen == 5
    assert stats.dropped == 2
    assert stats.survivors == 3


def test_dedup_documents_drops_emptied_documents():
    docs = [["a"], ["a"], ["a"]]
    out, _ = dedup_documents(docs, BloomFilter.sized_for(100, 0.001, seed=10))
    assert out == [["a"]]


# --- ratio filter ---


@pytest.fixture
def small_vocab():
    return toy_vocab(["the", "cat", "sat", "mat"])


def test_ratio_filter_keeps_clean_text(small_vocab):
    assert ratio_filter("the cat sat", small_vocab) is True


def test_ratio_filter_drops_heavy_unk(small_vocab):
    # Unknown words tokenize to one UNK each but the ratio uses token
    # counts; craft text above the tokens-per-word threshold instead.
    doc = " ".join(["the"] * 2 + ["qqqqq"] * 8)
    # Each unknown word still counts 1 token; ratio 1.0 keeps it.
    assert ratio_filter(doc, small_vocab, threshold=2.5) is True


def test_ratio_filter_threshold_boundary():
    vocab = toy_vocab([], extra_pieces=("a", "##b", "##c"))
    # "abc" -> a ##b ##c = 3 tokens, 1 word: ratio 3.0.
    assert ratio_filter("abc", vocab, threshold=2.5) is False
    assert ratio_filter("abc", vocab, threshold=3.0) is True


def test_ratio_filter_empty_doc_dropped(small_vocab):
    assert ratio_filter("", small_vocab) is False
    assert ratio_filter("   \n", small_vocab) is False


def test_ratio_filter_monotone_under_noise():
    vocab = toy_vocab([], extra_pieces=("w", "##o", "##r", "##d", "##s"))
    rng = np.random.default_rng(11)
    base = " ".join(["words"] * 10)  # 5 tokens per word
    assert ratio_filter(base, vocab, threshold=2.5) is False
    for _ in range(20):
        noisy = base + " " + " ".join(
            "".join(rng.choice(list("zqj"), size=4)) for _ in range(10)
        )
        # Unknown-vocab noise cannot flip a drop into a keep.
        assert ratio_filter(noisy, vocab, threshold=2.5) is False


# --- split_long ---


@pytest.fixture
def char_vocab():
    # Single-character pieces make token counts equal character counts.
    return toy_vocab([], extra_pieces=("a", "##a"))


def test_split_long_exact_chunks(char_vocab):
    doc = " ".join(["a" * 10] * 4)  # 40 tokens
    chunks = split_long(doc, char_vocab, target_len=16)
    sizes = [len(c) for c in chunks]
    assert sizes == [16, 16, 8]


def test_split_long_conserves_tokens(char_vocab):
    rng = np.random.default_rng(12)
    for _ in range(20):
        words = [("a" * int(rng.integers(1, 12))) for _ in range(rng.integers(1, 30))]
        doc = " ".join(words)
        total = sum(len(w) for w in words)
        chunks = split_long(doc, char_vocab, target_len=int(rng.integers(4, 20)))
        assert sum(len(c) for c in chunks) == total


def test_split_short_doc_passes_through(char_vocab):
    chunks = split_long("aaa", char_vocab, target_len=100)
    assert len(chunks) == 1
    assert len(chunks[0]) == 3


def test_split_empty_doc(char_vocab):
    assert split_long("", char_vocab, target_len=10) == []


def test_split_long_rejects_bad_target(char_vocab):
    with pytest.raises(ValueError):
        split_long("aaa", char_vocab, target_len=0)


# --- compose_report ---


def test_report_basic_stats():
    seqs = [np.zeros(10, dtype=np.int32), np.zeros(20, dtype=np.int32),
            np.zeros(30, dtype=np.int32)]
    rep = compose_report(seqs)
    assert rep["sequence_count"] == 3
    assert rep["token_count"] == 60
    assert rep["median_length"] == 20


def test_report_single_sequence():
    rep = compose_report([np.zeros(7, dtype=np.int32)])
    assert rep["median_length"] == 7


def test_report_even_count_takes_lower_middle():
    seqs = [np.zeros(n, dtype=np.int32) for n in (4, 1, 3, 2)]
    rep = compose_report(seqs)
    # sorted: 1 2 3 4 -> lower middle is 2
    assert rep["median_length"] == 2


def test_report_median_matches_sort_oracle():
    rng = np.random.default_rng(13)
    for _ in range(30):
        lens = rng.integers(1, 100, size=int(rng.integers(1, 25)))
        seqs = [np.zeros(n, dtype=np.int32) for n in lens]
        rep = compose_report(seqs)
        assert rep["median_length"] == int(np.sort(lens)[(len(lens) - 1) // 2])


def test_report_empty_dataset():
    rep = compose_report([])
    assert rep["sequence_count"] == 0
    assert rep["token_count"] == 0
    assert rep["median_length"] == 0


# --- sequence files ---


def test_sequence_file_roundtrip(tmp_path):
    rng = np.random.default_rng(14)
    seqs = [rng.integers(0, 1000, size=rng.integers(1, 50), dtype=np.int32)
            for _ in range(20)]
    path = tmp_path / "seqs.bin"
    write_sequences(path, seqs)
    back = read_sequences(path)
    assert len(back) == 20
    for a, b in zip(seqs, back):
        np.testing.assert_array_equal(a, b)
        assert b.dtype == np.int32


def test_sequence_file_deterministic(tmp_path):
    seqs = [np.arange(5, dtype=np.int32)]
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    write_sequences(p1, seqs)
    write_sequences(p2, seqs)
    assert p1.read_bytes() == p2.read_bytes()


def test_sequence_file_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"WRONGMAG" + b"\x00" * 8)
    with pytest.raises(DataError):
        read_sequences(path)


def test_sequence_file_truncation(tmp_path):
    path = tmp_path / "seqs.bin"
    write_sequences(path, [np.arange(100, dtype=np.int32)])
    raw = path.read_bytes()
    path.write_bytes(raw[:-7])
    with pytest.raises(DataError):
        read_sequences(path)


def test_sequence_file_id_lists_match_arrays(tmp_path):
    # split_long and the tokenizer hand over id lists; arrays give the same file.
    lists = [[5, 6, 7], [], [8]]
    p1, p2 = tmp_path / "lists.bin", tmp_path / "arrays.bin"
    write_sequences(p1, lists)
    write_sequences(p2, [np.asarray(s, dtype=np.int64) for s in lists])
    assert p1.read_bytes() == p2.read_bytes()
    assert [b.tolist() for b in read_sequences(p1)] == lists


@pytest.mark.parametrize("seqs", [
    [np.zeros((2, 3), dtype=np.int32)],
    [np.zeros((2, 1), dtype=np.int32)],
    [np.int32(3)],
    [[[1, 2]]],
], ids=["2d", "column", "scalar", "nested-list"])
def test_sequence_file_rejects_non_1d(tmp_path, seqs):
    with pytest.raises(DataError, match="one-dimensional"):
        write_sequences(tmp_path / "bad.bin", seqs)
    assert not (tmp_path / "bad.bin").exists()


def test_sequence_file_empty_list(tmp_path):
    path = tmp_path / "none.bin"
    write_sequences(path, [])
    assert read_sequences(path) == []
