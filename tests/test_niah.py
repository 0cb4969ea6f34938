"""Haystack QA construction, persistence, and exact-match scoring."""

import numpy as np
import pytest

from packbert import niah
from packbert.errors import ConfigError, DataError
from packbert.niah import (
    BUCKET_EDGES,
    HaystackExample,
    QAPair,
    answer_token_span,
    bucket_of,
    build_dataset,
    build_haystack,
    doc_tokens,
    evaluate,
    read_examples,
    read_qa_pairs,
    span_text,
    write_examples,
)
from packbert.tokenizer import count_tokens, encode, encode_with_offsets, toy_vocab

WORDS = [
    "the", "secret", "code", "is", "omega", "today", "rain", "fell",
    "over", "green", "hills", "a", "cat", "sat", "on", "mat",
    "birds", "sing", "at", "dawn", "rivers", "run", "to", "sea",
    "omega", "stars", "burn", "in", "quiet", "skies",
]


@pytest.fixture(scope="module")
def vocab():
    return toy_vocab(WORDS)


@pytest.fixture(scope="module")
def pair():
    return QAPair(
        question="the code is",
        needle="the secret code is omega today",
        answer="omega",
        answer_start=19,
    )


@pytest.fixture(scope="module")
def pool():
    return [
        "rain fell over green hills",
        "a cat sat on the mat",
        "birds sing at dawn",
        "rivers run to the sea",
    ]


def test_qapair_answer_must_occur_at_offset():
    QAPair(question="q", needle="ab cd", answer="cd", answer_start=3)
    with pytest.raises(DataError):
        QAPair(question="q", needle="ab cd", answer="cd", answer_start=0)
    with pytest.raises(DataError):
        QAPair(question="q", needle="ab cd", answer="cd", answer_start=-1)
    with pytest.raises(DataError):
        QAPair(question="q", needle="ab cd", answer="cde", answer_start=3)
    with pytest.raises(DataError):
        QAPair(question="q", needle="ab cd", answer="", answer_start=0)


def test_answer_token_span_whole_word(vocab, pair):
    span = answer_token_span(pair, vocab)
    assert span == (4, 4)  # fifth word of the needle


def test_answer_token_span_multiword(vocab):
    p = QAPair(
        question="q",
        needle="rain fell over green hills",
        answer="over green",
        answer_start=10,
    )
    assert answer_token_span(p, vocab) == (2, 3)


def test_answer_token_span_misaligned_is_none(vocab):
    # "ome" starts on a token boundary but ends mid-token.
    p = QAPair(
        question="q",
        needle="the secret code is omega today",
        answer="ome",
        answer_start=19,
    )
    assert answer_token_span(p, vocab) is None


def test_build_respects_token_cap(vocab, pair, pool):
    cap = count_tokens(pair.needle, vocab) - 2 + 8  # room for one distractor
    for i in range(50):
        ex = build_haystack(
            pair, pool, 4, cap, np.random.default_rng(i), vocab=vocab
        )
        assert ex.total_tokens <= cap
        assert doc_tokens(ex, vocab).size == ex.total_tokens


def test_build_never_includes_leaky_distractor(vocab, pair):
    leaky = ["omega stars burn in quiet skies", "the omega code"]
    clean = ["rain fell over green hills", "birds sing at dawn"]
    for i in range(200):
        ex = build_haystack(
            pair,
            leaky + clean,
            4,
            10_000,
            np.random.default_rng(i),
            vocab=vocab,
            distractor_count=4,
        )
        for j, para in enumerate(ex.paragraphs):
            if j != ex.needle_index:
                assert pair.answer not in para


def test_gold_span_text_is_the_answer(vocab, pair, pool):
    for i in range(300):
        ex = build_haystack(
            pair, pool, 4, 10_000, np.random.default_rng(i), vocab=vocab
        )
        assert ex.paragraphs[ex.needle_index] == pair.needle
        assert span_text(ex, vocab, ex.gold_start, ex.gold_end) == pair.answer


def test_needle_slot_is_uniform(vocab, pair, pool):
    # Forcing three distractors gives four slots; each should land ~1/4.
    rng = np.random.default_rng(99)
    counts = np.zeros(4, dtype=int)
    n = 1000
    for _ in range(n):
        ex = build_haystack(
            pair, pool, 3, 10_000, rng, vocab=vocab, distractor_count=3
        )
        assert len(ex.paragraphs) == 4
        counts[ex.needle_index] += 1
    assert counts.sum() == n
    # 5 sigma on a binomial(1000, 0.25) is ~68.
    assert np.all(np.abs(counts - n / 4) < 70)


def test_build_given_pool_lens_encodes_only_the_needle(vocab, pair, pool, monkeypatch):
    # The needle's token offset comes from lengths already known, not from
    # re-encoding the paragraphs ahead of it.  Without given lengths, only the
    # candidates the fill visits are counted: the chosen ones and the one
    # that may stop it.
    pool = pool * 3
    lens = [count_tokens(p, vocab) for p in pool]
    calls = []

    def counting_encode(text, vocab, add_specials=False):
        calls.append(text)
        return encode(text, vocab, add_specials)

    def counting_count(text, vocab):
        calls.append(("count", text))
        return count_tokens(text, vocab)

    monkeypatch.setattr(niah, "encode", counting_encode)
    monkeypatch.setattr(niah, "count_tokens", counting_count)
    for pool_lens in (lens, None):
        late = 0
        for i in range(20):
            calls.clear()
            ex = build_haystack(pair, pool, 4, 10_000, np.random.default_rng(i),
                                vocab=vocab, distractor_count=4, pool_lens=pool_lens)
            assert calls[0] == pair.needle
            counted = calls[1:]
            assert all(c[0] == "count" for c in counted)
            assert len(counted) <= (0 if pool_lens is not None else 4 + 1)
            assert span_text(ex, vocab, ex.gold_start, ex.gold_end) == pair.answer
            late += ex.needle_index > 0
        assert late >= 10


def test_zero_distractors_means_needle_only(vocab, pair, pool):
    ex = build_haystack(
        pair, pool, 3, 10_000, np.random.default_rng(0), vocab=vocab,
        distractor_count=0,
    )
    assert ex.paragraphs == (pair.needle,)
    assert ex.needle_index == 0
    assert ex.gold_start == 4 and ex.gold_end == 4


def test_build_rejects_bad_knobs(vocab, pair, pool):
    rng = np.random.default_rng(0)
    with pytest.raises(ConfigError):
        build_haystack(pair, pool, -1, 100, rng, vocab=vocab)
    with pytest.raises(ConfigError):
        build_haystack(pair, pool, 2, 0, rng, vocab=vocab)


def test_build_rejects_oversized_needle(vocab, pair, pool):
    with pytest.raises(DataError):
        build_haystack(
            pair, pool, 2, 3, np.random.default_rng(0), vocab=vocab
        )


def test_build_rejects_misaligned_answer(vocab, pool):
    p = QAPair(
        question="q",
        needle="the secret code is omega today",
        answer="omega t",
        answer_start=19,
    )
    with pytest.raises(DataError):
        build_haystack(p, pool, 2, 1000, np.random.default_rng(0), vocab=vocab)


def _pairs():
    return [
        QAPair(
            question="the code is",
            needle="the secret code is omega today",
            answer="omega",
            answer_start=19,
        ),
        QAPair(
            question="what fell",
            needle="rain fell over green hills",
            answer="rain",
            answer_start=0,
        ),
        QAPair(
            question="who sat",
            needle="a cat sat on the mat",
            answer="cat",
            answer_start=2,
        ),
        QAPair(
            question="who sings",
            needle="birds sing at dawn",
            answer="birds",
            answer_start=0,
        ),
    ]


def test_dataset_regeneration_is_byte_identical(vocab, tmp_path):
    a = build_dataset(_pairs(), "train", vocab=vocab, seed=5)
    b = build_dataset(_pairs(), "train", vocab=vocab, seed=5)
    assert a == b
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_examples(pa, a)
    write_examples(pb, b)
    assert pa.read_bytes() == pb.read_bytes()


def test_dataset_seed_changes_layout(vocab):
    a = build_dataset(_pairs(), "train", vocab=vocab, seed=5)
    b = build_dataset(_pairs(), "train", vocab=vocab, seed=6)
    assert a != b


def test_dataset_gold_spans_all_resolve(vocab):
    for ex in build_dataset(_pairs(), "train", vocab=vocab, seed=3):
        assert span_text(ex, vocab, ex.gold_start, ex.gold_end) == ex.answer


def test_dataset_own_needle_never_distracts(vocab):
    # A pair whose needle contains its own answer must not be duplicated,
    # and the builder already rejects other needles that leak the answer.
    for seed in range(10):
        for ex in build_dataset(_pairs(), "train", vocab=vocab, seed=seed):
            assert ex.paragraphs.count(ex.paragraphs[ex.needle_index]) == 1


def test_dataset_unknown_split(vocab):
    with pytest.raises(ConfigError):
        build_dataset(_pairs(), "dev", vocab=vocab)


def test_dataset_skips_bad_pairs(vocab, caplog):
    pairs = _pairs() + [
        QAPair(
            question="q",
            needle="the secret code is omega today",
            answer="omega t",  # never lands on a token boundary
            answer_start=19,
        )
    ]
    with caplog.at_level("INFO", logger="packbert.niah"):
        out = build_dataset(pairs, "train", vocab=vocab, seed=1)
    assert len(out) == 4
    assert any("skipping pair 4" in r.getMessage() for r in caplog.records)


def test_examples_roundtrip(vocab, tmp_path):
    examples = build_dataset(_pairs(), "train", vocab=vocab, seed=2)
    path = tmp_path / "ex.jsonl"
    write_examples(path, examples)
    assert read_examples(path) == examples


def test_read_examples_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"question": "q"\n', encoding="utf-8")
    with pytest.raises(DataError):
        read_examples(path)
    path.write_text('{"question": "q"}\n', encoding="utf-8")  # missing keys
    with pytest.raises(DataError):
        read_examples(path)
    with pytest.raises(DataError):
        read_examples(tmp_path / "absent.jsonl")


def test_read_examples_skips_blank_lines(vocab, tmp_path):
    examples = build_dataset(_pairs(), "train", vocab=vocab, seed=2)
    path = tmp_path / "ex.jsonl"
    write_examples(path, examples)
    padded = tmp_path / "padded.jsonl"
    padded.write_text(
        "\n" + path.read_text(encoding="utf-8") + "\n\n", encoding="utf-8"
    )
    assert read_examples(padded) == examples


def test_read_qa_pairs(tmp_path):
    import json

    path = tmp_path / "qa.jsonl"
    recs = [
        {"question": "q1", "context": "ab cd", "answer": "cd", "answer_start": 3},
        {"question": "q2", "context": "xy z", "answer": "xy", "answer_start": 0},
    ]
    path.write_text(
        "".join(json.dumps(r) + "\n" for r in recs), encoding="utf-8"
    )
    pairs = read_qa_pairs(path)
    assert [p.needle for p in pairs] == ["ab cd", "xy z"]
    assert pairs[0].answer_start == 3

    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"question": "q"}\n', encoding="utf-8")
    with pytest.raises(DataError):
        read_qa_pairs(bad)


def test_bucket_edges():
    assert BUCKET_EDGES == (1024, 4096)
    assert bucket_of(0) == "<1024"
    assert bucket_of(1023) == "<1024"
    assert bucket_of(1024) == "1024-4095"
    assert bucket_of(4095) == "1024-4095"
    assert bucket_of(4096) == "4096-8192"
    assert bucket_of(8192) == "4096-8192"


def _with_total(ex, total):
    return HaystackExample(
        question=ex.question,
        paragraphs=ex.paragraphs,
        needle_index=ex.needle_index,
        gold_start=ex.gold_start,
        gold_end=ex.gold_end,
        answer=ex.answer,
        total_tokens=total,
    )


def test_evaluate_exact_match_semantics(vocab):
    examples = build_dataset(_pairs(), "train", vocab=vocab, seed=4)
    gold = [(ex.gold_start, ex.gold_end) for ex in examples]
    rep = evaluate(gold, examples, vocab)
    assert rep.exact_match == 1.0
    assert rep.n_examples == len(examples)
    assert rep.missing == 0

    off = [(s + 1, e + 1) for s, e in gold]
    assert evaluate(off, examples, vocab).exact_match < 1.0


def test_evaluate_counts_missing(vocab):
    examples = build_dataset(_pairs(), "train", vocab=vocab, seed=4)
    preds = [(ex.gold_start, ex.gold_end) for ex in examples]
    preds[0] = None
    rep = evaluate(preds, examples, vocab)
    assert rep.missing == 1
    assert rep.exact_match == pytest.approx((len(examples) - 1) / len(examples))


def test_evaluate_buckets_by_length(vocab):
    base = build_dataset(_pairs(), "train", vocab=vocab, seed=4)
    examples = [
        _with_total(base[0], 100),
        _with_total(base[1], 2000),
        _with_total(base[2], 5000),
        _with_total(base[3], 900),
    ]
    preds = [(ex.gold_start, ex.gold_end) for ex in examples]
    preds[3] = (0, 0) if examples[3].gold_start else (1, 1)  # force a miss
    rep = evaluate(preds, examples, vocab)
    assert rep.buckets["<1024"] == (0.5, 2)
    assert rep.buckets["1024-4095"] == (1.0, 1)
    assert rep.buckets["4096-8192"] == (1.0, 1)


def test_evaluate_length_mismatch(vocab):
    examples = build_dataset(_pairs(), "train", vocab=vocab, seed=4)
    with pytest.raises(DataError):
        evaluate([(0, 0)], examples, vocab)


def test_report_lines_format(vocab):
    examples = build_dataset(_pairs(), "train", vocab=vocab, seed=4)
    rep = evaluate([(e.gold_start, e.gold_end) for e in examples], examples, vocab)
    lines = rep.lines()
    assert lines[0].startswith("examples=4 exact_match=1.0000 missing=0")
    assert len(lines) == 4
    assert all(line.startswith("bucket=") for line in lines[1:])


def test_span_text_out_of_order_is_empty(vocab, pair, pool):
    ex = build_haystack(
        pair, pool, 2, 10_000, np.random.default_rng(1), vocab=vocab
    )
    assert span_text(ex, vocab, 3, 2) == ""
    assert span_text(ex, vocab, -1, 2) == ""


def test_span_text_joins_paragraphs_with_blank_line(vocab, pair, pool):
    ex = build_haystack(
        pair, pool, 3, 10_000, np.random.default_rng(7), vocab=vocab,
        distractor_count=3,
    )
    total = doc_tokens(ex, vocab).size
    whole = span_text(ex, vocab, 0, total - 1)
    assert whole == "\n\n".join(ex.paragraphs)


def full_scan_span_text(example, vocab, start, end):
    """span_text as a scan of every paragraph's character spans."""
    if start > end or start < 0:
        return ""
    pieces, base = [], 0
    for para in example.paragraphs:
        _, spans = encode_with_offsets(para, vocab)
        covered = [s for k, s in enumerate(spans) if start <= base + k <= end]
        if covered:
            pieces.append(para[covered[0][0] : covered[-1][1]])
        base += len(spans)
    return "\n\n".join(pieces)


def test_span_text_matches_a_full_scan(monkeypatch):
    # Paragraphs of zero tokens, spans across paragraph boundaries, and spans
    # that run past the end of the document.  Some words take several tokens
    # ("cats", "omegas.") and one is UNK ("zzz").  Character spans are built
    # only for the paragraphs the span covers.
    vocab = toy_vocab(WORDS, extra_pieces=("##s", "##.", "##s."))
    words = WORDS + ["cats", "omegas.", "hills.", "zzz"]
    offsets_of = []
    monkeypatch.setattr(niah, "encode_with_offsets",
                        lambda text, *a: offsets_of.append(text) or encode_with_offsets(text, *a))
    rng = np.random.default_rng(31)
    for _ in range(200):
        paras = []
        for _ in range(int(rng.integers(1, 6))):
            n = int(rng.integers(0, 6))
            paras.append("  ".join(words[int(k)] for k in rng.integers(len(words), size=n)))
        ex = HaystackExample(question="q", paragraphs=tuple(paras), needle_index=0,
                             gold_start=0, gold_end=0, answer="x", total_tokens=0)
        total = doc_tokens(ex, vocab).size
        for _ in range(10):
            start = int(rng.integers(-2, total + 3))
            end = start + int(rng.integers(-1, total + 3))
            want = full_scan_span_text(ex, vocab, start, end)
            offsets_of.clear()
            assert span_text(ex, vocab, start, end) == want, (paras, start, end)
            covered = len(want.split("\n\n")) if want else 0  # one piece per paragraph
            assert len(offsets_of) == covered, (paras, start, end)
