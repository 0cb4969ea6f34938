"""Greedy longest-match tokenizer: encoding, offsets, vocab files, word memo."""

import sys

import numpy as np
import pytest

from packbert import tokenizer
from packbert.errors import DataError
from packbert.tokenizer import (
    CONTINUATION,
    SPECIAL_PIECES,
    Vocab,
    count_tokens,
    decode,
    encode,
    encode_with_offsets,
    load_vocab,
    save_vocab,
    toy_vocab,
)


@pytest.fixture
def ab_vocab():
    # Pieces chosen so greedy-longest-match has real work to do.
    return toy_vocab([], extra_pieces=("a", "b", "ab", "abc", "##c", "##bc", "x"))


def test_greedy_prefers_longest_piece(ab_vocab):
    ids = encode("abc", ab_vocab)
    assert [ab_vocab.pieces[i] for i in ids] == ["abc"]


def test_continuation_pieces(ab_vocab):
    ids = encode("abbc", ab_vocab)
    assert [ab_vocab.pieces[i] for i in ids] == ["ab", "##bc"]


def test_unknown_word_maps_to_unk(ab_vocab):
    ids = encode("zzz", ab_vocab)
    assert ids == [ab_vocab.unk_id]


def test_mid_word_dead_end_is_unk(ab_vocab):
    # "ax": "a" matches, then "##x" does not exist, so the whole word is UNK.
    ids = encode("ax", ab_vocab)
    assert ids == [ab_vocab.unk_id]


def test_empty_text(ab_vocab):
    assert encode("", ab_vocab) == []
    assert count_tokens("", ab_vocab) == 0


def test_add_specials_brackets_with_cls_sep(ab_vocab):
    ids = encode("ab", ab_vocab, add_specials=True)
    assert ids[0] == ab_vocab.cls_id
    assert ids[-1] == ab_vocab.sep_id


def test_whitespace_separates_words(ab_vocab):
    ids = encode("ab  \t ab\nab", ab_vocab)
    piece = ab_vocab.piece_to_id["ab"]
    assert ids == [piece, piece, piece]


def test_decode_inverts_encode_for_known_words():
    vocab = toy_vocab(["hello", "world"])
    ids = encode("hello world hello", vocab)
    assert decode(ids, vocab) == "hello world hello"


def test_decode_joins_continuations(ab_vocab):
    ids = encode("abbc", ab_vocab)
    assert decode(ids, ab_vocab) == "abbc"


def test_decode_skips_specials_by_default(ab_vocab):
    ids = encode("ab", ab_vocab, add_specials=True)
    assert decode(ids, ab_vocab) == "ab"
    kept = decode(ids, ab_vocab, skip_specials=False)
    assert "[CLS]" in kept and "[SEP]" in kept


def test_no_id_exceeds_vocab_size(ab_vocab):
    rng = np.random.default_rng(0)
    alphabet = "abcx z"
    for _ in range(200):
        text = "".join(rng.choice(list(alphabet), size=12))
        for i in encode(text, ab_vocab):
            assert 0 <= i < ab_vocab.size


def test_offsets_cover_each_word(ab_vocab):
    text = "ab abc"
    ids, spans = encode_with_offsets(text, ab_vocab)
    assert len(ids) == len(spans)
    for tid, (s, e) in zip(ids, spans):
        assert 0 <= s <= e <= len(text)
        if tid != ab_vocab.unk_id:
            piece = ab_vocab.pieces[tid].removeprefix("##")
            assert text[s:e] == piece


def test_offsets_with_specials_are_empty_spans(ab_vocab):
    ids, spans = encode_with_offsets("ab", ab_vocab, add_specials=True)
    assert spans[0] == (0, 0)
    assert spans[-1][0] == spans[-1][1]


def test_offsets_unk_covers_whole_word(ab_vocab):
    text = "zzz ab"
    ids, spans = encode_with_offsets(text, ab_vocab)
    assert ids[0] == ab_vocab.unk_id
    s, e = spans[0]
    assert text[s:e] == "zzz"


def test_count_tokens_matches_encode(ab_vocab):
    text = "ab abc zzz b"
    assert count_tokens(text, ab_vocab) == len(encode(text, ab_vocab))


def test_repeated_word_count():
    vocab = toy_vocab(["word"])
    text = " ".join(["word"] * 37)
    assert count_tokens(text, vocab) == 37


def test_vocab_file_roundtrip(tmp_path, ab_vocab):
    path = tmp_path / "vocab.txt"
    save_vocab(ab_vocab, path)
    back = load_vocab(path)
    assert back.pieces == ab_vocab.pieces
    assert back.special_ids == ab_vocab.special_ids
    assert encode("abbc", back) == encode("abbc", ab_vocab)


def test_vocab_requires_all_specials(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("a\nb\n")
    with pytest.raises(DataError):
        load_vocab(path)


def test_vocab_rejects_duplicate_pieces(tmp_path):
    path = tmp_path / "vocab.txt"
    pieces = list(SPECIAL_PIECES) + ["a", "a"]
    path.write_text("\n".join(pieces) + "\n")
    with pytest.raises(DataError):
        load_vocab(path)


def test_special_ids_are_distinct(ab_vocab):
    ids = {ab_vocab.pad_id, ab_vocab.unk_id, ab_vocab.cls_id,
           ab_vocab.sep_id, ab_vocab.mask_id}
    assert len(ids) == 5
    assert ids == set(ab_vocab.special_ids)


def test_encode_deterministic(ab_vocab):
    text = "ab abc b zzz ab"
    assert encode(text, ab_vocab) == encode(text, ab_vocab)


def test_toy_vocab_words_are_single_tokens():
    vocab = toy_vocab(["alpha", "beta", "gamma"])
    for w in ("alpha", "beta", "gamma"):
        assert len(encode(w, vocab)) == 1


def test_vocab_is_frozen(ab_vocab):
    assert isinstance(ab_vocab, Vocab)
    with pytest.raises(Exception):
        ab_vocab.pieces = ()


# --- word memo ---

SPACES = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


def char_loop_encode(text, vocab, add_specials=False):
    """The tokenizer as a plain character loop, matching every word afresh."""
    table, prefix = vocab.piece_to_id, CONTINUATION
    ids, spans = ([vocab.cls_id], [(0, 0)]) if add_specials else ([], [])
    pos, n = 0, len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        end = pos
        while end < n and not text[end].isspace():
            end += 1
        word_ids, word_spans, p = [], [], pos
        while p < end:
            stop = next((e for e in range(end, p, -1)
                         if (prefix if p > pos else "") + text[p:e] in table), None)
            if stop is None:
                word_ids, word_spans = [vocab.unk_id], [(pos, end)]
                break
            word_ids.append(table[(prefix if p > pos else "") + text[p:stop]])
            word_spans.append((p, stop))
            p = stop
        ids += word_ids
        spans += word_spans
        pos = end
    if add_specials:
        ids.append(vocab.sep_id)
        spans.append((n, n))
    return ids, spans


def _check_against_character_loop(vocab, words, seed):
    """Random all-whitespace texts: every encoding path equals the character loop."""
    rng = np.random.default_rng(seed)
    for _ in range(300):
        parts = []
        for _ in range(int(rng.integers(0, 25))):
            parts.append(words[int(rng.integers(len(words)))])
            parts.append("".join(rng.choice(SPACES, size=int(rng.integers(1, 4)))))
        lead = "".join(rng.choice(SPACES, size=int(rng.integers(0, 3))))
        text = lead + "".join(parts)
        for specials in (False, True):
            want = char_loop_encode(text, vocab, specials)
            assert encode_with_offsets(text, vocab, specials) == want, repr(text)
            assert encode(text, vocab, specials) == want[0], repr(text)
        assert count_tokens(text, vocab) == len(encode(text, vocab)), repr(text)


def test_memo_matches_character_loop(monkeypatch):
    vocab = toy_vocab(["the", "code", "omega"],
                      extra_pieces=("a", "ab", "abc", "##c", "##bc", "##ab", "x", "##x", "##"))
    # Whole words, '##' continuations, dead ends (UNK), a word that is itself
    # a continuation piece, and a lone continuation prefix.
    words = ["the", "code", "omega", "abc", "abbc", "aabab", "abx", "axx", "zzz",
             "ax", "thecode", "omegaab", "codex", "##c", "##", "a##", "é", "omega."]
    _check_against_character_loop(vocab, words, seed=20)
    assert set(vocab.memo) == set(words)  # each word matched once, then remembered
    assert vocab.memo_counts == {w: len(ids) for w, (ids, _) in vocab.memo.items()}
    fresh = Vocab(pieces=vocab.pieces)
    assert fresh == vocab and not fresh.memo and not fresh.memo_counts
    # A full memo: most words are matched afresh on every call.
    monkeypatch.setattr(tokenizer, "MEMO_WORDS", 4)
    _check_against_character_loop(fresh, words, seed=21)
    assert len(fresh.memo) == len(fresh.memo_counts) == 4


def test_memo_splits_on_every_whitespace_code_point():
    vocab = toy_vocab(["ab", "cd"])
    text = "".join("ab" + space for space in SPACES) + "cd"
    ids, spans = encode_with_offsets(text, vocab)
    assert (ids, spans) == char_loop_encode(text, vocab)
    assert len(ids) == len(SPACES) + 1
