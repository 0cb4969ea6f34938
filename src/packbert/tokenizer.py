"""Greedy longest-match subword tokenizer (BERT-style WordPiece lookup).

Text is split on whitespace; each word is consumed left to right by the
longest vocabulary piece that matches, where pieces after the first must
carry the continuation prefix "##".  A word with no full
decomposition becomes a single UNK.  Each ``Vocab`` memoises the pieces of
the words it has seen, so a repeated word is matched once.

``encode`` and ``count_tokens`` walk ``str.split()`` through that memo and
build no character spans; ``encode_with_offsets`` is the one path that
builds them, for callers that read characters back.  All token counting in
the data pipeline and dataset builders goes through this module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

from .errors import DataError

SPECIAL_PIECES = ("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]")
# Marks a piece that continues a word rather than starting one.
CONTINUATION = "##"
# \s is str.isspace() for str patterns, so these words are exactly the words
# of str.split(), which encode and count_tokens use.
_WORD = re.compile(r"\S+")
# Words a Vocab memoises at most; later new words are matched every time.
MEMO_WORDS = 1 << 16


@dataclass(frozen=True)
class Vocab:
    """Immutable piece table.  Ids are dense: id = line number in vocab.txt."""

    pieces: tuple[str, ...]
    piece_to_id: dict[str, int] = field(init=False, repr=False, compare=False)
    # word -> (token ids, characters each token covers)
    memo: dict[str, tuple[tuple[int, ...], tuple[int, ...]]] = field(
        init=False, repr=False, compare=False
    )
    # word -> number of tokens, for the same words as memo.  count_tokens
    # sums these directly: taking len() of memo's ids per word instead made
    # 10,000 haystack builds take 10.1-11.0 s instead of 7.4-9.0 s.
    memo_counts: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mapping = {}
        for i, piece in enumerate(self.pieces):
            if piece in mapping:
                raise DataError(f"duplicate vocab piece {piece!r} at ids {mapping[piece]} and {i}")
            mapping[piece] = i
        missing = [s for s in SPECIAL_PIECES if s not in mapping]
        if missing:
            raise DataError(f"vocab missing special pieces: {', '.join(missing)}")
        object.__setattr__(self, "piece_to_id", mapping)
        object.__setattr__(self, "memo", {})
        object.__setattr__(self, "memo_counts", {})

    @property
    def size(self) -> int:
        return len(self.pieces)

    @property
    def pad_id(self) -> int:
        return self.piece_to_id["[PAD]"]

    @property
    def unk_id(self) -> int:
        return self.piece_to_id["[UNK]"]

    @property
    def cls_id(self) -> int:
        return self.piece_to_id["[CLS]"]

    @property
    def sep_id(self) -> int:
        return self.piece_to_id["[SEP]"]

    @property
    def mask_id(self) -> int:
        return self.piece_to_id["[MASK]"]

    @property
    def special_ids(self) -> frozenset[int]:
        return frozenset(self.piece_to_id[s] for s in SPECIAL_PIECES)


def load_vocab(path) -> Vocab:
    """Read a newline-delimited vocab file (UTF-8); line number = id."""
    try:
        with open(path, encoding="utf-8") as fh:
            pieces = tuple(line.rstrip("\n") for line in fh)
    except (OSError, UnicodeDecodeError) as e:
        raise DataError(f"cannot read vocab {path}: {e}") from e
    while pieces and pieces[-1] == "":
        pieces = pieces[:-1]
    if not pieces:
        raise DataError(f"empty vocab file: {path}")
    return Vocab(pieces=pieces)


def save_vocab(vocab: Vocab, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for piece in vocab.pieces:
            fh.write(piece + "\n")


def _match_word(word: str, vocab: Vocab) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Greedy longest-match decomposition of one word, as (ids, characters
    each piece covers), or None if stuck."""
    table = vocab.piece_to_id
    ids: list[int] = []
    lengths: list[int] = []
    pos = 0
    n = len(word)
    while pos < n:
        end = n
        found = -1
        while end > pos:
            candidate = word[pos:end]
            if pos > 0:
                candidate = CONTINUATION + candidate
            hit = table.get(candidate)
            if hit is not None:
                found = hit
                break
            end -= 1
        if found < 0:
            return None
        ids.append(found)
        lengths.append(end - pos)
        pos = end
    return tuple(ids), tuple(lengths)


def _word_pieces(word: str, vocab: Vocab) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(ids, characters each token covers) of one word; UNK covers the whole word."""
    hit = vocab.memo.get(word)
    if hit is None:
        hit = _match_word(word, vocab) or ((vocab.unk_id,), (len(word),))
        if len(vocab.memo) < MEMO_WORDS:
            vocab.memo[word] = hit
            vocab.memo_counts[word] = len(hit[0])
    return hit


def encode_with_offsets(
    text: str, vocab: Vocab, add_specials: bool = False
) -> tuple[list[int], list[tuple[int, int]]]:
    """Encode and return per-token [start, end) character spans.

    Spans index into the original text; special tokens get empty spans.
    A word that falls back to UNK contributes one token spanning the word.
    """
    ids: list[int] = []
    spans: list[tuple[int, int]] = []
    if add_specials:
        ids.append(vocab.cls_id)
        spans.append((0, 0))
    for m in _WORD.finditer(text):
        word_ids, lengths = _word_pieces(m.group(), vocab)
        ids.extend(word_ids)
        cursor = m.start()
        for length in lengths:
            spans.append((cursor, cursor + length))
            cursor += length
    if add_specials:
        ids.append(vocab.sep_id)
        spans.append((len(text), len(text)))
    return ids, spans


def encode(text: str, vocab: Vocab, add_specials: bool = False) -> list[int]:
    """Token ids of the text, the ids of ``encode_with_offsets`` without spans."""
    words = text.split()
    # A C-level lookup when every word is memoised; mapping _word_pieces over
    # the words instead took 58-65 ms, not 29-43 ms, for a 131k-token corpus.
    try:
        pieces = list(map(vocab.memo.__getitem__, words))
    except KeyError:  # a word not in the memo: match the words one by one
        pieces = [_word_pieces(word, vocab) for word in words]
    ids = list(chain.from_iterable(map(itemgetter(0), pieces)))
    if add_specials:
        return [vocab.cls_id, *ids, vocab.sep_id]
    return ids


def count_tokens(text: str, vocab: Vocab) -> int:
    """len(encode(text, vocab)), summed from the memo without building ids."""
    words = text.split()
    try:
        return sum(map(vocab.memo_counts.__getitem__, words))
    except KeyError:  # a word not in the memo: match the words one by one
        return sum(len(_word_pieces(word, vocab)[0]) for word in words)


def decode(ids, vocab: Vocab, skip_specials: bool = True) -> str:
    """Reconstruct text: pieces joined by spaces, continuations attached."""
    words: list[str] = []
    specials = vocab.special_ids
    for raw in ids:
        i = int(raw)
        if i < 0 or i >= vocab.size:
            raise DataError(f"token id {i} out of range for vocab of size {vocab.size}")
        if skip_specials and i in specials:
            continue
        piece = vocab.pieces[i]
        if piece.startswith(CONTINUATION) and words:
            words[-1] += piece[len(CONTINUATION):]
        else:
            words.append(piece)
    return " ".join(words)


def toy_vocab(words, extra_pieces: tuple[str, ...] = ()) -> Vocab:
    """Build a small whole-word vocab for tests and synthetic corpora."""
    seen: list[str] = list(SPECIAL_PIECES)
    for w in list(words) + list(extra_pieces):
        if w not in seen:
            seen.append(w)
    return Vocab(pieces=tuple(seen))
