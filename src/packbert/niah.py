"""Needle-in-a-haystack QA: dataset construction and exact-match scoring.

Each example hides one answer-bearing paragraph among sampled distractors
under a token cap, with the gold answer re-anchored to token coordinates
of the assembled document. Scoring is exact string match on the text the
predicted token span covers, bucketed by document length.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .model import forward, predict_span, span_logits
from .packing import pack
from .tokenizer import Vocab, count_tokens, encode, encode_with_offsets
from .util import PURPOSE_NIAH, derived_rng, read_jsonl

logger = logging.getLogger("packbert.niah")

SPLITS = {
    # split -> (max distractors, token cap)
    "train": (3, 1024),
    "test": (20, 8192),
}

BUCKET_EDGES = (1024, 4096)  # short < 1024 <= medium < 4096 <= long


@dataclass(frozen=True)
class QAPair:
    question: str
    needle: str  # the answer-bearing paragraph
    answer: str
    answer_start: int  # character offset of the answer inside the needle

    def __post_init__(self):
        end = self.answer_start + len(self.answer)
        if not self.answer:
            raise DataError("empty answer")
        if (
            self.answer_start < 0
            or end > len(self.needle)
            or self.needle[self.answer_start : end] != self.answer
        ):
            raise DataError(
                f"answer does not occur in the needle at offset {self.answer_start}"
            )


@dataclass(frozen=True)
class HaystackExample:
    question: str
    paragraphs: tuple  # document in final order
    needle_index: int
    gold_start: int  # inclusive token index into the document's tokens
    gold_end: int
    answer: str
    total_tokens: int


def answer_token_span(pair: QAPair, vocab: Vocab):
    """Needle-local token span whose characters are exactly the answer.

    Returns (first, last) inclusive or None when the answer does not land
    on token boundaries under this vocabulary.
    """
    _, spans = encode_with_offsets(pair.needle, vocab, add_specials=False)
    end_char = pair.answer_start + len(pair.answer)
    first = next(
        (i for i, (s, _) in enumerate(spans) if s == pair.answer_start), None
    )
    if first is None:
        return None
    last = next(
        (j for j in range(first, len(spans)) if spans[j][1] == end_char), None
    )
    if last is None:
        return None
    return first, last


def build_haystack(
    pair: QAPair,
    pool,
    max_distractors: int,
    token_cap: int,
    rng: np.random.Generator,
    *,
    vocab: Vocab,
    distractor_count: int | None = None,
    pool_lens=None,
) -> HaystackExample:
    """Assemble one example: needle plus filtered distractors, shuffled.

    The distractor count is drawn uniformly from {0..max_distractors}
    unless forced; candidates containing the answer string are rejected;
    a candidate that would push the document over the cap stops the fill.
    """
    if max_distractors < 0 or token_cap < 1:
        raise ConfigError(
            f"need max_distractors >= 0 and token_cap >= 1, "
            f"got {max_distractors}, {token_cap}"
        )
    needle_ids = encode(pair.needle, vocab, add_specials=False)
    if len(needle_ids) > token_cap:
        raise DataError(
            f"needle has {len(needle_ids)} tokens, over the {token_cap} cap"
        )
    local = answer_token_span(pair, vocab)
    if local is None:
        raise DataError("answer is not aligned to token boundaries in the needle")

    want = (
        int(rng.integers(0, max_distractors + 1))
        if distractor_count is None
        else distractor_count
    )
    total = len(needle_ids)
    chosen, chosen_lens = [], []
    if want and len(pool):
        for idx in rng.permutation(len(pool)):
            if len(chosen) == want:
                break
            cand = pool[int(idx)]
            if pair.answer in cand:
                continue  # leak: the answer must occur only in the needle
            # Without given lengths, only the candidates visited are counted.
            n = count_tokens(cand, vocab) if pool_lens is None else pool_lens[int(idx)]
            if total + n > token_cap:
                break
            chosen.append(cand)
            chosen_lens.append(n)
            total += n

    paras = [pair.needle] + chosen
    lens = [len(needle_ids)] + chosen_lens
    order = rng.permutation(len(paras))
    arranged = tuple(paras[int(i)] for i in order)
    needle_index = int(np.flatnonzero(order == 0)[0])
    offset = sum(lens[int(i)] for i in order[:needle_index])
    return HaystackExample(
        question=pair.question,
        paragraphs=arranged,
        needle_index=needle_index,
        gold_start=offset + local[0],
        gold_end=offset + local[1],
        answer=pair.answer,
        total_tokens=total,
    )


def build_dataset(
    pairs,
    split: str,
    *,
    vocab: Vocab,
    seed: int = 0,
    pool=None,
    max_distractors: int | None = None,
    token_cap: int | None = None,
) -> list[HaystackExample]:
    """One example per pair, deterministic under the seed; bad pairs skipped.

    The default distractor pool is the needle paragraphs of the other
    pairs; a pair's own needle never distracts itself.
    """
    if split not in SPLITS:
        raise ConfigError(f"unknown split {split!r}; expected one of {sorted(SPLITS)}")
    d_default, cap_default = SPLITS[split]
    max_d = d_default if max_distractors is None else max_distractors
    cap = cap_default if token_cap is None else token_cap
    shared_pool = pool if pool is not None else [p.needle for p in pairs]
    shared_lens = [count_tokens(p, vocab) for p in shared_pool]
    out = []
    for i, pair in enumerate(pairs):
        if pool is None:
            cand = [p for j, p in enumerate(shared_pool) if j != i]
            lens = [l for j, l in enumerate(shared_lens) if j != i]
        else:
            cand, lens = shared_pool, shared_lens
        rng = derived_rng(seed, PURPOSE_NIAH, i)
        try:
            out.append(
                build_haystack(
                    pair,
                    cand,
                    max_d,
                    cap,
                    rng,
                    vocab=vocab,
                    pool_lens=lens,
                )
            )
        except DataError as e:
            logger.info("skipping pair %d: %s", i, e)
    return out


def doc_tokens(example: HaystackExample, vocab: Vocab) -> np.ndarray:
    # Words never span whitespace, so the joined document encodes to the
    # paragraphs' tokens end to end.
    return np.asarray(encode(" ".join(example.paragraphs), vocab), dtype=np.int32)


def span_text(example: HaystackExample, vocab: Vocab, start: int, end: int) -> str:
    """Characters covered by an inclusive document-token span.

    Pieces from different paragraphs join with a blank line, mirroring how
    the document would be rendered; a span inside one paragraph is an
    exact substring of it.
    """
    if start > end or start < 0:
        return ""
    pieces = []
    base = 0
    for para in example.paragraphs:
        if base > end:
            break
        n = count_tokens(para, vocab)
        lo, hi = max(start - base, 0), min(end - base, n - 1)
        if lo <= hi:  # only a paragraph the span touches needs character spans
            _, spans = encode_with_offsets(para, vocab)
            pieces.append(para[spans[lo][0] : spans[hi][1]])
        base += n
    return "\n\n".join(pieces)


# ---------------------------------------------------------------------------
# Line-delimited persistence


def write_examples(path, examples) -> None:
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        for ex in examples:
            f.write(
                json.dumps(
                    {
                        "question": ex.question,
                        "paragraphs": list(ex.paragraphs),
                        "needle_index": ex.needle_index,
                        "gold_start": ex.gold_start,
                        "gold_end": ex.gold_end,
                        "answer": ex.answer,
                        "total_tokens": ex.total_tokens,
                    },
                    ensure_ascii=False,
                    sort_keys=True,
                    separators=(",", ":"),
                )
            )
            f.write("\n")


def read_examples(path) -> list[HaystackExample]:
    fields = {"question": str, "paragraphs": list, "needle_index": int, "gold_start": int,
              "gold_end": int, "answer": str, "total_tokens": int}
    return read_jsonl(path, "example", fields,
                      lambda r: HaystackExample(**{**r, "paragraphs": tuple(r["paragraphs"])}))


def read_qa_pairs(path) -> list[QAPair]:
    """SQuAD-style records: question, context, answer, answer_start."""
    fields = {"question": str, "context": str, "answer": str, "answer_start": int}
    return read_jsonl(path, "QA pair", fields, lambda r: QAPair(
        question=r["question"], needle=r["context"], answer=r["answer"],
        answer_start=r["answer_start"]))


# ---------------------------------------------------------------------------
# Prediction and scoring


def predict_example(
    params,
    cfg,
    example: HaystackExample,
    vocab: Vocab,
    *,
    max_answer_len: int = 30,
):
    """Predicted (start, end) document-token span, truncating to the model max.

    Documents longer than the model's limit lose their tail; a gold span
    past the cut simply cannot be matched, which is the honest behavior of
    a short-context model on a long document.
    """
    ids = doc_tokens(example, vocab)[: cfg.max_seq_len]
    out = forward(params, cfg, pack([ids]))
    start_sc, end_sc = span_logits(out.hidden, params)
    return predict_span(start_sc, end_sc, max_answer_len)


@dataclass
class EvalReport:
    exact_match: float
    n_examples: int
    buckets: dict  # label -> (em, count)
    missing: int

    def lines(self) -> list[str]:
        rows = [
            f"examples={self.n_examples} exact_match={self.exact_match:.4f} "
            f"missing={self.missing}"
        ]
        for label, (em, count) in self.buckets.items():
            rows.append(f"bucket={label} count={count} exact_match={em:.4f}")
        return rows


def bucket_of(total_tokens: int) -> str:
    if total_tokens < BUCKET_EDGES[0]:
        return "<1024"
    if total_tokens < BUCKET_EDGES[1]:
        return "1024-4095"
    return "4096-8192"


def evaluate(predictions, examples, vocab: Vocab) -> EvalReport:
    """Exact match of predicted span text against the gold answer string."""
    if len(predictions) != len(examples):
        raise DataError(
            f"got {len(predictions)} predictions for {len(examples)} examples"
        )
    hits = {label: [0, 0] for label in ("<1024", "1024-4095", "4096-8192")}
    correct = 0
    missing = 0
    for pred, ex in zip(predictions, examples):
        label = bucket_of(ex.total_tokens)
        hits[label][1] += 1
        if pred is None:
            missing += 1
            continue
        text = span_text(ex, vocab, int(pred[0]), int(pred[1]))
        if text == ex.answer:
            correct += 1
            hits[label][0] += 1
    buckets = {
        label: ((c / n if n else 0.0), n) for label, (c, n) in hits.items()
    }
    return EvalReport(
        exact_match=correct / len(examples) if examples else 0.0,
        n_examples=len(examples),
        buckets=buckets,
        missing=missing,
    )
