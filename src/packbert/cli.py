"""Command-line front end: every pipeline stage as one subcommand.

Exit codes: 0 success, 1 usage or configuration error, 2 data error,
3 numeric or training error. Heavy modules load inside handlers so that
--help stays instant.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, DataError, TrainingError


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage problems; the contract here is 1.
    def error(self, message):
        raise ConfigError(message)


def _doc_text(paragraphs) -> str:
    return "\n\n".join(paragraphs)


def _train_phase(args, train, convert=None) -> None:
    """Run one training phase and print its report line.

    It starts from ``--ckpt``, its config passed through ``convert``, or, for
    ``pretrain``, from fresh weights of the job file's architecture at the
    phase seed; an architecture the job file names must be the one trained.
    A phase that would train no token is refused before any data is read.
    ``train(params, cfg, phase, vocab)`` reads the data and runs the trainer.
    """
    from .config import TrainPhaseConfig, arch_to_pairs, read_job_config
    from .model import init_params
    from .tokenizer import load_vocab
    from .trainer import load_checkpoint

    start = load_checkpoint(args.ckpt) if "ckpt" in args else None
    arch, phase = read_job_config(args.config) if args.config else (None, None)
    phase = phase if phase is not None else TrainPhaseConfig()
    if start is None:
        if arch is None:
            raise ConfigError("pretrain requires a config file naming a preset or arch.*")
        params, cfg = init_params(arch, seed=phase.seed), arch
    else:
        params, cfg = start.params, convert(start.cfg) if convert else start.cfg
        if arch is not None and arch != cfg:
            field, value = next((f, v) for f, v in arch_to_pairs(arch) if getattr(cfg, f) != v)
            raise ConfigError(f"{args.config} names {field} = {value!r}, but this phase "
                              f"trains {field} = {getattr(cfg, field)!r}")
    if phase.token_budget == 0:
        raise ConfigError("train.token_budget is 0, so this phase would train no token: "
                          "set it in a --config file")
    result = train(params, cfg, phase, load_vocab(args.vocab))
    end = result.checkpoint
    print(f"final step={end.step} tokens={end.tokens_seen} loss={result.metrics[-1][2]:.6f}")


# ---------------------------------------------------------------------------
# Handlers


def cmd_tokenize(args) -> int:
    from .data_pipeline import read_documents, write_sequences
    from .tokenizer import encode, load_vocab

    vocab = load_vocab(args.vocab)
    docs = read_documents(args.input)
    seqs = [
        encode(_doc_text(d), vocab, add_specials=args.add_specials) for d in docs
    ]
    seqs = [s for s in seqs if s]
    write_sequences(args.out, seqs)
    print(f"tokenized {len(seqs)} documents -> {args.out}")
    return 0


def cmd_dedup(args) -> int:
    from .data_pipeline import (
        BloomFilter,
        dedup_documents,
        join_documents,
        read_documents,
    )

    docs = read_documents(args.input)
    n_paras = sum(len(d) for d in docs)
    expected = args.expected or max(n_paras, 1)
    bloom = BloomFilter.sized_for(expected, args.fp_rate, seed=args.seed)
    kept, stats = dedup_documents(docs, bloom)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(join_documents(kept), encoding="utf-8")
    print(
        f"paragraphs seen={stats.seen} survivors={stats.survivors} "
        f"dropped={stats.dropped} (bloom m={bloom.m} k={bloom.k})"
    )
    return 0


def cmd_filter(args) -> int:
    from .data_pipeline import join_documents, ratio_filter, read_documents
    from .tokenizer import load_vocab

    vocab = load_vocab(args.vocab)
    docs = read_documents(args.input)
    kept = [d for d in docs if ratio_filter(_doc_text(d), vocab, args.threshold)]
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(join_documents(kept), encoding="utf-8")
    print(
        f"documents kept={len(kept)} dropped={len(docs) - len(kept)} "
        f"threshold={args.threshold}"
    )
    return 0


def cmd_split_long(args) -> int:
    from .data_pipeline import (
        compose_report,
        read_documents,
        split_long,
        write_sequences,
    )
    from .tokenizer import load_vocab

    vocab = load_vocab(args.vocab)
    docs = read_documents(args.input)
    pieces = []
    for d in docs:
        pieces.extend(split_long(_doc_text(d), vocab, args.target))
    write_sequences(args.out, pieces)
    rep = compose_report(pieces)
    print(
        f"tokens={rep['token_count']} sequences={rep['sequence_count']} "
        f"median_length={rep['median_length']}"
    )
    return 0


def cmd_pretrain(args) -> int:
    from .data_pipeline import read_sequences
    from .trainer import train_mlm

    def train(params, cfg, phase, vocab):
        return train_mlm(params, cfg, read_sequences(args.data), phase,
                         mask_id=vocab.mask_id, special_ids=vocab.special_ids,
                         mask_policy=args.mask_policy, dropout_rate=args.dropout,
                         checkpoint_interval_tokens=args.ckpt_interval, out_dir=args.out)

    _train_phase(args, train)
    print(f"checkpoint -> {Path(args.out) / 'ckpt_final.pbt'}")
    return 0


def cmd_extend(args) -> int:
    import dataclasses

    from .context_ext import extend
    from .trainer import load_checkpoint, save_checkpoint
    from .util import params_digest

    ckpt = load_checkpoint(args.ckpt)
    before = params_digest(ckpt.params)
    _, new_cfg = extend(ckpt.params, ckpt.cfg, args.theta, args.max_len)
    out = dataclasses.replace(ckpt, cfg=new_cfg)
    save_checkpoint(out, args.out)
    print(f"params digest before={before} after={params_digest(out.params)}")
    print(
        f"global rotation base {ckpt.cfg.rope_theta_global:g} -> "
        f"{new_cfg.rope_theta_global:g}, max_seq_len {ckpt.cfg.max_seq_len} -> "
        f"{new_cfg.max_seq_len}"
    )
    return 0


def cmd_mntp(args) -> int:
    from .adapters import enable_bidirectional, save_adapters, train_mntp_adapter
    from .data_pipeline import read_sequences

    def train(params, cfg, phase, vocab):
        adapters, result = train_mntp_adapter(
            params, cfg, read_sequences(args.data), phase, mask_id=vocab.mask_id,
            special_ids=vocab.special_ids, rank=args.rank, alpha=args.alpha,
            phase_tag=args.phase_tag)
        save_adapters(adapters, args.out)
        return result

    # enable_bidirectional is a no-op on a bidirectional checkpoint.
    _train_phase(args, train, enable_bidirectional)
    print(f"adapters -> {args.out}")
    return 0


def cmd_merge_adapters(args) -> int:
    from .adapters import load_adapters, merge_into_checkpoint
    from .trainer import load_checkpoint, save_checkpoint

    ckpt = load_checkpoint(args.ckpt)
    sets = [load_adapters(p) for p in args.adapters]
    merged = merge_into_checkpoint(ckpt, sets)
    save_checkpoint(merged, args.out)
    print(
        f"absorbed phases: {merged.extra.get('absorbed_phases')} -> {args.out}"
    )
    return 0


def cmd_embed_train(args) -> int:
    from .trainer import read_triplets, train_embedder

    def train(params, cfg, phase, vocab):
        return train_embedder(params, cfg, read_triplets(args.data, vocab), phase,
                              temperature=args.temperature, out_dir=args.out)

    _train_phase(args, train)
    print(f"checkpoint -> {Path(args.out) / 'ckpt_final.pbt'}")
    return 0


def cmd_niah_gen(args) -> int:
    from .niah import build_dataset, read_qa_pairs, write_examples
    from .tokenizer import load_vocab

    vocab = load_vocab(args.vocab)
    pairs = read_qa_pairs(args.pairs)
    examples = build_dataset(
        pairs,
        args.split,
        vocab=vocab,
        seed=args.seed,
        max_distractors=args.max_distractors,
        token_cap=args.token_cap,
    )
    write_examples(args.out, examples)
    print(f"built {len(examples)} examples ({args.split}) -> {args.out}")
    return 0


def cmd_niah_eval(args) -> int:
    from .niah import evaluate, predict_example, read_examples
    from .tokenizer import load_vocab
    from .trainer import load_checkpoint

    if args.max_answer_len < 1:
        raise ConfigError(f"--max-answer-len must be >= 1, got {args.max_answer_len}")
    ckpt = load_checkpoint(args.ckpt)
    vocab = load_vocab(args.vocab)
    examples = read_examples(args.examples)
    predictions = [
        predict_example(
            ckpt.params,
            ckpt.cfg,
            ex,
            vocab,
            max_answer_len=args.max_answer_len,
        )
        for ex in examples
    ]
    report = evaluate(predictions, examples, vocab)
    for line in report.lines():
        print(line)
    return 0


def cmd_qa_finetune(args) -> int:
    from .niah import doc_tokens, read_examples
    from .trainer import SpanExample, train_span_qa

    def train(params, cfg, phase, vocab):
        limit = min(cfg.max_seq_len, phase.max_seq_len)
        examples, skipped = [], 0
        for i, ex in enumerate(read_examples(args.examples)):
            ids = doc_tokens(ex, vocab)
            if not 0 <= ex.gold_start <= ex.gold_end < ids.size:
                raise DataError(f"{args.examples}: example {i} has gold span "
                                f"{ex.gold_start}..{ex.gold_end}, outside its "
                                f"{ids.size}-token document")
            if ids.size > limit:
                skipped += 1
                continue
            examples.append(SpanExample(ids=ids, start=ex.gold_start, end=ex.gold_end))
        if skipped:
            print(f"skipped {skipped} examples over the {limit}-token limit")
        return train_span_qa(params, cfg, examples, phase, out_dir=args.out)

    _train_phase(args, train)
    print(f"checkpoint -> {Path(args.out) / 'ckpt_final.pbt'}")
    return 0


def cmd_bench(args) -> int:
    from .bench import gen_synthetic, measure, parse_spec, render_table
    from .config import preset
    from .model import init_params
    from .tokenizer import SPECIAL_PIECES
    from .trainer import load_checkpoint

    if args.ckpt:
        ckpt = load_checkpoint(args.ckpt)
        params, cfg, model_id = ckpt.params, ckpt.cfg, Path(args.ckpt).name
    else:
        cfg = preset(args.preset)
        params = init_params(cfg, seed=args.seed)
        model_id = args.preset
    paths = ("padded", "packed") if args.path == "both" else (args.path,)
    reports = []
    for spec_text in args.spec:
        spec = parse_spec(spec_text, n_docs=args.n_docs, seed=args.seed)
        dataset = gen_synthetic(
            spec,
            cfg.vocab_size,
            special_ids=range(len(SPECIAL_PIECES)),
            max_len=cfg.max_seq_len,
        )
        for path in paths:
            rep = measure(
                params,
                cfg,
                dataset,
                path,
                batch_budget=args.budget,
                reps=args.reps,
                model_id=model_id,
                spec_label=spec.describe(),
            )
            reports.append(rep)
            print(rep.to_line())
    print()
    print(render_table(reports))
    return 0


def cmd_inspect(args) -> int:
    from .config import arch_to_pairs, format_pairs, phase_to_pairs
    from .model import cache_bytes_per_token
    from .trainer import load_checkpoint, microbatch_token_cap, verify_provenance

    ckpt = load_checkpoint(args.ckpt)
    print(f"phase_id={ckpt.phase_id} step={ckpt.step} tokens_seen={ckpt.tokens_seen}")
    print(
        f"epoch={ckpt.epoch} pos_in_epoch={ckpt.pos_in_epoch} "
        f"consumed={ckpt.consumed} provenance_records={ckpt.n_provenance}"
    )
    print(f"dataset_digest={ckpt.dataset_digest}")
    print(f"tensors={len(ckpt.params)} opt_t={ckpt.opt.t}")
    # What one training microbatch of this architecture holds per token.
    itemsize = ckpt.params["tok_emb"].itemsize
    per_token = cache_bytes_per_token(ckpt.cfg, itemsize, False)
    print(
        f"cache_bytes_per_token={per_token} "
        f"microbatch_token_cap={microbatch_token_cap(ckpt.cfg, itemsize, False)} "
        f"(dropout off; dropout adds {cache_bytes_per_token(ckpt.cfg, itemsize, True) - per_token})"
    )
    if ckpt.extra:
        print(f"extra={json.dumps(ckpt.extra, sort_keys=True)}")
    print(format_pairs(arch_to_pairs(ckpt.cfg)).rstrip())
    # The phase, in the job-file namespace: the one source of the optimizer settings.
    print(format_pairs((f"train.{k}", v) for k, v in phase_to_pairs(ckpt.phase)).rstrip())
    log = ckpt.provenance
    steps = f" steps {log[0].step}..{log[-1].step}" if log else ""
    try:
        verify_provenance(log, ckpt.phase.seed)
        verdict = "ok"
    except TrainingError as e:
        verdict = f"FAILED ({e})"
    print(f"provenance: {len(log)} records{steps} verify={verdict}")
    return 0 if verdict == "ok" else 3


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> _Parser:
    parser = _Parser(prog="packbert", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    def add_phase(name, func, help_text, data="--data", **data_kw):
        # The flags of every training command; pretrain alone starts from no
        # checkpoint and so needs a job file naming the architecture.
        p = add(name, func, help_text)
        if name != "pretrain":
            p.add_argument("--ckpt", required=True)
        p.add_argument("--vocab", required=True)
        p.add_argument(data, required=True, **data_kw)
        p.add_argument("--out", required=True)
        p.add_argument("--config", required=name == "pretrain", default=None)
        return p

    p = add("tokenize", cmd_tokenize, "tokenize a text corpus into sequences")
    p.add_argument("--vocab", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--add-specials", action="store_true")

    p = add("dedup", cmd_dedup, "drop exact-duplicate paragraphs")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--expected", type=int, default=0, help="expected distinct items")
    p.add_argument("--fp-rate", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)

    p = add("filter", cmd_filter, "drop documents with a poor token/word ratio")
    p.add_argument("--vocab", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold", type=float, default=2.5)

    p = add("split-long", cmd_split_long, "split documents into bounded sequences")
    p.add_argument("--vocab", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--target", type=int, default=8192)

    p = add_phase("pretrain", cmd_pretrain, "masked-token pretraining")
    p.add_argument("--mask-policy", default="all_mask")
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--ckpt-interval", type=int, default=0)

    p = add("extend", cmd_extend, "raise the global rotation base and max length")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--theta", type=float, default=160_000.0)
    p.add_argument("--max-len", type=int, default=8192)
    p.add_argument("--out", required=True)

    p = add_phase("mntp", cmd_mntp, "train low-rank adapters with shifted masking")
    p.add_argument("--rank", type=int, default=16)
    p.add_argument("--alpha", type=float, default=32.0)
    p.add_argument("--phase-tag", default="ext1")

    p = add("merge-adapters", cmd_merge_adapters, "fold adapters into the weights")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--adapters", nargs="+", required=True)
    p.add_argument("--out", required=True)

    p = add_phase("embed-train", cmd_embed_train, "contrastive embedding fine-tune",
                  help="JSONL triplets")
    p.add_argument("--temperature", type=float, default=0.05)

    p = add("niah-gen", cmd_niah_gen, "build haystack examples from QA pairs")
    p.add_argument("--pairs", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--split", choices=("train", "test"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--max-distractors", type=int, default=None)
    p.add_argument("--token-cap", type=int, default=None)

    p = add("niah-eval", cmd_niah_eval, "exact-match evaluation with length buckets")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--examples", required=True)
    p.add_argument("--max-answer-len", type=int, default=30)

    add_phase("qa-finetune", cmd_qa_finetune, "span-extraction fine-tune on haystacks",
              data="--examples")

    p = add("bench", cmd_bench, "padded vs packed throughput")
    p.add_argument("--ckpt", default=None)
    p.add_argument("--preset", default="tiny_test")
    p.add_argument("--spec", action="append", required=True,
                   help="fixed:LEN or normal:MEAN:SPREAD, repeatable")
    p.add_argument("--path", choices=("padded", "packed", "both"), default="both")
    p.add_argument("--budget", type=int, default=16384)
    p.add_argument("--reps", type=int, default=10)
    p.add_argument("--n-docs", type=int, default=8192)
    p.add_argument("--seed", type=int, default=0)

    p = add("inspect", cmd_inspect, "print checkpoint metadata and verify its provenance log")
    p.add_argument("--ckpt", required=True)

    return parser


def main(argv=None) -> int:
    import logging

    logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return int(args.func(args) or 0)
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except TrainingError as e:
        print(f"training error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
