"""Acceptance gate: one verdict line per shipped claim, at its stated bound.

Run `pytest tests/test_acceptance.py -s` to watch the verdicts stream; each
test computes its checks first, prints PASS or FAIL, then asserts, so the
line is emitted either way. Criteria with a wall-clock ceiling include the
elapsed time in the verdict.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from packbert import config
from packbert.adapters import (
    apply_adapters,
    enable_bidirectional,
    init_adapters,
    runtime_extras,
    train_mntp_adapter,
)
from packbert.bench import (
    SyntheticSpec,
    gen_synthetic,
    measure,
    packed_positions,
    padded_positions,
    render_table,
)
from packbert.config import TrainPhaseConfig
from packbert.context_ext import extend
from packbert.data_pipeline import BloomFilter, dedup_documents, split_long
from packbert.model import (
    backward,
    forward,
    forward_padded,
    init_params,
    mlm_logits,
    mlm_logits_vjp,
    zeros_like_params,
)
from packbert.niah import (
    QAPair,
    build_dataset,
    build_haystack,
    bucket_of,
    doc_tokens,
    evaluate,
    predict_example,
    span_text,
)
from packbert.objectives import IGNORE, info_nce, mlm_loss
from packbert.optim import OptState, lr_at, step
from packbert.packing import pack
from packbert.rope import apply_rope, build_rope_table
from packbert.tokenizer import count_tokens, encode, toy_vocab
from packbert.trainer import (
    SpanExample,
    Triplet,
    load_checkpoint,
    resume_masked,
    retrieval_accuracy,
    save_checkpoint,
    train_embedder,
    train_mlm,
    train_span_qa,
)
from packbert.util import params_digest

SPECIALS = (0, 1, 2, 3, 4)
MASK_ID = 4


def verdict(num, name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:02d} {name}: {detail}"
    print(line, flush=True)
    assert ok, line


# -----------------------------------------------------------------------------


def test_criterion_01_packed_equals_padded():
    t0 = time.perf_counter()
    cfg = config.preset("tiny_test")
    params = init_params(cfg, seed=0)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        seqs = [
            rng.integers(5, cfg.vocab_size, size=int(rng.integers(1, 65)),
                         dtype=np.int32)
            for _ in range(n)
        ]
        batch = pack(seqs)
        hidden = forward(params, cfg, batch).hidden
        lmax = max(len(s) for s in seqs)
        ids = np.zeros((n, lmax), dtype=np.int32)
        for i, s in enumerate(seqs):
            ids[i, : len(s)] = s
        lengths = np.asarray([len(s) for s in seqs], dtype=np.int64)
        padded = forward_padded(params, cfg, ids, lengths)
        for i in range(n):
            lo, hi = int(batch.boundaries[i]), int(batch.boundaries[i + 1])
            diff = float(np.abs(hidden[lo:hi] - padded[i, : hi - lo]).max())
            worst = max(worst, diff)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-5 and dt < 60
    verdict(1, "packed equals padded", ok,
            f"worst abs diff {worst:.2e} over 100 batches (bound 1e-5), "
            f"{dt:.1f}s (limit 60s)")


def test_criterion_02_gradient_check():
    t0 = time.perf_counter()
    cfg = dataclasses.replace(config.preset("tiny_test"), max_seq_len=32)
    params = {
        k: v.astype(np.float64)
        for k, v in init_params(cfg, seed=0).items()
    }
    rng = np.random.default_rng(7)
    seqs = [rng.integers(0, cfg.vocab_size, size=n, dtype=np.int32)
            for n in (6, 11)]
    batch = pack(seqs)
    labels = np.full(batch.total_tokens, IGNORE, dtype=np.int64)
    masked = rng.choice(batch.total_tokens, size=5, replace=False)
    labels[masked] = rng.integers(0, cfg.vocab_size, size=5)

    def loss_of():
        out = forward(params, cfg, batch, want_cache=True)
        logits = mlm_logits(out.hidden, params)
        loss, d_logits = mlm_loss(logits, labels)
        return loss, out, d_logits

    _, out, d_logits = loss_of()
    grads = zeros_like_params(params)
    d_hidden = mlm_logits_vjp(d_logits, out.hidden, params, grads)
    backward(params, cfg, out.cache, d_hidden, grads)

    eps = 1e-4
    worst = 0.0
    for name in sorted(params):
        flat = params[name].reshape(-1)
        g = grads[name].reshape(-1)
        for _ in range(8):
            i = int(rng.integers(flat.size))
            orig = flat[i]
            flat[i] = orig + eps
            up, _, _ = loss_of()
            flat[i] = orig - eps
            down, _, _ = loss_of()
            flat[i] = orig
            fd = (up - down) / (2 * eps)
            # The floor keeps central-difference noise out of the ratio
            # when both readings are effectively zero.
            worst = max(worst, abs(fd - g[i]) / max(abs(fd), abs(g[i]), 1e-6))
    dt = time.perf_counter() - t0
    ok = worst <= 1e-4 and dt < 300
    verdict(2, "finite-difference gradients", ok,
            f"worst rel err {worst:.2e} across {len(params)} tensors in 64-bit "
            f"(bound 1e-4), {dt:.1f}s (limit 300s)")


def test_criterion_03_rotation_relative_position():
    head_dim, max_pos = 32, 4096
    table = build_rope_table(10_000.0, head_dim, max_pos)
    rng = np.random.default_rng(11)
    x = rng.normal(size=(5, head_dim))
    rotated = apply_rope(x, np.zeros(5, dtype=np.int64), table)
    zero_exact = np.array_equal(rotated, x)

    worst = 0.0
    for _ in range(1000):
        q = rng.normal(size=head_dim)
        k = rng.normal(size=head_dim)
        p_q, p_k = rng.integers(0, max_pos // 2, size=2)
        shift = int(rng.integers(0, max_pos // 2))
        pos = np.asarray([p_q, p_k, p_q + shift, p_k + shift], dtype=np.int64)
        rq, rk, sq, sk = apply_rope(np.stack([q, k, q, k]), pos, table)
        worst = max(worst, abs(float(rq @ rk) - float(sq @ sk)))
    ok = zero_exact and worst <= 1e-6
    verdict(3, "rotation depends only on relative position", ok,
            f"position-0 exact={zero_exact}, worst dot-product drift "
            f"{worst:.2e} over 1000 draws (bound 1e-6)")


def _zipf_mlm_run():
    cfg = dataclasses.replace(config.preset("tiny_test"), vocab_size=64)
    ids = np.arange(5, 64)
    weights = 1.0 / np.arange(1, ids.size + 1) ** 1.4
    probs = weights / weights.sum()
    rng = np.random.default_rng(0)
    dataset = [
        rng.choice(ids, size=int(n), p=probs).astype(np.int32)
        for n in rng.integers(24, 40, size=512)
    ]
    phase = TrainPhaseConfig(
        token_budget=400_000, batch_tokens_or_sequences=16, microbatch=16,
        peak_lr=3e-3, schedule="trapezoidal", warmup_tokens=20_000,
        decay_tokens=100_000, weight_decay=0.0, mask_rate=0.3, seed=1,
        max_seq_len=512,
    )
    params = init_params(cfg, seed=0)
    result = train_mlm(params, cfg, dataset, phase,
                       mask_id=MASK_ID, special_ids=SPECIALS)
    return result


def test_criterion_04_toy_pretraining_converges():
    t0 = time.perf_counter()
    first = _zipf_mlm_run()
    second = _zipf_mlm_run()
    dt = time.perf_counter() - t0
    steps = first.metrics[-1][0]
    final = first.metrics[-1][2]
    target = 0.7 * math.log(64)
    identical = (
        params_digest(first.checkpoint.params)
        == params_digest(second.checkpoint.params)
        and first.metrics == second.metrics
    )
    ok = final <= target and steps <= 2000 and identical and dt < 600
    verdict(4, "toy pretraining on skewed synthetic text", ok,
            f"loss {final:.3f} <= {target:.3f} at step {steps} (limit 2000), "
            f"rerun bit-identical={identical}, {dt:.1f}s (limit 600s)")


def test_criterion_05_resume_determinism(tmp_path):
    cfg = config.preset("tiny_test")
    rng = np.random.default_rng(0)
    data = [rng.integers(5, 256, size=int(rng.integers(5, 20)), dtype=np.int32)
            for _ in range(8)]

    def phase(budget):
        return TrainPhaseConfig(
            token_budget=budget, batch_tokens_or_sequences=4, microbatch=2,
            peak_lr=1e-3, schedule="constant", weight_decay=0.0, seed=7,
            max_seq_len=512,
        )

    def run(budget):
        return train_mlm(init_params(cfg, seed=0), cfg, data, phase(budget),
                         mask_id=MASK_ID, special_ids=SPECIALS)

    full = run(1200)
    half = run(600)
    path = tmp_path / "half.pbt"
    save_checkpoint(half.checkpoint, path)
    loaded = load_checkpoint(path)
    loaded.phase = phase(1200)
    resumed = resume_masked(loaded, data, mask_id=MASK_ID, special_ids=SPECIALS)

    params_equal = all(
        np.array_equal(resumed.checkpoint.params[k], full.checkpoint.params[k])
        for k in full.checkpoint.params
    )
    opt_equal = all(
        np.array_equal(resumed.checkpoint.opt.m[k], full.checkpoint.opt.m[k])
        and np.array_equal(resumed.checkpoint.opt.v[k], full.checkpoint.opt.v[k])
        for k in full.checkpoint.params
    )
    stitched = half.provenance + resumed.provenance
    replay_equal = stitched == full.provenance
    ok = params_equal and opt_equal and replay_equal
    verdict(5, "interrupt and resume", ok,
            f"params bit-exact={params_equal}, optimizer state bit-exact="
            f"{opt_equal}, provenance replay identical={replay_equal}")


def test_criterion_06_conversion_contracts():
    t0 = time.perf_counter()
    causal_cfg = dataclasses.replace(
        config.preset("tiny_test"), attention_mode="causal", vocab_size=64
    )
    params = init_params(causal_cfg, seed=3)
    bi_cfg = enable_bidirectional(causal_cfg)

    # Witness: suffix edits cannot reach earlier positions under the causal
    # mask, and must reach them once the mask is replaced.
    rng = np.random.default_rng(1)
    ids = rng.integers(5, 64, size=24, dtype=np.int32)
    edited = ids.copy()
    edited[20] = (edited[20] + 1 - 5) % 59 + 5
    causal_a = forward(params, causal_cfg, pack([ids])).hidden[:20]
    causal_b = forward(params, causal_cfg, pack([edited])).hidden[:20]
    bi_a = forward(params, bi_cfg, pack([ids])).hidden[:20]
    bi_b = forward(params, bi_cfg, pack([edited])).hidden[:20]
    witness_pre = np.array_equal(causal_a, causal_b)
    witness_post = float(np.abs(bi_a - bi_b).max()) > 1e-7

    # A never-trained adapter must not move the model.
    fresh = init_adapters(params, bi_cfg, rank=8, alpha=16.0, phase_tag="ext1")
    probe = pack([rng.integers(5, 64, size=17, dtype=np.int32)])
    base_h = forward(params, bi_cfg, probe).hidden
    merged_h = forward(apply_adapters(params, [fresh]), bi_cfg, probe).hidden
    runtime_h = forward(params, bi_cfg, probe,
                        extra_linear=runtime_extras(fresh)).hidden
    zero_identity = (
        float(np.abs(merged_h - base_h).max()) <= 1e-7
        and float(np.abs(runtime_h - base_h).max()) <= 1e-7
    )

    # Shifted masked prediction on cyclic token motifs, adapters only.
    motif_rng = np.random.default_rng(7)
    motifs = [motif_rng.integers(5, 64, size=2) for _ in range(4)]
    dataset = [np.tile(motifs[i % 4], 16).astype(np.int32) for i in range(128)]
    phase = TrainPhaseConfig(
        token_budget=160_000, batch_tokens_or_sequences=16, microbatch=16,
        peak_lr=8e-3, schedule="trapezoidal", warmup_tokens=10_000,
        decay_tokens=60_000, weight_decay=0.0, mask_rate=0.3, seed=5,
        max_seq_len=512,
    )
    first_set, result = train_mntp_adapter(
        params, bi_cfg, dataset, phase, mask_id=MASK_ID, special_ids=SPECIALS,
        rank=8, alpha=16.0, phase_tag="ext1",
    )
    start_loss = result.metrics[0][2]
    end_loss = result.metrics[-1][2]
    drop = 1.0 - end_loss / start_loss

    second_phase = dataclasses.replace(
        phase, token_budget=20_000, seed=6, schedule="constant",
        warmup_tokens=0, decay_tokens=0,
    )
    second_set, _ = train_mntp_adapter(
        params, bi_cfg, dataset, second_phase, mask_id=MASK_ID,
        special_ids=SPECIALS, rank=8, alpha=16.0, phase_tag="ext2",
        adapter_seed=1,
    )
    combined = apply_adapters(params, [first_set, second_set])
    sequential = apply_adapters(apply_adapters(params, [first_set]),
                                [second_set])
    merge_exact = all(
        np.array_equal(combined[k], sequential[k]) for k in combined
    )
    dt = time.perf_counter() - t0
    ok = (witness_pre and witness_post and zero_identity and merge_exact
          and drop >= 0.20)
    verdict(6, "decoder-to-encoder conversion", ok,
            f"witness pre/post={witness_pre}/{witness_post}, zero-adapter "
            f"identity={zero_identity}, merge exact={merge_exact}, shifted-"
            f"mask loss drop {drop:.1%} (need >= 20%), {dt:.1f}s")


def _haystack_setup():
    filler = [f"w{i:02d}" for i in range(40)]
    answers = [f"key{i}" for i in range(8)]
    template = ["the", "secret", "code", "for", "box", "is", "as", "noted",
                "today"]
    vocab = toy_vocab(filler + answers + template)

    def make_pairs(rng, n):
        pairs = []
        for _ in range(n):
            ans = answers[int(rng.integers(0, len(answers)))]
            head = ["the", "secret", "code", "for", "box",
                    f"w{int(rng.integers(0, 40)):02d}", "is"]
            text = " ".join(head + [ans] + ["as", "noted", "today"])
            start = len(" ".join(head)) + 1
            pairs.append(QAPair(question="code", needle=text, answer=ans,
                                answer_start=start))
        return pairs

    pool_rng = np.random.default_rng(42)
    pool = [
        " ".join(filler[int(pool_rng.integers(0, 40))]
                 for _ in range(int(pool_rng.integers(80, 121))))
        for _ in range(48)
    ]
    return vocab, make_pairs, pool


def test_criterion_07_context_extension():
    t0 = time.perf_counter()
    vocab, make_pairs, pool = _haystack_setup()
    short_train = build_dataset(make_pairs(np.random.default_rng(1), 24),
                                "train", vocab=vocab, seed=10, pool=pool,
                                max_distractors=3, token_cap=480)
    long_train = build_dataset(make_pairs(np.random.default_rng(2), 24),
                               "test", vocab=vocab, seed=11, pool=pool,
                               max_distractors=30, token_cap=4000)
    eval_all = build_dataset(make_pairs(np.random.default_rng(3), 24),
                             "test", vocab=vocab, seed=12, pool=pool,
                             max_distractors=30, token_cap=4000)
    medium = [e for e in eval_all if bucket_of(e.total_tokens) == "1024-4095"]

    def spans(examples, limit):
        out = []
        for ex in examples:
            ids = doc_tokens(ex, vocab)
            if ids.size <= limit and ex.gold_end < ids.size:
                out.append(SpanExample(ids=ids, start=ex.gold_start,
                                       end=ex.gold_end))
        return out

    short_cfg = dataclasses.replace(config.preset("tiny_test"),
                                    rope_theta_global=10_000.0,
                                    max_seq_len=512)
    base = init_params(short_cfg, seed=5)
    short_phase = TrainPhaseConfig(
        token_budget=60_000, batch_tokens_or_sequences=4, microbatch=2,
        peak_lr=2e-3, schedule="constant", weight_decay=0.0, seed=13,
        max_seq_len=512,
    )
    base_ft = train_span_qa(base, short_cfg, spans(short_train, 512),
                            short_phase).checkpoint.params

    digest_before = params_digest(base_ft)
    ext_params, long_cfg = extend(base_ft, short_cfg, 160_000.0, 8192)
    digest_preserved = params_digest(ext_params) == digest_before

    long_phase = TrainPhaseConfig(
        token_budget=120_000, batch_tokens_or_sequences=2, microbatch=1,
        peak_lr=1e-3, schedule="constant", weight_decay=0.0, seed=14,
        max_seq_len=8192,
    )
    ext_ft = train_span_qa(ext_params, long_cfg, spans(long_train, 8192),
                           long_phase).checkpoint.params

    em_base = evaluate(
        [predict_example(base_ft, short_cfg, ex, vocab) for ex in medium],
        medium, vocab).exact_match
    em_ext = evaluate(
        [predict_example(ext_ft, long_cfg, ex, vocab) for ex in medium],
        medium, vocab).exact_match
    dt = time.perf_counter() - t0
    ok = (digest_preserved and len(medium) >= 10 and em_ext > em_base
          and dt < 1800)
    verdict(7, "context extension", ok,
            f"weight digests preserved={digest_preserved}, medium-bucket "
            f"exact match {em_base:.3f} -> {em_ext:.3f} over {len(medium)} "
            f"docs (need strict increase), {dt:.1f}s (limit 1800s)")


def test_criterion_08_haystack_validity():
    t0 = time.perf_counter()
    vocab, make_pairs, pool = _haystack_setup()
    pair = make_pairs(np.random.default_rng(9), 1)[0]
    cap = 2048
    rng = np.random.default_rng(99)
    counts = np.zeros(4, dtype=int)
    leaks = caps_broken = gold_broken = 0
    n = 10_000
    for _ in range(n):
        ex = build_haystack(pair, pool, 3, cap, rng, vocab=vocab,
                            distractor_count=3)
        counts[ex.needle_index] += 1
        if any(pair.answer in p
               for i, p in enumerate(ex.paragraphs) if i != ex.needle_index):
            leaks += 1
        if ex.total_tokens > cap:
            caps_broken += 1
        if span_text(ex, vocab, ex.gold_start, ex.gold_end) != ex.answer:
            gold_broken += 1
    freqs = counts / n
    uniform = bool(np.all(np.abs(freqs - 0.25) <= 0.02))

    pairs = make_pairs(np.random.default_rng(3), 12)
    regen = (
        build_dataset(pairs, "train", vocab=vocab, seed=4, pool=pool)
        == build_dataset(pairs, "train", vocab=vocab, seed=4, pool=pool)
    )
    dt = time.perf_counter() - t0
    ok = (leaks == 0 and caps_broken == 0 and gold_broken == 0 and uniform
          and regen)
    verdict(8, "haystack dataset validity", ok,
            f"leaks={leaks}, cap violations={caps_broken}, bad gold spans="
            f"{gold_broken} over {n} builds, slot freqs "
            f"{np.round(freqs, 3).tolist()} within 0.25±0.02={uniform}, "
            f"regeneration deterministic={regen}, {dt:.1f}s")


def test_criterion_09_optimizer_and_schedule():
    sched = TrainPhaseConfig(token_budget=1000, peak_lr=8e-4,
                             warmup_tokens=100, decay_tokens=400)
    schedule_exact = (
        lr_at(0, sched) == 0.0
        and lr_at(100, sched) == 8e-4
        and abs(lr_at(700, sched) - 4e-4) <= 1e-18
        and lr_at(1000, sched) == 0.0
    )

    rng = np.random.default_rng(0)
    theta0 = rng.normal(size=5)
    g = rng.normal(size=5)
    lr, wd, eps = 1e-3, 0.01, 1e-6
    params = {"w": theta0.copy()}
    phase = TrainPhaseConfig(token_budget=1000, betas=(0.9, 0.98), eps=eps,
                             weight_decay=wd)
    state = OptState.init(params, phase)
    step(params, {"w": g.copy()}, state, lr, clipping=False)
    expect = theta0 * (1 - lr * wd) - lr * g / (np.abs(g) + eps)
    first_step = float(np.abs(params["w"] - expect).max())

    huge = rng.normal(size=64) * 1e6
    params2 = {"w": rng.normal(size=64)}
    before = params2["w"].copy()
    state2 = OptState.init(params2, dataclasses.replace(phase,
                                                        weight_decay=0.0))
    step(params2, {"w": huge}, state2, 1e-2, clipping=True)
    rms = math.sqrt(float(np.mean((params2["w"] - before) ** 2)))
    clip_holds = rms <= 1e-2 * (1 + 1e-12)

    ok = schedule_exact and first_step <= 1e-10 and clip_holds
    verdict(9, "optimizer and schedule exactness", ok,
            f"schedule boundary values exact={schedule_exact}, first-step "
            f"closed form err {first_step:.2e} (bound 1e-10), update rms "
            f"{rms:.6f} <= lr under 1e6-scaled gradients={clip_holds}")


def test_criterion_10_contrastive_objective_and_embedder():
    t0 = time.perf_counter()
    q = np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (64, 1))
    negs = np.tile(q[None, 0], (64, 1, 1))
    loss = info_nce(q, q.copy(), negs, temperature=0.05)
    analytic = abs(loss - math.log(128)) <= 1e-6

    cfg = config.preset("tiny_test")
    n_topics, width = 16, 12

    def topic_text(rng, topic, n):
        lo = 8 + width * topic
        return rng.integers(lo, lo + width, size=n).astype(np.int32)

    def make_triplets(rng, count):
        out = []
        for i in range(count):
            topic = i % n_topics
            others = [t for t in range(n_topics) if t != topic]
            out.append(Triplet(
                query=topic_text(rng, topic, int(rng.integers(6, 11))),
                positive=topic_text(rng, topic, int(rng.integers(6, 11))),
                negatives=tuple(
                    topic_text(rng, int(o), int(rng.integers(6, 11)))
                    for o in rng.choice(others, size=2, replace=False)
                ),
            ))
        return out

    train = make_triplets(np.random.default_rng(1), 64)
    held = make_triplets(np.random.default_rng(2), 32)
    params = init_params(cfg, seed=0)
    phase = TrainPhaseConfig(
        token_budget=30_000, batch_tokens_or_sequences=4, microbatch=4,
        peak_lr=1e-3, schedule="constant", weight_decay=0.0, seed=9,
        max_seq_len=512,
    )
    result = train_embedder(params, cfg, train, phase, temperature=0.2)
    acc = retrieval_accuracy(result.checkpoint.params, cfg, held)
    dt = time.perf_counter() - t0
    ok = analytic and acc >= 0.9
    verdict(10, "contrastive loss and toy embedder", ok,
            f"uniform-similarity loss ln(128) within 1e-6={analytic}, "
            f"held-out positive-above-negatives {acc:.3f} (need >= 0.9), "
            f"{dt:.1f}s")


def test_criterion_11_throughput_protocol():
    t0 = time.perf_counter()
    ragged = [[np.zeros(n, dtype=np.int32) for n in (3, 9, 5)],
              [np.zeros(n, dtype=np.int32) for n in (12, 2)]]
    fixed = [[np.zeros(8, dtype=np.int32) for _ in range(3)]]
    accounting = (
        padded_positions(ragged) > packed_positions(ragged)
        and padded_positions(fixed) == packed_positions(fixed)
    )

    cfg = dataclasses.replace(config.preset("tiny_test"), max_seq_len=8192)
    params = init_params(cfg, seed=0)
    spec = SyntheticSpec(kind="normal", mean=4096.0, spread=1024.0,
                         n_docs=4, seed=3)
    docs = gen_synthetic(spec, cfg.vocab_size, special_ids=SPECIALS,
                         max_len=8192)
    # The packed path runs the one numpy attention kernel; the padded path
    # is dense by design, so the comparison prices the padding.
    reports = {
        path: measure(params, cfg, docs, path, batch_budget=8192, reps=10,
                      model_id="tiny_long", spec_label=spec.describe())
        for path in ("padded", "packed")
    }
    packed_mean = reports["packed"].seconds_per_million_mean
    padded_mean = reports["padded"].seconds_per_million_mean
    faster = packed_mean < padded_mean
    line = reports["packed"].to_line()
    table = render_table(list(reports.values()))
    fmt = ("spmt_mean=" in line and "spmt_std=" in line
           and reports["packed"].reps == 10 and "±" in table)
    dt = time.perf_counter() - t0
    ok = accounting and faster and fmt
    verdict(11, "throughput protocol", ok,
            f"position accounting exact={accounting}, packed "
            f"{packed_mean:.1f} < padded {padded_mean:.1f} s per million "
            f"tokens={faster}, mean±std over 10 reps in report={fmt}, "
            f"{dt:.1f}s")


def test_criterion_12_data_pipeline():
    rng = np.random.default_rng(5)
    uniques = [f"paragraph {i} {rng.integers(1e9)}" for i in range(400)]
    stream = list(uniques)
    for i in rng.integers(0, 400, size=200):
        stream.append(uniques[int(i)])
    order = rng.permutation(len(stream))
    # Single-paragraph docs so survivor order is easy to track.
    docs = [[stream[int(i)]] for i in order]
    kept, stats = dedup_documents(docs, BloomFilter.sized_for(2000, 1e-4,
                                                              seed=3))
    kept_flat = [p for d in kept for p in d]
    recall = (sorted(kept_flat) == sorted(uniques)
              and stats.dropped == 200)

    bloom = BloomFilter.sized_for(10_000, 0.01, seed=1)
    for i in range(10_000):
        bloom.add(f"member {i}")
    no_false_negatives = all(f"member {i}" in bloom for i in range(10_000))
    hits = sum(f"probe {i}" in bloom for i in range(20_000))
    fp_rate = hits / 20_000
    fp_bounded = fp_rate <= 2 * 0.01

    vocab = toy_vocab([f"t{i}" for i in range(50)])
    conserved = True
    word_rng = np.random.default_rng(8)
    for _ in range(50):
        words = [f"t{int(word_rng.integers(0, 50))}"
                 for _ in range(int(word_rng.integers(1, 120)))]
        doc = " ".join(words)
        target = int(word_rng.integers(1, 40))
        chunks = split_long(doc, vocab, target)
        total = count_tokens(doc, vocab)
        conserved &= sum(len(c) for c in chunks) == total
        conserved &= all(len(c) <= target for c in chunks)

    ok = recall and no_false_negatives and fp_bounded and conserved
    verdict(12, "data pipeline", ok,
            f"duplicate recall exact={recall}, no false negatives="
            f"{no_false_negatives}, false-positive rate {fp_rate:.4f} <= 2x "
            f"configured 0.01={fp_bounded}, split token conservation="
            f"{conserved}")
