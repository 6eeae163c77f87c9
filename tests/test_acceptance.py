"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is CPU-only and finishes in a few minutes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dualner.corpus import (
    Document,
    LabelInventory,
    Sentence,
    generate_synthetic,
    load_predictions,
)
from dualner.encoder import EncoderConfig
from dualner.evaluate import mcc_from_confusion, mean_std
from dualner.heads import (
    HeadConfig,
    enumerate_spans,
    mentions_to_tags,
    tags_to_mentions,
)
from dualner.model import batch_loss_and_grads, build_examples, init_model, model_tensors
from dualner.postprocess import resolve_nesting
from dualner.subtok import BpeVocab, MASK_TOKEN, PAD_TOKEN, UNK_TOKEN, fragmentation_ratio, train_bpe
from dualner.train import (
    MlmConfig, TrainConfig, pretrain_mlm, protocol_report, sweep_tapt_checkpoints, train_runs, train_supervised,
)

from .oracles import (
    binary_mcc,
    central_difference,
    gradient_agreement,
    mcc_one_hot_covariance,
    random_flat_mentions,
    random_nested_mentions,
)

ROOT = Path(__file__).resolve().parent.parent
FIVE_TYPES = ("T1", "T2", "T3", "T4", "T5")


def _ok(criterion: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"[{criterion}] PASS{suffix}")


# ---------------------------------------------------------------------------
# Shared heavy fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def desk():
    inventory = LabelInventory.from_types(["Facility", "Instrument", "SkyObject"])
    docs = generate_synthetic(7, 20, inventory)
    vocab = train_bpe(docs, 200)
    encoder_cfg = EncoderConfig(hidden_dim=64, n_layers=2, n_heads=4, ffn_dim=128)
    head_cfg = HeadConfig()
    return inventory, docs, vocab, encoder_cfg, head_cfg


def _overfit_once(desk, method):
    _inv, docs, vocab, encoder_cfg, head_cfg = desk
    cfg = TrainConfig(
        method=method,
        epochs=300,
        batch_size=8,
        learning_rate=1e-3,
        checkpoint_every=40,
        seed=0,
        early_stop_f1=0.995,
    )
    start = time.monotonic()
    result = train_supervised(docs, docs, vocab, encoder_cfg, head_cfg, cfg)
    return result, time.monotonic() - start


@pytest.fixture(scope="module")
def overfit_runs(desk):
    return {method: _overfit_once(desk, method) for method in ("word_tagger", "span_classifier")}


# ---------------------------------------------------------------------------
# C1  BIO round-trip
# ---------------------------------------------------------------------------


def test_c01_bio_round_trip():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    for _ in range(1000):
        n_words = int(rng.integers(1, 41))
        mentions = random_flat_mentions(rng, n_words, FIVE_TYPES)
        assert tags_to_mentions(mentions_to_tags(mentions, n_words, FIVE_TYPES), FIVE_TYPES) == mentions
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _ok("C1 BIO round-trip", f"1000 sets in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# C2  BIO repair totality
# ---------------------------------------------------------------------------


def test_c02_bio_repair_totality():
    n_tags = 1 + 2 * len(FIVE_TYPES)  # O, then B-/I- per type
    rng = np.random.default_rng(202)
    for _ in range(1000):
        n = int(rng.integers(1, 41))
        tags = rng.integers(0, n_tags, size=n)
        mentions = tags_to_mentions(tags, FIVE_TYPES)
        for m in mentions:
            assert 0 <= m.start_word <= m.end_word < n
        for a, b in zip(mentions, mentions[1:]):
            assert a.end_word < b.start_word  # valid: non-overlapping, nest-free
        reencoded = mentions_to_tags(mentions, n, FIVE_TYPES)
        assert tags_to_mentions(reencoded, FIVE_TYPES) == mentions  # fixpoint
    _ok("C2 BIO repair totality", "1000 random tag sequences")


# ---------------------------------------------------------------------------
# C3  Span enumeration count
# ---------------------------------------------------------------------------


def test_c03_span_enumeration():
    for n in range(1, 51):
        for w in range(1, 51):
            count = len(enumerate_spans(n, w))
            expected = n * w - w * (w - 1) // 2 if w <= n else n * (n + 1) // 2
            assert count == expected, (n, w)
    for n in range(1, 11):
        for w in range(1, 11):
            listing = {(s, e) for s in range(n) for e in range(n) if s <= e and e - s + 1 <= w}
            assert set(map(tuple, enumerate_spans(n, w).tolist())) == listing
    _ok("C3 span enumeration", "all 1<=n,w<=50 plus explicit listing to n=10")


# ---------------------------------------------------------------------------
# C4  Nesting resolution
# ---------------------------------------------------------------------------


def _has_nesting(mentions):
    for a in mentions:
        for b in mentions:
            if a is b:
                continue
            if (
                a.start_word <= b.start_word
                and b.end_word <= a.end_word
                and (a.start_word, a.end_word) != (b.start_word, b.end_word)
            ):
                return True
    return False


def test_c04_nesting_resolution():
    rng = np.random.default_rng(404)
    nested_seen = 0
    attempts = 0
    while nested_seen < 1000:
        attempts += 1
        assert attempts < 20000
        mentions = random_nested_mentions(rng, FIVE_TYPES)
        if not _has_nesting(mentions):
            for strategy in ("none", "keep_inner", "keep_outer"):
                assert resolve_nesting(mentions, strategy) == list(mentions)
            continue
        nested_seen += 1
        ids = set(map(id, mentions))
        for strategy in ("keep_inner", "keep_outer"):
            out = resolve_nesting(mentions, strategy)
            assert not _has_nesting(out)
            assert all(id(m) in ids for m in out)
            assert resolve_nesting(out, strategy) == out
    _ok("C4 nesting resolution", f"1000 nested sets ({attempts} draws)")


# ---------------------------------------------------------------------------
# C5  MCC oracle equivalence
# ---------------------------------------------------------------------------


def test_c05_mcc_oracle():
    rng = np.random.default_rng(505)
    for _ in range(100):
        k = int(rng.integers(2, 7))
        confusion = rng.integers(0, 12, size=(k, k))
        assert abs(mcc_from_confusion(confusion) - mcc_one_hot_covariance(confusion)) < 1e-12
    for _ in range(200):
        tp, fn, fp, tn = (int(x) for x in rng.integers(0, 40, size=4))
        assert mcc_from_confusion(np.array([[tp, fn], [fp, tn]])) == binary_mcc(tp, fp, fn, tn)
    _ok("C5 MCC oracle", "100 multiclass matrices to 1e-12; binary form exact")


# ---------------------------------------------------------------------------
# C6  Gradient check of the full pipeline
# ---------------------------------------------------------------------------


def test_c06_gradient_check():
    inventory = LabelInventory.from_types(["Alpha", "Beta"])
    docs = generate_synthetic(5, 4, inventory)
    vocab = train_bpe(docs, 140)
    encoder_cfg = EncoderConfig(
        vocab_size=len(vocab), hidden_dim=16, n_layers=1, n_heads=2, ffn_dim=32
    )
    head_cfg = HeadConfig(max_span_width=6, span_len_dim=8, span_hidden=16)
    start = time.monotonic()
    for method in ("word_tagger", "span_classifier"):
        model = init_model(method, inventory, encoder_cfg, head_cfg)
        # healthy weight magnitudes: at the 0.02 init the query/key gradients
        # sit below the resolution of a 1e-3 central difference
        rng = np.random.default_rng(6)
        for key, arr in model_tensors(model).items():
            if arr.ndim >= 2 and not key.endswith((".ln1.g", ".ln2.g")):
                arr[...] = rng.normal(0.0, 0.25, size=arr.shape)
        examples = build_examples(docs, vocab, inventory, head_cfg)[:3]
        _loss, grads = batch_loss_and_grads(model, examples, mode="eval")
        tensors = model_tensors(model)
        checked = 0
        worst = 0.0
        for key in sorted(tensors):
            arr = tensors[key]
            for _ in range(3):
                idx = int(rng.integers(0, arr.size))
                numeric = central_difference(
                    lambda: batch_loss_and_grads(model, examples, "eval")[0], arr, idx, step=1e-3
                )
                worst = max(
                    worst, gradient_agreement(grads[key].flat[idx], numeric, zero_floor=1e-5)
                )
                checked += 1
        assert checked >= 50
        assert worst < 1e-4, f"{method}: max rel error {worst}"
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _ok("C6 gradient check", f"both heads, rel<1e-4, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# C7  Overfit oracle
# ---------------------------------------------------------------------------


def test_c07_overfit_oracle(desk, overfit_runs):
    for method, (result, elapsed) in overfit_runs.items():
        assert result.best_tune_f1 is not None and result.best_tune_f1 >= 0.99, method
        assert elapsed < 300.0, method

    # the memorizing span model must rank every gold span highest in its
    # gold class among the candidate's class scores
    inventory, docs, vocab, _enc, head_cfg = desk
    span_model = overfit_runs["span_classifier"][0].model
    from dualner.heads import span_forward
    from dualner.encoder import encode_with_cache

    from .oracles import word_vectors
    from dualner.subtok import subtokenize

    checked = 0
    for doc in docs[:5]:
        for sent in doc.sentences:
            align = subtokenize(sent.words, vocab)
            ctx = encode_with_cache(np.asarray(align.sub_token_ids), span_model.encoder)[0]
            wv = word_vectors(ctx, align)
            spans = enumerate_spans(len(sent.words), head_cfg.max_span_width)
            by_span = {
                (c.start_word, c.end_word): c for c in span_forward(wv, spans, span_model.heads, span_model.labels.types)
            }
            for m in sent.mentions:
                cand = by_span[(m.start_word, m.end_word)]
                assert cand.label == m.label, (doc.id, m)
                checked += 1
    assert checked > 0
    detail = ", ".join(
        f"{m}: F1 {r.best_tune_f1:.3f} in {t:.0f}s" for m, (r, t) in overfit_runs.items()
    )
    _ok("C7 overfit oracle", detail + f"; {checked} gold spans win their class")


# ---------------------------------------------------------------------------
# C8  Protocol structure
# ---------------------------------------------------------------------------


def test_c08_protocol_structure(desk):
    _inv, docs, vocab, encoder_cfg, head_cfg = desk
    train_docs, tune_docs = docs[:14], docs[14:]
    results = train_runs(
        train_docs,
        tune_docs,
        vocab,
        methods=["word_tagger", "span_classifier"],
        seeds=[0, 1, 2],
        encoder_cfg=encoder_cfg,
        head_cfg=head_cfg,
        train_cfg=TrainConfig(epochs=2, checkpoint_every=8),
    )
    report = protocol_report(results, {"train": train_docs, "tune": tune_docs}, vocab)
    assert set(report.rows) == {
        (m, "desk", s)
        for m in ("word_tagger", "span_classifier")
        for s in ("train", "tune")
    }
    for vals in report.rows.values():
        for metric in ("f1", "precision", "recall", "mcc"):
            assert len(vals[metric]["values"]) == 3
            assert "mean" in vals[metric] and "std" in vals[metric]
    mean, std = mean_std([0.80, 0.82, 0.84])
    assert abs(mean - 0.82) < 1e-12
    assert abs(std - 0.02) < 1e-12
    _ok("C8 protocol structure", "2 methods x 2 splits x 3 seeds; 0.82/0.02 aggregation exact")


# ---------------------------------------------------------------------------
# C9  Fragmentation analyzer
# ---------------------------------------------------------------------------


def test_c09_fragmentation_exact():
    chars = tuple("abcdef")
    vocab = BpeVocab(symbols=(PAD_TOKEN, UNK_TOKEN, MASK_TOKEN) + chars, merges=())
    rng = np.random.default_rng(909)
    for k in (1, 2, 3):
        words = ["".join(rng.choice(list(chars), size=k)) for _ in range(40)]
        text = " ".join(words)
        doc = Document(
            id=f"k{k}",
            text=text,
            sentences=[Sentence(words=words, char_start=0, char_end=len(text))],
        )
        report = fragmentation_ratio([doc], vocab)
        assert report.ratio == float(k)
        assert sum(report.histogram.values()) == report.total_words == 40
        bucket = {1: "1", 2: "2", 3: "3+"}[k]
        assert report.histogram[bucket] == 40
    _ok("C9 fragmentation analyzer", "ratio exactly k for k in {1,2,3}; buckets partition")


# ---------------------------------------------------------------------------
# C10  TAPT loop
# ---------------------------------------------------------------------------


def test_c10_tapt_loop():
    inventory = LabelInventory.from_types(["Facility", "Instrument"])
    docs = generate_synthetic(3, 70, inventory)
    n_sentences = sum(len(d.sentences) for d in docs)
    assert n_sentences >= 200
    vocab = train_bpe(docs, 220)
    encoder_cfg = EncoderConfig(hidden_dim=64, n_layers=2, n_heads=4, ffn_dim=128)
    mlm_cfg = MlmConfig(total_steps=300, checkpoint_every=60, seed=0)
    result = pretrain_mlm(docs, vocab, encoder_cfg, mlm_cfg)
    steps = [s for s, _ in result.checkpoints]
    assert steps == [0, 60, 120, 180, 240, 300]
    assert result.probe_loss(300) < result.probe_loss(0)

    head_cfg = HeadConfig()
    sweep_cfg = TrainConfig(epochs=6, checkpoint_every=8, seed=0)
    points = sweep_tapt_checkpoints(result.checkpoints, docs[:10], docs[10:14], vocab, head_cfg, sweep_cfg)
    assert [p.step for p in points] == steps
    assert all(0.0 <= p.f1 <= 1.0 for p in points)
    _ok(
        "C10 TAPT loop",
        f"6 checkpoints, probe loss {result.probe_loss(0):.3f}->{result.probe_loss(300):.3f}, 6-point curve",
    )


# ---------------------------------------------------------------------------
# C11  End-to-end CLI smoke test
# ---------------------------------------------------------------------------


def _run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "dualner", *args], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, f"dualner {' '.join(args)}\n{proc.stderr}"
    return proc


def _assert_nest_free_file(path):
    for doc in load_predictions(path):
        for sent in doc.sentences:
            assert not _has_nesting(sent.mentions), (path, doc.id)


def test_c11_end_to_end_cli(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    seg = tmp_path / "segmented.jsonl"
    vocab = tmp_path / "vocab.json"
    run_dir = tmp_path / "run"
    _run_cli("generate-synthetic", "--out", str(corpus), "--docs", "20", "--seed", "11")
    _run_cli("segment", "--input", str(corpus), "--output", str(seg))
    _run_cli("build-vocab", "--corpus", str(seg), "--out", str(vocab), "--vocab-size", "200")

    config = {
        "corpus": str(seg),
        "n_train": 16,
        "vocab": str(vocab),
        "methods": ["word_tagger", "span_classifier"],
        "seeds": [5],
        "encoder": {"hidden_dim": 64, "n_layers": 2, "n_heads": 4, "ffn_dim": 128},
        "train": {"epochs": 150, "checkpoint_every": 40, "early_stop_f1": 0.995},
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    _run_cli("train", "--config", str(cfg_path), "--out-dir", str(run_dir))

    preds = {}
    for method in ("word_tagger", "span_classifier"):
        out = tmp_path / f"pred_{method}.jsonl"
        _run_cli(
            "predict", "--corpus", str(seg), "--vocab", str(vocab),
            "--checkpoint", str(run_dir / f"{method}_seed5.npz"), "--out", str(out),
        )
        preds[method] = out

    inner = tmp_path / "span_inner.jsonl"
    outer = tmp_path / "span_outer.jsonl"
    _run_cli("postprocess", "--input", str(preds["span_classifier"]), "--strategy", "keep-inner", "--output", str(inner))
    _run_cli("postprocess", "--input", str(preds["span_classifier"]), "--strategy", "keep-outer", "--output", str(outer))
    _assert_nest_free_file(inner)
    _assert_nest_free_file(outer)

    report_path = tmp_path / "report.json"
    proc = _run_cli(
        "evaluate", "--gold", str(seg), "--pred", str(preds["span_classifier"]),
        "--mcc", "--nesting-table", "--out", str(report_path),
    )
    report = json.loads(report_path.read_text())
    assert set(report["nesting_table"]) == {"Orig", "keep_inner", "keep_outer"}
    for name in ("Orig", "keep_inner", "keep_outer"):
        assert name in proc.stdout
    _run_cli("evaluate", "--gold", str(seg), "--pred", str(preds["word_tagger"]))
    _run_cli("analyze-fragmentation", "--corpus", str(seg), "--vocab", str(vocab), "--scope", "mention_words")
    _ok(
        "C11 end-to-end CLI",
        f"pipeline exit 0; span F1 orig {report['nesting_table']['Orig']:.3f}",
    )


# ---------------------------------------------------------------------------
# C12  Determinism
# ---------------------------------------------------------------------------


def test_c12_determinism(desk, overfit_runs):
    for method, (first, _elapsed) in overfit_runs.items():
        second, _ = _overfit_once(desk, method)
        assert first.log == second.log, method  # bit-identical series of floats
        assert first.best_step == second.best_step
        assert first.best_tune_f1 == second.best_tune_f1
        a, b = model_tensors(first.model), model_tensors(second.model)
        for key in a:
            assert a[key].tobytes() == b[key].tobytes(), (method, key)
    _ok("C12 determinism", "re-running the overfit runs reproduces logs and weights bit-for-bit")
