from __future__ import annotations

import json
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest

from dualner.cli import main
from dualner.corpus import (
    Document,
    SyntheticProfile,
    generate_synthetic,
    load_corpus,
    load_predictions,
    save_corpus,
    strip_segmentation,
)
from dualner.segment import SegmenterConfig, segment_document
from dualner.subtok import BpeVocab, subtokenize

from .oracles import mlm_pools


@pytest.fixture()
def corpus_file(tmp_path, small_corpus):
    path = tmp_path / "corpus.jsonl"
    save_corpus(small_corpus, path)
    return path


@pytest.fixture()
def vocab_file(tmp_path, small_vocab):
    path = tmp_path / "vocab.json"
    small_vocab.save(path)
    return path


def test_no_arguments_exits_one(capsys):
    assert main([]) == 1
    assert "usage" in capsys.readouterr().err


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1


def test_help_everywhere(capsys):
    assert main(["--help"]) == 0
    for command in (
        "generate-synthetic", "segment", "build-vocab", "train", "pretrain-mlm",
        "sweep-tapt", "predict", "postprocess", "evaluate", "analyze-fragmentation",
    ):
        assert main([command, "--help"]) == 0, command
        out = capsys.readouterr().out
        assert "usage" in out


def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["generate-synthetic", "--out", str(a), "--docs", "5", "--seed", "3"]) == 0
    assert main(["generate-synthetic", "--out", str(b), "--docs", "5", "--seed", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_rejects_bad_args(tmp_path, capsys):
    assert main(["generate-synthetic", "--out", str(tmp_path / "x"), "--docs", "0"]) == 1


@pytest.mark.parametrize("flags, profile", [
    ([], SyntheticProfile()),
    (["--words-per-sentence", "12", "14", "--oov-fraction", "0.5"],
     SyntheticProfile(words_per_sentence=(12, 14), oov_fraction=0.5)),
    (["--sentences-per-doc", "1", "1"], SyntheticProfile(sentences_per_doc=(1, 1))),
], ids=["defaults", "words_and_oov", "sentences"])
def test_generate_flags_reach_the_profile(tmp_path, inventory, flags, profile):
    """The written corpus is the library's under the profile the flags
    describe; a flag not given keeps the profile's default."""
    out, want = tmp_path / "cli.jsonl", tmp_path / "lib.jsonl"
    assert main(["generate-synthetic", "--out", str(out), "--docs", "5", "--seed", "3", *flags]) == 0
    save_corpus(generate_synthetic(3, 5, inventory, profile), want)
    assert out.read_bytes() == want.read_bytes()


def test_segment_flags_reach_the_config(tmp_path, small_corpus):
    """``segment`` splits as ``segment_document`` does under the config its
    flags describe; the short sentences of the last document split only
    with ``--min-words 5``."""
    short = Document(id="short", text="a b c. d e f g h i. j k l m n o p q r s t u v w x y.")
    raw = tmp_path / "raw.jsonl"
    save_corpus(strip_segmentation(small_corpus) + [short], raw)
    outputs = []
    for flags, cfg in (([], SegmenterConfig()), (["--min-words", "5"], SegmenterConfig(min_words=5))):
        out, want = tmp_path / "cli.jsonl", tmp_path / "lib.jsonl"
        assert main(["segment", "--input", str(raw), "--output", str(out), *flags]) == 0
        save_corpus([segment_document(d, cfg) for d in load_corpus(raw)], want)
        assert out.read_bytes() == want.read_bytes()
        outputs.append(out.read_bytes())
    assert outputs[0] != outputs[1]


@pytest.mark.parametrize("argv, message", [
    (["generate-synthetic", "--sentences-per-doc", "3", "2"], "sentences_per_doc must be an ordered"),
    (["generate-synthetic", "--oov-fraction", "1.5"], "oov_fraction must be in [0,1]"),
    (["segment", "--min-words", "-1"], "min_words must be >= 0"),
], ids=["sentences_per_doc", "oov_fraction", "min_words"])
def test_bad_profile_or_segmenter_flag_exits_one(tmp_path, corpus_file, capsys, argv, message):
    out = tmp_path / "out.jsonl"
    if argv[0] == "generate-synthetic":
        files = ["--out", str(out)]
    else:
        files = ["--input", str(corpus_file), "--output", str(out)]
    assert main([*argv, *files]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err, err
    assert not out.exists()


def test_segment_roundtrip(tmp_path, small_corpus):
    raw = tmp_path / "raw.jsonl"
    seg = tmp_path / "seg.jsonl"
    save_corpus(strip_segmentation(small_corpus), raw)
    assert main(["segment", "--input", str(raw), "--output", str(seg)]) == 0
    docs = load_corpus(seg)
    assert [s.words for d in docs for s in d.sentences] == [
        s.words for d in small_corpus for s in d.sentences
    ]


def test_segment_idempotent_on_segmented_corpus(tmp_path, corpus_file):
    out = tmp_path / "seg.jsonl"
    assert main(["segment", "--input", str(corpus_file), "--output", str(out)]) == 0
    assert out.read_bytes() == corpus_file.read_bytes()


def test_build_vocab(tmp_path, corpus_file):
    out = tmp_path / "vocab.json"
    assert main(["build-vocab", "--corpus", str(corpus_file), "--out", str(out), "--vocab-size", "150"]) == 0
    vocab = BpeVocab.load(out)
    assert len(vocab) == 150


def test_build_vocab_too_small_exits_one(tmp_path, corpus_file):
    out = tmp_path / "vocab.json"
    assert main(["build-vocab", "--corpus", str(corpus_file), "--out", str(out), "--vocab-size", "5"]) == 1
    assert not out.exists()


def test_evaluate_gold_vs_itself(tmp_path, corpus_file, capsys):
    report_path = tmp_path / "report.json"
    code = main([
        "evaluate", "--gold", str(corpus_file), "--pred", str(corpus_file),
        "--mcc", "--out", str(report_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "1.0000" in out
    report = json.loads(report_path.read_text())
    assert report["overall"]["f1"] == 1.0
    assert report["overall"]["mcc"] == 1.0


def test_evaluate_malformed_pred_exits_two_and_writes_nothing(tmp_path, corpus_file):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n", encoding="utf-8")
    report_path = tmp_path / "report.json"
    code = main([
        "evaluate", "--gold", str(corpus_file), "--pred", str(bad), "--out", str(report_path),
    ])
    assert code == 2
    assert not report_path.exists()


def test_evaluate_mismatched_pred_exits_two(tmp_path, corpus_file, small_corpus):
    shorter = tmp_path / "short.jsonl"
    save_corpus(small_corpus[:3], shorter)
    assert main(["evaluate", "--gold", str(corpus_file), "--pred", str(shorter)]) == 2


def test_evaluate_pred_with_other_words_exits_two(tmp_path, corpus_file, small_corpus, capsys):
    other = [
        replace(doc, sentences=[
            replace(sent, words=["x" + w for w in sent.words]) for sent in doc.sentences
        ])
        for doc in small_corpus
    ]
    pred = tmp_path / "other.jsonl"
    save_corpus(other, pred)
    report_path = tmp_path / "report.json"
    code = main(["evaluate", "--gold", str(corpus_file), "--pred", str(pred), "--out", str(report_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "predicted words differ from the gold words" in err
    assert not report_path.exists()


def test_evaluate_by_subtokens(tmp_path, corpus_file, vocab_file, capsys):
    report_path = tmp_path / "report.json"
    code = main([
        "evaluate", "--gold", str(corpus_file), "--pred", str(corpus_file),
        "--by-subtokens", str(vocab_file), "--out", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    grouped = report["overall"]["subtoken_grouped"]
    assert set(grouped) == {"1", "2", "3+"}
    occupied = [b for b in grouped.values() if b["word_count"]]
    assert occupied and all(b["f1"] == 1.0 for b in occupied)


def test_postprocess_cli(tmp_path, small_corpus):
    import dataclasses

    from dualner.corpus import ScoredMention

    doc = dataclasses.replace(
        small_corpus[0],
        sentences=[
            dataclasses.replace(
                small_corpus[0].sentences[0],
                mentions=[
                    ScoredMention(0, 4, "Facility", score=0.9),
                    ScoredMention(1, 2, "Facility", score=0.8),
                ],
            )
        ],
    )
    pred = tmp_path / "pred.jsonl"
    save_corpus([doc], pred)
    inner = tmp_path / "inner.jsonl"
    assert main(["postprocess", "--input", str(pred), "--strategy", "keep-inner", "--output", str(inner)]) == 0
    (got,) = load_predictions(inner)
    assert [(m.start_word, m.end_word) for m in got.sentences[0].mentions] == [(1, 2)]


def test_postprocess_requires_valid_strategy(tmp_path, corpus_file):
    assert main(["postprocess", "--input", str(corpus_file), "--strategy", "outer", "--output", str(tmp_path / "o.jsonl")]) == 1


def test_analyze_fragmentation(tmp_path, corpus_file, vocab_file, capsys):
    out = tmp_path / "frag.json"
    code = main([
        "analyze-fragmentation", "--corpus", str(corpus_file), "--vocab", str(vocab_file),
        "--scope", "mention_words", "--out", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["scope"] == "mention_words"
    assert report["ratio"] >= 1.0
    assert sum(report["histogram"].values()) == report["total_words"]
    assert "fragmentation ratio" in capsys.readouterr().out


def test_train_predict_evaluate_single_seed(tmp_path, corpus_file, capsys):
    config = {
        "corpus": str(corpus_file),
        "n_train": 16,
        "vocab_size": 170,
        "methods": ["word_tagger"],
        "seeds": [0],
        "encoder": {"hidden_dim": 32, "n_layers": 1, "n_heads": 2, "ffn_dim": 48},
        "heads": {"max_span_width": 8},
        "train": {"epochs": 2, "checkpoint_every": 8},
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out-dir", str(run_dir)]) == 0
    ckpt = run_dir / "word_tagger_seed0.npz"
    assert ckpt.exists()
    assert (run_dir / "word_tagger_seed0_log.jsonl").exists()
    assert (run_dir / "vocab.json").exists()

    pred = tmp_path / "pred.jsonl"
    code = main([
        "predict", "--corpus", str(corpus_file), "--vocab", str(run_dir / "vocab.json"),
        "--checkpoint", str(ckpt), "--out", str(pred),
    ])
    assert code == 0
    assert main(["evaluate", "--gold", str(corpus_file), "--pred", str(pred)]) == 0


def test_train_divergence_exits_three(tmp_path, corpus_file, capsys):
    import numpy as np

    config = {
        "corpus": str(corpus_file),
        "n_train": 16,
        "vocab_size": 170,
        "methods": ["word_tagger"],
        "seeds": [0],
        "encoder": {"hidden_dim": 32, "n_layers": 1, "n_heads": 2, "ffn_dim": 48},
        "train": {"epochs": 2, "learning_rate": 1e160, "grad_clip": 0.0, "warmup_frac": 0.0},
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    run_dir = tmp_path / "run"
    with np.errstate(all="ignore"):
        code = main(["train", "--config", str(cfg_path), "--out-dir", str(run_dir)])
    assert code == 3
    assert "training error" in capsys.readouterr().err
    assert not run_dir.exists()


@pytest.mark.parametrize("command", ["train", "pretrain-mlm"])
def test_divergence_prints_one_line(tmp_path, corpus_file, vocab_file, capsys, command):
    """A diverging run exits 3 with the training error alone: numpy's
    overflow warnings do not come first, and no output is written.  With
    two seeds, the one line gives each failed run's cause."""
    diverge = {"learning_rate": 1e160, "grad_clip": 0.0, "warmup_frac": 0.0}
    for seeds in ([0], [0, 1]) if command == "train" else ([0],):
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({
            "corpus": str(corpus_file), "n_train": 16, "vocab": str(vocab_file),
            "methods": ["word_tagger"], "seeds": seeds,
            "encoder": {"hidden_dim": 16, "n_layers": 1, "n_heads": 2, "ffn_dim": 24},
            "train": {"epochs": 2, **diverge},
            "mlm": {"total_steps": 4, "checkpoint_every": 2, **diverge},
        }), encoding="utf-8")
        out_dir = tmp_path / "out"
        argv = [command, "--config", str(cfg_path), "--out-dir", str(out_dir)]
        if command == "pretrain-mlm":
            argv += ["--corpus", str(corpus_file), "--vocab", str(vocab_file)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would print lines of its own
            code = main(argv)
        err = capsys.readouterr().err
        assert code == 3 and err.startswith("training error: non-finite") and err.count("\n") == 1, err
        assert err.count("non-finite") == len(seeds), err
        assert not out_dir.exists()  # only a run that succeeds makes its --out-dir


@pytest.mark.parametrize("command", ["train", "pretrain-mlm"])
def test_unallocatable_model_exits_two(tmp_path, corpus_file, vocab_file, capsys, command):
    """A model too large to allocate is a data error of one line.  The
    position table asks for 2**40 x 16 floats, which numpy refuses before
    touching any memory."""
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "corpus": str(corpus_file), "n_train": 16, "vocab": str(vocab_file),
        "methods": ["word_tagger"], "seeds": [0],
        "encoder": {"max_positions": 2**40, "hidden_dim": 16, "n_layers": 1, "n_heads": 2, "ffn_dim": 24},
        "train": {"epochs": 1},
        "mlm": {"total_steps": 2, "checkpoint_every": 1},
    }), encoding="utf-8")
    out_dir = tmp_path / "out"
    argv = [command, "--config", str(cfg_path), "--out-dir", str(out_dir)]
    if command == "pretrain-mlm":
        argv += ["--corpus", str(corpus_file), "--vocab", str(vocab_file)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert captured.err.startswith("data error: out of memory") and captured.err.count("\n") == 1, captured.err
    assert captured.out == ""
    assert not out_dir.exists()


def test_pretrain_mask_prob_zero_exits_one(tmp_path, corpus_file, vocab_file, capsys):
    """A rate of 0 would mask, and so train, nothing: a usage error of one line."""
    out_dir = tmp_path / "mlm"
    code = main([
        "pretrain-mlm", "--corpus", str(corpus_file), "--vocab", str(vocab_file),
        "--mask-prob", "0", "--out-dir", str(out_dir),
    ])
    err = capsys.readouterr().err
    assert code == 1 and err == "error: mask_prob must be in (0, 1]\n", err
    assert not out_dir.exists()


def test_train_missing_config_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("DUALNER_CONFIG", raising=False)
    assert main(["train", "--out-dir", str(tmp_path / "run")]) == 1
    assert "--config" in capsys.readouterr().err


def test_config_env_var_fallback(tmp_path, corpus_file, monkeypatch):
    config = {
        "corpus": str(corpus_file),
        "n_train": 16,
        "vocab_size": 170,
        "methods": ["word_tagger"],
        "seeds": [0],
        "encoder": {"hidden_dim": 32, "n_layers": 1, "n_heads": 2, "ffn_dim": 48},
        "train": {"epochs": 1, "checkpoint_every": 8},
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    monkeypatch.setenv("DUALNER_CONFIG", str(cfg_path))
    assert main(["train", "--out-dir", str(tmp_path / "run")]) == 0


def _edit(config, tensors, edit):
    config = json.loads(json.dumps(config))
    tensors = dict(tensors)
    edit(config, tensors)
    return config, tensors


def _two_heads(config, tensors):
    from dualner.heads import HeadConfig, init_head_params

    both = init_head_params(16, HeadConfig(), len(config["labels"]))
    tensors.update({f"heads.{k}": v for k, v in both.items()})


MODEL_CONFIG_FAULTS = {
    "missing_encoder": lambda c, t: c.pop("encoder"),
    "unknown_encoder_key": lambda c, t: c["encoder"].update(bogus=1),
    "missing_heads": lambda c, t: c.pop("heads"),
    "unknown_heads_key": lambda c, t: c["heads"].update(bogus=1),
    "missing_labels": lambda c, t: c.pop("labels"),
    "malformed_labels": lambda c, t: c.update(labels=[1, 2, 3]),
    # the head's class i + 1 is the i-th type of the sorted inventory it was trained with
    "unsorted_labels": lambda c, t: c.update(labels=["SkyObject", "Instrument", "Facility"]),
    "duplicate_labels": lambda c, t: c.update(labels=["Facility", "Facility", "Instrument", "SkyObject"]),
    "missing_method": lambda c, t: c.pop("method"),
    "unknown_method": lambda c, t: c.update(method="crf"),
    "both_heads": _two_heads,
    "unknown_config_key": lambda c, t: c.update(foo=1, step="x"),
    # written while the encoder had a key bias
    "key_bias": lambda c, t: t.update({"encoder.layers.0.attn.bk": np.zeros(16)}),
    # compared with the tensors before anything is allocated
    "huge_vocab_size": lambda c, t: c["encoder"].update(vocab_size=2**40),
}


@pytest.mark.parametrize("fault", sorted(MODEL_CONFIG_FAULTS))
def test_predict_bad_checkpoint_exits_two(tmp_path, corpus_file, vocab_file, small_vocab, capsys, fault):
    from dualner.corpus import LabelInventory
    from dualner.encoder import EncoderConfig, load_checkpoint, save_checkpoint
    from dualner.heads import HeadConfig
    from dualner.model import init_model, save_model

    enc_cfg = EncoderConfig(vocab_size=len(small_vocab), hidden_dim=16, n_layers=1, n_heads=2, ffn_dim=24)
    labels = LabelInventory.from_types(["Facility", "Instrument", "SkyObject"])
    ckpt = tmp_path / "model.npz"
    save_model(ckpt, init_model("word_tagger", labels, enc_cfg, HeadConfig()))
    save_checkpoint(ckpt, *_edit(*load_checkpoint(ckpt), MODEL_CONFIG_FAULTS[fault]))
    out = tmp_path / "pred.jsonl"
    code = main([
        "predict", "--corpus", str(corpus_file), "--vocab", str(vocab_file),
        "--checkpoint", str(ckpt), "--out", str(out),
    ])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("data error:") and err.count("\n") == 1, err
    assert not out.exists()
    if fault == "both_heads":
        assert "unexpected ['heads.span.b1', 'heads.span.b2', 'heads.span.len_emb'" in err
    if fault == "key_bias":
        assert "unexpected ['encoder.layers.0.attn.bk']" in err
    if fault == "unknown_config_key":
        assert "unknown keys in checkpoint config: ['foo', 'step']" in err
    if fault in ("unsorted_labels", "duplicate_labels"):
        assert '"labels" must be sorted and distinct' in err


def test_predict_tagger_ignores_span_head_config(tmp_path, corpus_file, vocab_file, small_vocab):
    from dualner.corpus import LabelInventory
    from dualner.encoder import EncoderConfig, load_checkpoint, save_checkpoint
    from dualner.heads import HeadConfig
    from dualner.model import init_model, save_model

    # a tagger checkpoint holds no span head, so its span config allocates nothing
    enc_cfg = EncoderConfig(vocab_size=len(small_vocab), hidden_dim=16, n_layers=1, n_heads=2, ffn_dim=24)
    ckpt = tmp_path / "model.npz"
    save_model(ckpt, init_model("word_tagger", LabelInventory.from_types(["Facility"]), enc_cfg, HeadConfig()))
    config, tensors = load_checkpoint(ckpt)
    config["heads"]["max_span_width"] = 2**40
    save_checkpoint(ckpt, config, tensors)
    assert main([
        "predict", "--corpus", str(corpus_file), "--vocab", str(vocab_file),
        "--checkpoint", str(ckpt), "--out", str(tmp_path / "pred.jsonl"),
    ]) == 0


ENCODER_CHECKPOINT_FAULTS = {
    "missing_step": lambda c, t: c.pop("step"),
    "malformed_step": lambda c, t: c.update(step="60"),
    "negative_step": lambda c, t: c.update(step=-3),
    "missing_encoder": lambda c, t: c.pop("encoder"),
    "unknown_encoder_key": lambda c, t: c["encoder"].update(bogus=1),
    "missing_tensor": lambda c, t: t.pop("layers.0.ffn.w1"),
    "bad_shape": lambda c, t: t.update({"layers.0.ffn.w1": t["layers.0.ffn.w1"][:, :-1]}),
    "huge_vocab_size": lambda c, t: c["encoder"].update(vocab_size=2**40),
    "key_bias": lambda c, t: t.update({"layers.0.attn.bk": np.zeros(16)}),
    "unknown_config_key": lambda c, t: c.update(bogus=1, method="word_tagger"),
}


@pytest.mark.parametrize("fault", sorted(ENCODER_CHECKPOINT_FAULTS))
def test_sweep_bad_encoder_checkpoint_exits_two(tmp_path, corpus_file, vocab_file, small_vocab, capsys, fault):
    from dualner.encoder import EncoderConfig, init_params, save_checkpoint

    enc = init_params(EncoderConfig(vocab_size=len(small_vocab), hidden_dim=16, n_layers=1, n_heads=2, ffn_dim=24))
    config = {"kind": "encoder", "step": 0, "encoder": asdict(enc.config)}
    ckpt_dir = tmp_path / "mlm"
    save_checkpoint(ckpt_dir / "mlm_step_000000.npz", *_edit(config, enc.tensors, ENCODER_CHECKPOINT_FAULTS[fault]))
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"corpus": str(corpus_file), "n_train": 16}), encoding="utf-8")
    code = main([
        "sweep-tapt", "--config", str(cfg_path), "--vocab", str(vocab_file),
        "--checkpoints", str(ckpt_dir), "--out-dir", str(tmp_path / "sweep"),
    ])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("data error:") and err.count("\n") == 1, err
    if fault == "key_bias":
        assert "unexpected ['layers.0.attn.bk']" in err
    if fault == "unknown_config_key":
        assert "unknown keys in checkpoint config: ['bogus', 'method']" in err


def test_predict_wrong_size_vocab_exits_two(tmp_path, corpus_file, vocab_file, small_vocab, capsys):
    from dualner.corpus import LabelInventory
    from dualner.encoder import EncoderConfig
    from dualner.heads import HeadConfig
    from dualner.model import init_model, save_model

    size = len(small_vocab) - 7
    enc_cfg = EncoderConfig(vocab_size=size, hidden_dim=16, n_layers=1, n_heads=2, ffn_dim=24)
    labels = LabelInventory.from_types(["Facility", "Instrument", "SkyObject"])
    ckpt = tmp_path / "model.npz"
    save_model(ckpt, init_model("span_classifier", labels, enc_cfg, HeadConfig()))
    out = tmp_path / "pred.jsonl"
    code = main([
        "predict", "--corpus", str(corpus_file), "--vocab", str(vocab_file),
        "--checkpoint", str(ckpt), "--out", str(out),
    ])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("data error:") and err.count("\n") == 1, err
    assert f"{len(small_vocab)} symbols" in err and f"vocab_size={size}" in err
    assert not out.exists()


def test_sweep_wrong_size_vocab_exits_two(tmp_path, corpus_file, vocab_file, small_vocab, capsys):
    from dualner.encoder import EncoderConfig, init_params, save_checkpoint

    size = len(small_vocab) + 7
    enc = init_params(EncoderConfig(vocab_size=size, hidden_dim=16, n_layers=1, n_heads=2, ffn_dim=24))
    ckpt_dir = tmp_path / "mlm"
    save_checkpoint(
        ckpt_dir / "mlm_step_000000.npz",
        {"kind": "encoder", "step": 0, "encoder": asdict(enc.config)},
        enc.tensors,
    )
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"corpus": str(corpus_file), "n_train": 16}), encoding="utf-8")
    out_dir = tmp_path / "sweep"
    code = main([
        "sweep-tapt", "--config", str(cfg_path), "--vocab", str(vocab_file),
        "--checkpoints", str(ckpt_dir), "--out-dir", str(out_dir),
    ])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("data error:") and err.count("\n") == 1, err
    assert f"{len(small_vocab)} symbols" in err and f"vocab_size={size}" in err
    assert not out_dir.exists()


def test_sweep_mixed_encoder_configs_exits_two(tmp_path, corpus_file, vocab_file, small_vocab, capsys):
    from dualner.encoder import EncoderConfig, init_params, save_checkpoint

    ckpt_dir = tmp_path / "mlm"
    for step, ffn_dim in ((0, 24), (10, 32)):
        enc = init_params(EncoderConfig(vocab_size=len(small_vocab), hidden_dim=16, n_layers=1, n_heads=2, ffn_dim=ffn_dim))
        save_checkpoint(
            ckpt_dir / f"mlm_step_{step:06d}.npz",
            {"kind": "encoder", "step": step, "encoder": asdict(enc.config)},
            enc.tensors,
        )
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"corpus": str(corpus_file), "n_train": 16}), encoding="utf-8")
    out_dir = tmp_path / "sweep"
    code = main([
        "sweep-tapt", "--config", str(cfg_path), "--vocab", str(vocab_file),
        "--checkpoints", str(ckpt_dir), "--out-dir", str(out_dir),
    ])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("data error:") and err.count("\n") == 1, err
    assert "mlm_step_000010.npz" in err
    assert not (out_dir / "sweep.json").exists()


def test_sweep_duplicate_step_exits_two(tmp_path, corpus_file, vocab_file, small_vocab, capsys):
    from dualner.encoder import EncoderConfig, init_params, save_checkpoint

    enc = init_params(EncoderConfig(vocab_size=len(small_vocab), hidden_dim=16, n_layers=1, n_heads=2, ffn_dim=24))
    ckpt_dir = tmp_path / "mlm"
    names = ["mlm_step_000000.npz", "mlm_step_000010.npz"]
    for name in names:
        save_checkpoint(ckpt_dir / name, {"kind": "encoder", "step": 0, "encoder": asdict(enc.config)}, enc.tensors)
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({"corpus": str(corpus_file), "n_train": 16}), encoding="utf-8")
    out_dir = tmp_path / "sweep"
    code = main([
        "sweep-tapt", "--config", str(cfg_path), "--vocab", str(vocab_file),
        "--checkpoints", str(ckpt_dir), "--out-dir", str(out_dir),
    ])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("data error:") and err.count("\n") == 1, err
    assert all(name in err for name in names), err
    assert not out_dir.exists()


def test_pretrain_removes_snapshots_of_an_earlier_run(tmp_path, corpus_file, vocab_file, capsys):
    """A shorter run into the same directory leaves only its own snapshots,
    so the sweep charts this run alone; other files stay."""
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "corpus": str(corpus_file), "n_train": 16, "train": {"epochs": 0},
        "encoder": {"hidden_dim": 16, "n_layers": 1, "n_heads": 2, "ffn_dim": 24},
    }), encoding="utf-8")
    out_dir = tmp_path / "mlm"
    out_dir.mkdir()
    (out_dir / "notes.txt").write_text("kept\n", encoding="utf-8")
    for steps in ("20", "10"):
        assert main([
            "pretrain-mlm", "--config", str(cfg_path), "--corpus", str(corpus_file),
            "--vocab", str(vocab_file), "--out-dir", str(out_dir),
            "--steps", steps, "--checkpoint-every", "5",
        ]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "mlm_log.jsonl", "mlm_step_000000.npz", "mlm_step_000005.npz", "mlm_step_000010.npz",
        "notes.txt",
    ]
    assert main([
        "sweep-tapt", "--config", str(cfg_path), "--vocab", str(vocab_file),
        "--checkpoints", str(out_dir), "--out-dir", str(tmp_path / "sweep"),
    ]) == 0
    points = json.loads((tmp_path / "sweep" / "sweep.json").read_text())["points"]
    assert [p["step"] for p in points] == [0, 5, 10]


@pytest.mark.parametrize("heldout_fraction", [0.1, 0.0], ids=["with_tail", "no_tail"])
def test_pretrain_closing_line_reports_both_probes(tmp_path, corpus_file, vocab_file, small_corpus,
                                                   small_vocab, capsys, heldout_fraction):
    """The closing line says how many sentences the training probe scores
    and gives each probe's first -> last loss, the held-out one only when
    there is a tail."""
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "corpus": str(corpus_file), "n_train": 16,
        "encoder": {"hidden_dim": 16, "n_layers": 1, "n_heads": 2, "ffn_dim": 24},
        "mlm": {"total_steps": 4, "checkpoint_every": 2, "heldout_fraction": heldout_fraction},
    }), encoding="utf-8")
    out_dir = tmp_path / "mlm"
    assert main([
        "pretrain-mlm", "--config", str(cfg_path), "--corpus", str(corpus_file),
        "--vocab", str(vocab_file), "--out-dir", str(out_dir),
    ]) == 0
    _train, tail, k = mlm_pools(small_corpus, small_vocab, heldout_fraction)
    assert bool(tail) == (heldout_fraction > 0)
    log = [json.loads(line) for line in (out_dir / "mlm_log.jsonl").read_text().splitlines()]
    loss = {(e["split"], e["step"]): e["value"] for e in log if e["metric"] == "mlm_loss"}
    probes = f"train probe loss over the first {k} sentences {loss['train', 0]:.4f} -> {loss['train', 4]:.4f}"
    if tail:
        probes += f", held-out probe loss {loss['heldout', 0]:.4f} -> {loss['heldout', 4]:.4f}"
    assert capsys.readouterr().err == f"saved 3 encoder checkpoints -> {out_dir} ({probes})\n"


def test_analyze_fragmentation_bad_special_ids_exits_two(tmp_path, corpus_file, small_vocab, capsys):
    obj = small_vocab.to_json()
    obj["special"] = {"pad": 0, "unk": 7, "mask": len(small_vocab)}
    vocab_path = tmp_path / "vocab.json"
    vocab_path.write_text(json.dumps(obj), encoding="utf-8")
    code = main(["analyze-fragmentation", "--corpus", str(corpus_file), "--vocab", str(vocab_path)])
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert captured.err.startswith("data error:") and captured.err.count("\n") == 1, captured.err
    assert f"mask={len(small_vocab)} out of range" in captured.err
    assert captured.out == ""


def test_predict_sentence_over_max_positions_exits_two(tmp_path, corpus_file, vocab_file, small_vocab, capsys):
    from dualner.corpus import LabelInventory
    from dualner.encoder import EncoderConfig
    from dualner.heads import HeadConfig
    from dualner.model import init_model, save_model

    # every sentence of the fixture corpus has at least 11 words
    enc_cfg = EncoderConfig(vocab_size=len(small_vocab), max_positions=8, hidden_dim=16, n_layers=1, n_heads=2, ffn_dim=24)
    labels = LabelInventory.from_types(["Facility", "Instrument", "SkyObject"])
    ckpt = tmp_path / "model.npz"
    save_model(ckpt, init_model("word_tagger", labels, enc_cfg, HeadConfig()))
    out = tmp_path / "pred.jsonl"
    code = main([
        "predict", "--corpus", str(corpus_file), "--vocab", str(vocab_file),
        "--checkpoint", str(ckpt), "--out", str(out),
    ])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("data error:") and err.count("\n") == 1, err
    assert "exceeds max_positions=8" in err
    assert not out.exists()


@pytest.mark.parametrize("seeds", [[0], [0, 1]], ids=["single_seed", "protocol"])
def test_train_over_long_sentence_exits_two_and_leaves_no_vocab(tmp_path, corpus_file, capsys, seeds):
    # every sentence of the fixture corpus has at least 11 words
    config = {
        "corpus": str(corpus_file),
        "n_train": 16,
        "vocab_size": 170,
        "methods": ["word_tagger"],
        "seeds": seeds,
        "encoder": {"max_positions": 8, "hidden_dim": 16, "n_layers": 1, "n_heads": 2, "ffn_dim": 24},
        "train": {"epochs": 1},
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    run_dir = tmp_path / "run"
    code = main(["train", "--config", str(cfg_path), "--out-dir", str(run_dir)])
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert captured.err.startswith("data error:") and captured.err.count("\n") == 1, captured.err
    assert "exceeds max_positions=8" in captured.err
    assert not run_dir.exists()


@pytest.mark.parametrize("spare, code", [(0, 0), (-1, 2)], ids=["longest_fits", "longest_too_long"])
def test_pretrain_checks_max_positions_per_sentence(
    tmp_path, corpus_file, vocab_file, small_corpus, small_vocab, capsys, spare, code
):
    """MLM training packs each batch into one pass, which may hold more
    sub-tokens than ``max_positions``; only a longer sentence is a data error."""
    longest = max(len(subtokenize(s.words, small_vocab).sub_token_ids) for d in small_corpus for s in d.sentences)
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "corpus": str(corpus_file), "n_train": 16,
        "encoder": {"max_positions": longest + spare, "hidden_dim": 16, "n_layers": 1, "n_heads": 2, "ffn_dim": 24},
        "mlm": {"total_steps": 2, "checkpoint_every": 2, "batch_size": 8},
    }), encoding="utf-8")
    out_dir = tmp_path / "mlm"
    got = main([
        "pretrain-mlm", "--config", str(cfg_path), "--corpus", str(corpus_file),
        "--vocab", str(vocab_file), "--out-dir", str(out_dir),
    ])
    err = capsys.readouterr().err
    assert got == code, err
    if code:
        assert err.startswith("data error:") and err.count("\n") == 1, err
        assert f"sentence of {longest} sub-tokens exceeds max_positions={longest - 1}" in err
        assert not out_dir.exists()
    else:
        assert (out_dir / "mlm_step_000002.npz").exists()


@pytest.mark.parametrize("seeds", [[0], [0, 1]], ids=["single_seed", "protocol"])
def test_train_bad_section_value_exits_two_before_any_work(tmp_path, corpus_file, capsys, seeds):
    config = {
        "corpus": str(corpus_file),
        "n_train": 16,
        "methods": ["word_tagger"],
        "seeds": seeds,
        "train": {"epochs": 1, "learning_rate": -1.0},
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    run_dir = tmp_path / "run"
    code = main(["train", "--config", str(cfg_path), "--out-dir", str(run_dir)])
    captured = capsys.readouterr()
    assert code == 2, captured.err
    assert captured.err.startswith("data error:") and captured.err.count("\n") == 1, captured.err
    assert "learning_rate must be positive" in captured.err
    assert not run_dir.exists()


def test_train_repeated_seeds_exit_before_any_work(tmp_path, corpus_file, capsys):
    """Repeated seeds would run twice and count twice, and a negative seed
    is refused naming its run: a config file's are a data error (2), a
    flag's a usage error (1)."""
    config = {"corpus": str(corpus_file), "n_train": 16, "methods": ["word_tagger"], "seeds": [1, 1]}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out-dir", str(run_dir)]) == 2
    config["seeds"] = [0, -1]
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["train", "--config", str(cfg_path), "--out-dir", str(run_dir)]) == 2
    config["seeds"] = [0, 1]
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["train", "--config", str(cfg_path), "--seeds", "0", "0", "--out-dir", str(run_dir)]) == 1
    assert main(["train", "--config", str(cfg_path), "--seeds", "0", "-1", "--out-dir", str(run_dir)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 4
    assert err[0].startswith("data error:") and "methods and seeds must be distinct, got ['word_tagger'] and [1, 1]" in err[0]
    assert err[1].startswith("data error:") and "word_tagger seed -1: " in err[1]
    assert err[2] == "error: methods and seeds must be distinct, got ['word_tagger'] and [0, 0]"
    assert err[3].startswith("error: word_tagger seed -1: ")
    assert not run_dir.exists()


def test_train_empty_eval_splits_exit_before_any_work(tmp_path, corpus_file, capsys, monkeypatch):
    """A multi-seed run without an eval split would train every run only to
    write an empty table: the config file is a data error (2)."""
    import dualner.train as train_mod

    monkeypatch.setattr(train_mod, "train_supervised", lambda *args, **kwargs: pytest.fail("trained"))
    config = {"corpus": str(corpus_file), "n_train": 16, "seeds": [0, 1], "eval_splits": []}
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    run_dir = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path), "--out-dir", str(run_dir)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("data error:")
    assert "eval_splits must be non-empty" in err[0]
    assert not run_dir.exists()


def test_train_failing_second_method_leaves_no_files(tmp_path, corpus_file, capsys, monkeypatch):
    import dualner.train as train_mod
    from dualner.errors import TrainingError

    real = train_mod.train_supervised
    methods = []

    def second_fails(*args, **kwargs):
        method = args[5].method
        methods.append(method)
        if method == "span_classifier":
            raise TrainingError("injected failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(train_mod, "train_supervised", second_fails)
    config = {
        "corpus": str(corpus_file),
        "n_train": 16,
        "vocab_size": 170,
        "methods": ["word_tagger", "span_classifier"],
        "seeds": [0],
        "encoder": {"hidden_dim": 16, "n_layers": 1, "n_heads": 2, "ffn_dim": 24},
        "train": {"epochs": 1},
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    run_dir = tmp_path / "run"
    code = main(["train", "--config", str(cfg_path), "--out-dir", str(run_dir)])
    captured = capsys.readouterr()
    assert code == 3, captured.err
    assert "injected failure" in captured.err
    assert methods == ["word_tagger", "span_classifier"]
    assert not run_dir.exists()


BOTH_METHODS = ("word_tagger", "span_classifier")
RUN_FILES = (".npz", "_log.jsonl", "_summary.json")


def _train_grid(tmp_path, corpus_file, vocab_file, seeds):
    """Run ``train`` over both methods and ``seeds``; return its --out-dir."""
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "corpus": str(corpus_file), "n_train": 16, "vocab": str(vocab_file),
        "methods": list(BOTH_METHODS), "seeds": seeds, "eval_splits": ["train", "tune"],
        "encoder": {"hidden_dim": 16, "n_layers": 1, "n_heads": 2, "ffn_dim": 24},
        "train": {"epochs": 2, "checkpoint_every": 2},
    }), encoding="utf-8")
    out_dir = tmp_path / f"seeds_{'_'.join(map(str, seeds))}"
    assert main(["train", "--config", str(cfg_path), "--out-dir", str(out_dir)]) == 0
    return out_dir


def test_train_writes_every_runs_files_with_several_seeds(tmp_path, corpus_file, vocab_file):
    """A multi-seed run keeps each run's checkpoint, log and summary beside the report."""
    out_dir = _train_grid(tmp_path, corpus_file, vocab_file, [0, 1])
    runs = [(method, seed) for method in BOTH_METHODS for seed in (0, 1)]
    want = {f"{method}_seed{seed}{suffix}" for method, seed in runs for suffix in RUN_FILES}
    assert {p.name for p in out_dir.iterdir()} == want | {"report.json", "report.txt"}
    for method, seed in runs:
        summary = json.loads((out_dir / f"{method}_seed{seed}_summary.json").read_text())
        assert (summary["method"], summary["seed"], summary["checkpoint"]) == (method, seed, f"{method}_seed{seed}.npz")


def test_train_seed_zero_files_do_not_depend_on_the_other_seeds(tmp_path, corpus_file, vocab_file):
    """Seed 0's run writes the same log and summary bytes, and the same
    tensor bits, alone or beside seed 1 (npz zip headers carry timestamps)."""
    alone = _train_grid(tmp_path, corpus_file, vocab_file, [0])
    grid = _train_grid(tmp_path, corpus_file, vocab_file, [0, 1])
    for method in BOTH_METHODS:
        for suffix in ("_log.jsonl", "_summary.json"):
            name = f"{method}_seed0{suffix}"
            assert (alone / name).read_bytes() == (grid / name).read_bytes(), name
        with np.load(alone / f"{method}_seed0.npz") as a, np.load(grid / f"{method}_seed0.npz") as b:
            assert a.files == b.files
            for key in a.files:
                assert (a[key].dtype, a[key].shape) == (b[key].dtype, b[key].shape), key
                assert a[key].tobytes() == b[key].tobytes(), key


def test_train_report_tune_f1_traces_to_each_run(tmp_path, corpus_file, vocab_file):
    """Every tune F1 value of the report is its run's best tune F1, in seed order."""
    out_dir = _train_grid(tmp_path, corpus_file, vocab_file, [0, 1])
    report = json.loads((out_dir / "report.json").read_text())
    rows = [row for row in report["rows"] if row["split"] == "tune"]
    assert [row["method"] for row in rows] == list(BOTH_METHODS)
    assert report["seeds"] == [0, 1]
    assert {(row["method"], row["split"]) for row in report["rows"]} == {
        (method, split) for method in BOTH_METHODS for split in ("train", "tune")
    }
    assert all(len(row["metrics"][metric]["values"]) == 2 for row in report["rows"] for metric in report["metrics"])
    assert any(row["metrics"]["f1"]["values"] != [0.0, 0.0] for row in rows)  # zeros would match trivially
    for row in rows:
        best = [
            json.loads((out_dir / f"{row['method']}_seed{seed}_summary.json").read_text())["best_tune_f1"]
            for seed in report["seeds"]
        ]
        assert row["metrics"]["f1"]["values"] == best, row["method"]


# Inputs that parse but do not fit the command; each is a data error.
MISMATCHES = {
    "train_vocab_size": (
        lambda p: ["train", "--config", p["sized_config"], "--out-dir", p["out"]], "vocab_size=7"),
    "pretrain_vocab_size": (
        lambda p: ["pretrain-mlm", "--corpus", p["corpus"], "--vocab", p["vocab"],
                   "--config", p["sized_config"], "--out-dir", p["out"]], "vocab_size=7"),
    "pretrain_no_mask": (
        lambda p: ["pretrain-mlm", "--corpus", p["corpus"], "--vocab", p["no_mask_vocab"],
                   "--steps", "2", "--checkpoint-every", "1", "--out-dir", p["out"]], "no mask token"),
    "build_vocab_unsegmented": (
        lambda p: ["build-vocab", "--corpus", p["raw"], "--out", p["out"] / "vocab.json"], "no words"),
    "analyze_unsegmented": (
        lambda p: ["analyze-fragmentation", "--corpus", p["raw"], "--vocab", p["vocab"],
                   "--out", p["out"] / "frag.json"], "no words"),
    "train_unsegmented": (
        lambda p: ["train", "--config", p["raw_config"], "--out-dir", p["out"]], "no sentences"),
    "train_unsegmented_tune": (
        lambda p: ["train", "--config", p["raw_tune_config"], "--out-dir", p["out"]], "no sentences"),
    "evaluate_unsegmented": (
        lambda p: ["evaluate", "--gold", p["raw"], "--pred", p["raw"], "--mcc",
                   "--out", p["out"] / "report.json"], "gold corpus contains no sentences"),
    "predict_unsegmented": (
        lambda p: ["predict", "--corpus", p["raw"], "--vocab", p["vocab"], "--checkpoint", p["model"],
                   "--out", p["out"] / "pred.jsonl"], "corpus contains no sentences"),
    "pretrain_unsegmented": (
        lambda p: ["pretrain-mlm", "--corpus", p["raw"], "--vocab", p["vocab"],
                   "--steps", "2", "--checkpoint-every", "1", "--out-dir", p["out"]], "no sentences"),
    "train_no_tune_documents": (
        lambda p: ["train", "--config", p["all_train_config"], "--out-dir", p["out"]], "n_train must satisfy"),
    "sweep_no_tune_documents": (
        lambda p: ["sweep-tapt", "--config", p["all_train_config"], "--vocab", p["vocab"],
                   "--checkpoints", p["out"] / "mlm", "--out-dir", p["out"]], "n_train must satisfy"),
}


@pytest.mark.parametrize("case", sorted(MISMATCHES))
def test_input_that_does_not_fit_exits_two(tmp_path, corpus_file, vocab_file, small_corpus, small_vocab, capsys, case):
    from dualner.corpus import LabelInventory
    from dualner.encoder import EncoderConfig
    from dualner.heads import HeadConfig
    from dualner.model import init_model, save_model

    raw = tmp_path / "raw.jsonl"
    save_corpus(strip_segmentation(small_corpus), raw)
    raw_tune = tmp_path / "raw_tune.jsonl"  # the 4 documents after n_train=16 unsegmented
    save_corpus(small_corpus[:16] + strip_segmentation(small_corpus[16:]), raw_tune)
    no_mask = small_vocab.to_json()
    no_mask["special"]["mask"] = None
    base = {
        "n_train": 16,
        "vocab": str(vocab_file),
        "methods": ["word_tagger"],
        "seeds": [0],
        "encoder": {"hidden_dim": 16, "n_layers": 1, "n_heads": 2, "ffn_dim": 24},
        "train": {"epochs": 1},
        "mlm": {"total_steps": 2, "checkpoint_every": 1},
    }
    sized = dict(base, corpus=str(corpus_file), encoder=dict(base["encoder"], vocab_size=7))
    paths = {
        "corpus": corpus_file, "vocab": vocab_file, "raw": raw, "out": tmp_path / "out",
        "no_mask_vocab": tmp_path / "no_mask.json",
        "sized_config": tmp_path / "sized.json", "raw_config": tmp_path / "raw.json",
        "raw_tune_config": tmp_path / "raw_tune.json", "model": tmp_path / "model.npz",
        "all_train_config": tmp_path / "all_train.json",
    }
    enc_cfg = EncoderConfig(vocab_size=len(small_vocab), hidden_dim=16, n_layers=1, n_heads=2, ffn_dim=24)
    save_model(paths["model"], init_model("word_tagger", LabelInventory.from_documents(small_corpus), enc_cfg, HeadConfig()))
    paths["no_mask_vocab"].write_text(json.dumps(no_mask), encoding="utf-8")
    paths["sized_config"].write_text(json.dumps(sized), encoding="utf-8")
    paths["raw_config"].write_text(json.dumps(dict(base, corpus=str(raw))), encoding="utf-8")
    paths["raw_tune_config"].write_text(json.dumps(dict(base, corpus=str(raw_tune))), encoding="utf-8")
    all_train = dict(base, corpus=str(corpus_file), n_train=len(small_corpus))
    paths["all_train_config"].write_text(json.dumps(all_train), encoding="utf-8")
    argv, message = MISMATCHES[case]
    code = main([str(a) for a in argv(paths)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("data error:") and err.count("\n") == 1, err
    assert message in err
    assert not paths["out"].exists()


@pytest.mark.parametrize("command", ["train", "sweep-tapt"])
def test_tune_split_without_a_mention_exits_two(tmp_path, small_corpus, vocab_file, capsys, command):
    """A tune split whose sentences hold no gold mention is refused before
    any training, and no output is written: its F1 would read 1.0 for a
    model that predicts nothing."""
    corpus = tmp_path / "corpus.jsonl"
    unlabeled = [replace(d, sentences=[replace(s, mentions=[]) for s in d.sentences]) for d in small_corpus[16:]]
    save_corpus(small_corpus[:16] + unlabeled, corpus)
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "corpus": str(corpus), "n_train": 16, "vocab": str(vocab_file), "methods": ["word_tagger"],
        "seeds": [0], "encoder": {"hidden_dim": 16, "n_layers": 1, "n_heads": 2, "ffn_dim": 24},
        "train": {"epochs": 1, "early_stop_f1": 0.99},
    }), encoding="utf-8")
    out_dir = tmp_path / "out"
    argv = ["train", "--config", str(cfg_path), "--out-dir", str(out_dir)]
    if command == "sweep-tapt":
        assert main(["pretrain-mlm", "--config", str(cfg_path), "--corpus", str(corpus), "--vocab", str(vocab_file),
                     "--out-dir", str(tmp_path / "mlm"), "--steps", "2", "--checkpoint-every", "1"]) == 0
        capsys.readouterr()
        argv = ["sweep-tapt", "--config", str(cfg_path), "--vocab", str(vocab_file),
                "--checkpoints", str(tmp_path / "mlm"), "--out-dir", str(out_dir)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.startswith("data error:") and err.count("\n") == 1, err
    assert "the tune split holds no entity mention" in err
    assert not out_dir.exists()


DEFAULT_CONFIG_TEXT = """\
{
 "corpus": "c",
 "n_train": 2,
 "vocab": null,
 "vocab_size": 200,
 "methods": [
  "word_tagger",
  "span_classifier"
 ],
 "seeds": [
  0,
  1,
  2
 ],
 "eval_splits": [
  "tune"
 ],
 "encoder": {
  "vocab_size": 0,
  "max_positions": 512,
  "hidden_dim": 64,
  "n_layers": 2,
  "n_heads": 4,
  "ffn_dim": 128,
  "dropout_rate": 0.0,
  "init_seed": 0
 },
 "heads": {
  "max_span_width": 12,
  "span_len_dim": 16,
  "span_hidden": 64
 },
 "train": {
  "method": "word_tagger",
  "learning_rate": 0.001,
  "batch_size": 8,
  "epochs": 50,
  "weight_decay": 0.01,
  "grad_clip": 1.0,
  "seed": 0,
  "checkpoint_every": 50,
  "warmup_frac": 0.1,
  "early_stop_f1": null
 },
 "mlm": {
  "total_steps": 300,
  "checkpoint_every": 60,
  "mask_prob": 0.15,
  "seed": 0,
  "batch_size": 8,
  "learning_rate": 0.001,
  "weight_decay": 0.01,
  "grad_clip": 1.0,
  "warmup_frac": 0.1,
  "heldout_fraction": 0.1
 }
}
"""


def test_serialised_files_keep_field_order(tmp_path, corpus_file, vocab_file, small_vocab):
    from dualner.encoder import EncoderConfig, init_params, save_checkpoint
    from dualner.corpus import write_json
    from dualner.train import ExperimentConfig, LogEntry, write_log

    write_json(tmp_path / "exp.json", asdict(ExperimentConfig(corpus="c", n_train=2)))
    assert (tmp_path / "exp.json").read_text() == DEFAULT_CONFIG_TEXT

    write_log(tmp_path / "log.jsonl", [LogEntry(3, "train", "loss", 0.5)])
    assert (tmp_path / "log.jsonl").read_text() == '{"step": 3, "split": "train", "metric": "loss", "value": 0.5}\n'

    enc = init_params(EncoderConfig(vocab_size=len(small_vocab), hidden_dim=16, n_layers=1, n_heads=2, ffn_dim=24))
    save_checkpoint(tmp_path / "mlm" / "mlm_step_000000.npz",
                    {"kind": "encoder", "step": 0, "encoder": asdict(enc.config)}, enc.tensors)
    cfg_path = tmp_path / "sweep_exp.json"
    cfg_path.write_text(json.dumps({"corpus": str(corpus_file), "n_train": 16, "train": {"epochs": 0}}))
    assert main([
        "sweep-tapt", "--config", str(cfg_path), "--vocab", str(vocab_file),
        "--checkpoints", str(tmp_path / "mlm"), "--out-dir", str(tmp_path / "sweep"),
    ]) == 0
    sweep = (tmp_path / "sweep" / "sweep.json").read_text()
    f1 = json.loads(sweep)["points"][0]["f1"]
    assert sweep == f'{{\n "points": [\n  {{\n   "step": 0,\n   "f1": {f1!r},\n   "best_step": 0\n  }}\n ]\n}}\n'

    assert main([
        "evaluate", "--gold", str(corpus_file), "--pred", str(corpus_file),
        "--by-subtokens", str(vocab_file), "--out", str(tmp_path / "eval.json"),
    ]) == 0
    bucket = json.loads((tmp_path / "eval.json").read_text())["overall"]["subtoken_grouped"]["3+"]
    n = bucket["word_count"]
    assert json.dumps(bucket) == f'{{"word_count": {n}, "tp": {n}, "fp": 0, "fn": 0, "f1": 1.0}}'
