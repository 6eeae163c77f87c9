"""The three workloads: seeded inputs, set-up, one timed operation, its checks.

The seed makes the corpus; model initialization, shuffling, dropout and
masking use the library's fixed default seeds.  An operation is one whole
training call on the prepared inputs followed by ``SCORE_PASSES`` passes of
the returned model's scoring path over the full corpus.  Every operation of a run
repeats the same calls on the same inputs, so its loss and its traced
counts must repeat bit for bit.

The supervised workloads train one epoch over a larger corpus, so that
``final_loss`` (the mean loss over that epoch) is a loss on sentences not
yet seen and depends little on which rare words a seeded corpus draws.

Why these three (each is the control for the others' layers):

- ``tagger_short``: 11-16 word sentences, word tagger.  The encoder and the
  per-sentence Python glue do the work and the span head is never called,
  so per-call overhead (and packing) shows most here.
- ``span_long``: 40-56 word sentences with 2-5 mentions, span classifier at
  width cap 12 (about 500 candidates per sentence).  The span head and
  per-candidate prediction objects dominate; rows are long, so per-call
  overhead matters least.
- ``mlm_bigvocab``: masked-LM pre-training with periodic snapshots on 400
  documents with a BPE vocabulary near 2000 symbols.  ``train_bpe``
  dominates set-up; the step has no head but a tied V x d projection and an
  AdamW update over a large ``tok_emb``; the probes run the encoder
  forward-only over about 1200 sentences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from dualner import corpus, encoder, evaluate, model, postprocess, segment, subtok, train
from dualner.encoder import EncoderConfig
from dualner.errors import ValidationError
from dualner.heads import HeadConfig

from spans import Target

TYPES = ("Facility", "Instrument", "SkyObject")
ENCODER = dict(hidden_dim=64, n_layers=2, n_heads=4, ffn_dim=128)
SCORE_PASSES = 2  # scoring passes per operation, each one timing sample


@dataclass(frozen=True)
class Workload:
    name: str
    method: str  # "word_tagger", "span_classifier" or "mlm"
    profile: corpus.SyntheticProfile
    n_docs: int
    n_tune: int  # supervised: trailing documents held out for tune F1
    vocab_size: int
    epochs: int = 0
    checkpoint_every: int = 0
    mlm_steps: int = 0

    @property
    def supervised(self) -> bool:
        return self.method != "mlm"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("tagger_short", "word_tagger", corpus.SyntheticProfile(),
                 n_docs=240, n_tune=40, vocab_size=200, epochs=1, checkpoint_every=30),
        Workload("span_long", "span_classifier",
                 corpus.SyntheticProfile(sentences_per_doc=(2, 3), words_per_sentence=(40, 56),
                                         mentions_per_sentence=(2, 5)),
                 n_docs=100, n_tune=20, vocab_size=200, epochs=1, checkpoint_every=24),
        Workload("mlm_bigvocab", "mlm", corpus.SyntheticProfile(),
                 n_docs=400, n_tune=0, vocab_size=2000, mlm_steps=80, checkpoint_every=40),
    )
}


# ---------------------------------------------------------------------------
# Set-up: generate -> strip and re-segment -> train_bpe -> tokenize / init
# ---------------------------------------------------------------------------


@dataclass
class Prepared:
    docs: list  # re-segmented documents carrying the generated gold mentions
    vocab: subtok.BpeVocab
    encoder_cfg: EncoderConfig
    n_words: int
    n_subtokens: int
    failures: list[str]


def set_up(w: Workload, seed: int) -> Prepared:
    inventory = corpus.LabelInventory.from_types(TYPES)
    generated = corpus.generate_synthetic(seed, w.n_docs, inventory, w.profile)
    raw = corpus.strip_segmentation(generated)
    segmented = [segment.segment_document(d) for d in raw]
    docs, failures = _reattach_gold(generated, segmented)
    vocab = subtok.train_bpe(docs, w.vocab_size)
    encoder_cfg = EncoderConfig(vocab_size=len(vocab), **ENCODER)
    if w.supervised:
        labels = corpus.LabelInventory.from_documents(docs)
        examples = model.build_examples(docs, vocab, labels, HeadConfig())
        model.init_model(w.method, labels, encoder_cfg, HeadConfig())
        n_sub = sum(int(ex.ids.size) for ex in examples)
    else:
        n_sub = sum(subtok.subtokenize(s.words, vocab).n_subtokens for d in docs for s in d.sentences)
        encoder.init_params(encoder_cfg)
    n_words = sum(d.n_words for d in docs)
    return Prepared(docs, vocab, encoder_cfg, n_words, n_sub, failures)


def _reattach_gold(generated, segmented):
    """Segmentation must reproduce the generated sentences exactly; the gold
    mentions then move onto the re-segmented sentences."""
    failures = []
    docs = []
    for g, s in zip(generated, segmented):
        same = [(x.words, x.char_start, x.char_end) for x in g.sentences] == [
            (x.words, x.char_start, x.char_end) for x in s.sentences
        ]
        if not same:
            failures.append(f"segment: document {g.id} not re-segmented as generated")
            docs.append(g)
            continue
        docs.append(replace(s, sentences=[
            replace(ss, mentions=list(gs.mentions)) for gs, ss in zip(g.sentences, s.sentences)
        ]))
    return docs, failures


# ---------------------------------------------------------------------------
# One operation: train, then score with the returned model
# ---------------------------------------------------------------------------


@dataclass
class OpResult:
    train_s: float
    score_s: list[float]  # one wall time per scoring pass
    final_loss: float
    failures: list[str]


def run_op(w: Workload, prep: Prepared, region, clock, work_dir: Path) -> OpResult:
    """``region(name)`` opens a benchmark-phase span (a no-op when untraced)."""
    failures: list[str] = []
    with region("bench.train"):
        t0 = clock()
        if w.supervised:
            train_docs, tune_docs = corpus.split_train_tune(prep.docs, len(prep.docs) - w.n_tune)
            cfg = train.TrainConfig(method=w.method, epochs=w.epochs,
                                    checkpoint_every=w.checkpoint_every)
            result = train.train_supervised(train_docs, tune_docs, prep.vocab, prep.encoder_cfg,
                                            HeadConfig(), cfg)
        else:
            cfg = train.MlmConfig(total_steps=w.mlm_steps, checkpoint_every=w.checkpoint_every)
            result = train.pretrain_mlm(prep.docs, prep.vocab, prep.encoder_cfg, cfg)
        train_s = clock() - t0
    final_loss, first_loss = _losses(w, result, failures)
    if not final_loss < first_loss:
        failures.append(f"final_loss {final_loss!r} not below first loss {first_loss!r}")
    score_s = []
    for _ in range(SCORE_PASSES):
        with region("bench.score"):
            t0 = clock()
            if w.supervised:
                checks = _score_supervised(result.model, prep, work_dir)
            else:
                checks = _score_mlm(result.checkpoints[-1][1], prep)
            score_s.append(clock() - t0)
        failures += checks()
    return OpResult(train_s, score_s, final_loss, failures)


def _losses(w: Workload, result, failures: list[str]) -> tuple[float, float]:
    """(final_loss, first loss of the same series); flags non-finite entries."""
    for e in result.log:
        if not math.isfinite(e.value):
            failures.append(f"non-finite {e.split} {e.metric} at step {e.step}")
        if e.metric == "micro_f1" and not 0.0 <= e.value <= 1.0:
            failures.append(f"tune F1 {e.value!r} outside [0, 1] at step {e.step}")
    if w.supervised:
        losses = [e.value for e in result.log if e.split == "train" and e.metric == "loss"]
        per_epoch = -(-len(losses) // w.epochs)
        return float(np.mean(losses[-per_epoch:])), losses[0]
    # MLM: held-out probe at the final snapshot against the untouched init
    return result.probe_loss(w.mlm_steps, "heldout"), result.probe_loss(0, "heldout")


def _score_supervised(trained, prep: Prepared, work_dir: Path):
    """One scoring pass; returns its checks as a function so that they run
    outside the timed region."""
    path = work_dir / "model.npz"
    model.save_model(path, trained)
    loaded = model.load_model(path)
    preds = model.predict_documents(loaded, prep.docs, prep.vocab)
    resolved = [
        replace(d, sentences=[
            replace(s, mentions=postprocess.resolve_nesting(s.mentions, "keep_inner"))
            for s in d.sentences
        ])
        for d in preds
    ]
    report = evaluate.evaluate_predictions(prep.docs, resolved, with_mcc=True)

    def checks() -> list[str]:
        out = []
        for d in preds + resolved:
            try:
                corpus.validate_document(d, allow_overlap=True)
            except ValidationError as exc:
                out.append(f"prediction invalid: {exc}")
        for key in ("f1", "precision", "recall"):
            if not 0.0 <= getattr(report, key) <= 1.0:
                out.append(f"{key} {getattr(report, key)!r} outside [0, 1]")
        for label, c in report.per_type.items():
            if not 0.0 <= c["f1"] <= 1.0:
                out.append(f"{label} F1 {c['f1']!r} outside [0, 1]")
        if report.mcc is None or not -1.0 <= report.mcc <= 1.0:
            out.append(f"MCC {report.mcc!r} outside [-1, 1]")
        n_gold = sum(len(s.mentions) for d in prep.docs for s in d.sentences)
        n_pred = sum(len(s.mentions) for d in resolved for s in d.sentences)
        if report.tp + report.fn != n_gold or report.tp + report.fp != n_pred:
            out.append(f"tp/fp/fn {report.tp}/{report.fp}/{report.fn} inconsistent with "
                       f"{n_gold} gold and {n_pred} predicted mentions")
        return out

    return checks


def _score_mlm(params, prep: Prepared):
    """The MLM model's scoring pass: masked-LM loss over the full corpus."""
    pool = [np.asarray(subtok.subtokenize(s.words, prep.vocab).sub_token_ids, dtype=np.int64)
            for d in prep.docs for s in d.sentences]
    loss, _ = model.mlm_batch_loss_and_grads(params, pool, prep.vocab, 0.15,
                                             np.random.default_rng(0), mode="eval",
                                             with_grads=False)

    def checks() -> list[str]:
        return [] if math.isfinite(loss) and loss > 0 else [f"scoring loss {loss!r} not finite and positive"]

    return checks


# ---------------------------------------------------------------------------
# What the traced run records, and which layers each workload must reach
# ---------------------------------------------------------------------------


def _n_ids(args, kwargs):
    return int(np.size(args[0] if args else kwargs["ids"]))


def _n_spans(args, kwargs):
    return len(args[1] if len(args) > 1 else kwargs["spans"])


def _mlm_name(args, kwargs):
    grads = kwargs.get("with_grads", args[7] if len(args) > 7 else True)
    return "model.mlm_batch_loss_and_grads" if grads else "model.mlm_batch_loss_and_grads.eval"


TARGETS = [
    Target("dualner.corpus", "generate_synthetic", "corpus.generate_synthetic"),
    Target("dualner.corpus", "strip_segmentation", "corpus.strip_segmentation"),
    Target("dualner.segment", "segment_document", "segment.segment_document"),
    Target("dualner.subtok", "train_bpe", "subtok.train_bpe"),
    Target("dualner.subtok", "subtokenize", "subtok.subtokenize"),
    Target("dualner.encoder", "init_params", "encoder.init_params"),
    Target("dualner.encoder", "encode_with_cache", "encoder.encode_with_cache", count=_n_ids),
    Target("dualner.encoder", "encode_backward", "encoder.encode_backward", count=_n_ids),
    Target("dualner.encoder:EncoderParams", "clone", "encoder.EncoderParams.clone"),
    Target("dualner.heads", "tagger_forward", "heads.tagger_forward"),
    Target("dualner.heads", "tagger_backward", "heads.tagger_backward"),
    Target("dualner.heads", "span_logits_with_cache", "heads.span_logits_with_cache", count=_n_spans),
    Target("dualner.heads", "span_forward", "heads.span_forward"),
    Target("dualner.heads", "span_backward", "heads.span_backward"),
    Target("dualner.heads", "span_decode", "heads.span_decode"),
    Target("dualner.model", "init_model", "model.init_model"),
    Target("dualner.model", "build_examples", "model.build_examples"),
    Target("dualner.model:Model", "clone", "model.Model.clone"),
    Target("dualner.model", "batch_loss_and_grads", "model.batch_loss_and_grads"),
    Target("dualner.model", "mlm_mask", "model.mlm_mask"),
    Target("dualner.model", "mlm_batch_loss_and_grads", "model.mlm_batch_loss_and_grads",
           rename=_mlm_name),
    Target("dualner.model", "predict_documents", "model.predict_documents"),
    Target("dualner.model", "save_model", "model.save_model"),
    Target("dualner.model", "load_model", "model.load_model"),
    Target("dualner.train", "train_supervised", "train.train_supervised"),
    Target("dualner.train", "pretrain_mlm", "train.pretrain_mlm"),
    Target("dualner.train:AdamW", "step", "train.AdamW.step"),
    Target("dualner.evaluate", "mention_prf", "evaluate.mention_prf"),
    Target("dualner.evaluate", "evaluate_predictions", "evaluate.evaluate_predictions"),
    Target("dualner.postprocess", "resolve_nesting", "postprocess.resolve_nesting"),
]
SPAN_NAMES = sorted({t.name for t in TARGETS} | {"model.mlm_batch_loss_and_grads.eval"})

_SETUP = {"corpus.generate_synthetic", "corpus.strip_segmentation", "segment.segment_document",
          "subtok.train_bpe", "subtok.subtokenize", "encoder.init_params"}
_SUPERVISED_OP = {
    "train.train_supervised", "model.init_model", "encoder.init_params", "model.build_examples",
    "subtok.subtokenize", "encoder.encode_with_cache", "encoder.encode_backward",
    "model.batch_loss_and_grads", "train.AdamW.step", "model.Model.clone",
    "encoder.EncoderParams.clone", "model.predict_documents", "evaluate.mention_prf",
    "model.save_model", "model.load_model", "evaluate.evaluate_predictions",
    "postprocess.resolve_nesting",
}
_TAGGER = {"heads.tagger_forward", "heads.tagger_backward"}
_SPAN = {"heads.span_logits_with_cache", "heads.span_forward", "heads.span_backward",
         "heads.span_decode"}

# Span names each phase must call at least once; every other name must be 0.
EXPECTED = {
    "tagger_short": {"setup": _SETUP | {"model.build_examples", "model.init_model"},
                     "op": _SUPERVISED_OP | _TAGGER},
    "span_long": {"setup": _SETUP | {"model.build_examples", "model.init_model"},
                  "op": _SUPERVISED_OP | _SPAN},
    "mlm_bigvocab": {"setup": _SETUP,
                     "op": {"train.pretrain_mlm", "subtok.subtokenize", "encoder.init_params",
                            "encoder.encode_with_cache", "encoder.encode_backward",
                            "model.mlm_mask", "model.mlm_batch_loss_and_grads",
                            "model.mlm_batch_loss_and_grads.eval", "train.AdamW.step",
                            "encoder.EncoderParams.clone"}},
}
