"""Per-layer metrics, counts and the coverage check, computed from spans.

Counts come from one operation and must repeat exactly in every traced
operation.  Times are seconds per operation (one training call and its
scoring passes), medians over the traced timed operations; set-up times
are medians over the traced set-ups.
"""

from __future__ import annotations

import statistics

import numpy as np

from spans import NAME, START, RunSpans
from workloads import SPAN_NAMES

STEP = ("model.batch_loss_and_grads", "model.mlm_batch_loss_and_grads")
TRAIN_CALL = ("train.train_supervised", "train.pretrain_mlm")
TUNE_EVAL = ("model.predict_documents", "evaluate.mention_prf", "model.mlm_batch_loss_and_grads.eval")
CLONE = ("model.Model.clone", "encoder.EncoderParams.clone")
FWD, BWD = "encoder.encode_with_cache", "encoder.encode_backward"
SCORE = ("bench.score",)


def counts(spans, run: str) -> dict[str, int]:
    """Calls per traced name plus the work counts of one run id."""
    rs = RunSpans(spans, run)
    out = {name: rs.calls(name) for name in SPAN_NAMES}
    out["encoder.fwd_subtokens"] = rs.count(FWD)
    out["heads.span_candidates"] = rs.count("heads.span_logits_with_cache")
    out["train.subtokens"] = rs.count(FWD, within=STEP)  # through training fwd+bwd
    return out


def coverage(spans, run: str, expected: set[str]) -> list[str]:
    """Every expected name called at least once, every other name never."""
    rs = RunSpans(spans, run)
    out = []
    for name in SPAN_NAMES:
        n = rs.calls(name)
        if name in expected and n == 0:
            out.append(f"coverage: {name} was never called")
        elif name not in expected and n:
            out.append(f"coverage: {name} was called {n} times, expected 0")
    return out


def _op_times(spans, run: str) -> dict[str, float]:
    rs = RunSpans(spans, run)
    steps = rs.named(STEP)
    preds = rs.named(["model.predict_documents"], within=SCORE)
    (call,) = rs.named(TRAIN_CALL)
    kids = rs.children[call]
    step_ms = _step_ms(rs, steps)
    return {
        "encoder.fwd_s": rs.seconds([FWD]),
        "encoder.bwd_s": rs.seconds([BWD]),
        "heads.tagger_fwd_s": rs.seconds(["heads.tagger_forward"]),
        "heads.tagger_bwd_s": rs.seconds(["heads.tagger_backward"]),
        "heads.span_fwd_s": rs.seconds(["heads.span_forward", "heads.span_logits_with_cache"]),
        "heads.span_bwd_s": rs.seconds(["heads.span_backward"]),
        "heads.span_decode_s": rs.seconds(["heads.span_decode"]),
        "model.step_s": sum(rs.dur(i) for i in steps),
        "model.step_self_s": sum(rs.self_seconds(i, ("encoder", "heads")) for i in steps),
        "model.mlm_mask_s": rs.seconds(["model.mlm_mask"]),
        "model.predict_s": sum(rs.dur(i) for i in preds),
        "model.predict_self_s": sum(rs.self_seconds(i, ("encoder", "heads", "subtok")) for i in preds),
        "model.save_load_s": rs.seconds(["model.save_model", "model.load_model"]),
        "train.step_ms_p50": float(np.percentile(step_ms, 50)),
        "train.step_ms_p90": float(np.percentile(step_ms, 90)),
        "train.optimizer_s": rs.seconds(["train.AdamW.step"]),
        "train.tune_eval_s": sum(rs.dur(i) for i in kids if rs.all[i][NAME] in TUNE_EVAL),
        "train.clone_s": rs.seconds(CLONE, within=TRAIN_CALL),
        "train.loop_self_s": rs.dur(call) - sum(rs.dur(i) for i in kids),
        "evaluate.evaluate_s": rs.seconds(["evaluate.evaluate_predictions"], within=SCORE),
        "postprocess.resolve_nesting_s": rs.seconds(["postprocess.resolve_nesting"]),
    }


def _step_ms(rs: RunSpans, steps: list[int]) -> list[float]:
    """Per training step: the loss-and-gradient call plus the optimizer update
    that directly follows it (none when MLM masked nothing in the batch)."""
    events = sorted([(rs.all[i][START], True, i) for i in steps]
                    + [(rs.all[i][START], False, i) for i in rs.named(["train.AdamW.step"])])
    out: list[float] = []
    after_step = False
    for _, is_step, i in events:
        if is_step:
            out.append(rs.dur(i) * 1e3)
        elif after_step:
            out[-1] += rs.dur(i) * 1e3
        after_step = is_step
    return out


def _setup_times(spans, run: str) -> dict[str, float]:
    rs = RunSpans(spans, run)
    return {
        "corpus.generate_s": rs.seconds(["corpus.generate_synthetic"]),
        "segment.segment_s": rs.seconds(["segment.segment_document"]),
        "subtok.train_bpe_s": rs.seconds(["subtok.train_bpe"]),
        "subtok.subtokenize_s": rs.seconds(["subtok.subtokenize"]),
    }


def per_layer(spans, n_setups: int, traced_runs: list[str], ref_counts: dict, prep) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    out: dict[str, tuple[float, str]] = {}
    c = ref_counts
    out["encoder.fwd_calls"] = (c[FWD], "count")
    out["encoder.fwd_subtokens"] = (c["encoder.fwd_subtokens"], "count")
    out["encoder.bwd_calls"] = (c[BWD], "count")
    out["heads.span_candidates"] = (c["heads.span_candidates"], "count")
    out["train.steps"] = (c[STEP[0]] + c[STEP[1]], "count")
    out["subtok.vocab_size"] = (len(prep.vocab), "count")
    out["subtok.subtokens_per_word"] = (prep.n_subtokens / prep.n_words, "subtokens/word")
    for name, values in _medians([_op_times(spans, r) for r in traced_runs]).items():
        out[name] = (values, "ms" if "_ms_" in name else "s")
    for name, values in _medians([_setup_times(spans, f"setup-{k}")
                                  for k in range(n_setups)]).items():
        out[name] = (values, "s")
    return dict(sorted(out.items()))


def _medians(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}
