"""The benchmark's tracer must find every function it wraps.

``bench/run.py --trace 1`` wraps the functions in ``workloads.TARGETS`` at
every binding and fails the run when one is missing.  Installing and
uninstalling the tracer here catches a renamed or deleted target in seconds
instead of at the end of a benchmark run, and tiny trainings under it catch
a loop that calls a function it captured before the tracer patched it.
One untraced operation of every workload catches a library signature the
benchmark calls that has drifted.
"""

from __future__ import annotations

import contextlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dualner import model, train
from dualner.corpus import split_train_tune
from dualner.encoder import EncoderConfig
from dualner.heads import HeadConfig

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOAD_NAMES = [w["name"] for w in json.loads((BENCH.parent / "BENCHMARK.json").read_text())["workloads"]]


def _bindings(targets) -> dict:
    out = {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name.startswith("dualner.")
        for attr, value in vars(mod).items()
    }
    for t in targets:
        mod_name, _, cls_name = t.owner.partition(":")
        if cls_name:
            out[(t.owner, t.attr)] = getattr(getattr(sys.modules[mod_name], cls_name), t.attr)
    return out


def test_tracer_installs_over_every_benchmark_target(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import workloads

    before = _bindings(workloads.TARGETS)
    tracer = spans.Tracer()
    tracer.install(workloads.TARGETS)
    tracer.uninstall()
    after = _bindings(workloads.TARGETS)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_traced_trainings_record_their_step_spans(monkeypatch, small_corpus, small_vocab):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import workloads

    train_docs, tune_docs = split_train_tune(small_corpus[:6], 4)
    enc = EncoderConfig(hidden_dim=16, n_layers=1, n_heads=2, ffn_dim=24)
    heads = HeadConfig(max_span_width=4, span_len_dim=4, span_hidden=8)
    tracer = spans.Tracer()
    tracer.install(workloads.TARGETS)
    try:
        for method in ("word_tagger", "span_classifier"):
            tracer.run = method
            cfg = train.TrainConfig(method=method, epochs=1, checkpoint_every=2)
            train.train_supervised(train_docs, tune_docs, small_vocab, enc, heads, cfg)
        tracer.run = "mlm"
        train.pretrain_mlm(train_docs, small_vocab, enc, train.MlmConfig(total_steps=2, checkpoint_every=2))
    finally:
        tracer.uninstall()
    names = {run: {s[spans.NAME] for s in tracer.spans if s[spans.RUN] == run}
             for run in ("word_tagger", "span_classifier", "mlm")}
    step = {"train.AdamW.step", "encoder.encode_backward"}
    for method in ("word_tagger", "span_classifier"):
        assert step | {"model.batch_loss_and_grads", "model.predict_documents"} <= names[method]
    assert step | {"model.mlm_batch_loss_and_grads", "model.mlm_batch_loss_and_grads.eval"} <= names["mlm"]


def test_traced_mlm_steps_count_the_subtokens_they_encode(monkeypatch, small_corpus, small_vocab):
    """``train.subtokens``, the numerator of the benchmark's
    ``train_subtokens_per_s``, sums the sub-tokens ``encoder.encode_with_cache``
    takes within the MLM training steps: the summed lengths of the sentences
    that masked a position.  Each such step makes one ``encoder.encode_backward``."""
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import spans
    import workloads

    draws = []  # (sub-tokens, masked positions) of every mlm_mask call
    masked = []  # per training step: summed lengths of the sentences that masked a position
    real_step, real_mask = model.mlm_batch_loss_and_grads, model.mlm_mask

    def mask(ids, *args, **kwargs):
        out = real_mask(ids, *args, **kwargs)
        draws.append((np.size(ids), out[1].size))
        return out

    def step(*args, **kwargs):
        first = len(draws)
        out = real_step(*args, **kwargs)
        if out[1] is not None:
            masked.append(sum(n for n, k in draws[first:] if k))
        return out

    monkeypatch.setattr(model, "mlm_mask", mask)
    for module in (model, train):
        monkeypatch.setattr(module, "mlm_batch_loss_and_grads", step)
    enc = EncoderConfig(hidden_dim=16, n_layers=1, n_heads=2, ffn_dim=24)
    tracer = spans.Tracer()
    tracer.install(workloads.TARGETS)
    try:
        tracer.run = "mlm"
        train.pretrain_mlm(small_corpus[:6], small_vocab, enc, train.MlmConfig(total_steps=3, checkpoint_every=3))
    finally:
        tracer.uninstall()
    counts = layers.counts(tracer.spans, "mlm")
    assert len(masked) == counts["model.mlm_batch_loss_and_grads"] == 3
    assert counts["train.subtokens"] == sum(masked) > 0
    assert counts["encoder.encode_backward"] == 3


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_each_workload_runs_one_operation(monkeypatch, tmp_path, name):
    """Set-up and one operation at seed 1, as ``bench/run.py`` runs them."""
    monkeypatch.syspath_prepend(str(BENCH))
    import workloads

    w = workloads.WORKLOADS[name]
    prep = workloads.set_up(w, 1)
    op = workloads.run_op(w, prep, lambda _region: contextlib.nullcontext(), time.perf_counter, tmp_path)
    assert prep.failures == [] and op.failures == []
    assert math.isfinite(op.final_loss)
