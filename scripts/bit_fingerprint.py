#!/usr/bin/env python3
"""Print a bit fingerprint of one training and scoring call per benchmark workload.

    python3 scripts/bit_fingerprint.py [WORKLOAD ...]

Sets up each named workload of ``bench/workloads.py`` (default: all three)
at seed 1, runs its training call as the benchmark operation does, and
scores the corpus once with the result.  Prints one line per workload:

    <workload> final_loss=<hex> log=<sha256> weights=<sha256> scores=<sha256> init=<sha256> eval=<sha256>

- ``final_loss``: the benchmark's ``final_loss``, as ``float.hex``;
- ``log``: the whole training log, every value as ``float.hex``;
- ``weights``: every tensor of the final model (supervised) or of the
  last MLM snapshot, by name, dtype, shape and bytes;
- ``scores``: the predictions of ``predict_documents`` over the corpus,
  every score as ``float.hex`` (supervised), or the MLM scoring loss
  (``mlm_bigvocab``);
- ``init``: the same scoring, in the format of ``scores``, with the
  freshly initialized model (supervised) or encoder (``mlm_bigvocab``).
  A trained model that predicts nothing leaves ``scores`` empty, so this
  field is the one that covers the decoding bits then;
- ``eval`` (supervised): the report of ``evaluate_predictions`` of the
  fresh model's predictions against the corpus, with MCC and the
  sub-token buckets, every float as ``float.hex``; ``none`` for
  ``mlm_bigvocab``.

Two revisions whose lines are equal give the same bits on these paths.
BLAS runs on one thread, since the bits hold at a fixed thread count.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1


def _sha(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


def _weights_sha(tensors: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(tensors):
        arr = tensors[name]
        h.update(f"{name} {arr.dtype} {arr.shape}\n".encode("utf-8"))
        h.update(arr.tobytes())
    return h.hexdigest()


def _prediction_lines(trained, prep):
    """One line per mention ``trained`` predicts over the corpus, and the predictions."""
    from dualner import model

    preds = model.predict_documents(trained, prep.docs, prep.vocab)
    return [f"{d.id} {si} {m.start_word} {m.end_word} {m.label} {m.score.hex()}"
            for d in preds for si, s in enumerate(d.sentences) for m in s.mentions], preds


def _hex_floats(obj):
    """``obj`` with every float, at any depth, as ``float.hex``."""
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dict):
        return {k: _hex_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_hex_floats(v) for v in obj]
    return obj


def _eval_sha(preds, prep) -> str:
    """The sha256 of the full evaluation report of ``preds`` against the corpus."""
    from dualner import evaluate

    report = evaluate.evaluate_predictions(prep.docs, preds, with_mcc=True, vocab=prep.vocab)
    return _sha([json.dumps(_hex_floats(report.to_dict()), sort_keys=True)])


def _mlm_loss_lines(params, prep):
    """The MLM scoring loss of encoder ``params`` over the corpus."""
    import numpy as np

    from dualner import model, subtok

    pool = [subtok.subtokenize(s.words, prep.vocab).sub_token_ids for d in prep.docs for s in d.sentences]
    loss, _ = model.mlm_batch_loss_and_grads(params, pool, prep.vocab, 0.15, np.random.default_rng(0),
                                             mode="eval", with_grads=False)
    return [loss.hex()]


def fingerprint(workloads, name: str) -> str:
    """The fingerprint line of workload ``name``."""
    from dualner import corpus, encoder, model, train
    from dualner.heads import HeadConfig

    w = workloads.WORKLOADS[name]
    prep = workloads.set_up(w, SEED)
    if w.supervised:
        train_docs, tune_docs = corpus.split_train_tune(prep.docs, len(prep.docs) - w.n_tune)
        cfg = train.TrainConfig(method=w.method, epochs=w.epochs, checkpoint_every=w.checkpoint_every)
        result = train.train_supervised(train_docs, tune_docs, prep.vocab, prep.encoder_cfg, HeadConfig(), cfg)
        weights = model.model_tensors(result.model)
        scores, _preds = _prediction_lines(result.model, prep)
        labels = corpus.LabelInventory.from_documents(prep.docs)
        init, init_preds = _prediction_lines(model.init_model(w.method, labels, prep.encoder_cfg, HeadConfig()), prep)
        evaluated = _eval_sha(init_preds, prep)
    else:
        cfg = train.MlmConfig(total_steps=w.mlm_steps, checkpoint_every=w.checkpoint_every)
        result = train.pretrain_mlm(prep.docs, prep.vocab, prep.encoder_cfg, cfg)
        params = result.checkpoints[-1][1]
        weights = params.tensors
        scores = _mlm_loss_lines(params, prep)
        init = _mlm_loss_lines(encoder.init_params(prep.encoder_cfg), prep)
        evaluated = "none"
    final_loss, _first = workloads._losses(w, result, [])
    log = (f"{e.step} {e.split} {e.metric} {e.value.hex()}" for e in result.log)
    return (f"{name} final_loss={final_loss.hex()} log={_sha(log)} "
            f"weights={_weights_sha(weights)} scores={_sha(scores)} init={_sha(init)} eval={evaluated}")


def main(argv: list[str]) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy is first imported
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    names = argv or list(workloads.WORKLOADS)
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        print(f"error: unknown workload {unknown}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 1
    for name in names:
        print(fingerprint(workloads, name), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
