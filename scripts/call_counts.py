#!/usr/bin/env python3
"""Print the cProfile call count of nine library paths on the benchmark set-ups.

    python3 scripts/call_counts.py [WORKLOAD ...]

Sets up each named workload of ``bench/workloads.py`` (default: all three)
at seed 1 and counts, with ``cProfile``, the Python and built-in function
calls of its paths:

- ``tagger_short`` and ``span_long``: ``train``, ``batch_loss_and_grads``
  over the first 10 batches of 8 training sentences, and ``predict``, one
  ``predict_documents`` over the whole corpus, both with a fresh model;
- ``mlm_bigvocab``: ``mlm_eval``, the benchmark's MLM scoring loss over the
  whole corpus, and ``mlm_steps``, 20 packed MLM training steps of 8
  sentences;
- every workload: ``read``, one ``load_predictions`` of its documents, saved
  with ``save_corpus`` to a temporary directory, counted with the record
  readers' cache cleared, so the count is that of a first read whatever
  workloads are named before it.

A call count is deterministic, so unlike a time it can be compared between
two revisions in one run each on a noisy machine.  Prints one line per
path: ``<workload> <path> <calls>``.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
TRAIN_BATCHES, BATCH = 10, 8
MLM_STEPS = 20


def count_calls(fn) -> int:
    profiler = cProfile.Profile()
    profiler.runcall(fn)
    return pstats.Stats(profiler).total_calls


def paths(workloads, name: str, tmp: str) -> dict:
    """Path name -> no-argument function running that path once; ``read``'s
    file is saved under directory ``tmp``."""
    import numpy as np

    from dualner import corpus, encoder, model, subtok
    from dualner.heads import HeadConfig

    w = workloads.WORKLOADS[name]
    prep = workloads.set_up(w, SEED)
    saved = Path(tmp) / f"{name}.jsonl"
    corpus.save_corpus(prep.docs, saved)
    read = {"read": lambda: corpus.load_predictions(saved)}
    if w.supervised:
        labels = corpus.LabelInventory.from_documents(prep.docs)
        train_docs, _tune = corpus.split_train_tune(prep.docs, len(prep.docs) - w.n_tune)
        examples = model.build_examples(train_docs, prep.vocab, labels, HeadConfig())
        batches = [examples[i * BATCH:(i + 1) * BATCH] for i in range(TRAIN_BATCHES)]
        trained = model.init_model(w.method, labels, prep.encoder_cfg, HeadConfig())

        def train():
            ws = encoder.Workspace()
            for batch in batches:
                model.batch_loss_and_grads(trained, batch, "train", np.random.default_rng(0), ws)

        return {"train": train, "predict": lambda: model.predict_documents(trained, prep.docs, prep.vocab)} | read
    params = encoder.init_params(prep.encoder_cfg)
    pool = [subtok.subtokenize(s.words, prep.vocab).sub_token_ids for d in prep.docs for s in d.sentences]

    def mlm_eval():
        model.mlm_batch_loss_and_grads(params, pool, prep.vocab, 0.15, np.random.default_rng(0),
                                       mode="eval", with_grads=False)

    def mlm_steps():
        ws, rng = encoder.Workspace(), np.random.default_rng(0)
        for step in range(MLM_STEPS):
            batch = pool[step * BATCH:(step + 1) * BATCH]
            model.mlm_batch_loss_and_grads(params, batch, prep.vocab, 0.15, rng, mode="train", workspace=ws)

    return {"mlm_eval": mlm_eval, "mlm_steps": mlm_steps} | read


def main(argv: list[str]) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy is first imported
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads

    from dualner import corpus

    names = argv or list(workloads.WORKLOADS)
    unknown = sorted(set(names) - set(workloads.WORKLOADS))
    if unknown:
        print(f"error: unknown workload {unknown}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            for path, fn in paths(workloads, name, tmp).items():
                corpus._record_reader.cache_clear()
                print(f"{name} {path} {count_calls(fn)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
