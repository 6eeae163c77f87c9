#!/usr/bin/env python3
"""Continued pre-training demo: MLM checkpoints, then a downstream F1 sweep.

Pre-trains the encoder with masked language modeling on a synthetic corpus
(snapshots every 60 of 300 steps, the untouched step-0 encoder included),
then fine-tunes the tagger from every snapshot and prints tune F1 per
pre-training step.  The curve is not expected to be monotone.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import asdict
from pathlib import Path

from dualner.corpus import LabelInventory, generate_synthetic, split_train_tune
from dualner.encoder import EncoderConfig
from dualner.heads import HeadConfig
from dualner.subtok import train_bpe
from dualner.train import MlmConfig, TrainConfig, pretrain_mlm, sweep_tapt_checkpoints


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="out/tapt_demo")
    ap.add_argument("--docs", type=int, default=70)
    ap.add_argument("--steps", type=int, default=300)
    ap.add_argument("--checkpoint-every", type=int, default=60)
    ap.add_argument("--method", default="word_tagger", choices=["word_tagger", "span_classifier"])
    args = ap.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    inventory = LabelInventory.from_types(["Facility", "Instrument"])
    docs = generate_synthetic(3, args.docs, inventory)
    vocab = train_bpe(docs, 220)
    encoder_cfg = EncoderConfig(hidden_dim=64, n_layers=2, n_heads=4, ffn_dim=128)

    mlm_cfg = MlmConfig(total_steps=args.steps, checkpoint_every=args.checkpoint_every, seed=0)
    mlm = pretrain_mlm(docs, vocab, encoder_cfg, mlm_cfg)
    print(f"{'step':>6} {'train mlm loss':>15} {'heldout mlm loss':>17}")
    for step, _params in mlm.checkpoints:
        print(f"{step:>6} {mlm.probe_loss(step):>15.4f} {mlm.probe_loss(step, 'heldout'):>17.4f}")

    train_docs, tune_docs = split_train_tune(docs, max(2, int(0.8 * len(docs))))
    points = sweep_tapt_checkpoints(
        mlm.checkpoints,
        train_docs,
        tune_docs,
        vocab,
        encoder_cfg,
        HeadConfig(),
        TrainConfig(method=args.method, epochs=20, checkpoint_every=20, seed=0),
    )
    print(f"\n{'pretrain step':>13} {'tune F1':>9}")
    for p in points:
        print(f"{p.step:>13} {p.f1:>9.4f}")
    (out_dir / "sweep.json").write_text(
        json.dumps({"points": [asdict(p) for p in points]}, indent=1) + "\n"
    )
    print(f"\ncurve written to {out_dir / 'sweep.json'}")


if __name__ == "__main__":
    main()
