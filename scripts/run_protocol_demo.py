#!/usr/bin/env python3
"""Desk-scale head-to-head: word tagger vs span classifier, three seeds.

Generates a synthetic corpus, trains both heads once per seed, and prints
the mean/std table over the train and tune splits.  Everything is seeded,
so re-running reproduces the table exactly.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from dualner.corpus import LabelInventory, generate_synthetic, save_corpus, split_train_tune
from dualner.encoder import EncoderConfig
from dualner.heads import HeadConfig
from dualner.subtok import train_bpe
from dualner.train import TrainConfig, run_protocol


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="out/protocol_demo")
    ap.add_argument("--docs", type=int, default=24)
    ap.add_argument("--n-train", type=int, default=18)
    ap.add_argument("--epochs", type=int, default=100)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--corpus-seed", type=int, default=7)
    args = ap.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    inventory = LabelInventory.from_types(["Facility", "Instrument", "SkyObject"])
    docs = generate_synthetic(args.corpus_seed, args.docs, inventory)
    save_corpus(docs, out_dir / "corpus.jsonl")
    train_docs, tune_docs = split_train_tune(docs, args.n_train)
    vocab = train_bpe(train_docs, 200)
    vocab.save(out_dir / "vocab.json")

    report = run_protocol(
        train_docs,
        tune_docs,
        {"train": train_docs, "tune": tune_docs},
        vocab,
        methods=["word_tagger", "span_classifier"],
        seeds=args.seeds,
        encoder_cfg=EncoderConfig(hidden_dim=64, n_layers=2, n_heads=4, ffn_dim=128),
        head_cfg=HeadConfig(),
        train_cfg=TrainConfig(epochs=args.epochs, checkpoint_every=20),
    )
    (out_dir / "report.json").write_text(json.dumps(report.to_dict(), indent=1) + "\n")
    print(report.render_table())
    print(f"\nreport written to {out_dir / 'report.json'}")


if __name__ == "__main__":
    main()
