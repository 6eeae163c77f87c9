"""Command-line entry point.

One executable, subcommand per pipeline stage; experiment-level commands
are config-file-first (JSON, see ExperimentConfig) with flag overrides.
Exit codes: 0 success, 1 usage error, 2 data or validation error (an
allocation that fails included), 3 training error.  Output files are
written atomically, so a failing invocation leaves no partial outputs
behind.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from .corpus import (
    LabelInventory,
    SyntheticProfile,
    atomic_write,
    generate_synthetic,
    load_corpus,
    load_predictions,
    save_corpus,
    split_train_tune,
    write_json,
)
from .encoder import EncoderConfig, EncoderParams, load_encoder_snapshot, save_checkpoint
from .errors import DataError, FormatError, TrainingError
from .evaluate import evaluate_predictions
from .model import METHODS, load_model, predict_documents, save_model
from .postprocess import STRATEGIES, resolve_documents
from .segment import SegmenterConfig, segment_document
from .subtok import SCOPES, BpeVocab, fragmentation_ratio, train_bpe
from .train import (
    ExperimentConfig,
    MlmConfig,
    pretrain_mlm,
    protocol_report,
    sweep_tapt_checkpoints,
    train_runs,
    write_log,
)

CONFIG_ENV = "DUALNER_CONFIG"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_experiment(args, *, required: bool = True) -> ExperimentConfig | None:
    """The config named by ``--config``, else by ``$DUALNER_CONFIG``; None
    when neither is set, which is a usage error if the config is ``required``."""
    path = args.config or os.environ.get(CONFIG_ENV)
    if not path and required:
        raise UsageError(f"--config is required (or set ${CONFIG_ENV})")
    return ExperimentConfig.load(path) if path else None


def _with_flags(section, **flags):
    """``section`` with the flags that were given (not None) replaced; its
    dataclass checks the result and holds the default of every other field."""
    return dataclasses.replace(section, **{name: v for name, v in flags.items() if v is not None})


def _write_table(path: Path, table: str) -> None:
    with atomic_write(path) as fh:
        fh.write(table + "\n")
    print(table)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def cmd_generate(args) -> None:
    inventory = LabelInventory.from_types([t for t in args.types.split(",") if t])
    profile = _with_flags(
        SyntheticProfile(), sentences_per_doc=args.sentences_per_doc,
        words_per_sentence=args.words_per_sentence, oov_fraction=args.oov_fraction,
    )
    docs = generate_synthetic(args.seed, args.docs, inventory, profile)
    save_corpus(docs, args.out)
    _info(f"wrote {len(docs)} synthetic documents -> {args.out}")


def cmd_segment(args) -> None:
    cfg = _with_flags(SegmenterConfig(), min_words=args.min_words)
    docs = load_corpus(args.input)
    fresh = sum(1 for d in docs if not d.sentences)
    docs = [segment_document(d, cfg) for d in docs]
    save_corpus(docs, args.output)
    _info(f"segmented {fresh} of {len(docs)} documents -> {args.output}")


def cmd_build_vocab(args) -> None:
    docs = load_corpus(args.corpus)
    vocab = train_bpe(docs, args.vocab_size)
    vocab.save(args.out)
    _info(f"trained vocabulary: {len(vocab)} symbols, {len(vocab.merges)} merges -> {args.out}")


def cmd_train(args) -> None:
    cfg = _load_experiment(args)
    train_cfg = _with_flags(cfg.train, epochs=args.epochs)
    cfg = _with_flags(cfg, methods=[args.method] if args.method else None, seeds=args.seeds, train=train_cfg)
    out_dir = Path(args.out_dir)
    docs = load_corpus(cfg.corpus)
    train_docs, tune_docs = split_train_tune(docs, cfg.n_train)
    vocab = BpeVocab.load(cfg.vocab) if cfg.vocab else train_bpe(train_docs, cfg.vocab_size)
    results = train_runs(train_docs, tune_docs, vocab, cfg.methods, cfg.seeds, cfg.encoder, cfg.heads, cfg.train)
    eval_sets = {split: train_docs if split == "train" else tune_docs for split in cfg.eval_splits}
    report = protocol_report(results, eval_sets, vocab) if len(cfg.seeds) >= 2 else None
    # every run trains, and the report is scored, before any write: a failure leaves no files
    for (method, seed), result in results.items():
        ckpt = out_dir / f"{method}_seed{seed}.npz"
        save_model(ckpt, result.model)
        write_log(out_dir / f"{method}_seed{seed}_log.jsonl", result.log)
        write_json(
            out_dir / f"{method}_seed{seed}_summary.json",
            {
                "method": method,
                "seed": seed,
                "best_step": result.best_step,
                "best_tune_f1": result.best_tune_f1,
                "checkpoint": ckpt.name,
            },
        )
        _info(
            f"{method}: best tune F1 "
            f"{'n/a' if result.best_tune_f1 is None else f'{result.best_tune_f1:.4f}'} "
            f"at step {result.best_step} -> {ckpt}"
        )
    if report is not None:
        write_json(out_dir / "report.json", report.to_dict())
        _write_table(out_dir / "report.txt", report.render_table())
    # saved only once training succeeded, so a failed run leaves no vocab.json
    if not cfg.vocab:
        vocab.save(out_dir / "vocab.json")
        _info(f"trained vocabulary of {len(vocab)} symbols -> {out_dir / 'vocab.json'}")


def cmd_pretrain(args) -> None:
    exp = _load_experiment(args, required=False)
    mlm_cfg = _with_flags(
        exp.mlm if exp else MlmConfig(), total_steps=args.steps,
        checkpoint_every=args.checkpoint_every, mask_prob=args.mask_prob, seed=args.seed,
    )
    docs = load_corpus(args.corpus)
    vocab = BpeVocab.load(args.vocab)
    result = pretrain_mlm(docs, vocab, exp.encoder if exp else EncoderConfig(), mlm_cfg)
    out_dir = Path(args.out_dir)
    written = set()
    for step, enc in result.checkpoints:
        path = out_dir / f"mlm_step_{step:06d}.npz"
        save_checkpoint(
            path,
            {"kind": "encoder", "step": step, "encoder": dataclasses.asdict(enc.config)},
            enc.tensors,
        )
        written.add(path.name)
    write_log(out_dir / "mlm_log.jsonl", result.log)
    # snapshots of an earlier run would join this run's in a sweep
    for stale in out_dir.glob("mlm_step_*.npz"):
        if stale.name not in written:
            stale.unlink()
    last = result.checkpoints[-1][0]
    probes = (f"train probe loss over the first {result.train_probe_sentences} sentences "
              f"{result.probe_loss(0):.4f} -> {result.probe_loss(last):.4f}")
    if any(entry.split == "heldout" for entry in result.log):
        probes += (f", held-out probe loss {result.probe_loss(0, 'heldout'):.4f} -> "
                   f"{result.probe_loss(last, 'heldout'):.4f}")
    _info(f"saved {len(result.checkpoints)} encoder checkpoints -> {out_dir} ({probes})")


def _load_encoder_checkpoints(directory: str) -> list[tuple[int, EncoderParams]]:
    paths = sorted(Path(directory).glob("mlm_step_*.npz"))
    if not paths:
        raise FormatError(f"no mlm_step_*.npz checkpoints under {directory}")
    out = []
    file_of_step: dict[int, str] = {}
    for p in paths:
        config, enc, _tensors = load_encoder_snapshot(p, "encoder")
        step = config.get("step")
        if type(step) is not int or step < 0:
            raise FormatError('"step" must be a non-negative integer', path=str(p))
        if step in file_of_step:
            raise FormatError(f"step {step} is also the step of {file_of_step[step]}", path=str(p))
        file_of_step[step] = p.name
        if out and enc.config != out[0][1].config:
            raise FormatError(
                f"encoder config differs from that of {paths[0].name}; "
                "every snapshot of a sweep must share one",
                path=str(p),
            )
        out.append((step, enc))
    out.sort(key=lambda pair: pair[0])
    return out


def cmd_sweep(args) -> None:
    cfg = _load_experiment(args)
    docs = load_corpus(args.corpus if args.corpus else cfg.corpus)
    train_docs, tune_docs = split_train_tune(docs, cfg.n_train)
    vocab = BpeVocab.load(args.vocab)
    checkpoints = _load_encoder_checkpoints(args.checkpoints)
    train_cfg = dataclasses.replace(cfg.train, method=args.method or cfg.methods[0])
    points = sweep_tapt_checkpoints(checkpoints, train_docs, tune_docs, vocab, cfg.heads, train_cfg)
    out_dir = Path(args.out_dir)
    write_json(out_dir / "sweep.json", {"points": [dataclasses.asdict(p) for p in points]})
    lines = [f"{'pretrain step':>13} {'tune F1':>9}", "-" * 23]
    lines += [f"{p.step:>13} {p.f1:>9.4f}" for p in points]
    _write_table(out_dir / "sweep.txt", "\n".join(lines))


def cmd_predict(args) -> None:
    docs = load_corpus(args.corpus)
    vocab = BpeVocab.load(args.vocab)
    model = load_model(args.checkpoint)
    preds = predict_documents(model, docs, vocab)
    save_corpus(preds, args.out)
    n = sum(d.n_mentions for d in preds)
    _info(f"predicted {n} mentions with {model.method} -> {args.out}")


def cmd_postprocess(args) -> None:
    strategy = args.strategy.replace("-", "_")
    docs = resolve_documents(load_predictions(args.input), strategy)
    save_corpus(docs, args.output)
    _info(f"applied {strategy} -> {args.output}")


def cmd_evaluate(args) -> None:
    gold = load_corpus(args.gold)
    pred = load_predictions(args.pred)
    vocab = BpeVocab.load(args.by_subtokens) if args.by_subtokens else None
    report = evaluate_predictions(gold, pred, with_mcc=args.mcc, vocab=vocab)
    out = {"overall": report.to_dict()}
    print(report.render_table())
    if args.nesting_table:
        rows = {
            "Orig" if s == "none" else s: evaluate_predictions(gold, resolve_documents(pred, s)).f1
            for s in STRATEGIES
        }
        out["nesting_table"] = rows
        print()
        print(f"{'post-processing':<16} {'F1':>8}")
        print("-" * 25)
        for name, f1 in rows.items():
            print(f"{name:<16} {f1:>8.4f}")
    if args.out:
        write_json(args.out, out)


def cmd_analyze(args) -> None:
    docs = load_corpus(args.corpus)
    vocab = BpeVocab.load(args.vocab)
    report = fragmentation_ratio(docs, vocab, scope=args.scope)
    print(f"fragmentation ratio ({report.scope}): {report.ratio:.4f}")
    print(f"{'sub-tokens':<12} {'words':>8} {'share':>8}")
    print("-" * 30)
    for bucket, share in report.shares().items():
        print(f"{bucket:<12} {report.histogram[bucket]:>8} {share:>8.1%}")
    if args.out:
        write_json(args.out, report.to_dict())


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="dualner", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("generate-synthetic", help="generate a labeled synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--docs", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--types", default="Facility,Instrument,SkyObject", help="comma-separated entity types")
    p.add_argument("--oov-fraction", type=float)
    p.add_argument("--sentences-per-doc", type=int, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--words-per-sentence", type=int, nargs=2, metavar=("LO", "HI"))
    p.set_defaults(handler=cmd_generate)

    p = sub.add_parser("segment", help="split unsegmented documents into sentences")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--min-words", type=int)
    p.set_defaults(handler=cmd_segment)

    p = sub.add_parser("build-vocab", help="train a BPE vocabulary on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--vocab-size", type=int, default=ExperimentConfig.vocab_size)
    p.set_defaults(handler=cmd_build_vocab)

    p = sub.add_parser("train", help="train heads per the experiment config (multi-seed runs emit a protocol report)")
    p.add_argument("--config", help=f"experiment JSON (default ${CONFIG_ENV})")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--seeds", type=int, nargs="+")
    p.add_argument("--epochs", type=int)
    p.set_defaults(handler=cmd_train)

    p = sub.add_parser("pretrain-mlm", help="continue pre-training the encoder with masked language modeling")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--config", help=f"experiment JSON (default ${CONFIG_ENV})")
    p.add_argument("--steps", type=int)
    p.add_argument("--checkpoint-every", type=int)
    p.add_argument("--mask-prob", type=float)
    p.add_argument("--seed", type=int)
    p.set_defaults(handler=cmd_pretrain)

    p = sub.add_parser("sweep-tapt", help="fine-tune from every MLM checkpoint and chart tune F1")
    p.add_argument("--config", help=f"experiment JSON (default ${CONFIG_ENV})")
    p.add_argument("--corpus", help="overrides the config's corpus path")
    p.add_argument("--vocab", required=True)
    p.add_argument("--checkpoints", required=True, help="directory with mlm_step_*.npz")
    p.add_argument("--method", choices=METHODS)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("predict", help="run a trained model over a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("postprocess", help="resolve nested predictions")
    p.add_argument("--input", required=True)
    p.add_argument("--strategy", required=True, choices=[s.replace("_", "-") for s in STRATEGIES])
    p.add_argument("--output", required=True)
    p.set_defaults(handler=cmd_postprocess)

    p = sub.add_parser("evaluate", help="score predictions against gold")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--mcc", action="store_true", help="add word-level multiclass MCC")
    p.add_argument("--by-subtokens", metavar="VOCAB", help="add word F1 grouped by sub-token count")
    p.add_argument("--nesting-table", action="store_true", help="add Orig/keep_inner/keep_outer F1 rows")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(handler=cmd_evaluate)

    p = sub.add_parser("analyze-fragmentation", help="sub-token fragmentation ratio and histogram")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--scope", choices=SCOPES, default=SCOPES[0])
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(handler=cmd_analyze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv:
        parser.print_usage(sys.stderr)
        print("error: a subcommand is required (see --help)", file=sys.stderr)
        return 1
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    if not hasattr(args, "handler"):
        parser.print_usage(sys.stderr)
        return 1
    try:
        args.handler(args)
        return 0
    except DataError as exc:  # before ValueError: some data errors are also ValueErrors
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # e.g. a config asking for a model too large to allocate
        print(f"data error: out of memory ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
