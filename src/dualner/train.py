"""Training: supervised runs, MLM continued pre-training, multi-seed protocol.

Supervised training is epoch-based with periodic tune-split evaluation and
keeps the snapshot with the best tune F1 (ties to the earliest step); MLM
pre-training is step-based and snapshots the encoder on a fixed interval,
step 0 (the untouched initialization) included.  Every source of
randomness, shuffling, dropout, and masking, flows from the configured
seeds, so equal configs reproduce logs and parameters bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .corpus import (
    Document,
    LabelInventory,
    atomic_write,
    dataclass_from_dict,
    read_json,
)
from .encoder import EncoderConfig, EncoderParams, Workspace, check_vocab_size, init_params
from .errors import ProtocolError, TrainingError, UnusableDataError
from .evaluate import EvalReport, evaluate_predictions, mean_std, mention_prf
from .heads import HeadConfig
from .model import (
    METHODS,
    Model,
    batch_loss_and_grads,
    build_examples,
    check_sentences,
    head_prefix,
    init_model,
    mlm_batch_loss_and_grads,
    mlm_masks,
    model_tensors,
    predict_documents,
)
from .subtok import BpeVocab, subtokenize

__all__ = [
    "TrainConfig",
    "MlmConfig",
    "LogEntry",
    "TrainResult",
    "MlmResult",
    "SweepPoint",
    "ProtocolReport",
    "ExperimentConfig",
    "AdamW",
    "train_supervised",
    "pretrain_mlm",
    "sweep_tapt_checkpoints",
    "train_runs",
    "protocol_report",
    "write_log",
]


def _check_optimizer(cfg: TrainConfig | MlmConfig) -> None:
    """The AdamW settings both configs carry; a ``grad_clip`` of 0 turns clipping off."""
    if not cfg.learning_rate > 0:
        raise ValueError("learning_rate must be positive")
    if not 0.0 <= cfg.warmup_frac < 1.0:
        raise ValueError("warmup_frac must be in [0, 1)")
    if not (cfg.weight_decay >= 0 and cfg.grad_clip >= 0):
        raise ValueError("weight_decay and grad_clip must be >= 0")


@dataclass(frozen=True)
class TrainConfig:
    method: str = "word_tagger"
    learning_rate: float = 1e-3
    batch_size: int = 8
    epochs: int = 50
    weight_decay: float = 0.01
    grad_clip: float = 1.0
    seed: int = 0
    checkpoint_every: int = 50
    warmup_frac: float = 0.1
    early_stop_f1: float | None = None

    def __post_init__(self) -> None:
        head_prefix(self.method)  # refuses an unknown method
        _check_optimizer(self)
        if self.batch_size < 1 or self.checkpoint_every < 1 or self.epochs < 0 or self.seed < 0:
            raise ValueError("batch_size and checkpoint_every must be >= 1, epochs and seed >= 0")


@dataclass(frozen=True)
class MlmConfig:
    total_steps: int = 300
    checkpoint_every: int = 60
    mask_prob: float = 0.15
    seed: int = 0
    batch_size: int = 8
    learning_rate: float = 1e-3
    weight_decay: float = 0.01
    grad_clip: float = 1.0
    warmup_frac: float = 0.1
    heldout_fraction: float = 0.1

    def __post_init__(self) -> None:
        _check_optimizer(self)
        if self.total_steps < 1 or self.checkpoint_every < 1 or self.batch_size < 1:
            raise ValueError("total_steps, checkpoint_every, and batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("mlm seed must be >= 0")
        if self.total_steps % self.checkpoint_every != 0:
            raise ValueError(
                f"checkpoint_every={self.checkpoint_every} must divide total_steps={self.total_steps}"
            )
        if not 0.0 < self.mask_prob <= 1.0:
            raise ValueError("mask_prob must be in (0, 1]")
        if not 0.0 <= self.heldout_fraction < 1.0:
            raise ValueError("heldout_fraction must be in [0, 1)")


@dataclass(frozen=True)
class LogEntry:
    step: int
    split: str
    metric: str
    value: float


def write_log(path: str | Path, log: Sequence[LogEntry]) -> None:
    with atomic_write(path) as fh:
        for entry in log:
            fh.write(json.dumps(asdict(entry)))
            fh.write("\n")


# ---------------------------------------------------------------------------
# Optimizer: Adam with decoupled weight decay and linear warmup
# ---------------------------------------------------------------------------


class AdamW:
    """Deterministic AdamW over a flat tensor dict; decay skips 1-D tensors.

    The learning rate warms up linearly over ``warmup_steps`` updates and
    stays constant afterwards; a ``grad_clip`` of 0 turns clipping off.
    Keys are visited in sorted order so update arithmetic is order-fixed
    across runs.  Each step's temporaries live in the heads of two buffers
    as large as the largest tensor, allocated here once.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(
        self,
        tensors: dict[str, np.ndarray],
        learning_rate: float,
        weight_decay: float = 0.0,
        warmup_steps: int = 0,
        grad_clip: float = 0.0,
    ):
        self.tensors = tensors
        self.keys = sorted(tensors)
        self.lr = learning_rate
        self.weight_decay = weight_decay
        self.warmup_steps = warmup_steps
        self.grad_clip = grad_clip
        self.m = {k: np.zeros_like(tensors[k]) for k in self.keys}
        self.v = {k: np.zeros_like(tensors[k]) for k in self.keys}
        self.t = 0
        n = max(t.size for t in tensors.values())
        self._flat = (np.empty(n), np.empty(n))

    def _lr(self) -> float:
        if self.warmup_steps and self.t <= self.warmup_steps:
            return self.lr * self.t / self.warmup_steps
        return self.lr

    def step(self, grads: dict[str, np.ndarray]) -> None:
        """One update of the tensors from ``grads``, which are left as they are."""
        self.t += 1
        flat_a, flat_b = self._flat
        scale = 1.0
        if self.grad_clip:
            sq = 0
            for k in self.keys:
                g = grads[k]
                sq += float(np.multiply(g, g, out=flat_a[: g.size].reshape(g.shape)).sum())
            norm = np.sqrt(sq)
            if norm > self.grad_clip:
                scale = self.grad_clip / norm
        lr = self._lr()
        c1 = 1.0 - self.beta1**self.t
        c2 = 1.0 - self.beta2**self.t
        # In place, but in the operation order of
        #   m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g^2
        #   p -= lr (m / c1 / (sqrt(v / c2) + eps) + wd p)
        # so the arithmetic keeps its bits.
        for k in self.keys:
            g, p = grads[k], self.tensors[k]
            a = flat_a[: g.size].reshape(g.shape)
            b = flat_b[: g.size].reshape(g.shape)
            if scale != 1.0:
                g = np.multiply(g, scale, out=b)
            m, v = self.m[k], self.v[k]
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=a)
            np.multiply(g, g, out=a)
            a *= 1.0 - self.beta2
            v *= self.beta2
            v += a
            update = np.divide(m, c1, out=b)  # g is no longer read
            np.divide(v, c2, out=a)
            np.sqrt(a, out=a)
            a += self.eps
            update /= a
            if self.weight_decay and p.ndim >= 2:
                np.multiply(p, self.weight_decay, out=a)
                update += a
            update *= lr
            p -= update


# ---------------------------------------------------------------------------
# Supervised training with best-checkpoint selection
# ---------------------------------------------------------------------------


@dataclass
class TrainResult:
    model: Model
    log: list[LogEntry]
    best_step: int
    best_tune_f1: float | None


def _resolve_encoder_cfg(encoder_cfg: EncoderConfig, vocab: BpeVocab) -> EncoderConfig:
    if encoder_cfg.vocab_size == 0:
        return replace(encoder_cfg, vocab_size=len(vocab))
    check_vocab_size(encoder_cfg, len(vocab), "encoder config")
    return encoder_cfg


def _tune_prf(model: Model, docs: Sequence[Document], vocab: BpeVocab) -> EvalReport:
    preds = predict_documents(model, docs, vocab)
    gold = [s.mentions for d in docs for s in d.sentences]
    pred = [s.mentions for d in preds for s in d.sentences]
    return mention_prf(gold, pred)


def _run_steps(
    cfg: TrainConfig | MlmConfig,
    tensors: dict[str, np.ndarray],
    total_steps: int,
    batches: Iterable,
    loss_and_grads: Callable,
    log: list[LogEntry],
    snapshot: Callable[[int], bool],
    metric: str,
    what: str,
) -> None:
    """The step loop of both trainings.

    ``loss_and_grads(batch)`` runs on each batch drawn from
    ``batches``; its loss is checked and logged as ``metric``, and AdamW
    updates ``tensors`` from its gradients.  ``snapshot(step)`` runs every
    ``checkpoint_every`` steps and at a last step off that interval; when it
    returns True the run ends there.
    """
    warmup_steps = int(np.ceil(cfg.warmup_frac * total_steps))
    opt = AdamW(tensors, cfg.learning_rate, cfg.weight_decay, warmup_steps, cfg.grad_clip)
    # a diverging run overflows before its loss turns non-finite; the loss
    # check below reports it, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for step, batch in enumerate(batches, start=1):
            loss, grads = loss_and_grads(batch)
            if not np.isfinite(loss):
                raise TrainingError(f"non-finite {what} loss at step {step}")
            opt.step(grads)
            log.append(LogEntry(step, "train", metric, loss))
            if (step % cfg.checkpoint_every == 0 or step == total_steps) and snapshot(step):
                break


def train_supervised(
    train_docs: Sequence[Document],
    tune_docs: Sequence[Document],
    vocab: BpeVocab,
    encoder_cfg: EncoderConfig,
    head_cfg: HeadConfig,
    train_cfg: TrainConfig,
    init_encoder: EncoderParams | None = None,
) -> TrainResult:
    """Train one head end to end and return the best-on-tune checkpoint.

    Tune F1 is recorded every ``checkpoint_every`` steps (and at the final
    step); the returned model maximizes it, ties resolved to the earliest
    step.  ``init_encoder`` warm-starts the encoder, e.g. from an MLM
    snapshot.  Zero epochs return the initialization with an empty log.
    A split without sentences, a sentence of either split longer than
    ``max_positions`` (by name), and a tune split without a gold mention,
    whose F1 would read 1.0 for a model that predicts nothing, are refused
    before the first step.  Each snapshot logs the tune split's
    ``micro_f1``, ``precision``, ``recall`` and ``pred_mentions``.
    """
    encoder_cfg = _resolve_encoder_cfg(encoder_cfg, vocab)
    labels = LabelInventory.from_documents(list(train_docs) + list(tune_docs))
    examples = build_examples(train_docs, vocab, labels, head_cfg)
    check_sentences(encoder_cfg, train_docs, (ex.ids for ex in examples), "training split")
    check_sentences(encoder_cfg, tune_docs, (subtokenize(s.words, vocab).sub_token_ids
                                             for d in tune_docs for s in d.sentences), "tune split")
    if not any(s.mentions for d in tune_docs for s in d.sentences):
        raise UnusableDataError("the tune split holds no entity mention: its F1 would read 1.0 "
                                "for a model that predicts nothing")
    model = init_model(train_cfg.method, labels, encoder_cfg, head_cfg)
    if init_encoder is not None:
        if init_encoder.config != encoder_cfg:
            raise ValueError("init_encoder configuration does not match encoder_cfg")
        model.encoder = init_encoder.clone()

    rng = np.random.default_rng(train_cfg.seed)
    size = train_cfg.batch_size
    batches = (  # each epoch's order is drawn when its first batch is
        [examples[i] for i in order[start : start + size]]
        for order in (rng.permutation(len(examples)) for _ in range(train_cfg.epochs))
        for start in range(0, len(examples), size)
    )
    log: list[LogEntry] = []
    best = TrainResult(model.clone(), log, best_step=0, best_tune_f1=None)

    def snapshot(step: int) -> bool:
        prf = _tune_prf(model, tune_docs, vocab)
        f1 = prf.f1
        for metric, value in (("micro_f1", f1), ("precision", prf.precision), ("recall", prf.recall),
                              ("pred_mentions", float(prf.tp + prf.fp))):
            log.append(LogEntry(step, "tune", metric, value))
        if best.best_tune_f1 is None or f1 > best.best_tune_f1:
            best.model, best.best_step, best.best_tune_f1 = model.clone(), step, f1
        return train_cfg.early_stop_f1 is not None and f1 >= train_cfg.early_stop_f1

    total_steps = train_cfg.epochs * -(-len(examples) // size)
    workspace = Workspace()  # the step buffers of the whole run
    _run_steps(
        train_cfg, model_tensors(model), total_steps, batches,
        lambda batch: batch_loss_and_grads(model, batch, "train", rng, workspace),
        log, snapshot, metric="loss", what="training",
    )
    return best


# ---------------------------------------------------------------------------
# Masked-language-model continued pre-training
# ---------------------------------------------------------------------------


@dataclass
class MlmResult:
    checkpoints: list[tuple[int, EncoderParams]]
    log: list[LogEntry]
    train_probe_sentences: int  # the training probe's k: it scores the pool's first k sentences

    def probe_loss(self, step: int, split: str = "train") -> float:
        """The ``mlm_loss`` probed at snapshot ``step`` on ``split``:
        ``"train"`` (the training pool's first ``train_probe_sentences``
        sentences) or ``"heldout"`` (the whole held-out tail, logged only
        when there is one)."""
        for entry in self.log:
            if entry.step == step and entry.split == split and entry.metric == "mlm_loss":
                return entry.value
        raise KeyError(f"no probe loss logged for step {step} on split {split!r}")


def pretrain_mlm(
    docs: Sequence[Document],
    vocab: BpeVocab,
    encoder_cfg: EncoderConfig,
    mlm_cfg: MlmConfig,
) -> MlmResult:
    """Continue pre-training the encoder with masked-language modeling.

    Labels on ``docs`` are ignored.  Encoder snapshots are taken at step 0
    (the untouched initialization) and every ``checkpoint_every`` steps; at
    each snapshot an eval-mode loss is probed on the held-out tail of the
    sentences and on the training pool's first k, under masks drawn once
    per run, so the series is comparable.  k is the tail's size, or the
    whole pool's when the tail is empty or larger than the pool: the step
    losses already trace the training curve.  Masks are drawn for the
    scored sentences only, the first k before the tail.
    """
    encoder_cfg = _resolve_encoder_cfg(encoder_cfg, vocab)
    if vocab.mask_id is None:
        raise UnusableDataError("vocabulary has no mask token; cannot run masked language modeling")
    pool = [subtokenize(s.words, vocab).sub_token_ids for d in docs for s in d.sentences]
    check_sentences(encoder_cfg, docs, pool, "corpus")
    n_train = max(len(pool) - int(np.ceil(mlm_cfg.heldout_fraction * len(pool))), 1)  # one at least
    train_pool, heldout_pool = pool[:n_train], pool[n_train:]
    k = len(heldout_pool) if 0 < len(heldout_pool) <= n_train else n_train

    enc = init_params(encoder_cfg)
    # Training draws from child (0,) of the seed and the probe masks from
    # child (3,), as when the seed was spawned twice, two children each
    # time.  Every logged loss depends on these keys.
    rng = np.random.default_rng(np.random.SeedSequence(mlm_cfg.seed, spawn_key=(0,)))
    probe_rng = np.random.default_rng(np.random.SeedSequence(mlm_cfg.seed, spawn_key=(3,)))
    probes = [(split, p, mlm_masks(p, vocab, mlm_cfg.mask_prob, probe_rng))
              for split, p in (("train", train_pool[:k]), ("heldout", heldout_pool))]
    log: list[LogEntry] = []
    checkpoints: list[tuple[int, EncoderParams]] = []
    workspace = Workspace()  # lent to the steps and the probes alike

    def snapshot(step: int) -> bool:
        checkpoints.append((step, enc.clone()))
        for split, sentences, masks in probes:
            if sentences:
                loss, _ = mlm_batch_loss_and_grads(
                    enc, sentences, vocab, mlm_cfg.mask_prob, None, mode="eval",
                    with_grads=False, workspace=workspace, masks=masks,
                )
                log.append(LogEntry(step, split, "mlm_loss", loss))
        return False

    def batches():
        order: list[int] = []
        for _ in range(mlm_cfg.total_steps):
            while len(order) < mlm_cfg.batch_size:
                order.extend(rng.permutation(len(train_pool)).tolist())
            yield [train_pool[i] for i in order[: mlm_cfg.batch_size]]
            del order[: mlm_cfg.batch_size]

    snapshot(0)
    _run_steps(
        mlm_cfg, enc.tensors, mlm_cfg.total_steps, batches(),
        lambda batch: mlm_batch_loss_and_grads(
            enc, batch, vocab, mlm_cfg.mask_prob, rng, mode="train", workspace=workspace
        ),
        log, snapshot, metric="mlm_batch_loss", what="MLM",
    )
    return MlmResult(checkpoints=checkpoints, log=log, train_probe_sentences=k)


# ---------------------------------------------------------------------------
# Checkpoint sweep: downstream F1 as a function of pre-training step
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    step: int
    f1: float
    best_step: int


def sweep_tapt_checkpoints(
    checkpoints: Sequence[tuple[int, EncoderParams]],
    train_docs: Sequence[Document],
    tune_docs: Sequence[Document],
    vocab: BpeVocab,
    head_cfg: HeadConfig,
    train_cfg: TrainConfig,
) -> list[SweepPoint]:
    """Fine-tune from every MLM snapshot and report tune F1 per step.

    Every run uses the first snapshot's encoder config, so a later snapshot
    with another config is refused by ``train_supervised``.  The curve is
    reported as-is; adapted snapshots are not required (or expected) to
    improve monotonically over the step-0 baseline.
    """
    points = []
    for step, enc in checkpoints:
        result = train_supervised(
            train_docs, tune_docs, vocab, checkpoints[0][1].config, head_cfg, train_cfg, init_encoder=enc
        )
        f1 = result.best_tune_f1
        if f1 is None:
            f1 = _tune_prf(result.model, tune_docs, vocab).f1
        points.append(SweepPoint(step=step, f1=f1, best_step=result.best_step))
    return points


# ---------------------------------------------------------------------------
# Multi-seed protocol
# ---------------------------------------------------------------------------


@dataclass
class ProtocolReport:
    methods: list[str]
    encoders: list[str]
    splits: list[str]
    seeds: list[int]
    metrics: list[str]
    # rows[(method, encoder, split)][metric] -> {"mean", "std", "values"}
    rows: dict[tuple[str, str, str], dict[str, dict]]

    def to_dict(self) -> dict:
        rows = [
            {"method": m, "encoder": e, "split": s, "metrics": vals}
            for (m, e, s), vals in self.rows.items()
        ]
        return asdict(self) | {"rows": rows}

    def render_table(self) -> str:
        head = f"{'method':<18} {'encoder':<10} {'split':<10}"
        for metric in self.metrics:
            head += f" {metric + ' mean(std)':>20}"
        lines = [head, "-" * len(head)]
        for (m, e, s), vals in self.rows.items():
            line = f"{m:<18} {e:<10} {s:<10}"
            for metric in self.metrics:
                cell = f"{vals[metric]['mean']:.4f} ({vals[metric]['std']:.4f})"
                line += f" {cell:>20}"
            lines.append(line)
        return "\n".join(lines)


def _run_configs(
    methods: Sequence[str], seeds: Sequence[int], encoder_cfg: EncoderConfig, train_cfg: TrainConfig
) -> dict[tuple[str, int], tuple[EncoderConfig, TrainConfig]]:
    """``{(method, seed): (encoder config, train config)}`` of every run,
    method-major; building them checks every method and seed."""
    if len(set(methods)) < len(methods) or len(set(seeds)) < len(seeds):  # would run and count twice
        raise ValueError(f"methods and seeds must be distinct, got {list(methods)} and {list(seeds)}")
    runs = {}
    for method in methods:
        for seed in seeds:
            try:
                runs[method, seed] = replace(encoder_cfg, init_seed=seed), replace(train_cfg, method=method, seed=seed)
            except ValueError as exc:  # the config's message names its field, not the run
                raise ValueError(f"{method} seed {seed}: {exc}") from None
    return runs


def train_runs(
    train_docs: Sequence[Document],
    tune_docs: Sequence[Document],
    vocab: BpeVocab,
    methods: Sequence[str],
    seeds: Sequence[int],
    encoder_cfg: EncoderConfig,
    head_cfg: HeadConfig,
    train_cfg: TrainConfig,
) -> dict[tuple[str, int], TrainResult]:
    """Train every method once per seed and return ``{(method, seed): result}``.

    Runs go method-major, and each seeds both the initialization and the
    data order.  Every run's configs are built, and so checked, before the
    first run.  A run that fails with a ``TrainingError`` is collected, and
    after the last run one ``ProtocolError`` names each failed run and its
    cause; any other error propagates at once.
    """
    runs = _run_configs(methods, seeds, encoder_cfg, train_cfg)
    results: dict[tuple[str, int], TrainResult] = {}
    failures: list[tuple[str, int, str]] = []
    for (method, seed), (run_encoder_cfg, run_train_cfg) in runs.items():
        try:
            results[method, seed] = train_supervised(
                train_docs, tune_docs, vocab, run_encoder_cfg, head_cfg, run_train_cfg
            )
        except TrainingError as exc:
            failures.append((method, seed, str(exc)))
    if failures:
        causes = "; ".join(f"{cause} ({method} seed {seed})" for method, seed, cause in failures)
        raise ProtocolError(causes, failures=failures)
    return results


def protocol_report(
    results: dict[tuple[str, int], TrainResult],
    eval_sets: dict[str, Sequence[Document]],
    vocab: BpeVocab,
) -> ProtocolReport:
    """Evaluate every run's best checkpoint on every split in ``eval_sets``
    and report mean and sample standard deviation per method, split and
    metric; fewer than 2 seeds and an empty ``eval_sets`` are refused before
    any run is scored."""
    seeds = list(dict.fromkeys(seed for _, seed in results))
    if len(seeds) < 2:
        raise ValueError("the protocol needs at least 2 seeds to report a standard deviation")
    if not eval_sets:
        raise ValueError("the protocol needs at least one eval split")
    encoder = "desk"  # the report's name for the one from-scratch encoder
    metrics = ["f1", "precision", "recall", "mcc"]
    values: dict[tuple[str, str, str], dict[str, list[float]]] = {}
    for (method, _seed), result in results.items():
        for split, docs in eval_sets.items():
            report = evaluate_predictions(docs, predict_documents(result.model, docs, vocab), with_mcc=True)
            row = values.setdefault((method, encoder, split), {m: [] for m in metrics})
            for metric in metrics:
                row[metric].append(getattr(report, metric))
    rows = {
        key: {
            metric: dict(zip(("mean", "std"), mean_std(vals))) | {"values": vals}
            for metric, vals in per_metric.items()
        }
        for key, per_metric in values.items()
    }
    return ProtocolReport(
        methods=list(dict.fromkeys(method for method, _ in results)),
        encoders=[encoder],
        splits=list(eval_sets),
        seeds=seeds,
        metrics=metrics,
        rows=rows,
    )


# ---------------------------------------------------------------------------
# Experiment configuration files (JSON)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of a run: corpus, split, model, schedule, seeds.
    ``methods``, ``seeds`` and ``eval_splits`` are held as tuples (JSON arrays)."""

    corpus: str
    n_train: int
    vocab: str | None = None
    vocab_size: int = 200
    methods: tuple[str, ...] = METHODS
    seeds: tuple[int, ...] = (0, 1, 2)
    eval_splits: tuple[str, ...] = ("tune",)
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    heads: HeadConfig = field(default_factory=HeadConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    mlm: MlmConfig = field(default_factory=MlmConfig)

    def __post_init__(self) -> None:
        """Sections check themselves when built, and the run grid as
        ``train_runs`` builds it; this checks the rest."""
        for name in ("methods", "seeds", "eval_splits"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if self.n_train < 1:
            raise ValueError("n_train must be >= 1")
        if not self.methods or not self.seeds or not self.eval_splits:
            raise ValueError("methods, seeds and eval_splits must be non-empty")
        _run_configs(self.methods, self.seeds, self.encoder, self.train)
        if len(set(self.eval_splits)) < len(self.eval_splits):
            raise ValueError(f"eval_splits must be distinct, got {list(self.eval_splits)}")
        for split in self.eval_splits:
            if split not in ("train", "tune"):
                raise ValueError(f"eval split must be 'train' or 'tune', got {split!r}")

    @classmethod
    def from_dict(cls, obj: dict, where: str = "experiment config") -> "ExperimentConfig":
        return dataclass_from_dict(cls, obj, where)

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(read_json(path), where=str(path))
