"""Scoring: micro string-match F1/P/R, multiclass MCC, fragmentation-grouped F1.

A predicted mention counts as correct only when its start word, end word,
and type all match a gold mention of the same sentence; counts are pooled
over sentences and types (micro averaging).  MCC is computed at word level
over full BIO tags, the one granularity that keeps it well-defined for NER;
the degenerate conventions (empty corpus, zero variance) are explicit so
property tests are total.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from .corpus import Document, Mention, mentions_overlap, require_sentences, select_by_score
from .errors import ValidationError
from .heads import mentions_to_tags
from .subtok import BUCKETS, BpeVocab, SubTokenization, bucket_of, subtokenize

__all__ = [
    "BucketScore",
    "EvalReport",
    "mention_prf",
    "mcc_from_confusion",
    "multiclass_mcc",
    "subtoken_grouped_f1",
    "mean_std",
    "project_non_overlapping",
    "evaluate_predictions",
]


def _f1(tp: int, fp: int, fn: int) -> float:
    return 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0


def mention_prf(
    gold: Sequence[Sequence[Mention]], pred: Sequence[Sequence[Mention]]
) -> EvalReport:
    """Micro string-match P/R/F1 over aligned per-sentence mention lists.

    The degenerate corpus with no gold and no predicted mentions scores 1.0;
    any other zero denominator scores 0.0.
    """
    if len(gold) != len(pred):
        raise ValueError(f"gold has {len(gold)} sentences, pred has {len(pred)}")
    by_type: dict[str, list[int]] = {}
    for g_list, p_list in zip(gold, pred):
        g_set = {m.key() for m in g_list}
        p_set = {m.key() for m in p_list}
        for key in g_set | p_set:
            counts = by_type.setdefault(key[2], [0, 0, 0])
            if key in g_set and key in p_set:
                counts[0] += 1
            elif key in p_set:
                counts[1] += 1
            else:
                counts[2] += 1
    tp, fp, fn = (sum(c[i] for c in by_type.values()) for i in range(3))
    if tp + fp + fn == 0:
        return EvalReport(precision=1.0, recall=1.0, f1=1.0, tp=0, fp=0, fn=0, per_type={})
    precision = tp / (tp + fp) if (tp + fp) else 0.0
    recall = tp / (tp + fn) if (tp + fn) else 0.0
    per_type = {
        t: {"tp": c[0], "fp": c[1], "fn": c[2], "f1": _f1(*c)}
        for t, c in sorted(by_type.items())
    }
    return EvalReport(
        precision=precision,
        recall=recall,
        f1=_f1(tp, fp, fn),
        tp=tp,
        fp=fp,
        fn=fn,
        per_type=per_type,
    )


# ---------------------------------------------------------------------------
# Matthews correlation coefficient, multiclass (R_K) form
# ---------------------------------------------------------------------------


def mcc_from_confusion(confusion: np.ndarray) -> float:
    """R_K statistic of a square confusion matrix (rows gold, columns predicted).

    Sums are taken in exact integer arithmetic so the two-class case agrees
    with the textbook binary formula to the last bit; a zero variance term
    (all gold or all predictions in one class) returns 0 by convention.
    """
    c = np.asarray(confusion)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"confusion matrix must be square, got shape {c.shape}")
    rows = [[int(v) for v in row] for row in c]
    k = len(rows)
    s = sum(sum(row) for row in rows)
    correct = sum(rows[i][i] for i in range(k))
    gold_tot = [sum(rows[i]) for i in range(k)]
    pred_tot = [sum(rows[i][j] for i in range(k)) for j in range(k)]
    numerator = correct * s - sum(p * t for p, t in zip(pred_tot, gold_tot))
    denom_pred = s * s - sum(p * p for p in pred_tot)
    denom_gold = s * s - sum(t * t for t in gold_tot)
    if denom_pred == 0 or denom_gold == 0:
        return 0.0
    return numerator / np.sqrt(float(denom_pred) * float(denom_gold))


def confusion_matrix(
    gold: Sequence[str], pred: Sequence[str], classes: Sequence[str]
) -> np.ndarray:
    index = {cls: i for i, cls in enumerate(classes)}
    c = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for g, p in zip(gold, pred):
        c[index[g], index[p]] += 1
    return c


def multiclass_mcc(
    gold_tags: Sequence[Sequence[str]], pred_tags: Sequence[Sequence[str]]
) -> float:
    """Word-level multiclass MCC over flattened BIO tag assignments."""
    if len(gold_tags) != len(pred_tags):
        raise ValueError(f"gold has {len(gold_tags)} sentences, pred has {len(pred_tags)}")
    flat_gold: list[str] = []
    flat_pred: list[str] = []
    for si, (g, p) in enumerate(zip(gold_tags, pred_tags)):
        if len(g) != len(p):
            raise ValueError(f"sentence {si}: gold has {len(g)} tags, pred has {len(p)}")
        flat_gold.extend(g)
        flat_pred.extend(p)
    classes = sorted(set(flat_gold) | set(flat_pred))
    return mcc_from_confusion(confusion_matrix(flat_gold, flat_pred, classes))


# ---------------------------------------------------------------------------
# Word-level F1 grouped by sub-token count
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BucketScore:
    word_count: int
    tp: int
    fp: int
    fn: int
    f1: float | None  # None when the bucket holds no words


def subtoken_grouped_f1(
    gold_tags: Sequence[Sequence[str]],
    pred_tags: Sequence[Sequence[str]],
    aligns: Sequence[SubTokenization],
) -> dict[str, BucketScore]:
    """Word-level F1 on entity-name words, bucketed by how far each word split.

    Only words whose gold tag is not O take part.  A word counts as a true
    positive when its predicted BIO tag equals gold; a wrong entity tag is
    one fp and one fn, a predicted O is one fn.
    """
    if not (len(gold_tags) == len(pred_tags) == len(aligns)):
        raise ValueError("gold tags, predicted tags, and alignments must align per sentence")
    counts = {b: [0, 0, 0, 0] for b in BUCKETS}  # words, tp, fp, fn
    for si, (g, p, a) in enumerate(zip(gold_tags, pred_tags, aligns)):
        if a is None or a.n_words != len(g) or len(g) != len(p):
            raise ValueError(f"sentence {si}: missing or misaligned sub-tokenization")
        per_word = a.subtokens_per_word()
        for gt, pt, k in zip(g, p, per_word):
            if gt == "O":
                continue
            c = counts[bucket_of(k)]
            c[0] += 1
            if pt == gt:
                c[1] += 1
            else:
                c[3] += 1
                if pt != "O":
                    c[2] += 1
    out = {}
    for b in BUCKETS:
        words, tp, fp, fn = counts[b]
        out[b] = BucketScore(
            word_count=words, tp=tp, fp=fp, fn=fn, f1=_f1(tp, fp, fn) if words else None
        )
    return out


# ---------------------------------------------------------------------------
# Aggregation and report assembly
# ---------------------------------------------------------------------------


def mean_std(values: Sequence[float]) -> tuple[float, float]:
    """Mean and sample standard deviation (n-1 denominator; 0.0 for n=1)."""
    if not values:
        raise ValueError("cannot aggregate an empty value list")
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
    return mean, std


@dataclass
class EvalReport:
    f1: float
    precision: float
    recall: float
    tp: int
    fp: int
    fn: int
    per_type: dict[str, dict[str, float]]
    mcc: float | None = None
    subtoken_grouped: dict[str, BucketScore] | None = None

    def to_dict(self) -> dict:
        """Every field in order; ``mcc`` and ``subtoken_grouped`` only when computed."""
        return {k: v for k, v in asdict(self).items() if v is not None}

    def render_table(self) -> str:
        lines = [
            f"{'metric':<12} {'value':>10}",
            "-" * 23,
            f"{'F1':<12} {self.f1:>10.4f}",
            f"{'precision':<12} {self.precision:>10.4f}",
            f"{'recall':<12} {self.recall:>10.4f}",
        ]
        if self.mcc is not None:
            lines.append(f"{'MCC':<12} {self.mcc:>10.4f}")
        lines.append(f"{'tp/fp/fn':<12} {f'{self.tp}/{self.fp}/{self.fn}':>10}")
        if self.per_type:
            lines.append("")
            lines.append(f"{'type':<20} {'tp':>5} {'fp':>5} {'fn':>5} {'F1':>8}")
            for t, c in self.per_type.items():
                lines.append(
                    f"{t:<20} {c['tp']:>5} {c['fp']:>5} {c['fn']:>5} {c['f1']:>8.4f}"
                )
        if self.subtoken_grouped is not None:
            lines.append("")
            lines.append(f"{'sub-tokens':<12} {'words':>7} {'word F1':>9}")
            for b, s in self.subtoken_grouped.items():
                shown = "-" if s.f1 is None else f"{s.f1:.4f}"
                lines.append(f"{b:<12} {s.word_count:>7} {shown:>9}")
        return "\n".join(lines)


def _sentence_pairs(gold_docs: Sequence[Document], pred_docs: Sequence[Document]):
    if len(gold_docs) != len(pred_docs):
        raise ValidationError(
            f"gold corpus has {len(gold_docs)} documents, predictions have {len(pred_docs)}"
        )
    for g_doc, p_doc in zip(gold_docs, pred_docs):
        if g_doc.id != p_doc.id:
            raise ValidationError(f"document order mismatch: {g_doc.id!r} vs {p_doc.id!r}")
        if len(g_doc.sentences) != len(p_doc.sentences):
            raise ValidationError(f"document {g_doc.id!r}: sentence count mismatch")
        for si, (g_sent, p_sent) in enumerate(zip(g_doc.sentences, p_doc.sentences)):
            if g_sent.words != p_sent.words:
                raise ValidationError(
                    f"document {g_doc.id!r}, sentence {si}: predicted words differ from the gold words"
                )
            yield g_sent, p_sent


def project_non_overlapping(mentions: Sequence[Mention]) -> list[Mention]:
    """Greedy score-descending subset with no overlaps at all; used before
    converting possibly-nested span predictions to per-word tags."""
    kept = select_by_score(mentions, mentions_overlap)
    kept.sort(key=lambda m: (m.start_word, m.end_word))
    return kept


def evaluate_predictions(
    gold_docs: Sequence[Document],
    pred_docs: Sequence[Document],
    *,
    with_mcc: bool = False,
    vocab: BpeVocab | None = None,
) -> EvalReport:
    """Full report for a prediction file against its gold corpus.

    ``with_mcc`` adds word-level multiclass MCC (nested predictions are
    first projected to a non-overlapping set so each word has one tag);
    ``vocab`` adds the sub-token-grouped word F1 analysis.  A gold corpus
    without a sentence is refused, since every score would read perfect.
    """
    require_sentences(gold_docs, "gold corpus")
    gold_sents = []
    pred_sents = []
    gold_tags = []
    pred_tags = []
    aligns = []
    for g_sent, p_sent in _sentence_pairs(gold_docs, pred_docs):
        gold_sents.append(g_sent.mentions)
        pred_sents.append(p_sent.mentions)
        if with_mcc or vocab is not None:
            n = len(g_sent.words)
            gold_tags.append(mentions_to_tags(g_sent.mentions, n))
            pred_tags.append(mentions_to_tags(project_non_overlapping(p_sent.mentions), n))
            aligns.append(subtokenize(g_sent.words, vocab) if vocab is not None else None)
    prf = mention_prf(gold_sents, pred_sents)
    mcc = multiclass_mcc(gold_tags, pred_tags) if with_mcc else None
    grouped = subtoken_grouped_f1(gold_tags, pred_tags, aligns) if vocab is not None else None
    return replace(prf, mcc=mcc, subtoken_grouped=grouped)
