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

from .corpus import Document, LabelInventory, Mention, mentions_overlap, require_sentences, select_by_score
from .errors import ValidationError
from .heads import mentions_to_tags
from .subtok import BUCKETS, BpeVocab, SubTokenization, bucket_index, subtokenize

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


def multiclass_mcc(gold_tags: Sequence[Sequence], pred_tags: Sequence[Sequence]) -> float:
    """Word-level multiclass MCC over flattened tag assignments: tag ids,
    or any labels numpy can sort, such as BIO tag strings."""
    if len(gold_tags) != len(pred_tags):
        raise ValueError(f"gold has {len(gold_tags)} sentences, pred has {len(pred_tags)}")
    for si, (g, p) in enumerate(zip(gold_tags, pred_tags)):
        if len(g) != len(p):
            raise ValueError(f"sentence {si}: gold has {len(g)} tags, pred has {len(p)}")
    flat = np.concatenate([*gold_tags, *pred_tags]) if gold_tags else np.zeros(0, dtype=np.int64)
    classes, index = np.unique(flat, return_inverse=True)
    k, n = classes.size, flat.size // 2  # gold first, then the predictions
    confusion = np.bincount(index[:n] * k + index[n:], minlength=k * k).reshape(k, k)
    return mcc_from_confusion(confusion)


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
    gold_tags: Sequence[np.ndarray],
    pred_tags: Sequence[np.ndarray],
    aligns: Sequence[SubTokenization],
) -> dict[str, BucketScore]:
    """Word-level F1 on entity-name words, bucketed by how far each word split.

    Tags are per-sentence tag id arrays, 0 for O (``heads.tags_to_mentions``).
    Only words whose gold tag is not O take part.  A word counts as a true
    positive when its predicted BIO tag equals gold; a wrong entity tag is
    one fp and one fn, a predicted O is one fn.
    """
    if not (len(gold_tags) == len(pred_tags) == len(aligns)):
        raise ValueError("gold tags, predicted tags, and alignments must align per sentence")
    for si, (g, p, a) in enumerate(zip(gold_tags, pred_tags, aligns)):
        if a is None or a.n_words != len(g) or len(g) != len(p):
            raise ValueError(f"sentence {si}: missing or misaligned sub-tokenization")
    empty = np.zeros(0, dtype=np.int64)  # keeps a corpus without sentences total
    gold = np.concatenate([empty, *gold_tags])
    pred = np.concatenate([empty, *pred_tags])
    bucket = bucket_index(np.concatenate([empty, *(a.subtokens_per_word() for a in aligns)]))
    entity = gold != 0
    words = np.bincount(bucket[entity], minlength=len(BUCKETS))
    tp = np.bincount(bucket[entity & (pred == gold)], minlength=len(BUCKETS))
    fp = np.bincount(bucket[entity & (pred != gold) & (pred != 0)], minlength=len(BUCKETS))
    out = {}
    for b, w, t, f in zip(BUCKETS, words.tolist(), tp.tolist(), fp.tolist()):
        out[b] = BucketScore(word_count=w, tp=t, fp=f, fn=w - t, f1=_f1(t, f, w - t) if w else None)
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
    pairs = list(_sentence_pairs(gold_docs, pred_docs))
    prf = mention_prf([g.mentions for g, _ in pairs], [p.mentions for _, p in pairs])
    mcc = grouped = None
    if with_mcc or vocab is not None:
        types = LabelInventory.from_documents([*gold_docs, *pred_docs]).types
        gold_tags = [mentions_to_tags(g.mentions, len(g.words), types) for g, _ in pairs]
        pred_tags = [mentions_to_tags(project_non_overlapping(p.mentions), len(g.words), types)
                     for g, p in pairs]
        if with_mcc:
            mcc = multiclass_mcc(gold_tags, pred_tags)
        if vocab is not None:
            grouped = subtoken_grouped_f1(gold_tags, pred_tags, [subtokenize(g.words, vocab) for g, _ in pairs])
    return replace(prf, mcc=mcc, subtoken_grouped=grouped)
