"""The two classification heads over shared word vectors.

The word-based tagger is a linear map from a word's vector to BIO tag
scores.  The span-based classifier scores every enumerated candidate span
from the concatenation of its two boundary word vectors and a dense
embedding of its length in words; class 0 is reserved for "not an entity".
Both heads decode by per-item argmax with ties going to the lowest index,
so all-zero weights predict O / none everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import (
    Mention,
    ScoredMention,
    mentions_cross,
    select_by_score,
)
from .encoder import Workspace, draw_tensors, gelu, gelu_grad, scratch, softmax

__all__ = [
    "HeadConfig",
    "head_shapes",
    "init_head_params",
    "tagger_forward",
    "tagger_backward",
    "tags_to_mentions",
    "mentions_to_tags",
    "enumerate_spans",
    "span_logits_with_cache",
    "span_forward",
    "span_backward",
    "span_decode",
]


@dataclass(frozen=True)
class HeadConfig:
    max_span_width: int = 12
    span_len_dim: int = 16
    span_hidden: int = 64

    def __post_init__(self) -> None:
        if min(self.max_span_width, self.span_len_dim, self.span_hidden) < 1:
            raise ValueError("all head dimensions must be positive")


def head_shapes(hidden_dim: int, cfg: HeadConfig, n_types: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of both heads' tensors, in the order ``init_head_params`` draws them."""
    if n_types < 1:
        raise ValueError("label inventory is empty")
    n_tags = 1 + 2 * n_types
    n_classes = 1 + n_types
    return {
        "tagger.w": (hidden_dim, n_tags),
        "tagger.b": (n_tags,),
        "span.len_emb": (cfg.max_span_width, cfg.span_len_dim),
        "span.w1": (2 * hidden_dim + cfg.span_len_dim, cfg.span_hidden),
        "span.b1": (cfg.span_hidden,),
        "span.w2": (cfg.span_hidden, n_classes),
        "span.b2": (n_classes,),
    }


def init_head_params(hidden_dim: int, cfg: HeadConfig, n_types: int, seed: int = 0) -> dict[str, np.ndarray]:
    """Both heads' tensors, drawn from one generator in ``head_shapes`` order."""
    return draw_tensors(head_shapes(hidden_dim, cfg, n_types), np.random.default_rng(seed))


def _check_word_vecs(word_vecs: np.ndarray, hidden_dim: int) -> None:
    if word_vecs.ndim != 2 or word_vecs.shape[1] != hidden_dim:
        raise ValueError(f"word vectors must be [n_words, {hidden_dim}], got {word_vecs.shape}")


# ---------------------------------------------------------------------------
# Word-based tagger
# ---------------------------------------------------------------------------


def tagger_forward(word_vecs: np.ndarray, heads: dict[str, np.ndarray]) -> np.ndarray:
    """[n_words, n_tags] scores over the BIO tag ids of the head's types (``tags_to_mentions``)."""
    w = heads["tagger.w"]
    _check_word_vecs(word_vecs, w.shape[0])
    return word_vecs @ w + heads["tagger.b"]


def tagger_backward(
    word_vecs: np.ndarray,
    heads: dict[str, np.ndarray],
    d_scores: np.ndarray,
    grads: dict[str, np.ndarray],
) -> np.ndarray:
    """Accumulate tagger parameter gradients; returns the word-vector gradient."""
    grads["tagger.w"] += word_vecs.T @ d_scores
    grads["tagger.b"] += d_scores.sum(axis=0)
    return d_scores @ heads["tagger.w"].T


def tags_to_mentions(tags: np.ndarray, types: Sequence[str]) -> list[Mention]:
    """Decode a sentence's BIO tag ids into mentions; total on illegal sequences.

    Tag 0 is O, and ``types[k]`` has B- = 2k+1 and I- = 2k+2: the tagger's
    classes.  Repair policy: an I-X with no open mention of type X acts as
    B-X, and an I-Y directly after a mention of a different type starts a
    new mention of type Y.  The output is always non-overlapping and in
    sentence order.  An id outside the tag set is refused, by value.
    """
    n_tags = 1 + 2 * len(types)
    mentions: list[Mention] = []
    start, open_type = 0, -1  # the open mention's first word and type index; -1 when none is open
    tags = tags.tolist()
    for i, tag in enumerate(tags):
        if not 0 <= tag < n_tags:
            raise ValueError(f"tag id {tag} outside the {n_tags} tags of {len(types)} types")
        k = (tag - 1) >> 1  # the tag's type index, -1 for O
        if tag % 2 or k != open_type:  # a B-, an O ending a mention, or an I- of another type
            if open_type >= 0:
                mentions.append(Mention(start_word=start, end_word=i - 1, label=types[open_type]))
            start, open_type = i, k
    if open_type >= 0:
        mentions.append(Mention(start_word=start, end_word=len(tags) - 1, label=types[open_type]))
    return mentions


def mentions_to_tags(mentions: Sequence[Mention], n_words: int, types: Sequence[str]) -> np.ndarray:
    """Exact BIO encoding as ``n_words`` int64 tag ids (``tags_to_mentions``'s);
    rejects out-of-bounds or overlapping mentions and a label not in ``types``."""
    b_tag = {t: 2 * k + 1 for k, t in enumerate(types)}
    tags = np.zeros(n_words, dtype=np.int64)
    ordered = sorted(mentions, key=lambda m: (m.start_word, m.end_word))
    prev_end = -1
    for m in ordered:
        if not (0 <= m.start_word <= m.end_word < n_words):
            raise ValueError(
                f"mention ({m.start_word},{m.end_word}) out of bounds for {n_words} words"
            )
        if m.start_word <= prev_end:
            raise ValueError("overlapping mentions cannot be BIO-encoded")
        if m.label not in b_tag:
            raise ValueError(f"mention label {m.label!r} is not one of the types {list(types)}")
        prev_end = m.end_word
        tags[m.start_word] = b_tag[m.label]
        tags[m.start_word + 1 : m.end_word + 1] = b_tag[m.label] + 1
    return tags


# ---------------------------------------------------------------------------
# Span-based classifier
# ---------------------------------------------------------------------------


def enumerate_spans(n_words: int, max_span_width: int) -> np.ndarray:
    """[m, 2] int64 rows (start, end), end inclusive and width <=
    max_span_width, sorted: the candidates of every head call."""
    if n_words < 1 or max_span_width < 1:
        raise ValueError("n_words and max_span_width must be positive")
    width = np.arange(n_words) - np.arange(n_words)[:, None]  # [start, end] -> end - start
    return np.argwhere((width >= 0) & (width < max_span_width))


def _span_arrays(spans: np.ndarray, n_words: int, max_width: int):
    """(starts, ends, lengths) index arrays; rejects anything but an [m, 2]
    signed integer array, and out-of-bounds or too wide spans."""
    if not (isinstance(spans, np.ndarray) and spans.ndim == 2 and spans.shape[1] == 2
            and spans.dtype.kind == "i"):
        got = f"{spans.dtype} {spans.shape}" if isinstance(spans, np.ndarray) else type(spans).__name__
        raise ValueError(f"spans must be an [m, 2] signed integer array, got {got}")
    starts, ends = spans[:, 0], spans[:, 1]
    lengths = ends - starts + 1
    out = (starts < 0) | (lengths < 1) | (ends >= n_words)
    bad = np.flatnonzero(out | (lengths > max_width))
    if bad.size:
        i = bad[0]
        s, e = spans[i]
        if out[i]:
            raise ValueError(f"span ({s},{e}) out of bounds for {n_words} words")
        raise ValueError(f"span ({s},{e}) wider than max_span_width={max_width}")
    return starts, ends, lengths


def _one_hot_sums(
    index: np.ndarray, size: int, rows: np.ndarray, workspace: Workspace | None
) -> np.ndarray:
    """[size, k]: row i sums ``rows[j]`` over every j with ``index[j] == i``."""
    one_hot = scratch(workspace, "span.one_hot", (size, index.size))
    one_hot.fill(0.0)
    one_hot[index, np.arange(index.size)] = 1.0
    return one_hot @ rows


def _gather(table: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``table[index]`` written into ``out``.  The indices are checked by
    ``_span_arrays``; ``mode="clip"`` keeps ``np.take`` from first copying ``out``."""
    return np.take(table, index, axis=0, out=out, mode="clip")


def _span_dims(heads: dict[str, np.ndarray]) -> tuple[int, int]:
    """(hidden size, width cap) of the span head's tensors."""
    n_len, len_dim = heads["span.len_emb"].shape
    return (heads["span.w1"].shape[0] - len_dim) // 2, n_len


def span_logits_with_cache(word_vecs, spans, heads: dict[str, np.ndarray], workspace: Workspace | None = None):
    """Logits of the span MLP over [h_start; h_end; len_emb[length-1]] for
    each (start, end) row of the [m, 2] integer array ``spans``.

    The first layer is applied per endpoint: each word is projected once by
    the start and end blocks of ``span.w1`` and each length once by its
    length block, and a candidate sums its three rows.  The
    ``[n_candidates, span_hidden]`` arrays, the cache's among them, live in
    ``workspace`` when one is given, until its next use.
    """
    d, max_width = _span_dims(heads)
    _check_word_vecs(word_vecs, d)
    starts, ends, lengths = _span_arrays(spans, word_vecs.shape[0], max_width)
    w1 = heads["span.w1"]
    shape = (starts.size, w1.shape[1])
    gathered = scratch(workspace, "span.tmp", shape)
    u = _gather(word_vecs @ w1[:d], starts, scratch(workspace, "span.u", shape))
    u += _gather(word_vecs @ w1[d : 2 * d], ends, gathered)
    u += _gather(heads["span.len_emb"] @ w1[2 * d :], lengths - 1, gathered)
    u += heads["span.b1"]
    h, cdf = gelu(u, (scratch(workspace, "span.h", shape), scratch(workspace, "span.cdf", shape)))
    logits = h @ heads["span.w2"] + heads["span.b2"]
    return logits, (starts, ends, lengths, u, cdf, h)


def span_forward(
    word_vecs: np.ndarray,
    candidates: np.ndarray,
    heads: dict[str, np.ndarray],
    types: Sequence[str],
) -> list[ScoredMention]:
    """Score the [m, 2] candidates over |types|+1 classes (none first, then
    ``types``); return the typed winners only, in candidate order, each
    scored by its winning probability."""
    logits, _ = span_logits_with_cache(word_vecs, candidates, heads)
    probs = softmax(logits)
    picks = probs.argmax(axis=1)
    won = np.flatnonzero(picks)
    k = picks[won]
    return [ScoredMention(start_word=s, end_word=e, label=types[c - 1], score=p)
            for (s, e), c, p in zip(candidates[won].tolist(), k.tolist(), probs[won, k].tolist())]


def span_backward(
    word_vecs: np.ndarray,
    heads: dict[str, np.ndarray],
    d_logits: np.ndarray,
    grads: dict[str, np.ndarray],
    cache,
    workspace: Workspace | None = None,
) -> np.ndarray:
    """Accumulate span-head gradients from the forward ``cache`` of
    ``span_logits_with_cache``, which holds its candidates; returns the
    word-vector gradient.  The large temporaries live in ``workspace``
    when one is given."""
    d, max_width = _span_dims(heads)
    starts, ends, lengths, u, cdf, h = cache
    grads["span.w2"] += h.T @ d_logits
    grads["span.b2"] += d_logits.sum(axis=0)
    grad = gelu_grad(u, cdf, out=(scratch(workspace, "span.gelu_grad", u.shape),
                                  scratch(workspace, "span.tmp", u.shape)))
    du = np.matmul(d_logits, heads["span.w2"].T, out=scratch(workspace, "span.tmp", u.shape))
    du *= grad
    grads["span.b1"] += du.sum(axis=0)
    n = word_vecs.shape[0]
    du_start = _one_hot_sums(starts, n, du, workspace)
    du_end = _one_hot_sums(ends, n, du, workspace)
    du_len = _one_hot_sums(lengths - 1, max_width, du, workspace)
    w1, len_emb = heads["span.w1"], heads["span.len_emb"]
    g1 = grads["span.w1"]
    g1[:d] += word_vecs.T @ du_start
    g1[d : 2 * d] += word_vecs.T @ du_end
    g1[2 * d :] += len_emb.T @ du_len
    grads["span.len_emb"] += du_len @ w1[2 * d :].T
    return du_start @ w1[:d].T + du_end @ w1[d : 2 * d].T


def span_decode(winners: Sequence[ScoredMention]) -> list[ScoredMention]:
    """Typed winners minus overlap conflicts; nested pairs are retained.

    Overlapping non-nested pairs, two winners over the same span among
    them, are resolved greedily by descending score (ties: earlier start,
    then shorter).  Nested predictions survive on purpose; resolving them
    is the post-processing step's job.
    """
    kept = select_by_score(winners, mentions_cross)
    kept.sort(key=lambda m: (m.start_word, m.end_word, m.label))
    return kept
