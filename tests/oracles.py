"""Independent reference implementations used to check the library.

Everything here is deliberately written from first principles (brute force,
one-hot covariance, central differences) and never calls back into the code
path under test.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from scipy.special import erf

from dualner.corpus import Mention, ScoredMention
from dualner.encoder import encode_with_cache
from dualner.model import mlm_mask
from dualner.subtok import MASK_TOKEN, PAD_TOKEN, UNK_TOKEN, BpeVocab, corpus_words


def central_difference(loss_fn, arr: np.ndarray, flat_index: int, step: float) -> float:
    """(f(x+h) - f(x-h)) / 2h for one coordinate, restoring the array after."""
    old = arr.flat[flat_index]
    arr.flat[flat_index] = old + step
    plus = loss_fn()
    arr.flat[flat_index] = old - step
    minus = loss_fn()
    arr.flat[flat_index] = old
    return (plus - minus) / (2.0 * step)


def gradient_agreement(analytic: float, numeric: float, zero_floor: float = 1e-6) -> float:
    """Relative error with an absolute guard: coordinates where both values
    sit below ``zero_floor`` count as exact agreement (finite differences are
    pure roundoff noise there)."""
    m = max(abs(analytic), abs(numeric))
    if m < zero_floor:
        return 0.0
    return abs(analytic - numeric) / m


def span_representations(word_vecs: np.ndarray, spans, params) -> np.ndarray:
    """[m, 2d + len_dim]: one concatenated [h_start; h_end; len_emb[length-1]] row per span."""
    len_emb = params.tensors["span.len_emb"]
    d = word_vecs.shape[1]
    reps = np.zeros((len(spans), 2 * d + len_emb.shape[1]))
    for j, (s, e) in enumerate(spans):
        reps[j] = np.concatenate((word_vecs[s], word_vecs[e], len_emb[e - s]))
    return reps


def span_head_reference(word_vecs: np.ndarray, spans, params, d_logits: np.ndarray):
    """The span MLP ``gelu(reps @ w1 + b1) @ w2 + b2`` on concatenated
    representations, with its gradients for upstream ``d_logits``.

    Returns (logits, parameter gradients, word-vector gradient); the
    representation gradient is scattered back span by span.
    """
    t = params.tensors
    reps = span_representations(word_vecs, spans, params)
    u = reps @ t["span.w1"] + t["span.b1"]
    cdf = 0.5 * (1.0 + erf(u / np.sqrt(2.0)))
    h = u * cdf
    logits = h @ t["span.w2"] + t["span.b2"]
    du = (d_logits @ t["span.w2"].T) * (cdf + u * np.exp(-0.5 * u * u) / np.sqrt(2.0 * np.pi))
    grads = {
        "span.w2": h.T @ d_logits,
        "span.b2": d_logits.sum(axis=0),
        "span.w1": reps.T @ du,
        "span.b1": du.sum(axis=0),
        "span.len_emb": np.zeros_like(t["span.len_emb"]),
    }
    d_reps = du @ t["span.w1"].T
    d = word_vecs.shape[1]
    d_vecs = np.zeros_like(word_vecs)
    for j, (s, e) in enumerate(spans):
        d_vecs[s] += d_reps[j, :d]
        d_vecs[e] += d_reps[j, d : 2 * d]
        grads["span.len_emb"][e - s] += d_reps[j, 2 * d :]
    return logits, grads, d_vecs


def mcc_one_hot_covariance(confusion: np.ndarray) -> float:
    """MCC from the covariance of one-hot gold/pred indicator matrices.

    Expands the confusion matrix back into N observations and computes
    cov(X,Y) / sqrt(cov(X,X) cov(Y,Y)) directly, a different route than any
    closed-form confusion arithmetic.
    """
    confusion = np.asarray(confusion, dtype=np.int64)
    k = confusion.shape[0]
    n = int(confusion.sum())
    if n == 0:
        return 0.0
    gold = np.zeros((n, k))
    pred = np.zeros((n, k))
    row = 0
    for i in range(k):
        for j in range(k):
            for _ in range(int(confusion[i, j])):
                gold[row, i] = 1.0
                pred[row, j] = 1.0
                row += 1
    gc = gold - gold.mean(axis=0)
    pc = pred - pred.mean(axis=0)
    cov_gp = (gc * pc).sum() / n
    cov_gg = (gc * gc).sum() / n
    cov_pp = (pc * pc).sum() / n
    if cov_gg == 0.0 or cov_pp == 0.0:
        return 0.0
    return float(cov_gp / np.sqrt(cov_gg * cov_pp))


def random_flat_mentions(
    rng: np.random.Generator, n_words: int, types: tuple[str, ...], max_len: int = 4
) -> list[Mention]:
    """A random valid non-overlapping mention set over ``n_words`` words."""
    mentions = []
    pos = 0
    while pos < n_words:
        if rng.random() < 0.4:
            length = int(rng.integers(1, min(max_len, n_words - pos) + 1))
            label = types[int(rng.integers(0, len(types)))]
            mentions.append(Mention(pos, pos + length - 1, label))
            pos += length + 1  # gap keeps same-type neighbours distinct
        else:
            pos += 1
    return mentions


def random_nested_mentions(
    rng: np.random.Generator, types: tuple[str, ...]
) -> list[ScoredMention]:
    """A random scored mention set whose pairs are nested or disjoint only.

    Built by recursively carving sub-intervals, so overlapping non-nested
    pairs cannot occur; most draws contain at least one strict nesting.
    """
    out: list[ScoredMention] = []
    seen: set[tuple[int, int]] = set()

    def carve(lo: int, hi: int, depth: int) -> None:
        if hi - lo < 1 or depth > 4:
            return
        start = int(rng.integers(lo, hi))
        end = int(rng.integers(start, hi))
        if (start, end) not in seen:  # duplicate spans are decode's job, not ours
            seen.add((start, end))
            label = types[int(rng.integers(0, len(types)))]
            out.append(ScoredMention(start, end, label, score=float(rng.random())))
        if end - start >= 1 and rng.random() < 0.8:
            carve(start, end + 1, depth + 1)  # nested child inside [start, end]
        if rng.random() < 0.5 and end + 2 < hi:
            carve(end + 2, hi, depth + 1)  # disjoint sibling to the right

    carve(0, int(rng.integers(6, 30)), 0)
    return out


_SPECIALS = (PAD_TOKEN, UNK_TOKEN, MASK_TOKEN)


def _merge_once(pieces: list[str], pair: tuple[str, str]) -> list[str]:
    """Merge every non-overlapping occurrence of ``pair``, left to right."""
    out = []
    i = 0
    while i < len(pieces):
        if i + 1 < len(pieces) and pieces[i] == pair[0] and pieces[i + 1] == pair[1]:
            out.append(pieces[i] + pieces[i + 1])
            i += 2
        else:
            out.append(pieces[i])
            i += 1
    return out


def _best_pair(pair_counts: Counter, banned: frozenset[str]) -> tuple[str, str] | None:
    """Highest-count pair, ties broken by lexicographic order of the pair.

    Pairs whose concatenation is a reserved special string are skipped so
    user text can never alias <pad>/<unk>/<mask>.
    """
    best = None
    best_key = None
    for pair, count in pair_counts.items():
        if pair[0] + pair[1] in banned:
            continue
        key = (-count, pair)
        if best_key is None or key < best_key:
            best, best_key = pair, key
    return best


def train_bpe_reference(corpus, target_vocab_size: int) -> BpeVocab:
    """Greedy BPE by definition: every merge recounts every pair of every
    word, takes the best by ``(-count, pair)`` and re-segments every word."""
    word_counts = corpus_words(corpus)
    if not word_counts:
        raise ValueError("corpus has no words; segment documents before training a vocabulary")
    alphabet = sorted({ch for word in word_counts for ch in word})
    floor = len(_SPECIALS) + len(alphabet)
    if target_vocab_size < floor:
        raise ValueError(
            f"target_vocab_size={target_vocab_size} too small: need >= {floor} "
            f"({len(_SPECIALS)} specials + {len(alphabet)} characters)"
        )

    symbols: list[str] = list(_SPECIALS) + alphabet
    table = {s: i for i, s in enumerate(symbols)}
    merges: list[tuple[str, str]] = []
    pieces = {w: tuple(w) for w in word_counts}
    budget = target_vocab_size - floor

    banned = frozenset(_SPECIALS)
    while budget > 0:
        pair_counts: Counter = Counter()
        for word, ps in pieces.items():
            if len(ps) < 2:
                continue
            c = word_counts[word]
            for pair in zip(ps, ps[1:]):
                pair_counts[pair] += c
        pair = _best_pair(pair_counts, banned)
        if pair is None:
            break
        merged = pair[0] + pair[1]
        merges.append(pair)
        if merged not in table:
            table[merged] = len(symbols)
            symbols.append(merged)
            budget -= 1
        pieces = {
            w: tuple(_merge_once(list(ps), pair)) if len(ps) > 1 else ps
            for w, ps in pieces.items()
        }
    return BpeVocab(symbols=tuple(symbols), merges=tuple(merges))


def mlm_eval_loss_reference(enc, batch, vocab: BpeVocab, mask_prob: float, mask_rng) -> tuple[float, None]:
    """The eval-mode masked-LM loss one sentence at a time: mask, encode,
    project onto the tied embeddings and add the summed CE, in batch order."""
    emb = enc.tensors["tok_emb"]
    total_ce = 0.0
    total_pos = 0
    for ids in batch:
        corrupted, positions, targets = mlm_mask(ids, len(vocab), vocab.mask_id, mask_prob, mask_rng)
        if positions.size == 0:
            continue
        ctx, _cache = encode_with_cache(corrupted, enc, "eval")
        logits = ctx[positions] @ emb.T
        z = logits - logits.max(axis=-1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        total_ce += -float(logp[np.arange(len(targets)), targets].sum())
        total_pos += positions.size
    if total_pos == 0:
        return 0.0, None
    return total_ce / total_pos, None


def adamw_step_reference(opt, tensors, grads, grad_clip: float | None = None) -> None:
    """One AdamW step on ``opt``'s state, allocating fresh moments and update
    arrays instead of updating in place."""
    opt.t += 1
    scale = 1.0
    if grad_clip:
        sq = sum(float((grads[k] ** 2).sum()) for k in opt.keys)
        norm = np.sqrt(sq)
        if norm > grad_clip:
            scale = grad_clip / norm
    lr = opt._lr()
    for k in opt.keys:
        g = grads[k] if scale == 1.0 else grads[k] * scale
        opt.m[k] = opt.beta1 * opt.m[k] + (1.0 - opt.beta1) * g
        opt.v[k] = opt.beta2 * opt.v[k] + (1.0 - opt.beta2) * (g * g)
        mhat = opt.m[k] / (1.0 - opt.beta1**opt.t)
        vhat = opt.v[k] / (1.0 - opt.beta2**opt.t)
        update = mhat / (np.sqrt(vhat) + opt.eps)
        if opt.weight_decay and tensors[k].ndim >= 2:
            update = update + opt.weight_decay * tensors[k]
        tensors[k] -= lr * update
