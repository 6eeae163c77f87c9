"""Independent reference implementations used to check the library.

Everything here is deliberately written from first principles (brute force,
one-hot covariance, central differences) and never calls back into the code
path under test.  The reference training loops are built from the
library's step pieces (loss and gradients, AdamW, tune F1) and stand in for
the step loop those pieces run in.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
from scipy.special import erf

from dualner.corpus import LabelInventory, Mention, ScoredMention
from dualner.encoder import (
    Workspace,
    dropout_masks,
    encode_backward,
    encode_with_cache,
    init_params,
    zero_grads,
)
from dualner.heads import span_backward, span_logits_with_cache, tagger_backward, tagger_forward
from dualner.evaluate import mention_prf
from dualner.model import (
    _softmax_ce,
    batch_loss_and_grads,
    build_examples,
    init_model,
    mlm_batch_loss_and_grads,
    mlm_mask,
    mlm_masks,
    model_tensors,
    predict_documents,
)
from dualner.subtok import MASK_TOKEN, PAD_TOKEN, UNK_TOKEN, BpeVocab, corpus_words, subtokenize
from dualner.train import AdamW, LogEntry


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


def enumerate_spans_reference(n_words: int, max_span_width: int) -> list[tuple[int, int]]:
    """Every (start, end), end inclusive and width <= max_span_width, one
    tuple each, sorted: ``enumerate_spans``'s rows as a Python listing."""
    return [(s, e) for s in range(n_words) for e in range(s, min(n_words, s + max_span_width))]


def span_representations(word_vecs: np.ndarray, spans, heads) -> np.ndarray:
    """[m, 2d + len_dim]: one concatenated [h_start; h_end; len_emb[length-1]] row per span."""
    len_emb = heads["span.len_emb"]
    d = word_vecs.shape[1]
    reps = np.zeros((len(spans), 2 * d + len_emb.shape[1]))
    for j, (s, e) in enumerate(spans):
        reps[j] = np.concatenate((word_vecs[s], word_vecs[e], len_emb[e - s]))
    return reps


def span_head_reference(word_vecs: np.ndarray, spans, heads, d_logits: np.ndarray):
    """The span MLP ``gelu(reps @ w1 + b1) @ w2 + b2`` on concatenated
    representations, with its gradients for upstream ``d_logits``.

    Returns (logits, parameter gradients, word-vector gradient); the
    representation gradient is scattered back span by span.
    """
    t = heads
    reps = span_representations(word_vecs, spans, heads)
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


def binary_mcc(tp: int, fp: int, fn: int, tn: int) -> float:
    """The textbook two-class MCC, (tp tn - fp fn) / sqrt of the four margins."""
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom == 0:
        return 0.0
    return (tp * tn - fp * fn) / np.sqrt(float(denom))


def tag_strings(types) -> tuple[str, ...]:
    """The BIO tag of each tag id as a string: O, then B-/I- per type."""
    return ("O", *(f"{p}-{t}" for t in types for p in "BI"))


def tags_to_mentions_reference(tags) -> list[Mention]:
    """BIO tag strings decoded into mentions under ``tags_to_mentions``'s
    repair policy, each tag parsed from its string."""
    mentions: list[Mention] = []
    start = label = None

    def close(end: int) -> None:
        nonlocal start, label
        if start is not None:
            mentions.append(Mention(start_word=start, end_word=end, label=label))
        start, label = None, None

    for i, tag in enumerate(tags):
        if tag != "O" and not tag.startswith(("B-", "I-")):
            raise ValueError(f"not a BIO tag: {tag!r}")
        if tag == "O":
            close(i - 1)
        elif tag[0] == "B" or tag[2:] != label:
            close(i - 1)
            start, label = i, tag[2:]
    close(len(tags) - 1)
    return mentions


def mentions_to_tags_reference(mentions, n_words: int) -> list[str]:
    """Flat mentions encoded as BIO tag strings, one per word."""
    tags = ["O"] * n_words
    for m in mentions:
        tags[m.start_word] = f"B-{m.label}"
        for w in range(m.start_word + 1, m.end_word + 1):
            tags[w] = f"I-{m.label}"
    return tags


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
        ctx, _cache = encode_with_cache(corrupted, enc)
        logits = ctx[positions] @ emb.T
        z = logits - logits.max(axis=-1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        total_ce += -float(logp[np.arange(len(targets)), targets].sum())
        total_pos += positions.size
    if total_pos == 0:
        return 0.0, None
    return total_ce / total_pos, None


def mlm_probe_losses_reference(enc, train_pool, heldout_pool, k: int, vocab: BpeVocab, mask_prob: float,
                               probe_rng) -> tuple[float, float | None]:
    """The (train, held-out) probe losses of ``enc`` one sentence at a time:
    the training pool's first ``k`` sentences are masked from ``probe_rng``
    and scored, then the held-out tail's (``None`` for an empty tail)."""
    train_loss, _ = mlm_eval_loss_reference(enc, train_pool[:k], vocab, mask_prob, probe_rng)
    if not heldout_pool:
        return train_loss, None
    return train_loss, mlm_eval_loss_reference(enc, heldout_pool, vocab, mask_prob, probe_rng)[0]


def mlm_batch_loss_and_grads_reference(enc, batch, vocab: BpeVocab, mask_prob: float, mask_rng,
                                       mode: str = "train"):
    """The masked-LM training step one sentence at a time: mask, encode
    (drawing the dropout masks from ``mask_rng`` too), project onto the tied embeddings, and
    backpropagate, accumulating the summed CE and the gradients in batch
    order.  Returns (mean CE, gradients), or (0.0, None) when no position
    was masked."""
    emb = enc.tensors["tok_emb"]
    grads = zero_grads(enc)
    total_ce = 0.0
    total_pos = 0
    for ids in batch:
        corrupted, positions, targets = mlm_mask(ids, len(vocab), vocab.mask_id, mask_prob, mask_rng)
        if positions.size == 0:
            continue
        masks = dropout_masks(enc.config, corrupted.size, mask_rng) if mode == "train" else None
        ctx, cache = encode_with_cache(corrupted, enc, dropout_masks=masks)
        sel = ctx[positions]
        ce, dlogits = _softmax_ce(sel @ emb.T, targets)
        total_ce += ce
        total_pos += positions.size
        d_ctx = np.zeros_like(ctx)
        d_ctx[positions] = dlogits @ emb
        grads["tok_emb"] += dlogits.T @ sel
        encode_backward(enc, d_ctx, cache, grads)
    if total_pos == 0:
        return 0.0, None
    return total_ce / total_pos, {k: v / total_pos for k, v in grads.items()}


def adamw_step_reference(opt, tensors, grads, grad_clip: float = 0.0) -> None:
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


def mlm_mask_reference(ids, vocab_size: int, mask_id: int, mask_prob: float, rng):
    """``mlm_mask`` with one Python step per chosen position, drawing the
    positions, the rolls and the random ids in the same order."""
    ids = np.asarray(ids, dtype=np.int64)
    n = ids.size
    k = min(int(np.ceil(mask_prob * n)) if mask_prob > 0 else 0, n)
    if k == 0:
        return ids.copy(), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    positions = np.sort(rng.choice(n, size=k, replace=False))
    corrupted = ids.copy()
    rolls = rng.random(k)
    randoms = rng.integers(0, vocab_size, size=k)
    for j, pos in enumerate(positions):
        if rolls[j] < 0.8:
            corrupted[pos] = mask_id
        elif rolls[j] < 0.9:
            corrupted[pos] = randoms[j]
    return corrupted, positions, ids[positions]


def _split_heads(x, n_heads):
    *lead, n, d = x.shape
    return x.reshape(*lead, n, n_heads, d // n_heads).swapaxes(-3, -2)


def _merge_heads(x):
    *lead, h, n, dh = x.shape
    return x.swapaxes(-3, -2).reshape(*lead, n, h * dh)


def attention_forward_reference(x, t, p, cfg):
    """Self-attention of ``x`` with a fresh array for every intermediate;
    returns the output and the encoder's attention cache tuple."""
    scale = 1.0 / np.sqrt(cfg.hidden_dim // cfg.n_heads)
    q = _split_heads(x @ t[p + "wq"] + t[p + "bq"], cfg.n_heads)
    k = _split_heads(x @ t[p + "wk"], cfg.n_heads)
    v = _split_heads(x @ t[p + "wv"] + t[p + "bv"], cfg.n_heads)
    scores = (q @ k.swapaxes(-1, -2)) * scale
    scores = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    probs = e / e.sum(axis=-1, keepdims=True)
    merged = _merge_heads(probs @ v)
    return merged @ t[p + "wo"] + t[p + "bo"], (x, q, k, v, probs, merged, scale)


def attention_backward_reference(dout, t, grads, p, cache):
    """Input gradient of one sentence's self-attention; parameter gradients
    accumulate into ``grads``."""
    x, q, k, v, probs, merged, scale = cache
    grads[p + "wo"] += merged.T @ dout
    grads[p + "bo"] += dout.sum(axis=0)
    dctx = _split_heads(dout @ t[p + "wo"].T, q.shape[0])
    dprobs = dctx @ v.transpose(0, 2, 1)
    dv = probs.transpose(0, 2, 1) @ dctx
    dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
    dq = (dscores @ k) * scale
    dk = (dscores.transpose(0, 2, 1) @ q) * scale
    dx = np.zeros_like(x)
    for name, dh in (("wq", dq), ("wk", dk), ("wv", dv)):
        flat = _merge_heads(dh)
        grads[p + name] += x.T @ flat
        if name != "wk":  # there is no key bias
            grads[p + "b" + name[1]] += flat.sum(axis=0)
        dx += flat @ t[p + name].T
    return dx


def word_vectors(ctx: np.ndarray, align) -> np.ndarray:
    """Row w is the contextual vector of word w's first sub-token."""
    if ctx.shape[0] != align.n_subtokens:
        raise ValueError(
            f"contextual rows ({ctx.shape[0]}) != alignment sub-tokens ({align.n_subtokens})"
        )
    return ctx[np.asarray(align.first_subtoken_index, dtype=np.int64)]


def word_vectors_backward(d_wordvecs: np.ndarray, align) -> np.ndarray:
    """Scatter word-vector gradients back onto the sub-token rows: the
    upstream of a full encoder pass whose first-sub-token rows were read."""
    if d_wordvecs.shape[0] != align.n_words:
        raise ValueError(
            f"gradient rows ({d_wordvecs.shape[0]}) != word count ({align.n_words})"
        )
    d_ctx = np.zeros((align.n_subtokens, d_wordvecs.shape[1]))
    d_ctx[np.asarray(align.first_subtoken_index, dtype=np.int64)] = d_wordvecs
    return d_ctx


def batch_loss_and_grads_full_pass_reference(model, examples, rng):
    """``batch_loss_and_grads`` in train mode with the encoder run at every
    sub-token: the heads read the first sub-token rows of the full pass,
    and their gradient is scattered back onto every row before the full
    encoder backward."""
    grads = {"encoder": zero_grads(model.encoder),
             "heads": {k: np.zeros_like(v) for k, v in model.heads.items()}}
    total_ce, total_units = 0.0, 0
    for ex in examples:
        masks = dropout_masks(model.encoder.config, ex.ids.size, rng)
        ctx, cache = encode_with_cache(ex.ids, model.encoder, dropout_masks=masks)
        wv = word_vectors(ctx, ex.align)
        if model.method == "word_tagger":
            ce, dlogits = _softmax_ce(tagger_forward(wv, model.heads), ex.tag_ids)
            d_wv = tagger_backward(wv, model.heads, dlogits, grads["heads"])
            total_units += len(ex.tag_ids)
        else:
            logits, span_cache = span_logits_with_cache(wv, ex.spans, model.heads)
            ce, dlogits = _softmax_ce(logits, ex.span_classes)
            d_wv = span_backward(wv, model.heads, dlogits, grads["heads"], span_cache)
            total_units += len(ex.spans)
        encode_backward(model.encoder, word_vectors_backward(d_wv, ex.align), cache, grads["encoder"])
        total_ce += ce
    flat = {f"encoder.{k}": v / total_units for k, v in grads["encoder"].items()}
    flat.update({f"heads.{k}": v / total_units for k, v in grads["heads"].items()})
    return total_ce / total_units, flat


def layer_norm_forward_reference(x, g, b, eps: float = 1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return g * xhat + b, (xhat, inv, g)


def layer_norm_backward_reference(dy, cache):
    xhat, inv, g = cache
    dg = (dy * xhat).sum(axis=0)
    db = dy.sum(axis=0)
    dxhat = dy * g
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    return inv * (dxhat - m1 - xhat * m2), dg, db


def span_logits_allocating_reference(word_vecs, spans, heads):
    """The endpoint-factored span head's forward with a fresh array for every
    intermediate; returns the logits and the head's cache tuple."""
    t = heads
    d = word_vecs.shape[1]
    pairs = np.asarray(spans, dtype=np.int64).reshape(-1, 2)
    starts, ends = pairs[:, 0], pairs[:, 1]
    lengths = ends - starts + 1
    w1 = t["span.w1"]
    u = (word_vecs @ w1[:d])[starts]
    u += (word_vecs @ w1[d : 2 * d])[ends]
    u += (t["span.len_emb"] @ w1[2 * d :])[lengths - 1]
    u += t["span.b1"]
    cdf = 0.5 * (erf(u / np.sqrt(2.0)) + 1.0)
    h = u * cdf
    return h @ t["span.w2"] + t["span.b2"], (starts, ends, lengths, u, cdf, h)


def span_backward_allocating_reference(word_vecs, heads, d_logits, grads, cache):
    """Backward of ``span_logits_allocating_reference``: parameter gradients
    accumulate into ``grads``; returns the word-vector gradient."""
    t = heads
    d = word_vecs.shape[1]
    starts, ends, lengths, u, cdf, h = cache
    grads["span.w2"] += h.T @ d_logits
    grads["span.b2"] += d_logits.sum(axis=0)
    du = (d_logits @ t["span.w2"].T) * (cdf + u * (1.0 / np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * u * u))
    grads["span.b1"] += du.sum(axis=0)

    def one_hot_sums(index, size):
        one_hot = np.zeros((size, index.size))
        one_hot[index, np.arange(index.size)] = 1.0
        return one_hot @ du

    du_start = one_hot_sums(starts, word_vecs.shape[0])
    du_end = one_hot_sums(ends, word_vecs.shape[0])
    du_len = one_hot_sums(lengths - 1, t["span.len_emb"].shape[0])
    w1 = t["span.w1"]
    grads["span.w1"][:d] += word_vecs.T @ du_start
    grads["span.w1"][d : 2 * d] += word_vecs.T @ du_end
    grads["span.w1"][2 * d :] += t["span.len_emb"].T @ du_len
    grads["span.len_emb"] += du_len @ w1[2 * d :].T
    return du_start @ w1[:d].T + du_end @ w1[d : 2 * d].T


def select_by_score_reference(mentions, conflict):
    """Greedy score-descending subset, each mention checked against every kept one."""
    order = sorted(mentions, key=lambda m: (-getattr(m, "score", 0.0), m.start_word, m.end_word))
    kept = []
    for m in order:
        if not any(conflict(m, k) for k in kept):
            kept.append(m)
    return kept


def train_supervised_reference(train_docs, tune_docs, vocab, encoder_cfg, head_cfg, train_cfg):
    """``train_supervised`` as two nested loops of its own: epochs, then
    batches, with the tune snapshot, the early stop and the last
    off-interval snapshot written out.  Returns (model, log, best_step,
    best_tune_f1)."""
    encoder_cfg = replace(encoder_cfg, vocab_size=len(vocab))
    labels = LabelInventory.from_documents(list(train_docs) + list(tune_docs))
    examples = build_examples(train_docs, vocab, labels, head_cfg)
    model = init_model(train_cfg.method, labels, encoder_cfg, head_cfg)

    rng = np.random.default_rng(train_cfg.seed)
    steps_per_epoch = -(-len(examples) // train_cfg.batch_size)
    total_steps = train_cfg.epochs * steps_per_epoch
    tensors = model_tensors(model)
    opt = AdamW(
        tensors,
        learning_rate=train_cfg.learning_rate,
        weight_decay=train_cfg.weight_decay,
        warmup_steps=int(np.ceil(train_cfg.warmup_frac * total_steps)),
        grad_clip=train_cfg.grad_clip,
    )
    log = []
    workspace = Workspace()
    best_model, best_step, best_f1 = model.clone(), 0, None
    step = 0
    stop = False

    def record_tune(at_step: int) -> float:
        nonlocal best_model, best_step, best_f1
        preds = predict_documents(model, tune_docs, vocab)
        gold = [s.mentions for d in tune_docs for s in d.sentences]
        pred = [s.mentions for d in preds for s in d.sentences]
        prf = mention_prf(gold, pred)
        f1 = prf.f1
        log.append(LogEntry(at_step, "tune", "micro_f1", f1))
        log.append(LogEntry(at_step, "tune", "precision", prf.precision))
        log.append(LogEntry(at_step, "tune", "recall", prf.recall))
        log.append(LogEntry(at_step, "tune", "pred_mentions", float(prf.tp + prf.fp)))
        if best_f1 is None or f1 > best_f1:
            best_f1, best_step, best_model = f1, at_step, model.clone()
        return f1

    for _epoch in range(train_cfg.epochs):
        order = rng.permutation(len(examples))
        for i in range(0, order.size, train_cfg.batch_size):
            batch = [examples[j] for j in order[i : i + train_cfg.batch_size]]
            loss, grads = batch_loss_and_grads(model, batch, "train", rng, workspace)
            opt.step(grads)
            step += 1
            log.append(LogEntry(step, "train", "loss", loss))
            if step % train_cfg.checkpoint_every == 0:
                f1 = record_tune(step)
                if train_cfg.early_stop_f1 is not None and f1 >= train_cfg.early_stop_f1:
                    stop = True
                    break
        if stop:
            break
    if step > 0 and step % train_cfg.checkpoint_every != 0:
        record_tune(step)
    return best_model, log, best_step, best_f1


def mlm_pools(docs, vocab: BpeVocab, heldout_fraction: float = 0.1):
    """The MLM sentence pools of ``docs``: (training pool, held-out tail, k).
    The tail is the last ``ceil(heldout_fraction * n)`` sentences, leaving
    one to train on at least; the training probe scores the pool's first
    ``k`` sentences, as many as the tail holds, or the whole pool when the
    tail is empty or larger than the pool."""
    pool = [
        np.asarray(subtokenize(s.words, vocab).sub_token_ids, dtype=np.int64)
        for d in docs
        for s in d.sentences
    ]
    n_heldout = min(int(np.ceil(heldout_fraction * len(pool))), len(pool) - 1)
    train_pool, heldout_pool = pool[: len(pool) - n_heldout], pool[len(pool) - n_heldout :]
    k = len(train_pool) if not heldout_pool or len(heldout_pool) > len(train_pool) else len(heldout_pool)
    return train_pool, heldout_pool, k


def pretrain_mlm_reference(docs, vocab, encoder_cfg, mlm_cfg):
    """``pretrain_mlm`` as one loop of its own over the steps, drawing each
    batch from a running order of pool permutations.  Returns
    (checkpoints, log)."""
    encoder_cfg = replace(encoder_cfg, vocab_size=len(vocab))
    train_pool, heldout_pool, k = mlm_pools(docs, vocab, mlm_cfg.heldout_fraction)

    enc = init_params(encoder_cfg)
    rng = np.random.default_rng(np.random.SeedSequence(mlm_cfg.seed, spawn_key=(0,)))
    probe_rng = np.random.default_rng(np.random.SeedSequence(mlm_cfg.seed, spawn_key=(3,)))
    train_masks = mlm_masks(train_pool[:k], vocab, mlm_cfg.mask_prob, probe_rng)
    heldout_masks = mlm_masks(heldout_pool, vocab, mlm_cfg.mask_prob, probe_rng)
    probe_sets = [("train", train_pool[:k], train_masks), ("heldout", heldout_pool, heldout_masks)]
    log = []
    checkpoints = []

    def probe(at_step: int) -> None:
        for split, sentences, masks in probe_sets:
            if sentences:
                loss, _ = mlm_batch_loss_and_grads(
                    enc, sentences, vocab, mlm_cfg.mask_prob, None, mode="eval",
                    with_grads=False, masks=masks,
                )
                log.append(LogEntry(at_step, split, "mlm_loss", loss))

    checkpoints.append((0, enc.clone()))
    probe(0)
    opt = AdamW(
        enc.tensors,
        learning_rate=mlm_cfg.learning_rate,
        weight_decay=mlm_cfg.weight_decay,
        warmup_steps=int(np.ceil(mlm_cfg.warmup_frac * mlm_cfg.total_steps)),
        grad_clip=mlm_cfg.grad_clip,
    )
    order = []
    workspace = Workspace()
    for step in range(1, mlm_cfg.total_steps + 1):
        while len(order) < mlm_cfg.batch_size:
            order.extend(rng.permutation(len(train_pool)).tolist())
        batch = [train_pool[i] for i in order[: mlm_cfg.batch_size]]
        del order[: mlm_cfg.batch_size]
        loss, grads = mlm_batch_loss_and_grads(
            enc, batch, vocab, mlm_cfg.mask_prob, rng, mode="train", workspace=workspace,
        )
        if grads is not None:
            opt.step(grads)
        log.append(LogEntry(step, "train", "mlm_batch_loss", loss))
        if step % mlm_cfg.checkpoint_every == 0:
            checkpoints.append((step, enc.clone()))
            probe(step)
    return checkpoints, log
