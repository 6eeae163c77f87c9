"""Shared contextual encoder: embeddings + transformer stack, with exact gradients.

Token embeddings are added to learned absolute position embeddings and fed
through post-layer-norm transformer blocks (multi-head self-attention, then
a GELU feed-forward), with no framing tokens and no padding.  A pass takes
a pack of sentences: their rows are concatenated, so the dense ops and
their backward run once over all of them, while positions restart in each
sentence and attention runs per run of consecutive equal-length sentences.
One sentence is a pack of one.  The packed vectors have the bits of
per-sentence passes, except for a one-sub-token sentence packed with
others, whose own pass takes BLAS's one-row path; the gradients, summed
over all rows at once, round differently from sentence-by-sentence sums.
A pass may run the last layer only at the rows its caller reads, and the
backward of such a pass works on those rows only.  Dropout masks are drawn
by the caller with ``dropout_masks``; a pass applies the masks it is given.
Forward and backward are written out in numpy so analytic gradients can be
checked against finite differences and training stays bit-reproducible on
CPU.
"""

from __future__ import annotations

import json
import math
import tokenize
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import erf

from .corpus import atomic_write, dataclass_from_dict, refuse_unknown_keys
from .errors import FormatError, SentenceTooLongError, UnusableDataError

__all__ = [
    "EncoderConfig",
    "EncoderParams",
    "Workspace",
    "scratch",
    "param_shapes",
    "draw_tensors",
    "init_params",
    "check_vocab_size",
    "check_length",
    "encode_with_cache",
    "encode_backward",
    "dropout_masks",
    "save_checkpoint",
    "load_checkpoint",
    "load_encoder_snapshot",
    "softmax",
    "gelu",
    "gelu_grad",
    "trunc_normal",
]

_LN_EPS = 1e-5
_SQRT2 = np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int = 0  # 0 means "fill in from the trained vocabulary"
    max_positions: int = 512
    hidden_dim: int = 64
    n_layers: int = 2
    n_heads: int = 4
    ffn_dim: int = 128
    dropout_rate: float = 0.0
    init_seed: int = 0

    def __post_init__(self) -> None:
        if self.vocab_size < 0:
            raise ValueError("vocab_size must be >= 0 (0 is filled in from the vocabulary)")
        if min(self.max_positions, self.hidden_dim) < 1:
            raise ValueError("max_positions and hidden_dim must be positive")
        if self.n_layers < 0 or self.init_seed < 0 or self.n_heads < 1 or self.ffn_dim < 1:
            raise ValueError("n_layers and init_seed must be >= 0; n_heads and ffn_dim positive")
        if self.hidden_dim % self.n_heads != 0:
            raise ValueError(
                f"hidden_dim={self.hidden_dim} not divisible by n_heads={self.n_heads}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0,1), got {self.dropout_rate}")


@dataclass
class EncoderParams:
    config: EncoderConfig
    tensors: dict[str, np.ndarray]

    def clone(self) -> "EncoderParams":
        return EncoderParams(self.config, {k: v.copy() for k, v in self.tensors.items()})


class Workspace:
    """Named, grow-only float64 buffers that a training caller owns and
    passes down, so that the large arrays of one sentence or pack reuse
    the memory of the last instead of being allocated and freed each time.
    A view handed out stays valid until the next ``take`` of the same
    name."""

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}

    def take(self, name: str, shape: tuple[int, ...]) -> np.ndarray:
        """An uninitialised C-contiguous ``shape`` view of buffer ``name``."""
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size:
            buf = self._buffers[name] = np.empty(size)
        return buf[:size].reshape(shape)


def scratch(ws: Workspace | None, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """Buffer ``name`` of ``ws``, or a new ``np.empty`` array without one."""
    return np.empty(shape) if ws is None else ws.take(name, shape)


def gelu(x: np.ndarray, out=None) -> tuple[np.ndarray, np.ndarray]:
    """(x * Phi(x), Phi(x)); the normal CDF is kept for ``gelu_grad``.
    ``out`` is an optional (gelu, cdf) pair of arrays shaped like ``x``."""
    h, cdf = (None, None) if out is None else out
    cdf = np.divide(x, _SQRT2, out=cdf)
    erf(cdf, out=cdf)
    cdf += 1.0
    cdf *= 0.5
    return np.multiply(x, cdf, out=h), cdf


def gelu_grad(x: np.ndarray, cdf: np.ndarray, out=None) -> np.ndarray:
    """d gelu / dx = cdf + x / sqrt(2 pi) * exp(-x * x / 2) at ``x``, given
    ``cdf`` = Phi(x) from ``gelu``.  ``out`` is an optional (result,
    temporary) pair of arrays shaped like ``x``."""
    g, e = (np.empty_like(x), np.empty_like(x)) if out is None else out
    np.multiply(x, _INV_SQRT_2PI, out=g)
    np.multiply(x, -0.5, out=e)
    e *= x
    np.exp(e, out=e)
    g *= e
    g += cdf
    return g


def trunc_normal(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    """Normal(0, std) resampled until every draw lies within two deviations."""
    x = rng.normal(0.0, std, size=shape)
    bad = np.abs(x) > 2.0 * std
    while bad.any():
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(x) > 2.0 * std
    return x


def param_shapes(cfg: EncoderConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every encoder tensor, in the order ``init_params`` draws them."""
    if cfg.vocab_size < 1:
        raise ValueError("vocab_size must be positive to build an encoder")
    d, f = cfg.hidden_dim, cfg.ffn_dim
    shapes = {"tok_emb": (cfg.vocab_size, d), "pos_emb": (cfg.max_positions, d)}
    for i in range(cfg.n_layers):
        p = f"layers.{i}."
        shapes.update({p + f"attn.{name}": (d, d) for name in ("wq", "wk", "wv", "wo")})
        # no key bias: it would shift every score of a query alike, which the softmax removes
        shapes.update({p + f"attn.{name}": (d,) for name in ("bq", "bv", "bo")})
        shapes.update({p + "ln1.g": (d,), p + "ln1.b": (d,)})
        shapes.update({p + "ffn.w1": (d, f), p + "ffn.b1": (f,), p + "ffn.w2": (f, d), p + "ffn.b2": (d,)})
        shapes.update({p + "ln2.g": (d,), p + "ln2.b": (d,)})
    return shapes


def draw_tensors(shapes: dict[str, tuple[int, ...]], rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Initial values in table order: ones for layer-norm gains (``*.g``),
    zeros for biases (``*.b*``), trunc-normal(0.02) draws for the rest."""
    out = {}
    for name, shape in shapes.items():
        leaf = name.rpartition(".")[2]
        if leaf == "g":
            out[name] = np.ones(shape)
        elif leaf.startswith("b"):
            out[name] = np.zeros(shape)
        else:
            out[name] = trunc_normal(rng, shape)
    return out


def init_params(cfg: EncoderConfig) -> EncoderParams:
    """Random initialization: trunc-normal(0.02) weights, unit/zero layer norms."""
    shapes = param_shapes(cfg)
    return EncoderParams(config=cfg, tensors=draw_tensors(shapes, np.random.default_rng(cfg.init_seed)))


def check_vocab_size(cfg: EncoderConfig, n_symbols: int, what: str) -> None:
    """The vocabulary must have exactly the ``vocab_size`` of ``what``'s encoder."""
    if n_symbols != cfg.vocab_size:
        raise UnusableDataError(
            f"vocabulary has {n_symbols} symbols but the {what} has vocab_size={cfg.vocab_size}"
        )


# ---------------------------------------------------------------------------
# Forward
# ---------------------------------------------------------------------------


def dropout_masks(cfg: EncoderConfig, n: int, rng) -> list[np.ndarray] | None:
    """The dropout masks of a train-mode pass over one sentence of ``n``
    sub-tokens, drawn from ``rng``: two ``[n, hidden_dim]`` masks per layer,
    in layer order, or None (no dropout) at rate 0.  A pack of sentences
    takes its sentences' masks concatenated."""
    rate = cfg.dropout_rate
    if rate <= 0.0:
        return None
    if rng is None:
        raise ValueError("dropout needs a random generator")
    return [(rng.random((n, cfg.hidden_dim)) >= rate) / (1.0 - rate) for _ in range(2 * cfg.n_layers)]


def _check_masks(masks, cfg: EncoderConfig, shape) -> list:
    """Each layer's pair of dropout masks, ``(None, None)`` without ``masks``."""
    if masks is None:
        return [(None, None)] * cfg.n_layers
    if len(masks) != 2 * cfg.n_layers:
        raise ValueError(f"{len(masks)} dropout masks given for {cfg.n_layers} layers, not two per layer")
    for mask in masks:
        if mask.shape != shape:
            raise ValueError(f"dropout mask of shape {mask.shape} given for a pass of shape {shape}")
    return list(zip(masks[::2], masks[1::2]))


def softmax(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """exp(x - max) / sum over the last axis; ``out`` may be ``x`` itself."""
    out = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def _mean_last(x):
    """Mean over the last axis, kept; the bits of ``x.mean(axis=-1, keepdims=True)``."""
    out = np.add.reduce(x, axis=-1, keepdims=True)
    out /= x.shape[-1]
    return out


def _layer_norm_forward(x, g, b):
    xc = x - _mean_last(x)
    var = _mean_last(xc * xc)
    var += _LN_EPS
    np.sqrt(var, out=var)
    inv = np.divide(1.0, var, out=var)
    xc *= inv
    y = g * xc
    y += b
    return y, (xc, inv, g)


def _layer_norm_backward(dy, cache):
    xhat, inv, g = cache
    dg = (dy * xhat).sum(axis=0)
    db = dy.sum(axis=0)
    dxhat = dy * g
    m1 = _mean_last(dxhat)
    m2 = _mean_last(dxhat * xhat)
    dxhat -= m1
    dxhat -= xhat * m2
    dxhat *= inv
    return dxhat, dg, db


def _split_heads(x, b, n_heads):
    """The ``[b * n, d]`` rows of b sentences as a ``[b, n_heads, n, d / n_heads]`` view."""
    return x.reshape(b, -1, n_heads, x.shape[1] // n_heads).swapaxes(1, 2)


def _affine(x, w, b):
    """``x @ w + b``, the bias added in place."""
    y = x @ w
    y += b
    return y


def _add_rows(x, rows, v):
    """``x[rows] += v``, a repeated row receiving the sum of its values
    (``np.add.at``, seven times slower, is taken only then)."""
    if (rows[1:] > rows[:-1]).all():
        x[rows] += v
    else:
        np.add.at(x, rows, v)


def _attention_forward(x, t, p, cfg, xq, runs, rows=None):
    """Self-attention over the rows of ``x``, queried at ``xq``, which is
    ``x`` itself or its rows ``rows``.  The projections run once over all
    rows; each run ``(key row, query row, b, n, m)`` of b sentences of n
    sub-tokens, queried at m rows each, attends as one ``[b, h, m, n]``
    stack, within its sentences."""
    h = cfg.n_heads
    scale = 1.0 / np.sqrt(cfg.hidden_dim // h)
    q = _affine(xq, t[p + "wq"], t[p + "bq"])
    k = x @ t[p + "wk"]
    v = _affine(x, t[p + "wv"], t[p + "bv"])
    merged = np.empty_like(q)
    heads = []  # per run: the split-head views of q, k and v, and the [b, h, m, n] probs
    for ks, qs, b, n, m in runs:
        kr, qr = slice(ks, ks + b * n), slice(qs, qs + b * m)
        qh, kh, vh = _split_heads(q[qr], b, h), _split_heads(k[kr], b, h), _split_heads(v[kr], b, h)
        probs = qh @ kh.swapaxes(-1, -2)
        probs *= scale
        softmax(probs, out=probs)
        np.matmul(probs, vh, out=_split_heads(merged[qr], b, h))
        heads.append((qh, kh, vh, probs))
    out = _affine(merged, t[p + "wo"], t[p + "bo"])
    return out, (x, xq, rows, runs, heads, merged, scale)


# The attention backward takes the heads in groups whose [b, group, m, n]
# score arrays hold at most this many floats (256 KiB): all heads at once at
# short sentences, where a loop over single heads cost about 25 us per call
# at n=33 (4 heads, one BLAS thread), and fewer from n=91 (one at a time
# from n=129), where the arrays of all four heads (850 KiB at n=165) raised
# peak memory by 1 MiB.
_SCORES_PER_GROUP = 2**15


def _attend_backward(dctx, q, k, v, probs, workspace, dq, dk, dv):
    """Unscaled (dq, dk, dv) of one run's attention, written into the
    split-head views ``dq``, ``dk`` and ``dv``, given the upstream ``dctx``
    of its context."""
    np.matmul(probs.swapaxes(-1, -2), dctx, out=dv)
    b, n_heads, m, n = probs.shape
    group = max(1, _SCORES_PER_GROUP // (b * m * n))
    for hs in (slice(h, h + group) for h in range(0, n_heads, group)):
        pr = probs[:, hs]
        # dscores = probs * (dprobs - sum(dprobs * probs)), formed in place;
        # every head's products and sums have the bits of an all-heads pass
        dscores = np.matmul(dctx[:, hs], v[:, hs].swapaxes(-1, -2),
                            out=scratch(workspace, "attn.dscores", pr.shape))
        weighted = np.multiply(dscores, pr, out=scratch(workspace, "attn.weighted", pr.shape))
        dscores -= weighted.sum(axis=-1, keepdims=True)
        dscores *= pr
        np.matmul(dscores, k[:, hs], out=dq[:, hs])
        np.matmul(dscores.swapaxes(-1, -2), q[:, hs], out=dk[:, hs])


def _attention_backward(dout, t, grads, p, cache, workspace=None):
    """Input gradient ``[N, d]``; ``dout`` has one row per query row."""
    x, xq, rows, runs, heads, merged, scale = cache
    grads[p + "wo"] += merged.T @ dout
    grads[p + "bo"] += dout.sum(axis=0)
    dctx = dout @ t[p + "wo"].T
    dq, dk, dv = np.empty(xq.shape), np.empty(x.shape), np.empty(x.shape)
    for (ks, qs, b, n, m), (qh, kh, vh, probs) in zip(runs, heads):
        kr, qr = slice(ks, ks + b * n), slice(qs, qs + b * m)
        h = probs.shape[1]
        _attend_backward(_split_heads(dctx[qr], b, h), qh, kh, vh, probs, workspace,
                         _split_heads(dq[qr], b, h), _split_heads(dk[kr], b, h), _split_heads(dv[kr], b, h))
    dq *= scale
    dk *= scale
    dx = np.zeros(x.shape)
    for name, flat, xin, at in (("wq", dq, xq, rows), ("wk", dk, x, None), ("wv", dv, x, None)):
        grads[p + name] += xin.T @ flat
        if name != "wk":
            grads[p + "b" + name[1]] += flat.sum(axis=0)
        if at is None:
            dx += flat @ t[p + name].T
        else:  # the queries are at rows ``at`` only
            _add_rows(dx, at, flat @ t[p + name].T)
    return dx


def _layer_forward(x, t, i, cfg, masks, runs, rows=None):
    """One block over ``x`` with its pair of dropout ``masks``, each None or
    shaped like the block's output; with ``rows``, its output only at those
    rows, which ``runs`` describe."""
    p = f"layers.{i}."
    mask1, mask2 = masks
    xq = x if rows is None else x[rows]
    attn, attn_cache = _attention_forward(x, t, p + "attn.", cfg, xq, runs, rows)
    if mask1 is not None:
        attn *= mask1
    x1, ln1_cache = _layer_norm_forward(xq + attn, t[p + "ln1.g"], t[p + "ln1.b"])
    u = _affine(x1, t[p + "ffn.w1"], t[p + "ffn.b1"])
    g, cdf = gelu(u)
    f = _affine(g, t[p + "ffn.w2"], t[p + "ffn.b2"])
    if mask2 is not None:
        f *= mask2
    x2, ln2_cache = _layer_norm_forward(x1 + f, t[p + "ln2.g"], t[p + "ln2.b"])
    cache = dict(rows=rows, attn=attn_cache, mask1=mask1, ln1=ln1_cache, x1=x1, u=u, cdf=cdf, g=g,
                 mask2=mask2, ln2=ln2_cache)
    return x2, cache


def _layer_backward(dy, t, grads, p, c, workspace):
    """Input gradient ``[N, d]`` of one block, given the upstream ``dy`` at
    the rows the block computed (all of them unless it ran at ``rows``)."""
    dr2, dg2, db2 = _layer_norm_backward(dy, c["ln2"])
    grads[p + "ln2.g"] += dg2
    grads[p + "ln2.b"] += db2
    df = dr2 if c["mask2"] is None else dr2 * c["mask2"]
    grads[p + "ffn.w2"] += c["g"].T @ df
    grads[p + "ffn.b2"] += df.sum(axis=0)
    du = (df @ t[p + "ffn.w2"].T) * gelu_grad(c["u"], c["cdf"])
    grads[p + "ffn.w1"] += c["x1"].T @ du
    grads[p + "ffn.b1"] += du.sum(axis=0)
    dx1 = dr2 + du @ t[p + "ffn.w1"].T
    dr1, dg1, db1 = _layer_norm_backward(dx1, c["ln1"])
    grads[p + "ln1.g"] += dg1
    grads[p + "ln1.b"] += db1
    dattn = dr1 if c["mask1"] is None else dr1 * c["mask1"]
    dx = _attention_backward(dattn, t, grads, p + "attn.", c["attn"], workspace)
    if c["rows"] is None:
        return dr1 + dx
    _add_rows(dx, c["rows"], dr1)  # the residual reaches the rows only; the bits of dr1 + dx
    return dx


def check_length(cfg: EncoderConfig, n: int, name: str | None = None) -> None:
    """A sentence of ``n`` sub-tokens must fit in ``max_positions``; the
    error names the sentence ``name`` when given."""
    if n > cfg.max_positions:
        label = f" in {name}" if name else ""
        raise SentenceTooLongError(f"sentence of {n} sub-tokens exceeds max_positions={cfg.max_positions}{label}")


def _check_input(ids, cfg: EncoderConfig, lengths):
    """(ids, runs) of a pass: ``runs`` holds ``(first row, first row, b, n,
    n)`` for each run of b consecutive sentences of n sub-tokens."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError(f"expected a non-empty 1-D id sequence, got shape {ids.shape}")
    if lengths is None:
        lengths = [ids.size]
    else:
        lengths = np.asarray(lengths, dtype=np.int64)
        fits = lengths.ndim == 1 and lengths.size and lengths.min() >= 1
        if not fits or lengths.sum() != ids.size:
            raise ValueError(f"lengths do not split the {ids.size} packed sub-tokens into sentences")
        lengths = lengths.tolist()
    check_length(cfg, max(lengths))
    runs = []
    start = 0
    for n in lengths:
        if runs and runs[-1][3] == n:
            runs[-1] = (*runs[-1][:2], runs[-1][2] + 1, n, n)
        else:
            runs.append((start, start, 1, n, n))
        start += n
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise ValueError(f"sub-token id out of range for vocab_size={cfg.vocab_size}")
    return ids, runs


def _query_layout(rows, runs):
    """Where a ``rows`` pass computes its last layer: (the query ``runs``,
    the flat query rows, and a mask of the query rows that were asked for,
    None when all were).  ``rows`` holds one index array per sentence, and
    ``runs`` cover the pack from its first row.  The b sentences of a run
    are queried as one ``[b, w]`` block: each sentence's rows are padded to
    the run's widest, and to at least 2, by repeating its last row (a
    one-row product takes another BLAS path than the same row of a larger
    product and can differ in its last bits)."""
    sents = [np.asarray(r, dtype=np.int64) for r in rows]
    sizes = [r.size for r in sents]
    qruns, widths, keys, lengths = [], [], [], []  # per sentence: its block's width, first key row, length
    i = qs = 0
    for ks, _qs, b, n, _m in runs:
        w = max([2, *sizes[i : i + b]])
        qruns.append((ks, qs, b, n, w))
        widths += [w] * b
        keys += range(ks, ks + b * n, n)
        lengths += [n] * b
        i += b
        qs += b * w
    if len(sents) != i:
        raise ValueError(f"{len(sents)} row lists given for {i} sentences")
    bad = [r.shape for r in sents if r.ndim != 1 or r.size == 0]
    if bad:
        raise ValueError(f"rows of shape {bad[0]} given for a sentence, not a non-empty 1-D array")
    query = np.concatenate(sents)
    asked = np.array(sizes)
    # a negative row reads as a huge unsigned one
    limit = np.array(lengths, dtype=np.uint64).repeat(asked)
    out = query.view(np.uint64) >= limit
    if out.any():
        raise ValueError(f"row index out of range for a sentence of {limit[out.argmax()]} sub-tokens")
    query += np.array(keys).repeat(asked)
    if qs == query.size:
        return qruns, query, None
    # each sentence's last row is repeated to fill its block; the first
    # copy of every row is one that was asked for
    counts = np.ones(query.size, dtype=np.int64)
    counts[asked.cumsum() - 1] += np.subtract(widths, asked)
    keep = np.zeros(qs, dtype=bool)
    keep[counts.cumsum() - counts] = True
    return qruns, query.repeat(counts), keep


def encode_with_cache(ids, params: EncoderParams, rows=None, lengths=None, dropout_masks=None):
    """Forward pass returning both the contextual vectors and the backward cache.

    ``ids`` is the ``[N]`` concatenation of sentences whose ``lengths`` add
    up to N, or one sentence when ``lengths`` is None; the vectors are
    ``[N, hidden_dim]``.  Each sentence is encoded as alone (positions
    restart at 0, attention stays within it, ``max_positions`` holds per
    sentence), but the embeddings, affine maps, layer norms and GELU run
    once over all N rows, and attention once per run of consecutive
    sentences of equal length.  The vectors have the bits of per-sentence
    passes, except a one-sub-token sentence's when it is packed with
    others: its own pass takes BLAS's one-row path.

    ``rows`` (one index array per sentence, repeats allowed) asks for the
    vectors at those rows only, concatenated in sentence order, with the
    bits of the same rows of the full pass: the last layer still takes
    keys and values from every row but computes the rest of the layer at
    the rows alone (see ``_query_layout``).  ``dropout_masks`` (see
    ``dropout_masks``; None is no dropout) are two per layer, in layer
    order, each ``[N, hidden_dim]`` (the sentences' own masks,
    concatenated); the last layer of a ``rows`` pass takes its masks at the
    rows.  Every cache can be passed to ``encode_backward``.
    """
    cfg = params.config
    t = params.tensors
    ids, runs = _check_input(ids, cfg, lengths)
    masks = _check_masks(dropout_masks, cfg, (ids.size, cfg.hidden_dim))
    x = t["tok_emb"][ids]
    for start, _qs, b, n, _m in runs:
        sentences = x[start : start + b * n].reshape(b, n, -1)
        sentences += t["pos_emb"][:n]
    cache = {"ids": ids, "runs": runs, "keep": None, "gathered": None, "layers": []}
    query = None
    if rows is not None:
        qruns, query, cache["keep"] = _query_layout(rows, runs)
    # The last layer runs at the query rows only.  Without layers, or at one
    # sub-token in all, the rows are gathered from the full pass instead, so
    # that a one-sub-token sentence keeps the bits of its own pass.
    at_rows = query is not None and ids.size >= 2 and cfg.n_layers > 0
    for i in range(cfg.n_layers - at_rows):
        x, layer_cache = _layer_forward(x, t, i, cfg, masks[i], runs)
        cache["layers"].append(layer_cache)
    if at_rows:
        last_masks = [None if m is None else m[query] for m in masks[-1]]
        x, layer_cache = _layer_forward(x, t, cfg.n_layers - 1, cfg, last_masks, qruns, query)
        cache["layers"].append(layer_cache)
    elif query is not None:
        x = x[query]
        cache["gathered"] = query
    if cache["keep"] is not None:
        x = x[cache["keep"]]
    cache["shape"] = x.shape
    return x, cache


def zero_grads(params: EncoderParams) -> dict[str, np.ndarray]:
    return {k: np.zeros_like(v) for k, v in params.tensors.items()}


def encode_backward(
    params: EncoderParams,
    upstream: np.ndarray,
    cache: dict,
    grads: dict[str, np.ndarray] | None = None,
    workspace: Workspace | None = None,
) -> dict[str, np.ndarray]:
    """Parameter gradients of sum(vectors * upstream); shapes mirror params.

    ``cache`` is the cache ``encode_with_cache`` returned with the vectors,
    so the dropout masks match, and ``upstream`` has the vectors' shape.
    With a cache of ``rows``, the last layer's backward runs at those rows
    only: what the full pass would compute there from a zero upstream is
    zero and is skipped, so the gradients are those of the full pass with
    the rows' upstream scattered into zeros (repeated rows summed), up to
    the rounding of shorter products.  A packed cache gives the summed
    gradients of its sentences' passes, up to rounding.  When ``grads`` is
    given, gradients accumulate into it.  The attention backward takes its
    score temporaries from ``workspace`` when one is given.
    """
    cfg = params.config
    t = params.tensors
    ids, keep, gathered = cache["ids"], cache["keep"], cache["gathered"]
    dx = upstream = np.asarray(upstream, dtype=float)
    if upstream.shape != cache["shape"]:
        raise ValueError(f"upstream gradient shape {upstream.shape} != {cache['shape']}")
    if grads is None:
        grads = zero_grads(params)
    if keep is not None:  # the padded query rows get no gradient
        dx = np.zeros((keep.size, cfg.hidden_dim))
        dx[keep] = upstream
    if gathered is not None:  # the rows were gathered from the full pass
        full = np.zeros((ids.size, cfg.hidden_dim))
        _add_rows(full, gathered, dx)
        dx = full
    for i in reversed(range(cfg.n_layers)):
        dx = _layer_backward(dx, t, grads, f"layers.{i}.", cache["layers"][i], workspace)
    np.add.at(grads["tok_emb"], ids, dx)
    pos = grads["pos_emb"]
    for start, _qs, b, n, _m in cache["runs"]:
        for sentence in dx[start : start + b * n].reshape(b, n, -1):  # in order, as when alone
            pos[:n] += sentence
    return grads


# ---------------------------------------------------------------------------
# Checkpoint container: one .npz holding a JSON config blob + named tensors
# ---------------------------------------------------------------------------


def save_checkpoint(path: str | Path, config: dict, tensors: dict[str, np.ndarray]) -> None:
    """Self-describing container: "__config__" JSON string plus named float arrays."""
    with atomic_write(path, "wb") as fh:
        np.savez(fh, __config__=np.array(json.dumps(config)), **tensors)


def load_checkpoint(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    try:
        with np.load(path, allow_pickle=False) as z:
            if "__config__" not in z.files:
                raise FormatError("checkpoint missing __config__ entry", path=str(path))
            config = json.loads(str(z["__config__"][()]))
            if not isinstance(config, dict):
                raise FormatError("checkpoint __config__ is not a JSON object", path=str(path))
            tensors = {k: z[k].copy() for k in z.files if k != "__config__"}
    except (OSError, EOFError, ValueError, TypeError, RuntimeError, zipfile.BadZipFile, tokenize.TokenError) as exc:
        # TypeError: an .npy file, which np.load returns as a bare array;
        # RuntimeError (NotImplementedError too): a zip entry flagged as
        # encrypted or patched, which zipfile refuses to open; TokenError:
        # an unparsable .npy header, from numpy's fallback header filter
        raise FormatError(f"unreadable checkpoint: {exc}", path=str(path)) from exc
    return config, tensors


# The config keys of each kind of checkpoint: an MLM snapshot, a model.
_CONFIG_KEYS = {"encoder": {"kind", "step", "encoder"}, "model": {"kind", "method", "labels", "encoder", "heads"}}


def load_encoder_snapshot(
    path: str | Path, kind: str, prefix: str = "", other_shapes=None
) -> tuple[dict, EncoderParams, dict[str, np.ndarray]]:
    """The checkpoint at ``path``, whose config must be of ``kind``, as
    (config, encoder, every tensor of the file).

    The config may hold only its kind's keys.  The encoder is built from the
    config's ``encoder`` section and the tensors named ``prefix`` plus its
    ``param_shapes`` names.  ``other_shapes(config, encoder_cfg)`` names the
    shapes of the file's other tensors; a ``ValueError`` it raises is a bad
    config.  The file must hold exactly these tensors, each finite float64,
    checked before anything is allocated, so a small file claiming a huge
    model costs nothing.  A checkpoint written while the encoder had a key
    bias holds ``layers.{i}.attn.bk`` and is refused here as an unexpected
    tensor.
    """
    config, tensors = load_checkpoint(path)
    if config.get("kind") != kind:
        raise FormatError(f'checkpoint "kind" is {config.get("kind")!r}, expected {kind!r}', path=str(path))
    refuse_unknown_keys(config, _CONFIG_KEYS[kind], "checkpoint config", path=str(path))
    cfg = dataclass_from_dict(EncoderConfig, config.get("encoder"), f"{path} encoder config")
    try:
        # a layer count the file cannot hold is refused before its names are listed
        if cfg.n_layers > len(tensors):
            raise ValueError(f"n_layers={cfg.n_layers} but the checkpoint holds {len(tensors)} tensors")
        enc_shapes = param_shapes(cfg)
        shapes = {prefix + k: s for k, s in enc_shapes.items()}
        if other_shapes is not None:
            shapes |= other_shapes(config, cfg)
    except ValueError as exc:
        raise FormatError(f"bad {kind} config: {exc}", path=str(path)) from exc
    if set(shapes) != set(tensors):
        missing, extra = sorted(set(shapes) - set(tensors)), sorted(set(tensors) - set(shapes))
        raise FormatError(f"checkpoint tensor mismatch (missing {missing}, unexpected {extra})", path=str(path))
    for key, shape in shapes.items():
        got = tensors[key]
        if got.shape != shape:
            raise FormatError(f"checkpoint tensor {key} has shape {got.shape}, expected {shape}", path=str(path))
        if got.dtype.kind != "f" or got.dtype.itemsize != 8:
            raise FormatError(f"checkpoint tensor {key} has dtype {got.dtype}, expected float64", path=str(path))
        if not np.isfinite(got).all():
            raise FormatError(f"checkpoint tensor {key} has non-finite values", path=str(path))
    return config, EncoderParams(cfg, {k: tensors[prefix + k] for k in enc_shapes}), tensors
