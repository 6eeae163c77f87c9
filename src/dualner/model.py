"""Full-model composition: encoder + one head, losses, prediction, checkpoints.

One Model owns the encoder parameters, the tensors of the one head its
``method`` trains and predicts with, the head config and the label
inventory; the heads read their sizes off their own tensors.  All
losses are mean cross-entropy per unit (word, candidate span, or masked
position) over the batch, and every gradient here chains through the exact
encoder backward, so the whole pipeline is finite-difference checkable.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import cached_property
from itertools import accumulate
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Document, LabelInventory, ScoredMention, Sentence, dataclass_from_dict, require_sentences
from .encoder import (
    EncoderConfig,
    EncoderParams,
    Workspace,
    check_length,
    check_vocab_size,
    dropout_masks,
    encode_backward,
    encode_with_cache,
    init_params,
    load_encoder_snapshot,
    scratch,
    save_checkpoint,
    softmax,
)
from .errors import FormatError, UnusableDataError
from .heads import (
    HeadConfig,
    enumerate_spans,
    head_shapes,
    init_head_params,
    mentions_to_tags,
    span_backward,
    span_decode,
    span_forward,
    span_logits_with_cache,
    tagger_backward,
    tagger_forward,
    tags_to_mentions,
)
from .subtok import BpeVocab, SubTokenization, subtokenize

__all__ = [
    "METHODS",
    "Model",
    "Example",
    "init_model",
    "build_examples",
    "check_sentences",
    "model_tensors",
    "batch_loss_and_grads",
    "mlm_mask",
    "mlm_masks",
    "mlm_batch_loss_and_grads",
    "predict_sentence",
    "predict_documents",
    "save_model",
    "load_model",
]

# The prefix of the head tensors each method owns.
_HEAD_PREFIX = {"word_tagger": "tagger.", "span_classifier": "span."}
METHODS = tuple(_HEAD_PREFIX)


def head_prefix(method: str) -> str:
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    return _HEAD_PREFIX[method]


@dataclass
class Model:
    method: str
    labels: LabelInventory
    encoder: EncoderParams
    head_cfg: HeadConfig
    heads: dict[str, np.ndarray]  # the method's head tensors, named as in ``head_shapes``

    def clone(self) -> "Model":
        heads = {k: v.copy() for k, v in self.heads.items()}
        return Model(self.method, self.labels, self.encoder.clone(), self.head_cfg, heads)


def init_model(
    method: str,
    labels: LabelInventory,
    encoder_cfg: EncoderConfig,
    head_cfg: HeadConfig,
) -> Model:
    prefix = head_prefix(method)
    enc = init_params(encoder_cfg)
    # Both heads are drawn from one generator, so the kept head's weights do
    # not depend on the method; the other head is dropped.
    both = init_head_params(encoder_cfg.hidden_dim, head_cfg, len(labels), seed=encoder_cfg.init_seed + 1)
    heads = {k: v for k, v in both.items() if k.startswith(prefix)}
    return Model(method, labels, enc, head_cfg, heads)


def model_tensors(model: Model) -> dict[str, np.ndarray]:
    """Flat name -> array view of all parameters, prefixed by component."""
    out = {f"encoder.{k}": v for k, v in model.encoder.tensors.items()}
    out.update({f"heads.{k}": v for k, v in model.heads.items()})
    return out


# ---------------------------------------------------------------------------
# Supervised examples
# ---------------------------------------------------------------------------


@dataclass
class Example:
    """One sentence's tokenized form; each head's gold targets are built when
    first read, so a run builds only those of the head it trains.  Gold
    mentions wider than ``max_span_width`` have no matching candidate and
    stay unreachable for the span head (permanent fn)."""

    align: SubTokenization
    sentence: Sentence
    types: tuple[str, ...]  # the label inventory's types, shared by all examples
    max_span_width: int

    @property
    def ids(self) -> np.ndarray:
        return self.align.sub_token_ids

    @cached_property
    def tag_ids(self) -> np.ndarray:
        return mentions_to_tags(self.sentence.mentions, len(self.sentence.words), self.types)

    @cached_property
    def spans(self) -> np.ndarray:
        return enumerate_spans(len(self.sentence.words), self.max_span_width)

    @cached_property
    def span_classes(self) -> np.ndarray:
        gold = np.zeros((len(self.sentence.words),) * 2, dtype=np.int64)  # [start, end] -> class
        for m in self.sentence.mentions:
            gold[m.start_word, m.end_word] = self.types.index(m.label) + 1
        return gold[self.spans[:, 0], self.spans[:, 1]]


def build_examples(
    docs: Sequence[Document], vocab: BpeVocab, labels: LabelInventory, head_cfg: HeadConfig
) -> list[Example]:
    """Pre-tokenized training units, one per sentence."""
    return [Example(subtokenize(sent.words, vocab), sent, labels.types, head_cfg.max_span_width)
            for doc in docs for sent in doc.sentences]


def check_sentences(cfg: EncoderConfig, docs: Sequence[Document], id_seqs, what: str) -> None:
    """``docs`` (``what``) must hold a sentence (``require_sentences``), and
    every sentence, whose sub-token ids ``id_seqs`` holds in document order,
    must fit in ``max_positions``; the error names the first that does not
    as ``doc_id[sentence index]``."""
    require_sentences(docs, what)
    names = (f"{doc.id}[{si}]" for doc in docs for si in range(len(doc.sentences)))
    for name, ids in zip(names, id_seqs):
        check_length(cfg, len(ids), name)


def _masks_for(mode: str, cfg: EncoderConfig, n: int, rng):
    """The dropout masks of a pass over ``n`` sub-tokens: drawn from ``rng``
    in train mode, none in eval mode."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    return dropout_masks(cfg, n, rng) if mode == "train" else None


def _softmax_ce(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Summed cross-entropy and its gradient (probs minus one-hot)."""
    logp = logits - logits.max(axis=-1, keepdims=True)
    logp -= np.log(np.exp(logp).sum(axis=-1, keepdims=True))
    rows = np.arange(len(targets))
    ce = -float(logp[rows, targets].sum())
    dlogits = np.exp(logp)
    dlogits[rows, targets] -= 1.0
    return ce, dlogits


def _target_log_probs(vecs: np.ndarray, emb: np.ndarray, targets: np.ndarray, workspace: Workspace | None):
    """log_softmax of the tied projection's ``[P, V]`` logits ``vecs @ emb.T``
    at the targets, without a log-probability array.  The logits are
    computed in buffer ``mlm.logits`` of ``workspace``, left holding
    exp(z - max), and returned with the picked values and the ``[P, 1]``
    sums."""
    z = np.matmul(vecs, emb.T, out=scratch(workspace, "mlm.logits", (vecs.shape[0], emb.shape[0])))
    z -= z.max(axis=-1, keepdims=True)
    picked = z[np.arange(targets.size), targets]
    np.exp(z, out=z)
    total = z.sum(axis=-1, keepdims=True)
    picked -= np.log(total[:, 0])
    return z, picked, total


# A pack holds at most this many sub-tokens (always at least one sentence).
# Measured on the MLM scoring pass of a 1883-symbol vocabulary (one BLAS
# thread, 2-core Xeon), with stacks of equal-length sentences: 64 rows
# 467 ms, 128 rows 372 ms, 512 rows 358 ms but 18 MiB more peak memory,
# against 853 ms one sentence at a time.  In training the cap keeps
# sentences of over 64 sub-tokens one to a pass: a whole batch of 8 such
# sentences in one pass raised a supervised step's traced peak from 4.45
# to 23.53 MiB.
_PACK_ROWS = 128


def _packs(sizes: Sequence[int], order) -> list[list[int]]:
    """The indices ``order`` of sentences of ``sizes`` sub-tokens, grouped
    in that order into packs of at most ``_PACK_ROWS`` sub-tokens; a longer
    sentence, and each one-sub-token sentence, is packed alone, so that
    every sentence gets the bits of its own pass."""
    packs: list[list[int]] = []
    size = 0
    for i in order:
        if not packs or size + sizes[i] > _PACK_ROWS or 1 in (size, sizes[i]):
            packs.append([])
            size = 0
        packs[-1].append(i)
        size += sizes[i]
    return packs


def _encode_pack(
    id_seqs: Sequence[np.ndarray], enc: EncoderParams, rows: Sequence[Sequence[int]], drops=None
):
    """One ``encode_with_cache`` pass over the sentences ``id_seqs``, packed
    in that order, at the sub-token positions ``rows[j]`` of each sentence
    j, with sentence j's ``dropout_masks`` ``drops[j]`` concatenated (no
    dropout when ``drops`` is None or holds Nones).

    Returns ``(vecs, cache, slices)``: the pass's vectors and cache, and
    ``slices[j]``, the slice of ``vecs`` that holds sentence j's rows.
    """
    vecs, cache = encode_with_cache(
        np.concatenate(id_seqs), enc, rows=rows, lengths=[ids.size for ids in id_seqs],
        dropout_masks=None if drops is None or drops[0] is None else [np.concatenate(m) for m in zip(*drops)],
    )
    stops = list(accumulate(map(len, rows)))
    return vecs, cache, list(map(slice, [0, *stops], stops))


def _eval_packs(id_seqs: Sequence[np.ndarray], enc: EncoderParams, rows: Sequence[Sequence[int]]):
    """Eval-mode encoding of many sentences at the rows their callers read.

    Yields ``(indices, vecs, slices)`` per pack (``_encode_pack``), where
    ``vecs[slices[j]]`` holds the vectors of ``id_seqs[i]`` at the
    sub-token positions ``rows[i]`` for the j-th ``i`` of ``indices``.
    Sentences are packed (``_packs``) shortest first, ties in input order.
    """
    sizes = [ids.size for ids in id_seqs]
    for pack in _packs(sizes, sorted(range(len(id_seqs)), key=sizes.__getitem__)):
        vecs, cache, slices = _encode_pack([id_seqs[i] for i in pack], enc, [rows[i] for i in pack])
        del cache  # dropped before the caller reads the vectors
        yield pack, vecs, slices


def _grad_buffers(tensors: dict[str, np.ndarray], workspace: Workspace | None, whole=()):
    """Gradient arrays shaped like ``tensors``: buffers ``grad.<name>`` of
    ``workspace`` (valid until its next use), or new arrays without one.
    All are zeroed but those named in ``whole``, which the caller writes
    whole."""
    grads = {k: scratch(workspace, "grad." + k, v.shape) for k, v in tensors.items()}
    for key, g in grads.items():
        if key not in whole:
            g.fill(0.0)
    return grads


def _head_loss(model: Model, ex: Example, wv: np.ndarray, grads, workspace):
    """One sentence's summed CE and unit count from its word vectors
    ``wv``, and the gradient at ``wv``; the head's gradients accumulate
    into ``grads["heads"]``."""
    if model.method == "word_tagger":
        ce, dlogits = _softmax_ce(tagger_forward(wv, model.heads), ex.tag_ids)
        return ce, len(ex.tag_ids), tagger_backward(wv, model.heads, dlogits, grads["heads"])
    logits, span_cache = span_logits_with_cache(wv, ex.spans, model.heads, workspace)
    ce, dlogits = _softmax_ce(logits, ex.span_classes)
    return ce, len(ex.spans), span_backward(wv, model.heads, dlogits, grads["heads"], span_cache, workspace)


def _pack_loss(model: Model, sentences: Sequence[Example], mode: str, rng, grads, workspace):
    """Each sentence's summed CE and unit count, in order, for one pack of
    ``sentences`` encoded by one pass and backpropagated into ``grads``."""
    drops = [_masks_for(mode, model.encoder.config, ex.ids.size, rng) for ex in sentences]
    wv, cache, slices = _encode_pack(
        [ex.ids for ex in sentences], model.encoder, [ex.align.first_subtoken_index for ex in sentences], drops
    )
    upstream = np.empty_like(wv)
    losses = []
    for ex, sl in zip(sentences, slices):
        ce, units, upstream[sl] = _head_loss(model, ex, wv[sl], grads, workspace)
        losses.append((ce, units))
    encode_backward(model.encoder, upstream, cache, grads["encoder"], workspace)
    return losses


def batch_loss_and_grads(
    model: Model,
    examples: Sequence[Example],
    mode: str = "train",
    rng=None,
    workspace: Workspace | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Mean loss and its gradient for every parameter (prefixed flat dict).

    The batch is encoded in packs of at most ``_PACK_ROWS`` sub-tokens
    taken in batch order (``_packs``), one ``encode_with_cache`` and one
    ``encode_backward`` per pack, each pass running its last layer,
    forward and backward, only at the first sub-tokens of the words, the
    rows both heads read.  In train mode each sentence draws its dropout
    masks from ``rng`` in batch order, as when encoded alone.  The head
    runs per sentence on its slice of the pack's word vectors and writes
    its word-vector gradient into the same slice of the pack's upstream,
    and the CE is summed sentence by sentence in batch order: the loss has
    the bits of per-sentence passes, and the gradients differ from theirs
    only at rounding level.

    With a ``workspace``, the returned gradients are its ``grad.*``
    buffers (valid until the next call with it), and the span head and the
    attention backward take their large temporaries from it too; without
    one they are allocated per call.  Either way the bits are the same.
    """
    grads = {"encoder": _grad_buffers(model.encoder.tensors, workspace),
             "heads": _grad_buffers(model.heads, workspace)}
    total_ce = 0.0
    total_units = 0
    # a pack's cache is freed when its _pack_loss returns, before the next pass
    for pack in _packs([ex.ids.size for ex in examples], range(len(examples))):
        for ce, units in _pack_loss(model, [examples[i] for i in pack], mode, rng, grads, workspace):
            total_ce += ce
            total_units += units
    flat = {f"encoder.{k}": v for k, v in grads["encoder"].items()}
    flat.update({f"heads.{k}": v for k, v in grads["heads"].items()})
    if total_units:
        for v in flat.values():
            v *= 1.0 / total_units
    return (total_ce / total_units if total_units else 0.0), flat


# ---------------------------------------------------------------------------
# Masked language modeling (output projection tied to token embeddings)
# ---------------------------------------------------------------------------


def mlm_mask(ids: np.ndarray, vocab_size: int, mask_id: int, mask_prob: float, rng):
    """Corrupt ceil(mask_prob * n) >= 1 of n > 0 positions: 80% mask, 10% random, 10% kept."""
    if not 0.0 < mask_prob <= 1.0:
        raise ValueError(f"mask_prob must be in (0, 1], got {mask_prob}")
    ids = np.asarray(ids, dtype=np.int64)
    n = ids.size
    if n == 0:
        raise ValueError("cannot mask an empty sentence")
    k = int(np.ceil(mask_prob * n))
    positions = np.sort(rng.choice(n, size=k, replace=False))
    corrupted = ids.copy()
    rolls = rng.random(k)
    randoms = rng.integers(0, vocab_size, size=k)
    masked = rolls < 0.8
    swapped = ~masked & (rolls < 0.9)
    corrupted[positions[masked]] = mask_id
    corrupted[positions[swapped]] = randoms[swapped]
    return corrupted, positions, ids[positions]


def mlm_batch_loss_and_grads(
    enc: EncoderParams,
    batch: Sequence[np.ndarray],
    vocab: BpeVocab,
    mask_prob: float,
    mask_rng,
    mode: str = "train",
    with_grads: bool = True,
    workspace: Workspace | None = None,
    masks: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None,
):
    """Mean masked-position CE and encoder gradients of a non-empty batch.

    With gradients, each sentence draws its ``mlm_mask`` and then, in train
    mode, its ``dropout_masks`` from ``mask_rng``, in sentence order, as
    when each sentence was encoded alone.  The sentences are then encoded,
    in batch order, as one pack at their masked rows (``encode_with_cache``
    with ``rows`` and ``lengths``) and backpropagated from those P rows by
    one ``encode_backward``; the tied projection is one ``[P, V]`` product,
    and its gradient one ``[V, P] @ [P, d]`` product.  Sums over all rows
    at once round differently from accumulating sentence by sentence, so
    the loss and gradients differ from that only at rounding level.  With a
    ``workspace``, the returned gradients are its ``grad.*`` buffers (valid
    until the next call with it), and the logits and the attention
    backward's temporaries come from it too; the bits are the same without.

    Without gradients (eval mode only) every mask is drawn first, in
    sentence order, and the sentences are encoded at their masked rows and
    scored in packs (``_eval_packs``), each pack's logits in the same buffer
    as the step's (of ``workspace``, or of one made for the call); each
    sentence's CE is summed from its own rows, in sentence order, so the
    loss has the same bits as scoring one sentence at a time.  There,
    ``masks`` may give the ``mlm_masks`` of ``batch`` drawn before, and
    ``mask_rng`` is then not drawn from.
    """
    if vocab.mask_id is None:
        raise UnusableDataError("vocabulary has no mask token; cannot run masked language modeling")
    if len(batch) == 0:
        raise ValueError("an MLM batch needs at least one sentence")
    if not with_grads:
        if mode != "eval":
            raise ValueError("an MLM loss without gradients is computed in eval mode only")
        if masks is None:
            masks = mlm_masks(batch, vocab, mask_prob, mask_rng)
        elif len(masks) != len(batch):
            raise ValueError(f"{len(masks)} masks given for {len(batch)} sentences")
        return _mlm_eval_loss(enc, masks, workspace), None
    if masks is not None:
        raise ValueError("precomputed masks are scored without gradients only")
    masks, drops = [], []
    for ids in batch:
        masks.append(mlm_mask(ids, len(vocab), vocab.mask_id, mask_prob, mask_rng))
        drops.append(_masks_for(mode, enc.config, masks[-1][0].size, mask_rng))
    sentences, positions, targets = zip(*masks)
    sel, cache, _slices = _encode_pack(sentences, enc, positions, drops)
    emb = enc.tensors["tok_emb"]
    targets = np.concatenate(targets)
    # the logits, turned in place into their gradient (softmax minus one-hot)
    dlogits, picked, total = _target_log_probs(sel, emb, targets, workspace)
    dlogits /= total
    dlogits[np.arange(targets.size), targets] -= 1.0
    # tok_emb's gradient is written whole by the projection gradient
    grads = _grad_buffers(enc.tensors, workspace, whole=("tok_emb",))
    np.matmul(dlogits.T, sel, out=grads["tok_emb"])
    encode_backward(enc, dlogits @ emb, cache, grads, workspace)
    for v in grads.values():
        v *= 1.0 / targets.size
    return -float(picked.sum()) / targets.size, grads


def mlm_masks(batch: Sequence[np.ndarray], vocab: BpeVocab, mask_prob: float, rng):
    """``mlm_mask`` of every sentence of ``batch``, drawn in sentence order."""
    return [mlm_mask(ids, len(vocab), vocab.mask_id, mask_prob, rng) for ids in batch]


def _mlm_eval_loss(enc: EncoderParams, masked, workspace: Workspace | None) -> float:
    """Mean masked-position CE under the ``mlm_masks`` ``masked``, encoded
    and scored in packs (``_eval_packs``), the logits of every pack in one
    buffer of ``workspace``, or of a new one."""
    if workspace is None:
        workspace = Workspace()
    emb = enc.tensors["tok_emb"]
    ce = [0.0] * len(masked)
    for pack, sel, slices in _eval_packs([m[0] for m in masked], enc, [m[1] for m in masked]):
        targets = np.concatenate([masked[i][2] for i in pack])
        _z, picked, _total = _target_log_probs(sel, emb, targets, workspace)
        for i, sl in zip(pack, slices):
            ce[i] = -float(picked[sl].sum())
    total_ce = 0.0
    for sentence_ce in ce:  # in sentence order, as when scored one at a time
        total_ce += sentence_ce
    return total_ce / sum(m[1].size for m in masked)


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------


def _decode(model: Model, wv: np.ndarray) -> list[ScoredMention]:
    """Scored mentions of one sentence from its word vectors."""
    if model.method == "word_tagger":
        scores = tagger_forward(wv, model.heads)
        win = softmax(scores).max(axis=1)
        return [
            ScoredMention(
                start_word=m.start_word,
                end_word=m.end_word,
                label=m.label,
                score=float(win[m.start_word : m.end_word + 1].mean()),
            )
            for m in tags_to_mentions(scores.argmax(axis=1), model.labels.types)
        ]
    spans = enumerate_spans(wv.shape[0], model.head_cfg.max_span_width)
    return span_decode(span_forward(wv, spans, model.heads, model.labels.types))


def predict_sentence(model: Model, words: Sequence[str], vocab: BpeVocab) -> list[ScoredMention]:
    check_vocab_size(model.encoder.config, len(vocab), "model")
    align = subtokenize(words, vocab)
    wv, _ = encode_with_cache(align.sub_token_ids, model.encoder, rows=[align.first_subtoken_index])
    return _decode(model, wv)


def predict_documents(model: Model, docs: Sequence[Document], vocab: BpeVocab) -> list[Document]:
    """Copies of ``docs`` whose mentions are the model's scored predictions.

    Every sentence is decoded as by ``predict_sentence``, but sentences are
    encoded in packs (``_eval_packs``).  A vocabulary of another size than
    the model's is refused first, and a corpus without a sentence or with
    one too long for the encoder before the first pass (``check_sentences``).
    """
    check_vocab_size(model.encoder.config, len(vocab), "model")
    aligns = [subtokenize(sent.words, vocab) for doc in docs for sent in doc.sentences]
    ids = [align.sub_token_ids for align in aligns]
    check_sentences(model.encoder.config, docs, ids, "corpus")
    firsts = [align.first_subtoken_index for align in aligns]
    found: list[list[ScoredMention]] = [[] for _ in aligns]
    for pack, wv, slices in _eval_packs(ids, model.encoder, firsts):
        for i, sl in zip(pack, slices):
            found[i] = _decode(model, wv[sl])
    found_iter = iter(found)
    return [
        replace(doc, sentences=[replace(sent, mentions=next(found_iter)) for sent in doc.sentences])
        for doc in docs
    ]


# ---------------------------------------------------------------------------
# Whole-model checkpoints
# ---------------------------------------------------------------------------


def save_model(path: str | Path, model: Model) -> None:
    config = {
        "kind": "model",
        "method": model.method,
        "labels": list(model.labels.types),
        "encoder": asdict(model.encoder.config),
        "heads": asdict(model.head_cfg),
    }
    save_checkpoint(path, config, model_tensors(model))


def load_model(path: str | Path) -> Model:
    labels = head_cfg = None

    def head_tensor_shapes(config: dict, enc_cfg: EncoderConfig) -> dict[str, tuple[int, ...]]:
        nonlocal labels, head_cfg
        types = config.get("labels")
        if not isinstance(types, list) or not all(isinstance(t, str) for t in types):
            raise FormatError('"labels" must be a list of strings', path=str(path))
        if types != sorted(set(types)):  # class i + 1 is the i-th type of the trained inventory
            raise FormatError('"labels" must be sorted and distinct', path=str(path))
        labels = LabelInventory.from_types(types)
        head_cfg = dataclass_from_dict(HeadConfig, config.get("heads"), f"{path} heads config")
        prefix = head_prefix(config.get("method"))
        both = head_shapes(enc_cfg.hidden_dim, head_cfg, len(labels))
        return {f"heads.{k}": s for k, s in both.items() if k.startswith(prefix)}

    config, encoder, tensors = load_encoder_snapshot(path, "model", "encoder.", head_tensor_shapes)
    heads = {k.removeprefix("heads."): v for k, v in tensors.items() if k.startswith("heads.")}
    return Model(config["method"], labels, encoder, head_cfg, heads)
