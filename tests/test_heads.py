from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualner.corpus import LabelInventory, Mention, ScoredMention
from dualner.encoder import Workspace
from dualner.heads import (
    HeadConfig,
    enumerate_spans,
    init_head_params,
    mentions_to_tags,
    span_decode,
    softmax,
    span_forward,
    span_backward,
    span_logits_with_cache,
    tagger_backward,
    tagger_forward,
    tags_to_mentions,
)

from .oracles import (
    central_difference,
    enumerate_spans_reference,
    gradient_agreement,
    mentions_to_tags_reference,
    random_flat_mentions,
    span_backward_allocating_reference,
    span_head_reference,
    span_logits_allocating_reference,
    span_representations,
    tag_strings,
    tags_to_mentions_reference,
)

INV = LabelInventory.from_types(["ComputingFacility", "Instrument"])
TYPES = INV.types
CFG = HeadConfig(max_span_width=4, span_len_dim=6, span_hidden=10)


def _params(hidden_dim=8, cfg=CFG, seed=1, scale=None):
    params = init_head_params(hidden_dim, cfg, len(INV), seed=seed)
    if scale is not None:
        rng = np.random.default_rng(seed + 100)
        for arr in params.values():
            if arr.ndim >= 2:
                arr[...] = rng.normal(0.0, scale, size=arr.shape)
    return params


def _tags(scores):
    """Argmax tags of tagger scores, as strings; ties go to the lowest tag id."""
    return [tag_strings(TYPES)[i] for i in scores.argmax(axis=1)]


# ---------------------------------------------------------------------------
# Tagger
# ---------------------------------------------------------------------------


def test_tag_set_order():
    """Tag id 0 is O, then a B-/I- pair per sorted type: the tagger's classes."""
    mentions = [Mention(0, 1, "ComputingFacility"), Mention(2, 3, "Instrument")]
    assert mentions_to_tags(mentions, 5, TYPES).tolist() == [1, 2, 3, 4, 0]
    assert tag_strings(TYPES) == (
        "O",
        "B-ComputingFacility",
        "I-ComputingFacility",
        "B-Instrument",
        "I-Instrument",
    )


def test_tagger_zero_weights_tie_break_to_O():
    params = _params()
    for arr in params.values():
        arr[...] = 0.0
    scores = tagger_forward(np.random.default_rng(0).normal(size=(5, 8)), params)
    assert _tags(scores) == ["O"] * 5
    assert np.all(scores == 0.0)


def test_tagger_deterministic_and_shape_checked():
    params = _params(scale=0.3)
    vecs = np.random.default_rng(1).normal(size=(4, 8))
    a = tagger_forward(vecs, params)
    b = tagger_forward(vecs, params)
    assert a.shape == (4, 1 + 2 * len(TYPES)) and np.array_equal(a, b)
    with pytest.raises(ValueError):
        tagger_forward(np.zeros((4, 7)), params)


WIDTH_CHECKED_HEADS = {
    "tagger": tagger_forward,
    "span": lambda vecs, params: span_forward(vecs, enumerate_spans(vecs.shape[0], 3), params, TYPES),
}


@pytest.mark.parametrize("head", sorted(WIDTH_CHECKED_HEADS))
@pytest.mark.parametrize("shape", [(4, 7), (4, 9)])
def test_heads_refuse_word_vectors_of_the_wrong_width(head, shape):
    """Each head reads the hidden size off its own tensors and names it."""
    params = _params(hidden_dim=8)
    with pytest.raises(ValueError) as err:
        WIDTH_CHECKED_HEADS[head](np.zeros(shape), params)
    assert str(err.value) == f"word vectors must be [n_words, 8], got {shape}"


def test_tagger_argmax_prefers_highest_scoring_tag():
    # steer one word's score towards B-ComputingFacility via a crafted weight
    params = _params()
    for arr in params.values():
        arr[...] = 0.0
    params["tagger.w"][2, 1] = 5.0  # feature 2 -> tag index 1 (B-ComputingFacility)
    vecs = np.zeros((3, 8))
    vecs[1, 2] = 1.0  # the "COSMOS" word carries feature 2
    assert _tags(tagger_forward(vecs, params)) == ["O", "B-ComputingFacility", "O"]


def test_tagger_argmax_invariant_under_constant_shift():
    params = _params(scale=0.4)
    vecs = np.random.default_rng(3).normal(size=(6, 8))
    base = _tags(tagger_forward(vecs, params))
    params["tagger.b"][...] += 7.5
    assert _tags(tagger_forward(vecs, params)) == base


def test_tagger_gradients():
    params = _params(scale=0.3)
    vecs = np.random.default_rng(4).normal(size=(5, 8))
    targets = np.array([0, 1, 2, 3, 4])

    def loss():
        scores = tagger_forward(vecs, params)
        z = scores - scores.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        return -float(logp[np.arange(5), targets].sum())

    scores = tagger_forward(vecs, params)
    z = scores - scores.max(axis=1, keepdims=True)
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    dscores = probs.copy()
    dscores[np.arange(5), targets] -= 1.0
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    d_vecs = tagger_backward(vecs, params, dscores, grads)
    rng = np.random.default_rng(5)
    worst = 0.0
    for key in ("tagger.w", "tagger.b"):
        arr = params[key]
        for _ in range(6):
            idx = int(rng.integers(0, arr.size))
            numeric = central_difference(loss, arr, idx, step=1e-6)
            worst = max(worst, gradient_agreement(grads[key].flat[idx], numeric))
    for _ in range(6):
        idx = int(rng.integers(0, vecs.size))
        numeric = central_difference(loss, vecs, idx, step=1e-6)
        worst = max(worst, gradient_agreement(d_vecs.flat[idx], numeric))
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# BIO codec
# ---------------------------------------------------------------------------


XY = ("X", "Y")  # X: B- 1, I- 2; Y: B- 3, I- 4


def test_tags_to_mentions_basic():
    assert tags_to_mentions(np.array([1, 2, 0]), XY) == [Mention(0, 1, "X")]
    assert tags_to_mentions(np.array([0, 0, 0]), XY) == []
    assert tags_to_mentions(np.zeros(0, dtype=np.int64), XY) == []


def test_tags_to_mentions_repair_policy():
    got = tags_to_mentions(np.array([2, 2, 3, 2]), XY)  # I-X I-X B-Y I-X
    assert got == [Mention(0, 1, "X"), Mention(2, 2, "Y"), Mention(3, 3, "X")]


def test_tags_to_mentions_rejects_out_of_range_ids():
    for bad in (5, -1):
        with pytest.raises(ValueError, match=f"tag id {bad} "):
            tags_to_mentions(np.array([1, bad]), XY)


def test_mentions_to_tags_basic():
    tags = mentions_to_tags([], 3, XY)
    assert tags.dtype == np.int64 and tags.tolist() == [0, 0, 0]
    assert mentions_to_tags([Mention(1, 2, "X")], 4, XY).tolist() == [0, 1, 2, 0]
    assert mentions_to_tags([Mention(0, 0, "Y"), Mention(2, 3, "Y")], 4, XY).tolist() == [3, 0, 3, 4]


def test_mentions_to_tags_rejects_overlap_and_bounds():
    with pytest.raises(ValueError):
        mentions_to_tags([Mention(0, 1, "X"), Mention(1, 2, "X")], 4, XY)
    with pytest.raises(ValueError):
        mentions_to_tags([Mention(2, 5, "X")], 4, XY)


def test_mentions_to_tags_rejects_an_unknown_label():
    with pytest.raises(ValueError, match="'Ghost'"):
        mentions_to_tags([Mention(0, 1, "X"), Mention(2, 2, "Ghost")], 4, XY)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_bio_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    n_words = int(rng.integers(1, 41))
    mentions = random_flat_mentions(rng, n_words, TYPES)
    assert tags_to_mentions(mentions_to_tags(mentions, n_words, TYPES), TYPES) == mentions


GHOST_TYPES = (*TYPES, "Ghost")


@given(st.lists(st.integers(0, 2 * len(GHOST_TYPES)), min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_bio_decode_total_and_fixpoint(tags):
    mentions = tags_to_mentions(np.array(tags), GHOST_TYPES)
    starts = [m.start_word for m in mentions]
    assert starts == sorted(starts)
    for a, b in zip(mentions, mentions[1:]):
        assert a.end_word < b.start_word  # non-overlapping, nest-free
    reencoded = mentions_to_tags(mentions, len(tags), GHOST_TYPES)
    assert tags_to_mentions(reencoded, GHOST_TYPES) == mentions


def test_bio_codec_matches_the_string_codec():
    """On random id sequences, empty ones included, decoding equals the
    string codec's decoding of the same tags, encoding its mentions back
    gives the string codec's tags, and the round trip holds."""
    rng = np.random.default_rng(7)
    names = tag_strings(GHOST_TYPES)
    for _ in range(2000):
        n = int(rng.integers(0, 25))
        tags = rng.integers(0, len(names), size=n)
        mentions = tags_to_mentions(tags, GHOST_TYPES)
        assert mentions == tags_to_mentions_reference([names[t] for t in tags])
        reencoded = mentions_to_tags(mentions, n, GHOST_TYPES)
        assert [names[t] for t in reencoded] == mentions_to_tags_reference(mentions, n)
        assert tags_to_mentions(reencoded, GHOST_TYPES) == mentions


# ---------------------------------------------------------------------------
# Span enumeration and representation
# ---------------------------------------------------------------------------


def test_enumerate_single_word():
    assert enumerate_spans(1, 5).tolist() == [[0, 0]]


def test_enumerate_matches_reference_listing():
    """Width caps both below and above the sentence length."""
    for n in range(1, 61):
        for w in range(1, 16):
            spans, listing = enumerate_spans(n, w), enumerate_spans_reference(n, w)
            assert spans.dtype == np.int64 and spans.shape == (len(listing), 2), (n, w)
            assert list(map(tuple, spans.tolist())) == listing, (n, w)


def test_enumerate_counts():
    assert len(enumerate_spans(3, 2)) == 5
    assert len(enumerate_spans(5, 5)) == 15


def test_enumerate_sorted_and_capped():
    spans = enumerate_spans(4, 2).tolist()
    assert spans == sorted(spans)
    assert max(e - s + 1 for s, e in spans) == 2


@given(st.integers(1, 50), st.integers(1, 50))
@settings(max_examples=300, deadline=None)
def test_enumerate_count_formula(n, w):
    count = len(enumerate_spans(n, w))
    if w <= n:
        assert count == n * w - w * (w - 1) // 2
    else:
        assert count == n * (n + 1) // 2


def test_span_representation_contents():
    params = _params()
    vecs = np.random.default_rng(7).normal(size=(6, 8))
    rep = span_representations(vecs, [(1, 3)], params)[0]
    assert rep.shape == (2 * 8 + CFG.span_len_dim,)
    assert np.array_equal(rep[:8], vecs[1])
    assert np.array_equal(rep[8:16], vecs[3])
    assert np.array_equal(rep[16:], params["span.len_emb"][2])  # length 3


def test_span_representation_single_word_duplicates_boundary():
    params = _params()
    vecs = np.random.default_rng(8).normal(size=(3, 8))
    rep = span_representations(vecs, [(2, 2)], params)[0]
    assert np.array_equal(rep[:8], rep[8:16])
    assert np.array_equal(rep[16:], params["span.len_emb"][0])


def test_span_representation_output_length_desk_dims():
    params = init_head_params(64, HeadConfig(max_span_width=12, span_len_dim=16), len(INV))
    vecs = np.zeros((6, 64))
    assert span_representations(vecs, [(0, 5)], params)[0].shape == (144,)


def test_span_representation_rejects_wide_or_oob_spans():
    params = _params()
    vecs = np.zeros((8, 8))
    with pytest.raises(ValueError, match=r"span \(0,4\) wider than max_span_width=4"):
        span_logits_with_cache(vecs, np.array([(1, 2), (0, 4)]), params)  # width 5 > 4
    with pytest.raises(ValueError, match=r"span \(5,9\) out of bounds for 8 words"):
        span_logits_with_cache(vecs, np.array([(5, 9)]), params)
    with pytest.raises(ValueError, match=r"span \(3,2\) out of bounds"):
        span_logits_with_cache(vecs, np.array([(0, 1), (3, 2), (0, 7)]), params)  # first offender named
    malformed = [
        (np.array([(0.0, 1.0)]), r"got float64 \(1, 2\)"),
        (np.array([0, 1]), r"got int64 \(2,\)"),
        (np.array([(0, 1, 2)]), r"got int64 \(1, 3\)"),
        (np.array([(0, 1)], dtype=np.uint8), r"got uint8 \(1, 2\)"),
        ([(0, 1)], r"got list"),
    ]
    for spans, got in malformed:
        with pytest.raises(ValueError, match=r"spans must be an \[m, 2\] signed integer array, " + got):
            span_logits_with_cache(vecs, spans, params)


@pytest.mark.parametrize("kind", ["enumerated", "shuffled_with_duplicates"])
def test_span_head_matches_concatenated_reference(kind):
    """The endpoint-factored head computes gelu([h_s; h_e; len] @ w1 + b1) @ w2 + b2."""
    params = init_head_params(64, HeadConfig(max_span_width=12, span_len_dim=16), len(INV), seed=4)
    rng = np.random.default_rng(22)
    for arr in params.values():
        arr[...] = rng.normal(0.0, 0.3, size=arr.shape)
    vecs = rng.normal(size=(48, 64))
    spans = enumerate_spans(48, 12)
    if kind == "shuffled_with_duplicates":
        spans = spans[rng.integers(0, len(spans), size=700)]
    d_logits = rng.normal(size=(len(spans), len(TYPES) + 1))
    ref_logits, ref_grads, ref_d_vecs = span_head_reference(vecs, spans, params, d_logits)
    logits, cache = span_logits_with_cache(vecs, spans, params)
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    d_vecs = span_backward(vecs, params, d_logits, grads, cache=cache)
    pairs = [("logits", logits, ref_logits), ("word vectors", d_vecs, ref_d_vecs)]
    pairs += [(k, grads[k], ref_grads[k]) for k in sorted(ref_grads)]
    for name, got, ref in pairs:
        assert got.shape == ref.shape, name
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), name


def test_span_head_workspace_matches_fresh_and_allocating_reference():
    """One workspace reused over long, short, long sentences gives the bits
    of fresh arrays and of the allocating kernels, and reuses its memory."""
    params = init_head_params(64, HeadConfig(max_span_width=12, span_len_dim=16), len(INV), seed=4)
    rng = np.random.default_rng(23)
    for arr in params.values():
        arr[...] = rng.normal(0.0, 0.3, size=arr.shape)
    ws = Workspace()
    caches = []
    for n_words in (48, 5, 40):
        vecs = rng.normal(size=(n_words, 64))
        spans = enumerate_spans(n_words, 12)
        d_logits = rng.normal(size=(len(spans), len(TYPES) + 1))
        results = []
        for run in ("workspace", "fresh", "reference"):
            grads = {k: np.zeros_like(v) for k, v in params.items()}
            if run == "reference":
                logits, cache = span_logits_allocating_reference(vecs, spans, params)
                d_vecs = span_backward_allocating_reference(vecs, params, d_logits, grads, cache)
            else:
                workspace = ws if run == "workspace" else None
                logits, cache = span_logits_with_cache(vecs, spans, params, workspace)
                d_vecs = span_backward(vecs, params, d_logits, grads, cache, workspace)
            results.append((logits, d_vecs, grads, cache))
            if run == "workspace":
                caches.append(cache)
        (logits, d_vecs, grads, cache), *others = results
        for other_logits, other_d_vecs, other_grads, other_cache in others:
            assert np.array_equal(logits, other_logits)
            assert np.array_equal(d_vecs, other_d_vecs)
            assert all(np.array_equal(grads[k], other_grads[k]) for k in grads)
            assert all(np.array_equal(c, o) for c, o in zip(cache, other_cache))
    # u, cdf and h of the third sentence sit in the first sentence's buffers
    assert all(np.shares_memory(a, b) for a, b in zip(caches[0][3:], caches[2][3:]))


# ---------------------------------------------------------------------------
# Span classifier
# ---------------------------------------------------------------------------


def test_span_forward_zero_weights_predicts_none():
    params = _params()
    for arr in params.values():
        arr[...] = 0.0
    vecs = np.random.default_rng(9).normal(size=(4, 8))
    spans = enumerate_spans(4, 3)
    assert span_forward(vecs, spans, params, TYPES) == []
    logits, _ = span_logits_with_cache(vecs, spans, params)
    assert logits.shape == (len(spans), 3)
    assert np.array_equal(softmax(logits), np.full((len(spans), 3), 1.0 / 3.0))


def test_span_forward_returns_typed_argmax_winners():
    params = _params(scale=0.6)
    vecs = np.random.default_rng(15).normal(size=(7, 8))
    spans = enumerate_spans(7, 4)
    logits, _ = span_logits_with_cache(vecs, spans, params)
    probs = softmax(logits)
    winners = [i for i in range(len(spans)) if probs[i].argmax() != 0]
    assert 0 < len(winners) < len(spans)
    got = span_forward(vecs, spans, params, TYPES)
    assert [[c.start_word, c.end_word] for c in got] == spans[winners].tolist()
    for c, i in zip(got, winners):
        assert type(c.start_word) is int and type(c.end_word) is int
        assert c.label == TYPES[probs[i].argmax() - 1]
        assert isinstance(c, ScoredMention) and c.score == probs[i].max()


def test_span_forward_deterministic():
    params = _params(scale=0.4)
    vecs = np.random.default_rng(10).normal(size=(5, 8))
    spans = enumerate_spans(5, 4)
    a = span_forward(vecs, spans, params, TYPES)
    b = span_forward(vecs, spans, params, TYPES)
    assert [(c.start_word, c.end_word, c.label, c.score) for c in a] == [
        (c.start_word, c.end_word, c.label, c.score) for c in b
    ]


def test_span_forward_argmax_shift_invariant():
    params = _params(scale=0.4)
    vecs = np.random.default_rng(11).normal(size=(5, 8))
    spans = enumerate_spans(5, 4)
    base = [c.label for c in span_forward(vecs, spans, params, TYPES)]
    params["span.b2"][...] += 3.25
    assert [c.label for c in span_forward(vecs, spans, params, TYPES)] == base


def test_span_gradients():
    params = _params(scale=0.3)
    vecs = np.random.default_rng(12).normal(size=(5, 8))
    spans = enumerate_spans(5, 4)
    targets = np.random.default_rng(13).integers(0, 3, size=len(spans))

    def loss():
        logits, _ = span_logits_with_cache(vecs, spans, params)
        z = logits - logits.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        return -float(logp[np.arange(len(spans)), targets].sum())

    logits, cache = span_logits_with_cache(vecs, spans, params)
    z = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    dlogits = probs.copy()
    dlogits[np.arange(len(spans)), targets] -= 1.0
    grads = {k: np.zeros_like(v) for k, v in params.items()}
    d_vecs = span_backward(vecs, params, dlogits, grads, cache=cache)
    rng = np.random.default_rng(14)
    worst = 0.0
    for key in sorted(grads):
        arr = params[key]
        for _ in range(5):
            idx = int(rng.integers(0, arr.size))
            numeric = central_difference(loss, arr, idx, step=1e-6)
            worst = max(worst, gradient_agreement(grads[key].flat[idx], numeric))
    for _ in range(8):
        idx = int(rng.integers(0, vecs.size))
        numeric = central_difference(loss, vecs, idx, step=1e-6)
        worst = max(worst, gradient_agreement(d_vecs.flat[idx], numeric))
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# Span decoding
# ---------------------------------------------------------------------------


def _cand(start, end, label, score):
    return ScoredMention(start_word=start, end_word=end, label=label, score=score)


def test_span_decode_keeps_disjoint():
    got = span_decode([_cand(0, 1, "A", 0.7), _cand(3, 4, "B", 0.6)])
    assert [(m.start_word, m.end_word, m.label) for m in got] == [(0, 1, "A"), (3, 4, "B")]


def test_span_decode_greedy_overlap_resolution():
    got = span_decode([_cand(0, 3, "A", 0.9), _cand(2, 5, "A", 0.8)])
    assert [(m.start_word, m.end_word) for m in got] == [(0, 3)]


def test_span_decode_retains_nesting():
    got = span_decode([_cand(0, 5, "A", 0.9), _cand(1, 3, "B", 0.8)])
    assert [(m.start_word, m.end_word) for m in got] == [(0, 5), (1, 3)]


def test_span_decode_tie_break_earlier_then_shorter():
    got = span_decode([_cand(2, 6, "A", 0.5), _cand(2, 4, "A", 0.5), _cand(0, 3, "A", 0.5)])
    # ties: earlier start wins, then shorter; (0,3) kept, (2,4)/(2,6) conflict
    assert [(m.start_word, m.end_word) for m in got] == [(0, 3)]


def test_span_decode_output_mentions_carry_scores():
    got = span_decode([_cand(1, 2, "A", 0.75)])
    assert got[0].score == 0.75


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_span_decode_invariants(seed):
    rng = np.random.default_rng(seed)
    cands = []
    for _ in range(int(rng.integers(0, 12))):
        start = int(rng.integers(0, 15))
        end = start + int(rng.integers(0, 4))
        label = ("A", "B")[int(rng.integers(0, 2))]
        cands.append(_cand(start, end, label, float(rng.random())))
    out = span_decode(cands)
    typed_spans = {(c.start_word, c.end_word, c.label) for c in cands}
    for m in out:
        assert (m.start_word, m.end_word, m.label) in typed_spans
    for a in out:
        for b in out:
            if a is b:
                continue
            overlap = a.start_word <= b.end_word and b.start_word <= a.end_word
            contains = (
                a.start_word <= b.start_word
                and b.end_word <= a.end_word
                and (a.start_word, a.end_word) != (b.start_word, b.end_word)
            )
            contained = (
                b.start_word <= a.start_word
                and a.end_word <= b.end_word
                and (a.start_word, a.end_word) != (b.start_word, b.end_word)
            )
            assert not overlap or contains or contained
