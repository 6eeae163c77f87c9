from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from dualner.corpus import dataclass_from_dict
from dualner.encoder import (
    EncoderConfig,
    Workspace,
    dropout_masks,
    encode_backward,
    encode_with_cache,
    gelu,
    gelu_grad,
    init_params,
    load_checkpoint,
    save_checkpoint,
    zero_grads,
)
from dualner.errors import SentenceTooLongError
from dualner.subtok import SubTokenization

from .oracles import (
    attention_backward_reference,
    attention_forward_reference,
    central_difference,
    gradient_agreement,
    layer_norm_backward_reference,
    layer_norm_forward_reference,
    word_vectors,
    word_vectors_backward,
)

TINY = EncoderConfig(
    vocab_size=30, max_positions=16, hidden_dim=8, n_layers=1, n_heads=2, ffn_dim=12, init_seed=3
)


def _scaled_params(cfg, scale=0.25, seed=9):
    """Init with healthy weight magnitudes so gradients clear roundoff noise."""
    params = init_params(cfg)
    rng = np.random.default_rng(seed)
    for key, arr in params.tensors.items():
        if arr.ndim >= 2:
            arr[...] = rng.normal(0.0, scale, size=arr.shape)
    return params


def test_gelu_matches_closed_form_and_finite_difference():
    x = np.concatenate((np.linspace(-6.0, 6.0, 241), [0.0, -1e-8, 3e-7]))
    value, cdf = gelu(x)
    grad = gelu_grad(x, cdf)
    phi = np.array([0.5 * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x])
    density = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    assert np.allclose(cdf, phi, rtol=1e-15, atol=1e-16)
    assert np.allclose(value, x * phi, rtol=1e-15, atol=1e-16)
    assert np.allclose(grad, phi + x * density, rtol=1e-14, atol=1e-16)
    h = 1e-6
    numeric = (gelu(x + h)[0] - gelu(x - h)[0]) / (2.0 * h)
    assert np.abs(grad - numeric).max() < 1e-8


def test_init_deterministic():
    a = init_params(TINY)
    b = init_params(TINY)
    for key in a.tensors:
        assert np.array_equal(a.tensors[key], b.tensors[key])


def test_init_validates_divisibility():
    with pytest.raises(ValueError):
        init_params(EncoderConfig(vocab_size=10, hidden_dim=8, n_heads=3))


def test_init_shapes():
    params = init_params(EncoderConfig(vocab_size=50, hidden_dim=16, n_heads=2))
    assert params.tensors["tok_emb"].shape == (50, 16)
    assert params.tensors["pos_emb"].shape == (512, 16)


def test_init_trunc_normal_bounded():
    params = init_params(TINY)
    assert np.abs(params.tensors["tok_emb"]).max() <= 0.04
    assert np.all(params.tensors["layers.0.ln1.g"] == 1.0)
    assert np.all(params.tensors["layers.0.attn.bq"] == 0.0)


def test_encode_shapes_and_determinism():
    params = init_params(TINY)
    out = encode_with_cache(np.array([4]), params)[0]
    assert out.shape == (1, 8)
    ids = np.array([1, 2, 3, 2])
    again = encode_with_cache(ids, params)[0]
    assert np.array_equal(encode_with_cache(ids, params)[0], again)


def test_encode_rejects_bad_input():
    params = init_params(TINY)
    with pytest.raises(SentenceTooLongError, match="17 sub-tokens exceeds max_positions=16$"):
        encode_with_cache(np.arange(17) % 4, params)
    with pytest.raises(ValueError):
        encode_with_cache(np.array([31]), params)
    with pytest.raises(ValueError):
        encode_with_cache(np.array([], dtype=int), params)


STACKED = dataclasses.replace(TINY, n_layers=2)


@pytest.mark.parametrize("n", [1, 5, STACKED.max_positions])
@pytest.mark.parametrize("batch", [1, 3, 7])
def test_stacked_encode_equals_per_sentence(batch, n):
    """A pack of ``batch`` sentences of ``n`` sub-tokens, one run, gives
    each sentence the vectors of its own pass: bit for bit, except one-sub-
    token sentences packed together, whose own passes take BLAS's one-row
    path."""
    params = _scaled_params(STACKED)
    ids = np.random.default_rng(100 * batch + n).integers(0, STACKED.vocab_size, size=(batch, n))
    packed = encode_with_cache(ids.reshape(-1), params, lengths=[n] * batch)[0]
    assert packed.shape == (batch * n, STACKED.hidden_dim)
    for row_ids, rows in zip(ids, packed.reshape(batch, n, -1)):
        if n >= 2 or batch == 1:
            assert np.array_equal(rows, encode_with_cache(row_ids, params)[0])
        else:
            np.testing.assert_allclose(rows, encode_with_cache(row_ids, params)[0], rtol=1e-12, atol=1e-14)


def test_stacked_encode_rejects_bad_input():
    """Ids are one flat sequence: a ``[B, n]`` stack is refused, packed or not."""
    params = init_params(STACKED)
    for ids, lengths in ((np.ones((3, 4), dtype=int), None), (np.ones((2, 5), dtype=int), [5, 5]),
                         (np.ones((1, 1), dtype=int), [1]), (np.ones((2, 0), dtype=int), None)):
        with pytest.raises(ValueError, match="1-D id sequence"):
            encode_with_cache(ids, params, lengths=lengths)
    for bad_id in (STACKED.vocab_size, -1):
        ids = np.ones(8, dtype=int)
        ids[6] = bad_id
        with pytest.raises(ValueError, match="out of range"):
            encode_with_cache(ids, params, lengths=[4, 4])


def _row_choices(n, rng):
    """One row, two rows, every row and a list with repeats."""
    return [np.array([n - 1]), np.array([0, n // 2]), np.arange(n), rng.integers(0, n, size=n + 3)]


def test_rows_equal_full_pass_rows():
    rng = np.random.default_rng(11)
    for n_layers in (0, 2):
        params = _scaled_params(dataclasses.replace(STACKED, n_layers=n_layers))
        for n in (1, 2, 5, STACKED.max_positions):
            ids = rng.integers(0, STACKED.vocab_size, size=n)
            full = encode_with_cache(ids, params)[0]
            for rows in _row_choices(n, rng):
                out = encode_with_cache(ids, params, rows=[rows])[0]
                assert out.shape == (rows.size, STACKED.hidden_dim)
                assert np.array_equal(out, full[rows]), (n_layers, n, rows)


def _assert_grads_close(got, want):
    """Equal to 1e-12 relative, with an absolute floor of 1e-15 times the
    largest gradient for entries near 0, whose values are mostly rounding."""
    assert got.keys() == want.keys()
    floor = 1e-15 * max(np.abs(g).max() for g in want.values())
    for key in want:
        np.testing.assert_allclose(got[key], want[key], rtol=1e-12, atol=floor, err_msg=key)


def test_rows_backward_matches_full_backward():
    """The gradients of a rows cache are those of the full cache with the
    rows' upstream scattered into zeros (a repeated row's upstream summed):
    one row (computed twice), a one-sub-token sentence, no layers, repeats."""
    rng = np.random.default_rng(13)
    for n_layers in (0, 1, 2):
        params = _scaled_params(dataclasses.replace(STACKED, n_layers=n_layers))
        for n in (1, 2, 5, STACKED.max_positions):
            ids = rng.integers(0, STACKED.vocab_size, size=n)
            full, full_cache = encode_with_cache(ids, params)
            for rows in _row_choices(n, rng):
                out, cache = encode_with_cache(ids, params, rows=[rows])
                upstream = rng.normal(size=out.shape)
                scattered = np.zeros_like(full)
                np.add.at(scattered, rows, upstream)
                ws = Workspace()
                got = encode_backward(params, upstream, cache, workspace=ws)
                want = encode_backward(params, scattered, full_cache)
                _assert_grads_close(got, want)
                again = encode_backward(params, upstream, cache)
                assert all(np.array_equal(got[k], again[k]) for k in got)


def test_rows_keep_the_dropout_stream():
    """A rows pass takes the full pass's dropout masks, drawn at the full
    shape, and applies its last layer's at the rows: the rows' vectors are
    the full pass's, and the gradients agree."""
    cfg = dataclasses.replace(STACKED, dropout_rate=0.2)
    params = _scaled_params(cfg)
    rng = np.random.default_rng(14)
    for n in (1, 5, cfg.max_positions):
        ids = rng.integers(0, cfg.vocab_size, size=n)
        rows = np.sort(rng.choice(n, size=max(1, n // 2), replace=False))
        masks = dropout_masks(cfg, n, np.random.default_rng(3))
        full, full_cache = encode_with_cache(ids, params, dropout_masks=masks)
        out, cache = encode_with_cache(ids, params, rows=[rows], dropout_masks=masks)
        assert not np.array_equal(full, encode_with_cache(ids, params)[0])
        assert np.array_equal(out, full[rows])
        upstream = rng.normal(size=out.shape)
        scattered = np.zeros_like(full)
        scattered[rows] = upstream
        _assert_grads_close(encode_backward(params, upstream, cache),
                            encode_backward(params, scattered, full_cache))


def _packed_rows_cases(rng):
    """(lengths, rows) packs: a run of four sentences whose row counts
    differ, runs of short sentences that read one row each, and mixed
    lengths with repeated rows; and a one-sub-token sentence alone."""
    mixed = [5, 5, 3, STACKED.max_positions, 2, 5]
    return [
        ([5] * 4, [np.sort(rng.choice(5, size=k, replace=False)) for k in (1, 3, 5, 2)]),
        ([3, 3, 2, 2, 2, 4], [np.array([n - 1]) for n in (3, 3, 2, 2, 2, 4)]),
        (mixed, [rng.integers(0, n, size=int(rng.integers(1, n + 2))) for n in mixed]),
        ([1], [np.array([0])]),
    ]


def test_stacked_rows_equal_full_pass_rows():
    """Packed rows are the same rows of per-sentence full passes, bit for
    bit, concatenated in sentence order."""
    rng = np.random.default_rng(12)
    for n_layers in (0, 2):
        params = _scaled_params(dataclasses.replace(STACKED, n_layers=n_layers))
        for lengths, rows in _packed_rows_cases(rng):
            sentences = [rng.integers(0, STACKED.vocab_size, size=n) for n in lengths]
            out = encode_with_cache(np.concatenate(sentences), params, rows=rows, lengths=lengths)[0]
            want = np.concatenate([encode_with_cache(ids, params)[0][r] for ids, r in zip(sentences, rows)])
            assert out.shape == want.shape
            assert np.array_equal(out, want), (n_layers, lengths)


def test_packed_rows_backward_matches_per_sentence_rows_backward():
    """The backward of a packed rows cache gives the summed gradients of
    the sentences' own rows caches, up to rounding, with and without
    dropout."""
    rng = np.random.default_rng(16)
    for n_layers, rate in ((0, 0.0), (1, 0.0), (2, 0.0), (2, 0.2)):
        cfg = dataclasses.replace(STACKED, n_layers=n_layers, dropout_rate=rate)
        params = _scaled_params(cfg)
        for lengths, rows in _packed_rows_cases(rng):
            sentences = [rng.integers(0, cfg.vocab_size, size=n) for n in lengths]
            masks = [dropout_masks(cfg, n, rng) for n in lengths]
            packed_masks = None if rate == 0 else [np.concatenate(m) for m in zip(*masks)]
            out, cache = encode_with_cache(np.concatenate(sentences), params, rows=rows, lengths=lengths,
                                           dropout_masks=packed_masks)
            upstream = rng.normal(size=out.shape)
            want = zero_grads(params)
            start = 0
            for ids, r, sent_masks in zip(sentences, rows, masks):
                _out, alone = encode_with_cache(ids, params, rows=[r], dropout_masks=sent_masks)
                encode_backward(params, upstream[start : start + r.size], alone, want)
                start += r.size
            _assert_grads_close(encode_backward(params, upstream, cache, workspace=Workspace()), want)


def test_rows_reject_bad_input():
    params = init_params(STACKED)
    ids = np.ones(10, dtype=int)
    for rows in ([[0]], [[0], [1], [2]]):
        with pytest.raises(ValueError, match="row lists given for 2 sentences"):
            encode_with_cache(ids, params, rows=rows, lengths=[5, 5])
    for rows in ([0, 1], [[0], []], [[0], [[1, 2]]]):
        with pytest.raises(ValueError, match="not a non-empty 1-D array"):
            encode_with_cache(ids, params, rows=rows, lengths=[5, 5])
    for bad in (5, -1):  # 5 is in the pack but not in the first sentence
        with pytest.raises(ValueError, match="out of range for a sentence of 5"):
            encode_with_cache(ids, params, rows=[[0, bad], [1, 2]], lengths=[5, 5])
    _out, cache = encode_with_cache(ids[:5], params, rows=[[0, 3]])
    with pytest.raises(ValueError, match=r"upstream gradient shape \(5, 8\) != \(2, 8\)"):
        encode_backward(params, np.ones((5, STACKED.hidden_dim)), cache)


@pytest.mark.parametrize("dropout_rate", [0.0, 0.2])
def test_packed_pass_equals_per_sentence_passes(dropout_rate):
    """Sentences of lengths 5, 1, 16, 5, 3 and 5, packed into 35 rows (more
    than ``max_positions``), get the vectors of their own passes, bit for
    bit except the one-sub-token sentence, whose own pass takes BLAS's
    one-row path; the packed backward gets the summed gradients of theirs,
    up to rounding.  With dropout, each sentence's masks are its own."""
    cfg = dataclasses.replace(STACKED, dropout_rate=dropout_rate)
    params = _scaled_params(cfg)
    rng = np.random.default_rng(15)
    lengths = [5, 1, cfg.max_positions, 5, 3, 5]
    sentences = [rng.integers(0, cfg.vocab_size, size=n) for n in lengths]
    upstream = rng.normal(size=(sum(lengths), cfg.hidden_dim))
    mask_rng = np.random.default_rng(4)
    masks = [dropout_masks(cfg, n, mask_rng) for n in lengths]
    packed, cache = encode_with_cache(
        np.concatenate(sentences), params, lengths=lengths,
        dropout_masks=None if dropout_rate == 0 else [np.concatenate(m) for m in zip(*masks)],
    )
    want_grads = zero_grads(params)
    start = 0
    for ids, sent_masks in zip(sentences, masks):
        alone, alone_cache = encode_with_cache(ids, params, dropout_masks=sent_masks)
        rows = slice(start, start + ids.size)
        if ids.size >= 2:
            assert np.array_equal(packed[rows], alone), ids.size
        else:
            np.testing.assert_allclose(packed[rows], alone, rtol=1e-12, atol=1e-14)
        encode_backward(params, upstream[rows], alone_cache, want_grads)
        start += ids.size
    _assert_grads_close(encode_backward(params, upstream, cache, workspace=Workspace()), want_grads)


def test_packed_pass_rejects_bad_input():
    params = init_params(dataclasses.replace(STACKED, dropout_rate=0.2))
    ids = np.ones(10, dtype=int)
    for lengths in ([4, 5], [10, 0], [], [[5, 5]]):
        with pytest.raises(ValueError, match="do not split"):
            encode_with_cache(ids, params, lengths=lengths)
    with pytest.raises(SentenceTooLongError, match="17 sub-tokens exceeds max_positions=16"):
        encode_with_cache(np.ones(20, dtype=int), params, lengths=[3, 17])
    masks = [np.ones((10, STACKED.hidden_dim))] * 4
    with pytest.raises(ValueError, match="3 dropout masks given for 2 layers"):
        encode_with_cache(ids, params, lengths=[5, 5], dropout_masks=masks[:3])
    with pytest.raises(ValueError, match=r"dropout mask of shape \(9, 8\)"):
        encode_with_cache(ids, params, lengths=[5, 5], dropout_masks=[np.ones((9, 8))] * 4)
    out, _cache = encode_with_cache(ids, params, lengths=[5, 5], dropout_masks=masks)
    assert np.array_equal(out, encode_with_cache(ids, params, lengths=[5, 5])[0])


def test_attention_and_layer_norm_match_allocating_reference():
    """One sentence, and a pack of three of 20 sub-tokens (one run), whose
    attention and input gradient have the bits of per-sentence references
    and whose parameter gradients are their sums up to rounding."""
    from dualner.encoder import (
        _attention_backward,
        _attention_forward,
        _layer_norm_backward,
        _layer_norm_forward,
    )

    cfg = EncoderConfig(vocab_size=30, max_positions=128, hidden_dim=64, n_layers=1, n_heads=4)
    params = _scaled_params(cfg)
    t, p = params.tensors, "layers.0.attn."
    rng = np.random.default_rng(21)
    g, b = rng.normal(size=64), rng.normal(size=64)
    for shape in ((1, 64), (2, 64), (20, 64), (112, 64), (3, 20, 64)):
        x = rng.normal(size=shape)
        sentences = x.reshape(-1, *shape[-2:])
        flat = x.reshape(-1, 64)
        out, cache = _attention_forward(flat, t, p, cfg, flat, [(0, 0, len(sentences), shape[-2], shape[-2])])
        ref_out, (_x, ref_q, ref_k, ref_v, ref_probs, ref_merged, _s) = attention_forward_reference(x, t, p, cfg)
        assert np.array_equal(out, ref_out.reshape(flat.shape))
        assert np.array_equal(cache[5], ref_merged.reshape(flat.shape))
        (head_views,) = cache[4]
        for got, want in zip(head_views, (ref_q, ref_k, ref_v, ref_probs)):
            assert np.array_equal(got, want.reshape(got.shape))
        y, ln_cache = _layer_norm_forward(x, g, b)
        ref_y, ref_ln_cache = layer_norm_forward_reference(x, g, b)
        assert np.array_equal(y, ref_y)
        assert all(np.array_equal(c, r) for c, r in zip(ln_cache, ref_ln_cache))
        dout = rng.normal(size=flat.shape)
        grads, ref_grads = zero_grads(params), zero_grads(params)
        dx = _attention_backward(dout, t, grads, p, cache)
        ref_dx = [attention_backward_reference(d, t, ref_grads, p, attention_forward_reference(s, t, p, cfg)[1])
                  for s, d in zip(sentences, dout.reshape(sentences.shape))]
        assert np.array_equal(dx, np.concatenate(ref_dx))
        if x.ndim == 3:  # summed over the pack at once, not sentence by sentence
            _assert_grads_close(grads, ref_grads)
        else:
            assert all(np.array_equal(grads[k], ref_grads[k]) for k in grads)
        for got, want in zip(_layer_norm_backward(dout.reshape(shape), ln_cache),
                             layer_norm_backward_reference(dout.reshape(shape), ref_ln_cache)):
            assert np.array_equal(got, want)


def test_attention_backward_workspace_matches_fresh_and_allocating_reference():
    """One workspace reused over sentences of 112, 5, 100 and 165 sub-tokens
    (heads taken in groups of 2, 4, 3 and 1), in the attention backward and
    in the whole encoder backward."""
    from dualner.encoder import _attention_backward, _attention_forward

    cfg = EncoderConfig(vocab_size=30, max_positions=200, hidden_dim=64, n_layers=2, n_heads=4)
    params = _scaled_params(cfg)
    t, p = params.tensors, "layers.0.attn."
    rng = np.random.default_rng(24)
    ws = Workspace()
    for n in (112, 5, 100, 165):
        x = rng.normal(size=(n, 64))
        dout = rng.normal(size=(n, 64))
        _out, cache = _attention_forward(x, t, p, cfg, x, [(0, 0, 1, n, n)])
        _ref_out, ref_cache = attention_forward_reference(x, t, p, cfg)
        grads, fresh_grads, ref_grads = zero_grads(params), zero_grads(params), zero_grads(params)
        dx = _attention_backward(dout, t, grads, p, cache, ws)
        assert np.array_equal(dx, _attention_backward(dout, t, fresh_grads, p, cache))
        assert np.array_equal(dx, attention_backward_reference(dout, t, ref_grads, p, ref_cache))
        assert all(np.array_equal(grads[k], fresh_grads[k]) for k in grads)
        assert all(np.array_equal(grads[k], ref_grads[k]) for k in grads)

        ids = rng.integers(0, cfg.vocab_size, size=n)
        ctx, enc_cache = encode_with_cache(ids, params)
        upstream = rng.normal(size=ctx.shape)
        with_ws = encode_backward(params, upstream, enc_cache, workspace=ws)
        fresh = encode_backward(params, upstream, enc_cache)
        assert all(np.array_equal(with_ws[k], fresh[k]) for k in fresh)


def test_permutation_equivariance_without_positions():
    params = _scaled_params(TINY)
    params.tensors["pos_emb"][...] = 0.0
    a, b = 5, 9
    out = encode_with_cache(np.array([a, b]), params)[0]
    swapped = encode_with_cache(np.array([b, a]), params)[0]
    assert np.allclose(out, swapped[::-1], atol=1e-12)


def test_dropout_train_vs_eval():
    cfg = EncoderConfig(
        vocab_size=30, hidden_dim=8, n_layers=1, n_heads=2, ffn_dim=12, dropout_rate=0.3
    )
    params = _scaled_params(cfg)
    ids = np.array([1, 2, 3])
    eval_out = encode_with_cache(ids, params)[0]

    def train_pass(rng):
        return encode_with_cache(ids, params, dropout_masks=dropout_masks(cfg, ids.size, rng))[0]

    train_out = train_pass(np.random.default_rng(0))
    assert not np.allclose(eval_out, train_out)
    assert np.array_equal(train_out, train_pass(np.random.default_rng(0)))
    with pytest.raises(ValueError, match="random generator"):
        dropout_masks(cfg, ids.size, None)
    rng = np.random.default_rng(0)
    # at rate 0 there are no masks (None), and nothing is drawn
    assert dropout_masks(dataclasses.replace(cfg, dropout_rate=0.0), ids.size, rng) is None
    assert rng.random() == np.random.default_rng(0).random()


def test_zero_upstream_gives_zero_grads():
    params = init_params(TINY)
    ids = np.array([1, 2, 3])
    grads = encode_backward(params, np.zeros((3, 8)), encode_with_cache(ids, params)[1])
    assert set(grads) == set(params.tensors)
    assert all(np.all(g == 0.0) for g in grads.values())


def test_unused_parameters_get_zero_grads():
    params = _scaled_params(TINY)
    ids = np.array([1, 2, 3])
    grads = encode_backward(params, np.ones((3, 8)), encode_with_cache(ids, params)[1])
    assert np.all(grads["tok_emb"][10] == 0.0)  # id 10 never fed in
    assert np.all(grads["pos_emb"][3:] == 0.0)  # positions past the sentence
    assert np.any(grads["tok_emb"][1] != 0.0)


def test_backward_shape_check():
    params = init_params(TINY)
    with pytest.raises(ValueError):
        encode_backward(params, np.zeros((3, 8)), encode_with_cache(np.array([1, 2]), params)[1])


def test_gradients_match_central_differences():
    params = _scaled_params(TINY)
    rng = np.random.default_rng(0)
    ids = rng.integers(0, TINY.vocab_size, size=5)
    upstream = rng.normal(size=(5, TINY.hidden_dim))

    def loss():
        return float((encode_with_cache(ids, params)[0] * upstream).sum())

    grads = encode_backward(params, upstream, encode_with_cache(ids, params)[1])
    worst = 0.0
    for key, arr in sorted(params.tensors.items()):
        for _ in range(4):
            idx = int(rng.integers(0, arr.size))
            numeric = central_difference(loss, arr, idx, step=1e-5)
            worst = max(worst, gradient_agreement(grads[key].flat[idx], numeric))
    assert worst < 1e-6


def test_train_mode_backward_requires_matching_cache():
    cfg = EncoderConfig(
        vocab_size=30, hidden_dim=8, n_layers=1, n_heads=2, ffn_dim=12, dropout_rate=0.2
    )
    params = _scaled_params(cfg)
    ids = np.array([1, 2, 3])
    out, cache = encode_with_cache(ids, params, dropout_masks=dropout_masks(cfg, 3, np.random.default_rng(1)))
    upstream = np.ones_like(out)
    g1 = encode_backward(params, upstream, cache)
    g2 = encode_backward(params, upstream, cache)
    for key in g1:
        assert np.array_equal(g1[key], g2[key])


def test_grads_accumulate_in_place():
    params = _scaled_params(TINY)
    ids = np.array([1, 2, 3])
    upstream = np.ones((3, 8))
    acc = zero_grads(params)
    _out, cache = encode_with_cache(ids, params)
    encode_backward(params, upstream, cache, grads=acc)
    once = {k: v.copy() for k, v in acc.items()}
    encode_backward(params, upstream, cache, grads=acc)
    for key in acc:
        assert np.allclose(acc[key], 2.0 * once[key])


def _align(spans):
    return SubTokenization(np.arange(spans[-1][1]), np.array([s for s, _e in spans]))


def test_word_vectors_identity_when_unsplit():
    ctx = np.arange(12.0).reshape(3, 4)
    align = _align([(0, 1), (1, 2), (2, 3)])
    assert np.array_equal(word_vectors(ctx, align), ctx)


def test_word_vectors_selects_first_subtoken_row():
    ctx = np.arange(40.0).reshape(10, 4)
    # word occupying sub-token positions 4..7 -> represented by row 4
    align = _align([(0, 4), (4, 8), (8, 10)])
    out = word_vectors(ctx, align)
    assert np.array_equal(out[1], ctx[4])


def test_word_vectors_random_alignment_bit_equal():
    rng = np.random.default_rng(5)
    ctx = rng.normal(size=(9, 6))
    spans, cursor = [], 0
    while cursor < 9:
        width = int(rng.integers(1, min(3, 9 - cursor) + 1))
        spans.append((cursor, cursor + width))
        cursor += width
    align = _align(spans)
    out = word_vectors(ctx, align)
    for w, (s, _e) in enumerate(spans):
        assert out[w].tobytes() == ctx[s].tobytes()


def test_word_vectors_misaligned_rejected():
    ctx = np.zeros((3, 4))
    align = _align([(0, 2), (2, 4)])
    with pytest.raises(ValueError):
        word_vectors(ctx, align)


def test_word_vectors_backward_scatters():
    align = _align([(0, 2), (2, 3)])
    d_words = np.array([[1.0, 2.0], [3.0, 4.0]])
    d_ctx = word_vectors_backward(d_words, align)
    assert d_ctx.shape == (3, 2)
    assert np.array_equal(d_ctx[0], [1.0, 2.0])
    assert np.array_equal(d_ctx[1], [0.0, 0.0])
    assert np.array_equal(d_ctx[2], [3.0, 4.0])


def test_checkpoint_roundtrip(tmp_path):
    params = init_params(TINY)
    path = tmp_path / "enc.npz"
    save_checkpoint(path, {"kind": "encoder", "encoder": dataclasses.asdict(TINY)}, params.tensors)
    config, tensors = load_checkpoint(path)
    assert dataclass_from_dict(EncoderConfig, config["encoder"], "encoder config") == TINY
    assert set(tensors) == set(params.tensors)
    for key in tensors:
        assert np.array_equal(tensors[key], params.tensors[key])


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.npz"
    path.write_bytes(b"not a checkpoint")
    from dualner.errors import FormatError

    with pytest.raises(FormatError):
        load_checkpoint(path)
