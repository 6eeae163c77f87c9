from __future__ import annotations

import dataclasses
import tracemalloc
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

from dualner.corpus import (
    Document,
    LabelInventory,
    Mention,
    Sentence,
    generate_synthetic,
    load_predictions,
    save_corpus,
)
from dualner.encoder import EncoderConfig, Workspace, dropout_masks, init_params, load_checkpoint
from dualner.errors import FormatError, SentenceTooLongError, UnusableDataError
from dualner.heads import HeadConfig
from dualner.model import (
    _decode,
    batch_loss_and_grads,
    build_examples,
    init_model,
    load_model,
    mlm_batch_loss_and_grads,
    mlm_mask,
    mlm_masks,
    model_tensors,
    predict_documents,
    save_model,
)
from dualner.subtok import subtokenize, train_bpe

from .oracles import (
    batch_loss_and_grads_full_pass_reference,
    central_difference,
    gradient_agreement,
    mlm_batch_loss_and_grads_reference,
    mlm_eval_loss_reference,
    mlm_mask_reference,
    predict_sentence_reference,
    tag_strings,
)

INV = LabelInventory.from_types(["Alpha", "Beta"])
ENC = EncoderConfig(hidden_dim=16, n_layers=1, n_heads=2, ffn_dim=24)
HEADS = HeadConfig(max_span_width=6, span_len_dim=8, span_hidden=16)


@pytest.fixture(scope="module")
def tiny_setup():
    docs = generate_synthetic(5, 4, INV)
    vocab = train_bpe(docs, 140)
    return docs, vocab


def _scaled_model(method, vocab, seed=7):
    cfg = EncoderConfig(**{**asdict(ENC), "vocab_size": len(vocab)})
    model = init_model(method, INV, cfg, HEADS)
    rng = np.random.default_rng(seed)
    for key, arr in model_tensors(model).items():
        if arr.ndim >= 2 and not key.endswith((".ln1.g", ".ln2.g")):
            arr[...] = rng.normal(0.0, 0.25, size=arr.shape)
    return model


def test_init_model_rejects_unknown_method(tiny_setup):
    _docs, vocab = tiny_setup
    cfg = EncoderConfig(**{**asdict(ENC), "vocab_size": len(vocab)})
    with pytest.raises(ValueError):
        init_model("crf", INV, cfg, HEADS)


def test_build_examples_targets(tiny_setup):
    docs, vocab = tiny_setup
    examples = build_examples(docs, vocab, INV, HEADS)
    assert len(examples) == sum(len(d.sentences) for d in docs)
    sentences = [sent for doc in docs for sent in doc.sentences]
    tag_set = tag_strings(INV.types)
    for ex, sent in zip(examples, sentences):
        assert len(ex.tag_ids) == len(sent.words) and ex.tag_ids.dtype == np.int64
        assert len(ex.span_classes) == len(ex.spans)
        gold = {(m.start_word, m.end_word): m.label for m in sent.mentions}
        for (s, e), cls in zip(ex.spans, ex.span_classes):
            if (s, e) in gold:
                assert INV.types[cls - 1] == gold[(s, e)]
            else:
                assert cls == 0
        for m in sent.mentions:
            assert tag_set[ex.tag_ids[m.start_word]] == f"B-{m.label}"


def _count_calls(monkeypatch, *names):
    """Count the calls ``dualner.model`` makes to its imports ``names``."""
    from dualner import model as model_module

    calls = Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(model_module, name, counted(name, getattr(model_module, name)))
    return calls


def test_build_examples_builds_targets_on_first_read(monkeypatch, tiny_setup):
    docs, vocab = tiny_setup
    calls = _count_calls(monkeypatch, "enumerate_spans", "mentions_to_tags")
    examples = build_examples(docs, vocab, INV, HEADS)
    assert sum(ex.ids.size for ex in examples) > 0
    assert calls == {}
    for ex in examples:
        assert ex.tag_ids is ex.tag_ids  # built once
    assert calls == {"mentions_to_tags": len(examples)}
    for ex in examples:
        assert ex.span_classes.size == len(ex.spans)
    assert calls == {"mentions_to_tags": len(examples), "enumerate_spans": len(examples)}


def test_tagger_training_enumerates_no_spans(monkeypatch, tiny_setup):
    from dualner.corpus import split_train_tune
    from dualner.train import TrainConfig, train_supervised

    docs, vocab = tiny_setup
    calls = _count_calls(monkeypatch, "enumerate_spans")
    train_docs, tune_docs = split_train_tune(docs, 3)
    cfg = TrainConfig(method="word_tagger", epochs=2, batch_size=4, checkpoint_every=1)
    result = train_supervised(train_docs, tune_docs, vocab, ENC, HEADS, cfg)
    assert result.best_tune_f1 is not None
    assert calls["enumerate_spans"] == 0


@pytest.mark.parametrize("loss", ["word_tagger", "span_classifier", "mlm"])
def test_every_encoder_tensor_has_a_gradient(tiny_setup, loss):
    """At the healthy weights of the gradient check, no encoder tensor's
    gradient is rounding noise: each reaches 1e-8 of the largest one."""
    docs, vocab = tiny_setup
    model = _scaled_model("word_tagger" if loss == "mlm" else loss, vocab)
    examples = build_examples(docs, vocab, INV, HEADS)[:3]
    if loss == "mlm":
        _loss, grads = mlm_batch_loss_and_grads(
            model.encoder, [ex.ids for ex in examples], vocab, 0.5, np.random.default_rng(0), mode="eval"
        )
    else:
        _loss, flat = batch_loss_and_grads(model, examples, mode="eval")
        grads = {k.removeprefix("encoder."): v for k, v in flat.items() if k.startswith("encoder.")}
    assert grads.keys() == model.encoder.tensors.keys()
    largest = max(np.abs(g).max() for g in grads.values())
    dead = sorted(k for k, g in grads.items() if np.abs(g).max() <= 1e-8 * largest)
    assert dead == [], dead


def test_full_pipeline_gradients_both_heads(tiny_setup):
    docs, vocab = tiny_setup
    for method in ("word_tagger", "span_classifier"):
        model = _scaled_model(method, vocab)
        examples = build_examples(docs, vocab, INV, HEADS)[:3]
        _loss, grads = batch_loss_and_grads(model, examples, mode="eval")
        tensors = model_tensors(model)
        rng = np.random.default_rng(11)
        worst = 0.0
        for key in sorted(tensors):
            arr = tensors[key]
            for _ in range(2):
                idx = int(rng.integers(0, arr.size))
                numeric = central_difference(
                    lambda: batch_loss_and_grads(model, examples, "eval")[0], arr, idx, step=1e-5
                )
                worst = max(worst, gradient_agreement(grads[key].flat[idx], numeric))
        assert worst < 1e-5, f"{method}: {worst}"


@pytest.mark.parametrize("method", ["word_tagger", "span_classifier", "mlm"])
def test_batch_loss_and_grads_bits_do_not_depend_on_workspace(length_corpus, method):
    """Loss and every gradient equal with one workspace reused across two
    batches of long and short sentences, and with fresh arrays."""
    docs, vocab = length_corpus
    model = _scaled_model("span_classifier" if method == "mlm" else method, vocab)
    model.encoder.config = dataclasses.replace(model.encoder.config, dropout_rate=0.1)
    if method == "mlm":
        pool = sorted(_mlm_pool(docs, vocab), key=len)
        batches = [pool[-3:] + pool[:3], pool[-6:-3] + pool[3:6]]
    else:
        examples = sorted(build_examples(docs, vocab, INV, HEADS), key=lambda ex: ex.ids.size)
        batches = [examples[-3:] + examples[:3], examples[-6:-3] + examples[3:6]]
    ws = Workspace()
    for batch in batches:
        results = []
        for workspace in (ws, None):
            rng = np.random.default_rng(8)
            if method == "mlm":
                results.append(mlm_batch_loss_and_grads(
                    model.encoder, batch, vocab, 0.3, rng, "train", workspace=workspace
                ))
            else:
                results.append(batch_loss_and_grads(model, batch, "train", rng, workspace))
        (loss, grads), (fresh_loss, fresh_grads) = results
        assert loss.hex() == fresh_loss.hex()
        assert grads.keys() == fresh_grads.keys()
        assert all(np.array_equal(grads[k], fresh_grads[k]) for k in grads)


@pytest.mark.parametrize("method", ["word_tagger", "span_classifier"])
@pytest.mark.parametrize("dropout_rate", [0.0, 0.2])
def test_batch_loss_and_grads_match_full_encoder_pass(length_corpus, method, dropout_rate):
    """Training runs the last encoder layer only at the words' first
    sub-tokens; loss, dropout draws and gradients are those of a full pass
    whose head gradient is scattered back onto every sub-token.  The
    generator ends where per-sentence ``dropout_masks`` draws leave it."""
    docs, vocab = length_corpus
    model = _scaled_model(method, vocab)
    model.encoder.config = dataclasses.replace(model.encoder.config, dropout_rate=dropout_rate)
    # a one-word sentence runs the last layer at its row twice, and a
    # one-sub-token sentence runs in full
    longest = max((w for d in docs for s in d.sentences for w in s.words), key=len)
    short = Document("short", "", [Sentence([longest], 0, 0), Sentence(["a"], 0, 0, [Mention(0, 0, "Beta")])])
    examples = build_examples(docs + [short], vocab, INV, HEADS)
    assert [ex.ids.size > 1 for ex in examples[-2:]] == [True, False]
    for batch in (examples[:8], examples[-5:]):
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        loss, grads = batch_loss_and_grads(model, batch, "train", rng, Workspace())
        ref_loss, ref_grads = batch_loss_and_grads_full_pass_reference(model, batch, ref_rng)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        drawn = np.random.default_rng(5)
        for ex in batch:
            dropout_masks(model.encoder.config, ex.ids.size, drawn)
        assert rng.bit_generator.state == drawn.bit_generator.state
        assert loss == ref_loss
        floor = 1e-15 * max(np.abs(g).max() for g in ref_grads.values())
        for key in ref_grads:
            np.testing.assert_allclose(grads[key], ref_grads[key], rtol=1e-12, atol=floor, err_msg=key)


@pytest.mark.parametrize("method", ["word_tagger", "span_classifier"])
def test_eval_mode_loss_ignores_dropout_and_rng(length_corpus, method):
    """The eval-mode loss of ``batch_loss_and_grads`` is a pure function of
    the parameters: with dropout configured it draws nothing from a given
    ``rng`` and has the bits of a call without one, over a batch of
    several packs that holds a one-sub-token sentence."""
    from dualner.model import _packs

    docs, vocab = length_corpus
    examples = build_examples(docs + [_one_sub_token_doc()], vocab, INV, HEADS)
    batch = examples[:6] + examples[-1:] + examples[6:12]
    assert batch[6].ids.size == 1
    assert len(_packs([ex.ids.size for ex in batch], range(len(batch)))) > 2
    model = _scaled_model(method, vocab)
    model.encoder.config = dataclasses.replace(model.encoder.config, dropout_rate=0.2)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    loss = batch_loss_and_grads(model, batch, "eval", rng)[0]
    assert loss > 0.0
    assert rng.bit_generator.state == state
    assert loss.hex() == batch_loss_and_grads(model, batch, "eval")[0].hex()


@pytest.mark.parametrize("method", ["word_tagger", "span_classifier"])
def test_training_step_encodes_and_backpropagates_once_per_pack(monkeypatch, length_corpus, method):
    """A training step encodes its batch in packs taken in batch order, one
    ``encode_with_cache`` and one ``encode_backward`` (of that pass's cache,
    at the pack's words) per pack: fewer packs than sentences, each of at
    most 128 sub-tokens or one sentence, a one-sub-token sentence alone."""
    import dualner.model as model_mod

    docs, vocab = length_corpus
    examples = build_examples(docs + [_one_sub_token_doc()], vocab, INV, HEADS)
    one = examples[-1]
    assert one.ids.size == 1
    short = sorted(examples[:-2], key=lambda ex: ex.ids.size)[:8]
    batch = short[:4] + [one] + short[4:]
    real_encode, real_backward = model_mod.encode_with_cache, model_mod.encode_backward
    passes, backwards = [], []

    def encode_spy(ids, params, **kwargs):
        out = real_encode(ids, params, **kwargs)
        passes.append((list(kwargs["lengths"]), out[1]))
        return out

    def backward_spy(params, upstream, cache, *args):
        backwards.append((upstream.shape[0], cache))
        return real_backward(params, upstream, cache, *args)

    monkeypatch.setattr(model_mod, "encode_with_cache", encode_spy)
    monkeypatch.setattr(model_mod, "encode_backward", backward_spy)
    model = _scaled_model(method, vocab)
    model.encoder.config = dataclasses.replace(model.encoder.config, dropout_rate=0.2)
    batch_loss_and_grads(model, batch, "train", np.random.default_rng(5), Workspace())
    packs = [lengths for lengths, _cache in passes]
    assert [n for pack in packs for n in pack] == [ex.ids.size for ex in batch]
    assert len(packs) < len(batch)
    assert all(sum(pack) <= 128 or len(pack) == 1 for pack in packs)
    assert [1] in packs and all(len(pack) == 1 for pack in packs if 1 in pack)
    assert len(backwards) == len(passes)
    assert all(cache is pass_cache for (_rows, cache), (_l, pass_cache) in zip(backwards, passes))
    sizes = iter(len(ex.sentence.words) for ex in batch)
    assert [rows for rows, _cache in backwards] == [sum(next(sizes) for _ in pack) for pack in packs]


@pytest.mark.parametrize("method", ["word_tagger", "span_classifier"])
def test_training_step_holds_one_long_sentence_per_pass(length_corpus, method):
    """Sentences longer than 64 sub-tokens are encoded one per pass: a
    step over five of them, with a workspace used before, peaks at most 5%
    higher than a step over the longest alone.  The gradients it returns are the
    workspace's: without one, the step peaks higher by at least their
    size."""
    docs, vocab = length_corpus
    words = [w for doc in docs for sent in doc.sentences for w in sent.words]
    long_doc = Document("long", "", [Sentence(words[i : i + 30], 0, 0) for i in range(0, 150, 30)])
    batch = build_examples([long_doc], vocab, INV, HEADS)
    assert min(ex.ids.size for ex in batch) > 64
    longest = [max(batch, key=lambda ex: ex.ids.size)]
    model = _scaled_model(method, vocab)
    ws = Workspace()
    batch_loss_and_grads(model, batch, "train", None, ws)

    def peak(examples, workspace):
        tracemalloc.start()
        try:
            batch_loss_and_grads(model, examples, "train", None, workspace)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    grad_bytes = sum(v.nbytes for v in model_tensors(model).values())
    assert peak(batch, ws) <= peak(longest, ws) * 1.05
    assert peak(batch, None) - peak(batch, ws) >= grad_bytes


@pytest.mark.parametrize(
    "method, head",
    [
        ("word_tagger", {"tagger.w", "tagger.b"}),
        ("span_classifier", {"span.len_emb", "span.w1", "span.b1", "span.w2", "span.b2"}),
    ],
    ids=["word_tagger", "span_classifier"],
)
def test_model_holds_only_its_method_head(tmp_path, tiny_setup, method, head):
    docs, vocab = tiny_setup
    model = _scaled_model(method, vocab)
    expected = {f"encoder.{k}" for k in model.encoder.tensors} | {f"heads.{k}" for k in head}
    assert set(model_tensors(model)) == expected
    examples = build_examples(docs, vocab, INV, HEADS)[:2]
    _loss, grads = batch_loss_and_grads(model, examples, mode="eval")
    assert set(grads) == expected
    path = tmp_path / "model.npz"
    save_model(path, model)
    _config, tensors = load_checkpoint(path)
    assert set(tensors) == expected


def test_mlm_mask_counts_and_actions():
    rng = np.random.default_rng(3)
    ids = np.arange(20)
    corrupted, positions, targets = mlm_mask(ids, vocab_size=50, mask_id=2, mask_prob=0.15, rng=rng)
    assert positions.size == int(np.ceil(0.15 * 20))
    assert np.array_equal(targets, ids[positions])
    untouched = np.setdiff1d(np.arange(20), positions)
    assert np.array_equal(corrupted[untouched], ids[untouched])


def test_mlm_mask_zero_prob():
    """A rate of 0 and an empty sentence would mask nothing: both are refused."""
    rng = np.random.default_rng(3)
    with pytest.raises(ValueError, match=r"mask_prob must be in \(0, 1\], got 0.0"):
        mlm_mask(np.arange(5), 50, 2, 0.0, rng)
    with pytest.raises(ValueError, match="empty sentence"):
        mlm_mask(np.empty(0, dtype=np.int64), 50, 2, 0.15, rng)


@pytest.mark.parametrize("mask_prob", [0.15, 0.5, 1.0])
def test_mlm_mask_matches_per_position_reference(mask_prob):
    rng, ref_rng = np.random.default_rng(8), np.random.default_rng(8)
    for n in (1, 2, 7, 40, 200):
        ids = np.arange(n) % 50 + 3
        got = mlm_mask(ids, 50, 2, mask_prob, rng)
        want = mlm_mask_reference(ids, 50, 2, mask_prob, ref_rng)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert rng.random() == ref_rng.random()  # the same draws were taken


def test_mlm_mask_action_shares():
    rng = np.random.default_rng(4)
    ids = np.full(2000, 7)
    corrupted, positions, _ = mlm_mask(ids, vocab_size=50, mask_id=2, mask_prob=1.0, rng=rng)
    masked = (corrupted[positions] == 2).mean()
    kept = (corrupted[positions] == 7).mean()
    assert 0.75 < masked < 0.85
    assert kept > 0.08  # ~10% kept plus random draws that hit 7


def test_mlm_zero_prob_no_loss_no_update(tiny_setup):
    """A rate of 0 and an empty batch are refused in both modes."""
    docs, vocab = tiny_setup
    model = _scaled_model("word_tagger", vocab)
    ids = [ex.ids for ex in build_examples(docs, vocab, INV, HEADS)[:2]]
    for mode, with_grads in (("train", True), ("eval", True), ("eval", False)):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=r"mask_prob must be in \(0, 1\]"):
            mlm_batch_loss_and_grads(model.encoder, ids, vocab, 0.0, rng, mode, with_grads)
        with pytest.raises(ValueError, match="at least one sentence"):
            mlm_batch_loss_and_grads(model.encoder, [], vocab, 0.15, rng, mode, with_grads)


def test_mlm_requires_mask_token(tiny_setup):
    docs, vocab = tiny_setup
    import dataclasses

    no_mask = dataclasses.replace(vocab, mask_id=None)
    model = _scaled_model("word_tagger", vocab)
    ids = [ex.ids for ex in build_examples(docs, vocab, INV, HEADS)[:1]]
    with pytest.raises(ValueError, match="mask token"):
        mlm_batch_loss_and_grads(model.encoder, ids, no_mask, 0.15, np.random.default_rng(0))


def test_predict_documents_structure(tiny_setup):
    docs, vocab = tiny_setup
    model = _scaled_model("span_classifier", vocab)
    preds = predict_documents(model, docs, vocab)
    assert [d.id for d in preds] == [d.id for d in docs]
    for gold_doc, pred_doc in zip(docs, preds):
        assert [s.words for s in pred_doc.sentences] == [s.words for s in gold_doc.sentences]
        for sent in pred_doc.sentences:
            for m in sent.mentions:
                assert 0 <= m.start_word <= m.end_word < len(sent.words)
                assert m.label in INV.types
                assert 0.0 <= m.score <= 1.0
    # gold docs untouched
    assert all(m.label in INV.types for d in docs for s in d.sentences for m in s.mentions)


def test_span_predictions_survive_a_file_round_trip(tiny_setup, tmp_path):
    """A span model's predictions hold plain ``int`` word indices, so
    ``save_corpus`` writes them and ``load_predictions`` reads them back equal."""
    docs, vocab = tiny_setup
    preds = predict_documents(_scaled_model("span_classifier", vocab), docs, vocab)
    mentions = [m for d in preds for s in d.sentences for m in s.mentions]
    assert mentions and all(type(m.start_word) is int and type(m.end_word) is int for m in mentions)
    save_corpus(preds, tmp_path / "pred.jsonl")
    assert load_predictions(tmp_path / "pred.jsonl") == preds


def test_prediction_refuses_a_vocabulary_of_another_size(tiny_setup):
    """The vocabulary's ids all fit a larger model's embedding table, so only
    the size check stops it from predicting with the wrong symbols."""
    docs, vocab = tiny_setup
    size = len(vocab) + 20
    model = init_model("span_classifier", INV, EncoderConfig(**{**asdict(ENC), "vocab_size": size}), HEADS)
    with pytest.raises(UnusableDataError, match=f"vocabulary has {len(vocab)} symbols .* vocab_size={size}"):
        predict_documents(model, docs, vocab)


@pytest.fixture(scope="module")
def length_corpus():
    """Enough sentences that sub-token lengths both repeat and occur once."""
    docs = generate_synthetic(11, 24, INV)
    return docs, train_bpe(docs, 140)


def _one_sub_token_doc() -> Document:
    """Two sentences of one one-letter word, one sub-token each."""
    return Document("one-sub-token", "a b", [Sentence(["a"], 0, 1), Sentence(["b"], 2, 3)])


@pytest.mark.parametrize("method", ["word_tagger", "span_classifier"])
def test_predict_documents_equals_predict_sentence(length_corpus, method):
    docs, vocab = length_corpus
    docs = docs + [_one_sub_token_doc()]
    lengths = Counter(len(subtokenize(s.words, vocab).sub_token_ids) for d in docs for s in d.sentences)
    assert 1 in lengths.values() and max(lengths.values()) > 1 and lengths[1] == 2
    model = _scaled_model(method, vocab)
    preds = predict_documents(model, docs, vocab)
    assert [d.id for d in preds] == [d.id for d in docs]
    n_found = 0
    for doc, pred_doc in zip(docs, preds):
        assert len(pred_doc.sentences) == len(doc.sentences)
        for sent, pred_sent in zip(doc.sentences, pred_doc.sentences):
            expected = predict_sentence_reference(model, sent.words, vocab)
            assert pred_sent.words == sent.words
            assert pred_sent.mentions == expected
            n_found += len(expected)
    assert n_found > 0


def test_tagger_decoding_gives_a_one_word_sentence_its_own_product(tiny_setup):
    """A pack is scored by one tagger product, but a one-word sentence in
    it gets the bits of its own one-row product: every sentence decodes as
    when decoded alone."""
    _docs, vocab = tiny_setup
    model = _scaled_model("word_tagger", vocab)
    rng = np.random.default_rng(4)
    slices = [slice(0, 3), slice(3, 4), slice(4, 8), slice(8, 9)]
    one_word_mentions = 0
    for _draw in range(20):
        wv = rng.normal(size=(9, ENC.hidden_dim))
        packed = _decode(model, wv, slices)
        alone = [_decode(model, wv[sl].copy(), [slice(0, sl.stop - sl.start)])[0] for sl in slices]
        assert packed == alone
        one_word_mentions += len(packed[1]) + len(packed[3])
    assert one_word_mentions >= 20


def _mlm_pool(docs, vocab):
    return [np.asarray(subtokenize(s.words, vocab).sub_token_ids, dtype=np.int64)
            for d in docs for s in d.sentences]


@pytest.mark.parametrize("mask_prob", [0.15, 0.5])
def test_mlm_eval_loss_matches_per_sentence_reference(length_corpus, mask_prob):
    docs, vocab = length_corpus
    model = _scaled_model("word_tagger", vocab)
    pool = _mlm_pool(docs, vocab)
    rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
    loss, grads = mlm_batch_loss_and_grads(
        model.encoder, pool, vocab, mask_prob, rng, mode="eval", with_grads=False
    )
    ref_loss, _ = mlm_eval_loss_reference(model.encoder, pool, vocab, mask_prob, ref_rng)
    assert grads is None
    assert loss > 0.0 and type(loss) is float
    assert loss.hex() == ref_loss.hex()
    assert rng.random() == ref_rng.random()  # both drew the same masks


def test_mlm_eval_loss_scores_masks_drawn_before(length_corpus):
    """``masks`` drawn by ``mlm_masks`` score as when the loss draws them;
    they are accepted only without gradients and for the same batch."""
    docs, vocab = length_corpus
    model = _scaled_model("word_tagger", vocab)
    pool = _mlm_pool(docs, vocab)[:25]
    masks = mlm_masks(pool, vocab, 0.3, np.random.default_rng(6))
    drawn, _ = mlm_batch_loss_and_grads(
        model.encoder, pool, vocab, 0.3, np.random.default_rng(6), mode="eval", with_grads=False
    )
    for _repeat in range(2):
        given, grads = mlm_batch_loss_and_grads(
            model.encoder, pool, vocab, 0.3, None, mode="eval", with_grads=False, masks=masks
        )
        assert grads is None and given.hex() == drawn.hex()
    with pytest.raises(ValueError, match="without gradients"):
        mlm_batch_loss_and_grads(model.encoder, pool, vocab, 0.3, None, masks=masks)
    with pytest.raises(ValueError, match="24 sentences"):
        mlm_batch_loss_and_grads(
            model.encoder, pool[:-1], vocab, 0.3, None, mode="eval", with_grads=False, masks=masks
        )


def test_mlm_eval_loss_without_masked_positions(length_corpus):
    """An empty sentence, which has no position to mask, is refused in
    either mode; a loss without gradients is computed in eval mode only."""
    docs, vocab = length_corpus
    model = _scaled_model("word_tagger", vocab)
    pool = _mlm_pool(docs, vocab)[:5]
    with_empty = pool[:2] + [np.empty(0, dtype=np.int64)] + pool[2:]
    for mode, with_grads in (("train", True), ("eval", False)):
        with pytest.raises(ValueError, match="empty sentence"):
            mlm_batch_loss_and_grads(
                model.encoder, with_empty, vocab, 0.15, np.random.default_rng(0), mode, with_grads
            )
    with pytest.raises(ValueError, match="eval mode"):
        mlm_batch_loss_and_grads(
            model.encoder, pool, vocab, 0.15, np.random.default_rng(0), mode="train", with_grads=False
        )


def _by_length(pool) -> dict[int, list]:
    out: dict[int, list] = {}
    for ids in pool:
        out.setdefault(ids.size, []).append(ids)
    return out


def _mlm_step_batches(pool):
    """Equal lengths, distinct lengths (one a single sub-token), and one
    sentence."""
    by_length = _by_length(pool)
    return {
        "equal": next(group for group in by_length.values() if len(group) >= 3)[:3],
        "distinct": [group[0] for group in by_length.values()][:4] + [np.array([5])],
        "one": pool[:1],
    }


@pytest.mark.parametrize("dropout_rate", [0.0, 0.2])
def test_mlm_step_matches_per_sentence_reference(length_corpus, dropout_rate):
    """The packed training step gives the loss and every gradient of the
    per-sentence step up to rounding, and leaves the generator where the
    per-sentence step leaves it (masks and dropout masks drawn alike)."""
    docs, vocab = length_corpus
    enc = _scaled_model("word_tagger", vocab).encoder
    enc.config = dataclasses.replace(enc.config, dropout_rate=dropout_rate)
    pool = _mlm_pool(docs, vocab)
    ws = Workspace()
    for name, batch in _mlm_step_batches(pool).items():
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        loss, grads = mlm_batch_loss_and_grads(enc, batch, vocab, 0.3, rng, "train", workspace=ws)
        ref_loss, ref_grads = mlm_batch_loss_and_grads_reference(
            enc, batch, vocab, 0.3, ref_rng, "train"
        )
        assert rng.random() == ref_rng.random(), name
        np.testing.assert_allclose(loss, ref_loss, rtol=1e-12, err_msg=name)
        assert grads.keys() == ref_grads.keys()
        floor = 1e-15 * max(np.abs(g).max() for g in ref_grads.values())
        for key in ref_grads:
            np.testing.assert_allclose(
                grads[key], ref_grads[key], rtol=1e-12, atol=floor, err_msg=f"{name} {key}"
            )


def test_mlm_step_encodes_only_its_masked_rows(monkeypatch, length_corpus):
    """A train-mode step makes one packed pass at the masked rows of the
    sentences that masked a position and backpropagates a ``[P, d]``
    upstream; its loss has the bits of the same step scored from the rows
    of a full pass."""
    import dualner.model as model_mod

    docs, vocab = length_corpus
    enc = _scaled_model("word_tagger", vocab).encoder
    enc.config = dataclasses.replace(enc.config, dropout_rate=0.2)
    emb = enc.tensors["tok_emb"]
    real_encode, real_backward = model_mod.encode_with_cache, model_mod.encode_backward
    passes, upstreams = [], []

    def encode_spy(ids, params, **kwargs):
        passes.append(kwargs)
        return real_encode(ids, params, **kwargs)

    def backward_spy(params, upstream, *args):
        upstreams.append(upstream.shape)
        return real_backward(params, upstream, *args)

    monkeypatch.setattr(model_mod, "encode_with_cache", encode_spy)
    monkeypatch.setattr(model_mod, "encode_backward", backward_spy)
    for name, batch in _mlm_step_batches(_mlm_pool(docs, vocab)).items():
        passes.clear()
        upstreams.clear()
        loss, _grads = mlm_batch_loss_and_grads(enc, batch, vocab, 0.3, np.random.default_rng(5), "train")
        # the step's draws replayed: each sentence's mask, then its dropout masks if it masked a position
        rng = np.random.default_rng(5)
        kept = []
        for ids in batch:
            corrupted, positions, targets = mlm_mask(ids, len(vocab), vocab.mask_id, 0.3, rng)
            if positions.size:
                kept.append((corrupted, positions, targets, dropout_masks(enc.config, ids.size, rng)))
        n_rows = sum(positions.size for _c, positions, _t, _d in kept)
        assert len(passes) == 1 and upstreams == [(n_rows, enc.config.hidden_dim)], name
        assert [r.tolist() for r in passes[0]["rows"]] == [k[1].tolist() for k in kept], name
        full, _cache = real_encode(
            np.concatenate([k[0] for k in kept]), enc, lengths=[k[0].size for k in kept],
            dropout_masks=[np.concatenate(m) for m in zip(*(k[3] for k in kept))],
        )
        starts = np.cumsum([0] + [k[0].size for k in kept[:-1]])
        vecs = full[np.concatenate([k[1] + start for k, start in zip(kept, starts)])]
        _z, picked, _total = model_mod._target_log_probs(vecs, emb, np.concatenate([k[2] for k in kept]), None)
        assert loss.hex() == (-float(picked.sum()) / n_rows).hex(), name


def test_mlm_probe_after_a_step_scores_in_the_step_logits_buffer(length_corpus):
    """A probe lent the workspace of a step takes its logits from the
    step's buffer: over the step's sentences, one pack of as many masked
    rows, it allocates no ``[rows, V]`` array (here over 1 MiB)."""
    docs, vocab = length_corpus
    # a tied projection over 4000 rows, as large as a big vocabulary's
    enc = init_params(EncoderConfig(**{**asdict(ENC), "vocab_size": 4000}))
    pool, size = [], 0
    for ids in _mlm_pool(docs, vocab):
        if size + ids.size > 128:
            break
        pool.append(ids)
        size += ids.size
    ws = Workspace()
    mlm_batch_loss_and_grads(enc, pool, vocab, 0.5, np.random.default_rng(0), "train", workspace=ws)
    masks = mlm_masks(pool, vocab, 0.5, np.random.default_rng(1))
    logits_bytes = sum(positions.size for _c, positions, _t in masks) * 4000 * 8
    assert logits_bytes > 1024 * 1024
    tracemalloc.start()
    try:
        loss, _ = mlm_batch_loss_and_grads(
            enc, pool, vocab, 0.5, None, mode="eval", with_grads=False, workspace=ws, masks=masks
        )
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loss > 0.0
    assert peak < logits_bytes / 4, peak


def test_mlm_step_gradients_match_central_differences(length_corpus):
    """Every encoder tensor's gradient from the packed step agrees with
    central differences of the eval-path loss under the same masks, over
    sentences of mixed lengths, two of them of equal length."""
    docs, vocab = length_corpus
    enc = _scaled_model("word_tagger", vocab).encoder
    by_length = _by_length(_mlm_pool(docs, vocab))
    pair = next(group for group in by_length.values() if len(group) >= 2)[:2]
    others = [group[0] for n, group in by_length.items() if n != pair[0].size][:2]
    batch = [others[0], pair[0], others[1], pair[1]]
    masks = mlm_masks(batch, vocab, 0.5, np.random.default_rng(3))
    loss, grads = mlm_batch_loss_and_grads(enc, batch, vocab, 0.5, np.random.default_rng(3), mode="eval")

    def eval_loss():
        return mlm_batch_loss_and_grads(
            enc, batch, vocab, 0.5, None, mode="eval", with_grads=False, masks=masks
        )[0]

    np.testing.assert_allclose(loss, eval_loss(), rtol=1e-12)
    rng = np.random.default_rng(11)
    worst = 0.0
    for key in sorted(enc.tensors):
        arr = enc.tensors[key]
        # one index anywhere, one where the gradient is not zero
        for idx in (int(rng.integers(0, arr.size)), int(rng.choice(np.flatnonzero(grads[key])))):
            numeric = central_difference(eval_loss, arr, idx, step=1e-5)
            worst = max(worst, gradient_agreement(grads[key].flat[idx], numeric))
    assert worst < 1e-5, worst


def test_mlm_step_checks_max_positions_per_sentence(length_corpus):
    """A packed batch may hold more sub-tokens than ``max_positions``; a
    sentence may not."""
    docs, vocab = length_corpus
    pool = _mlm_pool(docs, vocab)
    longest = max(pool, key=len)
    batch = pool[:8] + [longest]
    cfg = EncoderConfig(**{**asdict(ENC), "vocab_size": len(vocab), "max_positions": longest.size})
    assert sum(ids.size for ids in batch) > cfg.max_positions
    rng = np.random.default_rng(0)
    loss, grads = mlm_batch_loss_and_grads(init_params(cfg), batch, vocab, 0.15, rng, "train")
    assert loss > 0.0 and grads is not None
    short = init_params(dataclasses.replace(cfg, max_positions=longest.size - 1))
    match = f"sentence of {longest.size} sub-tokens exceeds max_positions={longest.size - 1}"
    with pytest.raises(SentenceTooLongError, match=match):
        mlm_batch_loss_and_grads(short, batch, vocab, 0.15, rng, "train")


def test_eval_packs_rows_equal_full_pass_rows(length_corpus):
    """Every sentence is encoded once, and its rows have the bits of its
    own full pass, one-sub-token sentences included; a pack's slices tile
    its vectors in order, with no gap."""
    from dualner.encoder import encode_with_cache
    from dualner.model import _eval_packs

    docs, vocab = length_corpus
    model = _scaled_model("word_tagger", vocab)
    rng = np.random.default_rng(3)
    short = [np.arange(n) % len(vocab) for n in (1, 3, 3, 4, 4, 4, 1)]
    pool = _mlm_pool(docs, vocab)[:30] + short
    # row lists of differing lengths within a run, and runs whose sentences
    # all read one row, as an MLM mask of a short sentence does
    rows = [np.sort(rng.choice(ids.size, size=int(rng.integers(1, ids.size + 1)), replace=False))
            for ids in pool[:30]]
    rows += [np.array([ids.size - 1]) for ids in short]
    seen = []
    for pack, vecs, slices in _eval_packs(pool, model.encoder, rows):
        assert len(slices) == len(pack)
        stop = 0
        for i, sl in zip(pack, slices):
            assert (sl.start, sl.stop, sl.step) == (stop, stop + rows[i].size, None), i
            assert np.array_equal(vecs[sl], encode_with_cache(pool[i], model.encoder)[0][rows[i]]), i
            seen.append(i)
            stop = sl.stop
        assert stop == len(vecs)
    assert sorted(seen) == list(range(len(pool)))


def test_eval_packs_hold_at_most_128_subtokens(monkeypatch, length_corpus):
    """Eval packs take sentences shortest first, at most 128 sub-tokens to a
    pack; a longer sentence and each one-sub-token sentence go alone."""
    import dualner.model as model_mod

    docs, vocab = length_corpus
    model = _scaled_model("span_classifier", vocab)
    packs = []
    real = model_mod.encode_with_cache

    def spy(ids, *args, lengths=None, **kwargs):
        packs.append([np.size(ids)] if lengths is None else list(lengths))
        return real(ids, *args, lengths=lengths, **kwargs)

    monkeypatch.setattr(model_mod, "encode_with_cache", spy)
    docs = docs + [_one_sub_token_doc()]
    predict_documents(model, docs, vocab)
    assert any(len(pack) > 1 for pack in packs)
    assert all(sum(pack) <= 128 or len(pack) == 1 for pack in packs)
    assert all(len(pack) == 1 for pack in packs if 1 in pack)
    flat = [n for pack in packs for n in pack]
    assert flat == sorted(len(subtokenize(s.words, vocab).sub_token_ids) for d in docs for s in d.sentences)

    # 40 of length 5 fill one 125-row pack, and 15 more a pack with the two of
    # length 7; length 200 exceeds the cap alone, so each such sentence is
    # its own pack, as is each one-sub-token sentence
    ids = {n: np.arange(n) % len(vocab) for n in (1, 5, 7, 200)}
    pool = [ids[5]] * 20 + [ids[200], ids[7], ids[1]] + [ids[5]] * 20 + [ids[200], ids[7], ids[1]]
    packs.clear()
    mlm_batch_loss_and_grads(
        model.encoder, pool, vocab, 0.15, np.random.default_rng(0), mode="eval", with_grads=False
    )
    assert packs == [[1], [1], [5] * 25, [5] * 15 + [7, 7], [200], [200]]


@pytest.mark.parametrize("method", ["word_tagger", "span_classifier"])
def test_model_clone_shares_no_memory(tiny_setup, method):
    """Best-snapshot selection keeps a clone while training goes on, so no
    tensor of the clone may be a view of the model's."""
    _docs, vocab = tiny_setup
    model = _scaled_model(method, vocab)
    clone = model.clone()
    assert (clone.method, clone.labels, clone.head_cfg) == (model.method, model.labels, model.head_cfg)
    ours, theirs = model_tensors(model), model_tensors(clone)
    assert list(ours) == list(theirs)
    for key, arr in ours.items():
        assert np.array_equal(arr, theirs[key]), key
        assert not np.shares_memory(arr, theirs[key]), key


@pytest.mark.parametrize("method", ["word_tagger", "span_classifier"])
def test_model_checkpoint_roundtrip(tmp_path, tiny_setup, method):
    docs, vocab = tiny_setup
    model = _scaled_model(method, vocab)
    path = tmp_path / "model.npz"
    save_model(path, model)
    loaded = load_model(path)
    assert loaded.method == model.method
    assert loaded.labels == model.labels
    assert loaded.head_cfg == model.head_cfg
    assert list(model_tensors(loaded)) == list(model_tensors(model))
    for key, arr in model_tensors(model).items():
        assert np.array_equal(arr, model_tensors(loaded)[key])
    preds_a = predict_documents(model, docs[:2], vocab)
    preds_b = predict_documents(loaded, docs[:2], vocab)
    assert [s.mentions for d in preds_a for s in d.sentences] == [
        s.mentions for d in preds_b for s in d.sentences
    ]


def test_load_model_rejects_wrong_kind(tmp_path, tiny_setup):
    _docs, vocab = tiny_setup
    from dualner.encoder import save_checkpoint

    path = tmp_path / "enc.npz"
    save_checkpoint(path, {"kind": "encoder"}, {"x": np.zeros(3)})
    with pytest.raises(FormatError):
        load_model(path)


def test_load_model_rejects_non_object_config(tmp_path):
    from dualner.encoder import save_checkpoint

    path = tmp_path / "list.npz"
    save_checkpoint(path, ["model"], {"x": np.zeros(3)})
    with pytest.raises(FormatError, match="not a JSON object"):
        load_model(path)
