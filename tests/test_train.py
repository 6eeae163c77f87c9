from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dualner import model as model_module
from dualner import train as train_module
from dualner.corpus import Document, LabelInventory, Sentence, generate_synthetic, split_train_tune, write_json
from dualner.encoder import EncoderConfig, init_params, load_encoder_snapshot, save_checkpoint
from dualner.errors import FormatError, ProtocolError, SentenceTooLongError, TrainingError, UnusableDataError
from dualner.heads import HeadConfig
from dualner.model import (
    METHODS,
    flat_views,
    init_model,
    load_model,
    mlm_batch_loss_and_grads,
    mlm_mask,
    model_tensors,
    predict_documents,
    save_model,
)
from dualner.subtok import subtokenize, train_bpe
from dualner.train import (
    _BLOCK,
    AdamW,
    ExperimentConfig,
    MlmConfig,
    ProtocolReport,
    TrainConfig,
    move_to_store,
    pretrain_mlm,
    protocol_report,
    sweep_tapt_checkpoints,
    train_runs,
    train_supervised,
    write_log,
)

from .oracles import (
    adamw_step_reference,
    mlm_pools,
    mlm_probe_losses_reference,
    pretrain_mlm_reference,
    train_supervised_reference,
)

INV = LabelInventory.from_types(["Alpha", "Beta"])
ENC = EncoderConfig(hidden_dim=32, n_layers=1, n_heads=2, ffn_dim=48)
HEADS = HeadConfig(max_span_width=8, span_len_dim=8, span_hidden=24)


@pytest.fixture(scope="module")
def mini():
    docs = generate_synthetic(21, 8, INV)
    train_docs, tune_docs = split_train_tune(docs, 6)
    vocab = train_bpe(train_docs, 170)
    return train_docs, tune_docs, vocab


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(method="viterbi")
    with pytest.raises(ValueError):
        MlmConfig(total_steps=100, checkpoint_every=33)
    MlmConfig(total_steps=99, checkpoint_every=33)


def test_zero_epochs_returns_initialization(mini):
    train_docs, tune_docs, vocab = mini
    cfg = TrainConfig(epochs=0, seed=3)
    result = train_supervised(train_docs, tune_docs, vocab, ENC, HEADS, cfg)
    assert result.log == []
    assert result.best_step == 0 and result.best_tune_f1 is None
    fresh = init_model(
        "word_tagger", INV, dataclasses.replace(ENC, vocab_size=len(vocab)), HEADS, seed=cfg.seed
    )
    for key, arr in model_tensors(result.model).items():
        assert np.array_equal(arr, model_tensors(fresh)[key])


def test_same_seed_bit_identical(mini):
    train_docs, tune_docs, vocab = mini
    cfg = TrainConfig(epochs=3, seed=5, checkpoint_every=4)
    a = train_supervised(train_docs, tune_docs, vocab, ENC, HEADS, cfg)
    b = train_supervised(train_docs, tune_docs, vocab, ENC, HEADS, cfg)
    assert a.log == b.log
    assert a.best_step == b.best_step
    for key, arr in model_tensors(a.model).items():
        assert np.array_equal(arr, model_tensors(b.model)[key])


def test_different_seed_differs(mini):
    train_docs, tune_docs, vocab = mini
    a = train_supervised(train_docs, tune_docs, vocab, ENC, HEADS, TrainConfig(epochs=2, seed=1))
    b = train_supervised(train_docs, tune_docs, vocab, ENC, HEADS, TrainConfig(epochs=2, seed=2))
    assert a.log != b.log


def test_loss_decreases_over_first_ten_steps(mini):
    train_docs, tune_docs, vocab = mini
    # full-batch (one step per epoch) so every step sees the same fixed batch
    cfg = TrainConfig(epochs=10, seed=0, batch_size=64, learning_rate=1e-3, warmup_frac=0.0)
    result = train_supervised(train_docs, tune_docs, vocab, ENC, HEADS, cfg)
    losses = [e.value for e in result.log if e.metric == "loss"][:10]
    assert len(losses) == 10
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_checkpoint_selection_argmax_ties_earliest(mini):
    train_docs, tune_docs, vocab = mini
    cfg = TrainConfig(epochs=4, seed=2, checkpoint_every=1)
    result = train_supervised(train_docs, tune_docs, vocab, ENC, HEADS, cfg)
    series = [(e.step, e.value) for e in result.log if e.split == "tune" and e.metric == "micro_f1"]
    best = max(v for _s, v in series)
    first_best = min(s for s, v in series if v == best)
    assert result.best_step == first_best
    assert result.best_tune_f1 == best


def test_final_partial_interval_still_evaluated(mini):
    train_docs, tune_docs, vocab = mini
    cfg = TrainConfig(epochs=1, seed=0, checkpoint_every=1000)
    result = train_supervised(train_docs, tune_docs, vocab, ENC, HEADS, cfg)
    tune_entries = [e for e in result.log if e.split == "tune" and e.metric == "micro_f1"]
    assert len(tune_entries) == 1


def test_each_tune_snapshot_logs_precision_recall_and_predicted_mentions(mini):
    """A snapshot logs micro F1, precision, recall and the predicted mention
    count (tp + fp) of one report; the count makes a model that predicts
    nothing visible in the log."""
    train_docs, tune_docs, vocab = mini
    cfg = TrainConfig(method="span_classifier", epochs=2, seed=0, checkpoint_every=1)
    result = train_supervised(train_docs, tune_docs, vocab, ENC, HEADS, cfg)
    tune = [e for e in result.log if e.split == "tune"]
    steps = sorted({e.step for e in tune})
    assert len(steps) == 4
    metrics = ["micro_f1", "precision", "recall", "pred_mentions"]
    assert [(e.step, e.metric) for e in tune] == [(step, m) for step in steps for m in metrics]
    n_gold = sum(len(s.mentions) for d in tune_docs for s in d.sentences)
    for step in steps:
        f1, precision, recall, pred = (e.value for e in tune if e.step == step)
        assert pred == int(pred) >= 0
        tp = round(recall * n_gold)
        assert precision == (tp / pred if pred else 0.0) and f1 == (2 * tp / (pred + n_gold))


def test_tune_split_without_a_mention_is_refused_before_the_first_step(mini, monkeypatch):
    """Its tune F1 would read 1.0 for a model that predicts nothing, so an
    early stop at 0.99 would keep an untrained model."""
    train_docs, tune_docs, vocab = mini
    unlabeled = [dataclasses.replace(d, sentences=[dataclasses.replace(s, mentions=[]) for s in d.sentences])
                 for d in tune_docs]

    def no_step(*args, **kwargs):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(train_module, "batch_loss_and_grads", no_step)
    cfg = TrainConfig(epochs=2, seed=0, early_stop_f1=0.99)
    with pytest.raises(UnusableDataError, match="^the tune split holds no entity mention"):
        train_supervised(train_docs, unlabeled, vocab, ENC, HEADS, cfg)


def test_divergence_raises_training_error(mini):
    # layer norm keeps moderate blow-ups finite; an absurd step size drives
    # the attention products past float range into nan within one epoch
    train_docs, tune_docs, vocab = mini
    cfg = TrainConfig(epochs=2, seed=0, learning_rate=1e160, grad_clip=0.0, warmup_frac=0.0)
    with np.errstate(all="ignore"), pytest.raises(TrainingError, match="step"):
        train_supervised(train_docs, tune_docs, vocab, ENC, HEADS, cfg)


def _hex_log(log):
    return [(e.step, e.split, e.metric, e.value.hex()) for e in log]


@pytest.mark.parametrize(
    "method, epochs, checkpoint_every, early_stop_f1",
    [
        ("word_tagger", 3, 4, None),  # 2 steps per epoch: tune at 4 and at the last step, 6
        ("span_classifier", 3, 4, None),
        ("word_tagger", 3, 2, 0.0),  # stops at the first snapshot, step 2 of 6
        ("span_classifier", 3, 2, 0.0),
        ("span_classifier", 0, 4, None),
    ],
)
def test_train_matches_reference_loop(mini, method, epochs, checkpoint_every, early_stop_f1):
    """The shared step loop gives the log, best step, best F1 and weights of
    the two nested loops it replaced."""
    train_docs, tune_docs, vocab = mini
    enc = dataclasses.replace(ENC, dropout_rate=0.1)
    cfg = TrainConfig(method=method, epochs=epochs, seed=4, checkpoint_every=checkpoint_every,
                      early_stop_f1=early_stop_f1)
    ours = train_supervised(train_docs, tune_docs, vocab, enc, HEADS, cfg)
    model, log, best_step, best_f1 = train_supervised_reference(train_docs, tune_docs, vocab, enc, HEADS, cfg)
    steps = [e.step for e in log if e.split == "train"]
    if epochs and early_stop_f1 is None:
        assert steps[-1] % checkpoint_every != 0  # the last snapshot is off the interval
    if early_stop_f1 is not None:
        assert steps[-1] == checkpoint_every < epochs * 2
    assert _hex_log(ours.log) == _hex_log(log)
    assert (ours.best_step, ours.best_tune_f1) == (best_step, best_f1)
    theirs = model_tensors(model)
    assert all(np.array_equal(a, theirs[k]) for k, a in model_tensors(ours.model).items())


def test_empty_splits_rejected(mini):
    train_docs, tune_docs, vocab = mini
    with pytest.raises(ValueError):
        train_supervised([], tune_docs, vocab, ENC, HEADS, TrainConfig())
    with pytest.raises(ValueError):
        train_supervised(train_docs, [], vocab, ENC, HEADS, TrainConfig())


def _long_doc(docs, vocab):
    """(A document "long-doc" whose sentence 1 joins every word of
    ``docs``, that sentence's sub-token count, the longest of ``docs``)."""
    words = [w for d in docs for s in d.sentences for w in s.words]
    lengths = [len(subtokenize(s.words, vocab).sub_token_ids) for d in docs for s in d.sentences]
    long_doc = Document("long-doc", "", [docs[0].sentences[0], Sentence(words, 0, 0)])
    return long_doc, len(subtokenize(words, vocab).sub_token_ids), max(lengths)


@pytest.mark.parametrize("split", ["train", "tune"])
def test_too_long_sentence_is_refused_before_the_first_step(mini, monkeypatch, split):
    """A sentence of either split longer than ``max_positions`` stops
    training before any step, and the error names it by document and index."""
    train_docs, tune_docs, vocab = mini
    long_doc, n_long, n_fit = _long_doc(list(train_docs) + list(tune_docs), vocab)
    if split == "train":
        train_docs = list(train_docs) + [long_doc]
    else:
        tune_docs = list(tune_docs) + [long_doc]
    steps = []
    monkeypatch.setattr(train_module, "batch_loss_and_grads", lambda *args: steps.append(args))
    message = rf"sentence of {n_long} sub-tokens exceeds max_positions={n_fit} in long-doc\[1\]$"
    with pytest.raises(SentenceTooLongError, match=message):
        train_supervised(train_docs, tune_docs, vocab, dataclasses.replace(ENC, max_positions=n_fit),
                         HEADS, TrainConfig(epochs=2, checkpoint_every=50))
    assert steps == []


def test_predict_and_pretrain_name_a_too_long_sentence(mini):
    train_docs, _tune_docs, vocab = mini
    long_doc, n_long, n_fit = _long_doc(train_docs, vocab)
    docs = list(train_docs) + [long_doc]
    enc = dataclasses.replace(ENC, vocab_size=len(vocab), max_positions=n_fit)
    message = rf"sentence of {n_long} sub-tokens exceeds max_positions={n_fit} in long-doc\[1\]$"
    with pytest.raises(SentenceTooLongError, match=message):
        predict_documents(init_model("word_tagger", INV, enc, HEADS), docs, vocab)
    with pytest.raises(SentenceTooLongError, match=message):
        pretrain_mlm(docs, vocab, enc, MlmConfig(total_steps=2, checkpoint_every=2))


def _store(tensors: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """``tensors``, moved into one store as training moves them."""
    move_to_store({"": tensors})
    return tensors


def _flat_grads(values: np.ndarray, tensors: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Gradients in the optimizer's layout: views of the flat ``values``."""
    return flat_views(values, {k: v.shape for k, v in tensors.items()})


def test_adamw_skips_decay_on_vectors():
    tensors = _store({"w": np.ones((2, 2)), "b": np.ones(2)})
    grads = _flat_grads(np.zeros(6), tensors)
    opt = AdamW(tensors, learning_rate=0.1, weight_decay=0.5)
    opt.step(grads)
    assert np.all(tensors["b"] == 1.0)  # no decay, zero grad
    assert np.all(tensors["w"] < 1.0)  # decayed


@pytest.mark.parametrize("grad_clip", [0.0, 0.05, 1e9], ids=["no_clip", "clipping", "clip_inactive"])
def test_adamw_matches_allocating_reference(grad_clip):
    """Every step, over tensors of three sizes laid out in two blocks, the
    matrices ending inside the second, equals the allocating reference and
    leaves the gradients as they are."""
    rng = np.random.default_rng(3)
    shapes = {"w": (12, 10), "b": (10,), "emb": (300, 64)}
    n = sum(int(np.prod(shape)) for shape in shapes.values())
    assert _BLOCK < n - 10 < 2 * _BLOCK  # the decayed region ends inside the second block
    start = {k: rng.normal(size=shape) for k, shape in shapes.items()}
    ours, ref = (_store({k: v.copy() for k, v in start.items()}) for _ in range(2))
    settings = dict(learning_rate=0.05, weight_decay=0.1, warmup_steps=5)
    opt, ref_opt = AdamW(ours, **settings, grad_clip=grad_clip), AdamW(ref, **settings)
    for _step in range(20):
        grads = _flat_grads(rng.normal(size=n), ours)
        kept = {k: v.copy() for k, v in grads.items()}
        opt.step(grads)
        assert all(np.array_equal(grads[k], kept[k]) for k in grads)
        adamw_step_reference(ref_opt, ref, grads, grad_clip)
    assert (opt.t, ref_opt.t) == (20, 20)
    for k in shapes:
        assert np.array_equal(ours[k], ref[k])
        assert np.array_equal(opt.m[k], ref_opt.m[k])
        assert np.array_equal(opt.v[k], ref_opt.v[k])


def test_adamw_step_with_workspace_allocates_no_tensor_sized_arrays():
    """Steps over a 1883 x 64 ``tok_emb``, the first included, take every
    temporary from the optimizer's own block buffers, built with it (a
    ``tok_emb``-sized array is 941 KiB)."""
    enc = init_params(EncoderConfig(vocab_size=1883, hidden_dim=64, n_layers=2, n_heads=4, ffn_dim=128))
    tensors = _store(enc.tensors)
    grads = _flat_grads(np.random.default_rng(0).normal(size=sum(v.size for v in tensors.values())), tensors)
    opt = AdamW(tensors, learning_rate=1e-3, weight_decay=0.01, warmup_steps=2, grad_clip=1.0)
    tracemalloc.start()
    try:
        for _step in range(3):
            opt.step(grads)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def _other_layouts(tensors):
    """Gradient dicts for ``tensors`` {"w": (4, 3), "u": (4, 3), "b": (3,)}
    that are not in the optimizer's layout."""
    shapes = {k: v.shape for k, v in tensors.items()}
    flat, wide = np.zeros(27), np.zeros(28)
    swapped = flat_views(flat, shapes)
    swapped["w"], swapped["u"] = swapped["u"], swapped["w"]
    return {
        "separate_arrays": {k: np.zeros(s) for k, s in shapes.items()},
        "swapped_views": swapped,
        "vectors_first": {"b": flat[:3], "w": flat[3:15].reshape(4, 3), "u": flat[15:].reshape(4, 3)},
        "gap": {"w": wide[:12].reshape(4, 3), "u": wide[12:24].reshape(4, 3), "b": wide[25:]},
        "two_stores": flat_views(np.zeros(27), shapes) | {"b": np.zeros(30)[:3]},
        "transposed": flat_views(flat, shapes) | {"w": flat[:12].reshape(3, 4).T},
        "float32": flat_views(np.zeros(27, dtype=np.float32), shapes),
        "missing": {k: v for k, v in flat_views(flat, shapes).items() if k != "b"},
        "extra": flat_views(np.zeros(30), shapes | {"c": (3,)}),
    }


@pytest.mark.parametrize("case", ["separate_arrays", "swapped_views", "vectors_first", "gap", "two_stores",
                                  "transposed", "float32", "missing", "extra"])
def test_adamw_refuses_gradients_in_another_layout(case):
    tensors = _store({"w": np.ones((4, 3)), "u": np.ones((4, 3)), "b": np.ones(3)})
    opt = AdamW(tensors, learning_rate=0.1, weight_decay=0.5, grad_clip=1.0)
    kept = {k: v.copy() for k, v in tensors.items()}
    with pytest.raises(ValueError):
        opt.step(_other_layouts(tensors)[case])
    assert opt.t == 0
    assert all(np.array_equal(tensors[k], kept[k]) for k in tensors)
    opt.step(_flat_grads(np.zeros(27), tensors))  # the optimizer's own layout is taken
    assert opt.t == 1


def test_adamw_refuses_tensors_outside_one_store():
    with pytest.raises(ValueError, match="not views of one flat float64 store"):
        AdamW({"w": np.ones((2, 2)), "b": np.ones(2)}, learning_rate=0.1)
    with pytest.raises(ValueError, match="at least one tensor"):
        AdamW({}, learning_rate=0.1)


_THREADS_SCRIPT = """
import hashlib
import numpy as np
from dualner.encoder import EncoderConfig, init_params, load_encoder_snapshot, save_checkpoint
from dualner.model import flat_views
from dualner.train import AdamW, move_to_store
tensors = move_to_store({"": init_params(EncoderConfig(vocab_size=1883)).tensors})
shapes = {k: v.shape for k, v in tensors.items()}
rng = np.random.default_rng(0)
opt = AdamW(tensors, learning_rate=1e-3, weight_decay=0.01, warmup_steps=2, grad_clip=1.0)
for _ in range(3):
    opt.step(flat_views(rng.normal(size=sum(v.size for v in tensors.values())), shapes))
h = hashlib.sha256()
for k in sorted(tensors):
    h.update(tensors[k].tobytes() + opt.m[k].tobytes() + opt.v[k].tobytes())
print(h.hexdigest())
"""


def test_adamw_step_bits_do_not_depend_on_blas_threads():
    """Three clipped steps over an MLM-sized store give the same bits at one
    and at two BLAS threads, each in a process of its own."""
    root = Path(__file__).resolve().parent.parent
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", _THREADS_SCRIPT], env=env, check=True,
                              capture_output=True, text=True, timeout=120)
        digests.append(done.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def test_write_log_jsonl(tmp_path, mini):
    train_docs, tune_docs, vocab = mini
    result = train_supervised(
        train_docs, tune_docs, vocab, ENC, HEADS, TrainConfig(epochs=1, seed=0)
    )
    path = tmp_path / "log.jsonl"
    write_log(path, result.log)
    lines = path.read_text().splitlines()
    assert len(lines) == len(result.log)
    first = json.loads(lines[0])
    assert set(first) == {"step", "split", "metric", "value"}


# ---------------------------------------------------------------------------
# MLM pre-training
# ---------------------------------------------------------------------------


def test_pretrain_checkpoint_structure(mini):
    train_docs, _tune, vocab = mini
    cfg = MlmConfig(total_steps=20, checkpoint_every=5, seed=1)
    result = pretrain_mlm(train_docs, vocab, ENC, cfg)
    assert [s for s, _ in result.checkpoints] == [0, 5, 10, 15, 20]
    assert len(result.checkpoints) == cfg.total_steps // cfg.checkpoint_every + 1
    init = init_model(
        "word_tagger", INV, dataclasses.replace(ENC, vocab_size=len(vocab)), HEADS, seed=cfg.seed
    )
    step0 = result.checkpoints[0][1]
    for key, arr in step0.tensors.items():
        assert np.array_equal(arr, init.encoder.tensors[key])


def test_pretrain_losses_logged_and_decreasing(mini):
    train_docs, _tune, vocab = mini
    cfg = MlmConfig(total_steps=30, checkpoint_every=15, seed=2, learning_rate=2e-3)
    result = pretrain_mlm(train_docs, vocab, ENC, cfg)
    assert result.probe_loss(30) < result.probe_loss(0)
    assert result.probe_loss(30, "heldout") > 0.0


def test_pretrain_deterministic(mini):
    train_docs, _tune, vocab = mini
    cfg = MlmConfig(total_steps=10, checkpoint_every=5, seed=3)
    a = pretrain_mlm(train_docs, vocab, ENC, cfg)
    b = pretrain_mlm(train_docs, vocab, ENC, cfg)
    assert a.log == b.log
    for (sa, pa), (sb, pb) in zip(a.checkpoints, b.checkpoints):
        assert sa == sb
        for key in pa.tensors:
            assert np.array_equal(pa.tensors[key], pb.tensors[key])


def _seed_children(seed: int):
    """The generators ``pretrain_mlm`` has always drawn from: the seed was
    spawned twice, two children each time; training took the first child of
    the first spawn and the probes the second child of the second."""
    seq = np.random.SeedSequence(seed)
    train_seed = seq.spawn(2)[0]
    probe_seed = seq.spawn(2)[1]
    return train_seed, probe_seed


def test_pretrain_matches_reference_optimizer_and_probe_scoring(mini, monkeypatch):
    """The run equals one with the allocating optimizer, no workspace, and
    every probe scored one sentence at a time from a fresh probe generator
    (the first k training sentences' masks, then the held-out pool's, each
    scored)."""
    train_docs, _tune, vocab = mini
    cfg = MlmConfig(total_steps=10, checkpoint_every=5, seed=3, grad_clip=0.05)
    ours = pretrain_mlm(train_docs, vocab, ENC, cfg)
    train_pool, heldout_pool, k = mlm_pools(train_docs, vocab)

    real = train_module.mlm_batch_loss_and_grads
    probe_calls = []

    def reference(enc, batch, vocab, mask_prob, mask_rng, mode="train", with_grads=True,
                  workspace=None, masks=None):
        if with_grads:
            return real(enc, batch, vocab, mask_prob, mask_rng, mode)
        if len(probe_calls) % 2 == 0:  # the training probe comes first
            probe_calls.append(mlm_probe_losses_reference(
                enc, train_pool, heldout_pool, k, vocab, mask_prob,
                np.random.default_rng(_seed_children(cfg.seed)[1]),
            ))
            return probe_calls[-1][0], None
        probe_calls.append(probe_calls[-1])
        return probe_calls[-1][1], None

    monkeypatch.setattr(train_module, "mlm_batch_loss_and_grads", reference)
    monkeypatch.setattr(AdamW, "step", lambda self, grads:
                        adamw_step_reference(self, self.tensors, grads, self.grad_clip))
    ref = pretrain_mlm(train_docs, vocab, ENC, cfg)
    assert len(probe_calls) == 2 * len(ref.checkpoints)  # the held-out pool is probed too
    assert ours.log == ref.log
    assert [s for s, _ in ours.checkpoints] == [s for s, _ in ref.checkpoints]
    for (_s, a), (_r, b) in zip(ours.checkpoints, ref.checkpoints):
        assert a.tensors.keys() == b.tensors.keys()
        assert all(np.array_equal(a.tensors[k], b.tensors[k]) for k in a.tensors)


def test_pretrain_matches_reference_loop(mini):
    """The shared step loop gives the log and snapshots of the loop it
    replaced, with a batch size that does not divide the training pool."""
    train_docs, _tune, vocab = mini
    enc = dataclasses.replace(ENC, dropout_rate=0.1)
    cfg = MlmConfig(total_steps=8, checkpoint_every=4, seed=2, batch_size=5)
    train_pool, _heldout, _k = mlm_pools(train_docs, vocab)
    assert len(train_pool) % cfg.batch_size != 0
    ours = pretrain_mlm(train_docs, vocab, enc, cfg)
    checkpoints, log = pretrain_mlm_reference(train_docs, vocab, enc, cfg)
    assert _hex_log(ours.log) == _hex_log(log)
    assert [s for s, _ in ours.checkpoints] == [s for s, _ in checkpoints] == [0, 4, 8]
    for (_s, a), (_r, b) in zip(ours.checkpoints, checkpoints):
        assert a.tensors.keys() == b.tensors.keys()
        assert all(np.array_equal(a.tensors[k], b.tensors[k]) for k in a.tensors)


def test_pretrain_seed_children_are_pinned(mini):
    """Training draws from child (0,) of the MLM seed and the probe masks
    from child (3,); a change here changes every logged loss."""
    train_docs, _tune, vocab = mini
    cfg = MlmConfig(total_steps=5, checkpoint_every=5, seed=6, batch_size=3)
    result = pretrain_mlm(train_docs, vocab, ENC, cfg)
    train_seed, probe_seed = _seed_children(cfg.seed)
    assert (train_seed.spawn_key, probe_seed.spawn_key) == ((0,), (3,))
    train_pool, heldout_pool, k = mlm_pools(train_docs, vocab)
    init = result.checkpoints[0][1]

    train_probe, held_probe = mlm_probe_losses_reference(
        init, train_pool, heldout_pool, k, vocab, cfg.mask_prob, np.random.default_rng(probe_seed)
    )
    assert result.probe_loss(0).hex() == train_probe.hex()
    assert result.probe_loss(0, "heldout").hex() == held_probe.hex()

    rng = np.random.default_rng(train_seed)
    batch = [train_pool[i] for i in rng.permutation(len(train_pool))[: cfg.batch_size]]
    first, _ = mlm_batch_loss_and_grads(init, batch, vocab, cfg.mask_prob, rng, "train")
    logged = [e.value for e in result.log if e.step == 1 and e.metric == "mlm_batch_loss"]
    assert [v.hex() for v in logged] == [first.hex()]


@pytest.mark.parametrize("fraction", [0.0, 0.1, 0.9], ids=["no_tail", "default", "tail_larger_than_pool"])
def test_pretrain_probes_score_k_training_sentences_and_the_whole_tail(mini, fraction):
    """The training probe scores the pool's first k sentences, k the tail's
    size, or the whole pool's without a tail or with a larger one.  At every
    snapshot the held-out probe equals the reference over the tail, whose
    masks follow the k training sentences' draws; k is a pure function of
    the pool sizes, so the held-out probe still depends on nothing else."""
    train_docs, _tune, vocab = mini
    cfg = MlmConfig(total_steps=4, checkpoint_every=2, seed=4, heldout_fraction=fraction)
    train_pool, heldout_pool, k = mlm_pools(train_docs, vocab, fraction)
    n_train, n_tail = len(train_pool), len(heldout_pool)
    if fraction == MlmConfig().heldout_fraction:
        assert 0 < n_tail < n_train and k == n_tail
    else:  # no tail, or one larger than the pool
        assert (n_tail == 0 or n_tail > n_train) and k == n_train
    result = pretrain_mlm(train_docs, vocab, ENC, cfg)
    assert result.train_probe_sentences == k
    probe_seed = _seed_children(cfg.seed)[1]
    for step, enc in result.checkpoints:
        train_probe, held_probe = mlm_probe_losses_reference(
            enc, train_pool, heldout_pool, k, vocab, cfg.mask_prob, np.random.default_rng(probe_seed)
        )
        assert result.probe_loss(step).hex() == train_probe.hex()
        if heldout_pool:
            assert result.probe_loss(step, "heldout").hex() == held_probe.hex()
        else:
            with pytest.raises(KeyError):
                result.probe_loss(step, "heldout")
    assert [e.split for e in result.log if e.metric == "mlm_loss"] == (
        ["train", "heldout"] if heldout_pool else ["train"]) * len(result.checkpoints)


def test_pretrain_tiny_mask_prob_masks_one_position_and_trains(mini):
    """Every sentence masks at least one position, so even a tiny rate
    trains: the last snapshot's weights differ from step 0's."""
    rng = np.random.default_rng(0)
    for n in (1, 7, 40):
        _corrupted, positions, _targets = mlm_mask(np.arange(n) + 3, 50, 2, 1e-9, rng)
        assert positions.size == 1, n
    train_docs, _tune, vocab = mini
    cfg = MlmConfig(total_steps=5, checkpoint_every=5, mask_prob=1e-9, seed=0)
    result = pretrain_mlm(train_docs, vocab, ENC, cfg)
    first = result.checkpoints[0][1]
    last = result.checkpoints[-1][1]
    assert all(not np.array_equal(first.tensors[k], last.tensors[k]) for k in first.tensors)
    assert result.probe_loss(0) > 0.0


def test_pretrain_requires_mask_token(mini):
    train_docs, _tune, vocab = mini
    no_mask = dataclasses.replace(vocab, mask_id=None)
    with pytest.raises(ValueError, match="mask token"):
        pretrain_mlm(train_docs, no_mask, ENC, MlmConfig(total_steps=5, checkpoint_every=5))


# ---------------------------------------------------------------------------
# Checkpoint sweep
# ---------------------------------------------------------------------------


def test_sweep_single_checkpoint_equals_baseline(mini):
    """An MLM run at seed s draws its step-0 snapshot as a fresh supervised
    run at seed s draws its encoder, so fine-tuning from that snapshot at
    seed s is the fresh run."""
    train_docs, tune_docs, vocab = mini
    seed = 4
    mlm = pretrain_mlm(train_docs, vocab, ENC, MlmConfig(total_steps=5, checkpoint_every=5, seed=seed))
    cfg = TrainConfig(epochs=2, seed=seed, checkpoint_every=3)
    baseline = train_supervised(train_docs, tune_docs, vocab, ENC, HEADS, cfg)
    warm = train_supervised(train_docs, tune_docs, vocab, ENC, HEADS, cfg, init_encoder=mlm.checkpoints[0][1])
    assert warm.log == baseline.log
    theirs = model_tensors(baseline.model)
    assert all(np.array_equal(a, theirs[k]) for k, a in model_tensors(warm.model).items())
    points = sweep_tapt_checkpoints(mlm.checkpoints[:1], train_docs, tune_docs, vocab, HEADS, cfg)
    assert len(points) == 1
    assert points[0].step == 0
    assert (points[0].f1, points[0].best_step) == (baseline.best_tune_f1, baseline.best_step)


@pytest.mark.parametrize("method", METHODS)
def test_warm_start_keeps_the_snapshot_and_draws_the_head_from_the_run_seed(mini, method):
    """Runs of two seeds from one snapshot start from the same encoder
    tensors, and each draws its head from its own seed."""
    train_docs, tune_docs, vocab = mini
    snap = pretrain_mlm(train_docs, vocab, ENC, MlmConfig(total_steps=5, checkpoint_every=5, seed=2)).checkpoints[-1][1]
    models = [
        train_supervised(train_docs, tune_docs, vocab, ENC, HEADS, TrainConfig(method=method, epochs=0, seed=seed),
                         init_encoder=snap).model
        for seed in (0, 1)
    ]
    for model in models:
        assert all(np.array_equal(a, snap.tensors[k]) for k, a in model.encoder.tensors.items())
    drawn = [k for k, a in models[0].heads.items() if a.ndim >= 2]  # biases start at zero
    assert drawn and all(not np.array_equal(models[0].heads[k], models[1].heads[k]) for k in drawn)


def test_warm_start_draws_no_encoder(mini, monkeypatch):
    """A fresh run draws its encoder once; a warm-started run draws none,
    and its head is the one a fresh run of that seed draws."""
    train_docs, tune_docs, vocab = mini
    snap = pretrain_mlm(train_docs, vocab, ENC, MlmConfig(total_steps=5, checkpoint_every=5, seed=2)).checkpoints[-1][1]
    calls = []
    real = model_module.init_params
    monkeypatch.setattr(model_module, "init_params", lambda *args: calls.append(args) or real(*args))
    cfg = TrainConfig(epochs=1, seed=3, checkpoint_every=2)
    fresh = train_supervised(train_docs, tune_docs, vocab, ENC, HEADS, cfg)
    assert len(calls) == 1
    warm = train_supervised(train_docs, tune_docs, vocab, ENC, HEADS, dataclasses.replace(cfg, epochs=0),
                            init_encoder=snap)
    with pytest.raises(ValueError, match="configuration does not match encoder_cfg"):
        train_supervised(train_docs, tune_docs, vocab, dataclasses.replace(ENC, ffn_dim=40), HEADS, cfg,
                         init_encoder=snap)
    assert len(calls) == 1
    init = init_model(cfg.method, INV, dataclasses.replace(ENC, vocab_size=len(vocab)), HEADS, seed=3)
    assert warm.model.heads.keys() == init.heads.keys() == fresh.model.heads.keys()
    assert all(np.array_equal(a, init.heads[k]) for k, a in warm.model.heads.items())
    assert all(np.array_equal(a, snap.tensors[k]) for k, a in warm.model.encoder.tensors.items())


def _one_store(tensors: dict[str, np.ndarray]) -> None:
    """``tensors`` are views of one flat store in the optimizer's layout:
    an ``AdamW`` over them is refused otherwise."""
    AdamW(tensors, learning_rate=1e-3)
    assert len({id(a.base) for a in tensors.values()}) == 1


def test_tensors_are_views_of_one_store_during_training(mini, monkeypatch):
    """At every step the model's (or the MLM encoder's) own tensor dicts
    hold views of one store, and the step's gradients are in its layout."""
    train_docs, tune_docs, vocab = mini
    seen = []
    real_batch, real_mlm = train_module.batch_loss_and_grads, train_module.mlm_batch_loss_and_grads

    def batch(model, *args):
        _one_store(model_tensors(model))
        seen.append("supervised")
        return real_batch(model, *args)

    def mlm(enc, *args, **kwargs):
        if kwargs.get("with_grads", True):
            _one_store(enc.tensors)
            seen.append("mlm")
        return real_mlm(enc, *args, **kwargs)

    monkeypatch.setattr(train_module, "batch_loss_and_grads", batch)
    monkeypatch.setattr(train_module, "mlm_batch_loss_and_grads", mlm)
    snap = pretrain_mlm(train_docs, vocab, ENC, MlmConfig(total_steps=4, checkpoint_every=2)).checkpoints[-1][1]
    for method in METHODS:
        train_supervised(train_docs, tune_docs, vocab, ENC, HEADS, TrainConfig(method=method, epochs=1))
        train_supervised(train_docs, tune_docs, vocab, ENC, HEADS, TrainConfig(method=method, epochs=1),
                         init_encoder=snap)
    steps = -(-len([s for d in train_docs for s in d.sentences]) // TrainConfig().batch_size)
    assert seen == ["mlm"] * 4 + ["supervised"] * (4 * steps)


def _own_arrays(tensors: dict[str, np.ndarray]) -> bool:
    return all(a.flags.owndata for a in tensors.values())


def test_returned_models_and_snapshots_hold_own_arrays_that_survive_save_and_load(mini, tmp_path):
    """Returned models and MLM snapshots own their arrays, share none with
    each other or with the snapshot a run started from, and save and load
    bit for bit."""
    train_docs, tune_docs, vocab = mini
    mlm = pretrain_mlm(train_docs, vocab, ENC, MlmConfig(total_steps=4, checkpoint_every=2, seed=1))
    kept = [(step, {k: a.copy() for k, a in enc.tensors.items()}) for step, enc in mlm.checkpoints]
    snapshot_arrays = [a for _, enc in mlm.checkpoints for a in enc.tensors.values()]
    assert all(_own_arrays(enc.tensors) for _, enc in mlm.checkpoints)
    for step, enc in mlm.checkpoints:
        path = tmp_path / f"mlm_{step}.npz"
        save_checkpoint(path, {"kind": "encoder", "step": step, "encoder": dataclasses.asdict(enc.config)},
                        enc.tensors)
        _config, loaded, _ = load_encoder_snapshot(path, "encoder")
        assert all(np.array_equal(loaded.tensors[k], a) for k, a in enc.tensors.items())
    cfg = TrainConfig(epochs=2, seed=1, checkpoint_every=2)
    warm = train_supervised(train_docs, tune_docs, vocab, ENC, HEADS, cfg, init_encoder=mlm.checkpoints[-1][1])
    for method in METHODS:
        result = train_supervised(train_docs, tune_docs, vocab, ENC, HEADS, dataclasses.replace(cfg, method=method))
        for trained in (result.model, warm.model):
            tensors = model_tensors(trained)
            assert _own_arrays(tensors)
            assert not any(np.shares_memory(a, b) for a in tensors.values() for b in snapshot_arrays)
            save_model(tmp_path / "model.npz", trained)
            loaded = model_tensors(load_model(tmp_path / "model.npz"))
            assert loaded.keys() == tensors.keys()
            assert all(np.array_equal(loaded[k], a) for k, a in tensors.items())
    for (step, before), (_step, enc) in zip(kept, mlm.checkpoints):  # training left every snapshot as it was
        assert all(np.array_equal(a, enc.tensors[k]) for k, a in before.items()), step


def test_sweep_curve_length(mini):
    train_docs, tune_docs, vocab = mini
    mlm = pretrain_mlm(train_docs, vocab, ENC, MlmConfig(total_steps=10, checkpoint_every=5, seed=0))
    cfg = TrainConfig(epochs=1, seed=4)
    points = sweep_tapt_checkpoints(mlm.checkpoints, train_docs, tune_docs, vocab, HEADS, cfg)
    assert [p.step for p in points] == [0, 5, 10]


# ---------------------------------------------------------------------------
# Multi-seed protocol
# ---------------------------------------------------------------------------


def test_protocol_structure_and_aggregation(mini):
    train_docs, tune_docs, vocab = mini
    results = train_runs(
        train_docs,
        tune_docs,
        vocab,
        methods=["word_tagger", "span_classifier"],
        seeds=[0, 1],
        encoder_cfg=ENC,
        head_cfg=HEADS,
        train_cfg=TrainConfig(epochs=2, checkpoint_every=4),
    )
    report = protocol_report(results, {"train": train_docs, "tune": tune_docs}, vocab)
    assert set(report.rows) == {
        (m, "desk", s)
        for m in ("word_tagger", "span_classifier")
        for s in ("train", "tune")
    }
    for vals in report.rows.values():
        for metric in ("f1", "precision", "recall", "mcc"):
            cell = vals[metric]
            assert len(cell["values"]) == 2
            assert cell["mean"] == pytest.approx(float(np.mean(cell["values"])))
    table = report.render_table()
    assert "word_tagger" in table and "span_classifier" in table
    assert "tune" in table


def test_protocol_report_dict_pins_the_format():
    cell = {"mean": 0.5, "std": 0.0, "values": [0.5, 0.5]}
    report = ProtocolReport(
        methods=["word_tagger"], encoders=["desk"], splits=["tune"], seeds=[0, 1], metrics=["f1"],
        rows={("word_tagger", "desk", "tune"): {"f1": cell}},
    )
    assert json.dumps(report.to_dict()) == (
        '{"methods": ["word_tagger"], "encoders": ["desk"], "splits": ["tune"], "seeds": [0, 1], '
        '"metrics": ["f1"], "rows": [{"method": "word_tagger", "encoder": "desk", "split": "tune", '
        '"metrics": {"f1": {"mean": 0.5, "std": 0.0, "values": [0.5, 0.5]}}}]}'
    )


def test_protocol_requires_two_seeds(mini, monkeypatch):
    """One seed has no standard deviation: refused before any run is scored."""
    _train_docs, tune_docs, vocab = mini
    scored = []
    monkeypatch.setattr(train_module, "predict_documents", lambda *args: scored.append(args))
    with pytest.raises(ValueError, match="at least 2 seeds"):
        protocol_report({("word_tagger", 0): None, ("span_classifier", 0): None}, {"tune": tune_docs}, vocab)
    assert scored == []


def test_protocol_refuses_repeated_methods_and_seeds(mini, monkeypatch):
    """A repeated method or seed would run twice and count twice in the
    mean and the standard deviation."""
    train_docs, tune_docs, vocab = mini
    runs = []
    monkeypatch.setattr(train_module, "train_supervised", lambda *args: runs.append(args))
    for methods, seeds in ((["word_tagger", "word_tagger"], [0, 1]), (["word_tagger"], [0, 0])):
        with pytest.raises(ValueError, match="must be distinct"):
            train_runs(train_docs, tune_docs, vocab, methods, seeds, ENC, HEADS, TrainConfig(epochs=1))
    assert runs == []


def test_train_runs_returns_the_grid_in_method_major_order(mini, monkeypatch):
    """Each run gets its method and seed in its train config and shares the
    encoder config; keys run method-major."""
    train_docs, tune_docs, vocab = mini
    monkeypatch.setattr(train_module, "train_supervised", lambda *args: (args[3], args[5]))
    results = train_module.train_runs(
        train_docs, tune_docs, vocab, ["span_classifier", "word_tagger"], [3, 0], ENC, HEADS, TrainConfig(epochs=1),
    )
    assert list(results) == [("span_classifier", 3), ("span_classifier", 0), ("word_tagger", 3), ("word_tagger", 0)]
    for (method, seed), (encoder_cfg, run_cfg) in results.items():
        assert (encoder_cfg, run_cfg.seed, run_cfg.method) == (ENC, seed, method)


@pytest.mark.parametrize("methods, seeds, message", [
    (["word_tagger"], [0, -1], "seed >= 0"),
    (["word_tagger", "viterbi"], [0], "viterbi"),
    (["word_tagger"], [2, 2], "must be distinct"),
])
def test_train_runs_checks_every_run_before_the_first(mini, monkeypatch, methods, seeds, message):
    """A bad seed or method of a later run is refused before any run trains."""
    train_docs, tune_docs, vocab = mini
    runs = []
    monkeypatch.setattr(train_module, "train_supervised", lambda *args: runs.append(args))
    with pytest.raises(ValueError, match=message):
        train_module.train_runs(train_docs, tune_docs, vocab, methods, seeds, ENC, HEADS, TrainConfig(epochs=1))
    assert runs == []


def test_train_runs_names_each_failed_run_after_its_cause(mini, monkeypatch):
    """Failures are collected into one error: each cause, then its run."""
    train_docs, tune_docs, vocab = mini

    def seed_one_fails(*args):
        if args[5].seed == 1:
            raise TrainingError(f"{args[5].method} diverged")
        return args[5]

    monkeypatch.setattr(train_module, "train_supervised", seed_one_fails)
    with pytest.raises(ProtocolError) as err:
        train_module.train_runs(train_docs, tune_docs, vocab, list(METHODS), [0, 1], ENC, HEADS, TrainConfig(epochs=1))
    assert str(err.value) == "; ".join(f"{m} diverged ({m} seed 1)" for m in METHODS)
    assert err.value.failures == [(m, 1, f"{m} diverged") for m in METHODS]


def test_protocol_refuses_empty_eval_sets(mini, monkeypatch):
    """Without an eval split the report would be an empty table: refused
    before any run is scored."""
    _train_docs, _tune_docs, vocab = mini
    scored = []
    monkeypatch.setattr(train_module, "predict_documents", lambda *args: scored.append(args))
    with pytest.raises(ValueError, match="at least one eval split"):
        protocol_report({("word_tagger", 0): None, ("word_tagger", 1): None}, {}, vocab)
    assert scored == []


def test_protocol_zero_std_for_identical_metrics():
    from dualner.evaluate import mean_std

    mean, std = mean_std([0.5, 0.5, 0.5])
    assert std == pytest.approx(0.0, abs=1e-12)


def test_protocol_reports_failed_seeds(mini, monkeypatch):
    """A failure after a run that really trained is still collected."""
    train_docs, tune_docs, vocab = mini
    real = train_module.train_supervised

    def flaky(*args, **kwargs):
        if args[5].seed == 1:
            raise TrainingError("injected failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(train_module, "train_supervised", flaky)
    with pytest.raises(ProtocolError) as err:
        train_runs(train_docs, tune_docs, vocab, ["word_tagger"], [0, 1], ENC, HEADS, TrainConfig(epochs=1))
    assert err.value.failures == [("word_tagger", 1, "injected failure")]
    assert "seed 1" in str(err.value)


def test_protocol_propagates_other_errors_at_once(mini, monkeypatch):
    """Only a ``TrainingError`` is collected: any other error stops the grid
    at the run that raised it."""
    train_docs, tune_docs, vocab = mini
    calls = []

    def broken(*args, **kwargs):
        calls.append(args[5].seed)
        raise KeyError("not a training failure")

    monkeypatch.setattr(train_module, "train_supervised", broken)
    with pytest.raises(KeyError, match="not a training failure"):
        train_runs(train_docs, tune_docs, vocab, ["word_tagger"], [0, 1], ENC, HEADS, TrainConfig(epochs=1))
    assert calls == [0]


# ---------------------------------------------------------------------------
# Experiment config files
# ---------------------------------------------------------------------------


def test_experiment_config_roundtrip(tmp_path):
    cfg = ExperimentConfig(
        corpus="corpus.jsonl",
        n_train=6,
        seeds=[0, 1, 2],
        encoder=ENC,
        heads=HEADS,
        train=TrainConfig(epochs=9),
        mlm=MlmConfig(total_steps=30, checkpoint_every=10),
    )
    path = tmp_path / "exp.json"
    write_json(path, dataclasses.asdict(cfg))
    loaded = ExperimentConfig.load(path)
    assert loaded == cfg


def test_experiment_config_is_immutable(tmp_path):
    cfg = ExperimentConfig(corpus="c", n_train=2, seeds=[0, 1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.methods = ["crf"]
    with pytest.raises(AttributeError):
        cfg.seeds.append(-1)
    assert (cfg.methods, cfg.seeds, cfg.eval_splits) == (METHODS, (0, 1), ("tune",))
    write_json(tmp_path / "exp.json", dataclasses.asdict(cfg))
    saved = json.loads((tmp_path / "exp.json").read_text(encoding="utf-8"))
    assert (saved["methods"], saved["seeds"], saved["eval_splits"]) == (list(METHODS), [0, 1], ["tune"])


def test_experiment_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"corpus": "c", "n_train": 2, "trian": {}}), encoding="utf-8")
    with pytest.raises(FormatError, match="trian"):
        ExperimentConfig.load(path)
    path.write_text(json.dumps({"corpus": "c", "n_train": 2, "train": {"epcohs": 3}}), encoding="utf-8")
    with pytest.raises(FormatError, match="epcohs"):
        ExperimentConfig.load(path)


@pytest.mark.parametrize(
    "section, fault, message",
    [
        ("train", {"learning_rate": -1.0}, "learning_rate must be positive"),
        ("train", {"epochs": "3"}, "invalid"),
        ("mlm", {"total_steps": 100, "checkpoint_every": 33}, "must divide"),
        ("encoder", {"hidden_dim": 10, "n_heads": 4}, "not divisible"),
        ("encoder", {"vocab_size": -1}, "vocab_size"),
        ("heads", {"max_span_width": 0}, "head dimensions"),
        (None, {"methods": ["crf"]}, "method must be one of"),
        ("encoder", {"hidden_dim": 0}, "hidden_dim must be positive"),
        ("mlm", {"learning_rate": -1.0}, "learning_rate must be positive"),
        ("mlm", {"warmup_frac": 1.0}, "warmup_frac must be in"),
        ("train", {"warmup_frac": -0.1}, "warmup_frac must be in"),
        ("train", {"grad_clip": -1.0}, "grad_clip must be >= 0"),
        ("mlm", {"grad_clip": -1.0}, "grad_clip must be >= 0"),
        ("train", {"weight_decay": -0.01}, "weight_decay and grad_clip"),
        ("mlm", {"weight_decay": -0.01}, "weight_decay and grad_clip"),
        # written while the encoder config held a seed
        ("encoder", {"init_seed": 0}, "unknown.*'init_seed'"),
        (None, {"seeds": [0, -1]}, "seed >= 0"),
        ("train", {"seed": -1}, "seed >= 0"),
        ("mlm", {"seed": -1}, "mlm seed must be >= 0"),
        (None, {"seeds": [1, 1]}, r"methods and seeds must be distinct, got \[.*\] and \[1, 1\]"),
        (None, {"methods": ["word_tagger", "word_tagger"]},
         r"methods and seeds must be distinct, got \['word_tagger', 'word_tagger'\]"),
        (None, {"eval_splits": ["tune", "tune"]}, "eval_splits must be distinct"),
        (None, {"eval_splits": []}, "eval_splits must be non-empty"),
        (None, {"seeds": [0, -1]}, "word_tagger seed -1: "),
        ("mlm", {"mask_prob": 0.0}, "mask_prob must be in"),
    ],
)
def test_experiment_config_checks_every_section(tmp_path, section, fault, message):
    obj = {"corpus": "c", "n_train": 2}
    obj.update({section: fault} if section else fault)
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(FormatError, match=message):
        ExperimentConfig.load(path)
    # vocab_size 0 (the default) is filled in later, so it passes
    ExperimentConfig.from_dict({"corpus": "c", "n_train": 2, "encoder": {"vocab_size": 0}})
