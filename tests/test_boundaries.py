"""Bad input at every file boundary exits 2 with one stderr line.

The regression cases run the CLI in process, one per known bad input; the
fuzz tests mutate valid corpus, prediction, vocabulary, experiment-config
and checkpoint files and check that no input ends in a traceback.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import struct
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualner.cli import main
from dualner.corpus import Document, LabelInventory, ScoredMention, Sentence, save_corpus
from dualner.encoder import EncoderConfig, init_params, load_checkpoint, save_checkpoint
from dualner.heads import HeadConfig
from dualner.model import init_model, save_model
from dualner.train import ExperimentConfig

SMALL_ENCODER = {"hidden_dim": 16, "n_layers": 1, "n_heads": 2, "ffn_dim": 24}
DOC = {
    "id": "d",
    "text": "Alpha Beta gamma.",
    "sentences": [
        {
            "words": ["Alpha", "Beta", "gamma."],
            "char_start": 0,
            "char_end": 17,
            "mentions": [{"start_word": 0, "end_word": 1, "label": "X", "score": 0.5}],
        }
    ],
}


def _run(argv) -> tuple[int, str]:
    """Exit code and stderr of one in-process CLI run; a traceback propagates."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


def _assert_data_error(code: int, err: str) -> None:
    assert code == 2, err
    assert err.startswith("data error:") and err.count("\n") == 1, err


def _write_json(path, obj) -> None:
    _put(path, json.dumps(obj).encode())


def _put(path, data: bytes) -> None:
    # a new file rather than a truncated one: rewriting a file in place can
    # wait for a flush of its old blocks, which made the fuzz tests 5x slower
    path.unlink(missing_ok=True)
    path.write_bytes(data)


# ---------------------------------------------------------------------------
# Unreadable files
# ---------------------------------------------------------------------------


@pytest.fixture()
def files(tmp_path, small_corpus, small_vocab):
    corpus, vocab = tmp_path / "corpus.jsonl", tmp_path / "vocab.json"
    save_corpus(small_corpus, corpus)
    small_vocab.save(vocab)
    missing = tmp_path / "missing"
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"id": "café"}\n'.encode("latin-1"))
    return {"corpus": corpus, "vocab": vocab, "missing": missing, "latin1": latin1, "dir": tmp_path}


UNREADABLE = {
    "gold": lambda f, bad: ["evaluate", "--gold", f[bad], "--pred", f["corpus"]],
    "pred": lambda f, bad: ["evaluate", "--gold", f["corpus"], "--pred", f[bad]],
    "corpus": lambda f, bad: ["analyze-fragmentation", "--corpus", f[bad], "--vocab", f["vocab"]],
    "vocab": lambda f, bad: ["analyze-fragmentation", "--corpus", f["corpus"], "--vocab", f[bad]],
    "config": lambda f, bad: ["train", "--config", f[bad], "--out-dir", f["dir"] / "run"],
}


@pytest.mark.parametrize("bad", ["missing", "latin1", "dir"])
@pytest.mark.parametrize("which", sorted(UNREADABLE))
def test_unreadable_file_exits_two(files, which, bad):
    code, err = _run(UNREADABLE[which](files, bad))
    _assert_data_error(code, err)
    assert str(files[bad]) in err


# ---------------------------------------------------------------------------
# Corpus and prediction records
# ---------------------------------------------------------------------------


def _sentence(doc):
    return doc["sentences"][0]


def _mention(doc):
    return _sentence(doc)["mentions"][0]


RECORD_FAULTS = {
    "mentions_int": (lambda d: _sentence(d).update(mentions=5), ("gold", "pred")),
    "mentions_null": (lambda d: _sentence(d).update(mentions=None), ("gold", "pred")),
    "start_word_true": (lambda d: _mention(d).update(start_word=True), ("gold", "pred")),
    "char_start_true": (lambda d: _sentence(d).update(char_start=True), ("gold", "pred")),
    "score_string": (lambda d: _mention(d).update(score="abc"), ("pred",)),
    "score_null": (lambda d: _mention(d).update(score=None), ("pred",)),
    "score_list": (lambda d: _mention(d).update(score=[1]), ("pred",)),
    "score_true": (lambda d: _mention(d).update(score=True), ("pred",)),
    "score_nan": (lambda d: _mention(d).update(score=float("nan")), ("pred",)),
    "mentions_misspelt": (lambda d: _sentence(d).update(mention=_sentence(d).pop("mentions")), ("gold", "pred")),
    "score_misspelt": (lambda d: _mention(d).update(Score=_mention(d).pop("score")), ("gold", "pred")),
    "extra_document_key": (lambda d: d.update(title="Alpha"), ("gold", "pred")),
}


@pytest.mark.parametrize(
    "fault, role",
    [(fault, role) for fault, (_edit, roles) in sorted(RECORD_FAULTS.items()) for role in roles],
)
def test_bad_record_exits_two(tmp_path, fault, role):
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    _write_json(good, DOC)
    doc = copy.deepcopy(DOC)
    RECORD_FAULTS[fault][0](doc)
    _write_json(bad, doc)
    assert _run(["evaluate", "--gold", good, "--pred", good]) == (0, "")
    gold, pred = (bad, good) if role == "gold" else (good, bad)
    code, err = _run(["evaluate", "--gold", gold, "--pred", pred])
    _assert_data_error(code, err)
    assert f"{bad}:1:" in err


RECORDS = {
    Document: (lambda d: d, "document"),
    Sentence: (_sentence, "document.sentences[0]"),
    ScoredMention: (_mention, "document.sentences[0].mentions[0]"),
}


@pytest.mark.parametrize("value", [True, {}], ids=["bool", "object"])
@pytest.mark.parametrize("role", ["gold", "pred"])
@pytest.mark.parametrize(
    "record, name", [(cls, f.name) for cls in RECORDS for f in fields(cls)], ids=lambda x: getattr(x, "__name__", x)
)
def test_every_record_field_rejects_a_wrong_type(tmp_path, record, name, role, value):
    """Cases come from the record fields, so a field added later is covered:
    a value of a type no field takes exits 2 naming the file, line, record
    path and field, in a gold file and in a prediction file."""
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    _write_json(good, DOC)
    doc = copy.deepcopy(DOC)
    of, path = RECORDS[record]
    of(doc)[name] = value
    _write_json(bad, doc)
    gold, pred = (bad, good) if role == "gold" else (good, bad)
    code, err = _run(["evaluate", "--gold", gold, "--pred", pred])
    _assert_data_error(code, err)
    assert f"{bad}:1: invalid {path}: {name} must be " in err


@pytest.mark.parametrize("role", ["gold", "pred"])
@pytest.mark.parametrize(
    "record, name",
    [(cls, f.name) for cls in RECORDS for f in fields(cls) if f.name not in ("mentions", "score")],
    ids=lambda x: getattr(x, "__name__", x),
)
def test_record_without_a_field_it_must_carry_exits_two(tmp_path, record, name, role):
    """Only "mentions" and "score" may be left out of a record: a document
    without "sentences" is refused, not read as one awaiting segmentation.
    ``segment`` and ``postprocess`` would run on such a document."""
    bad, out = tmp_path / "bad.jsonl", tmp_path / "out.jsonl"
    doc = copy.deepcopy(DOC)
    of, path = RECORDS[record]
    del of(doc)[name]
    _write_json(bad, doc)
    if role == "gold":
        code, err = _run(["segment", "--input", bad, "--output", out])
    else:
        code, err = _run(["postprocess", "--input", bad, "--strategy", "none", "--output", out])
    _assert_data_error(code, err)
    assert f"{bad}:1: invalid {path}: " in err and f"'{name}'" in err
    assert not out.exists()


def test_integer_score_is_read_as_a_float(tmp_path):
    pred, out = tmp_path / "pred.jsonl", tmp_path / "out.jsonl"
    doc = copy.deepcopy(DOC)
    _mention(doc)["score"] = 1
    _write_json(pred, doc)
    assert _run(["postprocess", "--input", pred, "--strategy", "none", "--output", out])[0] == 0
    assert '"score":1.0}' in out.read_text(encoding="utf-8")


VOCAB_FAULTS = {
    "pad_bool": (lambda obj: obj["special"].update(pad=True), "special ids must be integers"),
    "pad_float": (lambda obj: obj["special"].update(pad=1.0), "special ids must be integers"),
    "pad_inf": (lambda obj: obj["special"].update(pad=float("inf")), "special ids must be integers"),
    "pad_string": (lambda obj: obj["special"].update(pad="0"), "special ids must be integers"),
    "symbols_object": (lambda obj: obj.update(symbols=dict.fromkeys(obj["symbols"], 0)), '"symbols" must be'),
    "merge_string": (lambda obj: obj["merges"].__setitem__(0, "".join(obj["merges"][0])), '"merges" must be'),
    "unknown_key": (lambda obj: obj.update(symbol=obj["symbols"]), "unknown keys in vocabulary: ['symbol']"),
    "unknown_special": (lambda obj: obj["special"].update(sep=3), """unknown keys in "special": ['sep']"""),
    "special_list": (lambda obj: obj.update(special=[0, 1, 2]), '"special" must be a JSON object'),
}


@pytest.mark.parametrize("fault", sorted(VOCAB_FAULTS))
def test_bad_vocab_value_exits_two(tmp_path, files, small_vocab, fault):
    obj = small_vocab.to_json()
    edit, message = VOCAB_FAULTS[fault]
    edit(obj)
    path = tmp_path / "bad_vocab.json"
    _write_json(path, obj)
    code, err = _run(["analyze-fragmentation", "--corpus", files["corpus"], "--vocab", path])
    _assert_data_error(code, err)
    assert message in err


def test_vocab_not_an_object_exits_two(tmp_path, files):
    path = tmp_path / "bad_vocab.json"
    _write_json(path, [1, 2])
    code, err = _run(["analyze-fragmentation", "--corpus", files["corpus"], "--vocab", path])
    _assert_data_error(code, err)
    assert "vocabulary file must be a JSON object" in err


# ---------------------------------------------------------------------------
# Experiment-config values
# ---------------------------------------------------------------------------


CONFIG_FAULTS = {
    "hidden_dim_float": ("encoder", {"hidden_dim": 8.0}),
    "max_positions_float": ("encoder", {"max_positions": 64.5}),
    "max_span_width_float": ("heads", {"max_span_width": 2.5}),
    "n_train_float": (None, {"n_train": 4.0}),
    "epochs_float": ("train", {"epochs": 1.5}),
    "batch_size_float": ("train", {"batch_size": 2.5}),
    "learning_rate_nan": ("train", {"learning_rate": float("nan")}),
    "early_stop_f1_string": ("train", {"early_stop_f1": "x"}),
    "select_metric": ("train", {"select_metric": "micro_f1"}),
    "init_seed": ("encoder", {"init_seed": 0}),
    "seeds_float": (None, {"seeds": [1.5]}),
    "seeds_string": (None, {"seeds": ["a"]}),
    "seeds_bool": (None, {"seeds": [True]}),
    "vocab_size_string": (None, {"vocab_size": "x"}),
    "corpus_int": (None, {"corpus": 5}),
}


@pytest.mark.parametrize("fault", sorted(CONFIG_FAULTS))
def test_bad_config_value_exits_two_before_any_work(tmp_path, files, fault):
    config = {
        "corpus": str(files["corpus"]),
        "n_train": 16,
        "vocab_size": 170,
        "methods": ["word_tagger"],
        "seeds": [0],
        "encoder": dict(SMALL_ENCODER),
        "heads": {},
        "train": {"epochs": 1},
    }
    section, values = CONFIG_FAULTS[fault]
    (config[section] if section else config).update(values)
    cfg_path = tmp_path / "exp.json"
    _write_json(cfg_path, config)
    run_dir = tmp_path / "run"
    code, err = _run(["train", "--config", cfg_path, "--out-dir", run_dir])
    _assert_data_error(code, err)
    assert next(iter(values)) in err
    if fault == "init_seed":
        assert f"unknown keys in {cfg_path}.encoder: ['init_seed']" in err
    assert not run_dir.exists()


def test_float_fields_accept_json_integers():
    cfg = ExperimentConfig.from_dict(
        {"corpus": "c", "n_train": 2, "train": {"learning_rate": 1, "early_stop_f1": 1, "grad_clip": 0}}
    )
    assert (cfg.train.learning_rate, cfg.train.early_stop_f1, cfg.train.grad_clip) == (1, 1, 0)


# ---------------------------------------------------------------------------
# Checkpoint tensors
# ---------------------------------------------------------------------------


def _set_first(value):
    def edit(arr):
        arr = arr.copy()
        arr.flat[0] = value
        return arr

    return edit


TENSOR_FAULTS = {
    "string": lambda a: np.full(a.shape, "a"),
    "int": lambda a: a.astype(np.int64),
    "complex": lambda a: a.astype(np.complex128),
    "float32": lambda a: a.astype(np.float32),
    "nan": _set_first(np.nan),
    "inf": _set_first(-np.inf),
}


def _small_model(vocab, method="word_tagger"):
    enc_cfg = EncoderConfig(vocab_size=len(vocab), **SMALL_ENCODER)
    return init_model(method, LabelInventory.from_types(["Facility", "Instrument", "SkyObject"]), enc_cfg, HeadConfig())


@pytest.mark.parametrize("fault", sorted(TENSOR_FAULTS))
@pytest.mark.parametrize("key", ["encoder.tok_emb", "heads.tagger.w"])
def test_bad_model_tensor_exits_two(tmp_path, files, small_vocab, fault, key):
    ckpt, out = tmp_path / "model.npz", tmp_path / "pred.jsonl"
    save_model(ckpt, _small_model(small_vocab))
    config, tensors = load_checkpoint(ckpt)
    tensors[key] = TENSOR_FAULTS[fault](tensors[key])
    save_checkpoint(ckpt, config, tensors)
    code, err = _run([
        "predict", "--corpus", files["corpus"], "--vocab", files["vocab"], "--checkpoint", ckpt, "--out", out,
    ])
    _assert_data_error(code, err)
    assert key in err
    assert not out.exists()


def _set_zip_flag(bit):
    def edit(raw, n_vocab):
        (cd_offset,) = struct.unpack_from("<I", raw, raw.rfind(b"PK\x05\x06") + 16)
        raw[cd_offset + 8] |= 1 << bit  # flag bits of the first central-directory entry

    return edit


def _break_npy_header(raw, n_vocab):
    # tok_emb is too large for zipfile to check its CRC before numpy parses the header
    at = raw.index(b"False, 'shape': (%d, 16)" % n_vocab)
    raw[at] = ord("]")


# zipfile refuses flagged entries with RuntimeError or NotImplementedError,
# and numpy a broken header with tokenize.TokenError, none a BadZipFile
CHECKPOINT_DAMAGE = {
    "encrypted": _set_zip_flag(0),
    "patched": _set_zip_flag(5),
    "strong_encryption": _set_zip_flag(6),
    "npy_header": _break_npy_header,
}


@pytest.mark.parametrize("damage", sorted(CHECKPOINT_DAMAGE))
def test_damaged_checkpoint_exits_two(tmp_path, files, small_vocab, damage):
    ckpt, out = tmp_path / "model.npz", tmp_path / "pred.jsonl"
    save_model(ckpt, _small_model(small_vocab))
    raw = bytearray(ckpt.read_bytes())
    CHECKPOINT_DAMAGE[damage](raw, len(small_vocab))
    _put(ckpt, bytes(raw))
    code, err = _run([
        "predict", "--corpus", files["corpus"], "--vocab", files["vocab"], "--checkpoint", ckpt, "--out", out,
    ])
    _assert_data_error(code, err)
    assert not out.exists()


@pytest.mark.parametrize("fault", ["int", "nan"])
def test_bad_encoder_snapshot_tensor_exits_two(tmp_path, files, small_vocab, fault):
    enc = init_params(EncoderConfig(vocab_size=len(small_vocab), **SMALL_ENCODER))
    tensors = dict(enc.tensors, tok_emb=TENSOR_FAULTS[fault](enc.tensors["tok_emb"]))
    save_checkpoint(
        tmp_path / "mlm" / "mlm_step_000000.npz",
        {"kind": "encoder", "step": 0, "encoder": asdict(enc.config)},
        tensors,
    )
    cfg_path = tmp_path / "exp.json"
    _write_json(cfg_path, {"corpus": str(files["corpus"]), "n_train": 16, "train": {"epochs": 1}})
    out_dir = tmp_path / "sweep"
    code, err = _run([
        "sweep-tapt", "--config", cfg_path, "--vocab", files["vocab"],
        "--checkpoints", tmp_path / "mlm", "--out-dir", out_dir,
    ])
    _assert_data_error(code, err)
    assert "tok_emb" in err
    assert not out_dir.exists()


# ---------------------------------------------------------------------------
# Fuzzing: any mutation of a valid file exits 0, 1 or 2 without a traceback
# ---------------------------------------------------------------------------


def _json_values(integers=st.integers()):
    scalars = st.none() | st.booleans() | integers | st.floats() | st.text(max_size=5)
    return st.recursive(
        scalars, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
        max_leaves=6,
    )


def _slots(obj):
    """Every (container, key) pair inside a JSON value, depth first."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in list(items):
        yield obj, key
        yield from _slots(value)


@st.composite
def _mutated(draw, base, values=_json_values()):
    """``base`` with one slot replaced or deleted, or a new key added."""
    obj = copy.deepcopy(base)
    container, key = draw(st.sampled_from(list(_slots(obj))))
    action = draw(st.sampled_from(["replace", "delete", "add"]))
    if action == "replace":
        container[key] = draw(values)
    elif action == "delete":
        del container[key]
    elif isinstance(container, dict):
        container[draw(st.text(max_size=5))] = draw(values)
    else:
        container.append(draw(values))
    return obj


def _file_contents(base):
    """Valid JSON mutated, or arbitrary bytes."""
    mutated = _mutated(base).map(lambda obj: json.dumps(obj).encode())
    return mutated | st.binary(max_size=64)


def _assert_handled(argv) -> int:
    code, err = _run(argv)
    assert code in (0, 1, 2), err
    assert err.count("\n") == 1 if code else err.count("\n") <= 1, err
    return code


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory, small_corpus, small_vocab):
    root = tmp_path_factory.mktemp("fuzz")
    save_corpus(small_corpus[:2], root / "corpus.jsonl")
    small_vocab.save(root / "vocab.json")
    _write_json(root / "doc.jsonl", DOC)
    return root


@settings(max_examples=250, deadline=None)
@given(data=_file_contents(DOC), role=st.sampled_from(["gold", "pred"]))
def test_fuzz_corpus_and_predictions(fuzz_dir, data, role):
    good, bad = fuzz_dir / "doc.jsonl", fuzz_dir / "bad.jsonl"
    _put(bad, data)
    gold, pred = (bad, good) if role == "gold" else (good, bad)
    _assert_handled(["evaluate", "--gold", gold, "--pred", pred, "--mcc"])


@pytest.fixture(scope="module")
def vocab_json(small_vocab):
    return small_vocab.to_json()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzz_vocabulary(fuzz_dir, vocab_json, data):
    path = fuzz_dir / "bad_vocab.json"
    _put(path, data.draw(_file_contents(vocab_json)))
    _assert_handled(["analyze-fragmentation", "--corpus", fuzz_dir / "corpus.jsonl", "--vocab", path])


FUZZ_CONFIG = {
    "corpus": "missing.jsonl",
    "n_train": 1,
    "vocab": None,
    "vocab_size": 200,
    "methods": ["word_tagger", "span_classifier"],
    "seeds": [0, 1],
    "eval_splits": ["tune"],
    "encoder": {"vocab_size": 0, "max_positions": 64, "dropout_rate": 0.1, **SMALL_ENCODER},
    "heads": {"max_span_width": 4, "span_len_dim": 4, "span_hidden": 8},
    "train": {"epochs": 1, "learning_rate": 0.01, "early_stop_f1": None, "method": "word_tagger"},
    "mlm": {"total_steps": 10, "checkpoint_every": 5, "mask_prob": 0.15},
}


@settings(max_examples=250, deadline=None)
@given(data=_file_contents(FUZZ_CONFIG))
def test_fuzz_experiment_config(fuzz_dir, data):
    # the corpus never exists, so a config that loads ends in a data error
    # before any training; a fuzzed corpus path that happens to exist is
    # just another bad corpus
    path = fuzz_dir / "bad_config.json"
    _put(path, data)
    code = _assert_handled(["train", "--config", path, "--out-dir", fuzz_dir / "run"])
    assert code != 0


_CHECKPOINT_VALUES = _json_values(st.integers(-2, 40) | st.integers(min_value=2**40))
_TENSOR_EDITS = st.sampled_from(sorted(TENSOR_FAULTS)).map(TENSOR_FAULTS.get) | st.sampled_from([
    lambda a: a[..., :-1],
    lambda a: a.reshape(-1),
    lambda a: np.zeros(0),
])


@st.composite
def _checkpoint_edit(draw, config, tensors):
    """A (config, tensors) pair with one edit, or None for a damaged file."""
    kind = draw(st.sampled_from(["config", "tensor", "drop", "extra", "damaged"]))
    tensors = dict(tensors)
    if kind == "damaged":
        return None
    if kind == "config":
        return draw(_mutated(config, _CHECKPOINT_VALUES)), tensors
    if kind == "extra":
        tensors["extra"] = np.zeros(2)
        return config, tensors
    key = draw(st.sampled_from(sorted(tensors)))
    if kind == "tensor":
        tensors[key] = draw(_TENSOR_EDITS)(tensors[key])
    else:
        del tensors[key]
    return config, tensors


def _write_checkpoint(path, data, config, tensors) -> None:
    """A checkpoint with one edit, or the valid one truncated or with one
    byte flipped."""
    path.parent.mkdir(parents=True, exist_ok=True)
    edit = data.draw(_checkpoint_edit(config, tensors))
    path.unlink(missing_ok=True)  # see _put
    save_checkpoint(path, *(edit or (config, tensors)))
    if edit is None:
        raw = bytearray(path.read_bytes())
        at = data.draw(st.integers(0, len(raw) - 1))
        if data.draw(st.booleans()):
            raw = raw[:at]
        else:
            raw[at] ^= data.draw(st.integers(1, 255))
        _put(path, bytes(raw))


@pytest.fixture(scope="module")
def fuzz_model(fuzz_dir, small_vocab):
    path = fuzz_dir / "model.npz"
    save_model(path, _small_model(small_vocab, "span_classifier"))
    return load_checkpoint(path)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzz_model_checkpoint(fuzz_dir, fuzz_model, data):
    ckpt = fuzz_dir / "bad_model.npz"
    _write_checkpoint(ckpt, data, *fuzz_model)
    (fuzz_dir / "pred.jsonl").unlink(missing_ok=True)
    _assert_handled([
        "predict", "--corpus", fuzz_dir / "corpus.jsonl", "--vocab", fuzz_dir / "vocab.json",
        "--checkpoint", ckpt, "--out", fuzz_dir / "pred.jsonl",
    ])


@pytest.fixture(scope="module")
def fuzz_snapshot(fuzz_dir, small_vocab):
    enc = init_params(EncoderConfig(vocab_size=len(small_vocab), **SMALL_ENCODER))
    _write_json(fuzz_dir / "sweep.json", {"corpus": str(fuzz_dir / "corpus.jsonl"), "n_train": 1, "train": {"epochs": 0}})
    return {"kind": "encoder", "step": 0, "encoder": asdict(enc.config)}, enc.tensors


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzz_encoder_snapshot(fuzz_dir, fuzz_snapshot, data):
    ckpt = fuzz_dir / "mlm" / "mlm_step_000000.npz"
    _write_checkpoint(ckpt, data, *fuzz_snapshot)
    for out in ("sweep.json", "sweep.txt"):
        (fuzz_dir / "sweep" / out).unlink(missing_ok=True)
    _assert_handled([
        "sweep-tapt", "--config", fuzz_dir / "sweep.json", "--vocab", fuzz_dir / "vocab.json",
        "--checkpoints", fuzz_dir / "mlm", "--out-dir", fuzz_dir / "sweep",
    ])
