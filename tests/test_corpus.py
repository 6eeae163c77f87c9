from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualner.corpus import (
    Document,
    LabelInventory,
    Mention,
    ScoredMention,
    Sentence,
    SyntheticProfile,
    generate_synthetic,
    load_corpus,
    load_predictions,
    mentions_cross,
    mentions_overlap,
    save_corpus,
    select_by_score,
    split_train_tune,
    strip_segmentation,
    synthetic_pools,
)
from dualner.errors import FormatError, ValidationError

from .oracles import select_by_score_reference


def _write(tmp_path, lines, name="corpus.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _doc_line(**overrides):
    obj = {
        "id": "d0",
        "text": "the COSMOS machine runs",
        "sentences": [
            {
                "words": ["the", "COSMOS", "machine", "runs"],
                "char_start": 0,
                "char_end": 23,
                "mentions": [{"start_word": 1, "end_word": 2, "label": "Facility"}],
            }
        ],
    }
    obj.update(overrides)
    return json.dumps(obj)


def test_load_minimal_document(tmp_path):
    docs = load_corpus(_write(tmp_path, [_doc_line()]))
    assert len(docs) == 1
    assert docs[0].sentences[0].mentions == [Mention(1, 2, "Facility")]
    inventory = LabelInventory.from_documents(docs)
    assert inventory.types == ("Facility",)


def test_load_rejects_reversed_mention(tmp_path):
    line = _doc_line(
        sentences=[
            {
                "words": ["a", "b", "c"],
                "char_start": 0,
                "char_end": 5,
                "mentions": [{"start_word": 2, "end_word": 1, "label": "X"}],
            }
        ]
    )
    with pytest.raises(ValidationError, match="d0"):
        load_corpus(_write(tmp_path, [line]))


def test_load_rejects_nested_gold(tmp_path):
    line = _doc_line(
        sentences=[
            {
                "words": ["a", "b", "c", "d"],
                "char_start": 0,
                "char_end": 7,
                "mentions": [
                    {"start_word": 0, "end_word": 3, "label": "X"},
                    {"start_word": 1, "end_word": 2, "label": "X"},
                ],
            }
        ]
    )
    with pytest.raises(ValidationError, match="overlapping or nested"):
        load_corpus(_write(tmp_path, [line]))


def test_load_reports_line_number(tmp_path):
    path = _write(tmp_path, [_doc_line(), "{not json"])
    with pytest.raises(FormatError) as err:
        load_corpus(path)
    assert err.value.line == 2


def test_empty_sentences_signal_needs_segmentation(tmp_path):
    path = _write(tmp_path, [json.dumps({"id": "raw", "text": "some text.", "sentences": []})])
    (doc,) = load_corpus(path)
    assert doc.sentences == []


def test_roundtrip_byte_identical(tmp_path, inventory, small_corpus):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    save_corpus(small_corpus, first)
    save_corpus(load_corpus(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_saved_lines_pin_the_format(tmp_path):
    """Record fields define the written keys and their order; pin one gold
    and one prediction line, non-ASCII text included."""
    sent = Sentence(words=["Café", "b"], char_start=0, char_end=6, mentions=[Mention(0, 1, "X")])
    gold = Document(id="g", text="Café b", sentences=[sent])
    scored = Sentence(["Café", "b"], 0, 6, [ScoredMention(0, 0, "X", score=0.25), ScoredMention(1, 1, "Y")])
    pred = Document(id="p", text="Café b", sentences=[scored])
    path = tmp_path / "c.jsonl"
    save_corpus([gold, pred], path)
    assert path.read_text(encoding="utf-8") == (
        '{"id":"g","text":"Café b","sentences":[{"words":["Café","b"],"char_start":0,"char_end":6,'
        '"mentions":[{"start_word":0,"end_word":1,"label":"X"}]}]}\n'
        '{"id":"p","text":"Café b","sentences":[{"words":["Café","b"],"char_start":0,"char_end":6,'
        '"mentions":[{"start_word":0,"end_word":0,"label":"X","score":0.25},'
        '{"start_word":1,"end_word":1,"label":"Y","score":0.0}]}]}\n'
    )


def test_predictions_roundtrip_scores_and_allow_nesting(tmp_path):
    doc = Document(
        id="p0",
        text="a b c d",
        sentences=[
            Sentence(
                words=["a", "b", "c", "d"],
                char_start=0,
                char_end=7,
                mentions=[ScoredMention(0, 3, "X", score=0.9), ScoredMention(1, 2, "X", score=0.5)],
            )
        ],
    )
    path = tmp_path / "pred.jsonl"
    save_corpus([doc], path)
    (loaded,) = load_predictions(path)
    assert loaded.sentences[0].mentions == doc.sentences[0].mentions
    with pytest.raises(ValidationError):
        load_corpus(path)


def test_split_matches_published_protocol_sizes():
    docs = [Document(id=f"d{i}", text="") for i in range(1753)]
    train, tune = split_train_tune(docs, 1578)
    assert (len(train), len(tune)) == (1578, 175)
    assert train[0].id == "d0" and tune[0].id == "d1578"


def test_split_two_docs():
    docs = [Document(id="a", text=""), Document(id="b", text="")]
    train, tune = split_train_tune(docs, 1)
    assert [d.id for d in train] == ["a"]
    assert [d.id for d in tune] == ["b"]


def test_split_rejects_empty_tune():
    docs = [Document(id=str(i), text="") for i in range(10)]
    with pytest.raises(ValueError):
        split_train_tune(docs, 10)
    with pytest.raises(ValueError):
        split_train_tune(docs, 0)


@given(n=st.integers(2, 40), cut=st.data())
@settings(max_examples=50, deadline=None)
def test_split_preserves_order_and_multiplicity(n, cut):
    docs = [Document(id=f"d{i}", text="") for i in range(n)]
    k = cut.draw(st.integers(1, n - 1))
    train, tune = split_train_tune(docs, k)
    assert [d.id for d in train + tune] == [d.id for d in docs]


def test_generate_deterministic(inventory):
    a = generate_synthetic(7, 5, inventory)
    b = generate_synthetic(7, 5, inventory)
    assert [json.dumps([s.words for s in d.sentences]) for d in a] == [
        json.dumps([s.words for s in d.sentences]) for d in b
    ]
    assert [[m for s in d.sentences for m in s.mentions] for d in a] == [
        [m for s in d.sentences for m in s.mentions] for d in b
    ]


def test_generate_labels_from_inventory(inventory):
    docs = generate_synthetic(3, 100, inventory)
    labels = {m.label for d in docs for s in d.sentences for m in s.mentions}
    assert labels <= set(inventory.types)
    assert labels  # mentions actually occur


def test_generate_oov_fraction_calibrated(inventory):
    profile = SyntheticProfile(oov_fraction=0.25)
    docs = generate_synthetic(13, 1000, inventory, profile)
    _common, _type_pools, oov = synthetic_pools(13, inventory)
    oov_set = set(oov)
    total = hit = 0
    for doc in docs:
        for sent in doc.sentences:
            for m in sent.mentions:
                for w in range(m.start_word, m.end_word + 1):
                    total += 1
                    hit += sent.words[w] in oov_set
    assert total > 1000
    assert abs(hit / total - 0.25) < 0.03


def test_generate_validates_args(inventory):
    with pytest.raises(ValueError):
        generate_synthetic(0, 0, inventory)
    with pytest.raises(ValueError):
        generate_synthetic(0, 1, LabelInventory(types=()))


def test_strip_segmentation_keeps_text(small_corpus):
    stripped = strip_segmentation(small_corpus)
    assert all(not d.sentences for d in stripped)
    assert [d.text for d in stripped] == [d.text for d in small_corpus]
    assert all(d.sentences for d in small_corpus)  # originals untouched


_SPAN = st.tuples(st.integers(0, 12), st.integers(0, 5))
_SCORED = st.builds(
    lambda span, label, score: ScoredMention(span[0], span[0] + span[1], label, score),
    _SPAN, st.sampled_from(["A", "B"]), st.sampled_from([0.0, 0.25, 0.5, 0.9]),
)


@given(mentions=st.lists(_SCORED | st.builds(lambda span: Mention(span[0], span[0] + span[1], "A"), _SPAN),
                         max_size=30))
@settings(max_examples=300, deadline=None)
def test_select_by_score_matches_all_pairs_reference(mentions):
    """Same kept mentions, in the same order, as checking every kept one;
    few scores and spans, so ties and equal spans are common."""
    for conflict in (mentions_cross, mentions_overlap):
        got = select_by_score(mentions, conflict)
        want = select_by_score_reference(mentions, conflict)
        assert [id(m) for m in got] == [id(m) for m in want]
