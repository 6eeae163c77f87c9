from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualner.corpus import Mention, ScoredMention
from dualner.evaluate import (
    BucketScore,
    evaluate_predictions,
    mcc_from_confusion,
    mean_std,
    mention_prf,
    multiclass_mcc,
    project_non_overlapping,
    subtoken_grouped_f1,
)
from dualner.subtok import fragmentation_ratio, train_bpe

from .oracles import binary_mcc, mcc_one_hot_covariance, tag_strings


def M(s, e, t):
    return Mention(s, e, t)


# ---------------------------------------------------------------------------
# Mention-level P/R/F1
# ---------------------------------------------------------------------------


def test_perfect_prediction():
    gold = [[M(0, 1, "X")], [M(3, 3, "Y")]]
    res = mention_prf(gold, gold)
    assert (res.precision, res.recall, res.f1) == (1.0, 1.0, 1.0)


def test_disjoint_prediction():
    res = mention_prf([[M(0, 1, "X")]], [[M(2, 3, "X")]])
    assert (res.precision, res.recall, res.f1) == (0.0, 0.0, 0.0)


def test_half_right_by_hand():
    gold = [[M(0, 1, "X"), M(3, 3, "Y")]]
    pred = [[M(0, 1, "X"), M(3, 4, "Y")]]
    res = mention_prf(gold, pred)
    assert (res.tp, res.fp, res.fn) == (1, 1, 1)
    assert (res.precision, res.recall, res.f1) == (0.5, 0.5, 0.5)
    assert res.per_type["X"]["f1"] == 1.0
    assert res.per_type["Y"]["f1"] == 0.0


def test_empty_everything_scores_one():
    res = mention_prf([[], []], [[], []])
    assert (res.precision, res.recall, res.f1) == (1.0, 1.0, 1.0)


def test_empty_pred_nonempty_gold_scores_zero():
    res = mention_prf([[M(0, 0, "X")]], [[]])
    assert (res.precision, res.recall, res.f1) == (0.0, 0.0, 0.0)


def test_boundary_and_type_must_match_exactly():
    gold = [[M(0, 2, "X")]]
    assert mention_prf(gold, [[M(0, 1, "X")]]).f1 == 0.0
    assert mention_prf(gold, [[M(0, 2, "Y")]]).f1 == 0.0


def test_sentence_alignment_required():
    with pytest.raises(ValueError):
        mention_prf([[]], [[], []])


def test_same_span_in_different_sentences_not_a_match():
    assert mention_prf([[M(0, 0, "X")], []], [[], [M(0, 0, "X")]]).f1 == 0.0


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_prf_swap_symmetry(seed):
    rng = np.random.default_rng(seed)

    def sample():
        return [
            [M(int(s), int(s) + int(rng.integers(0, 3)), "T") for s in rng.integers(0, 20, size=rng.integers(0, 4)) ]
            for _ in range(3)
        ]

    gold, pred = sample(), sample()
    gold = [list({m.key(): m for m in sent}.values()) for sent in gold]
    pred = [list({m.key(): m for m in sent}.values()) for sent in pred]
    a = mention_prf(gold, pred)
    b = mention_prf(pred, gold)
    assert a.precision == b.recall and a.recall == b.precision and a.f1 == b.f1


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_prf_sentence_order_invariance(seed):
    rng = np.random.default_rng(seed)
    gold = [[M(0, 1, "X")], [M(2, 3, "Y")], []]
    pred = [[M(0, 1, "X")], [M(2, 2, "Y")], [M(4, 4, "X")]]
    perm = rng.permutation(3)
    a = mention_prf(gold, pred)
    b = mention_prf([gold[i] for i in perm], [pred[i] for i in perm])
    assert (a.precision, a.recall, a.f1) == (b.precision, b.recall, b.f1)


# ---------------------------------------------------------------------------
# MCC
# ---------------------------------------------------------------------------


def test_mcc_perfect_two_class():
    assert multiclass_mcc([["O", "B-X", "O"]], [["O", "B-X", "O"]]) == 1.0


def test_mcc_single_class_prediction_is_zero():
    assert multiclass_mcc([["O", "B-X", "O"]], [["O", "O", "O"]]) == 0.0


def test_mcc_fixed_confusion_matches_oracle():
    confusion = np.array([[2, 1, 0], [0, 3, 1], [1, 0, 2]])
    ours = mcc_from_confusion(confusion)
    oracle = mcc_one_hot_covariance(confusion)
    assert abs(ours - oracle) < 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(2, 6))
@settings(max_examples=150, deadline=None)
def test_mcc_random_confusions_match_oracle(seed, k):
    rng = np.random.default_rng(seed)
    confusion = rng.integers(0, 10, size=(k, k))
    assert abs(mcc_from_confusion(confusion) - mcc_one_hot_covariance(confusion)) < 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_mcc_two_class_equals_binary_formula_exactly(seed):
    rng = np.random.default_rng(seed)
    tp, fn, fp, tn = (int(x) for x in rng.integers(0, 50, size=4))
    confusion = np.array([[tp, fn], [fp, tn]])
    assert mcc_from_confusion(confusion) == binary_mcc(tp, fp, fn, tn)


@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
@settings(max_examples=100, deadline=None)
def test_mcc_relabeling_invariance(seed, k):
    rng = np.random.default_rng(seed)
    confusion = rng.integers(0, 8, size=(k, k))
    perm = rng.permutation(k)
    permuted = confusion[np.ix_(perm, perm)]
    assert abs(mcc_from_confusion(confusion) - mcc_from_confusion(permuted)) < 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(2, 5))
@settings(max_examples=100, deadline=None)
def test_mcc_range(seed, k):
    rng = np.random.default_rng(seed)
    value = mcc_from_confusion(rng.integers(0, 8, size=(k, k)))
    assert -1.0 - 1e-12 <= value <= 1.0 + 1e-12


def test_mcc_rejects_misaligned_input():
    with pytest.raises(ValueError):
        multiclass_mcc([["O", "O"]], [["O"]])
    with pytest.raises(ValueError):
        multiclass_mcc([["O"]], [["O"], ["O"]])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_mcc_on_tag_ids_equals_mcc_on_the_same_tag_strings(seed):
    """The MCC of id arrays has the bits of the MCC of their BIO strings,
    whose sorted order differs from the ids' (``B-Y`` before ``O``)."""
    rng = np.random.default_rng(seed)
    names = tag_strings(("X", "Y", "Z"))
    sizes = rng.integers(0, 12, size=int(rng.integers(1, 6)))
    gold = [rng.integers(0, len(names), size=n) for n in sizes]
    pred = [rng.integers(0, len(names), size=n) for n in sizes]
    as_strings = [[[names[t] for t in sent] for sent in tags] for tags in (gold, pred)]
    assert multiclass_mcc(gold, pred) == multiclass_mcc(*as_strings)


def test_mcc_of_a_corpus_without_words_is_zero():
    assert multiclass_mcc([], []) == 0.0
    assert multiclass_mcc([np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]) == 0.0


# ---------------------------------------------------------------------------
# Sub-token-grouped word F1
# ---------------------------------------------------------------------------


def _ids(*tags):
    """Tag ids of types X (B- 1, I- 2) and Y (B- 3, I- 4), 0 for O."""
    return np.array(tags, dtype=np.int64)


def _counts(*subtokens_per_word):
    return np.array(subtokens_per_word, dtype=np.int64)


def test_grouped_all_single_subtoken_perfect():
    gold = [_ids(1, 2, 0)]  # B-X I-X O
    got = subtoken_grouped_f1(gold, gold, _counts(1, 1, 1))
    assert got["1"].f1 == 1.0 and got["1"].word_count == 2
    assert got["2"].word_count == 0 and got["2"].f1 is None
    assert got["3+"].word_count == 0 and got["3+"].f1 is None


def test_grouped_perfect_mixed_fragmentation():
    gold = [_ids(1, 2, 3, 0)]  # B-X I-X B-Y O
    got = subtoken_grouped_f1(gold, gold, _counts(1, 2, 3, 1))
    assert got["1"].f1 == 1.0 and got["2"].f1 == 1.0 and got["3+"].f1 == 1.0
    assert (got["1"].word_count, got["2"].word_count, got["3+"].word_count) == (1, 1, 1)


def test_grouped_hand_counted_case():
    # six words; gold marks words 0-1 (X) and 3-5 (Y); word 4 splits into 3
    # pieces and is tagged wrong (predicted O): bucket 3+ has tp=1,fp=0,fn=1
    gold = [_ids(1, 2, 0, 3, 4, 4)]  # B-X I-X O B-Y I-Y I-Y
    pred = [_ids(1, 2, 0, 3, 0, 4)]  # B-X I-X O B-Y O I-Y
    got = subtoken_grouped_f1(gold, pred, _counts(1, 1, 1, 2, 3, 3))
    assert (got["3+"].tp, got["3+"].fp, got["3+"].fn) == (1, 0, 1)
    assert got["3+"].f1 == pytest.approx(2 * 1 / (2 * 1 + 0 + 1))
    assert got["1"].f1 == 1.0 and got["2"].f1 == 1.0


def test_grouped_wrong_entity_tag_counts_fp_and_fn():
    gold = [_ids(1)]  # B-X
    pred = [_ids(3)]  # B-Y
    got = subtoken_grouped_f1(gold, pred, _counts(1))
    assert (got["1"].tp, got["1"].fp, got["1"].fn) == (0, 1, 1)
    assert got["1"].f1 == 0.0


def test_grouped_requires_alignment():
    with pytest.raises(ValueError, match="0 sub-token counts given for 1 words"):
        subtoken_grouped_f1([_ids(0)], [_ids(0)], _counts())
    with pytest.raises(ValueError, match="1 sub-token counts given for 2 words"):
        subtoken_grouped_f1([_ids(0, 0)], [_ids(0, 0)], _counts(1))
    for pred in ([_ids(0)], [_ids(0, 0), _ids(0)]):  # a sentence too short, one sentence too many
        with pytest.raises(ValueError, match="must align per sentence"):
            subtoken_grouped_f1([_ids(0, 0)], pred, _counts(1, 1))


@pytest.mark.parametrize("vocab_size", [200, 400])
def test_grouped_word_counts_equal_mention_word_histogram(small_corpus, vocab_size):
    # the words gold tags as entity words are the words gold mentions cover,
    # and both analyses bucket them by the same rule
    vocab = train_bpe(small_corpus, vocab_size)
    grouped = evaluate_predictions(small_corpus, small_corpus, vocab=vocab).subtoken_grouped
    histogram = fragmentation_ratio(small_corpus, vocab, "mention_words").histogram
    assert {b: score.word_count for b, score in grouped.items()} == histogram


# ---------------------------------------------------------------------------
# Aggregation and projection helpers
# ---------------------------------------------------------------------------


def test_mean_std_hand_check():
    mean, std = mean_std([0.80, 0.82, 0.84])
    assert abs(mean - 0.82) < 1e-12
    assert abs(std - 0.02) < 1e-12


def test_mean_std_degenerate():
    assert mean_std([0.5]) == (0.5, 0.0)
    mean, std = mean_std([0.7, 0.7, 0.7])
    assert mean == pytest.approx(0.7)
    assert std == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        mean_std([])


def test_project_non_overlapping_prefers_score():
    nested = [
        ScoredMention(0, 5, "X", score=0.6),
        ScoredMention(1, 2, "X", score=0.9),
        ScoredMention(7, 8, "Y", score=0.1),
    ]
    got = project_non_overlapping(nested)
    assert [(m.start_word, m.end_word) for m in got] == [(1, 2), (7, 8)]


def test_report_dict_pins_the_format():
    """Field order defines the report's keys; MCC and the sub-token groups
    appear only when computed."""
    report = mention_prf([[Mention(0, 0, "X")]], [[Mention(0, 0, "X"), Mention(1, 1, "Y")]])
    prf = (
        '{"f1": 0.6666666666666666, "precision": 0.5, "recall": 1.0, "tp": 1, "fp": 1, "fn": 0, '
        '"per_type": {"X": {"tp": 1, "fp": 0, "fn": 0, "f1": 1.0}, "Y": {"tp": 0, "fp": 1, "fn": 0, "f1": 0.0}}'
    )
    assert json.dumps(report.to_dict()) == prf + "}"
    assert json.dumps(replace(report, mcc=0.25).to_dict()) == prf + ', "mcc": 0.25}'
    grouped = {"1": BucketScore(2, 1, 0, 1, 0.5), "2": BucketScore(0, 0, 0, 0, None), "3+": BucketScore(1, 1, 0, 0, 1.0)}
    assert json.dumps(replace(report, mcc=0.25, subtoken_grouped=grouped).to_dict()) == prf + (
        ', "mcc": 0.25, "subtoken_grouped": {'
        '"1": {"word_count": 2, "tp": 1, "fp": 0, "fn": 1, "f1": 0.5}, '
        '"2": {"word_count": 0, "tp": 0, "fp": 0, "fn": 0, "f1": null}, '
        '"3+": {"word_count": 1, "tp": 1, "fp": 0, "fn": 0, "f1": 1.0}}}'
    )
    assert json.dumps(replace(report, subtoken_grouped=grouped).to_dict()).startswith(prf + ', "subtoken_grouped": {')
