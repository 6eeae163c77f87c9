from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualner.corpus import Document, Mention, ScoredMention, Sentence
from dualner.errors import ContractViolationError
from dualner.postprocess import resolve_documents, resolve_nesting

from .oracles import random_nested_mentions

TYPES = ("A", "B")


def _nest_free(mentions):
    for a in mentions:
        for b in mentions:
            if a is b:
                continue
            if a.start_word <= b.start_word and b.end_word <= a.end_word and (
                (a.start_word, a.end_word) != (b.start_word, b.end_word)
            ):
                return False
    return True


def test_definitions_on_a_nested_pair():
    outer = ScoredMention(0, 5, "X", score=0.9)
    inner = ScoredMention(0, 3, "X", score=0.8)
    assert resolve_nesting([outer, inner], "keep_inner") == [inner]
    assert resolve_nesting([outer, inner], "keep_outer") == [outer]
    assert resolve_nesting([outer, inner], "none") == [outer, inner]


def test_nest_free_input_unchanged():
    ms = [ScoredMention(0, 1, "X", score=0.5), ScoredMention(3, 4, "Y", score=0.5)]
    for strategy in ("none", "keep_inner", "keep_outer"):
        assert resolve_nesting(ms, strategy) == ms


def test_chain_resolution():
    chain = [
        ScoredMention(0, 9, "X", score=0.9),
        ScoredMention(2, 7, "X", score=0.8),
        ScoredMention(3, 5, "X", score=0.7),
    ]
    assert resolve_nesting(chain, "keep_inner") == [chain[2]]
    assert resolve_nesting(chain, "keep_outer") == [chain[0]]


def test_overlapping_non_nested_rejected():
    bad = [ScoredMention(0, 3, "X", score=0.9), ScoredMention(2, 5, "X", score=0.8)]
    for strategy in ("none", "keep_inner", "keep_outer"):
        with pytest.raises(ContractViolationError):
            resolve_nesting(bad, strategy)


def test_equal_spans_resolved_by_score():
    dup = [ScoredMention(1, 3, "X", score=0.4), ScoredMention(1, 3, "Y", score=0.6)]
    assert resolve_nesting(dup, "keep_inner") == [dup[1]]
    assert resolve_nesting(dup, "keep_outer") == [dup[1]]
    assert resolve_nesting(dup, "none") == dup  # identity keeps duplicates


def test_unscored_mentions_accepted():
    ms = [Mention(0, 4, "X"), Mention(1, 2, "Y")]
    assert resolve_nesting(ms, "keep_inner") == [ms[1]]


def test_unknown_strategy_rejected():
    with pytest.raises(ValueError):
        resolve_nesting([], "innermost")


@given(st.integers(0, 2**32 - 1), st.sampled_from(["keep_inner", "keep_outer"]))
@settings(max_examples=300, deadline=None)
def test_resolution_properties(seed, strategy):
    mentions = random_nested_mentions(np.random.default_rng(seed), TYPES)
    out = resolve_nesting(mentions, strategy)
    ids = set(map(id, mentions))
    assert all(id(m) in ids for m in out)  # subset, unmodified objects
    assert _nest_free(out)
    assert resolve_nesting(out, strategy) == out  # idempotent


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_strategies_agree_on_nest_free_input(seed):
    rng = np.random.default_rng(seed)
    mentions = []
    pos = 0
    for _ in range(rng.integers(0, 6)):
        start = pos + int(rng.integers(0, 3))
        end = start + int(rng.integers(0, 3))
        mentions.append(ScoredMention(start, end, "A", score=float(rng.random())))
        pos = end + 2
    for strategy in ("none", "keep_inner", "keep_outer"):
        assert resolve_nesting(mentions, strategy) == mentions


@pytest.mark.parametrize("strategy", ["none", "keep_inner", "keep_outer"])
def test_resolve_documents_resolves_every_sentence_on_copies(strategy):
    rng = np.random.default_rng(5)
    docs = []
    for d in range(3):
        sentences = []
        for _ in range(2):
            mentions = random_nested_mentions(rng, TYPES)
            n = max(m.end_word for m in mentions) + 1 if mentions else 1
            sentences.append(Sentence(["w"] * n, 0, 2 * n - 1, list(mentions)))
        docs.append(Document(id=f"d{d}", text="", sentences=sentences))
    before = [[list(s.mentions) for s in doc.sentences] for doc in docs]
    out = resolve_documents(docs, strategy)
    assert [[s.mentions for s in doc.sentences] for doc in out] == [
        [resolve_nesting(m, strategy) for m in doc] for doc in before
    ]
    assert [[s.mentions for s in doc.sentences] for doc in docs] == before
