from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualner.corpus import strip_segmentation
from dualner.segment import SegmenterConfig, segment_document, split_sentences

WORD = st.text(alphabet="abcz.", min_size=1, max_size=6)


def test_empty_text():
    assert split_sentences("") == []
    assert split_sentences("   \n\t ") == []


def test_short_clauses_do_not_split():
    text = "one two three four. five six seven eight"
    sents = split_sentences(text)
    assert len(sents) == 1
    assert sents[0].words == text.split()


def test_eleven_word_clause_splits():
    first = "w1 w2 w3 w4 w5 w6 w7 w8 w9 w10 w11."
    second = "a b c d e"
    sents = split_sentences(first + " " + second)
    assert len(sents) == 2
    assert sents[0].words == first.split()
    assert sents[1].words == second.split()


def test_character_offsets():
    text = "  alpha beta. gamma"
    (sent,) = split_sentences(text)
    assert text[sent.char_start : sent.char_end] == "alpha beta. gamma"


def test_min_words_zero_splits_every_full_stop():
    sents = split_sentences("a. b. c", SegmenterConfig(min_words=0))
    assert [s.words for s in sents] == [["a."], ["b."], ["c"]]


def test_min_words_infinite_yields_one_sentence():
    text = " ".join(f"w{i}." for i in range(50))
    sents = split_sentences(text, SegmenterConfig(min_words=10**9))
    assert len(sents) == 1
    cfg = SegmenterConfig(min_words=math.inf)  # tolerated, same effect
    assert len(split_sentences(text, cfg)) == 1


@given(st.lists(WORD, max_size=60), st.integers(0, 12))
@settings(max_examples=200, deadline=None)
def test_lossless_and_monotone(words, min_words):
    text = " ".join(words)
    sents = split_sentences(text, SegmenterConfig(min_words=min_words))
    flat = [w for s in sents for w in s.words]
    assert flat == text.split()
    for sent in sents[:-1]:
        assert sent.words[-1].endswith(".")
        assert len(sent.words) > min_words
    ends = [-1]
    for sent in sents:
        assert sent.char_start > ends[-1]
        assert sent.char_start <= sent.char_end <= len(text)
        assert sent.words
        ends.append(sent.char_end)


def test_invalid_config():
    with pytest.raises(ValueError):
        split_sentences("x", SegmenterConfig(min_words=-1))


def test_segment_document_idempotent(small_corpus):
    doc = small_corpus[0]
    assert segment_document(doc) is doc  # already segmented: pass through


def test_segmenter_recovers_synthetic_boundaries(small_corpus):
    # the generator promises >= 11 words per sentence so the default rule
    # reproduces its boundaries exactly
    for raw, gold in zip(strip_segmentation(small_corpus), small_corpus):
        seg = segment_document(raw)
        assert [s.words for s in seg.sentences] == [s.words for s in gold.sentences]
        assert [(s.char_start, s.char_end) for s in seg.sentences] == [
            (s.char_start, s.char_end) for s in gold.sentences
        ]
