from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dualner import subtok
from dualner.corpus import Document, Mention, Sentence
from dualner.errors import FormatError
from dualner.subtok import (
    MASK_TOKEN,
    PAD_TOKEN,
    UNK_TOKEN,
    BpeVocab,
    FragmentationReport,
    fragmentation_ratio,
    subtokenize,
    corpus_words,
    train_bpe,
)

from .oracles import train_bpe_reference

SPECIALS = (PAD_TOKEN, UNK_TOKEN, MASK_TOKEN)


def _doc_of_words(words, mentions=(), doc_id="d"):
    text = " ".join(words)
    return Document(
        id=doc_id,
        text=text,
        sentences=[
            Sentence(words=list(words), char_start=0, char_end=len(text), mentions=list(mentions))
        ],
    )


def _toy_vocab(symbols, merges):
    return BpeVocab(symbols=tuple(SPECIALS) + tuple(symbols), merges=tuple(merges))


def test_bpe_hand_run_on_aaaa():
    # budget: 3 specials + 1 character + 2 merges
    vocab = train_bpe([_doc_of_words(["aaaa"])], 6)
    assert vocab.merges == (("a", "a"), ("aa", "aa"))
    assert vocab.symbols == SPECIALS + ("a", "aa", "aaaa")
    assert vocab.encode_word("aaaa") == ("aaaa",)


def test_bpe_target_too_small():
    with pytest.raises(ValueError):
        train_bpe([_doc_of_words(["abc"])], 3)  # |chars| = 3 already


def test_bpe_deterministic(small_corpus):
    a = train_bpe(small_corpus, 180)
    b = train_bpe(small_corpus, 180)
    assert a.merges == b.merges
    assert a.symbols == b.symbols


def test_bpe_tie_break_lexicographic():
    # "ab" and "ba" pairs occur equally often; (a,b) < (b,a)
    vocab = train_bpe([_doc_of_words(["ab", "ba"])], 6)
    assert vocab.merges[0] == ("a", "b")


def test_bpe_empty_corpus_rejected():
    with pytest.raises(ValueError):
        train_bpe([Document(id="x", text="")], 10)


# "<", ">", "d", "m", "p" and "a" let words spell <pad> and <mask>, and the
# fixed runs give pairs that overlap themselves (a|a|a|a) or repeat (ab|ab).
_BPE_WORDS = st.one_of(
    st.text(alphabet="ab<>dmp", min_size=1, max_size=8),
    st.sampled_from(["aaaa", "aaaaa", "abab", "<pad>", "<mask>", "a<pad>a"]),
)


@given(
    st.lists(st.lists(_BPE_WORDS, min_size=1, max_size=10), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=40),
)
@settings(max_examples=200, deadline=None)
def test_bpe_matches_full_recount_reference(sentences, extra):
    docs = [_doc_of_words(words, doc_id=f"d{i}") for i, words in enumerate(sentences)]
    floor = len(SPECIALS) + len({ch for words in sentences for w in words for ch in w})
    # extra runs from the floor to well past the last possible merge
    assert train_bpe(docs, floor + extra) == train_bpe_reference(docs, floor + extra)


def test_bpe_resegments_only_words_holding_the_merged_pair(small_corpus, monkeypatch):
    calls = 0
    merge_once = subtok._merge_once

    def counted(pieces, pair):
        nonlocal calls
        calls += 1
        return merge_once(pieces, pair)

    monkeypatch.setattr(subtok, "_merge_once", counted)
    vocab = train_bpe(small_corpus, 200)
    words = corpus_words(small_corpus)
    multi_piece = sum(1 for w in words if len(w) > 1)
    assert calls < multi_piece * len(vocab.merges)
    # each call merges at least one pair in its word, and a word of k
    # characters has k - 1 merges in it; re-segmenting every word on every
    # merge (24189 calls here) breaks this bound (1193)
    assert calls <= sum(len(w) - 1 for w in words)


def test_whole_word_symbols_one_subtoken_each():
    words = ["sun", "moon", "sun"]
    vocab = train_bpe([_doc_of_words(words)], 60)
    assert [vocab.encode_word(w) for w in words] == [("sun",), ("moon",), ("sun",)]
    sub = subtokenize(words, vocab)
    assert sub.sub_token_ids.tolist() == [vocab.id_of(w) for w in words]
    assert sub.subtokens_per_word().tolist() == [1, 1, 1]
    assert sub.first_subtoken_index.tolist() == [0, 1, 2]
    for array in (sub.sub_token_ids, sub.first_subtoken_index, sub.subtokens_per_word()):
        assert isinstance(array, np.ndarray) and array.dtype == np.int64


def test_toy_merge_rules_ab_c():
    vocab = _toy_vocab(["a", "b", "c", "ab"], [("a", "b")])
    assert vocab.encode_word("abc") == ("ab", "c")
    sub = subtokenize(["abc"], vocab)
    assert sub.sub_token_ids.tolist() == [vocab.id_of("ab"), vocab.id_of("c")]
    assert sub.first_subtoken_index.tolist() == [0]


def test_out_of_vocabulary_term_fragments():
    # a vocabulary that never saw the term as a whole shatters it into the
    # pieces its merges can build, here C/OS/M/OS
    vocab = _toy_vocab(["C", "O", "S", "M", "OS"], [("O", "S")])
    assert vocab.encode_word("COSMOS") == ("C", "OS", "M", "OS")
    assert subtokenize(["COSMOS"], vocab).subtokens_per_word().tolist() == [4]


def test_unknown_characters_map_to_unk_but_keep_surface():
    vocab = _toy_vocab(["a", "b"], [])
    assert vocab.encode_word("aQb") == ("a", "Q", "b")
    assert subtokenize(["aQb"], vocab).sub_token_ids.tolist() == [vocab.id_of("a"), vocab.unk_id, vocab.id_of("b")]


def test_unknown_blocks_merges():
    vocab = _toy_vocab(["a", "b", "ab"], [("a", "b")])
    assert vocab.encode_word("aXb") == ("a", "X", "b")


def test_merge_output_may_reuse_existing_symbol():
    # both (ab,c) and (a,bc) produce the string "abc"; the table stays unique
    vocab = _toy_vocab(
        ["a", "b", "c", "ab", "bc", "abc"],
        [("a", "b"), ("b", "c"), ("ab", "c"), ("a", "bc")],
    )
    assert len(set(vocab.symbols)) == len(vocab.symbols)
    assert vocab.encode_word("abc") == ("abc",)


def test_merge_cannot_create_special_string():
    # characters of "<pad>" appear together often; the merge that would
    # complete the special string must be skipped
    words = ["<pad>"] * 50
    vocab = train_bpe([_doc_of_words(words)], 40)
    assert PAD_TOKEN in vocab.symbols  # the reserved one, id 0
    assert vocab.symbols.index(PAD_TOKEN) == 0
    for left, right in vocab.merges:
        assert left + right not in SPECIALS
    sub = subtokenize(["<pad>"], vocab)
    assert all(i != vocab.pad_id for i in sub.sub_token_ids)


def test_empty_word_rejected():
    vocab = _toy_vocab(["a"], [])
    with pytest.raises(ValueError):
        subtokenize([""], vocab)


@given(st.lists(st.text(alphabet="abcde", min_size=1, max_size=8), min_size=1, max_size=12))
@settings(max_examples=100, deadline=None)
def test_alignment_invariants(words):
    vocab = train_bpe([_doc_of_words(["abc", "cde", "ab", "de", "eee"])], 30)
    sub = subtokenize(words, vocab)
    first = sub.first_subtoken_index
    assert sub.n_words == len(words)
    assert first[0] == 0 and np.all(np.diff(first) > 0)  # rising strictly from 0
    for s, e, word in zip(first, [*first[1:], sub.n_subtokens], words):
        pieces = vocab.encode_word(word)
        assert e > s and "".join(pieces) == word  # a non-empty run; the pieces give back the word
        assert sub.sub_token_ids[s:e].tolist() == [vocab.id_of(p) for p in pieces]
    assert sub.subtokens_per_word().sum() == sub.n_subtokens


def test_vocab_json_roundtrip(tmp_path, small_vocab):
    path = tmp_path / "vocab.json"
    small_vocab.save(path)
    loaded = BpeVocab.load(path)
    assert loaded == small_vocab


def test_vocab_rejects_bad_files(tmp_path):
    path = tmp_path / "vocab.json"
    path.write_text("{}", encoding="utf-8")
    with pytest.raises(FormatError):
        BpeVocab.load(path)
    path.write_text("not json", encoding="utf-8")
    with pytest.raises(FormatError):
        BpeVocab.load(path)


@pytest.mark.parametrize(
    "special, message",
    [
        ({"pad": 4, "unk": 1, "mask": 2}, "pad=4 out of range"),
        ({"pad": 0, "unk": -1, "mask": 2}, "unk=-1 out of range"),
        ({"pad": 0, "unk": 7, "mask": 9999}, "unk=7 out of range"),
        ({"pad": 0, "unk": 1, "mask": 4}, "mask=4 out of range"),
        ({"pad": 1, "unk": 1, "mask": 1}, "distinct"),
        ({"pad": 0, "unk": 1, "mask": 0}, "distinct"),
        ({"pad": 3, "unk": 3, "mask": None}, "distinct"),
    ],
)
def test_vocab_rejects_bad_special_ids(tmp_path, special, message):
    obj = {"symbols": list(SPECIALS) + ["a"], "merges": [], "special": special}
    with pytest.raises(FormatError, match=message):
        BpeVocab.from_json(obj)
    path = tmp_path / "vocab.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: .*{message}"):
        BpeVocab.load(path)


def test_vocab_accepts_valid_special_ids():
    vocab = BpeVocab(symbols=("a", "x", "y", "z"), merges=(), pad_id=3, unk_id=0, mask_id=None)
    assert vocab.id_of("q") == 0
    assert BpeVocab(symbols=SPECIALS, merges=(), pad_id=2, unk_id=0, mask_id=1).pad_id == 2


def test_fragmentation_all_in_vocab():
    words = ["sun", "moon"]
    vocab = train_bpe([_doc_of_words(words)], 60)
    report = fragmentation_ratio([_doc_of_words(words)], vocab)
    assert report.ratio == 1.0
    assert report.histogram == {"1": 2, "2": 0, "3+": 0}


def test_fragmentation_every_word_splits_in_two():
    vocab = _toy_vocab(["a", "b", "c", "d"], [])  # characters only
    docs = [_doc_of_words(["ab", "cd", "ad"])]
    report = fragmentation_ratio(docs, vocab)
    assert report.ratio == 2.0
    assert report.histogram == {"1": 0, "2": 3, "3+": 0}


def test_fragmentation_mention_scope():
    words = ["xx", "q", "zz"]
    mentions = [Mention(2, 2, "T")]
    vocab = _toy_vocab(["x", "q", "z"], [])
    docs = [_doc_of_words(words, mentions)]
    all_report = fragmentation_ratio(docs, vocab, scope="all_words")
    mention_report = fragmentation_ratio(docs, vocab, scope="mention_words")
    assert all_report.total_words == 3
    assert mention_report.total_words == 1
    assert mention_report.ratio == 2.0


def test_fragmentation_report_dict_pins_the_format():
    report = FragmentationReport(
        scope="mention_words", ratio=1.5, total_words=4, total_subtokens=6, histogram={"1": 2, "2": 1, "3+": 1}
    )
    assert json.dumps(report.to_dict()) == (
        '{"scope": "mention_words", "ratio": 1.5, "total_words": 4, "total_subtokens": 6, '
        '"histogram": {"1": 2, "2": 1, "3+": 1}, "shares": {"1": 0.5, "2": 0.25, "3+": 0.25}}'
    )


def test_fragmentation_rejects_empty_scope():
    vocab = _toy_vocab(["a"], [])
    with pytest.raises(ValueError):
        fragmentation_ratio([], vocab)
    with pytest.raises(ValueError):
        fragmentation_ratio([_doc_of_words(["a"])], vocab, scope="mention_words")
    with pytest.raises(ValueError):
        fragmentation_ratio([_doc_of_words(["a"])], vocab, scope="bogus")


def test_fragmentation_counts_a_word_under_two_mentions_once():
    vocab = _toy_vocab(["x", "q", "z"], [])
    docs = [_doc_of_words(["xx", "q", "zzz"], [Mention(0, 2, "T"), Mention(1, 2, "U"), Mention(2, 2, "V")])]
    report = fragmentation_ratio(docs, vocab, scope="mention_words")
    assert (report.total_words, report.total_subtokens) == (3, 6)
    assert report.histogram == {"1": 1, "2": 1, "3+": 1}


def test_fragmentation_matches_independent_fold(small_corpus, small_vocab):
    # 200 symbols split every mention word into 3 or more; 400 fill all buckets
    for vocab in (small_vocab, train_bpe(small_corpus, 400)):
        for scope in ("all_words", "mention_words"):
            hist = {"1": 0, "2": 0, "3+": 0}
            total_sub = 0
            for doc in small_corpus:
                for sent in doc.sentences:
                    covered = {w for m in sent.mentions for w in range(m.start_word, m.end_word + 1)}
                    for wi, word in enumerate(sent.words):
                        if scope == "all_words" or wi in covered:
                            k = len(vocab.encode_word(word))
                            hist["1" if k == 1 else "2" if k == 2 else "3+"] += 1
                            total_sub += k
            total_words = sum(hist.values())
            report = fragmentation_ratio(small_corpus, vocab, scope)
            assert report.histogram == hist, scope
            assert (report.total_words, report.total_subtokens) == (total_words, total_sub)
            assert report.ratio == total_sub / total_words


def test_extending_merges_never_increases_ratio(small_corpus):
    v_small = train_bpe(small_corpus, 120)
    v_large = train_bpe(small_corpus, 260)
    assert v_large.merges[: len(v_small.merges)] == v_small.merges
    assert (
        fragmentation_ratio(small_corpus, v_large).ratio
        <= fragmentation_ratio(small_corpus, v_small).ratio
    )
