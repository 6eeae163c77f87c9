"""Word-internal BPE: vocabulary training, sub-tokenization, fragmentation.

Merges never cross word boundaries, so each word owns a contiguous,
non-empty run of sub-token positions; that partition is exactly what
first-sub-token word representations need.  Unknown characters map to the
<unk> id (one sub-token each) but keep their original surface, so a word's
pieces (``BpeVocab.encode_word``) always concatenate back to the word.
"""

from __future__ import annotations

import heapq
import json
from collections import Counter
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import compress
from pathlib import Path
from typing import Sequence

import numpy as np

from .corpus import Document, atomic_write, read_json, refuse_unknown_keys
from .errors import FormatError, UnusableDataError

__all__ = [
    "PAD_TOKEN",
    "UNK_TOKEN",
    "MASK_TOKEN",
    "BpeVocab",
    "SubTokenization",
    "train_bpe",
    "subtokenize",
    "SCOPES",
    "FragmentationReport",
    "fragmentation_ratio",
]

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"
MASK_TOKEN = "<mask>"
_SPECIALS = (PAD_TOKEN, UNK_TOKEN, MASK_TOKEN)


@dataclass(frozen=True)
class BpeVocab:
    """Symbol table (index == id), ordered merge rules, special ids."""

    symbols: tuple[str, ...]
    merges: tuple[tuple[str, str], ...]
    pad_id: int = 0
    unk_id: int = 1
    mask_id: int | None = 2

    def __post_init__(self):
        table = self._table
        if len(table) != len(self.symbols):
            raise FormatError("duplicate symbol strings in vocabulary")
        for left, right in self.merges:
            if left + right not in table:
                raise FormatError(f"merge output {left + right!r} missing from symbol table")
        special = {"pad": self.pad_id, "unk": self.unk_id}
        if self.mask_id is not None:
            special["mask"] = self.mask_id
        for name, i in special.items():
            if not 0 <= i < len(self.symbols):
                raise FormatError(
                    f"special id {name}={i} out of range for {len(self.symbols)} symbols"
                )
        if len(set(special.values())) != len(special):
            raise FormatError(f"special ids must be distinct, got {special}")

    def __len__(self) -> int:
        return len(self.symbols)

    @cached_property
    def _table(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.symbols)}

    @cached_property
    def _ranks(self) -> dict[tuple[str, str], int]:
        ranks: dict[tuple[str, str], int] = {}
        for i, pair in enumerate(self.merges):
            ranks.setdefault(pair, i)
        return ranks

    @cached_property
    def _word_cache(self) -> dict[str, tuple[tuple[str, ...], tuple[int, ...]]]:
        return {}

    def id_of(self, symbol: str) -> int:
        return self._table.get(symbol, self.unk_id)

    def encode_word(self, word: str) -> tuple[str, ...]:
        """Segment one word by repeatedly applying the lowest-ranked merge."""
        return self._encode(word)[0]

    def _encode(self, word: str) -> tuple[tuple[str, ...], tuple[int, ...]]:
        """``word``'s pieces and their ids, cached per word."""
        cached = self._word_cache.get(word)
        if cached is not None:
            return cached
        if not word:
            raise ValueError("cannot sub-tokenize an empty word")
        pieces = list(word)
        ranks = self._ranks
        while len(pieces) > 1:
            best_rank = None
            best_pair = None
            for pair in zip(pieces, pieces[1:]):
                r = ranks.get(pair)
                if r is not None and (best_rank is None or r < best_rank):
                    best_rank, best_pair = r, pair
            if best_pair is None:
                break
            pieces = _merge_once(pieces, best_pair)
        out = self._word_cache[word] = (tuple(pieces), tuple(map(self.id_of, pieces)))
        return out

    def to_json(self) -> dict:
        return {
            "symbols": list(self.symbols),
            "merges": [list(p) for p in self.merges],
            "special": {"pad": self.pad_id, "unk": self.unk_id, "mask": self.mask_id},
        }

    @classmethod
    def from_json(cls, obj: dict, path: str | None = None) -> "BpeVocab":
        try:
            if not isinstance(obj, dict):
                raise FormatError("vocabulary file must be a JSON object")
            refuse_unknown_keys(obj, {"symbols", "merges", "special"}, "vocabulary")
            symbols, merges, special = obj["symbols"], obj["merges"], obj["special"]
            if not (isinstance(symbols, list) and all(isinstance(s, str) for s in symbols)):
                raise FormatError('"symbols" must be a list of strings')
            if not (isinstance(merges, list) and all(_is_str_pair(m) for m in merges)):
                raise FormatError('"merges" must be a list of [left, right] string pairs')
            if not isinstance(special, dict):
                raise FormatError('"special" must be a JSON object')
            refuse_unknown_keys(special, {"pad", "unk", "mask"}, '"special"')
            pad, unk, mask = special["pad"], special["unk"], special.get("mask")
            if not (type(pad) is type(unk) is int and (mask is None or type(mask) is int)):
                raise FormatError("special ids must be integers")
            return cls(
                symbols=tuple(symbols),
                merges=tuple((l, r) for l, r in merges),
                pad_id=pad,
                unk_id=unk,
                mask_id=mask,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed vocabulary file: {exc}", path=path) from exc
        except FormatError as exc:
            raise FormatError(str(exc), path=path) from exc

    def save(self, path: str | Path) -> None:
        with atomic_write(path) as fh:
            json.dump(self.to_json(), fh, ensure_ascii=False, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path: str | Path) -> "BpeVocab":
        return cls.from_json(read_json(path), path=str(path))


def _is_str_pair(x) -> bool:
    return isinstance(x, list) and len(x) == 2 and all(isinstance(p, str) for p in x)


def _merge_once(pieces: list[str], pair: tuple[str, str]) -> list[str]:
    out = []
    i = 0
    while i < len(pieces):
        if i + 1 < len(pieces) and pieces[i] == pair[0] and pieces[i + 1] == pair[1]:
            out.append(pieces[i] + pieces[i + 1])
            i += 2
        else:
            out.append(pieces[i])
            i += 1
    return out


def corpus_words(docs: Sequence[Document]) -> Counter:
    counts: Counter = Counter()
    for doc in docs:
        for sent in doc.sentences:
            counts.update(sent.words)
    return counts


def _pairs(pieces: list[str]) -> Counter:
    return Counter(zip(pieces, pieces[1:]))


def train_bpe(corpus: Sequence[Document], target_vocab_size: int) -> BpeVocab:
    """Train a word-internal BPE vocabulary of exactly the requested size.

    Deterministic for a fixed corpus: greedy most-frequent pair, ties by
    lexicographic pair order.  The target size counts the three specials,
    the base characters, and one slot per merge; a merge whose output string
    already exists reuses that symbol's id without consuming a slot.  Pairs
    whose concatenation is a reserved special string are never merged, so
    user text can never alias <pad>/<unk>/<mask>.

    Pair counts and a pair -> words index are built once; each merge
    re-segments and recounts only the words that hold the merged pair
    (Sennrich et al. 2016), and the best pair comes from a heap keyed
    ``(-count, pair)`` whose stale entries are skipped when popped.
    """
    word_counts = corpus_words(corpus)
    if not word_counts:
        raise UnusableDataError("corpus has no words; segment documents before training a vocabulary")
    alphabet = sorted({ch for word in word_counts for ch in word})
    floor = len(_SPECIALS) + len(alphabet)
    if target_vocab_size < floor:
        raise ValueError(
            f"target_vocab_size={target_vocab_size} too small: need >= {floor} "
            f"({len(_SPECIALS)} specials + {len(alphabet)} characters)"
        )

    symbols: list[str] = list(_SPECIALS) + alphabet
    table = {s: i for i, s in enumerate(symbols)}
    merges: list[tuple[str, str]] = []
    budget = target_vocab_size - floor

    counts = list(word_counts.values())
    pieces = [list(w) for w in word_counts]
    pair_counts: Counter = Counter()
    where: dict[tuple[str, str], set[int]] = {}
    for i, ps in enumerate(pieces):
        for pair, n in _pairs(ps).items():
            pair_counts[pair] += n * counts[i]
            where.setdefault(pair, set()).add(i)
    heap = [(-c, pair) for pair, c in pair_counts.items()]
    heapq.heapify(heap)

    banned = frozenset(_SPECIALS)
    while budget > 0:
        while heap:
            neg, pair = heapq.heappop(heap)
            if pair_counts.get(pair) == -neg and pair[0] + pair[1] not in banned:
                break
        else:
            break
        merged = pair[0] + pair[1]
        merges.append(pair)
        if merged not in table:
            table[merged] = len(symbols)
            symbols.append(merged)
            budget -= 1
        # _merge_once leaves no occurrence of the pair behind, so its count
        # and index entry go as a whole; every other pair moves by the
        # difference between a touched word's old and new pairs.
        del pair_counts[pair]
        touched = set()
        for i in where.pop(pair):
            old = _pairs(pieces[i])
            del old[pair]
            pieces[i] = _merge_once(pieces[i], pair)
            new = _pairs(pieces[i])
            for p in old.keys() - new.keys():
                where[p].discard(i)
            for p in new.keys() - old.keys():
                where.setdefault(p, set()).add(i)
            for p in old.keys() | new.keys():
                delta = new[p] - old[p]
                if delta:
                    pair_counts[p] += delta * counts[i]
                    touched.add(p)
        for p in touched:
            if pair_counts[p]:
                heapq.heappush(heap, (-pair_counts[p], p))
            else:
                del pair_counts[p]
                del where[p]
    return BpeVocab(symbols=tuple(symbols), merges=tuple(merges))


# ---------------------------------------------------------------------------
# Sub-tokenization with word alignment
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SubTokenization:
    """A sentence in the encoder's input form: its sub-token ids (int64
    ``[n]``) and the position of each word's first sub-token (int64
    ``[n_words]``), whose vector is the word's vector.

    Words own non-empty runs that partition [0, n) in sentence order, so
    word w's run ends where word w + 1's begins, and the last at n.
    """

    sub_token_ids: np.ndarray
    first_subtoken_index: np.ndarray

    @property
    def n_subtokens(self) -> int:
        return self.sub_token_ids.size

    @property
    def n_words(self) -> int:
        return self.first_subtoken_index.size

    def subtokens_per_word(self) -> np.ndarray:
        return np.diff(self.first_subtoken_index, append=self.n_subtokens)


def subtokenize(words: Sequence[str], vocab: BpeVocab) -> SubTokenization:
    ids: list[int] = []
    first: list[int] = []
    for word in words:
        first.append(len(ids))
        ids += vocab._encode(word)[1]
    return SubTokenization(np.array(ids, dtype=np.int64), np.array(first, dtype=np.int64))


# ---------------------------------------------------------------------------
# Fragmentation analysis
# ---------------------------------------------------------------------------

BUCKETS = ("1", "2", "3+")
SCOPES = ("all_words", "mention_words")  # the words counted; the first is the default


def bucket_index(subtokens_per_word: np.ndarray) -> np.ndarray:
    """Each word's index in ``BUCKETS``: 1, 2, or 3 or more sub-tokens."""
    return np.clip(subtokens_per_word, 1, len(BUCKETS)) - 1


@dataclass(frozen=True, kw_only=True)
class FragmentationReport:
    # fields in the order ``to_dict`` writes them
    scope: str
    ratio: float
    total_words: int
    total_subtokens: int
    histogram: dict[str, int]

    def shares(self) -> dict[str, float]:
        return {b: self.histogram[b] / self.total_words for b in BUCKETS}

    def to_dict(self) -> dict:
        return asdict(self) | {"shares": self.shares()}


def fragmentation_ratio(
    docs: Sequence[Document], vocab: BpeVocab, scope: str = SCOPES[0]
) -> FragmentationReport:
    """Total sub-tokens over total words, plus the {1,2,3+} split-count histogram.

    ``scope="mention_words"`` restricts the count to words covered by a gold
    mention; a word covered by several mentions counts once.
    """
    if scope not in SCOPES:
        raise ValueError(f"scope must be one of {SCOPES}, got {scope!r}")
    sentences = [sent for doc in docs for sent in doc.sentences]
    words = [w for sent in sentences for w in sent.words]
    if scope == "mention_words":
        covered = np.zeros(len(words), dtype=bool)
        offset = 0
        for sent in sentences:
            for m in sent.mentions:
                covered[offset + m.start_word : offset + m.end_word + 1] = True
            offset += len(sent.words)
        words = list(compress(words, covered.tolist()))
    if not words:
        raise UnusableDataError(f"no words in scope {scope!r}; is the corpus segmented (and annotated)?")
    sub = subtokenize(words, vocab)
    hist = np.bincount(bucket_index(sub.subtokens_per_word()), minlength=len(BUCKETS))
    return FragmentationReport(
        ratio=sub.n_subtokens / sub.n_words,
        histogram=dict(zip(BUCKETS, hist.tolist())),
        total_words=sub.n_words,
        total_subtokens=sub.n_subtokens,
        scope=scope,
    )
