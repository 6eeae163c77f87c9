"""Annotated-corpus data model, JSONL on-disk format, splits, synthetic corpora.

A corpus is a list of documents; each document carries raw text plus an
ordered list of sentences, and each sentence carries whitespace words plus
typed entity mentions addressed by inclusive word indices.  Gold corpora are
flat: mentions within a sentence never overlap or nest.  Prediction files
reuse the same schema with an extra per-mention "score" and are allowed to
contain nested mentions (the span classifier produces them before
post-processing).

Records are written from the dataclass fields and read back by
``_record_reader``, the reader behind ``dataclass_from_dict`` and so of the
config sections too, which checks each JSON value against its field's
annotation and names the record path of a bad one
(``document.sentences[0].mentions[0]``).  A document line must carry
"sentences", though the field defaults to an empty list.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import string
import tempfile
import typing
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import FormatError, UnusableDataError, ValidationError

__all__ = [
    "Mention",
    "ScoredMention",
    "Sentence",
    "Document",
    "LabelInventory",
    "SyntheticProfile",
    "TERMINATOR",
    "load_corpus",
    "load_predictions",
    "require_sentences",
    "save_corpus",
    "split_train_tune",
    "generate_synthetic",
    "synthetic_pools",
    "atomic_write",
    "read_json",
    "write_json",
]


@dataclass(frozen=True)
class Mention:
    """A typed entity span over sentence words; end index is inclusive."""

    start_word: int
    end_word: int
    label: str

    def key(self) -> tuple[int, int, str]:
        return (self.start_word, self.end_word, self.label)


@dataclass(frozen=True)
class ScoredMention(Mention):
    """A predicted mention with the classifier's confidence attached."""

    score: float = 0.0


@dataclass
class Sentence:
    words: list[str]
    char_start: int
    char_end: int
    mentions: list[Mention] = field(default_factory=list)


@dataclass
class Document:
    id: str
    text: str
    sentences: list[Sentence] = field(default_factory=list)

    @property
    def n_words(self) -> int:
        return sum(len(s.words) for s in self.sentences)

    @property
    def n_mentions(self) -> int:
        return sum(len(s.mentions) for s in self.sentences)


@dataclass(frozen=True)
class LabelInventory:
    """The corpus's entity types, from which the tagger's BIO tag ids derive.

    Types are kept sorted so that inventories inferred from data are
    reproducible; tag id 0 is O (it wins argmax ties), followed by a B-/I-
    pair per type (``heads.tags_to_mentions``).
    """

    types: tuple[str, ...]

    @classmethod
    def from_types(cls, types: Sequence[str]) -> "LabelInventory":
        uniq = sorted(set(types))
        if any(not t for t in uniq):
            raise ValidationError("empty entity-type string in label inventory")
        return cls(types=tuple(uniq))

    @classmethod
    def from_documents(cls, docs: Sequence[Document]) -> "LabelInventory":
        seen: set[str] = set()
        for doc in docs:
            for sent in doc.sentences:
                for m in sent.mentions:
                    seen.add(m.label)
        return cls.from_types(sorted(seen))

    def __len__(self) -> int:
        return len(self.types)


# ---------------------------------------------------------------------------
# On-disk format (JSONL, one document per line)
# ---------------------------------------------------------------------------


def _is_finite_number(x) -> bool:
    """An int or float, not a bool, that is a finite float."""
    try:
        return type(x) in (int, float) and math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


def _json_types(hint) -> frozenset:
    """The types of the JSON values that may stand for annotation ``hint``:
    an int for a float, an array for a list or tuple, an object for a dataclass."""
    if typing.get_origin(hint) in (list, tuple):
        return frozenset({list})
    if typing.get_args(hint):  # X | None
        return frozenset().union(*map(_json_types, typing.get_args(hint)))
    return frozenset({dict} if is_dataclass(hint) else {int, float} if hint is float else {hint})


def _mismatch(where: str, name: str, hint, value) -> FormatError:
    expected = hint.__name__ if isinstance(hint, type) else re.sub(r"\w+\.", "", str(hint))
    got = value if type(value) is float else type(value).__name__  # nan or 1.0 says more than "float"
    return FormatError(f"invalid {where}: {name} must be {expected}, got {got}")


def _field_reader(name: str, hint, scores: bool):
    """How field ``name``, annotated ``hint``, is read: the JSON types its
    value may have, and ``finish(value, where)``, which checks the value
    further and builds the field from it, or None where the value is the field."""
    types, args = _json_types(hint), typing.get_args(hint)
    if is_dataclass(hint):
        read = _record_reader(hint, scores)
        return types, lambda value, where: read(value, f"{where}.{name}")
    if typing.get_origin(hint) not in (list, tuple):
        if float not in types:
            return types, None
        fits = lambda value: value is None or _is_finite_number(value)
    elif is_dataclass(args[0]):
        read = _record_reader(args[0], scores)
        return types, lambda value, where: [read(v, f"{where}.{name}[{i}]") for i, v in enumerate(value)]
    else:
        items = _json_types(args[0])
        fits = lambda value: set(map(type, value)) <= items and (
            float not in items or all(map(_is_finite_number, value)))

    def finish(value, where: str):
        if not fits(value):
            raise _mismatch(where, name, hint, value)
        return float(value) if type(value) is int else value

    return types, finish


@functools.cache
def _record_reader(cls, scores: bool):
    """``read(obj, where)``: record ``cls`` built from the JSON object ``obj``.

    A ``Mention`` is read with the fields of ``ScoredMention``, so gold and
    prediction records both take a ``score``; it is kept with ``scores`` and
    dropped, leaving a plain ``Mention``, without.
    """
    build = cls
    if cls is Mention:
        cls = ScoredMention
        build = cls if scores else lambda score=0.0, **span: Mention(**span)
    hints = typing.get_type_hints(cls)
    spec = {f.name: _field_reader(f.name, hints[f.name], scores) for f in fields(cls)}

    def read(obj, where: str):
        if type(obj) is not dict:
            raise FormatError(f"{where} must be a JSON object")
        kwargs = {}
        for name, value in obj.items():
            if name not in spec:
                refuse_unknown_keys(obj, spec.keys(), where)
            types, finish = spec[name]
            if type(value) not in types:
                raise _mismatch(where, name, hints[name], value)
            kwargs[name] = value if finish is None else finish(value, where)
        try:
            return build(**kwargs)
        except (TypeError, ValueError) as exc:  # a missing field, or the dataclass's own checks
            raise FormatError(f"invalid {where}: {exc}") from exc

    return read


def dataclass_from_dict(cls, obj, where: str):
    """Build dataclass ``cls`` from a JSON object: a config section, or a
    document of a corpus or prediction file with its sentences and mentions.

    Unknown keys, missing fields and values that do not fit a field's
    annotation are FormatErrors naming the record path from ``where``; a
    field typed as a dataclass, or a list of them, is built from its nested
    objects likewise, and a JSON integer given for a float is held as a float.
    """
    return _record_reader(cls, True)(obj, where)


def refuse_unknown_keys(obj: dict, keys, where: str, path: str | None = None) -> None:
    """Refuse the keys of JSON object ``obj`` (``where``) outside ``keys``, by name."""
    if obj.keys() - keys:
        raise FormatError(f"unknown keys in {where}: {sorted(obj.keys() - keys)}", path=path)


def read_json(path: str | Path):
    """The parsed contents of one JSON file; unreadable files are data errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON ({exc.msg})", path=str(path)) from exc
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise FormatError(f"unreadable file ({_reason(exc)})", path=str(path)) from exc


def write_json(path: str | Path, obj) -> None:
    """``obj`` as indented JSON, written atomically."""
    with atomic_write(path) as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def _reason(exc: Exception) -> str:
    if isinstance(exc, UnicodeDecodeError):
        return "not UTF-8 text"
    if isinstance(exc, RecursionError):
        return "nested too deeply"
    return exc.strerror or type(exc).__name__


@contextmanager
def atomic_write(path: str | Path, mode: str = "w") -> Iterator:
    """Write to a temp file in the target directory, rename on success.

    On any failure the temp file is removed, so consumers never observe a
    partial output file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def save_corpus(docs: Sequence[Document], path: str | Path) -> None:
    """One JSON line per document.  A record's ``__dict__`` holds its fields
    in order, so its keys follow the dataclass; ``asdict`` would copy every word."""
    with atomic_write(path) as fh:
        for doc in docs:
            fh.write(json.dumps(doc, default=vars, ensure_ascii=False, separators=(",", ":")))
            fh.write("\n")


def mentions_overlap(a: Mention, b: Mention) -> bool:
    return a.start_word <= b.end_word and b.start_word <= a.end_word


def strictly_contains(a: Mention, b: Mention) -> bool:
    """``a`` covers every word of ``b`` and the two spans differ."""
    return (
        a.start_word <= b.start_word
        and b.end_word <= a.end_word
        and (a.start_word, a.end_word) != (b.start_word, b.end_word)
    )


def mentions_cross(a: Mention, b: Mention) -> bool:
    """Overlap where neither span strictly contains the other; equal spans cross."""
    return mentions_overlap(a, b) and not (strictly_contains(a, b) or strictly_contains(b, a))


def select_by_score(mentions: Sequence[Mention], conflict) -> list[Mention]:
    """Greedy score-descending subset (ties: earlier start, then shorter).

    A mention is kept unless ``conflict(mention, kept)`` holds for one
    already kept; unscored mentions count as score 0.  ``conflict`` must
    imply ``mentions_overlap`` (both ``mentions_overlap`` and
    ``mentions_cross`` do), so a mention is checked only against the kept
    mentions that share a word with it.
    """
    order = sorted(mentions, key=lambda m: (-getattr(m, "score", 0.0), m.start_word, m.end_word))
    kept: list[Mention] = []
    covering: dict[int, list[Mention]] = {}  # word -> kept mentions over it
    for m in order:
        words = range(m.start_word, m.end_word + 1)
        if not any(conflict(m, k) for w in words for k in covering.get(w, ())):
            kept.append(m)
            for w in words:
                covering.setdefault(w, []).append(m)
    return kept


def validate_document(doc: Document, *, allow_overlap: bool = False) -> None:
    """Check sentence/mention invariants; raise ValidationError naming the doc.

    Gold corpora must have non-empty words, in-bounds mentions, and (unless
    ``allow_overlap``) pairwise non-overlapping mentions per sentence, which
    forbids nesting as a special case.  Sentence character ranges must be
    ordered, disjoint, and within the document text.
    """
    prev_end = -1
    for si, sent in enumerate(doc.sentences):
        where = f"document {doc.id!r}, sentence {si}"
        if not sent.words or "" in sent.words:
            raise ValidationError(f"{where}: empty word list or empty word")
        if not (0 <= sent.char_start <= sent.char_end <= len(doc.text)):
            raise ValidationError(f"{where}: character range outside document text")
        if sent.char_start < prev_end:
            raise ValidationError(f"{where}: sentence character ranges out of order or overlapping")
        prev_end = sent.char_end
        n = len(sent.words)
        for m in sent.mentions:
            if not (0 <= m.start_word <= m.end_word < n):
                raise ValidationError(
                    f"{where}: mention ({m.start_word},{m.end_word},{m.label!r}) out of bounds for {n} words"
                )
            if not m.label:
                raise ValidationError(f"{where}: mention with empty label")
        if not allow_overlap:
            ms = sorted(sent.mentions, key=lambda m: (m.start_word, m.end_word))
            for a, b in zip(ms, ms[1:]):
                if mentions_overlap(a, b):
                    raise ValidationError(
                        f"{where}: overlapping or nested gold mentions "
                        f"({a.start_word},{a.end_word},{a.label!r}) and "
                        f"({b.start_word},{b.end_word},{b.label!r})"
                    )


def require_sentences(docs: Sequence[Document], what: str) -> None:
    """Refuse ``docs`` unless one of them holds a sentence: a corpus that is
    not segmented yet would train, predict and score on nothing."""
    for doc in docs:
        if doc.sentences:
            return
    raise UnusableDataError(f"{what} contains no sentences; segment it first")


def _load(path: str | Path, *, predicted: bool) -> list[Document]:
    path = str(path)
    read = _record_reader(Document, predicted)
    docs = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, 1):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    obj = json.loads(raw)
                    if type(obj) is dict and "sentences" not in obj:  # the default [] serves code, not files
                        raise FormatError("invalid document: missing field 'sentences'")
                    doc = read(obj, "document")
                except json.JSONDecodeError as exc:
                    raise FormatError(f"invalid JSON ({exc.msg})", path=path, line=lineno) from exc
                except FormatError as exc:
                    raise FormatError(str(exc), path=path, line=lineno) from exc
                validate_document(doc, allow_overlap=predicted)
                docs.append(doc)
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise FormatError(f"unreadable file ({_reason(exc)})", path=path) from exc
    return docs


def load_corpus(path: str | Path) -> list[Document]:
    """Load a gold corpus, validating all annotation invariants.

    The label inventory of the loaded corpus is available through
    ``LabelInventory.from_documents`` (types sorted lexicographically).
    A document with an empty "sentences" list is legal and signals that it
    still needs segmentation.
    """
    return _load(path, predicted=False)


def load_predictions(path: str | Path) -> list[Document]:
    """Load a prediction file: same schema, scores kept, nesting allowed."""
    return _load(path, predicted=True)


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------


def split_train_tune(docs: Sequence[Document], n_train: int) -> tuple[list[Document], list[Document]]:
    """Deterministic prefix split: first n_train docs train, the rest tune.

    File order is preserved and no shuffling happens, so the split only
    depends on the corpus file itself.
    """
    if not 0 < n_train < len(docs):
        raise UnusableDataError(
            f"n_train must satisfy 0 < n_train < {len(docs)} (both splits non-empty), got {n_train}"
        )
    return list(docs[:n_train]), list(docs[n_train:])


# ---------------------------------------------------------------------------
# Synthetic corpora
# ---------------------------------------------------------------------------


# The generator's fixed shape.  ``TERMINATOR`` is also the one the splitter
# ends sentences at, so it finds the generated sentences again.
TERMINATOR = "."
_MENTION_LEN = (1, 3)
_COMMON_POOL_SIZE = 60
_TYPE_POOL_SIZE = 16
_OOV_POOL_SIZE = 400


@dataclass(frozen=True)
class SyntheticProfile:
    """Knobs for the synthetic corpus generator; ranges are held as tuples.

    ``oov_fraction`` is the probability that a mention word is drawn from a
    large pool of rare words instead of its type's small pool; rare words
    stay fragmented under a BPE vocabulary trained on the corpus, which is
    what the fragmentation analyses need to see.
    """

    sentences_per_doc: tuple[int, int] = (2, 4)
    words_per_sentence: tuple[int, int] = (11, 16)
    mentions_per_sentence: tuple[int, int] = (0, 2)
    oov_fraction: float = 0.2

    def __post_init__(self) -> None:
        for name in ("sentences_per_doc", "words_per_sentence", "mentions_per_sentence"):
            lo, hi = getattr(self, name)
            if not (0 <= lo <= hi):
                raise ValueError(f"{name} must be an ordered non-negative range, got ({lo},{hi})")
            object.__setattr__(self, name, (lo, hi))
        if self.words_per_sentence[0] < 3:
            raise ValueError("sentences need at least 3 words to place mentions away from the terminator")
        if not 0.0 <= self.oov_fraction <= 1.0:
            raise ValueError(f"oov_fraction must be in [0,1], got {self.oov_fraction}")


def _random_word(rng: np.random.Generator, lo: int, hi: int) -> str:
    length = int(rng.integers(lo, hi + 1))
    letters = rng.integers(0, 26, size=length)
    return "".join(string.ascii_lowercase[i] for i in letters)


def _fill_pool(rng: np.random.Generator, size: int, lo: int, hi: int, taken: set[str]) -> list[str]:
    pool: list[str] = []
    while len(pool) < size:
        w = _random_word(rng, lo, hi)
        if w not in taken:
            taken.add(w)
            pool.append(w)
    return pool


def synthetic_pools(seed: int, inventory: LabelInventory) -> tuple[list[str], dict[str, list[str]], list[str]]:
    """The exact word pools ``generate_synthetic`` uses for this seed.

    Returns (common, per-type, oov) pools; all pairwise disjoint.  Exposed so
    tests can count how many generated mention words came from the oov pool.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])
    taken: set[str] = set()
    common = _fill_pool(rng, _COMMON_POOL_SIZE, 3, 7, taken)
    type_pools = {t: _fill_pool(rng, _TYPE_POOL_SIZE, 4, 8, taken) for t in inventory.types}
    oov = _fill_pool(rng, _OOV_POOL_SIZE, 6, 12, taken)
    return common, type_pools, oov


def _place_mentions(
    rng: np.random.Generator, n_words: int, profile: SyntheticProfile, inventory: LabelInventory
) -> list[tuple[int, int, str]]:
    lo, hi = profile.mentions_per_sentence
    want = int(rng.integers(lo, hi + 1))
    placed: list[tuple[int, int]] = []
    out = []
    for _ in range(want):
        length = int(rng.integers(_MENTION_LEN[0], _MENTION_LEN[1] + 1))
        # last word carries the terminator; keep mentions off it
        limit = n_words - 1 - length
        if limit < 0:
            continue
        for _attempt in range(8):
            start = int(rng.integers(0, limit + 1))
            end = start + length - 1
            # one-word gap so adjacent same-type mentions cannot fuse
            if all(end < s - 1 or start > e + 1 for s, e in placed):
                placed.append((start, end))
                label = inventory.types[int(rng.integers(0, len(inventory.types)))]
                out.append((start, end, label))
                break
    out.sort()
    return out


def generate_synthetic(
    seed: int,
    n_docs: int,
    inventory: LabelInventory,
    profile: SyntheticProfile | None = None,
) -> list[Document]:
    """Generate a deterministic, fully segmented synthetic corpus.

    Every sentence ends with ``TERMINATOR`` attached to its final word and has
    at least ``words_per_sentence[0]`` words, so the shipped sentence
    splitter (default threshold 10) reproduces the generated boundaries
    exactly when ``words_per_sentence[0] >= 11``.
    """
    if n_docs <= 0:
        raise ValueError(f"n_docs must be positive, got {n_docs}")
    if len(inventory) == 0:
        raise ValueError("inventory must contain at least one type")
    profile = profile or SyntheticProfile()

    common, type_pools, oov = synthetic_pools(seed, inventory)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])

    docs = []
    for di in range(n_docs):
        sentences = []
        parts = []
        cursor = 0
        n_sents = int(rng.integers(profile.sentences_per_doc[0], profile.sentences_per_doc[1] + 1))
        for _si in range(n_sents):
            n_words = int(rng.integers(profile.words_per_sentence[0], profile.words_per_sentence[1] + 1))
            slots = _place_mentions(rng, n_words, profile, inventory)
            words = [common[int(i)] for i in rng.integers(0, len(common), size=n_words)]
            mentions = []
            for start, end, label in slots:
                for w in range(start, end + 1):
                    if rng.random() < profile.oov_fraction:
                        words[w] = oov[int(rng.integers(0, len(oov)))]
                    else:
                        pool = type_pools[label]
                        words[w] = pool[int(rng.integers(0, len(pool)))]
                mentions.append(Mention(start_word=start, end_word=end, label=label))
            words[-1] = words[-1] + TERMINATOR
            sent_text = " ".join(words)
            if parts:
                cursor += 1  # single joining space
            sentences.append(
                Sentence(
                    words=words,
                    char_start=cursor,
                    char_end=cursor + len(sent_text),
                    mentions=mentions,
                )
            )
            parts.append(sent_text)
            cursor += len(sent_text)
        doc = Document(id=f"syn-{di:04d}", text=" ".join(parts), sentences=sentences)
        validate_document(doc)
        docs.append(doc)
    return docs


def strip_segmentation(docs: Sequence[Document]) -> list[Document]:
    """Copies with empty sentence lists: raw documents awaiting segmentation."""
    return [replace(doc, sentences=[]) for doc in docs]
