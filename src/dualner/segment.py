"""Heuristic sentence splitting.

A full stop only ends a sentence once the sentence accumulated so far has
more than ``min_words`` whitespace words; everything else, abbreviations
included, rides on that single guard.  Words are maximal non-whitespace
runs and the terminator belongs to the word it trails, so the flat word
sequence of the output always equals the whitespace tokenization of the
input.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

from .corpus import TERMINATOR, Document, Sentence

__all__ = ["SegmenterConfig", "split_sentences", "segment_document"]

_WORD = re.compile(r"\S+")


@dataclass(frozen=True)
class SegmenterConfig:
    min_words: int = 10

    def __post_init__(self) -> None:
        if self.min_words < 0:
            raise ValueError(f"min_words must be >= 0, got {self.min_words}")


def split_sentences(text: str, cfg: SegmenterConfig | None = None) -> list[Sentence]:
    """Split raw text into sentences with word lists and character offsets.

    A boundary is emitted after a word ending in ``TERMINATOR`` (the
    synthetic generator's, so the splitter re-finds its sentences) when the
    current sentence already holds strictly more than ``cfg.min_words``
    words (the terminator word included).  The trailing partial sentence is
    emitted even without a terminator.
    """
    cfg = cfg or SegmenterConfig()
    sentences: list[Sentence] = []
    words: list[str] = []
    start = end = 0
    for match in _WORD.finditer(text):
        if not words:
            start = match.start()
        words.append(match.group())
        end = match.end()
        if match.group().endswith(TERMINATOR) and len(words) > cfg.min_words:
            sentences.append(Sentence(words=words, char_start=start, char_end=end))
            words = []
    if words:
        sentences.append(Sentence(words=words, char_start=start, char_end=end))
    return sentences


def segment_document(doc: Document, cfg: SegmenterConfig | None = None) -> Document:
    """Populate ``doc.sentences`` from its text; already-segmented docs pass through.

    Pass-through keeps the pipeline idempotent on corpora that ship with
    sentences (the synthetic generator emits those, since gold mentions can
    only live on segmented sentences).
    """
    if doc.sentences:
        return doc
    return replace(doc, sentences=split_sentences(doc.text, cfg))
