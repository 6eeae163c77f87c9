"""Resolution of nested span predictions.

Flat gold annotations cannot contain one mention inside another, so the
span classifier's nested outputs must be thinned before scoring.  Two
strategies: keep_inner drops every mention that strictly contains another
from the set, keep_outer drops every mention strictly contained in another.
Containment is judged on word indices alone, regardless of type; mentions
sharing the exact same span are duplicates and the higher-scoring one wins.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from .corpus import Document, Mention, mentions_cross, strictly_contains
from .errors import ContractViolationError

__all__ = ["STRATEGIES", "resolve_nesting", "resolve_documents"]

STRATEGIES = ("none", "keep_inner", "keep_outer")


def _check_no_crossing(mentions: Sequence[Mention]) -> None:
    ordered = sorted(mentions, key=lambda m: (m.start_word, m.end_word))
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            if b.start_word > a.end_word:
                break
            # equal spans are duplicates here, settled by _dedupe_equal_spans
            if mentions_cross(a, b) and (a.start_word, a.end_word) != (b.start_word, b.end_word):
                raise ContractViolationError(
                    f"overlapping non-nested mentions ({a.start_word},{a.end_word}) and "
                    f"({b.start_word},{b.end_word}); decode resolves these before post-processing"
                )


def _dedupe_equal_spans(mentions: list[Mention]) -> list[Mention]:
    best: dict[tuple[int, int], Mention] = {}
    for m in mentions:
        span = (m.start_word, m.end_word)
        cur = best.get(span)
        if cur is None:
            best[span] = m
            continue
        if (-getattr(m, "score", 0.0), m.label) < (-getattr(cur, "score", 0.0), cur.label):
            best[span] = m
    keep = set(map(id, best.values()))
    return [m for m in mentions if id(m) in keep]


def resolve_nesting(mentions: Sequence[Mention], strategy: str) -> list[Mention]:
    """Return a nest-free subset of ``mentions`` under the chosen strategy.

    ``none`` is the identity (raw span output); the other strategies are
    idempotent and never invent or modify a mention.  Input must be free of
    overlapping non-nested pairs, which the span decoder guarantees.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    _check_no_crossing(mentions)
    if strategy == "none":
        return list(mentions)
    kept = _dedupe_equal_spans(list(mentions))
    # one pass is a fixed point: a survivor strictly contains (keep_inner) or
    # lies strictly inside (keep_outer) no mention of ``kept``, survivors included
    if strategy == "keep_inner":
        return [m for m in kept if not any(strictly_contains(m, o) for o in kept)]
    return [m for m in kept if not any(strictly_contains(o, m) for o in kept)]


def resolve_documents(docs: Sequence[Document], strategy: str) -> list[Document]:
    """Copies of ``docs`` with every sentence's mentions resolved by ``strategy``."""
    return [
        replace(doc, sentences=[
            replace(s, mentions=resolve_nesting(s.mentions, strategy)) for s in doc.sentences
        ])
        for doc in docs
    ]
