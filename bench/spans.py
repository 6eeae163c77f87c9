"""Spans recorded from outside the program, and the per-layer sums made from them.

The tracer replaces a public function of ``dualner`` at every binding a
caller can reach: the defining module's attribute and every ``from .x
import f`` copy in the other modules (found by identity, whatever the local
name), or the class attribute for a method.  Each call then records one
span (name, start, end, parent, run id, work count).  Spans stay in memory
until ``write`` and every binding is restored by ``uninstall``.

A span's layer is the part of its name before the first dot.  The self
time of a span is its duration minus the time covered by its outermost
traced descendants in the layers the query names.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from dataclasses import dataclass
from functools import wraps
from pathlib import Path
from typing import Callable, Iterable

# Span tuple fields
NAME, START, END, PARENT, RUN, COUNT = range(6)


@dataclass(frozen=True)
class Target:
    """One traced function: ``owner`` is a module path or ``module:Class``."""

    owner: str
    attr: str
    name: str
    count: Callable | None = None  # (args, kwargs) -> work count of the call
    rename: Callable | None = None  # (args, kwargs) -> span name for this call


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.run = ""
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, fn, target: Target):
        spans, stack = self.spans, self._stack
        tracer = self
        clock = time.perf_counter_ns

        @wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                name = target.rename(args, kwargs) if target.rename else target.name
                n = target.count(args, kwargs) if target.count else 1
                spans[sid] = (name, start, end, parent, tracer.run, n)

        return traced

    def region(self, name: str):
        """Context manager recording the benchmark's own phases as spans."""
        return _Region(self, name)

    # -- bindings --------------------------------------------------------

    def install(self, targets: Iterable[Target], package: str = "dualner") -> None:
        """Wrap every target at every binding; raise if a target is missing."""
        modules = [m for k, m in sorted(sys.modules.items()) if k == package or k.startswith(package + ".")]
        try:
            for target in targets:
                mod_name, _, cls_name = target.owner.partition(":")
                owner = sys.modules[mod_name]
                if cls_name:
                    owner = getattr(owner, cls_name)
                original = getattr(owner, target.attr)
                wrapper = self._wrap(original, target)
                if cls_name:
                    self._patch(owner, target.attr, original, wrapper)
                    continue
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": s[NAME], "start_ns": s[START],
                                     "end_ns": s[END], "parent": s[PARENT], "run": s[RUN],
                                     "count": s[COUNT]}) + "\n")


class _Region:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.sid = len(t.spans)
        t.spans.append(None)
        self.parent = t._stack[-1] if t._stack else -1
        t._stack.append(self.sid)
        self.start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter_ns()
        t = self.tracer
        t._stack.pop()
        t.spans[self.sid] = (self.name, self.start, end, self.parent, t.run, 1)


# ---------------------------------------------------------------------------
# Queries over the spans of one run id
# ---------------------------------------------------------------------------


class RunSpans:
    """The spans of one run id, with children lists for tree queries."""

    def __init__(self, spans: list[tuple], run: str) -> None:
        self.all = spans
        self.ids = [i for i, s in enumerate(spans) if s[RUN] == run]
        self.children: dict[int, list[int]] = {i: [] for i in self.ids}
        for i in self.ids:
            p = spans[i][PARENT]
            if p in self.children:
                self.children[p].append(i)

    def dur(self, i: int) -> float:
        s = self.all[i]
        return (s[END] - s[START]) * 1e-9

    def named(self, names: Iterable[str], within: Iterable[str] = ()) -> list[int]:
        """Outermost spans with a name in ``names``, under a span named in
        ``within`` when that is given."""
        names, within = set(names), set(within)
        return [
            i for i in self.ids
            if self.all[i][NAME] in names
            and not self._has_ancestor(i, names)
            and (not within or self._has_ancestor(i, within))
        ]

    def _has_ancestor(self, i: int, names: set[str]) -> bool:
        p = self.all[i][PARENT]
        while p >= 0:
            if self.all[p][NAME] in names:
                return True
            p = self.all[p][PARENT]
        return False

    def calls(self, name: str) -> int:
        return sum(1 for i in self.ids if self.all[i][NAME] == name)

    def count(self, name: str, within: Iterable[str] = ()) -> int:
        """Summed work count of every span called ``name`` (under ``within``)."""
        within = set(within)
        return sum(
            self.all[i][COUNT] for i in self.ids
            if self.all[i][NAME] == name and (not within or self._has_ancestor(i, within))
        )

    def seconds(self, names: Iterable[str], within: Iterable[str] = ()) -> float:
        return sum(self.dur(i) for i in self.named(names, within))

    def self_seconds(self, i: int, exclude_layers: Iterable[str]) -> float:
        """Duration of span ``i`` minus its outermost descendants in ``exclude_layers``."""
        layers = set(exclude_layers)
        covered = 0.0
        todo = list(self.children[i])
        while todo:
            c = todo.pop()
            if self.all[c][NAME].split(".", 1)[0] in layers:
                covered += self.dur(c)
            else:
                todo.extend(self.children[c])
        return self.dur(i) - covered
