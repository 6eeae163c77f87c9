"""The benchmark's tracer must find every function it wraps.

``bench/run.py --trace 1`` wraps the functions in ``workloads.TARGETS`` at
every binding and fails the run when one is missing.  Installing and
uninstalling the tracer here, without running anything, catches a renamed
or deleted target in seconds instead of at the end of a benchmark run.
"""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bindings(targets) -> dict:
    out = {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name.startswith("dualner.")
        for attr, value in vars(mod).items()
    }
    for t in targets:
        mod_name, _, cls_name = t.owner.partition(":")
        if cls_name:
            out[(t.owner, t.attr)] = getattr(getattr(sys.modules[mod_name], cls_name), t.attr)
    return out


def test_tracer_installs_over_every_benchmark_target(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans
    import workloads

    before = _bindings(workloads.TARGETS)
    tracer = spans.Tracer()
    tracer.install(workloads.TARGETS)
    tracer.uninstall()
    after = _bindings(workloads.TARGETS)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
