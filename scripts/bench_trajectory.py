#!/usr/bin/env python3
"""Print the medians of the committed benchmark runs.

    python3 scripts/bench_trajectory.py [BENCH_x.json ...]

Reads the given ``BENCH_*.json`` files (default: every one at the root of
the checkout) and prints, per file, list of runs, workload, seed and side
(``parent`` or ``change``, with the revision where a file records one),
the number of runs and the median of each end-to-end metric of
``bench/run.py``.  Each run keeps the harness's last
output line under ``result``; most files also keep its ``run`` line, which
adds ``final_loss_hex`` (printed when every run of the group has it) and a
second copy of the workload name.  Lists of traced runs, which hold
per-layer metrics only, are skipped.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = ("setup_s", "train_subtokens_per_s", "predict_words_per_s", "final_loss", "peak_rss_mb")


def medians(doc: dict) -> list[dict]:
    """One row per (list of runs, workload, seed, side) of a ``BENCH_*.json`` object."""
    rows = []
    for key, runs in doc.items():
        if not (key == "runs" or key.endswith("_runs")) or not isinstance(runs, list):
            continue
        groups: dict[tuple, list[dict]] = {}
        for run in runs:
            metrics = run["result"]["metrics"]
            if not set(METRICS) <= metrics.keys():
                continue
            workload = run.get("workload") or run["run"]["workload"]
            seed = run.get("seed", run.get("run", {}).get("seed"))
            groups.setdefault((workload, seed, run["side"], run.get("revision")), []).append(run)
        for (workload, seed, side, revision), group in groups.items():
            if revision is not None:  # a file measured over revisions of the change
                side = f"{side}@{revision}"
            row = {"runs": key, "workload": workload, "seed": seed, "side": side, "n": len(group)}
            for name in METRICS:
                row[name] = statistics.median(r["result"]["metrics"][name]["value"] for r in group)
            hexes = {r["run"]["final_loss_hex"] for r in group if "run" in r}
            if hexes and all("run" in r for r in group):
                row["final_loss_hex"] = sorted(hexes)
            rows.append(row)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("files", nargs="*", type=Path)
    args = ap.parse_args(argv)
    for path in args.files or sorted(ROOT.glob("BENCH_*.json")):
        for row in medians(json.loads(path.read_text(encoding="utf-8"))):
            values = " ".join(f"{name}={row[name]:.6g}" for name in METRICS)
            hexes = f" final_loss_hex={','.join(row['final_loss_hex'])}" if "final_loss_hex" in row else ""
            print(f"{path.name} {row['runs']} {row['workload']} seed={row['seed']} {row['side']} "
                  f"n={row['n']} {values}{hexes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
