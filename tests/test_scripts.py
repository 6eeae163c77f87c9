"""The demo scripts in ``scripts/`` run end to end at tiny sizes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name: str, *args: str) -> None:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, check=True, capture_output=True, timeout=300,
    )


def test_protocol_demo_writes_report(tmp_path):
    _run_script(
        "run_protocol_demo.py", "--out-dir", str(tmp_path),
        "--docs", "6", "--n-train", "4", "--epochs", "1", "--seeds", "0", "1",
    )
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["seeds"] == [0, 1]
    assert {(r["method"], r["split"]) for r in report["rows"]} == {
        (m, s) for m in ("word_tagger", "span_classifier") for s in ("train", "tune")
    }
    assert all(len(r["metrics"]["f1"]["values"]) == 2 for r in report["rows"])


def test_tapt_demo_writes_sweep(tmp_path):
    _run_script(
        "run_tapt_demo.py", "--out-dir", str(tmp_path), "--docs", "6", "--steps", "2", "--checkpoint-every", "1",
    )
    points = json.loads((tmp_path / "sweep.json").read_text())["points"]
    assert [p["step"] for p in points] == [0, 1, 2]
    assert all(list(p) == ["step", "f1", "best_step"] and 0.0 <= p["f1"] <= 1.0 for p in points)
