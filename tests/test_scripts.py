"""The measurement scripts in ``scripts/`` (bit fingerprint, call counts,
benchmark trajectory) run end to end and print what they document."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, check=True, capture_output=True, timeout=300, text=True,
    )
    return done.stdout


def _bench_run(side: str, rate: float, with_run_line: bool) -> dict:
    metrics = {"setup_s": 0.1, "train_subtokens_per_s": rate, "predict_words_per_s": 2.0 * rate,
               "final_loss": 5.0, "peak_rss_mb": 80.0}
    run = {"pair": 1, "side": side, "seed": 1,
           "result": {"correct": True, "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}}
    if with_run_line:  # the workload is named in the harness's run line only
        run["run"] = {"workload": "mlm_bigvocab", "seed": 1, "final_loss_hex": (5.0).hex()}
    else:
        run["workload"] = "mlm_bigvocab"
    return run


def test_bench_trajectory_reads_both_schemas(tmp_path):
    """Medians per file, workload, seed and side, from runs that keep only
    the harness's ``result`` and from runs that keep its ``run`` line too;
    a list of traced runs without end-to-end metrics is skipped."""
    traced = {"side": "change", "workload": "mlm_bigvocab", "result": {"metrics": {"encoder.bwd_s": {"value": 1.0}}}}
    for name, with_run_line in (("BENCH_result.json", False), ("BENCH_run.json", True)):
        runs = [_bench_run(side, rate, with_run_line)
                for side, rate in (("parent", 100.0), ("change", 130.0), ("parent", 110.0), ("change", 150.0))]
        (tmp_path / name).write_text(json.dumps({"runs": runs, "traced_runs": [traced]}), encoding="utf-8")
    out = _run_script("bench_trajectory.py", str(tmp_path / "BENCH_result.json"), str(tmp_path / "BENCH_run.json"))
    lines = out.splitlines()
    assert len(lines) == 4
    for name, hexes in (("BENCH_result.json", ""), ("BENCH_run.json", f" final_loss_hex={(5.0).hex()}")):
        for side, rate in (("parent", 105), ("change", 140)):
            want = (f"{name} runs mlm_bigvocab seed=1 {side} n=2 setup_s=0.1 train_subtokens_per_s={rate} "
                    f"predict_words_per_s={2 * rate} final_loss=5 peak_rss_mb=80{hexes}")
            assert want in lines, out


def test_call_counts_prints_a_repeatable_count_per_path():
    """Two runs print the same positive call count for the three paths of a
    supervised workload and of the MLM workload."""
    runs = [_run_script("call_counts.py", "tagger_short", "mlm_bigvocab").splitlines() for _ in range(2)]
    assert runs[0] == runs[1]
    assert [line.rsplit(" ", 1)[0] for line in runs[0]] == [
        "tagger_short train", "tagger_short predict", "tagger_short read",
        "mlm_bigvocab mlm_eval", "mlm_bigvocab mlm_steps", "mlm_bigvocab read",
    ]
    assert all(int(line.rsplit(" ", 1)[1]) > 0 for line in runs[0])


def test_call_counts_read_does_not_depend_on_the_workloads_before_it():
    """A ``read`` count is that of a first read, whether or not another
    workload's documents were read earlier in the same process."""
    alone = _run_script("call_counts.py", "mlm_bigvocab").splitlines()
    after = _run_script("call_counts.py", "tagger_short", "mlm_bigvocab").splitlines()
    (want,) = [line for line in alone if line.startswith("mlm_bigvocab read ")]
    assert want in after


def test_bit_fingerprint_prints_a_repeatable_line():
    """Two runs print the same line for a workload: its final loss as hex
    and a sha256 of its log, final weights, scoring output, the scoring
    output of the untrained model and the evaluation report of that
    model's predictions."""
    runs = [_run_script("bit_fingerprint.py", "tagger_short") for _ in range(2)]
    assert runs[0] == runs[1]
    (line,) = runs[0].splitlines()
    name, *fields = line.split(" ")
    assert name == "tagger_short"
    values = dict(field.split("=", 1) for field in fields)
    assert list(values) == ["final_loss", "log", "weights", "scores", "init", "eval"]
    assert float.fromhex(values["final_loss"]) > 0.0
    assert all(re.fullmatch("[0-9a-f]{64}", values[key]) for key in ("log", "weights", "scores", "init", "eval"))


@pytest.mark.parametrize("script", ["call_counts.py", "bit_fingerprint.py"])
def test_benchmark_scripts_refuse_an_unknown_workload(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), "no_such_workload"],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 1 and "unknown workload" in done.stderr
