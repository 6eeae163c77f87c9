#!/usr/bin/env python3
"""Run one dualner benchmark workload and print its metrics.

    python3 bench/run.py --workload tagger_short --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports ``dualner`` from its
``src/``, in one process, one operation at a time (a closed loop of one
caller), with BLAS and OpenMP pinned to one thread.  The run sets up the
workload several times (``setup_s`` is their median), then runs one traced
warm-up operation, which gives the work counts and the determinism
reference, and then timed operations until ``--seconds`` have passed.

Every timing is a median over many samples.  On the shared two-core
machine this benchmark was built on, other tenants slowed a process by up
to 2x, each core by a different amount, for spells from milliseconds to
minutes.  So before the set-ups and before each timed operation the run
pins itself to the core where a short calibration kernel runs fastest,
and while an untimed set-up or operation runs, ``SpeedProbe`` samples that
kernel 50 times a second.  Each reported time (and so each rate) is
scaled to a machine on which the kernel takes ``REF_KERNEL_MS``; the
``run`` line also prints the unscaled medians.

``--trace 0`` times every operation untraced and reports the end-to-end
metrics.  ``--trace 1`` traces every set-up and every other operation and
reports the per-layer metrics; the untraced operations between them give
the tracing overhead.  Spans go to ``.bench_out/`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every check passed, 1 when one failed and 2 when the checkout has no
``src/dualner`` to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import signal
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_MIN_REPEATS = 3  # set up at least this often, and until SETUP_SECONDS have passed
SETUP_SECONDS = 3.0
REF_KERNEL_MS = 1.0  # reported times are scaled to a machine where kernel_once_ms reads this

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_subtokens_per_s": "subtokens/s",
    "predict_words_per_s": "words/s",
    "final_loss": "nats",
    "peak_rss_mb": "MiB",
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "dualner" / "__init__.py").is_file():
        print(f"error: no dualner sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import dualner

    if Path(dualner.__file__).resolve().parent != (SRC / "dualner").resolve():
        print(f"error: imported dualner from {dualner.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cpus = sorted(os.sched_getaffinity(0))
    env = environment()
    env["cpu"] = pin_quietest_cpu(cpus)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as work_dir:
        bench = Bench(workloads, Tracer(), args, Path(work_dir), env, cpus)
        return bench.run()


def kernel_ms(samples: int = 40) -> float:
    """Mean of ``samples`` timings of ``kernel_once_ms`` on the current core."""
    return statistics.fmean(kernel_once_ms() for _ in range(samples))


_KERNEL = None


def kernel_once_ms() -> float:
    """Time of one run of a small fixed numpy kernel, about 1 ms: the speed
    the machine gives this process at this moment.  It does not depend on
    the program under test."""
    global _KERNEL
    import numpy as np

    if _KERNEL is None:
        _KERNEL = (np.full((20, 64), 0.5), np.full((64, 64), 0.01))
    x, a = _KERNEL
    t0 = time.perf_counter()
    for _ in range(100):
        np.tanh(x @ a).sum()
    return (time.perf_counter() - t0) * 1e3


class SpeedProbe:
    """Measures the machine's speed while untraced regions of the program run.

    On the shared machine the benchmark was built on, the speed a process
    gets flickers by up to 2x within fractions of a second, so a reading
    taken before and after a region of a second or more says little about
    it.  Instead a timer interrupts the program every ``INTERVAL_S`` and
    times one ``kernel_once_ms``.  ``clock`` leaves out the time spent in
    these interruptions, and ``region`` records the mean kernel time seen
    while it was open, so that the region's time can be scaled to a machine
    of fixed speed (``_scaled``)."""

    INTERVAL_S = 0.02

    def __init__(self) -> None:
        self.spent = 0.0  # seconds spent in interruptions
        self.samples: list[float] = []
        self.speeds: list[float] = []  # mean kernel ms of each region, in order

    def clock(self) -> float:
        return time.perf_counter() - self.spent

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(kernel_once_ms())
        self.spent += time.perf_counter() - t0

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            yield self.region
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def region(self, name: str):
        first = len(self.samples)
        yield
        seen = self.samples[first:] or [kernel_once_ms()]
        self.speeds.append(statistics.fmean(seen))


def pin_quietest_cpu(cpus: list[int]) -> dict:
    """Pin the process to the core of ``cpus`` where ``kernel_ms`` is
    lowest, and report what was measured.  The cores' loads from other
    tenants vary independently."""
    measured = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        measured[cpu] = kernel_ms()
    chosen = min(cpus, key=measured.get)
    os.sched_setaffinity(0, {chosen})
    return {"pinned": chosen, "kernel_ms": measured}


class Bench:
    def __init__(self, workloads, tracer, args, work_dir: Path, env: dict, cpus: list[int]) -> None:
        self.W = workloads
        self.w = workloads.WORKLOADS[args.workload]
        self.tracer = tracer
        self.args = args
        self.work_dir = work_dir
        self.env = env
        self.cpus = cpus
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.probe = SpeedProbe()

    @contextmanager
    def _phase(self, run: str, traced: bool):
        """Yields the region factory for ``run``: traced regions if asked,
        else regions that measure the machine's speed."""
        self.probe.speeds = []
        if not traced:
            with self.probe.running() as region:
                yield region
            return
        self.tracer.run = run
        self.tracer.install(self.W.TARGETS)
        try:
            yield self.tracer.region
        finally:
            self.tracer.uninstall()

    def _record(self, run: str, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.failures += [f"{run}: {f}" for f in failures]

    def run(self) -> int:
        import layers

        W, w, seed, trace = self.W, self.w, self.args.seed, bool(self.args.trace)
        clock = self.probe.clock

        setup_s: list[float] = []
        setup_speed: list[float] = []  # untraced only
        while len(setup_s) < SETUP_MIN_REPEATS or sum(setup_s) < SETUP_SECONDS:
            k = len(setup_s)
            with self._phase(f"setup-{k}", trace) as region:
                with region("bench.setup"):
                    t0 = clock()
                    prep = W.set_up(w, seed)
                    setup_s.append(clock() - t0)
            setup_speed += self.probe.speeds
            fails = list(prep.failures)
            if trace:
                fails += layers.coverage(self.tracer.spans, f"setup-{k}", W.EXPECTED[w.name]["setup"])
            self._record(f"setup-{k}", fails)

        # Warm-up: traced, untimed; its counts and loss are the reference.
        with self._phase("op-0", True) as region:
            ref = W.run_op(w, prep, region, clock, self.work_dir)
        ref_counts = layers.counts(self.tracer.spans, "op-0")
        train_subtokens = ref_counts["train.subtokens"]
        self._record("op-0", ref.failures + layers.coverage(
            self.tracer.spans, "op-0", W.EXPECTED[w.name]["op"]))

        timed: list[tuple[str, bool, object]] = []
        op_speed: dict[str, list[float]] = {}  # untraced: [train, *score passes]
        start = time.perf_counter()
        i = 1
        while (time.perf_counter() - start < self.args.seconds
               or (trace and not {t for _, t, _ in timed} >= {True, False})):
            run = f"op-{i}"
            traced = trace and i % 2 == 0
            pin_quietest_cpu(self.cpus)
            with self._phase(run, traced) as region:
                op = W.run_op(w, prep, region, clock, self.work_dir)
            op_speed[run] = self.probe.speeds
            fails = list(op.failures)
            if op.final_loss != ref.final_loss:
                fails.append(f"final_loss {op.final_loss!r} differs from warm-up {ref.final_loss!r}")
            if traced:
                fails += layers.coverage(self.tracer.spans, run, W.EXPECTED[w.name]["op"])
                got = layers.counts(self.tracer.spans, run)
                if got != ref_counts:
                    diff = sorted(k for k in got if got[k] != ref_counts.get(k))
                    fails.append(f"traced counts differ from warm-up: {diff}")
            self._record(run, fails)
            timed.append((run, traced, op))
            i += 1

        untraced = [(op, op_speed[r]) for r, t, op in timed if not t]
        walls = [_wall(op) for op, _ in untraced]
        train_s = [(op.train_s, speed[0]) for op, speed in untraced]
        score_s = [pair for op, speed in untraced for pair in zip(op.score_s, speed[1:])]
        speeds = [k for _, speed in untraced for k in speed]
        spread = {
            "timed_ops": len(untraced),
            "op_wall_iqr_over_median": _iqr_share(walls),
            "warmup_wall_over_median": _wall(ref) / statistics.median(walls),
            "kernel_ms_median": statistics.median(speeds),
            "kernel_ms_iqr_over_median": _iqr_share(speeds),
            "unscaled": {
                "setup_s": statistics.median(setup_s),
                "train_subtokens_per_s": statistics.median(train_subtokens / t for t, _ in train_s),
                "predict_words_per_s": statistics.median(prep.n_words / t for t, _ in score_s),
            },
        }
        if trace:
            metrics = layers.per_layer(self.tracer.spans, n_setups=len(setup_s),
                                       traced_runs=[r for r, t, _ in timed if t],
                                       ref_counts=ref_counts, prep=prep)
            traced_walls = [_wall(op) for _, t, op in timed if t]
            metrics["trace.overhead_ratio"] = (statistics.median(traced_walls)
                                               / statistics.median(walls), "ratio")
        else:
            metrics = {
                "setup_s": statistics.median(_scaled(t, k) for t, k in zip(setup_s, setup_speed)),
                "train_subtokens_per_s": statistics.median(train_subtokens / _scaled(t, k)
                                                           for t, k in train_s),
                "predict_words_per_s": statistics.median(prep.n_words / _scaled(t, k)
                                                         for t, k in score_s),
                "final_loss": ref.final_loss,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}

        env = self.env
        header = {"workload": w.name, "seed": seed, "trace": int(trace), "env": env, "spread": spread,
                  "train_subtokens_per_op": train_subtokens, "words_per_op": prep.n_words,
                  "final_loss_hex": ref.final_loss.hex(), "counts": ref_counts}
        self.tracer.write(OUT / f"spans-{w.name}-seed{seed}-trace{int(trace)}.jsonl.gz", header)

        print("env " + json.dumps(env, sort_keys=True))
        print("run " + json.dumps({k: v for k, v in header.items() if k != "env"}, sort_keys=True))
        for f in self.failures:
            print(f"FAILED {f}")
        print(f"checks: {self.attempted - self.failed}/{self.attempted} operations passed")
        for name, (value, unit) in metrics.items():
            print(f"{name:<32} {value:>16.6g} {unit}")
        correct = self.failed == 0
        print(json.dumps({
            "correct": correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0 if correct else 1


def _scaled(seconds: float, speed_ms: float) -> float:
    """``seconds`` measured while ``kernel_once_ms`` read ``speed_ms`` on
    average, scaled to a machine on which it reads ``REF_KERNEL_MS``."""
    return seconds * REF_KERNEL_MS / speed_ms


def _wall(op) -> float:
    return op.train_s + sum(op.score_s)


def _iqr_share(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def environment() -> dict:
    import numpy
    import scipy

    def blas(show_config) -> str:
        try:
            info = show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info['name']} {info['version']}"
        except (KeyError, TypeError):
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),  # called before pinning
        "cpu_model": _cpu_model(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


if __name__ == "__main__":
    sys.exit(main())
