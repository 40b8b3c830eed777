"""Run one workload's passes in this process and write the result JSON.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and ``PYTHONHASHSEED`` fixed by the workload seed.  Each job is
a ``contactlax`` command line run through ``contactlax.cli.main(argv)``
with stdout captured, after clearing the engine's derivation caches, so
it costs what a fresh ``contactlax`` call costs.

Job time is reported in host-reference units as well as seconds.  The
host's speed drifts by up to 2x over tens of seconds; pure-Python work
follows that drift fully, NumPy work on large arrays only in part.  So
a fixed reference loop of the job's kind (``host_ref`` for exact jobs,
``ArrayRef`` for integrator jobs) is timed before and after every job
and, by a SIGALRM timer in this same thread, every ``SAMPLE_PERIOD_S``
during it; each stretch of job time between two samples is divided by
the mean of their loop times.  Sampling time is excluded from job time.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

import spans
import workloads

SAMPLE_PERIOD_S = 0.2
JOB_TIMEOUT_S = 90.0
RUN_CAP_S = 150.0  # no pass starts after this much of the run


def host_ref():
    """Fixed stdlib work in the style of the exact kernel: tuple-keyed
    dict updates and Fraction arithmetic.  Takes 7-14 ms."""
    d = {}
    acc = Fraction(0)
    for i in range(1500):
        k = (i % 97, i % 13, i % 7)
        d[k] = d.get(k, 0) + i
        acc += Fraction(i % 11 + 1, i % 17 + 1)
    for k in sorted(d):
        acc += d[k]
    return acc


class ArrayRef:
    """Fixed NumPy work in the style of the integrator's right-hand sides:
    elementwise products and sums streaming over 24 arrays of 32^3
    doubles (6 MB).  Takes 7-12 ms."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.arrays = [rng.random((32, 32, 32)) for _ in range(24)]

    def __call__(self):
        a = self.arrays
        acc = a[0] * 1.0
        for _ in range(5):
            for i in range(24):
                acc = acc * a[i] + a[(i + 7) % 24]
        return acc


class JobTimeout(Exception):
    pass


class HostClock:
    """Times a callable in seconds and in units of a reference loop."""

    def __init__(self, ref=host_ref, timeout_s: float = JOB_TIMEOUT_S):
        self.ref = ref
        self.timeout_s = timeout_s
        self.samples = []  # (start, end) of each reference run
        self.on_sample = None  # called with each sample's seconds
        self._deadline = None

    def _sample(self, *_):
        enabled = gc.isenabled()
        gc.disable()  # the job's garbage is collected on the job's time
        t0 = time.perf_counter()
        self.ref()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.samples.append((t0, t1))
        if self.on_sample is not None:
            self.on_sample(t1 - t0)
        if self._deadline is not None and t1 > self._deadline:
            self._deadline = None
            raise JobTimeout(f"job exceeded {self.timeout_s:.0f} s")

    def run(self, fn):
        """Returns (seconds, ref units, exception or None)."""
        self.samples = []
        self._sample()
        error = None
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._deadline = time.perf_counter() + self.timeout_s
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            fn()
        except Exception as exc:  # a failing job is counted, not fatal
            error = exc
        finally:
            self._deadline = None
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        self._sample()
        seconds = units = 0.0
        for (a0, a1), (b0, b1) in zip(self.samples, self.samples[1:]):
            work = b0 - a1
            seconds += work
            units += work / (((a1 - a0) + (b1 - b0)) / 2)
        return seconds, units, error

    def ref_seconds(self) -> list:
        return [b - a for a, b in self.samples]


# -- jobs and passes ---------------------------------------------------------


class Runner:
    def __init__(self, workload: str, seed: int, workdir: str, expected: dict):
        import contactlax.cli as cli
        from contactlax import compat

        self.cli, self.compat = cli, compat
        self.jobs = workloads.jobs_for(workload, seed)
        self.variant = workloads.phase_variant(seed)
        self.workdir = workdir
        self.expected = expected
        self.init_path = os.path.join(workdir, "init.json")
        if any(j.simulate for j in self.jobs):
            with open(self.init_path, "w") as f:
                json.dump(workloads.initial_data(self.variant), f)
        self.host_clock = HostClock(host_ref)
        self.array_clock = HostClock(ArrayRef()) if any(j.simulate for j in self.jobs) else None
        self.ref_s = []
        self.failures = []
        self.tracer = None  # spans.Spans during a traced pass

    def _clear_caches(self):
        for name in ("derive", "family_cc"):
            clear = getattr(getattr(self.compat, name, None), "cache_clear", None)
            if clear is not None:
                clear()

    def run_job(self, job, index: int) -> tuple[float, float, str | None]:
        argv = list(job.argv)
        out_path = None
        if job.system_out:
            out_path = os.path.join(self.workdir, f"job{index}.json")
            argv += ["--out-json", out_path]
        if job.simulate:
            out_path = os.path.join(self.workdir, f"job{index}.csv")
            argv += ["--init", self.init_path, "--monitor", out_path]
        self._clear_caches()
        # start the job with a fresh collector schedule and without the
        # earlier jobs' heap to scan, as a new process would
        gc.unfreeze()
        gc.collect()
        gc.freeze()
        buf = io.StringIO()
        codes = []

        def call():
            with contextlib.redirect_stdout(buf):
                codes.append(self.cli.main(argv))

        clock = self.array_clock if job.simulate else self.host_clock
        before = {k: st["self_s"] for k, st in self.tracer.stats.items()} if self.tracer else None
        seconds, units, error = clock.run(call)
        self.ref_s.extend(clock.ref_seconds())
        if before and seconds > 0:
            for key, stat in self.tracer.stats.items():
                stat["self_ref"] += (stat["self_s"] - before[key]) * units / seconds
        problem = None
        if error is not None:
            problem = f"raised {type(error).__name__}: {error}"
        else:
            try:
                workloads.check_job(job, codes[0], buf.getvalue(), out_path, self.expected, self.variant)
            except (workloads.CheckFailed, OSError, ValueError, KeyError) as exc:
                problem = f"check failed: {exc}"
        if out_path and os.path.exists(out_path):
            os.remove(out_path)
        if problem is not None:
            self.failures.append(f"{job.name}: {problem}")
        return seconds, units, problem

    def run_pass(self, traced: bool) -> dict:
        tracer = self.tracer = spans.Spans() if traced else None
        for clock in (self.host_clock, self.array_clock):
            if clock is not None:
                clock.on_sample = tracer.exclude if tracer else None
        if tracer:
            tracer.install()
        try:
            rows = [self.run_job(job, i) for i, job in enumerate(self.jobs)]
        finally:
            self.tracer = None
            if tracer:
                tracer.remove()
        return {
            "wall_s": sum(r[0] for r in rows),
            "wall_ref": sum(r[1] for r in rows),
            "slowest_job_ref": max(r[1] for r in rows),
            "failed": sum(r[2] is not None for r in rows),
            "attempted": len(rows),
            "spans": tracer.stats if tracer else None,
        }


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: str, expected: dict) -> dict:
    runner = Runner(workload, seed, workdir, expected)
    start = time.perf_counter()
    plain, traced = [], []
    if trace:
        # the first pass also pays one-time costs (first calls, jet
        # interning), so the overhead is taken against the second
        # untraced pass
        plain.append(runner.run_pass(False))
        traced.append(runner.run_pass(True))
        plain.append(runner.run_pass(False))
    else:
        while True:
            t0 = time.perf_counter()
            plain.append(runner.run_pass(False))
            now = time.perf_counter()
            if now - start + (now - t0) > min(seconds, RUN_CAP_S):
                break
    passes = plain + traced
    return {
        "workload": workload,
        "seed": seed,
        "passes": len(plain),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "failures": runner.failures,
        "wall_ref": statistics.median(p["wall_ref"] for p in plain),
        "slowest_job_ref": statistics.median(p["slowest_job_ref"] for p in plain),
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "trace_overhead_ratio": traced[0]["wall_ref"] / plain[-1]["wall_ref"] if traced else None,
        "ref_s": statistics.median(runner.ref_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "spans": traced[0]["spans"] if traced else None,
        "grid_point_steps": _grid_point_steps(workload),
    }


def _grid_point_steps(workload: str) -> int:
    p = workloads.SIMULATE.get(workload)
    return p["grid"] ** 3 * p["steps"] if p else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", help="result JSON path")
    ap.add_argument("--setup-only", action="store_true",
                    help="import the engine, set the workload up and exit")
    args = ap.parse_args(argv)
    expected = workloads.load_expected()
    if args.setup_only:
        Runner(args.workload, args.seed, args.workdir, expected)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.workdir, expected)
    with open(args.out, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
