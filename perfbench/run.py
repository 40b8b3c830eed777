#!/usr/bin/env python3
"""contactlax benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The engine is imported from the
checkout's ``src``; nothing is installed.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Metric definitions are in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from worker import host_ref

HERE = os.path.dirname(os.path.abspath(__file__))

# setup_s is scaled to a nominal host on which host_ref takes this long
# (the typical value on the 2-core host the bounds were set on)
NOMINAL_REF_S = 0.010
SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0

END_TO_END = {
    "wall_ref": "ref",
    "slowest_job_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

STAT_UNITS = {
    "calls": "count",
    "self_ref": "ref",
    "hit_ratio": "ratio",
    "terms_in": "count",
    "terms_out": "count",
    "snapshots_mb": "MB",
}

LAYER_STATS = (
    ("jetalg.divide_exact", ("calls", "self_ref", "hit_ratio", "terms_in")),
    ("jetalg.content", ("calls", "self_ref")),
    ("jetalg.substitute", ("self_ref",)),
    ("jetalg.total_derivative", ("self_ref",)),
    ("pfield.poly_div_exact", ("calls", "self_ref", "hit_ratio")),
    ("pfield.partial_fraction", ("self_ref",)),
    ("pfield.collect", ("self_ref",)),
    ("compat.cc_substitution_path", ("self_ref",)),
    ("compat.cc_bracket_path", ("self_ref",)),
    ("compat.compatibility_condition", ("self_ref",)),
    ("compat.extract_system", ("self_ref", "terms_out")),
    ("compat.residue_system", ("self_ref", "terms_out")),
    ("compat.ck_transform", ("self_ref",)),
    ("compat.match_printed_system", ("self_ref",)),
    ("compat.reduce_2plus1", ("self_ref",)),
    ("gauge.verify_gauge_removal", ("self_ref",)),
    ("gauge.apply_change_of_variables", ("calls",)),
    ("numeric.compile_system", ("self_ref",)),
    ("numeric.spectral_diff", ("calls", "self_ref")),
    ("numeric.fd2_diff", ("self_ref",)),
    ("numeric.CompiledSystem.rhs_from_jets", ("calls", "self_ref")),
    ("numeric.residual_original_form", ("calls", "self_ref")),
    ("numeric.integrate", ("self_ref", "snapshots_mb")),
)

RUN_STATS = {
    "trace.overhead_ratio": "ratio",
    "host.ref_s": "s",
    "host.wall_s": "s",
    "numeric.monitor_share": "ratio",
}


def per_layer_units() -> dict:
    units = {f"{key}.{stat}": STAT_UNITS[stat] for key, stats in LAYER_STATS for stat in stats}
    units.update(RUN_STATS)
    return units


def _stat(span: dict, stat: str) -> float:
    if stat == "hit_ratio":
        return span["hits"] / span["calls"] if span["calls"] else 0.0
    if stat == "snapshots_mb":
        return span["snapshot_bytes"] / 2**20
    return span[stat]


def per_layer_values(result: dict) -> dict:
    spans = result["spans"]
    values = {f"{key}.{stat}": _stat(spans[key], stat) for key, stats in LAYER_STATS for stat in stats}
    integrate = spans["numeric.integrate"]["incl_s"]
    values.update({
        "trace.overhead_ratio": result["trace_overhead_ratio"],
        "host.ref_s": result["ref_s"],
        "host.wall_s": result["wall_s"],
        "numeric.monitor_share":
            spans["numeric.residual_original_form"]["incl_s"] / integrate if integrate else 0.0,
    })
    return values


# -- processes ------------------------------------------------------------------


def _worker_env(src: str, seed: int) -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": src,
        "PYTHONHASHSEED": str(seed % 2**32),
        "PYTHONDONTWRITEBYTECODE": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def measure_setup(cmd: list, env: dict) -> tuple[float, float]:
    """Median set-up time of fresh worker interpreters (import the engine,
    prepare the workload), raw and scaled to the nominal host."""
    subprocess.run(cmd, env=env, check=True)  # warms the file cache
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        r0 = _time_ref()
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        t1 = time.perf_counter()
        ref = (r0 + _time_ref()) / 2
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * NOMINAL_REF_S / ref)
    return statistics.median(raw), statistics.median(scaled)


def _time_ref(repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        host_ref()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="contactlax benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    started = time.perf_counter()
    src = os.path.join(os.path.dirname(HERE), "src")
    if not os.path.isfile(os.path.join(src, "contactlax", "__init__.py")):
        print(f"perfbench: no contactlax sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    # one core for the worker, its set-up probes and the reference loop,
    # so that the reference sees the core the jobs run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    env = _worker_env(src, args.seed)
    base = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--workdir", workdir]
    out = os.path.join(workdir, "result.json")
    try:
        setup_raw = setup_s = None
        if not args.trace:
            setup_raw, setup_s = measure_setup(base + ["--setup-only"], env)
        limit = RUN_LIMIT_S - (time.perf_counter() - started)
        subprocess.run(
            base + ["--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out],
            env=env, check=True, timeout=limit,
        )
        with open(out) as f:
            result = json.load(f)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: worker failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in result["failures"]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    if args.trace:
        units = per_layer_units()
        values = per_layer_values(result)
    else:
        units = END_TO_END
        values = {
            "wall_ref": result["wall_ref"],
            "slowest_job_ref": result["slowest_job_ref"],
            "setup_s": setup_s,
            "peak_rss_mb": result["peak_rss_mb"],
        }
    print(
        f"perfbench {args.workload} seed={args.seed} passes={result['passes']} "
        f"jobs={result['attempted']} failed={result['failed']} "
        f"failed_frac={result['failed'] / result['attempted']:.3f} wall_s={result['wall_s']:.3f} "
        f"ref_s={result['ref_s']:.5f} wall_ref={result['wall_ref']:.1f} "
        f"work_per_s={result['grid_point_steps'] / result['wall_s']:.0f}"
        + (f" setup_raw_s={setup_raw:.3f}" if setup_raw is not None else "")
    )
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
