"""The benchmark's own tests.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


def _runner(tmp_path, expected, job_name):
    runner = worker.Runner("residues-verify", 1, str(tmp_path), expected)
    runner.jobs = [j for j in runner.jobs if j.name == job_name]
    return runner


def test_corrupted_expected_value_counts_as_failed(tmp_path):
    expected = workloads.load_expected()
    name = "derive rat 1 1 residues"
    assert _runner(tmp_path, expected, name).run_pass(False)["failed"] == 0

    corrupted = copy.deepcopy(expected)
    corrupted["systems"][name]["values"][0] += "1"
    runner = _runner(tmp_path, corrupted, name)
    result = runner.run_pass(False)
    assert result["failed"] / result["attempted"] > 0
    assert "equation values differ" in runner.failures[0]


def test_unexpected_exit_code_counts_as_failed(tmp_path):
    runner = _runner(tmp_path, workloads.load_expected(), "verify qsolution 1 1")
    runner.jobs[0].argv = ["derive", "--family", "rat", "-m", "0", "-n", "1"]
    assert runner.run_pass(False)["failed"] == 1
    assert "exit code 2" in runner.failures[0]


def test_hung_job_is_cut_off():
    clock = worker.HostClock(timeout_s=1.0)

    def hang():
        while True:
            pass

    seconds, units, error = clock.run(hang)
    assert isinstance(error, worker.JobTimeout)
    assert 0.5 < seconds < 3.0 and units > 0


def test_spans_wrap_every_import_site_and_restore():
    from contactlax import compat, jetalg, numeric, pfield

    original = jetalg.divide_exact
    tracer = spans.Spans()
    tracer.install()
    try:
        assert compat.divide_exact is jetalg.divide_exact is pfield.divide_exact
        assert compat.divide_exact is not original
        assert numeric.SPATIAL_OPS["spectral"].__wrapped__ is numeric.spectral_diff.__wrapped__
        compat.derive.cache_clear()
        compat.family_cc.cache_clear()
        compat.derive("rat", 1, 1, form="residues")
    finally:
        tracer.remove()
    assert jetalg.divide_exact is original and compat.divide_exact is original
    stats = tracer.stats
    assert stats["jetalg.divide_exact"]["calls"] > 0
    assert stats["compat.residue_system"]["terms_out"] > 0
    for stat in stats.values():
        assert 0 <= stat["self_s"] <= stat["incl_s"] + 1e-9


@pytest.mark.parametrize("key,names", [
    ("end_to_end", set(run.END_TO_END)),
    ("per_layer", set(run.per_layer_units())),
])
def test_metric_lists_match_benchmark_json(key, names):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"] for m in spec[key]} == names
    units = run.END_TO_END if key == "end_to_end" else run.per_layer_units()
    assert all(m["unit"] == units[m["name"]] for m in spec[key])
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
