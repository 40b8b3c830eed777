"""The benchmark's workloads: job lists, initial data and output checks.

A job is one documented ``contactlax`` command line.  Its check reads
only what the command prints or writes (verdict lines, the system JSON
of the README's wire format, the monitor CSV), so it holds for any
implementation that keeps the documented behaviour.

Systems are compared as equations, never as JSON bytes: each equation's
numerator/denominator quotient is evaluated exactly at a rational jet
point and compared with ``expected.json``.  Jet values come from a
digest of (job, field, multi-index), so the point does not depend on the
order in which terms are emitted.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

WORKLOADS = ("derive-table", "residues-verify", "simulate-32", "simulate-16-monitored")

# Initial data: the workload seed picks one of these phase variants;
# expected.json records the final monitor row of each.
PHASE_VARIANTS = 8
SIMULATE = {
    "simulate-32": {"grid": 32, "steps": 20, "dt": 0.005, "monitor_every": 10},
    "simulate-16-monitored": {"grid": 16, "steps": 200, "dt": 0.005, "monitor_every": 1},
}
# Relative tolerance on the final monitor row.  Round-off differences
# from the order in which terms are emitted grow to ~1e-6 relative over
# the 200 steps at 16^3; different phase variants differ by ~1e-2.  The
# residual bound is a multiple of the recorded largest residual.
MONITOR_RTOL = 1e-4
RESIDUAL_BOUND_FACTOR = 2.0


class CheckFailed(Exception):
    pass


@dataclass
class Job:
    name: str
    argv: list
    expect_lines: dict = field(default_factory=dict)  # verdict key -> value printed
    counts: tuple | None = None  # (equations, unknowns, verdict) of a derived system
    system_out: bool = False  # the job writes its system with --out-json
    rls: bool = False
    simulate: str | None = None  # the simulate workload whose recorded rows apply


# -- job lists --------------------------------------------------------------


def _counts(family: str, m: int, n: int) -> tuple:
    """Equation and unknown counts of the derived system (the paper's)."""
    if family == "poly":
        return (m + n + 1, m + n + 1, "determined")
    if family == "rat":
        return (2 * (m + n), 2 * (m + n), "determined")
    return (2 * (m + n) + 1, 2 * (m + n + 1), "underdetermined")


def _derive(family, m, n, form="coefficients") -> Job:
    argv = ["derive", "--family", family, "-m", str(m), "-n", str(n)]
    name = f"derive {family} {m} {n}"
    if form == "residues":
        argv += ["--form", "residues"]
        name += " residues"
    return Job(name, argv, counts=_counts(family, m, n), system_out=True)


def _verify(check, m=1, n=1, family=None, **lines) -> Job:
    argv = ["verify", check, "-m", str(m), "-n", str(n)]
    if family:
        argv += ["--family", family]
    return Job(f"verify {check} {m} {n}", argv, expect_lines=lines)


def _jobs(workload: str) -> list[Job]:
    if workload == "derive-table":
        return [_derive(f, m, n) for f in ("poly", "rat", "ratgp") for m in (1, 2, 3) for n in (1, 2, 3)]
    if workload == "residues-verify":
        jobs = [_derive(f, m, n, "residues") for f in ("rat", "ratgp") for m, n in ((1, 1), (1, 2), (2, 1))]
        jobs.append(_derive("rat", 2, 2, "residues"))
        for m, n in ((1, 1), (2, 2)):
            jobs.append(_verify("ab", m, n, **{"top-coefficient identity": "pass"}))
        jobs.append(_verify("qsolution", **{"potential solution residual": "pass (exact zero)"}))
        for m, n in ((1, 1), (2, 1), (2, 2), (3, 3)):
            jobs.append(_verify("theorem1", m, n, **{"gauge removal": "pass", "validated maps": "solved"}))
        for m, n in ((1, 1), (2, 1)):
            job = _verify("rls", m, n, **{"published-form comparison": "mismatch-reported"})
            job.rls = True
            jobs.append(job)
        for m, n in ((1, 1), (2, 2)):
            jobs.append(_verify("reduce21", m, n, "ratgp", **{"planar reduction commutes": "pass"}))
        for m, n in ((1, 1), (2, 1)):
            argv = ["ck", "--family", "rat", "--form", "residues", "-m", str(m), "-n", str(n)]
            jobs.append(Job(f"ck rat {m} {n} residues", argv, expect_lines={"T-solvability": "pass"}))
        return jobs
    if workload in SIMULATE:
        p = SIMULATE[workload]
        argv = [
            "simulate", "--family", "rat", "-m", "1", "-n", "1",
            "--grid", str(p["grid"]), "--steps", str(p["steps"]), "--dt", str(p["dt"]),
            "--monitor-every", str(p["monitor_every"]),
        ]
        job = Job(workload, argv, expect_lines={"integration": "pass"}, simulate=workload)
        return [job]
    raise ValueError(f"unknown workload {workload!r}")


def jobs_for(workload: str, seed: int) -> list[Job]:
    """The workload's jobs in the order fixed by the seed."""
    jobs = _jobs(workload)
    random.Random(seed).shuffle(jobs)
    return jobs


def phase_variant(seed: int) -> int:
    return seed % PHASE_VARIANTS


def initial_data(variant: int) -> dict:
    """Smooth Fourier data for rat (1,1) with well-separated poles."""
    rng = random.Random(1000 + variant)
    spec = {}
    for name, mean, k in (("v1", -1.0, (1, 0, 0)), ("w1", 1.0, (0, 1, 0)),
                          ("a1", 1.0, (0, 0, 1)), ("b1", 0.7, (1, 1, 0))):
        phase = rng.uniform(0.0, 2 * math.pi)
        spec[name] = {"fourier": {"mean": mean, "modes": [{"k": list(k), "amp": 0.05, "phase": phase}]}}
    return spec


# -- exact values of systems at digest points --------------------------------


def _jet_value(job_name: str, field_name: str, d) -> Fraction:
    h = hashlib.sha256(f"{job_name}|{field_name}|{list(d)}".encode()).digest()
    num = int.from_bytes(h[:4], "big") % 199 - 99
    den = int.from_bytes(h[4:8], "big") % 97 + 1
    return Fraction(num, den)


def _eval_tree(node, job_name: str, memo: dict) -> Fraction:
    op = node["op"]
    if op == "num":
        return Fraction(node["value"])
    if op == "jet":
        key = (node["field"], tuple(node.get("d", (0, 0, 0, 0))))
        if key not in memo:
            memo[key] = _jet_value(job_name, *key)
        return memo[key]
    if op == "add":
        return sum((_eval_tree(a, job_name, memo) for a in node["args"]), Fraction(0))
    if op == "mul":
        out = Fraction(1)
        for a in node["args"]:
            out *= _eval_tree(a, job_name, memo)
        return out
    if op == "pow":
        return _eval_tree(node["base"], job_name, memo) ** node["exp"]
    raise CheckFailed(f"unknown expression node {op!r}")


def system_values(job_name: str, system: dict) -> dict:
    """Equation keys (label or p-degree) and the exact value of each
    equation quotient at the job's point."""
    prov = system.get("provenance", {})
    keys = prov.get("labels") or prov.get("p_degrees") or list(range(len(system["equations"])))
    dens = prov.get("denominators") or [{"op": "num", "value": "1"}] * len(system["equations"])
    memo: dict = {}
    values = []
    for num, den in zip(system["equations"], dens):
        d = _eval_tree(den, job_name, memo)
        if d == 0:
            raise CheckFailed("equation denominator vanishes at the check point")
        values.append(str(_eval_tree(num, job_name, memo) / d))
    return {"keys": [str(k) for k in keys], "values": values}


# -- checks ---------------------------------------------------------------------


def _parse_verdicts(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def _check_rls(verdicts: dict):
    lines = {k[len("line "):]: v for k, v in verdicts.items() if k.startswith("line ")}
    if not lines:
        raise CheckFailed("rls printed no line verdicts")
    for label, v in lines.items():
        mismatch = v.startswith("mismatch")
        if mismatch != (label.startswith("(w") and label.endswith(")_y")):
            raise CheckFailed(f"rls line {label}: unexpected verdict {v!r}")


def _check_monitor(path: str, expected: dict):
    with open(path) as f:
        rows = [[float(x) for x in r] for r in list(csv.reader(f))[1:]]
    if not rows:
        raise CheckFailed("empty monitor CSV")
    residuals = [r[3] for r in rows if not math.isnan(r[3])]
    for r in rows:
        if any(math.isinf(x) for x in r) or any(math.isnan(x) for i, x in enumerate(r) if i != 3):
            raise CheckFailed(f"non-finite monitor row {r}")
    if not residuals:
        raise CheckFailed("no residual was computed")
    if max(residuals) > expected["residual_bound"]:
        raise CheckFailed(f"residual_L2 {max(residuals)!r} above bound {expected['residual_bound']!r}")
    for got, want in zip(rows[-1], expected["final_row"]):
        if not math.isclose(got, want, rel_tol=MONITOR_RTOL, abs_tol=1e-12):
            raise CheckFailed(f"final monitor row {rows[-1]} differs from recorded {expected['final_row']}")


def check_job(job: Job, code: int, stdout: str, out_path: str | None, expected: dict, variant: int):
    """Raise CheckFailed unless the job's exit code and outputs are as
    documented and recorded."""
    if code != 0:
        raise CheckFailed(f"exit code {code}")
    verdicts = _parse_verdicts(stdout)
    for k, v in job.expect_lines.items():
        if verdicts.get(k) != v:
            raise CheckFailed(f"{k}: {verdicts.get(k)!r}, expected {v!r}")
    if job.counts is not None:
        e, u, verdict = job.counts
        got = (verdicts.get("equations"), verdicts.get("unknowns"), verdicts.get("verdict"))
        if got != (str(e), str(u), verdict):
            raise CheckFailed(f"counts {got}, expected {(e, u, verdict)}")
    if job.rls:
        _check_rls(verdicts)
    if job.system_out:
        with open(out_path) as f:
            got = system_values(job.name, json.load(f))
        if got != expected["systems"][job.name]:
            raise CheckFailed("equation values differ from expected.json")
    if job.simulate:
        _check_monitor(out_path, expected["simulate"][job.simulate][str(variant)])


def load_expected() -> dict:
    with open(EXPECTED_PATH) as f:
        return json.load(f)
