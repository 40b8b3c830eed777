"""Command-line driver.

Exit codes are a stable contract: 0 pass (including adjudicated
mismatch-reported comparisons), 1 verification failure, 2 usage or
parameter error, 3 numerical abort.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
import time
from dataclasses import asdict, dataclass, field

from . import compat, gauge, numeric
from .compat import (
    ck_transform,
    derive,
    determinedness_report,
    family_cc,
    match_printed_system,
    reduce_2plus1,
    reduce_system,
)
from .jetalg import FieldId, JetQuotient, jet
from .laxfamilies import make_family
from .latexout import laxpair_latex, system_latex
from .pfield import ParameterError, collect
from .serialize import laxpair_to_json, pdesystem_from_json, pdesystem_to_json


@dataclass
class RunReport:
    command: str
    verdicts: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)
    seconds: float = 0.0
    error: str | None = None


def _emit(report: RunReport, args) -> None:
    for k, v in report.verdicts.items():
        print(f"{k}: {v}")
    for a in report.artifacts:
        print(f"wrote {a}")
    if getattr(args, "report_json", None):
        with open(args.report_json, "w") as f:
            json.dump(asdict(report), f, indent=1, default=str)
        print(f"wrote {args.report_json}")


def _write(path: str, text: str, report: RunReport):
    with open(path, "w") as f:
        f.write(text)
    report.artifacts.append(path)


def _write_system(sys, args, rep: RunReport):
    if args.out_json:
        _write(args.out_json, json.dumps(pdesystem_to_json(sys), indent=1), rep)
    if args.latex:
        _write(args.latex, system_latex(sys) + "\n", rep)


def _run(args) -> int:
    """Run one command: time it and report on every path that returns
    an exit code, handled errors included."""
    rep = RunReport(args.command)
    t0 = time.perf_counter()
    try:
        code = args.fn(args, rep)
    except (ParameterError, numeric.CompileError, OSError) as e:
        code, rep.error = 2, f"parameter error: {e}"
    except (numeric.PoleProximityError, numeric.NumericAbortError) as e:
        code, rep.error = 3, f"numerical abort: {e}"
    except (compat.DerivationError, compat.TransformDegenerateError, gauge.GaugeError) as e:
        code, rep.error = 1, f"verification failure: {e}"
    rep.seconds = time.perf_counter() - t0
    if rep.error:
        print(rep.error, file=_sys.stderr)
    _emit(rep, args)
    return code


def cmd_derive(args, rep: RunReport) -> int:
    sys = derive(args.family, args.m, args.n, form=args.form)
    d = determinedness_report(sys)
    rep.verdicts["equations"] = d.equations
    rep.verdicts["unknowns"] = d.unknowns
    rep.verdicts["verdict"] = d.verdict
    dropped = sys.provenance.get("dropped_zero_coefficients", ())
    if dropped:
        rep.verdicts["dropped_zero_coefficients"] = list(dropped)
    _write_system(sys, args, rep)
    return 0


def _check_ab(m: int, n: int) -> bool:
    cc = family_cc("ratgp", m, n)
    num, _ = collect(cc)
    a0, b0 = FieldId("a0"), FieldId("b0")
    expected = (
        jet(a0, (0, 0, 0, 1))
        - jet(b0, (0, 1, 0, 0))
        - jet(b0) * jet(a0, (0, 0, 1, 0))
        + jet(a0) * jet(b0, (0, 0, 1, 0))
    )
    return num[num.degree()] == JetQuotient(expected)


def _check_reduce21(family: str, m: int, n: int) -> bool:
    lax = make_family(family, m, n)
    sys4 = derive(family, m, n)
    _, sys21 = reduce_2plus1(lax)
    red = reduce_system(sys4)
    d4 = dict(zip(red.provenance["p_degrees"], red.equations))
    d21 = dict(zip(sys21.provenance["p_degrees"], sys21.equations))
    return d4 == d21


def cmd_verify(args, rep: RunReport) -> int:
    rep.command = f"verify {args.check}"
    code = 0
    if args.check == "ab":
        ok = _check_ab(args.m, args.n)
        rep.verdicts["top-coefficient identity"] = "pass" if ok else "fail"
        code = 0 if ok else 1
    elif args.check == "qsolution":
        a0e, b0e = gauge.potential_solution()
        ok = gauge.gauge_residual(a0e, b0e).is_zero()
        rep.verdicts["potential solution residual"] = "pass (exact zero)" if ok else "fail"
        code = 0 if ok else 1
    elif args.check == "theorem1":
        try:
            out = gauge.verify_gauge_removal(args.m, args.n)
        except gauge.GaugeError as e:
            rep.verdicts["gauge removal"] = f"fail ({e})"
            return 1
        rep.verdicts["gauge removal"] = "pass"
        rep.verdicts["validated maps"] = ",".join(out["validated"])
        rep.verdicts["maps"] = out["maps"]
        code = 0
    elif args.check == "rls":
        mrep = match_printed_system(args.m, args.n)
        rep.verdicts["published-form comparison"] = mrep.verdict
        for line in mrep.lines:
            rep.verdicts[f"line {line.label}"] = (
                "match" if line.matched else f"mismatch ({len(line.diff_terms)} differing terms)"
            )
            if not line.matched and args.diff:
                for t in line.diff_terms:
                    print(f"  {line.label} diff term: {t}")
        code = 0  # mismatch-reported is an adjudication outcome, not a failure
    elif args.check == "reduce21":
        ok = _check_reduce21(args.family, args.m, args.n)
        rep.verdicts["planar reduction commutes"] = "pass" if ok else "fail"
        code = 0 if ok else 1
    return code


def cmd_ck(args, rep: RunReport) -> int:
    sys = derive(args.family, args.m, args.n, form=args.form)
    try:
        ck = ck_transform(sys)
    except compat.TransformDegenerateError as e:
        rep.verdicts["T-solvability"] = f"fail ({e})"
        return 1
    rep.verdicts["T-solvability"] = "pass"
    _write_system(ck, args, rep)
    return 0


def cmd_reduce21(args, rep: RunReport) -> int:
    lax = make_family(args.family, args.m, args.n)
    lax21, sys21 = reduce_2plus1(lax)
    d = determinedness_report(sys21)
    rep.verdicts["equations"] = d.equations
    rep.verdicts["unknowns"] = d.unknowns
    rep.verdicts["verdict"] = d.verdict
    rep.verdicts["pair"] = laxpair_latex(lax21)
    _write_system(sys21, args, rep)
    return 0


def _default_manufactured(cs):
    import numpy as np

    tp = 2 * np.pi
    specs = {
        "v1": (-1.0, (1, 0, 1), 0.3, tp * 0.7),
        "w1": (1.0, (0, 1, 1), 1.1, tp * 0.5),
        "a1": (1.0, (1, 1, 0), 2.0, tp * 0.6),
        "b1": (0.7, (1, 0, 0), 0.9, tp * 0.8),
    }
    out = {}
    for i, u in enumerate(cs.unknowns):
        mean, k, phase, omega = specs.get(u, (1.0 + 0.5 * i, (1, 0, 0), 0.1 * i, 2 * 3.14159 * 0.5))
        out[u] = numeric.HarmonicField(mean, (numeric.Mode(k, 0.05, phase, omega),))
    return out


def _read_input(path: str, parse):
    """Parse a JSON input file; malformed content is a parameter error."""
    with open(path) as f:
        try:
            return parse(json.load(f))
        except (ValueError, LookupError, TypeError) as e:
            raise ParameterError(f"malformed {path}: {type(e).__name__}: {e}") from e


def cmd_simulate(args, rep: RunReport) -> int:
    if len(args.grid) not in (1, 3):
        raise ParameterError(f"--grid takes one or three sizes, got {len(args.grid)}")
    if args.system_json:
        sys = _read_input(args.system_json, pdesystem_from_json)
        if tuple(sys.independents) != ("X", "Y", "Z", "T"):
            sys = ck_transform(sys)
    else:
        sys = ck_transform(derive(args.family, args.m, args.n, form="residues"))
    cs = numeric.compile_system(sys)
    if args.manufactured:
        exact = _default_manufactured(cs)
        conv = numeric.manufactured_test(cs, exact)
        rep.verdicts["temporal orders"] = ["%.2f" % o for o in conv.temporal_orders]
        rep.verdicts["spatial orders"] = ["%.2f" % o for o in conv.spatial_orders]
        if args.convergence:
            with open(args.convergence, "w") as f:
                f.write("study,level,error,order\n")
                for i, e in enumerate(conv.temporal_errors):
                    o = conv.temporal_orders[i - 1] if i else float("nan")
                    f.write(f"temporal,{i},{e!r},{o!r}\n")
                for i, e in enumerate(conv.spatial_errors):
                    o = conv.spatial_orders[i - 1] if i else float("nan")
                    f.write(f"spatial,{i},{e!r},{o!r}\n")
            rep.artifacts.append(args.convergence)
        return 0
    if not args.init:
        raise ParameterError("an --init data file is required (or use --manufactured)")
    shape = tuple(args.grid) if len(args.grid) == 3 else (args.grid[0],) * 3
    grid = numeric.Grid(shape)
    coords = grid.coords()
    state = _read_input(args.init, lambda spec: numeric.load_initial_data(spec, cs.unknowns, coords))
    try:
        traj = numeric.integrate(
            cs, grid, state, args.steps, args.dt,
            spatial=args.spatial, guard=args.guard, monitor_every=args.monitor_every,
        )
    except (numeric.PoleProximityError, numeric.NumericAbortError) as e:
        rep.verdicts["integration"] = f"abort ({e})"
        return 3
    rep.verdicts["integration"] = "pass"
    rep.verdicts["steps"] = args.steps
    rep.verdicts["final min pole distance"] = traj.monitors[-1][2]
    rep.verdicts["final max field"] = traj.monitors[-1][4]
    if args.monitor:
        numeric.write_monitor_csv(traj, args.monitor)
        rep.artifacts.append(args.monitor)
    return 0


def cmd_export(args, rep: RunReport) -> int:
    lax = make_family(args.family, args.m, args.n)
    if args.what == "lax":
        payload = laxpair_to_json(lax)
        tex = laxpair_latex(lax)
    elif args.what == "system":
        sys = derive(args.family, args.m, args.n, form=args.form)
        payload = pdesystem_to_json(sys)
        tex = system_latex(sys)
    elif args.what == "ck":
        sys = ck_transform(derive(args.family, args.m, args.n, form=args.form))
        payload = pdesystem_to_json(sys)
        tex = system_latex(sys)
    else:
        raise ParameterError(f"unknown export target {args.what!r}")
    _write(args.out, json.dumps(payload, indent=1), rep)
    if args.latex:
        _write(args.latex, tex + "\n", rep)
    return 0


def _add_family_params(p, default_family=None):
    if default_family:
        p.add_argument("--family", choices=["poly", "rat", "ratgp"], default=default_family)
    else:
        p.add_argument("--family", choices=["poly", "rat", "ratgp"], required=True)
    p.add_argument("-m", type=int, default=1)
    p.add_argument("-n", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="contactlax")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", help="derive the compatibility PDE system of a family")
    _add_family_params(p)
    p.add_argument("--form", choices=["coefficients", "residues"], default="coefficients")
    p.add_argument("--out-json")
    p.add_argument("--latex")
    p.add_argument("--report-json")
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("verify", help="run a named verification")
    p.add_argument("check", choices=["ab", "qsolution", "theorem1", "rls", "reduce21"])
    p.add_argument("-m", type=int, default=1)
    p.add_argument("-n", type=int, default=1)
    p.add_argument("--family", choices=["poly", "rat", "ratgp"], default="rat")
    p.add_argument("--diff", action="store_true", help="print differing terms for rls")
    p.add_argument("--report-json")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("ck", help="change independents to evolution form and check T-solvability")
    _add_family_params(p)
    p.add_argument("--form", choices=["coefficients", "residues"], default="coefficients")
    p.add_argument("--out-json")
    p.add_argument("--latex")
    p.add_argument("--report-json")
    p.set_defaults(fn=cmd_ck)

    p = sub.add_parser("reduce21", help="planar reduction of a family pair and its system")
    _add_family_params(p, default_family="ratgp")
    p.add_argument("--out-json")
    p.add_argument("--latex")
    p.add_argument("--report-json")
    p.set_defaults(fn=cmd_reduce21)

    p = sub.add_parser("simulate", help="integrate an evolution-form system")
    p.add_argument("--system-json")
    p.add_argument("--family", choices=["rat"], default="rat")
    p.add_argument("-m", type=int, default=1)
    p.add_argument("-n", type=int, default=1)
    p.add_argument("--grid", type=int, nargs="+", default=[16])
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--dt", type=float, default=0.01)
    p.add_argument("--init")
    p.add_argument("--manufactured", action="store_true",
                   help="run the manufactured-solution convergence study instead")
    p.add_argument("--convergence", help="CSV path for the convergence table")
    p.add_argument("--monitor")
    p.add_argument("--monitor-every", type=int, default=1)
    p.add_argument("--spatial", choices=["spectral", "fd2"], default="spectral")
    p.add_argument("--guard", type=float, default=0.1)
    p.add_argument("--report-json")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("export", help="write JSON/LaTeX artifacts")
    _add_family_params(p)
    p.add_argument("--what", choices=["lax", "system", "ck"], default="system")
    p.add_argument("--form", choices=["coefficients", "residues"], default="coefficients")
    p.add_argument("--out", required=True)
    p.add_argument("--latex")
    p.add_argument("--report-json")
    p.set_defaults(fn=cmd_export)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return _run(args)
    except OSError as e:  # the --report-json path itself
        print(f"parameter error: {e}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    _sys.exit(main())
