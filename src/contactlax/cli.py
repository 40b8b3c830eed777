"""Command-line driver.

Exit codes are a stable contract: 0 pass (including adjudicated
mismatch-reported comparisons), 1 verification failure, 2 usage or
parameter error, 3 numerical abort.  A command records its verdicts and
returns when it passes, and raises otherwise; `_run` alone maps what it
raises to an exit code and to the report's `error`, an engine error by
the exit code and prefix its class names in `errors`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys as _sys
import time
from dataclasses import asdict, dataclass, field

from . import compat, gauge
from .compat import (
    ck_transform,
    derive,
    determinedness_report,
    family_cc,
    match_printed_system,
    reduce_2plus1,
    reduce_system,
)
from .errors import PREFIXES, CheckFailed, EngineError, ParameterError, PoleError
from .jetalg import jet, p_coefficients
from .laxfamilies import check_params, make_family
from .latexout import laxpair_latex, system_latex
from .serialize import laxpair_dumps, pdesystem_dumps, pdesystem_from_json


@dataclass
class RunReport:
    command: str
    verdicts: dict = field(default_factory=dict)
    artifacts: list = field(default_factory=list)
    seconds: float = 0.0
    error: str | None = None


def _print_outcome(report: RunReport, args) -> None:
    """Print the verdicts, the files written and the report's path, and
    flush them: an OSError here is a closed stdout."""
    lines = [*(f"{k}: {v}" for k, v in report.verdicts.items()), *(f"wrote {a}" for a in report.artifacts)]
    if getattr(args, "report_json", None):
        lines.append(f"wrote {args.report_json}")
    for line in lines:
        print(line)
    _sys.stdout.flush()


def _drop_stdout() -> None:
    """Point a closed stdout at the null device, so that what is left in
    its buffer does not fail again at shutdown."""
    try:
        os.dup2(os.open(os.devnull, os.O_WRONLY), _sys.stdout.fileno())
    except (OSError, ValueError):  # not a file: stdout redirected in-process
        pass


def _write(path: str, text: str, report: RunReport):
    with open(path, "w") as f:
        f.write(text)
    report.artifacts.append(path)


def _write_system(sys, args, rep: RunReport):
    if args.out_json:
        _write(args.out_json, pdesystem_dumps(sys), rep)
    if args.latex:
        _write(args.latex, system_latex(sys) + "\n", rep)


# every option that names a file a command writes
_OUTPUT_OPTIONS = ("out_json", "latex", "out", "monitor", "convergence", "report_json")


def _check_outputs(args) -> None:
    """Refuse, before any work, an output path that is a directory or
    whose parent directory is missing; no file is created or truncated."""
    for opt in _OUTPUT_OPTIONS:
        path = getattr(args, opt, None)
        if path is None:
            continue
        if os.path.isdir(path):
            problem = "is a directory"
        elif not os.path.isdir(os.path.dirname(path) or "."):
            problem = "has no parent directory"
        else:
            continue
        if opt == "report_json":
            args.report_json = None  # there is nowhere to write the report
        raise ParameterError(f"--{opt.replace('_', '-')} {path} {problem}")


def _check(rep: RunReport, key: str, ok: bool, verdict: str = "pass") -> None:
    """Record a passed check's verdict under key, or raise CheckFailed."""
    if not ok:
        raise CheckFailed(f"{key}: fail")
    rep.verdicts[key] = verdict


def _run(args) -> int:
    """Run one command, time it and report it.  A command that returns
    has passed (exit 0, `error` null); a handled error it raises becomes
    exit 1, 2 or 3, and its message goes to `error` and to stderr."""
    rep = RunReport(args.command)
    t0 = time.perf_counter()
    try:
        _check_outputs(args)
        args.fn(args, rep)
        code = 0
    except EngineError as e:
        if e.exit_code is None:  # raised outside an input file's parse: an engine bug
            raise
        code, rep.error = e.exit_code, f"{PREFIXES[e.exit_code]}: {e}"
    except OSError as e:
        code, rep.error = 2, f"parameter error: {e}"
    except MemoryError as e:
        # a grid or system too large for this machine, refused by NumPy
        # (or Python) as it asks for the memory
        code, rep.error = 2, f"parameter error: out of memory: {e}"
    rep.seconds = time.perf_counter() - t0
    try:
        _print_outcome(rep, args)
    except OSError as e:  # stdout closed, as by `| head -1`; the run may have met it first
        _drop_stdout()
        if not rep.error:
            code, rep.error = 2, f"parameter error: {e}"
    if rep.error:
        print(rep.error, file=_sys.stderr)
    if getattr(args, "report_json", None):
        with open(args.report_json, "w") as f:
            json.dump(asdict(rep), f, indent=1, default=str)
    return code


def _record_counts(sys, rep: RunReport) -> None:
    """Record the system's equation and unknown counts and its determinedness."""
    d = determinedness_report(sys)
    rep.verdicts.update(equations=d.equations, unknowns=d.unknowns, verdict=d.verdict)


def cmd_derive(args, rep: RunReport) -> None:
    sys = derive(args.family, args.m, args.n, form=args.form)
    _record_counts(sys, rep)
    dropped = sys.provenance.get("dropped_zero_coefficients", ())
    if dropped:
        rep.verdicts["dropped_zero_coefficients"] = list(dropped)
    _write_system(sys, args, rep)


def _check_ab(m: int, n: int) -> bool:
    num, _ = p_coefficients(family_cc("ratgp", m, n))
    return gauge.gauge_residual(jet(gauge.A0), jet(gauge.B0)) == num[-1]


def _check_reduce21(family: str, m: int, n: int) -> bool:
    lax = make_family(family, m, n)
    sys4 = derive(family, m, n)
    _, sys21 = reduce_2plus1(lax)
    red = reduce_system(sys4)
    d4 = dict(zip(red.provenance["p_degrees"], red.equations))
    d21 = dict(zip(sys21.provenance["p_degrees"], sys21.equations))
    return d4 == d21


def cmd_verify(args, rep: RunReport) -> None:
    rep.command = f"verify {args.check}"
    # a check given an option it never reads would report a pass for
    # something it never looked at
    for opt, owner in (("family", "reduce21"), ("diff", "rls")):
        if getattr(args, opt) and args.check != owner:
            raise ParameterError(f"--{opt} applies to verify {owner} only, not to verify {args.check}")
    if args.check == "ab":
        _check(rep, "top-coefficient identity", _check_ab(args.m, args.n))
    elif args.check == "qsolution":
        check_params(args.m, args.n)  # the solution holds at every size, but -m 0 names none
        a0e, b0e = gauge.potential_solution()
        _check(rep, "potential solution residual", gauge.gauge_residual(a0e, b0e).is_zero(),
               "pass (exact zero)")
    elif args.check == "theorem1":
        out = gauge.verify_gauge_removal(args.m, args.n)
        rep.verdicts["gauge removal"] = "pass"
        rep.verdicts["validated maps"] = ",".join(out["validated"])
        rep.verdicts["maps"] = out["maps"]
    elif args.check == "rls":
        # mismatch-reported is an adjudication outcome, not a failure
        mrep = match_printed_system(args.m, args.n)
        rep.verdicts["published-form comparison"] = mrep.verdict
        for line in mrep.lines:
            rep.verdicts[f"line {line.label}"] = (
                "match" if line.matched else f"mismatch ({len(line.diff_terms)} differing terms)"
            )
            if not line.matched and args.diff:
                for t in line.diff_terms:
                    print(f"  {line.label} diff term: {t}")
    elif args.check == "reduce21":
        _check(rep, "planar reduction commutes", _check_reduce21(args.family or "rat", args.m, args.n))


def cmd_ck(args, rep: RunReport) -> None:
    ck = ck_transform(derive(args.family, args.m, args.n, form=args.form))
    rep.verdicts["T-solvability"] = "pass"
    _write_system(ck, args, rep)


def cmd_reduce21(args, rep: RunReport) -> None:
    lax = make_family(args.family, args.m, args.n)
    lax21, sys21 = reduce_2plus1(lax)
    _record_counts(sys21, rep)
    rep.verdicts["pair"] = laxpair_latex(lax21)
    _write_system(sys21, args, rep)


def _parsed(path: str, parse):
    """parse(); malformed content of the input file at path, a zero
    denominator or nesting too deep to parse included, is a parameter
    error."""
    try:
        return parse()
    except (ValueError, LookupError, TypeError, PoleError, RecursionError) as e:
        raise ParameterError(f"malformed {path}: {type(e).__name__}: {e}") from e


def _read_input(path: str, parse=lambda data: data):
    """Parse a JSON input file; malformed content is a parameter error."""
    with open(path) as f:
        return _parsed(path, lambda: parse(json.load(f)))


# what simulate reads for an option not given: the parser leaves it None,
# so that a given option can be told from its default
_SIMULATE_DEFAULTS = {"family": "rat", "m": 1, "n": 1, "grid": [16], "steps": 100, "dt": 0.01,
                      "spatial": "spectral", "monitor_every": 1}
# the options a mode of simulate never reads
_SIMULATE_UNREAD = {"manufactured": ("init", "monitor", "grid", "steps", "dt", "spatial", "monitor_every"),
                    "system_json": ("family", "m", "n")}


def _flag(dest: str) -> str:
    return f"-{dest}" if len(dest) == 1 else f"--{dest.replace('_', '-')}"


def cmd_simulate(args, rep: RunReport) -> None:
    # a run given an option it never reads would write or check nothing for it
    for mode, unread in _SIMULATE_UNREAD.items():
        for opt in unread:
            if getattr(args, mode) and getattr(args, opt) is not None:
                raise ParameterError(f"{_flag(opt)} does not apply to simulate {_flag(mode)}")
    if args.convergence and not args.manufactured:
        raise ParameterError("--convergence applies to simulate --manufactured only")
    for opt, value in _SIMULATE_DEFAULTS.items():
        if getattr(args, opt) is None:
            setattr(args, opt, value)
    from . import numeric  # the one command that needs NumPy

    if len(args.grid) not in (1, 3):
        raise ParameterError(f"--grid takes one or three sizes, got {len(args.grid)}")
    if not args.manufactured:
        if not args.init:
            raise ParameterError("an --init data file is required (or use --manufactured)")
        spec = _read_input(args.init)
    if args.system_json:
        sys = _read_input(args.system_json, pdesystem_from_json)
        if sys.independents == compat.XYZT:
            sys = ck_transform(sys)
        elif sys.independents != compat.CK_INDEPENDENTS:
            raise ParameterError(f"{args.system_json} has independents ({', '.join(map(str, sys.independents))}), "
                                 "not (x, y, z, t) or (X, Y, Z, T)")
    else:
        sys = ck_transform(derive(args.family, args.m, args.n, form="residues"))
    numeric.keep_freed_arrays_mapped()
    cs = numeric.compile_system(sys)
    if args.manufactured:
        exact = numeric.manufactured_fields(cs.unknowns)
        conv = numeric.manufactured_test(cs, exact, guard=args.guard)
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
        return
    shape = tuple(args.grid) if len(args.grid) == 3 else (args.grid[0],) * 3
    grid = numeric.Grid(shape)
    coords = grid.coords()
    state = _parsed(args.init, lambda: numeric.load_initial_data(spec, cs.unknowns, coords))
    traj = numeric.integrate(
        cs, grid, state, args.steps, args.dt,
        spatial=args.spatial, guard=args.guard, monitor_every=args.monitor_every,
    )
    rep.verdicts["integration"] = "pass"
    rep.verdicts["steps"] = args.steps
    rep.verdicts["final min pole distance"] = traj.monitors[-1][2]
    rep.verdicts["final max field"] = traj.monitors[-1][4]
    if args.monitor:
        numeric.write_monitor_csv(traj, args.monitor)
        rep.artifacts.append(args.monitor)


def cmd_export(args, rep: RunReport) -> None:
    if args.what == "lax" and args.form:
        raise ParameterError("--form applies to export --what system|ck only, not to --what lax")
    lax = make_family(args.family, args.m, args.n)
    if args.what == "lax":
        text = laxpair_dumps(lax)
        tex = laxpair_latex(lax)
    else:
        sys = derive(args.family, args.m, args.n, form=args.form or "coefficients")
        if args.what == "ck":
            sys = ck_transform(sys)
        text = pdesystem_dumps(sys)
        tex = system_latex(sys)
    _write(args.out, text, rep)
    if args.latex:
        _write(args.latex, tex + "\n", rep)


def _add_family(p, **kwargs):
    p.add_argument("--family", choices=["poly", "rat", "ratgp"], **kwargs)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="contactlax")
    sub = ap.add_subparsers(dest="command", required=True)
    # options shared by subcommands: the run report, a system's files, the
    # sizes (m, n) of a pair and the form of its system
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--report-json")
    latex = argparse.ArgumentParser(add_help=False)
    latex.add_argument("--latex")
    system_files = argparse.ArgumentParser(add_help=False, parents=[latex])
    system_files.add_argument("--out-json")

    def sizes(default=1):
        p = argparse.ArgumentParser(add_help=False)
        for opt in ("-m", "-n"):
            p.add_argument(opt, type=int, default=default)
        return p

    form = argparse.ArgumentParser(add_help=False)
    form.add_argument("--form", choices=["coefficients", "residues"], default="coefficients")

    p = sub.add_parser("derive", parents=[report, system_files, sizes(), form],
                       help="derive the compatibility PDE system of a family")
    _add_family(p, required=True)
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("verify", parents=[report, sizes()], help="run a named verification")
    p.add_argument("check", choices=["ab", "qsolution", "theorem1", "rls", "reduce21"])
    _add_family(p, help="reduce21 only (default rat)")
    p.add_argument("--diff", action="store_true", help="print differing terms for rls")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("ck", parents=[report, system_files, sizes(), form],
                       help="change independents to evolution form and check T-solvability")
    _add_family(p, required=True)
    p.set_defaults(fn=cmd_ck)

    p = sub.add_parser("reduce21", parents=[report, system_files, sizes()],
                       help="planar reduction of a family pair and its system")
    _add_family(p, default="ratgp")
    p.set_defaults(fn=cmd_reduce21)

    p = sub.add_parser("simulate", parents=[report, sizes(None)], help="integrate an evolution-form system")
    p.add_argument("--system-json")
    p.add_argument("--family", choices=["rat"])
    p.add_argument("--grid", type=int, nargs="+")
    p.add_argument("--steps", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--init")
    p.add_argument("--manufactured", action="store_true",
                   help="run the manufactured-solution convergence study instead")
    p.add_argument("--convergence", help="CSV path for the convergence table")
    p.add_argument("--monitor")
    p.add_argument("--monitor-every", type=int)
    p.add_argument("--spatial", choices=["spectral", "fd2"])
    p.add_argument("--guard", type=float, default=0.1)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("export", parents=[report, latex, sizes(), form], help="write JSON/LaTeX artifacts")
    _add_family(p, required=True)
    p.add_argument("--what", choices=["lax", "system", "ck"], default="system")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_export, form=None)  # a lax pair reads no --form

    return ap


# the parser of main, built on its first call; parsing leaves it as it was
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return _run(args)
    except OSError as e:  # the --report-json path itself
        print(f"parameter error: {e}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    _sys.exit(main())
