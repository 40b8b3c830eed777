import argparse
import importlib.util
import json
import os
import pkgutil
import platform
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import contactlax
from contactlax import cli, compat, errors, gauge
from contactlax.cli import main
from contactlax.compat import ck_transform, derive
from contactlax.laxfamilies import make_family
from contactlax.serialize import laxpair_dumps, pdesystem_dumps, pdesystem_from_json
from conftest import laxpair_oracle, pdesystem_oracle


def test_derive_rat_counts(tmp_path, capsys):
    out = tmp_path / "sys.json"
    code = main(["derive", "--family", "rat", "-m", "1", "-n", "1", "--out-json", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "equations: 4" in text and "determined" in text
    data = json.loads(out.read_text())
    assert len(data["equations"]) == 4


def test_derive_ratgp_underdetermined(capsys):
    assert main(["derive", "--family", "ratgp", "-m", "1", "-n", "1"]) == 0
    text = capsys.readouterr().out
    assert "equations: 5" in text and "underdetermined" in text


def test_parameter_error_exit_code():
    assert main(["derive", "--family", "poly", "-m", "0", "-n", "1"]) == 2


def test_usage_error_exit_code():
    assert main(["derive", "--family", "nosuch", "-m", "1", "-n", "1"]) == 2


def test_main_parses_with_one_parser_and_no_carried_over_options():
    ap = cli._parser()
    assert cli._parser() is ap and cli.build_parser() is not ap
    first = ap.parse_args(["simulate", "--grid", "8", "8", "8", "--report-json", "r.json"])
    second = ap.parse_args(["simulate"])
    # simulate's defaults are None in the parser, resolved by cmd_simulate
    assert (first.grid, second.grid, second.report_json) == ([8, 8, 8], None, None)


def test_verify_qsolution(capsys):
    assert main(["verify", "qsolution"]) == 0
    assert "pass (exact zero)" in capsys.readouterr().out
    assert main(["verify", "qsolution", "-m", "1", "-n", "1"]) == 0


def test_verify_ab(capsys):
    assert main(["verify", "ab", "-m", "1", "-n", "2"]) == 0


def test_verify_theorem1_records_map(capsys):
    assert main(["verify", "theorem1", "-m", "1", "-n", "1"]) == 0
    text = capsys.readouterr().out
    assert "validated maps: solved" in text


def test_verify_rls_mismatch_reported(capsys):
    assert main(["verify", "rls", "-m", "1", "-n", "1"]) == 0
    text = capsys.readouterr().out
    assert "mismatch-reported" in text
    assert "line (w1)_y: mismatch" in text
    assert "line (v1)_t: match" in text


@pytest.mark.parametrize("family", [None, "poly", "rat", "ratgp"])
def test_verify_reduce21(family, monkeypatch, capsys):
    families = []

    def recording_make_family(family, m, n):
        families.append(family)
        return make_family(family, m, n)

    monkeypatch.setattr(cli, "make_family", recording_make_family)
    option = ["--family", family] if family else []
    assert main(["verify", "reduce21", *option, "-m", "1", "-n", "1"]) == 0
    assert families == [family or "rat"]
    assert "planar reduction commutes: pass" in capsys.readouterr().out


@pytest.mark.parametrize("argv,error", [
    *(pytest.param([check, "--family", "poly"], f"--family applies to verify reduce21 only, not to verify {check}",
                   id=check) for check in ("ab", "qsolution", "theorem1", "rls")),
    *(pytest.param([check, "--diff"], f"--diff applies to verify rls only, not to verify {check}", id=f"diff-{check}")
      for check in ("ab", "qsolution", "theorem1", "reduce21")),
    pytest.param(["qsolution", "-m", "0"], "m and n must be positive integers, got m=0, n=1", id="qsolution-m0"),
])
def test_verify_family_is_refused_by_checks_that_ignore_it(argv, error, tmp_path, monkeypatch, capsys):
    # such a check would report a pass for a family, a diff or sizes it
    # never looked at
    def no_work(*_):
        raise AssertionError("the check ran")

    for owner, name in [(cli, "family_cc"), (cli, "match_printed_system"), (cli, "_check_reduce21"),
                        (gauge, "verify_gauge_removal"), (gauge, "potential_solution")]:
        monkeypatch.setattr(owner, name, no_work)
    report = tmp_path / "report.json"
    assert main(["verify", *argv, "--report-json", str(report)]) == 2
    rep = json.loads(report.read_text())
    assert rep["error"] == f"parameter error: {error}"
    assert rep["verdicts"] == {}
    assert capsys.readouterr().err.strip() == rep["error"]


@pytest.mark.parametrize("argv,error", [
    pytest.param(["simulate", "--convergence", "conv.csv", "--init", "init.json"],
                 "--convergence applies to simulate --manufactured only", id="convergence-without-manufactured"),
    pytest.param(["simulate", "--manufactured", "--init", "init.json"],
                 "--init does not apply to simulate --manufactured", id="manufactured-init"),
    pytest.param(["simulate", "--manufactured", "--monitor", "mon.csv"],
                 "--monitor does not apply to simulate --manufactured", id="manufactured-monitor"),
    pytest.param(["simulate", "--manufactured", "--grid", "8"],
                 "--grid does not apply to simulate --manufactured", id="manufactured-grid"),
    pytest.param(["simulate", "--system-json", "ck.json", "-m", "2", "--init", "init.json"],
                 "-m does not apply to simulate --system-json", id="system-json-m"),
    *(pytest.param(["export", "--family", family, "--what", "lax", "--form", form, "--out", "lax.json"],
                   "--form applies to export --what system|ck only, not to --what lax", id=f"export-lax-{family}-{form}")
      for family, form in (("poly", "residues"), ("rat", "coefficients"))),
])
def test_simulate_and_export_refuse_options_they_never_read(argv, error, tmp_path, monkeypatch, capsys):
    # such a run would exit 0 with no file written for the option, or
    # with an output that ignores it
    def no_work(*_, **__):
        raise AssertionError("the command ran")

    for name in ("derive", "make_family", "ck_transform", "_read_input"):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--report-json", "report.json"]) == 2
    rep = json.loads(Path("report.json").read_text())
    assert rep["error"] == f"parameter error: {error}"
    assert rep["verdicts"] == {} and rep["artifacts"] == []
    assert capsys.readouterr().err.strip() == rep["error"]
    assert sorted(os.listdir()) == ["report.json"]


def test_simulate_manufactured_reads_its_guard(capsys):
    # the manufactured fields' poles start 1.9 apart: a guard of 5 stops
    # the study at its first step, where the study's own 0.1 passed
    assert main(["simulate", "--manufactured", "--guard", "5"]) == 3
    assert capsys.readouterr().err.startswith("numerical abort: pole proximity at step 0")


def test_ck_command(tmp_path, capsys):
    out = tmp_path / "ck.json"
    assert main(["ck", "--family", "rat", "-m", "1", "-n", "1", "--out-json", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["independents"] == ["X", "Y", "Z", "T"]


def test_simulate_constant_and_abort(tmp_path, capsys):
    init = tmp_path / "init.json"
    init.write_text(json.dumps({
        "v1": {"constant": -1.0}, "w1": {"constant": 1.0},
        "a1": {"constant": 1.0}, "b1": {"constant": 0.5},
    }))
    mon = tmp_path / "mon.csv"
    code = main([
        "simulate", "--family", "rat", "-m", "1", "-n", "1", "--grid", "8",
        "--steps", "20", "--dt", "0.01", "--init", str(init),
        "--monitor", str(mon), "--monitor-every", "5",
    ])
    assert code == 0
    assert mon.read_text().startswith("step,T,min_pole_dist,residual_L2,max_field")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "v1": {"constant": -1.0}, "w1": {"constant": -0.95},
        "a1": {"constant": 1.0}, "b1": {"constant": 0.5},
    }))
    report = tmp_path / "abort.json"
    code = main([
        "simulate", "--family", "rat", "-m", "1", "-n", "1", "--grid", "8",
        "--steps", "5", "--dt", "0.01", "--init", str(bad), "--report-json", str(report),
    ])
    assert code == 3
    rep = json.loads(report.read_text())
    assert rep["error"].startswith("numerical abort: pole proximity")
    assert capsys.readouterr().err.strip() == rep["error"]
    assert rep["seconds"] > 0


def _gauge_error(m, n):
    raise gauge.GaugeError("no candidate map removes the gauge")


@pytest.mark.parametrize("args,key,patch,message", [
    (["ck", "--family", "ratgp", "-m", "1", "-n", "1"], "T-solvability", None,
     "T-jet matrix is not square: 5 equations, 6 unknowns"),
    (["verify", "ab"], "top-coefficient identity", (cli, "_check_ab", lambda m, n: False),
     "top-coefficient identity: fail"),
    (["verify", "theorem1"], "gauge removal", (gauge, "verify_gauge_removal", _gauge_error),
     "no candidate map removes the gauge"),
], ids=["ck-not-square", "verify-ab-false", "verify-theorem1-gauge-error"])
def test_verification_failure_exit_1(tmp_path, monkeypatch, capsys, args, key, patch, message):
    if patch is not None:
        monkeypatch.setattr(*patch)
    report = tmp_path / "report.json"
    assert main([*args, "--report-json", str(report)]) == 1
    rep = json.loads(report.read_text())
    assert rep["error"].startswith("verification failure:") and message in rep["error"]
    captured = capsys.readouterr()
    assert captured.err.strip() == rep["error"]
    assert key not in rep["verdicts"] and f"{key}:" not in captured.out


# each engine error class: the builtin it is a kind of, and the exit code
# the command line returns for it (None: it reaches the command line only
# inside a malformed input file's ParameterError)
_ENGINE_ERRORS = {
    "StructureError": (ValueError, None), "CoverageError": (LookupError, None),
    "PoleError": (ZeroDivisionError, None), "ParameterError": (ValueError, 2), "CompileError": (RuntimeError, 2),
    "PoleProximityError": (RuntimeError, 3), "NumericAbortError": (RuntimeError, 3), "CheckFailed": (Exception, 1),
    "DerivationError": (RuntimeError, 1), "TransformDegenerateError": (RuntimeError, 1),
    "GaugeError": (RuntimeError, 1),
}


def test_every_engine_error_is_defined_in_errors():
    defined = set()
    for info in pkgutil.iter_modules(contactlax.__path__):
        mod = importlib.import_module(f"contactlax.{info.name}")
        defined |= {(info.name, name) for name, obj in vars(mod).items()
                    if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == mod.__name__}
    assert defined == {("errors", name) for name in ("EngineError", *_ENGINE_ERRORS)}
    for name, (builtin, code) in _ENGINE_ERRORS.items():
        cls = getattr(errors, name)
        assert issubclass(cls, errors.EngineError) and issubclass(cls, builtin), name
        assert cls.exit_code == code, name


@pytest.mark.parametrize("name", list(_ENGINE_ERRORS))
def test_run_maps_each_engine_error_to_its_exit_code(tmp_path, capsys, name):
    # a stub command that raises the class: the exit code and prefix of
    # its class, or, for a class without an exit code, the error itself
    cls, code = getattr(errors, name), _ENGINE_ERRORS[name][1]

    def stub(args, rep):
        raise cls("what went wrong")

    report = tmp_path / "report.json"
    args = argparse.Namespace(command="stub", fn=stub, report_json=str(report))
    if code is None:
        with pytest.raises(cls, match="^what went wrong$"):
            cli._run(args)
        return
    assert cli._run(args) == code
    prefix = {1: "verification failure", 2: "parameter error", 3: "numerical abort"}[code]
    rep = json.loads(report.read_text())
    assert rep["error"] == f"{prefix}: what went wrong"
    assert capsys.readouterr().err == rep["error"] + "\n"


@pytest.mark.parametrize("args", [
    ["derive"],
    ["ck"],
    ["export", "--what", "system", "--out", "OUT"],
    ["export", "--what", "ck", "--out", "OUT"],
], ids=["derive", "ck", "export-system", "export-ck"])
def test_poly_residue_form_is_a_parameter_error(tmp_path, monkeypatch, capsys, args):
    def no_cc(*_):
        raise AssertionError("the compatibility condition was derived")

    monkeypatch.setattr(compat, "family_cc", no_cc)
    out, report = tmp_path / "out.json", tmp_path / "report.json"
    args = [str(out) if a == "OUT" else a for a in args]
    code = main([*args, "--family", "poly", "-m", "1", "-n", "1", "--form", "residues", "--report-json", str(report)])
    assert code == 2
    rep = json.loads(report.read_text())
    assert rep["error"] == "parameter error: the residue form applies to the rational families, not poly"
    assert capsys.readouterr().err.strip() == rep["error"]
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["derive", "--family", "ratgp", "-m", "2", "-n", "1", "--form", "residues"],
    ["ck", "--family", "rat", "-m", "2", "-n", "1", "--form", "residues"],
    ["export", "--family", "rat", "-m", "1", "-n", "2", "--what", "ck", "--form", "residues", "--out", "OUT"],
    ["simulate", "--family", "rat", "-m", "1", "-n", "1", "--grid", "8", "--steps", "2", "--init", "INIT"],
], ids=["derive", "ck", "export-ck", "simulate"])
def test_residue_form_never_builds_the_compatibility_condition(tmp_path, monkeypatch, args):
    def no_cc(*_):
        raise AssertionError("the compatibility condition was derived")

    monkeypatch.setattr(compat, "family_cc", no_cc)
    monkeypatch.setattr(compat, "compatibility_condition", no_cc)
    compat.derive.cache_clear()
    (tmp_path / "init.json").write_text(_rat11_init())
    subst = {"OUT": str(tmp_path / "out.json"), "INIT": str(tmp_path / "init.json")}
    assert main([subst.get(a, a) for a in args]) == 0


def test_report_json_written_on_handled_errors(tmp_path, capsys):
    report = tmp_path / "rls.json"
    code = main(["verify", "rls", "-m", "2", "-n", "2", "--report-json", str(report)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("parameter error: no transcription")
    rep = json.loads(report.read_text())
    assert rep["command"] == "verify rls"
    assert rep["error"] == err.strip()
    assert rep["seconds"] > 0
    report = tmp_path / "init.json"
    code = main([
        "simulate", "--family", "rat", "-m", "1", "-n", "1",
        "--init", str(tmp_path / "missing.json"), "--report-json", str(report),
    ])
    assert code == 2
    rep = json.loads(report.read_text())
    assert rep["error"].startswith("parameter error:") and rep["seconds"] > 0


_RAT11_RUN = ["--family", "rat", "-m", "1", "-n", "1", "--steps", "2", "--init", "INIT"]


def test_closed_stdout_is_one_parameter_error(tmp_path):
    # stdout is a pipe whose read end is closed, as `| head -1` leaves it
    # once it has its line: one stderr line, the report written with that
    # error, no traceback at shutdown, and exit 2
    report = tmp_path / "report.json"
    src = str(Path(contactlax.__file__).resolve().parents[1])
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run([sys.executable, "-m", "contactlax.cli", "verify", "rls", "-m", "2", "-n", "1", "--diff",
                               "--report-json", str(report)], stdout=write, stderr=subprocess.PIPE,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
    finally:
        os.close(write)
    error = "parameter error: [Errno 32] Broken pipe"
    assert done.returncode == 2
    assert done.stderr.decode() == error + "\n"
    assert json.loads(report.read_text())["error"] == error


@pytest.mark.parametrize("params", [
    [*_RAT11_RUN, "--grid", "4"],
    [*_RAT11_RUN, "--grid", "8", "--monitor-every", "0"],
    [*_RAT11_RUN, "--grid", "8", "12"],
    [*_RAT11_RUN, "--grid", "8", "8", "8", "8"],
    # 7 PiB per field: NumPy refuses the allocation
    [*_RAT11_RUN, "--grid", "100000"],
    # options the manufactured study, or a run of a system file, never reads
    *(["--manufactured", opt, value] for opt, value in (("--grid", "8"), ("--steps", "2"), ("--dt", "0.01"),
                                                        ("--spatial", "fd2"), ("--monitor-every", "2"))),
    *(["--system-json", "CK", "--init", "INIT", "--grid", "8", "--steps", "2", opt, value]
      for opt, value in (("--family", "rat"), ("-m", "1"), ("-n", "1"))),
])
def test_simulate_rejected_parameters_exit_2(tmp_path, capsys, params):
    init = tmp_path / "init.json"
    init.write_text(json.dumps({
        "v1": {"constant": -1.0}, "w1": {"constant": 1.0},
        "a1": {"constant": 1.0}, "b1": {"constant": 0.5},
    }))
    ck = tmp_path / "ck.json"
    if "CK" in params:
        assert main(["ck", "--family", "rat", "-m", "1", "-n", "1", "--out-json", str(ck)]) == 0
        capsys.readouterr()
    report = tmp_path / "report.json"
    code = main(["simulate", *({"INIT": str(init), "CK": str(ck)}.get(a, a) for a in params),
                 "--report-json", str(report)])
    assert code == 2
    rep = json.loads(report.read_text())
    assert rep["error"].startswith("parameter error:")
    if params[0] != "--family":
        assert rep["error"].endswith(f"{params[-2]} does not apply to simulate {params[0]}")
    assert capsys.readouterr().err.strip() == rep["error"]


@pytest.mark.parametrize("params,message", [
    (["--steps", "-3"], "steps must not be negative"),
    (["--dt", "0"], "dt must be finite and positive"),
    (["--dt", "-0.01"], "dt must be finite and positive"),
    (["--dt", "nan"], "dt must be finite and positive"),
    (["--guard", "nan"], "guard must be finite and positive"),
    (["--guard", "-1"], "guard must be finite and positive"),
    (["--guard", "inf"], "guard must be finite and positive"),
    (["--guard", "0"], "guard must be finite and positive"),
], ids=["negative-steps", "zero-dt", "negative-dt", "nan-dt", "nan-guard", "negative-guard", "inf-guard",
        "zero-guard"])
def test_simulate_impossible_step_parameters_exit_2(tmp_path, capsys, params, message):
    init = tmp_path / "init.json"
    init.write_text(json.dumps({
        "v1": {"constant": -1.0}, "w1": {"constant": 1.0},
        "a1": {"constant": 1.0}, "b1": {"constant": 0.5},
    }))
    report = tmp_path / "report.json"
    code = main([
        "simulate", "--family", "rat", "-m", "1", "-n", "1", "--grid", "8", "--steps", "2",
        "--init", str(init), "--report-json", str(report), *params,
    ])
    assert code == 2
    rep = json.loads(report.read_text())
    assert rep["error"].startswith("parameter error:") and message in rep["error"]
    assert "integration" not in rep["verdicts"]


def test_integrate_refuses_an_unknown_spatial_operator():
    # the CLI's --spatial choices refuse one on the command line; integrate
    # refuses it like the step parameters above, naming the operators
    from contactlax import numeric

    cs = numeric.compile_system(ck_transform(derive("rat", 1, 1, form="residues")))
    grid = numeric.Grid((8, 8, 8))
    state = numeric.load_initial_data({u: {"constant": c} for u, c in zip(cs.unknowns, (-1.0, 1.0, 1.0, 0.5))},
                                      cs.unknowns, grid.coords())
    with pytest.raises(numeric.CompileError, match="^unknown spatial operator 'fd4': expected one of spectral, fd2$"):
        numeric.integrate(cs, grid, state, 1, 0.01, spatial="fd4")


_XYZT = ["X", "Y", "Z", "T"]


def _rat11_init(**entries):
    """Constant rat (1, 1) initial data as JSON text, with some entries replaced."""
    return json.dumps({
        "v1": {"constant": -1.0}, "w1": {"constant": 1.0},
        "a1": {"constant": 1.0}, "b1": {"constant": 0.5}, **entries,
    })


@pytest.mark.parametrize("system,init,message", [
    ({"unknowns": ["u"], "independents": _XYZT, "equations": [{"op": "bogus"}]}, None,
     "StructureError: unknown op 'bogus'"),
    ({"unknowns": ["u"], "independents": _XYZT}, None, "KeyError: 'equations'"),
    ({"unknowns": ["u"], "independents": _XYZT, "equations": [{"op": "num", "value": "1"}],
      "provenance": {"denominators": [{"op": "num", "value": "1"}] * 2}}, None,
     "provenance.denominators and equations differ in length"),
    (None, "{not json", "JSONDecodeError"),
    (None, _rat11_init(v1={"fourier": {"mean": -1.0, "modes": [{"k": [0.5, 0, 0], "amp": 0.05}]}}),
     "k must be three integers, got [0.5, 0, 0]"),
    (None, _rat11_init(v1={"fourier": {"mean": -1.0, "modes": [{"k": [1, 0, 0, 7], "amp": 0.05}]}}),
     "k must be three integers, got [1, 0, 0, 7]"),
    (None, _rat11_init(v1={"constant": float("nan")}), "constant must be finite"),
    (None, _rat11_init(a1={"constant": True}), "malformed initial data for a1: constant must be a number, got True"),
    (None, _rat11_init(v1={"fourier": [1, 2]}), "malformed initial data for v1: fourier must be an object, got [1, 2]"),
    (None, _rat11_init(zz={"constant": 1.0}),
     "malformed initial data for zz: not an unknown of the system (a1, v1, b1, w1)"),
    (None, _rat11_init(v1={"constant": -1.0, "fourier": {"mean": 5.0}}),
     "malformed initial data for v1: give constant or fourier, not both"),
    (None, "[1, 2]", "malformed initial data: expected an object mapping each unknown to its entry, got list"),
    # 8 points of 16: the zeroed Nyquist bin; 10**20 aliases
    (None, _rat11_init(w1={"fourier": {"mean": 1.0, "modes": [{"k": [0, 0, -8], "amp": 0.05}]}}),
     "malformed initial data for w1: k = [0, 0, -8] needs |k_i| < n_i/2 on the 16x16x16 grid"),
    (None, _rat11_init(v1={"fourier": {"mean": -1.0, "modes": [{"k": [10 ** 20, 0, 0], "amp": 0.05}]}}),
     "k = [100000000000000000000, 0, 0] needs |k_i| < n_i/2"),
    ({"unknowns": ["u"], "independents": _XYZT, "equations": [{"op": "num", "value": "1"}],
      "provenance": {"denominators": [{"op": "num", "value": "0"}]}}, None, "PoleError: zero denominator"),
    ({"unknowns": ["u"], "independents": _XYZT, "equations": [
        {"op": "pow", "base": {"op": "jet", "field": "u", "d": [0, 0, 0, 1]}, "exp": 128}]}, None,
     "StructureError: jet exponent above 127"),
    ({"unknowns": ["u"], "independents": _XYZT, "equations": [{"op": "num", "value": "1"}],
      "provenance": {"pole_fields": [["u"], ["nope"]]}}, None,
     "provenance.pole_fields must be two lists of unknowns, got [['u'], ['nope']]"),
    ({"unknowns": ["u", "w"], "independents": _XYZT, "equations": [{"op": "num", "value": "1"}] * 2,
      "provenance": {"pole_fields": ["u", "w"]}}, None,
     "provenance.pole_fields must be two lists of unknowns, got ['u', 'w']"),
    # a pole field named twice leaves no point clear of the poles to sample
    ({"unknowns": ["u", "w"], "independents": _XYZT, "equations": [{"op": "num", "value": "1"}] * 2,
      "provenance": {"pole_fields": [["u"], ["u"]]}}, None,
     "provenance.pole_fields names an unknown twice: [['u'], ['u']]"),
    ({"unknowns": ["u", "w"], "independents": _XYZT, "equations": [{"op": "num", "value": "1"}] * 2,
      "provenance": {"pole_fields": [["u", "u"], ["w"]]}}, None,
     "provenance.pole_fields names an unknown twice: [['u', 'u'], ['w']]"),
    ({"unknowns": ["u", "u"], "independents": _XYZT, "equations": [{"op": "num", "value": "1"}] * 2}, None,
     "repeated unknowns in ['u', 'u']"),
    ("[" * 3000 + "]" * 3000, None, "RecursionError"),
    # unbounded, each of the next three would run for more than 20 s: a
    # literal is an integer or p/q, and a power or derivative order is at
    # most 127
    ({"unknowns": ["u"], "independents": _XYZT, "equations": [{"op": "num", "value": "1e99999999"}]}, None,
     "StructureError: bad rational literal '1e99999999'"),
    ({"unknowns": ["u"], "independents": _XYZT, "equations": [
        {"op": "pow", "base": {"op": "num", "value": "3"}, "exp": 10 ** 8}]}, None,
     "StructureError: jet exponent above 127"),
    ({"unknowns": ["u"], "independents": _XYZT, "equations": [{"op": "jet", "field": "u", "d": [0, 10 ** 8, 0, 0]}]},
     None, "StructureError: bad multi-index [0, 100000000, 0, 0]"),
], ids=["unknown-op", "no-equations", "denominators-length", "init-not-json", "fractional-k", "four-entry-k",
        "nan-constant", "boolean-constant", "fourier-not-object", "init-extra-name", "init-constant-and-fourier",
        "init-not-object", "k-at-nyquist", "k-past-nyquist", "zero-denominator", "exponent-128",
        "pole-field-not-unknown", "pole-fields-as-strings", "pole-field-on-both-sides", "pole-field-twice-on-one-side",
        "repeated-unknowns", "nested-3000-deep",
        "exponent-form-literal", "constant-to-the-1e8", "derivative-order-1e8"])
def test_simulate_malformed_input_files_exit_2(tmp_path, capsys, system, init, message):
    args = ["simulate", "--steps", "2"]
    if system is not None:
        (tmp_path / "system.json").write_text(system if isinstance(system, str) else json.dumps(system))
        args += ["--system-json", str(tmp_path / "system.json")]
    (tmp_path / "init.json").write_text(init if init is not None else _rat11_init())
    report = tmp_path / "report.json"
    code = main([*args, "--init", str(tmp_path / "init.json"), "--report-json", str(report)])
    assert code == 2
    rep = json.loads(report.read_text())
    assert rep["error"].startswith("parameter error: malformed") and message in rep["error"]
    assert capsys.readouterr().err.strip() == rep["error"]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_simulate_checks_the_initial_state_as_a_monitored_step(tmp_path, capsys):
    # a mean and an amplitude of 1e308 sum past the float range: step 0
    # is refused as non-finite, as any monitored step would be
    (tmp_path / "init.json").write_text(
        _rat11_init(v1={"fourier": {"mean": 1e308, "modes": [{"k": [1, 0, 0], "amp": 1e308}]}}))
    report, monitor = tmp_path / "report.json", tmp_path / "monitor.csv"
    code = main(["simulate", "--init", str(tmp_path / "init.json"), "--grid", "8", "--steps", "0",
                 "--monitor", str(monitor), "--report-json", str(report)])
    assert code == 3
    rep = json.loads(report.read_text())
    assert rep["error"] == "numerical abort: non-finite values in v1 at step 0"
    assert capsys.readouterr().err.strip() == rep["error"]
    assert "final max field" not in rep["verdicts"] and not monitor.exists()


def test_simulate_planar_system_is_a_parameter_error(tmp_path, capsys):
    # a reduce21 system has independents (x, y, t): refused before the
    # evolution transform, with the report written
    planar = tmp_path / "planar.json"
    assert main(["reduce21", "--family", "rat", "-m", "1", "-n", "1", "--out-json", str(planar)]) == 0
    (tmp_path / "init.json").write_text(_rat11_init())
    capsys.readouterr()
    report = tmp_path / "report.json"
    code = main(["simulate", "--system-json", str(planar), "--init", str(tmp_path / "init.json"), "--grid", "8",
                 "--steps", "2", "--report-json", str(report)])
    assert code == 2
    rep = json.loads(report.read_text())
    assert rep["error"] == f"parameter error: {planar} has independents (x, y, t), not (x, y, z, t) or (X, Y, Z, T)"
    assert capsys.readouterr().err.strip() == rep["error"]
    assert rep["verdicts"] == {}


def _jet_tree(field, d):
    return {"op": "jet", "field": field, "d": d}


_U_T_MINUS_U_X = {"op": "add", "args": [
    _jet_tree("u", [0, 0, 0, 1]), {"op": "mul", "args": [{"op": "num", "value": "-1"}, _jet_tree("u", [1, 0, 0, 0])]},
]}


def _simulate_system(tmp_path, system, init, *extra):
    (tmp_path / "system.json").write_text(json.dumps(system))
    (tmp_path / "init.json").write_text(json.dumps(init))
    report = tmp_path / "report.json"
    code = main([
        "simulate", "--system-json", str(tmp_path / "system.json"), "--init", str(tmp_path / "init.json"),
        "--grid", "8", "--steps", "5", "--dt", "0.01", "--report-json", str(report), *extra,
    ])
    return code, json.loads(report.read_text())


def test_simulate_without_original_system_monitors_every_step(tmp_path, capsys):
    system = {"unknowns": ["u"], "independents": _XYZT, "equations": [_U_T_MINUS_U_X]}
    init = {"u": {"fourier": {"modes": [{"k": [1, 0, 0], "amp": 1.0}]}}}
    mon = tmp_path / "mon.csv"
    code, rep = _simulate_system(tmp_path, system, init, "--monitor", str(mon))
    assert code == 0 and rep["error"] is None
    rows = mon.read_text().strip().splitlines()[1:]
    assert len(rows) == 6 and all(r.split(",")[3] == "nan" for r in rows)


# u_t (or u_T) over a denominator holding w_t; the T-jet matrix of the
# second case is singular
_T_DEFECTS = [
    ("xyzt", "T-jet inside a denominator", {"op": "add", "args": [_jet_tree("u", [0, 0, 0, 1]), _jet_tree("w", [0, 0, 0, 0])]},
     _jet_tree("w", [0, 0, 0, 1])),
    ("XYZT", "singular", {"op": "add", "args": [_jet_tree("u", [0, 0, 0, 1]), _jet_tree("w", [0, 0, 0, 1])]},
     {"op": "num", "value": "1"}),
    ("XYZT", "T-jet inside a denominator", {"op": "add", "args": [_jet_tree("u", [0, 0, 0, 1]), _jet_tree("w", [0, 0, 0, 0])]},
     _jet_tree("w", [0, 0, 0, 1])),
]


@pytest.mark.parametrize("independents,message,first,den", _T_DEFECTS,
                         ids=["xyzt-denominator", "XYZT-singular", "XYZT-denominator"])
def test_simulate_not_t_solvable_exit_1(tmp_path, capsys, independents, message, first, den):
    second = {"op": "add", "args": [_jet_tree("u", [0, 0, 0, 1]), _jet_tree("w", [0, 0, 0, 1])]}
    system = {
        "unknowns": ["u", "w"], "independents": list(independents), "equations": [first, second],
        "provenance": {"denominators": [den, {"op": "num", "value": "1"}]},
    }
    init = {"u": {"constant": 1.0}, "w": {"constant": 2.0}}
    code, rep = _simulate_system(tmp_path, system, init)
    assert code == 1
    assert rep["error"].startswith("verification failure:") and message in rep["error"]
    assert capsys.readouterr().err.strip() == rep["error"]


def test_simulate_coefficient_form_matches_residue_form(tmp_path, capsys):
    init = tmp_path / "init.json"
    init.write_text(json.dumps({
        name: {"fourier": {"mean": mean, "modes": [{"k": k, "amp": 0.05, "phase": 0.4 * i}]}}
        for i, (name, mean, k) in enumerate((
            ("a1", 1.0, [1, 0, 0]), ("a2", 0.8, [0, 1, 0]), ("v1", -1.5, [0, 0, 1]),
            ("v2", -0.5, [1, 1, 0]), ("b1", 0.7, [1, 0, 1]), ("w1", 1.5, [0, 1, 1]),
        ))
    }))
    ck = tmp_path / "ck.json"
    assert main(["export", "--family", "rat", "-m", "2", "-n", "1", "--what", "ck", "--out", str(ck)]) == 0
    columns = []
    for source in (["--system-json", str(ck)], ["--family", "rat", "-m", "2", "-n", "1"]):
        mon = tmp_path / "mon.csv"
        assert main(["simulate", *source, "--grid", "8", "--steps", "6", "--dt", "0.005",
                     "--init", str(init), "--monitor", str(mon)]) == 0
        rows = [line.split(",") for line in mon.read_text().strip().splitlines()[1:]]
        columns.append([(float(r[2]), float(r[4])) for r in rows])
    coeff, resid = columns
    assert len(coeff) == len(resid) == 7
    for a, b in zip(coeff, resid):
        assert a == pytest.approx(b, rel=1e-12)


def test_report_json_error_field_empty_on_success(tmp_path, capsys):
    report = tmp_path / "ok.json"
    assert main(["verify", "qsolution", "--report-json", str(report)]) == 0
    assert json.loads(report.read_text())["error"] is None


def test_export_lax_pair(tmp_path, capsys):
    out = tmp_path / "lax.json"
    assert main(["export", "--family", "ratgp", "-m", "2", "-n", "1", "--what", "lax", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert (data["family"], data["m"], data["n"], data["dimension"]) == ("ratgp", 2, 1, "3+1")
    assert data["fields"] == ["a0", "a1", "a2", "v1", "v2", "b0", "b1", "w1"]
    assert [len(data[r]["pf"]["poles"]) for r in ("F", "G")] == [2, 1]


@pytest.mark.parametrize("family,m,n,form", [
    ("rat", 1, 1, "coefficients"),
    ("rat", 1, 1, "residues"),
    ("ratgp", 1, 1, "coefficients"),
    ("poly", 2, 1, "coefficients"),
])
def test_pdesystem_json_roundtrip(family, m, n, form):
    sys = derive(family, m, n, form=form)
    text = pdesystem_dumps(sys)
    back = pdesystem_from_json(json.loads(text))
    assert back.unknowns == sys.unknowns
    assert back.independents == sys.independents
    assert len(back.equations) == len(sys.equations)
    for a, b in zip(back.equations, sys.equations):
        assert a == b
    assert pdesystem_dumps(back) == text


def test_ck_system_json_roundtrip_preserves_original():
    sys = ck_transform(derive("rat", 1, 1, form="residues"))
    back = pdesystem_from_json(json.loads(pdesystem_dumps(sys)))
    orig = back.provenance["original_system"]
    for a, b in zip(orig.equations, sys.provenance["original_system"].equations):
        assert a == b


@pytest.mark.parametrize("what,family,m", [("system", "rat", 1), ("ck", "rat", 2), ("lax", "ratgp", 2)])
def test_writer_matches_dict_oracle(what, family, m):
    """The streamed text is json.dumps(..., indent=1) of the dict tree,
    nested original systems and partial-fraction views included."""
    if what == "lax":
        lax = make_family(family, m, 1)
        assert laxpair_dumps(lax) == json.dumps(laxpair_oracle(lax), indent=1)
        return
    sys = derive(family, m, 1, form="residues")
    if what == "ck":
        sys = ck_transform(sys)
        assert "original_system" in sys.provenance
    assert pdesystem_dumps(sys) == json.dumps(pdesystem_oracle(sys), indent=1)


def _cli(args, cwd):
    """The CLI in a fresh process with PYTHONHASHSEED=0."""
    src = str(Path(contactlax.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "0"}
    return subprocess.run([sys.executable, "-m", "contactlax.cli", *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=120)


# every exact command, in one interpreter in which NumPy cannot be imported
_EXACT_COMMANDS = [
    ["derive", "--family", "rat", "--out-json", "sys.json", "--latex", "sys.tex"],
    ["derive", "--family", "ratgp", "--form", "residues", "--out-json", "res.json"],
    *(["verify", check] for check in ("ab", "qsolution", "theorem1", "rls", "reduce21")),
    ["ck", "--family", "rat", "--form", "residues", "--out-json", "ck.json"],
    ["reduce21", "--family", "rat", "--out-json", "planar.json", "--latex", "planar.tex"],
    ["export", "--family", "ratgp", "--what", "lax", "--out", "lax.json"],
    ["export", "--family", "rat", "--what", "ck", "--out", "export-ck.json"],
]

_WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None  # from here on, importing NumPy raises ImportError
from contactlax.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
assert sys.modules["numpy"] is None
"""


def test_exact_commands_run_without_numpy(tmp_path):
    src = str(Path(contactlax.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, json.dumps(_EXACT_COMMANDS)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == [0] * len(_EXACT_COMMANDS)
    assert done.stderr == ""


@pytest.mark.parametrize("args,code,error", [
    (["--system-json", "planar.json"], 2,
     "parameter error: planar.json has independents (x, y, t), not (x, y, z, t) or (X, Y, Z, T)"),
    (["--grid", "4"], 2, "parameter error: grid must have at least 8 points per direction"),
    ([], 3, "numerical abort: pole proximity at step 0: min distance 5.000e-02 < guard 1.000e-01"),
    (["--system-json", "empty.json", "--init", "none.json"], 2, "parameter error: system has no unknowns to integrate"),
], ids=["planar-system", "small-grid", "pole-abort", "no-unknowns"])
def test_simulate_errors_map_to_exit_codes_in_a_fresh_process(tmp_path, args, code, error):
    # simulate imports the integrator itself; its errors must still reach
    # their exit codes when nothing else has imported it
    assert main(["reduce21", "--family", "rat", "--out-json", str(tmp_path / "planar.json")]) == 0
    (tmp_path / "abort.json").write_text(_rat11_init(w1={"constant": -0.95}))
    (tmp_path / "empty.json").write_text(json.dumps({"unknowns": [], "independents": _XYZT, "equations": []}))
    (tmp_path / "none.json").write_text("{}")
    done = _cli(["simulate", "--init", "abort.json", "--grid", "8", "--steps", "2", *args,
                 "--report-json", "report.json"], tmp_path)
    assert done.returncode == code
    assert json.loads((tmp_path / "report.json").read_text())["error"] == error
    assert done.stderr.strip() == error


def _pinned_view(res, pole, count, const):
    def jq(name):
        return {"num": {"op": "jet", "field": name, "d": [0, 0, 0, 0]}, "den": {"op": "num", "value": "1"}}

    return {
        "polypart": [jq(f"{res}0")] if const else [],
        "poles": [{"pole": f"{pole}{i}", "order": 1, "residues": [jq(f"{res}{i}")]} for i in range(1, count + 1)],
    }


@pytest.mark.parametrize("family,m,n,F,G", [
    ("rat", 2, 1, r"\frac{a_{1}}{p-v_{1}}+\frac{a_{2}}{p-v_{2}}", r"\frac{b_{1}}{p-w_{1}}"),
    ("ratgp", 2, 2, r"\left(a_{0}\right)+\frac{a_{1}}{p-v_{1}}+\frac{a_{2}}{p-v_{2}}",
     r"\left(b_{0}\right)+\frac{b_{1}}{p-w_{1}}+\frac{b_{2}}{p-w_{2}}"),
], ids=["rat-2-1", "ratgp-2-2"])
def test_lax_pair_output_is_pinned(tmp_path, family, m, n, F, G):
    fam = ["--family", family, "-m", str(m), "-n", str(n)]
    done = _cli(["export", *fam, "--what", "lax", "--out", "lax.json", "--latex", "lax.tex"], tmp_path)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "lax.tex").read_text() == (
        f"\\psi_y = \\psi_z\\,F(\\psi_x/\\psi_z), \\quad F = {F}, \\\\\n"
        f"\\psi_t = \\psi_z\\,G(\\psi_x/\\psi_z), \\quad G = {G}\n"
    )
    data = json.loads((tmp_path / "lax.json").read_text())
    const = family == "ratgp"
    assert data["F"]["pf"] == _pinned_view("a", "v", m, const)
    assert data["G"]["pf"] == _pinned_view("b", "w", n, const)
    done = _cli(["reduce21", *fam], tmp_path)
    assert done.returncode == 0, done.stderr
    pair = f"\\psi_y = {F}, \\qquad \\psi_t = {G}".replace("{p-", "{\\psi_x-")
    assert f"pair: {pair}\n" in done.stdout


@pytest.mark.parametrize("args", [
    ["derive", "--family", "rat", "--out-json", "DIR"],
    ["verify", "qsolution", "--report-json", "DIR"],
    ["simulate", "--init", "DIR"],
    ["simulate", "--manufactured", "--system-json", "DIR"],
], ids=["derive-out-json", "verify-report-json", "simulate-init", "simulate-system-json"])
def test_unusable_path_is_a_parameter_error(tmp_path, args):
    # a directory can be neither written nor read as a file
    done = _cli([str(tmp_path) if a == "DIR" else a for a in args], tmp_path)
    assert done.returncode == 2
    assert done.stderr.startswith("parameter error:") and "Traceback" not in done.stderr


@pytest.mark.parametrize("args", [
    ["derive", "--family", "rat", "-m", "2", "-n", "3", "--form", "residues", "--out-json", "DIR"],
    ["derive", "--family", "rat", "--out-json", "KEEP", "--latex", "NODIR/sys.tex"],
    ["ck", "--family", "rat", "--report-json", "NODIR/report.json"],
    ["export", "--family", "rat", "--out", "DIR"],
    ["simulate", "--init", "DIR"],
    ["simulate", "--init", "KEEP", "--monitor", "DIR"],
    ["simulate", "--manufactured", "--convergence", "NODIR/conv.csv"],
], ids=["derive-out-json", "derive-latex", "ck-report-json", "export-out", "simulate-init", "simulate-monitor",
        "simulate-convergence"])
def test_unusable_path_is_refused_before_the_work(tmp_path, monkeypatch, capsys, args):
    # DIR is a directory, NODIR/... has no parent directory, KEEP is a
    # file that must come out unchanged
    calls = []

    def recording_derive(family, m, n, form="coefficients"):
        calls.append((family, m, n, form))
        return derive("rat", 1, 1, form=form)

    monkeypatch.setattr(cli, "derive", recording_derive)
    keep = tmp_path / "keep.json"
    keep.write_text("{}")
    paths = {"DIR": tmp_path, "KEEP": keep}
    argv = [str(paths.get(a) or (tmp_path / a if a.startswith("NODIR/") else a)) for a in args]
    assert cli.main(argv) == 2
    assert calls == []
    assert capsys.readouterr().err.startswith("parameter error:")
    assert keep.read_text() == "{}" and sorted(tmp_path.iterdir()) == [keep]


def _module_at(path: Path):
    """The module in the file at path, imported by path."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_REPO = Path(__file__).resolve().parents[1]
_OUTPUTS = _module_at(_REPO / "scripts" / "compare_outputs.py")

# each case names the manifest command whose digest covers the output it
# pins (reduce21-rat-2-1-stdout's lines are that command's stdout up to
# its two "wrote" lines): a changed normal form, term order or layout
# changes the digest. derive-ratgp-3-3 and derive-ratgp-3-3-latex once
# pinned that command's JSON and LaTeX apart; both now name the one entry
# that covers both, and _PINNED_DIGESTS runs each command once per session
_PINNED_OUTPUT = {
    "derive-poly-2-2": "derive --family poly -m 2 -n 2 --out-json sys.json --latex sys.tex",
    "derive-rat-2-1-residues": "derive --family rat -m 2 -n 1 --form residues --out-json sys.json --latex sys.tex",
    "ck-rat-1-1": "ck --family rat -m 1 -n 1 --out-json ck.json",
    "verify-rls-2-1-diff": "verify rls -m 2 -n 1 --diff",
    "export-lax-ratgp-2-1": "export --family ratgp -m 2 -n 1 --what lax --out lax.json --latex lax.tex",
    "derive-rat-3-3": "derive --family rat -m 3 -n 3 --out-json sys.json --latex sys.tex",
    "reduce21-ratgp-2-1": "reduce21 --family ratgp -m 2 -n 1 --out-json r21.json --latex r21.tex",
    "export-ck-rat-2-1-residues":
        "export --family rat -m 2 -n 1 --what ck --form residues --out ck.json --latex ck.tex",
    "derive-ratgp-3-3": "derive --family ratgp -m 3 -n 3 --out-json sys.json --latex sys.tex",
    "derive-rat-2-2-residues": "derive --family rat -m 2 -n 2 --form residues --out-json sys.json --latex sys.tex",
    "verify-theorem1-3-3": "verify theorem1 -m 3 -n 3",
    "derive-ratgp-3-3-latex": "derive --family ratgp -m 3 -n 3 --out-json sys.json --latex sys.tex",
    "derive-ratgp-3-3-residues": "derive --family ratgp -m 3 -n 3 --form residues --out-json sys.json --latex sys.tex",
    "export-lax-rat-2-2": "export --family rat -m 2 -n 2 --what lax --out lax.json --latex lax.tex",
    "export-lax-ratgp-2-2": "export --family ratgp -m 2 -n 2 --what lax --out lax.json --latex lax.tex",
    "reduce21-rat-2-1-stdout": "reduce21 --family rat -m 2 -n 1 --out-json r21.json --latex r21.tex",
    "verify-theorem1-2-1": "verify theorem1 -m 2 -n 1",
}


_PINNED_DIGESTS: dict[str, str] = {}


@pytest.mark.parametrize("command", list(_PINNED_OUTPUT.values()), ids=list(_PINNED_OUTPUT))
def test_exact_output_is_pinned(tmp_path, command):
    if command not in _PINNED_DIGESTS:
        steps = next(c for c in _OUTPUTS.commands() if _OUTPUTS.text(c) == command)
        src = Path(contactlax.__file__).resolve().parents[1]
        _PINNED_DIGESTS[command] = _OUTPUTS.digest(_OUTPUTS.run(src, steps, tmp_path))
    assert _PINNED_DIGESTS[command] == dict(_OUTPUTS.manifest())[command]


def test_manifest_lists_every_exact_command_once_in_order():
    entries = _OUTPUTS.manifest()
    assert [cmd for cmd, _ in entries] == [_OUTPUTS.text(c) for c in _OUTPUTS.commands() if _OUTPUTS.exact(c)]
    assert all(len(d) == 64 and set(d) <= set("0123456789abcdef") for _, d in entries)


def _synopsis(readme: str) -> dict:
    """Per subcommand, the options its lines of the README's command-line
    synopsis name."""
    block = readme.split("## Command line\n\n```\n", 1)[1].split("```", 1)[0]
    out, command = {}, None
    for line in block.splitlines():
        if line.startswith("contactlax "):
            command = line.split()[1]
        out.setdefault(command, set()).update(re.findall(r"(?<![\w-])--?[a-z][\w-]*", line))
    return out


def _parser_options() -> dict:
    """Per subcommand of cli.build_parser(), its option strings but help."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"} for name, p in sub.choices.items()}


def test_readme_synopsis_matches_the_parser():
    readme = (_REPO / "README.md").read_text()
    parser = _parser_options()
    assert _synopsis(readme) == parser
    # an option left out of the synopsis, or one the parser does not have
    assert _synopsis(readme.replace(" [--guard 0.1]", "")) != parser
    assert _synopsis(readme.replace("[--diff]", "[--diff] [--verbose]")) != parser


def test_goldens_present_and_marked():
    from importlib.resources import files

    base = files("contactlax").joinpath("paper-transcriptions")
    for name in ("rational_system_m1_n1.json", "rational_system_m2_n1.json"):
        doc = json.loads(base.joinpath(name).read_text())
        assert "NEVER regenerate" in doc["warning"]
        assert doc["lines"]


def test_simulate_manufactured_mode(tmp_path, capsys):
    conv = tmp_path / "conv.csv"
    code = main([
        "simulate", "--family", "rat", "-m", "1", "-n", "1",
        "--manufactured", "--convergence", str(conv),
    ])
    assert code == 0
    lines = conv.read_text().strip().splitlines()
    assert lines[0] == "study,level,error,order"
    assert any(l.startswith("temporal") for l in lines)
    assert any(l.startswith("spatial") for l in lines)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="simulate holds the heap only under glibc")
def test_simulate_reuses_its_freed_grid_arrays(tmp_path):
    """A second simulate run in the same process takes its grid arrays
    from memory the first one freed: glibc at its defaults would fault
    them in again, about 9,000 minor faults at 32^3."""
    init = tmp_path / "init.json"
    init.write_text(json.dumps({u: {"fourier": {"mean": c, "modes": [{"k": [1, 0, 0], "amp": 0.05}]}}
                                for u, c in (("v1", -1.0), ("w1", 1.0), ("a1", 1.0), ("b1", 0.7))}))
    argv = ["simulate", "--family", "rat", "--init", str(init), "--grid", "32", "--steps", "20"]
    assert main(argv) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(argv) == 0
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 1000


def test_simulate_requires_init_without_manufactured():
    assert main(["simulate", "--family", "rat", "-m", "1", "-n", "1"]) == 2


def test_public_and_benchmarked_names_resolve():
    """Every exported name, and every engine function the benchmark's
    layer spans wrap, still exists, except the p-division, partial
    fractions and p-polynomial collection, whose module the engine no
    longer has (a span reads a missing target as zero)."""
    for name in contactlax.__all__:
        assert hasattr(contactlax, name), name
    spans = _module_at(_REPO / "perfbench" / "spans.py")
    gone = []
    for mod_name, name, _ in spans.TARGETS:
        if importlib.util.find_spec(f"{spans.PACKAGE}.{mod_name}") is None:
            gone.append(name)
            continue
        obj = importlib.import_module(f"{spans.PACKAGE}.{mod_name}")
        for part in name.split("."):
            assert hasattr(obj, part), f"{mod_name}.{name}"
            obj = getattr(obj, part)
        assert callable(obj), f"{mod_name}.{name}"
    assert sorted(gone) == ["collect", "partial_fraction", "poly_div_exact"]
