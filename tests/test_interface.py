import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import contactlax
from contactlax import cli
from contactlax.cli import main
from contactlax.compat import ck_transform, derive
from contactlax.laxfamilies import make_rat
from contactlax.pfield import ParameterError
from contactlax.serialize import (
    laxpair_from_json,
    laxpair_to_json,
    pdesystem_from_json,
    pdesystem_to_json,
    prational_from_json,
    prational_to_json,
)


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


def test_verify_qsolution(capsys):
    assert main(["verify", "qsolution"]) == 0
    assert "pass (exact zero)" in capsys.readouterr().out


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


@pytest.mark.parametrize("family", ["poly", "rat", "ratgp"])
def test_verify_reduce21(family, capsys):
    assert main(["verify", "reduce21", "--family", family, "-m", "1", "-n", "1"]) == 0
    assert "planar reduction commutes: pass" in capsys.readouterr().out


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
    assert rep["verdicts"]["integration"].startswith("abort (")
    assert rep["seconds"] > 0


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


@pytest.mark.parametrize("params", [
    ["--grid", "4"],
    ["--grid", "8", "--monitor-every", "0"],
    ["--grid", "8", "12"],
    ["--grid", "8", "8", "8", "8"],
])
def test_simulate_rejected_parameters_exit_2(tmp_path, capsys, params):
    init = tmp_path / "init.json"
    init.write_text(json.dumps({
        "v1": {"constant": -1.0}, "w1": {"constant": 1.0},
        "a1": {"constant": 1.0}, "b1": {"constant": 0.5},
    }))
    report = tmp_path / "report.json"
    code = main([
        "simulate", "--family", "rat", "-m", "1", "-n", "1", "--steps", "2",
        "--init", str(init), "--report-json", str(report), *params,
    ])
    assert code == 2
    rep = json.loads(report.read_text())
    assert rep["error"].startswith("parameter error:")
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
], ids=["unknown-op", "no-equations", "denominators-length", "init-not-json", "fractional-k", "four-entry-k",
        "nan-constant"])
def test_simulate_malformed_input_files_exit_2(tmp_path, capsys, system, init, message):
    args = ["simulate", "--steps", "2"]
    if system is not None:
        (tmp_path / "system.json").write_text(json.dumps(system))
        args += ["--system-json", str(tmp_path / "system.json")]
    (tmp_path / "init.json").write_text(init if init is not None else _rat11_init())
    report = tmp_path / "report.json"
    code = main([*args, "--init", str(tmp_path / "init.json"), "--report-json", str(report)])
    assert code == 2
    rep = json.loads(report.read_text())
    assert rep["error"].startswith("parameter error: malformed") and message in rep["error"]
    assert capsys.readouterr().err.strip() == rep["error"]


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


def test_export_and_roundtrip(tmp_path, capsys):
    out = tmp_path / "lax.json"
    assert main(["export", "--family", "ratgp", "-m", "2", "-n", "1", "--what", "lax", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    again = laxpair_to_json(laxpair_from_json(data))
    assert again == data


@pytest.mark.parametrize("family,m,n,form", [
    ("rat", 1, 1, "coefficients"),
    ("rat", 1, 1, "residues"),
    ("ratgp", 1, 1, "coefficients"),
    ("poly", 2, 1, "coefficients"),
])
def test_pdesystem_json_roundtrip(family, m, n, form):
    sys = derive(family, m, n, form=form)
    data = pdesystem_to_json(sys)
    back = pdesystem_from_json(data)
    assert back.unknowns == sys.unknowns
    assert back.independents == sys.independents
    assert len(back.equations) == len(sys.equations)
    for a, b in zip(back.equations, sys.equations):
        assert a == b
    assert pdesystem_to_json(back) == data


def test_ck_system_json_roundtrip_preserves_original():
    sys = ck_transform(derive("rat", 1, 1, form="residues"))
    data = pdesystem_to_json(sys)
    back = pdesystem_from_json(data)
    orig = back.provenance["original_system"]
    for a, b in zip(orig.equations, sys.provenance["original_system"].equations):
        assert a == b


def test_prational_json_roundtrip():
    lax = make_rat(2, 1)
    for r, pf in zip((lax.F, lax.G), lax.partial_fractions()):
        data = prational_to_json(r, pf)
        back = prational_from_json(data)
        assert back == r
        assert prational_to_json(back, pf) == data
    # an imported view must reassemble to the imported num/den
    data = prational_to_json(lax.F, lax.partial_fractions()[0])
    data["pf"]["poles"][0]["residues"] = data["pf"]["poles"][1]["residues"]
    with pytest.raises(ParameterError):
        prational_from_json(data)


def _cli(args, cwd):
    """The CLI in a fresh process with PYTHONHASHSEED=0."""
    src = str(Path(contactlax.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "0"}
    return subprocess.run([sys.executable, "-m", "contactlax.cli", *args], capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=120)


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


# sha256 of the exact output under PYTHONHASHSEED=0: a changed normal
# form, term order or layout changes them
_PINNED_OUTPUT = [
    (["derive", "--family", "poly", "-m", "2", "-n", "2", "--out-json", "sys.json"],
     {"sys.json": "aee6ca57e4f3fef81dda789d4991b8cf8238aaf484d89ea021b14e68e9221f3a"}),
    (["derive", "--family", "rat", "-m", "2", "-n", "1", "--form", "residues", "--out-json", "sys.json",
      "--latex", "sys.tex"],
     {"sys.json": "1bae2a6b461a042e35a30de31a9969862f6f4d00e7bc1f642870db73f9a25515",
      "sys.tex": "1fd173f314d47e99ffd57587b4cdf9902e6f89675d14dc0677a6c9b5235b4f40"}),
    (["ck", "--family", "rat", "-m", "1", "-n", "1", "--out-json", "sys.json"],
     {"sys.json": "993f962b3dcca1093091d6798131c0926144b5d80afb60934d2971e9b25ce7c3"}),
    (["verify", "rls", "-m", "2", "-n", "1", "--diff"],
     {"stdout": "d1ef8a3cea3a55e015249a2cc6f9b9232ab81381f3d5df73863c88881d6ee7ec"}),
]


@pytest.mark.parametrize("args,digests", _PINNED_OUTPUT,
                         ids=["derive-poly-2-2", "derive-rat-2-1-residues", "ck-rat-1-1", "verify-rls-2-1-diff"])
def test_exact_output_is_pinned(tmp_path, args, digests):
    done = _cli(args, tmp_path)
    assert done.returncode == 0, done.stderr
    for name, want in digests.items():
        data = done.stdout.encode() if name == "stdout" else (tmp_path / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == want, name


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


def test_simulate_requires_init_without_manufactured():
    assert main(["simulate", "--family", "rat", "-m", "1", "-n", "1"]) == 2


def test_public_and_benchmarked_names_resolve():
    """Every exported name, and every engine function the benchmark's
    layer spans wrap, still exists."""
    for name in contactlax.__all__:
        assert hasattr(contactlax, name), name
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for mod_name, name, _ in spans.TARGETS:
        obj = importlib.import_module(f"{spans.PACKAGE}.{mod_name}")
        for part in name.split("."):
            assert hasattr(obj, part), f"{mod_name}.{name}"
            obj = getattr(obj, part)
        assert callable(obj), f"{mod_name}.{name}"
