import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import contactlax
from contactlax import gauge
from contactlax.gauge import (
    GaugeError,
    Q,
    apply_change_of_variables,
    gauge_residual,
    potential_solution,
    printed_field_map,
    solved_field_map,
    transform_pair,
    transform_rhs,
    verify_gauge_removal,
)
from contactlax.jetalg import (
    ONE,
    ZERO,
    DiffPoly,
    FieldId,
    JetQuotient,
    JetVariable,
    jet,
)
from contactlax.laxfamilies import make_ratgp
from conftest import compose_linear, q_is_z, unit_q_z


def zero_gauge_fields():
    return {
        JetVariable(FieldId("a0")): JetQuotient(ZERO),
        JetVariable(FieldId("b0")): JetQuotient(ZERO),
    }


def test_residual_vanishes_for_potential_solution():
    a0e, b0e = potential_solution()
    assert gauge_residual(a0e, b0e).is_zero()


def test_residual_vanishes_for_constants():
    c1 = JetQuotient(DiffPoly.const(Fraction(2, 3)))
    c2 = JetQuotient(DiffPoly.const(5))
    assert gauge_residual(c1, c2).is_zero()


def test_residual_counterexample():
    u = FieldId("u")
    res = gauge_residual(JetQuotient(jet(u)), JetQuotient(ZERO))
    assert res == JetQuotient(jet(u, (0, 0, 0, 1)))
    assert not res.is_zero()


def test_identity_gauge_is_identity_on_pole_data():
    lax = make_ratgp(1, 1)
    values = {**q_is_z(), **zero_gauge_fields()}
    solved = solved_field_map(lax, values)
    printed = printed_field_map(lax, values)
    for name in ("a1", "v1", "b1", "w1"):
        assert solved[name] == JetQuotient(jet(FieldId(name)))
        assert printed[name] == solved[name]
    rep = apply_change_of_variables(lax, transform_pair(lax, values), solved, "solved")
    assert rep["polynomial_part_zero"] and rep["pole_structure_ok"]


def test_shift_gauge_moves_poles_only():
    # q = z + f(x): unit q_z, pole shift by f_x, residues unchanged
    f = FieldId("f")
    qjv = {
        JetVariable(Q, (1, 0, 0, 0)): JetQuotient(jet(f, (1, 0, 0, 0))),
        JetVariable(Q, (0, 1, 0, 0)): JetQuotient(ZERO),
        JetVariable(Q, (0, 0, 1, 0)): JetQuotient(ONE),
        JetVariable(Q, (0, 0, 0, 1)): JetQuotient(ZERO),
    }
    lax = make_ratgp(1, 1)
    values = {**qjv, **zero_gauge_fields()}
    fx = JetQuotient(jet(f, (1, 0, 0, 0)))
    solved = solved_field_map(lax, values)
    assert solved["v1"] == JetQuotient(jet(FieldId("v1"))) - fx
    assert solved["a1"] == JetQuotient(jet(FieldId("a1")))
    printed = printed_field_map(lax, values)
    assert printed["v1"] == solved["v1"] and printed["a1"] == solved["a1"]


def test_general_q_adjudication():
    rep = verify_gauge_removal(1, 1)
    assert rep["validated"] == ["solved"]
    assert rep["maps"]["solved"]["polynomial_part_zero"]
    assert rep["maps"]["solved"]["pole_structure_ok"]
    assert rep["maps"]["solved"]["residual"] is None
    assert not rep["maps"]["printed"]["pole_structure_ok"]
    assert rep["maps"]["printed"]["residual"] is not None
    assert not rep["maps_agree"]


def test_unit_q_z_slice_both_maps_agree():
    rep = verify_gauge_removal(1, 1, q_jet_values=unit_q_z())
    assert set(rep["validated"]) == {"printed", "solved"}
    assert rep["maps_agree"]


def test_solved_map_formula():
    # the chain rule makes the transformed pole v q_z - q_x with residue a q_z^2
    lax = make_ratgp(1, 1)
    solved = solved_field_map(lax)
    qx, qz = jet(Q, (1, 0, 0, 0)), jet(Q, (0, 0, 1, 0))
    assert solved["v1"] == JetQuotient(jet(FieldId("v1")) * qz - qx)
    assert solved["a1"] == JetQuotient(jet(FieldId("a1")) * qz * qz)


def test_transform_rhs_affine_composition_oracle():
    # jet-level substitution agrees with composing p -> (p + q_x)/q_z
    lax = make_ratgp(2, 1)
    qx = JetQuotient(jet(Q, (1, 0, 0, 0)))
    qz = JetQuotient(jet(Q, (0, 0, 1, 0)))
    for r in (lax.F, lax.G):
        via_jets = transform_rhs(r)
        comp = compose_linear(r, JetQuotient(ONE) / qz, qx / qz)
        via_comp = comp * qz
        assert via_jets == via_comp


def test_no_potential_y_t_jets_survive():
    lax = make_ratgp(1, 2)
    solved = solved_field_map(lax)
    pair = transform_pair(lax)
    rep = apply_change_of_variables(lax, pair, solved, "solved")
    assert rep["polynomial_part_zero"] and rep["pole_structure_ok"]
    # the transformed pair and the solved map carry only x/z jets of the potential
    for expr in [*pair, *solved.values()]:
        for part in (expr.num, expr.den):
            for jv in part.jet_variables():
                if jv.field == Q:
                    assert jv.d[1] == 0 and jv.d[3] == 0


def test_output_shape_invariant_under_q_choice():
    lax = make_ratgp(1, 1)
    for values in (None, unit_q_z()):
        solved = solved_field_map(lax, values)
        rep = apply_change_of_variables(lax, transform_pair(lax, values), solved, "solved")
        assert rep["polynomial_part_zero"] and rep["pole_structure_ok"]


def test_gauge_requires_rational_family():
    from contactlax.laxfamilies import make_poly

    with pytest.raises(GaugeError):
        transform_pair(make_poly(1, 1))


def test_verify_gauge_removal_transforms_the_pair_once(monkeypatch):
    calls = []
    inner = gauge._transform_equation

    def counted(*args):
        calls.append(args[1])
        return inner(*args)

    monkeypatch.setattr(gauge, "_transform_equation", counted)
    rep = verify_gauge_removal(1, 1)
    assert calls == [1, 3]  # F then G, once for both candidate maps
    assert [r["map"] for r in rep["maps"].values()] == ["printed", "solved"]


def test_printed_map_residual_as_theorem1_prints_it(tmp_path):
    # a fresh process: the factor order of a printed monomial follows jet interning
    report = tmp_path / "theorem1.json"
    src = str(Path(contactlax.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "0"}
    subprocess.run(
        [sys.executable, "-m", "contactlax.cli", "verify", "theorem1", "--report-json", str(report)],
        check=True, capture_output=True, env=env,
    )
    maps = json.loads(report.read_text())["verdicts"]["maps"]
    a1, v1 = {"op": "jet", "field": "a1", "d": [0, 0, 0, 0]}, {"op": "jet", "field": "v1", "d": [0, 0, 0, 0]}
    qx = {"op": "jet", "field": "q", "d": [1, 0, 0, 0]}
    qz = {"op": "jet", "field": "q", "d": [0, 0, 1, 0]}
    minus = {"op": "num", "value": "-1"}

    def qz_pow(k):
        return {"op": "pow", "base": qz, "exp": k}

    # a1 q_x q_z^2 - a1 q_x q_z^3 - v1 a1 q_z^3 + v1 a1 q_z^4
    assert maps["printed"]["residual"] == {"op": "add", "args": [
        {"op": "mul", "args": [a1, qx, qz_pow(2)]},
        {"op": "mul", "args": [minus, a1, qx, qz_pow(3)]},
        {"op": "mul", "args": [minus, v1, a1, qz_pow(3)]},
        {"op": "mul", "args": [v1, a1, qz_pow(4)]},
    ]}
    assert maps["solved"]["residual"] is None
