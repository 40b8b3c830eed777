"""Acceptance suite.

Each test runs one acceptance criterion at its stated tolerance and
prints a single pass/fail line (visible with ``pytest -s`` or in the
captured output of a failing run)."""

import json
import random
import time
import zlib
from fractions import Fraction

import numpy as np

from contactlax.compat import (
    cc_bracket_path,
    cc_substitution_path,
    ck_transform,
    derive,
    determinedness_report,
    family_cc,
    match_printed_system,
    reduce_2plus1,
    reduce_system,
)
from contactlax.gauge import gauge_residual, potential_solution, unit_q_z, verify_gauge_removal
from contactlax.jetalg import (
    ONE,
    FieldId,
    JetQuotient,
    evaluate,
    from_tree,
    jet,
    to_tree,
    total_derivative,
)
from contactlax.laxfamilies import make_custom, make_family
from contactlax.numeric import (
    Grid,
    HarmonicField,
    Mode,
    compile_system,
    integrate,
    manufactured_test,
    residual_refinement_study,
)
from contactlax.pfield import PPoly, PRational, collect
from conftest import random_tree

TP = 2 * np.pi


def _line(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"[acceptance] criterion {num} ({name}): {status}{suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def test_criterion_1_equation_counts():
    family_cc.cache_clear()
    derive.cache_clear()
    t0 = time.time()
    ok = True
    for m in range(1, 4):
        for n in range(1, 4):
            dg = determinedness_report(derive("ratgp", m, n))
            ok &= (dg.equations, dg.unknowns, dg.verdict) == (
                2 * m + 2 * n + 1, 2 * m + 2 * n + 2, "underdetermined",
            )
            dr = determinedness_report(derive("rat", m, n))
            ok &= (dr.equations, dr.unknowns, dr.verdict) == (
                2 * (m + n), 2 * (m + n), "determined",
            )
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    _line(1, "equation-count reproduction", ok, f"{elapsed:.1f}s for m,n<=3")


def test_criterion_2_top_coefficient_identity():
    a0, b0 = FieldId("a0"), FieldId("b0")
    expected = JetQuotient(
        jet(a0, (0, 0, 0, 1))
        - jet(b0, (0, 1, 0, 0))
        - jet(b0) * jet(a0, (0, 0, 1, 0))
        + jet(a0) * jet(b0, (0, 0, 1, 0))
    )
    ok = True
    for m in range(1, 4):
        for n in range(1, 4):
            num, den = collect(family_cc("ratgp", m, n))
            ok &= num.degree() == den.degree() == 2 * (m + n)
            ok &= num[num.degree()] == expected
    _line(2, "top-coefficient identity", ok)


def test_criterion_3_general_solution_identity():
    a0e, b0e = potential_solution()
    ok = gauge_residual(a0e, b0e).is_zero()
    _line(3, "general-solution identity (exact zero)", ok)


def test_criterion_4_printed_system_reproduction():
    ok = True
    details = []
    for m, n in ((1, 1), (2, 1)):
        rep = match_printed_system(m, n)
        ok &= rep.verdict in ("pass", "mismatch-reported")
        for line in rep.lines:
            ok &= line.matched == line.eval_matched  # symbolic and 20-point verdicts agree
            if not line.matched:
                ok &= len(line.diff_terms) > 0  # itemized, never suppressed
                details.append(f"({m},{n}) {line.label}: {len(line.diff_terms)} terms differ")
        mismatched = {l.label for l in rep.mismatches()}
        expected_mismatch = {f"(w{j})_y" for j in range(1, n + 1)}
        ok &= mismatched == expected_mismatch
        matched = {l.label for l in rep.lines if l.matched}
        ok &= all(lbl.startswith(("(v", "(a", "(b")) for lbl in matched)
    _line(4, "published-system reproduction", ok, "; ".join(details))


def test_criterion_5_gauge_removal_verification():
    ok = True
    t22 = None
    for m in range(1, 3):
        for n in range(1, 3):
            t0 = time.time()
            rep = verify_gauge_removal(m, n)
            if (m, n) == (2, 2):
                t22 = time.time() - t0
            ok &= "solved" in rep["validated"]
            ok &= rep["maps"]["solved"]["polynomial_part_zero"]
            ok &= rep["maps"]["solved"]["pole_structure_ok"]
            slice_rep = verify_gauge_removal(m, n, q_jet_values=unit_q_z())
            ok &= set(slice_rep["validated"]) == {"printed", "solved"}
            ok &= slice_rep["maps_agree"]
    ok &= t22 is not None and t22 < 120.0
    _line(5, "gauge-removal machine verification", ok, f"(2,2) in {t22:.1f}s")


def test_criterion_6_derivation_path_cross_oracle():
    ok = True
    for family in ("poly", "rat", "ratgp"):
        for m in range(1, 4):
            for n in range(1, 4):
                lax = make_family(family, m, n)
                ok &= cc_substitution_path(lax) == cc_bracket_path(lax)
    rng = random.Random(20240612)
    fields = [FieldId(nm) for nm in ("u1", "u2", "v1", "w1")]

    def rand_quot():
        f = fields[rng.randrange(len(fields))]
        c = Fraction(rng.randint(-3, 3)) or Fraction(1)
        e = jet(f) * c
        if rng.random() < 0.4:
            e = e + Fraction(rng.randint(-2, 2))
        return JetQuotient(e)

    def rand_prat():
        r = PRational(PPoly([rand_quot() for _ in range(rng.randint(1, 2))]))
        for _ in range(rng.randint(0, 2)):
            pole = fields[rng.randrange(2, 4)]
            k = rng.randint(1, 2)
            lin = PPoly([JetQuotient(-jet(pole)), JetQuotient(ONE)])
            r = r + PRational(PPoly([rand_quot()]), lin ** k)
        return r

    for _ in range(50):
        lax = make_custom(rand_prat(), rand_prat(), fields)
        a = cc_substitution_path(lax)  # raises if wave jets fail to cancel
        ok &= a == cc_bracket_path(lax)
    _line(6, "derivation-path cross-oracle", ok, "3 families m,n<=3 + 50 random pairs")


def test_criterion_7_evolution_form_solvability():
    ok = True
    for m in range(1, 4):
        for n in range(1, 4):
            ck = ck_transform(derive("rat", m, n))
            ok &= ck.independents == ("X", "Y", "Z", "T")
    _line(7, "evolution-form T-solvability", ok, "rat m,n<=3")


def test_criterion_8_planar_reduction_commutation():
    ok = True
    for family in ("rat", "ratgp"):
        lax = make_family(family, 1, 1)
        sys4 = derive(family, 1, 1)
        _, sys21 = reduce_2plus1(lax)
        red = reduce_system(sys4)
        d4 = dict(zip(red.provenance["p_degrees"], red.equations))
        d21 = dict(zip(sys21.provenance["p_degrees"], sys21.equations))
        ok &= set(d4) == set(d21)
        ok &= all(d4[k] == d21[k] for k in d4)
    _line(8, "planar reduction commutation (exact)", ok)


def test_criterion_9_numeric_verification():
    t0 = time.time()
    cs = compile_system(ck_transform(derive("rat", 1, 1, form="residues")))
    ok = True
    details = []

    grid = Grid((16, 16, 16))
    state = {
        "v1": np.full(grid.shape, -1.0), "w1": np.full(grid.shape, 1.0),
        "a1": np.full(grid.shape, 1.0), "b1": np.full(grid.shape, 0.5),
    }
    traj = integrate(cs, grid, state, 100, 0.01, monitor_every=50)
    drift = max(float(np.max(np.abs(traj.snapshots[-1][u] - state[u]))) for u in cs.unknowns)
    ok &= drift <= 1e-13
    details.append(f"drift={drift:.1e}")

    exact = {
        "v1": HarmonicField(-1.0, (Mode((1, 0, 1), 0.05, 0.3, TP * 0.7),)),
        "w1": HarmonicField(1.0, (Mode((0, 1, 1), 0.05, 1.1, TP * 0.5),)),
        "a1": HarmonicField(1.0, (Mode((1, 1, 0), 0.05, 2.0, TP * 0.6),)),
        "b1": HarmonicField(0.7, (Mode((1, 0, 0), 0.05, 0.9, TP * 0.8),)),
    }
    rep = manufactured_test(cs, exact, t_final=0.2, temporal_grid=16,
                            temporal_dts=(0.04, 0.02, 0.01, 0.005),
                            spatial_grids=(16, 32), spatial_dt=0.002)
    ok &= all(3.5 <= o <= 4.5 for o in rep.temporal_orders)
    ok &= all(1.5 <= o <= 2.5 for o in rep.spatial_orders)
    details.append(f"temporal orders={['%.2f' % o for o in rep.temporal_orders]}")
    details.append(f"spatial orders={['%.2f' % o for o in rep.spatial_orders]}")

    init = {
        "v1": HarmonicField(-1.0, (Mode((1, 0, 1), 0.1, 0.3),)),
        "w1": HarmonicField(1.0, (Mode((0, 1, 1), 0.1, 1.1),)),
        "a1": HarmonicField(1.0, (Mode((1, 1, 0), 0.1, 2.0),)),
        "b1": HarmonicField(0.7, (Mode((1, 0, 0), 0.1, 0.9),)),
    }
    res = residual_refinement_study(cs, init, levels=((8, 0.02), (16, 0.01), (32, 0.005)))
    ok &= all(a > b for a, b in zip(res, res[1:]))
    details.append(f"residuals={['%.2e' % r for r in res]}")

    elapsed = time.time() - t0
    ok &= elapsed < 600.0
    details.append(f"{elapsed:.0f}s")
    _line(9, "numeric verification", ok, "; ".join(details))


def _suite_commuting(rng):
    e = from_tree(random_tree(rng))
    d1, d2 = rng.choice("xyzt"), rng.choice("xyzt")
    return total_derivative(total_derivative(e, d1), d2) == total_derivative(
        total_derivative(e, d2), d1
    )


def _suite_leibniz(rng):
    e1, e2 = from_tree(random_tree(rng, depth=2)), from_tree(random_tree(rng, depth=2))
    d = rng.choice("xyzt")
    return total_derivative(e1 * e2, d) == total_derivative(e1, d) * e2 + e1 * total_derivative(e2, d)


def _suite_idempotent(rng):
    e = from_tree(random_tree(rng))
    return from_tree(to_tree(e)) == e


def _suite_eval_hom(rng):
    t1, t2 = random_tree(rng, depth=2), random_tree(rng, depth=2)
    e1, e2 = from_tree(t1), from_tree(t2)
    pt = {}
    for e in (e1, e2, e1 * e2, e1 + e2):
        for jv in e.jet_variables():
            pt.setdefault(jv, Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    return (
        evaluate(e1 * e2, pt) == evaluate(e1, pt) * evaluate(e2, pt)
        and evaluate(e1 + e2, pt) == evaluate(e1, pt) + evaluate(e2, pt)
    )


def _suite_json_roundtrip(rng):
    e = from_tree(random_tree(rng))
    emitted = to_tree(e)
    return from_tree(emitted) == e and json.dumps(to_tree(from_tree(emitted))) == json.dumps(emitted)


def test_criterion_10_cas_property_suites():
    suites = {
        "commuting total derivatives": _suite_commuting,
        "Leibniz": _suite_leibniz,
        "normalization idempotence": _suite_idempotent,
        "eval homomorphism": _suite_eval_hom,
        "JSON round-trip": _suite_json_roundtrip,
    }
    ok = True
    counts = []
    for name, fn in suites.items():
        rng = random.Random(zlib.crc32(name.encode()) & 0xFFFF)
        failures = sum(0 if fn(rng) else 1 for _ in range(1000))
        ok &= failures == 0
        counts.append(f"{name}: 1000 cases, {failures} failures")
    _line(10, "CAS property suites", ok, "; ".join(counts))
