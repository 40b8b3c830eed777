import os
import pickle
import random
import subprocess
import sys as _sys
from collections import Counter
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest

from contactlax import cli, compat, jetalg
from contactlax.compat import (
    CK_INDEPENDENTS,
    XYZT,
    DerivationError,
    Determinedness,
    TransformDegenerateError,
    PDESystem,
    bracket_mod,
    cc_bracket_path,
    cc_substitution_path,
    ck_transform,
    compatibility_condition,
    derive,
    determinedness_report,
    extract_system,
    family_cc,
    match_printed_system,
    reduce_2plus1,
    reduce_system,
    t_jet_split,
    t_solvability_witness,
    _compare_as_equations,
    _det_mod,
)
from contactlax.jetalg import (
    ONE,
    P,
    PRIME,
    ZERO,
    FieldId,
    JetQuotient,
    JetVariable,
    StructureError,
    divide_exact,
    jet,
    p_coefficients,
    substitute,
    total_derivative_q,
)
from contactlax.laxfamilies import make_custom, make_family, make_ratgp
from contactlax.sampling import pole_pairs_for
from conftest import evaluate, from_p_coeffs, p, poly_div_exact, prational_sum, random_rational, rational_point, residue_oracle


def test_cc_single_field_no_p():
    vf = FieldId("v")
    F = JetQuotient(jet(vf))
    cc = compatibility_condition(make_custom(F, F, [vf]))
    expected = jet(vf, (0, 0, 0, 1)) - jet(vf, (0, 1, 0, 0))
    assert cc == JetQuotient(expected)


def test_cc_constants_vanish():
    F = JetQuotient(Fraction(3, 2))
    G = JetQuotient(-2)
    assert compatibility_condition(make_custom(F, G, [])).is_zero()


def test_cc_empty_system_from_zero():
    F = JetQuotient(1)
    lax = make_custom(F, F, [])
    sys = extract_system(compatibility_condition(lax), lax)
    assert sys.equations == ()


def test_top_coefficient_of_general_position_cc():
    cc = family_cc("ratgp", 1, 1)
    num, den = p_coefficients(cc)
    a0, b0 = FieldId("a0"), FieldId("b0")
    expected = (
        jet(a0, (0, 0, 0, 1))
        - jet(b0, (0, 1, 0, 0))
        - jet(b0) * jet(a0, (0, 0, 1, 0))
        + jet(a0) * jet(b0, (0, 0, 1, 0))
    )
    assert len(num) == len(den) == 5
    assert num[4] == expected


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_counts(m, n):
    assert determinedness_report(derive("rat", m, n)) == Determinedness(
        2 * (m + n), 2 * (m + n), "determined"
    )
    assert determinedness_report(derive("ratgp", m, n)) == Determinedness(
        2 * m + 2 * n + 1, 2 * m + 2 * n + 2, "underdetermined"
    )
    assert determinedness_report(derive("poly", m, n)) == Determinedness(
        m + n + 1, m + n + 1, "determined"
    )


def test_dropped_top_coefficients_are_recorded():
    sysp = derive("poly", 2, 1)
    assert sysp.provenance["dropped_zero_coefficients"] == (4,)
    sysr = derive("rat", 1, 1)
    assert sysr.provenance["dropped_zero_coefficients"] == (4,)
    sysg = derive("ratgp", 1, 1)
    assert sysg.provenance["dropped_zero_coefficients"] == ()


def test_paths_agree_on_small_families():
    for family in ("poly", "rat", "ratgp"):
        for m, n in ((1, 1), (2, 1), (1, 2)):
            lax = make_family(family, m, n)
            a = cc_substitution_path(lax)
            b = cc_bracket_path(lax)
            assert a == b, (family, m, n)


def test_equations_vanish_on_constant_solutions(rng):
    # constants solve every derived system: each term carries a jet
    sys = derive("rat", 1, 1)
    jvs = set()
    for eq in sys.equations:
        jvs |= set(eq.num.jet_variables()) | set(eq.den.jet_variables())
    pt = {}
    for jv in jvs:
        pt[jv] = Fraction(0) if sum(jv.d) else Fraction(rng.randint(1, 5))
    pt[JetVariable(FieldId("w1"))] = Fraction(7)  # keep poles apart
    for eq in sys.equations:
        assert evaluate(eq, pt) == 0


def test_residue_system_shape():
    rs = derive("rat", 1, 1, form="residues")
    assert rs.provenance["labels"] == ("v1:2", "w1:2", "v1:1", "w1:1")
    assert len(rs.equations) == 4
    rsg = derive("ratgp", 1, 1, form="residues")
    assert rsg.provenance["labels"][0] == "constant"
    assert len(rsg.equations) == 5


def test_residue_system_reads_only_the_pole_record():
    # the rows and their spot check come from lax.pole_data alone: with
    # F and G zeroed the system is the same
    lax = make_family("ratgp", 2, 1)
    zeroed = replace(lax, F=JetQuotient(ZERO), G=JetQuotient(ZERO))
    assert compat.residue_system(zeroed).equations == compat.residue_system(lax).equations


@pytest.mark.parametrize("dimension", ["3+1", "2+1"])
@pytest.mark.parametrize("family", ["rat", "ratgp"])
def test_residue_form_builds_no_p_function(monkeypatch, family, dimension):
    # once the pair is built, the rows come from the jets of its pole
    # record alone: no substitution for p, and no p-coefficient read
    lax = replace(make_family(family, 2, 2), dimension=dimension)

    def refuse(*_):
        raise AssertionError("the residue form built a p-function")

    for module, name in ((compat, "wave_form"), (compat, "p_form"), (compat, "p_coefficients"),
                         (jetalg, "p_coefficients")):
        monkeypatch.setattr(module, name, refuse)
    rs = compat.residue_system(lax)
    assert len(rs.equations) == 8 + (family == "ratgp")


@pytest.mark.parametrize("dimension", ["3+1", "2+1"])
@pytest.mark.parametrize("family", ["rat", "ratgp"])
@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_residue_system_matches_the_global_partial_fraction(family, m, n, dimension):
    # the planar bracket has no z-terms, and the formulas drop them too
    lax = replace(make_family(family, m, n), dimension=dimension)
    cc = compatibility_condition(lax)
    rs = compat.residue_system(lax)
    want = residue_oracle(cc, lax)
    assert rs.provenance["labels"] == tuple(label for label, _ in want)
    for eq, (label, w) in zip(rs.equations, want):
        assert dict(eq.num.terms) == dict(w.num.terms) and dict(eq.den.terms) == dict(w.den.terms), label


@pytest.mark.parametrize("dimension", ["3+1", "2+1"])
@pytest.mark.parametrize("family", ["rat", "ratgp"])
def test_residue_rows_come_out_in_lowest_terms(family, dimension):
    # past the oracle's m, n <= 2: no pole difference divides both sides of
    # a row, and its denominator is a product of pole differences alone (up
    # to the sign that makes it monic, whose leading term reads jet ids)
    lax = replace(make_family(family, 3, 3), dimension=dimension)
    rs = compat.residue_system(lax)
    vs, ws = lax.pole_fields()
    diffs = [jet(a.field) - jet(b.field) for a, b in pole_pairs_for((*vs, *ws))]
    for label, eq in zip(rs.provenance["labels"], rs.equations):
        den = eq.den
        for d in diffs:
            assert divide_exact(eq.num, d) is None or divide_exact(eq.den, d) is None, (label, d)
            while (q := divide_exact(den, d)) is not None:
                den = q
        assert den in (ONE, -ONE), label


@pytest.mark.parametrize("dimension", ["3+1", "2+1"])
@pytest.mark.parametrize("family", ["rat", "ratgp"])
@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_bracket_mod_matches_the_exact_bracket(rng, family, m, n, dimension):
    # exact evaluation of cc_bracket_path at small rational points, then
    # reduction mod PRIME, a ring map that commutes with evaluation
    lax = replace(make_family(family, m, n), dimension=dimension)
    cc = cc_bracket_path(lax)
    units = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    jvs = {JetVariable(f, d) for f in lax.fields for d in units}
    vs, ws = lax.pole_fields()
    poles = [JetVariable(f) for f in (*vs, *ws)]

    def mod(r: Fraction) -> int:
        return r.numerator * pow(r.denominator, -1, PRIME) % PRIME

    for _ in range(3):
        pt = rational_point(jvs, rng, pole_pairs=pole_pairs_for((*vs, *ws)))
        pval = random_rational(rng)
        while any(abs(pval - pt[v]) < Fraction(1, 10) for v in poles):
            pval = random_rational(rng)
        want = evaluate(cc, {**pt, P: pval})
        assert bracket_mod(lax, {jv: mod(x) for jv, x in pt.items()}, mod(pval)) == mod(want)


@pytest.mark.parametrize("family,side,order,size", [
    pytest.param(family, side, order, size, id=f"{order}-{label}{suffix}{'' if size == 1 else f'-{size}x{size}'}")
    for size in (1, 3)
    for family, suffix in (("rat", ""), ("ratgp", "-constant")) for side, label in (("v", "F-pole"), ("w", "G-pole"))
    for order in (1, 2)
])
def test_a_flipped_laurent_sign_fails_the_derivation(monkeypatch, capsys, family, side, order, size):
    # one order of one summand's term at one pole of a side flips sign
    # (rat: a pole's term; ratgp: the constant's term): the rows must fail
    # their random-point check against the bracket, exit 1, also at (3,3),
    # where every row has several summands
    real, flipped = compat._two_pole_terms, []

    def flip(a, v, b, w=None):
        out = real(a, v, b, w)
        pole = v[0].jet_variables()[0]
        if not flipped and pole.field.name[0] == side and (w is None) == (family == "ratgp"):
            flipped.append(pole)
            out = tuple(-r if k == order - 1 else r for k, r in enumerate(out))
        return out

    monkeypatch.setattr(compat, "_two_pole_terms", flip)
    compat.derive.cache_clear()
    assert cli.main(["derive", "--family", family, "-m", str(size), "-n", str(size), "--form", "residues"]) == 1
    assert capsys.readouterr().err.startswith("verification failure:")
    assert len(flipped) == 1


def _rows(family, m, n, dimension="3+1"):
    rs = compat.residue_system(replace(make_family(family, m, n), dimension=dimension))
    return dict(zip(rs.provenance["labels"], rs.equations))


@pytest.mark.parametrize("dimension", ["3+1", "2+1"])
def test_residue_rows_are_sums_of_one_two_pole_term(dimension):
    # The paper's shape for any pair: the row of a pole is its
    # bracket-free part plus one term per summand of the other side.  The
    # term of a pole pair is read off rat (1,1), the term of a constant
    # summand off ratgp (1,1) minus rat (1,1); renaming their fields (and
    # with them every derivative jet) instantiates them at any pole.
    rat, gp = _rows("rat", 1, 1, dimension), _rows("ratgp", 1, 1, dimension)

    def field(name):
        return JetQuotient(jet(FieldId(name)))

    def free(res, pole, order):
        # A_t and A P_t at a pole of F; -(B_y) and -(B W_y) at a pole of G
        d, sign = ("t", 1) if pole[0] == "v" else ("y", -1)
        a = field(res)
        return sign * (total_derivative_q(a, d) if order == 1 else a * total_derivative_q(field(pole), d))

    def renamed(q, names):
        return substitute(q, {JetVariable(FieldId(k)): jet(FieldId(v)) for k, v in names.items()})

    kernel = {(pole, order): rat[f"{pole}1:{order}"] - free(f"{res}1", f"{pole}1", order)
              for res, pole in (("a", "v"), ("b", "w")) for order in (1, 2)}
    constant = {(pole, order): gp[f"{pole}1:{order}"] - rat[f"{pole}1:{order}"] for pole in "vw" for order in (1, 2)}
    for family in ("rat", "ratgp"):
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                rows = _rows(family, m, n, dimension)
                if family == "ratgp":
                    assert rows.pop("constant") == gp["constant"]
                # a pole's residue letter, and the other side's residue and pole letters and count
                sides = {"v": ("a", "b", "w", n), "w": ("b", "a", "v", m)}
                for label, row in rows.items():
                    pole, i, order = label[0], label[1:-2], int(label[-1])
                    res, other_res, other_pole, k = sides[pole]
                    own = {f"{res}1": f"{res}{i}", f"{pole}1": f"{pole}{i}"}
                    want = free(f"{res}{i}", f"{pole}{i}", order)
                    for j in range(1, k + 1):
                        pair = {**own, f"{other_res}1": f"{other_res}{j}", f"{other_pole}1": f"{other_pole}{j}"}
                        want = want + renamed(kernel[pole, order], pair)
                    if family == "ratgp":
                        want = want + renamed(constant[pole, order], own)
                    assert row == want, (family, m, n, label)


@pytest.mark.parametrize("family", ["rat", "ratgp"])
def test_recorded_terms_sum_to_their_equations(monkeypatch, family):
    # per equation: the G-free part and one term per summand of the other
    # side, or the constant row's four addends; their sum is the equation
    # exactly, in (x, y, z, t), after ck_transform and through a pickle
    if family == "ratgp":  # underdetermined: transformed without the T-witness
        monkeypatch.setattr(compat, "t_solvability_witness", lambda sys: None)
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            sys = derive(family, m, n, form="residues")
            ck = ck_transform(sys)
            back = pickle.loads(pickle.dumps(ck))
            assert "equations" not in back.__dict__  # the pickle holds the terms, not their sums
            summands = {"v": n + (family == "ratgp"), "w": m + (family == "ratgp")}
            for s in (sys, ck, back):
                for label, eq, terms in zip(s.provenance["labels"], s.equations, s.terms, strict=True):
                    assert len(terms) == (4 if label == "constant" else 1 + summands[label[0]])
                    assert sum(terms[1:], terms[0]) == eq, (family, m, n, label)
            original = back.provenance["original_system"].terms
            assert all(a == b for ts, us in zip(original, sys.terms, strict=True) for a, b in zip(ts, us, strict=True))
    reduced = reduce_system(derive(family, 1, 1, form="residues"))
    assert reduced.terms == tuple((eq,) for eq in reduced.equations)


def test_t_jets_of_one_equation_share_a_denominator():
    # terms u_t / w and u_x / (w + 1): the denominator w cancels from the
    # solve, and scales the T-free term
    u, w = FieldId("u"), FieldId("w")
    u_t, w_t, u_x = jet(u, (0, 0, 0, 1)), jet(w, (0, 0, 0, 1)), jet(u, (1, 0, 0, 0))

    def system(*terms):
        return PDESystem((u, w), CK_INDEPENDENTS, (terms, (JetQuotient(w_t + jet(u)),)), {})

    rows, rests = t_jet_split(system(JetQuotient(u_t, jet(w)), JetQuotient(u_x, jet(w) + 1)))
    assert rows[0] == [ONE, ZERO] and rests[0] == [JetQuotient(ZERO), JetQuotient(jet(w) * u_x, jet(w) + 1)]
    for second, message in ((JetQuotient(w_t, jet(w) + 1), "different denominators"),
                            (JetQuotient(jet(u), w_t + 1), "T-jet inside a denominator")):
        with pytest.raises(TransformDegenerateError, match=message):
            t_jet_split(system(JetQuotient(u_t, jet(w)), second))


def test_cached_provenance_is_read_only():
    sys = derive("rat", 1, 1)
    before = dict(sys.provenance)
    with pytest.raises(TypeError):
        sys.provenance["family"] = "poly"
    with pytest.raises(TypeError):
        del sys.provenance["p_degrees"]
    assert derive("rat", 1, 1) is sys
    assert dict(derive("rat", 1, 1).provenance) == before
    assert derive("rat", 1, 1).provenance["family"] == "rat"


def test_cached_expressions_are_read_only():
    eq = derive("rat", 1, 1).equations[0]
    terms = dict(eq.num.terms)
    with pytest.raises(AttributeError):
        eq.num.terms.clear()
    with pytest.raises(TypeError):
        eq.num.terms[()] = 1
    for obj, name in ((eq, "num"), (eq, "den"), (eq.num, "terms")):
        with pytest.raises(AttributeError):
            setattr(obj, name, ONE)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    cc = family_cc("rat", 1, 1)
    for obj, name in ((cc, "num"), (cc, "den"), (cc, "pf"), (cc.num, "coeffs")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
    assert dict(derive("rat", 1, 1).equations[0].num.terms) == terms
    assert pickle.loads(pickle.dumps(cc)) == cc


def test_summed_equations_are_cached_and_read_only():
    sys = derive("rat", 1, 1, form="residues")
    eqs = sys.equations
    assert sys.equations is eqs and derive("rat", 1, 1, form="residues").equations is eqs
    for name in ("equations", "terms"):
        with pytest.raises(FrozenInstanceError):
            setattr(sys, name, ())
        with pytest.raises(FrozenInstanceError):
            delattr(sys, name)
    assert sys.equations is eqs and sys.equations == tuple(sum(ts[1:], ts[0]) for ts in sys.terms)


def test_poly_family_has_no_pole_fields():
    assert make_family("poly", 2, 1).pole_fields() == ((), ())
    assert derive("poly", 2, 1).provenance["pole_fields"] == ((), ())
    vs, ws = make_family("rat", 2, 1).pole_fields()
    assert [f.name for f in vs] == ["v1", "v2"] and [f.name for f in ws] == ["w1"]
    with pytest.raises(TransformDegenerateError, match="singular at the witness point"):
        ck_transform(derive("poly", 2, 1))


def test_provenance_copied_from_caller_dict():
    prov = {"family": "custom"}
    sys = PDESystem((), ("x", "y", "z", "t"), (), prov)
    prov["family"] = "changed"
    assert sys.provenance["family"] == "custom"


def test_pdesystem_pickles_with_read_only_provenance():
    sys = ck_transform(derive("rat", 1, 1, form="residues"))
    back = pickle.loads(pickle.dumps(sys))
    assert back == sys
    assert back.provenance["original_system"] == sys.provenance["original_system"]
    with pytest.raises(TypeError):
        back.provenance["path"] = "changed"


# Builds the same values in a fresh process, interning the jets of pa
# and pb in the order given by FIRST.
_PICKLE_VALUES = """
import pickle, sys
from contactlax.compat import XYZT, PDESystem
from contactlax.jetalg import FieldId, JetQuotient, P, jet
pa, pb = FieldId("pa"), FieldId("pb")
jets = {f: jet(f) for f in (FIRST, pb if FIRST == pa else pa)}
a, b = jets[pa], jets[pb]
values = (
    a + 2 * b,
    JetQuotient(a * b + 3 * b, a - b),
    JetQuotient(a + 2 * a * b * jet(P.field), b - jet(P.field)),
    PDESystem((pa, pb), XYZT, ((JetQuotient(jet(pa, (1, 0, 0, 0)) + 2 * a * b, b),),), {}),
)
"""


def _in_fresh_process(first: str, code: str, stdin: bytes = b"") -> bytes:
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    script = _PICKLE_VALUES.replace("FIRST", first) + code
    return subprocess.run([_sys.executable, "-c", script], input=stdin, env=env, capture_output=True,
                          check=True, timeout=60).stdout


def test_pickles_keep_their_meaning_across_processes():
    # `a + 2*b` pickled where a was interned first must not load as
    # `2*a + b` where b was
    data = _in_fresh_process("pa", "sys.stdout.buffer.write(pickle.dumps(values))")
    out = _in_fresh_process("pb", "print([x == y for x, y in zip(pickle.loads(sys.stdin.buffer.read()), values)])",
                            data)
    assert out.decode().strip() == "[True, True, True, True]"


def test_ck_jet_mapping():
    sys = derive("rat", 1, 1)
    ck = ck_transform(sys)
    assert ck.independents == ("X", "Y", "Z", "T")
    v1 = FieldId("v1")
    t_jet, y_jet = JetVariable(v1, (0, 0, 0, 1)), JetVariable(v1, (0, 1, 0, 0))
    seen = set()
    for eq in ck.equations:
        seen |= set(eq.num.jet_variables())
    assert t_jet in seen and y_jet in seen
    # x/z jets pass through untouched
    for eq, orig in zip(ck.equations, sys.equations):
        transformed = set(eq.num.jet_variables())
        for jv in orig.num.jet_variables():
            if jv.d[1] == jv.d[3] == 0:
                assert jv in transformed


def test_ck_requires_xyzt():
    sys = derive("rat", 1, 1)
    ck = ck_transform(sys)
    from contactlax.jetalg import StructureError

    with pytest.raises(StructureError):
        ck_transform(ck)


def test_ck_degenerate_matrix_detected():
    v1, w1 = FieldId("v1"), FieldId("w1")
    e1 = JetQuotient(jet(v1, (0, 1, 0, 0)) + jet(w1, (0, 0, 0, 1)))
    e2 = JetQuotient(jet(v1, (0, 0, 0, 1)) + jet(w1, (0, 1, 0, 0)))
    sys = PDESystem((v1, w1), ("x", "y", "z", "t"), ((e1,), (e2,)), {})
    # y+t and t+y both map to 2*T: the T-jet matrix is all ones
    with pytest.raises(TransformDegenerateError):
        ck_transform(sys)


def _fraction_det(mat):
    m = [[Fraction(x) for x in row] for row in mat]
    n, det = len(m), Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def test_det_mod_matches_fraction_determinant():
    rng = random.Random(1980)
    for size in range(1, 6):
        for i in range(20):
            bound = 9 if i % 2 else PRIME
            mat = [[rng.randint(-bound, bound) for _ in range(size)] for _ in range(size)]
            if size > 1 and i % 5 == 0:
                mat[-1] = [3 * x for x in mat[0]]
            exact = _fraction_det(mat)
            det, pivots = _det_mod([[x % PRIME for x in row] for row in mat])
            assert det == exact.numerator % PRIME
            assert sorted(pivots) == (list(range(size)) if det else [])


def test_t_solvability_witness_singular_and_regular():
    u1, u2 = FieldId("u1"), FieldId("u2")
    t1, t2 = jet(u1, (0, 0, 0, 1)), jet(u2, (0, 0, 0, 1))
    u2x = jet(u2, (1, 0, 0, 0))
    first = jet(u1) * t1 + u2x * t2
    # the second T-row is u2_X times the first
    singular = (JetQuotient(first), JetQuotient(u2x * first + jet(u1)))
    sys = PDESystem((u1, u2), CK_INDEPENDENTS, [(q,) for q in singular], {})
    with pytest.raises(TransformDegenerateError):
        t_solvability_witness(sys)
    # det = u1^2 - u2_X
    regular = (JetQuotient(first), JetQuotient(jet(u1) * t2 + t1))
    det, _ = t_solvability_witness(PDESystem((u1, u2), CK_INDEPENDENTS, [(q,) for q in regular], {}))
    assert 0 < det < PRIME


def test_t_solvability_witness_samples_y_jets():
    # rows (w_Y, 1) and (1, 0): the witness must sample the Y-jet w_Y
    u, w = FieldId("u"), FieldId("w")
    u_t, w_t, w_y = jet(u, (0, 0, 0, 1)), jet(w, (0, 0, 0, 1)), jet(w, (0, 1, 0, 0))
    eqs = (JetQuotient(w_y * u_t + w_t), JetQuotient(u_t + jet(u)))
    det, pivots = t_solvability_witness(PDESystem((u, w), CK_INDEPENDENTS, [(q,) for q in eqs], {}))
    assert det == PRIME - 1 and pivots == (0, 1)


def test_t_solvability_witness_rejects_t_jets_in_rows():
    u, w = FieldId("u"), FieldId("w")
    u_t, w_t = jet(u, (0, 0, 0, 1)), jet(w, (0, 0, 0, 1))
    eqs = (JetQuotient(u_t * w_t + jet(u)), JetQuotient(w_t + jet(w)))
    with pytest.raises(TransformDegenerateError, match="contains the T-jet"):
        t_solvability_witness(PDESystem((u, w), CK_INDEPENDENTS, [(q,) for q in eqs], {}))
    # w_y u_t + w_t in (x, y, z, t): the u_T coefficient becomes w_T + w_Y
    w_y = jet(w, (0, 1, 0, 0))
    eqs = (JetQuotient(w_y * u_t + w_t), JetQuotient(u_t + jet(u)))
    with pytest.raises(TransformDegenerateError, match="contains the T-jet"):
        ck_transform(PDESystem((u, w), XYZT, [(q,) for q in eqs], {}))


def test_t_jet_split_names_the_first_t_jet_of_a_nonlinear_term():
    # as a split by one T-jet after the other would: a term belongs to
    # its first T-jet, which must appear to the first power
    u, w = FieldId("u"), FieldId("w")
    u_t, w_t = jet(u, (0, 0, 0, 1)), jet(w, (0, 0, 0, 1))
    for num, message in ((w_t * w_t + u_t * u_t, "not linear in u_t"),
                         (u_t * w_t * w_t + u_t, "contains the T-jet w_t"),
                         (w_t * w_t + u_t, "not linear in w_t")):
        eqs = (JetQuotient(num), JetQuotient(w_t + jet(w)))
        with pytest.raises(TransformDegenerateError, match=message):
            t_jet_split(PDESystem((u, w), CK_INDEPENDENTS, [(q,) for q in eqs], {}))


@pytest.mark.parametrize("family", ["rat", "ratgp"])
def test_cc_shares_no_pole_factor(family):
    # general position: no (p - pole) divides the numerator, so the
    # derivation has nothing to cancel
    for m in (1, 2):
        for n in (1, 2):
            cc = family_cc(family, m, n)
            vs, ws = make_family(family, m, n).pole_fields()
            for pole in (*vs, *ws):
                assert poly_div_exact(cc.num, p - jet(pole)) is None


def test_no_jet_of_p_is_interned(capsys):
    # p is a parameter, which no total derivative bumps: after the derive
    # table, theorem 1 at (3, 3) and the planar check at (2, 2), p is the
    # one parameter-role jet ever interned
    for family in ("poly", "rat", "ratgp"):
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                derive(family, m, n)
    assert cli.main(["verify", "theorem1", "-m", "3", "-n", "3"]) == 0
    assert cli.main(["verify", "reduce21", "-m", "2", "-n", "2"]) == 0
    assert [jv for jv in jetalg._JETS if jv.field.role == jetalg.PARAMETER] == [P]


def test_compatibility_condition_rejects_disagreeing_paths(monkeypatch):
    lax = make_family("rat", 1, 1)
    bracket = compat.cc_bracket_path
    monkeypatch.setattr(compat, "cc_bracket_path", lambda pair: prational_sum(bracket(pair), JetQuotient(p)))
    with pytest.raises(DerivationError):
        compatibility_condition(lax)


@pytest.mark.parametrize("dimension", ["3+1", "2+1"])
@pytest.mark.parametrize("family", ["rat", "ratgp"])
def test_each_bracket_term_is_checked(family, dimension, monkeypatch):
    # a sign slip in any one term of the bracket is a disagreement
    lax = replace(make_family(family, 1, 1), dimension=dimension)
    terms, den = compat._bracket_terms(lax)
    assert len(terms) == (6 if dimension == "3+1" else 4)
    compatibility_condition(lax)
    for k in range(len(terms)):
        flipped = [(-a, b) if i == k else (a, b) for i, (a, b) in enumerate(terms)]
        monkeypatch.setattr(compat, "_bracket_terms", lambda pair, flipped=flipped: (flipped, den))
        with pytest.raises(DerivationError):
            compatibility_condition(lax)


@pytest.mark.parametrize("family", ["rat", "ratgp"])
def test_reduction_commutes(family):
    lax = make_family(family, 1, 1)
    sys4 = derive(family, 1, 1)
    _, sys21 = reduce_2plus1(lax)
    red = reduce_system(sys4)
    d4 = dict(zip(red.provenance["p_degrees"], red.equations))
    d21 = dict(zip(sys21.provenance["p_degrees"], sys21.equations))
    assert set(d4) == set(d21)
    for k in d4:
        assert d4[k] == d21[k]


def test_reduce_is_identity_without_z_jets():
    v1 = FieldId("v1")
    eq = JetQuotient(jet(v1, (0, 0, 0, 1)) - jet(v1, (1, 0, 0, 0)))
    sys = PDESystem((v1,), ("x", "y", "z", "t"), ((eq,),), {"p_degrees": (0,)})
    red = reduce_system(sys)
    assert red.equations == (eq,)
    assert red.independents == ("x", "y", "t")


def test_reduced_pair_is_planar():
    lax21, sys21 = reduce_2plus1(make_ratgp(1, 1))
    assert lax21.dimension == "2+1"
    assert sys21.independents == ("x", "y", "t")
    from contactlax.latexout import laxpair_latex

    tex = laxpair_latex(lax21)
    assert "\\psi_x" in tex and "\\psi_z" not in tex


def test_match_printed_system_adjudication():
    rep = match_printed_system(1, 1)
    assert rep.verdict == "mismatch-reported"
    by_label = {l.label: l for l in rep.lines}
    assert by_label["(v1)_t"].matched
    assert by_label["(a1)_t"].matched
    assert by_label["(b1)_y"].matched
    line2 = by_label["(w1)_y"]
    assert not line2.matched and not line2.eval_matched
    assert line2.diff_terms  # itemized, not suppressed
    assert all("a1_z" in t for t in line2.diff_terms)


def test_match_printed_system_2_1():
    rep = match_printed_system(2, 1)
    assert rep.verdict == "mismatch-reported"
    mismatched = [l.label for l in rep.lines if not l.matched]
    assert mismatched == ["(w1)_y"]


def _rls_comparison(q_derived, q_printed, m=1, n=1):
    # the comparison `verify rls` runs, at the rat (m, n) pole pairs
    vs, ws = make_family("rat", m, n).pole_fields()
    return _compare_as_equations(q_derived, q_printed, random.Random(1189), pole_pairs_for((*vs, *ws)))


def test_self_comparison_matches():
    rs = derive("rat", 1, 1, form="residues")
    for eq in rs.equations:
        assert _rls_comparison(eq, eq) == (True, True, ())


def _check_corrected_line2(m):
    # the printed (w1)_y line of rat (m, 1) with v_j replaced by w1 in each
    # pole's term agrees with the machine residue, confirming the index typo
    rs = derive("rat", m, 1, form="residues")
    derived = dict(zip(rs.provenance["labels"], rs.equations))["w1:2"]
    w1, w1_z = jet(FieldId("w1")), jet(FieldId("w1"), (0, 0, 1, 0))
    corrected = JetQuotient(jet(FieldId("w1"), (0, 1, 0, 0)))
    for k in range(1, m + 1):
        a, wv = jet(FieldId(f"a{k}")), w1 - jet(FieldId(f"v{k}"))
        corrected = corrected - (
            total_derivative_q(JetQuotient(a, wv), "x")
            - total_derivative_q(JetQuotient(a * w1, wv), "z")
            + JetQuotient(2 * a * w1_z, wv)
        )
    matched, eval_matched, diff_terms = _rls_comparison(derived, corrected, m, 1)
    assert matched and eval_matched and diff_terms == ()
    # one extra a_m_z/(w1 - v_m) term: both verdicts see the difference
    perturbed = corrected + JetQuotient(jet(FieldId(f"a{m}"), (0, 0, 1, 0)), w1 - jet(FieldId(f"v{m}")))
    matched, eval_matched, diff_terms = _rls_comparison(derived, perturbed, m, 1)
    assert not matched and not eval_matched and diff_terms


def test_corrected_line2_matches_derivation():
    _check_corrected_line2(1)


def test_corrected_line2_matches_derivation_2_1():
    _check_corrected_line2(2)


def test_rls_itemization_does_not_depend_on_interning_order():
    # The residue path interns its jets in another order than the
    # compatibility condition does: building the condition first must not
    # change a byte.  Jets interned in reverse canonical order still
    # reorder the printed factors and terms (the term order follows jet
    # ids), but itemize the same terms with the same signs.
    src = os.path.dirname(os.path.dirname(os.path.abspath(compat.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "0"}
    units = [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0)]
    preludes = (
        "",
        "from contactlax.compat import family_cc\nfamily_cc('rat', 2, 1)\n",
        "from contactlax.jetalg import FieldId, jet\n"
        f"for name in {['w1', 'b1', 'v2', 'v1', 'a2', 'a1']!r}:\n"
        f"    for d in {units!r}:\n"
        "        jet(FieldId(name), d)\n",
    )
    run = "from contactlax.cli import main\nmain(['verify', 'rls', '-m', '2', '-n', '1', '--diff'])\n"
    plain, cc_first, reverse = (
        subprocess.run([_sys.executable, "-c", pre + run], capture_output=True, text=True, env=env, timeout=120,
                       check=True).stdout
        for pre in preludes
    )
    assert cc_first == plain
    assert "line (w1)_y: mismatch (161 differing terms)" in plain

    def itemized(out):
        terms = Counter()
        for line in out.splitlines():
            if line.startswith("  (w1)_y diff term: "):
                c, _, factors = line.split(": ", 1)[1].partition(" * ")
                terms[Fraction(c), tuple(sorted(factors.strip("{}").split(", ")))] += 1
        return terms

    assert len(itemized(plain)) == 161
    assert itemized(reverse) == itemized(plain)


@pytest.mark.parametrize("leaf", [
    {"op": "jet", "field": "w1", "d": [0, 1]},
    {"op": "jet", "field": "w1", "d": [0, -1, 0, 0]},
    {"op": "num", "value": "1/0"},
], ids=["short-multi-index", "negative-multi-index", "zero-denominator-literal"])
def test_transcription_leaves_are_validated_like_the_wire_format(leaf):
    from contactlax.transcriptions import quotient_from_tree

    with pytest.raises(StructureError):
        quotient_from_tree({"op": "add", "args": [{"op": "num", "value": "1"}, leaf]})


def test_random_custom_pairs_dual_path(rng):
    fields = [FieldId(nm) for nm in ("u1", "u2", "v1", "w1")]

    def rand_quot():
        f = fields[rng.randrange(len(fields))]
        c = Fraction(rng.randint(-3, 3)) or Fraction(1)
        e = jet(f) * c
        if rng.random() < 0.4:
            e = e + Fraction(rng.randint(-2, 2))
        return JetQuotient(e)

    def rand_prat():
        r = from_p_coeffs([rand_quot() for _ in range(rng.randint(1, 2))])
        for _ in range(rng.randint(0, 2)):
            pole = fields[rng.randrange(2, 4)]
            k = rng.randint(1, 2)
            lin = p - jet(pole)
            r = prational_sum(r, rand_quot() / lin ** k)
        return r

    for _ in range(10):
        lax = make_custom(rand_prat(), rand_prat(), fields)
        a = cc_substitution_path(lax)
        b = cc_bracket_path(lax)
        assert a == b
