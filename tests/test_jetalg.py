import json
import math
import random
from collections import Counter
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactlax import jetalg
from contactlax.jetalg import (
    _jet_id,
    ONE,
    PRIME,
    CoverageError,
    DiffPoly,
    FieldId,
    JetQuotient,
    JetVariable,
    PoleError,
    StructureError,
    WAVE,
    ZERO,
    content,
    decompose_by_jets,
    divide_exact,
    evaluate_mod,
    evaluate_mod_points,
    from_tree,
    jet,
    jet_sort_key,
    linear_coefficient,
    monomial_gcd,
    primitive,
    strip_monomial,
    substitute,
    to_tree,
    total_derivative,
    total_derivative_q,
    write_tree,
)
from contactlax.sampling import random_point
from conftest import FIELD_NAMES, eval_tree, evaluate, random_tree, tree_oracle

V = FieldId("v")
W = FieldId("w")
v, w = jet(V), jet(W)
vx = jet(V, (1, 0, 0, 0))
V_JV, VX_JV = JetVariable(V), JetVariable(V, (1, 0, 0, 0))


def tree_nodes():
    leaf = st.one_of(
        st.fractions(min_value=-5, max_value=5, max_denominator=6).map(
            lambda f: {"op": "num", "value": str(f)}
        ),
        st.tuples(
            st.sampled_from(FIELD_NAMES),
            st.lists(st.integers(0, 2), min_size=4, max_size=4),
        ).map(lambda t: {"op": "jet", "field": t[0], "d": t[1]}),
    )
    return st.recursive(
        leaf,
        lambda ch: st.one_of(
            st.lists(ch, min_size=2, max_size=3).map(lambda a: {"op": "add", "args": a}),
            st.lists(ch, min_size=2, max_size=3).map(lambda a: {"op": "mul", "args": a}),
            st.tuples(ch, st.integers(0, 3)).map(lambda t: {"op": "pow", "base": t[0], "exp": t[1]}),
        ),
        max_leaves=10,
    )


def test_normalize_commutativity():
    assert v * w + w * v == 2 * (v * w)


def test_normalize_cancellation():
    assert (v - v).is_zero()
    assert from_tree({"op": "add", "args": [to_tree(v), to_tree(-v)]}).is_zero()


def test_normalize_expansion():
    assert (v + w) ** 2 == v * v + 2 * v * w + w * w


def test_normalize_rejects_malformed():
    with pytest.raises(StructureError):
        from_tree({"op": "pow", "base": to_tree(v), "exp": -1})
    with pytest.raises(StructureError):
        from_tree({"op": "frobnicate"})
    with pytest.raises(StructureError):
        from_tree({"not": "a node"})


@given(tree_nodes())
@settings(max_examples=200, deadline=None)
def test_normalize_idempotent(t):
    e = from_tree(t)
    assert from_tree(to_tree(e)) == e


def test_total_derivative_jet_bump():
    assert total_derivative(v, "x") == vx


def test_total_derivative_leibniz_example():
    assert total_derivative(v * w, "x") == vx * w + v * jet(W, (1, 0, 0, 0))


def test_quotient_rule_operand_order_and_shortcut():
    wx = jet(W, (1, 0, 0, 0))
    q = total_derivative_q(JetQuotient(v, w), "x")
    assert (q.num, q.den) == (vx * w - v * wx, w * w)
    # a constant denominator keeps its one power
    q = total_derivative_q(JetQuotient(v), "x")
    assert (q.num, q.den) == (vx, ONE)


def test_mixed_partials_example():
    a = jet(FieldId("a"))
    once = total_derivative(total_derivative(a, "x"), "y")
    other = total_derivative(total_derivative(a, "y"), "x")
    assert once == other == jet(FieldId("a"), (1, 1, 0, 0))


@given(tree_nodes(), st.sampled_from("xyzt"), st.sampled_from("xyzt"))
@settings(max_examples=150, deadline=None)
def test_total_derivatives_commute(t, d1, d2):
    e = from_tree(t)
    assert total_derivative(total_derivative(e, d1), d2) == total_derivative(
        total_derivative(e, d2), d1
    )


@given(tree_nodes(), tree_nodes(), st.sampled_from("xyzt"))
@settings(max_examples=150, deadline=None)
def test_leibniz(t1, t2, d):
    e1, e2 = from_tree(t1), from_tree(t2)
    assert total_derivative(e1 * e2, d) == total_derivative(e1, d) * e2 + e1 * total_derivative(e2, d)


def test_substitute_direct_replacement():
    q = FieldId("q")
    qy, qz = jet(q, (0, 1, 0, 0)), jet(q, (0, 0, 1, 0))
    out = substitute(v * qz, {JetVariable(V): JetQuotient(qy, qz)})
    assert out == JetQuotient(qy)


def test_substitute_prolonged_rule():
    psi = FieldId("psi", WAVE)
    rule = {JetVariable(psi, (0, 1, 0, 0)): JetQuotient(jet(psi, (0, 0, 1, 0)) * v)}
    out = substitute(jet(psi, (1, 1, 0, 0)), rule)
    hand = jet(psi, (1, 0, 1, 0)) * v + jet(psi, (0, 0, 1, 0)) * vx
    assert out == JetQuotient(hand)


def test_substitute_identity():
    e = v * w + 3 * v
    assert substitute(e, {}) == JetQuotient(e)


def test_substitute_leaves_lower_jets_alone():
    psi = FieldId("psi", WAVE)
    rule = {JetVariable(psi, (0, 1, 0, 0)): JetQuotient(v)}
    e = jet(psi, (1, 0, 0, 0)) * jet(psi, (0, 1, 0, 0))
    assert substitute(e, rule) == JetQuotient(jet(psi, (1, 0, 0, 0)) * v)


def test_substitute_is_one_simultaneous_pass():
    u = FieldId("u")
    rules = {JetVariable(u): JetQuotient(v), JetVariable(V): JetQuotient(w)}
    assert substitute(jet(u), rules) == JetQuotient(v)


def test_eval_examples():
    pt = {JetVariable(V): Fraction(2), JetVariable(W): Fraction(3)}
    assert evaluate(v * w, pt) == 6
    pt2 = {JetVariable(V): Fraction(2), JetVariable(V, (1, 0, 0, 0)): Fraction(5)}
    assert evaluate(total_derivative(v ** 2, "x"), pt2) == 20


def test_eval_errors():
    with pytest.raises(CoverageError):
        evaluate(v, {})
    with pytest.raises(PoleError):
        evaluate(JetQuotient(v, w), {JetVariable(V): Fraction(1), JetVariable(W): Fraction(0)})


def _reduce(x: Fraction) -> int:
    return x.numerator * pow(x.denominator, -1, PRIME) % PRIME


def test_evaluate_mod_matches_exact_evaluation():
    rng = random.Random(61)
    for i in range(60):
        a, b = from_tree(random_tree(rng)), from_tree(random_tree(rng))
        jvs = set(a.jet_variables()) | set(b.jet_variables())
        if i % 2:
            pt = random_point(jvs, rng)
        else:
            pt = {jv: rng.randint(-9, 9) for jv in sorted(jvs, key=repr)}
        assert evaluate_mod(a, pt) == _reduce(evaluate(a, pt))
        if evaluate(b, pt) != 0:
            q = JetQuotient(a, b)
            assert evaluate_mod(q, pt) == _reduce(evaluate(q, pt))


def test_evaluate_mod_pole_errors():
    # w is a nonzero integer that vanishes mod PRIME
    pt = {JetVariable(V): 3, JetVariable(W): PRIME}
    with pytest.raises(PoleError):
        evaluate_mod(JetQuotient(v, w), pt)
    with pytest.raises(PoleError):
        evaluate_mod(v * Fraction(1, PRIME), pt)
    assert evaluate_mod(v * Fraction(1, 3), pt) == 1
    with pytest.raises(CoverageError):
        evaluate_mod(v, {})


def test_evaluate_mod_points_matches_single_points():
    # several expressions over shared jets, quotients and rational
    # coefficients among them, evaluated together at several points
    rng = random.Random(62)
    for _ in range(30):
        polys = [from_tree(random_tree(rng)) for _ in range(3)]
        exprs = [*polys, Fraction(-5, 7) * polys[0] * polys[1] + v * vx, ZERO]
        exprs += [JetQuotient(a, b) for a, b in zip(polys, polys[1:]) if not b.is_zero()]
        jvs = {jv for e in exprs for jv in e.jet_variables()} | {V_JV, VX_JV}
        pts = [random_point(jvs, rng) for _ in range(rng.randint(1, 4))]
        got = evaluate_mod_points(exprs, pts)
        assert got == [[_reduce(evaluate(e, pt)) for pt in pts] for e in exprs]
        assert got == [evaluate_mod_points([e], pts)[0] for e in exprs]
        assert got == [[evaluate_mod(e, pt) for pt in pts] for e in exprs]
    assert evaluate_mod_points([v, w], []) == [[], []]
    pts = [{JetVariable(V): 3, JetVariable(W): 2}, {JetVariable(V): 3, JetVariable(W): PRIME}]
    # a denominator that vanishes at one point of several, after an
    # expression that filled the table
    with pytest.raises(PoleError):
        evaluate_mod_points([v * w, JetQuotient(v, w)], pts)
    with pytest.raises(PoleError):
        evaluate_mod_points([v, v * Fraction(1, PRIME)], pts)
    # a jet that one point lacks, first met in a later expression
    with pytest.raises(CoverageError):
        evaluate_mod_points([v, v * w], [pts[0], {JetVariable(V): 3}])


def test_eval_of_normalized_matches_tree_oracle():
    rng = random.Random(99)
    for _ in range(100):
        t = random_tree(rng)
        e = from_tree(t)
        pt_raw = {}
        for jv in e.jet_variables():
            pt_raw[(jv.field.name, jv.d)] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))

        def fill(node):
            if node["op"] == "jet":
                key = (node["field"], tuple(node["d"]))
                pt_raw.setdefault(key, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            for ch in node.get("args", []):
                fill(ch)
            if "base" in node:
                fill(node["base"])

        fill(t)
        pt = {JetVariable(FieldId(nm), d): val for (nm, d), val in pt_raw.items()}
        assert evaluate(e, pt) == eval_tree(t, pt_raw)


def test_zero_iff_eval_zero_cross_oracle():
    rng = random.Random(1234)
    for _ in range(60):
        t = random_tree(rng)
        e = from_tree(t)
        results = []
        for _ in range(20):
            pt = {}
            for jv in e.jet_variables() or []:
                pt[jv] = Fraction(rng.randint(-100, 100), rng.randint(1, 100))
            results.append(evaluate(e, pt))
        if e.is_zero():
            assert all(r == 0 for r in results)
        else:
            assert any(r != 0 for r in results)


@given(tree_nodes())
@settings(max_examples=150, deadline=None)
def test_json_roundtrip_bit_exact(t):
    e = from_tree(t)
    emitted = to_tree(e)
    again = to_tree(from_tree(emitted))
    assert json.dumps(emitted) == json.dumps(again)
    assert from_tree(emitted) == e


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_write_tree_matches_dict_oracle(rng, depth):
    """write_tree's text is json.dumps(..., indent=1) of the node-by-node
    dict tree, nested depth levels deep."""
    cases = [
        ZERO, ONE, DiffPoly.const(-3), DiffPoly.const(Fraction(-5, 7)),  # constants
        v, vx ** 3,  # a lone jet, a lone pow
        -v, v * w, Fraction(3, 2) * vx * w ** 2,  # coefficient -1, 1 and other single-term muls
        v + 1, v * w - 2 * vx ** 2 + Fraction(1, 3),
    ]
    cases += [from_tree(random_tree(rng)) for _ in range(60)]
    for e in cases:
        want = json.dumps(tree_oracle(e), indent=1).replace("\n", "\n" + " " * depth)
        assert write_tree(e, depth) == want, e


def _shuffled_jets(rng: random.Random, count: int) -> list:
    """count fresh jets over a few field names (one of them also with the
    WAVE role) and multi-indices, interned in shuffled order."""
    fields = [FieldId(f"ord_{name}") for name in "qbzam"] + [FieldId("ord_q", WAVE)]
    jvs = [JetVariable(f, (i, j, 0, k)) for f in fields for i in range(3) for j in range(3) for k in range(3)]
    jvs = rng.sample(jvs, count)
    for jv in jvs:
        _jet_id(jv)
    return jvs


@pytest.mark.parametrize("field,d", [
    ("bad_str", (0, 0, 0, 0)),
    (FieldId("bad_neg"), (0, -1, 0, 0)),
    (FieldId("bad_short"), (0, 0, 0)),
    (FieldId("bad_float"), (0.5, 0, 0, 0)),
], ids=["str-field", "negative", "three-axes", "float"])
def test_a_rejected_jet_leaves_the_interner_intact(field, d):
    sizes = (len(jetalg._JET_IDS), len(jetalg._JETS), len(jetalg._JET_SORT))
    for _ in range(2):  # rejected again, not half-interned the first time
        with pytest.raises(StructureError):
            jet(field, d)
    assert (len(jetalg._JET_IDS), len(jetalg._JETS), len(jetalg._JET_SORT)) == sizes
    # fresh jets still sort and print by name
    tag = f"after{sizes[0]}_"
    x, y, z, a, b, c = (jet(FieldId(tag + s)) for s in "xyzabc")
    assert repr(x + y + z + a) == " + ".join(tag + s for s in "axyz")
    assert repr(c + b) == f"{tag}b + {tag}c"


def _random_poly(rng: random.Random, jvs: list, nterms: int) -> DiffPoly:
    out = ZERO
    for _ in range(nterms):
        term = DiffPoly.const(Fraction(rng.choice([-3, -1, 1, 1, 2, 5]), rng.choice([1, 1, 2, 7])))
        for jv in rng.sample(jvs, rng.randint(0, min(5, len(jvs)))):
            term = term * DiffPoly.from_jet(jv, rng.choice([1, 1, 2, 3, rng.randint(1, 127)]))
        out = out + term
    return out


def _order_oracle(e: DiffPoly) -> list:
    """The terms of e as (factor list, coeff), each factor list
    [(jet_sort_key(jv), k), ...] in jet-id order, sorted by factor list."""
    rows = [([(jet_sort_key(jetalg._JETS[i]), k) for i, k in jetalg._factors(m)], c) for m, c in e.terms.items()]
    return sorted(rows, key=lambda row: row[0])


def test_term_order_matches_sort_key_oracle():
    """monomials() and write_tree order terms as a sort of their
    jet_sort_key factor lists does, for jets interned in shuffled order,
    more than 127 jets in one polynomial and exponents up to 127."""
    rng = random.Random(1807)
    jvs = _shuffled_jets(rng, 150)
    wide = ZERO
    for k in range(0, 150, 3):  # every jet, so ranks pass 127
        wide = wide + (k - 70) * DiffPoly.from_jet(jvs[k]) * DiffPoly.from_jet(jvs[k + 1], 127) \
            * DiffPoly.from_jet(jvs[k + 2], rng.randint(1, 127))
    wide = wide + _random_poly(rng, jvs, 40)
    cases = [wide] + [_random_poly(rng, rng.sample(jvs, rng.randint(1, 20)), rng.randint(1, 30)) for _ in range(60)]
    assert len(wide.jet_variables()) == 150
    for e in cases:
        want = _order_oracle(e)
        got = [([(jet_sort_key(jv), k) for jv, k in fs], c) for c, fs in e.monomials()]
        assert got == want
        for depth in range(4):
            assert write_tree(e, depth) == json.dumps(tree_oracle(e), indent=1).replace("\n", "\n" + " " * depth)


def test_quotient_collapses_when_divisible():
    q = JetQuotient(w * w - v * v, w - v)
    assert q.den == ONE
    assert q.num == w + v


def test_quotient_monomial_content():
    q = FieldId("q")
    qy, qz = jet(q, (0, 1, 0, 0)), jet(q, (0, 0, 1, 0))
    assert JetQuotient(qy * qz, qz * qz) == JetQuotient(qy, qz)


def test_quotient_equality_cross_multiplies():
    a = FieldId("a")
    lhs = JetQuotient((v + w) * (jet(a) + w), (v - w) * (jet(a) + w))
    rhs = JetQuotient(v + w, v - w)
    assert lhs == rhs


def test_divide_exact():
    assert divide_exact((v + w) * (v - w), v - w) == v + w
    assert divide_exact(v * v + w, v - w) is None


def test_primitive_strips_content_and_sign():
    e = -6 * v * v * w - 4 * v * w * w
    prim, scale, mono = e and primitive(e)
    assert prim == 3 * v + 2 * w
    assert scale == -2
    assert DiffPoly({mono: 1}) == v * w


def _primitive_by_fractions(e: DiffPoly):
    """primitive's formula in Fraction arithmetic: the content, its sign
    that of the leading term after the monomial is stripped, divided out
    of every coefficient."""
    rat, mono = content(e)
    out = strip_monomial(e, mono)
    if out.leading()[1] < 0:
        rat = -rat
    return {m: Fraction(c) / rat for m, c in out.terms.items()}, rat, mono


_CONTENTS = st.sampled_from([1, -1]) | st.integers(2, 40).flatmap(
    lambda k: st.sampled_from([k, -k, Fraction(1, k), Fraction(-1, k), Fraction(k, k + 1)]))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
                       st.integers(-30, 30).filter(bool)),
             min_size=1, max_size=6, unique_by=lambda t: t[0]),
    _CONTENTS,
)
def test_primitive_matches_the_fraction_formula(terms, k):
    # an integral polynomial of content 1, any sign of its leading term,
    # times k: content |k|, integral or not
    g = math.gcd(*(c for _, c in terms))
    e = k * sum((c // g * v ** a * w ** b * vx ** d for (a, b, d), c in terms), ZERO)
    assert content(e)[0] == abs(k)
    prim, scale, mono = primitive(e)
    want, want_scale, want_mono = _primitive_by_fractions(e)
    assert list(prim.terms.items()) == list(want.items())
    # the normal form: integral coefficients are ints
    assert all(type(c) is int or c.denominator != 1 for c in prim.terms.values())
    assert isinstance(scale, Fraction) and scale == want_scale and mono == want_mono


# -- division and the graded order: fixed-seed property checks -----------


def _factors(mono) -> dict:
    """{JetVariable: exponent} of a monomial key, read through monomials()."""
    (_, factors), = DiffPoly({mono: 1}).monomials()
    return dict(factors)


def _graded_oracle(m) -> tuple:
    """Reference form of the graded order: total degree, then the dense
    exponent vector over ascending jet ids, compared lexicographically;
    larger is higher in the order."""
    exps = {_jet_id(jv): k for jv, k in _factors(m).items()}
    top = max(exps, default=-1)
    return sum(exps.values()), tuple(exps.get(i, 0) for i in range(top + 1))


def _oracle_lt(m1: tuple, m2: tuple) -> bool:
    d1, v1 = _graded_oracle(m1)
    d2, v2 = _graded_oracle(m2)
    if d1 != d2:
        return d1 < d2
    n = max(len(v1), len(v2))
    return v1 + (0,) * (n - len(v1)) < v2 + (0,) * (n - len(v2))


def _division_pairs(seed: int, count: int):
    rng = random.Random(seed)
    while count:
        a, b = from_tree(random_tree(rng)), from_tree(random_tree(rng))
        if a.is_zero() or b.is_zero():
            continue
        count -= 1
        yield a, b


def test_divide_exact_recovers_factor():
    for a, b in _division_pairs(4101, 150):
        assert divide_exact(a * b, b) == a


def test_divide_exact_result_is_exact():
    seen = 0
    for a, b in _division_pairs(4102, 300):
        q = divide_exact(a, b)
        if q is not None:
            seen += 1
            assert q * b == a
    assert seen > 10


def test_divide_exact_refuses_unabsorbable_remainder():
    """A polynomial of two or more terms divides no monomial, so adding a
    monomial below b's leading term to a multiple of b leaves something
    b cannot absorb."""
    tried = 0
    for a, b in _division_pairs(4103, 200):
        if len(b.terms) < 2:
            continue
        lead_m, _ = b.leading()
        below = next(m for m in b.terms if m != lead_m)
        assert _oracle_lt(below, lead_m)
        r = DiffPoly({below: Fraction(1, 3)})
        assert divide_exact(a * b + r, b) is None
        tried += 1
    assert tried > 50


def test_quotient_terms_descend_in_graded_order():
    for a, b in _division_pairs(4104, 150):
        q = list(divide_exact(a * b, b).terms)
        assert all(_oracle_lt(later, earlier) for earlier, later in zip(q, q[1:]))


def test_leading_is_oracle_maximum_and_multiplicative():
    for a, b in _division_pairs(4105, 200):
        for e in (a, b):
            lead_m, lead_c = e.leading()
            assert lead_c == e.terms[lead_m]
            assert not any(_oracle_lt(lead_m, m) for m in e.terms)
        la, lb, lab = a.leading(), b.leading(), (a * b).leading()
        assert DiffPoly(dict([la])) * DiffPoly(dict([lb])) == DiffPoly(dict([lab]))


# -- content and primitive part -------------------------------------------


def _rat_gcd(a, b) -> Fraction:
    """Pairwise gcd of two rationals (oracle for the rational content)."""
    fa, fb = Fraction(a), Fraction(b)
    num = math.gcd(fa.numerator, fb.numerator)
    den = fa.denominator * fb.denominator // math.gcd(fa.denominator, fb.denominator)
    return Fraction(num, den)


def _check_content(e: DiffPoly):
    rat, mono = content(e)
    assert isinstance(rat, Fraction)
    assert rat == reduce(_rat_gcd, e.terms.values(), Fraction(0))
    prim, scale, mono2 = primitive(e)
    assert mono2 == mono
    assert abs(scale) == rat
    assert prim.leading()[1] > 0
    assert e == scale * DiffPoly({mono: 1}) * prim
    return rat, mono, prim, scale


def test_content_all_integer():
    rat, mono, prim, scale = _check_content(6 * v * v * w + 4 * v * w * w * vx + 10 * v ** 3 * w)
    assert rat == 2 and scale == 2
    assert DiffPoly({mono: 1}) == v * w


def test_content_mixed_int_and_fraction():
    e = Fraction(3, 2) * v * w + 6 * w + Fraction(9, 4) * w * w
    assert any(isinstance(c, int) for c in e.terms.values())
    rat, mono, prim, scale = _check_content(e)
    assert rat == Fraction(3, 4)
    assert DiffPoly({mono: 1}) == w


def test_content_negative_leading_coefficient():
    e = -12 * v ** 3 + 8 * w
    rat, mono, prim, scale = _check_content(e)
    assert rat == 4 and scale == -4 and _factors(mono) == {}
    assert prim == 3 * v ** 3 - 2 * w


def test_content_single_term():
    e = Fraction(-5, 3) * v * v * w
    rat, mono, prim, scale = _check_content(e)
    assert rat == Fraction(5, 3) and scale == Fraction(-5, 3)
    assert prim == ONE
    assert DiffPoly({mono: 1}) == v * v * w


def test_content_random_trees():
    rng = random.Random(4106)
    checked = 0
    while checked < 200:
        e = from_tree(random_tree(rng))
        if not e.is_zero():
            _check_content(e)
            checked += 1


# -- monomial gcd and term split ---------------------------------------------


def _dense_gcd(polys) -> dict:
    """Oracle: the least exponent of every jet over every term, absent
    jets counting as exponent 0."""
    terms = [dict(f) for e in polys for _, f in e.monomials()]
    jets = {jv for t in terms for jv in t}
    low = {jv: min(t.get(jv, 0) for t in terms) for jv in jets}
    return {jv: k for jv, k in low.items() if k}


class _Unread:
    """A polynomial stand-in that fails when its terms are read."""

    @property
    def _terms(self):
        raise AssertionError("scanned past a gcd of 1")


def test_monomial_gcd_matches_dense_oracle():
    rng = random.Random(5150)
    checked = 0
    while checked < 150:
        polys = [from_tree(random_tree(rng)) for _ in range(rng.randint(1, 3))]
        if any(e.is_zero() for e in polys):
            continue
        # a shared factor, so that most gcds are not 1
        shared = from_tree({"op": "mul", "args": [random_tree(rng, depth=0) for _ in range(3)]})
        if not shared.is_zero():
            polys = [e * shared for e in polys]
        g = monomial_gcd(*polys)
        assert _factors(g) == _dense_gcd(polys)
        for e in polys:
            assert content(e)[1] == monomial_gcd(e)
            assert e == DiffPoly({g: 1}) * strip_monomial(e, g)
        checked += 1


def test_monomial_gcd_stops_at_one():
    assert _factors(monomial_gcd(v + w, _Unread())) == {}
    with pytest.raises(AssertionError):  # the gcd is still v: reads on
        monomial_gcd(v * w, v * vx, _Unread())
    assert _factors(monomial_gcd(v * v * w, v ** 3 * vx, 2 * v * w)) == {V_JV: 1}


def test_decompose_by_jets_reassembles():
    rng = random.Random(6021)
    for _ in range(150):
        e = from_tree(random_tree(rng))
        jvs = e.jet_variables()
        picked = rng.sample(jvs, rng.randint(0, len(jvs))) + [JetVariable(FieldId("absent"))]
        parts = decompose_by_jets(e, picked)
        total = DiffPoly()
        for pows, rest in parts.items():
            assert not set(rest.jet_variables()) & set(picked)
            total = total + math.prod(map(DiffPoly.from_jet, picked, pows), start=rest)
        assert total == e


# -- keys past one machine word: dict-of-exponent oracles ---------------------


_WIDE_NAMES = ("wide_u", "wide_v", "wide_w", "wide_z")


def _wide_polys(seed: int, count: int) -> list:
    """Nonzero random_tree polynomials over jets interned after 70 others,
    so that their monomial keys span several machine words."""
    for k in range(70):
        jet(FieldId(f"pad{k}"))
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        e = from_tree(random_tree(rng, names=_WIDE_NAMES))
        if not e.is_zero():
            out.append(e)
    assert min(_jet_id(jv) for e in out for jv in e.jet_variables()) >= 70
    return out


def _dense(e: DiffPoly) -> dict:
    """Oracle form: {frozenset of (jet, exponent): coefficient}."""
    return {frozenset(f): c for c, f in e.monomials()}


def _dense_mul(a: dict, b: dict) -> dict:
    out = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            exps = Counter(dict(ma))
            exps.update(dict(mb))
            key = frozenset(exps.items())
            out[key] = out.get(key, 0) + ca * cb
    return {m: c for m, c in out.items() if c}


def test_wide_products_match_oracle():
    polys = _wide_polys(7001, 80)
    for a, b in zip(polys, polys[1:]):
        assert _dense(a * b) == _dense_mul(_dense(a), _dense(b))
        assert _dense(a * a * b) == _dense_mul(_dense_mul(_dense(a), _dense(a)), _dense(b))


def test_wide_division_and_leading_match_oracle():
    polys = _wide_polys(7002, 80)
    refused = 0
    for a, b in zip(polys, polys[1:]):
        q = divide_exact(a * b, b)
        assert _dense(q) == _dense(a)
        keys = list(q.terms)
        assert all(_oracle_lt(later, earlier) for earlier, later in zip(keys, keys[1:]))
        for e in (a, b, a * b):
            lead_m, lead_c = e.leading()
            assert lead_c == e.terms[lead_m]
            assert not any(_oracle_lt(lead_m, m) for m in e.terms)
        if len(b.terms) > 1:
            r = DiffPoly({next(iter(b.terms)): 1})
            assert divide_exact(a * b + r, b) is None
            refused += 1
    assert refused > 20


def test_wide_gcd_and_term_split_match_oracle():
    polys = _wide_polys(7003, 90)
    rng = random.Random(7004)
    for a, b, c in zip(polys[0::3], polys[1::3], polys[2::3]):
        group = [a * c, b * c]
        assert _factors(monomial_gcd(*group)) == _dense_gcd(group)
        jvs = a.jet_variables()
        picked = rng.sample(jvs, rng.randint(0, len(jvs)))
        want = {}
        for coeff, f in a.monomials():
            f = dict(f)
            pows = tuple(f.pop(jv, 0) for jv in picked)
            want.setdefault(pows, {})[frozenset(f.items())] = coeff
        assert {pows: _dense(rest) for pows, rest in decompose_by_jets(a, picked).items()} == want


def test_strip_monomial_refuses_a_non_divisor():
    # v*w divides neither v^2 nor w^2; one of the two subtractions borrows
    # from a lower byte without turning negative
    for e in (v ** 2 + v * w, w ** 2 + v * w):
        with pytest.raises(StructureError, match="does not divide"):
            strip_monomial(e, next(iter((v * w).terms)))


def test_exponents_above_127_raise():
    assert _factors(next(iter((v ** 127).terms))) == {V_JV: 127}
    with pytest.raises(StructureError, match="above 127"):
        v ** 127 * v
    with pytest.raises(StructureError, match="above 127"):
        DiffPoly.from_jet(V_JV, 128)
    with pytest.raises(StructureError, match="above 127"):
        total_derivative(v * vx ** 127, "x")
    # a remainder term past 127 proves that the division fails, whichever
    # of v and w has the higher id; an exact quotient reaching 127 does not
    assert divide_exact(w * v ** 100, w + v ** 50) is None
    assert divide_exact(v * w ** 100, v + w ** 50) is None
    assert divide_exact((w + v ** 50) * v ** 77, w + v ** 50) == v ** 77


def _general_product(a: DiffPoly, b: DiffPoly) -> dict:
    """The term dict of a * b by the double loop over both operands, the
    shorter outside, as DiffPoly.__mul__ multiplies two polynomials of
    several terms each."""
    t1, t2 = (b.terms, a.terms) if len(a.terms) > len(b.terms) else (a.terms, b.terms)
    out = {}
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
    return {m: c for m, c in out.items() if c != 0}


def test_monomial_products_match_the_general_product():
    rng = random.Random(1808)
    monos = [DiffPoly.const(-3), v * w, Fraction(3, 7) * vx * w ** 2]  # constant, unit and fractional
    polys = [e for e in (from_tree(random_tree(rng)) for _ in range(40)) if len(e.terms) > 1]
    assert len(polys) > 10
    for mono in monos:
        for p in polys:
            want = list(_general_product(mono, p).items())
            assert list((mono * p).terms.items()) == want
            assert list((p * mono).terms.items()) == want
    with pytest.raises(StructureError, match="above 127"):
        v ** 100 * (v ** 28 + w)


def test_divide_exact_extreme_term_checks():
    guard = jetalg._GUARD
    b = v + w
    a = b * (v + 1)
    z = jet(FieldId("extreme_z"))  # interned last: the highest id
    # b's int-smallest term does not divide a's (the constant 1)
    assert divide_exact(a + 1, b) is None
    assert (min((a + 1).terms) - min(b.terms)) & guard
    # b's int-largest term does not divide a's (z)
    assert divide_exact(a + z, b) is None
    assert (max((a + z).terms) - max(b.terms)) & guard
    # both checks pass when only the int-largest term's coefficient
    # changes, so the division runs and fails
    bumped = a + DiffPoly({max(a.terms): 1})
    assert not (max(bumped.terms) - max(b.terms)) & guard
    assert not (min(bumped.terms) - min(b.terms)) & guard
    assert divide_exact(bumped, b) is None
    # an exact division is unchanged: the quotient, its terms in the graded
    # order, highest first
    q = divide_exact(a * z, b * z)
    assert q == v + 1
    keys = list(q.terms)
    assert all(_oracle_lt(later, earlier) for earlier, later in zip(keys, keys[1:]))


def test_linear_coefficient():
    coeff, rest = linear_coefficient(3 * v * vx + w * vx + v * v, VX_JV)
    assert coeff == 3 * v + w and rest == v * v
    with pytest.raises(StructureError, match="not linear in v_x"):
        linear_coefficient(v * vx * vx + w, VX_JV)
