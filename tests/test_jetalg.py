import math
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactlax.jetalg import (
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
    content,
    decompose_by_jets,
    divide_exact,
    evaluate_mod,
    from_tree,
    jet,
    linear_coefficient,
    monomial_gcd,
    primitive,
    quotient_rule,
    strip_monomial,
    substitute,
    to_tree,
    total_derivative,
    total_derivative_q,
)
from contactlax.sampling import random_point
from conftest import FIELD_NAMES, eval_tree, evaluate, random_tree

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
    assert quotient_rule(lambda n, d: (n, d), v, w, vx, wx) == (vx * w - v * wx, w * w)
    # a constant denominator keeps its one power
    assert quotient_rule(lambda n, d: (n, d), v, w, vx, DiffPoly()) == (vx, w)
    assert total_derivative_q(JetQuotient(v, w), "x") == JetQuotient(vx * w - v * wx, w * w)


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
    import json

    e = from_tree(t)
    emitted = to_tree(e)
    again = to_tree(from_tree(emitted))
    assert json.dumps(emitted) == json.dumps(again)
    assert from_tree(emitted) == e


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


# -- division and the graded order: fixed-seed property checks -----------


def _graded_oracle(m: tuple) -> tuple:
    """Reference form of the graded order: total degree, then the dense
    exponent vector over ascending jet ids, compared lexicographically;
    larger is higher in the order."""
    exps = dict(zip(m[0::2], m[1::2]))
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
    assert rat == 4 and scale == -4 and mono == ()
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


def _factors(mono: tuple) -> dict:
    (_, factors), = DiffPoly({mono: 1}).monomials()
    return dict(factors)


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
    assert monomial_gcd(v + w, _Unread()) == ()
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


def test_linear_coefficient():
    coeff, rest = linear_coefficient(3 * v * vx + w * vx + v * v, VX_JV)
    assert coeff == 3 * v + w and rest == v * v
    with pytest.raises(StructureError, match="not linear in v_x"):
        linear_coefficient(v * vx * vx + w, VX_JV)
