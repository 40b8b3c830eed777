import pytest

from contactlax.jetalg import ONE, ZERO, FieldId, JetQuotient, jet
from contactlax.pfield import (
    ParameterError,
    PPoly,
    PRational,
    collect,
    p_minus,
    partial_fraction,
    poly_div_exact,
    poly_divmod,
)
from conftest import random_rational

VF, WF = FieldId("v"), FieldId("w")
V2F, W2F = FieldId("v2"), FieldId("w2")
AF, BF = FieldId("a"), FieldId("b")


def nonzero_rational(rng):
    while True:
        c = random_rational(rng)
        if c != 0:
            return c


def lin(f):
    return PPoly([JetQuotient(-jet(f)), JetQuotient(ONE)])


def simple(res_field, pole_field):
    return PRational(PPoly([JetQuotient(jet(res_field))]), lin(pole_field))


def test_pdiff_simple_pole():
    r = PRational(PPoly.const(1), lin(VF))
    assert r.pdiff() == PRational(PPoly.const(-1), lin(VF) ** 2)


def test_pdiff_power():
    p2 = PRational(PPoly.x() ** 2)
    assert p2.pdiff() == PRational(PPoly([JetQuotient(ZERO), JetQuotient(2 * ONE)]))


def test_pdiff_pf_view_matches_quotient_rule(rng):
    pole_fields = (VF, WF, V2F)
    for _ in range(50):
        const = JetQuotient(jet(AF)) * random_rational(rng)
        r = PRational(PPoly([const]))
        # d/dp res/(p - a)^k = -k res/(p - a)^(k+1), block by block
        blockwise = PRational(PPoly())
        for f in pole_fields:
            if rng.random() < 0.7:
                for k in range(1, rng.randint(1, 2) + 1):
                    res = JetQuotient(jet(rng.choice((AF, BF))) * nonzero_rational(rng))
                    r = r + PRational(PPoly([res]), lin(f) ** k)
                    blockwise = blockwise + PRational(PPoly([-k * res]), lin(f) ** (k + 1))
        assert PRational(r.num, r.den).pdiff() == blockwise


def test_collect_two_simple_poles():
    s = PRational(PPoly.const(1), lin(VF)) + PRational(PPoly.const(1), lin(WF))
    num, den = collect(s)
    v, w = jet(VF), jet(WF)
    assert num == PPoly([JetQuotient(-(v + w)), JetQuotient(2 * ONE)])
    assert den == PPoly([JetQuotient(v * w), JetQuotient(-(v + w)), JetQuotient(ONE)])


def test_collect_constant():
    a0 = jet(FieldId("a0"))
    num, den = collect(PRational(PPoly([JetQuotient(a0)])))
    assert num == PPoly([JetQuotient(a0)])
    assert den == PPoly.const(1)


def test_collect_of_pf_view_equals_collect(rng):
    for _ in range(25):
        r = simple(AF, VF) + simple(BF, WF)
        if rng.random() < 0.5:
            r = r + PRational(PPoly([JetQuotient(jet(AF))]))
        pf = partial_fraction(PRational(r.num, r.den), [VF, WF])
        n1, d1 = collect(pf.reassemble())
        n2, d2 = collect(PRational(r.num, r.den))
        assert n1 == n2 and d1 == d2


def test_coefficients_examples():
    v, w = jet(VF), jet(WF)
    q = PPoly([JetQuotient(-(v + w)), JetQuotient(2 * ONE)])
    cs = q.coeffs
    assert len(cs) == 2 and cs[0] == JetQuotient(-(v + w)) and cs[1] == JetQuotient(2 * ONE)
    assert PPoly().coeffs == ()


def test_coefficients_reassembly(rng):
    for _ in range(20):
        cs = [JetQuotient(jet(AF)) * random_rational(rng) for _ in range(rng.randint(1, 5))]
        q = PPoly(cs)
        rebuilt = PPoly()
        for k, c in enumerate(q.coeffs):
            rebuilt = rebuilt + PPoly([JetQuotient(ZERO)] * k + [c])
        assert rebuilt == q


def test_partial_fraction_roundtrip_random(rng):
    pole_fields = [FieldId(f"v{i}") for i in (1, 2, 3)] + [FieldId(f"w{j}") for j in (1, 2, 3)]
    res_fields = [FieldId(f"r{i}") for i in range(6)]
    for _ in range(15):
        poles = []
        r = PRational(PPoly([JetQuotient(jet(rng.choice(res_fields)))])) if rng.random() < 0.5 else PRational(PPoly())
        for f in pole_fields:
            if rng.random() < 0.5:
                continue
            res = JetQuotient(jet(rng.choice(res_fields)) * nonzero_rational(rng))
            r = r + PRational(PPoly([res]), lin(f))
            poles.append((f, res))
        if not poles:
            continue
        got = partial_fraction(PRational(r.num, r.den), [f for f, _ in poles])
        assert [(b.pole, b.residue) for b in got.poles] == poles


def test_partial_fraction_rejects_high_order():
    # a double pole, and a simple pole missing from the list
    with pytest.raises(ParameterError, match="not a simple pole"):
        partial_fraction(PRational(PPoly.const(1), lin(VF) ** 2), [VF])
    with pytest.raises(ParameterError, match="do not reassemble"):
        partial_fraction(simple(AF, VF) + simple(BF, WF), [VF])


def test_poly_divmod():
    num = lin(VF) * lin(WF)
    q, rem = poly_divmod(num, lin(VF))
    assert rem.is_zero() and q == lin(WF)
    q2, rem2 = poly_divmod(PPoly.x() ** 2, lin(VF))
    assert q2 == PPoly([JetQuotient(jet(VF)), JetQuotient(ONE)])
    assert rem2 == PPoly([JetQuotient(jet(VF) ** 2)])


def test_product_degree_bound(rng):
    for _ in range(20):
        r1 = simple(AF, VF) + PRational(PPoly([JetQuotient(jet(AF))]))
        r2 = simple(BF, WF)
        n, d = collect(r1 * r2)
        n1, d1 = collect(r1)
        n2, d2 = collect(r2)
        assert n.degree() <= n1.degree() + n2.degree()
    # leading terms provably non-cancelling: monic times monic
    prod = PRational(lin(VF)) * PRational(lin(WF))
    n, _ = collect(prod)
    assert n.degree() == 2
