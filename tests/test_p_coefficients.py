import pytest

from contactlax.errors import ParameterError
from contactlax.jetalg import ONE, ZERO, FieldId, JetQuotient, jet, p_coefficients
from conftest import from_p_coeffs, p, p_coeffs, partial_fraction, poly_divmod, prational_sum, random_rational

VF, WF = FieldId("v"), FieldId("w")
AF, BF = FieldId("a"), FieldId("b")


def nonzero_rational(rng):
    while True:
        c = random_rational(rng)
        if c != 0:
            return c


def lin(f):
    return p - jet(f)


def simple(res_field, pole_field):
    return JetQuotient(jet(res_field), lin(pole_field))


def test_collect_two_simple_poles():
    s = prational_sum(JetQuotient(ONE, lin(VF)), JetQuotient(ONE, lin(WF)))
    num, den = p_coefficients(s)
    v, w = jet(VF), jet(WF)
    assert num == [-(v + w), 2 * ONE]
    assert den == [v * w, -(v + w), ONE]


def test_collect_constant():
    a0 = jet(FieldId("a0"))
    num, den = p_coefficients(JetQuotient(a0))
    assert num == [a0]
    assert den == [ONE]


def test_collect_of_pf_view_equals_collect(rng):
    for _ in range(25):
        r = prational_sum(simple(AF, VF), simple(BF, WF))
        if rng.random() < 0.5:
            r = prational_sum(r, JetQuotient(jet(AF)))
        pf = partial_fraction(JetQuotient(r.num, r.den), [VF, WF])
        n1, d1 = p_coefficients(pf.reassemble())
        n2, d2 = p_coefficients(JetQuotient(r.num, r.den))
        assert n1 == n2 and d1 == d2


def test_coefficients_examples():
    v, w = jet(VF), jet(WF)
    q = JetQuotient(-(v + w) + 2 * p)
    cs = p_coeffs(q)
    assert len(cs) == 2 and cs[0] == JetQuotient(-(v + w)) and cs[1] == JetQuotient(2 * ONE)
    assert p_coeffs(ZERO) == []


def test_coefficients_reassembly(rng):
    for _ in range(20):
        cs = [JetQuotient(jet(AF)) * random_rational(rng) for _ in range(rng.randint(1, 5))]
        q = from_p_coeffs(cs)
        rebuilt = JetQuotient(ZERO)
        for k, c in enumerate(p_coeffs(q)):
            rebuilt = rebuilt + c * p ** k
        assert rebuilt == q


def test_partial_fraction_roundtrip_random(rng):
    pole_fields = [FieldId(f"v{i}") for i in (1, 2, 3)] + [FieldId(f"w{j}") for j in (1, 2, 3)]
    res_fields = [FieldId(f"r{i}") for i in range(6)]
    for _ in range(15):
        poles = []
        r = JetQuotient(jet(rng.choice(res_fields))) if rng.random() < 0.5 else JetQuotient(ZERO)
        for f in pole_fields:
            if rng.random() < 0.5:
                continue
            res = JetQuotient(jet(rng.choice(res_fields)) * nonzero_rational(rng))
            r = prational_sum(r, res / lin(f))
            poles.append((f, res))
        if not poles:
            continue
        got = partial_fraction(JetQuotient(r.num, r.den), [f for f, _ in poles])
        assert [(b.pole, b.residue) for b in got.poles] == poles


def test_partial_fraction_rejects_high_order():
    # a double pole, and a simple pole missing from the list
    with pytest.raises(ParameterError, match="not a simple pole"):
        partial_fraction(JetQuotient(ONE, lin(VF) ** 2), [VF])
    with pytest.raises(ParameterError, match="do not reassemble"):
        partial_fraction(prational_sum(simple(AF, VF), simple(BF, WF)), [VF])


def test_poly_divmod():
    num = lin(VF) * lin(WF)
    q, rem = poly_divmod(num, lin(VF))
    assert rem.is_zero() and q == JetQuotient(lin(WF))
    q2, rem2 = poly_divmod(p ** 2, lin(VF))
    assert q2 == JetQuotient(p + jet(VF))
    assert rem2 == JetQuotient(jet(VF) ** 2)
