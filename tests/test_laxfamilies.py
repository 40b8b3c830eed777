from fractions import Fraction

import pytest

from contactlax.jetalg import ONE, FieldId, JetQuotient, jet
from contactlax.laxfamilies import (
    LaxPair,
    make_custom,
    make_family,
    make_poly,
    make_rat,
    make_ratgp,
)
from contactlax.pfield import ParameterError, PPoly, PRational, collect, partial_fraction
from conftest import expected_roster_size


def test_make_poly_1_1():
    lax = make_poly(1, 1)
    v0, v1, w0 = (jet(FieldId(nm)) for nm in ("v0", "v1", "w0"))
    assert lax.F == PRational(PPoly([JetQuotient(v0), JetQuotient(v1), JetQuotient(ONE)]))
    assert lax.G == PRational(PPoly([JetQuotient(w0), JetQuotient(v1), JetQuotient(ONE)]))
    assert len(lax.fields) == 3
    assert lax.partial_fractions() == (None, None)


def test_make_poly_locked_subleading_coefficient():
    lax = make_poly(2, 1)
    v2 = jet(FieldId("v2"))
    assert lax.G.num[1] == JetQuotient(Fraction(1, 2) * v2)


def test_make_poly_rejects_zero():
    with pytest.raises(ParameterError):
        make_poly(0, 1)
    with pytest.raises(ParameterError):
        make_rat(1, 0)
    with pytest.raises(ParameterError):
        make_ratgp(-1, 2)


def test_make_rat_1_1():
    lax = make_rat(1, 1)
    assert [f.name for f in lax.fields] == ["a1", "v1", "b1", "w1"]
    num, den = collect(lax.F)
    assert num.degree() == 0 and den.degree() == 1
    assert lax.partial_fractions()[0].polypart.is_zero()  # no constant term


def test_make_rat_2_1_roster():
    lax = make_rat(2, 1)
    assert [f.name for f in lax.fields] == ["a1", "a2", "v1", "v2", "b1", "w1"]
    assert len(lax.fields) == 6


def test_make_ratgp_sizes():
    assert len(make_ratgp(1, 1).fields) == 6
    lax = make_ratgp(2, 3)
    assert [f.name for f in lax.fields] == [
        "a0", "a1", "a2", "v1", "v2", "b0", "b1", "b2", "b3", "w1", "w2", "w3",
    ]


def test_ratgp_minus_constant_is_rat():
    lg, lr = make_ratgp(1, 1), make_rat(1, 1)
    a0 = PRational(PPoly([JetQuotient(jet(FieldId("a0")))]))
    assert (lg.F - a0) == lr.F
    b0 = PRational(PPoly([JetQuotient(jet(FieldId("b0")))]))
    assert (lg.G - b0) == lr.G


@pytest.mark.parametrize("m", range(1, 6))
@pytest.mark.parametrize("n", range(1, 6))
def test_roster_size_formulas(m, n):
    for family in ("poly", "rat", "ratgp"):
        assert len(make_family(family, m, n).fields) == expected_roster_size(family, m, n)


@pytest.mark.parametrize("family,m,n", [("rat", 1, 1), ("rat", 2, 1), ("ratgp", 1, 2)])
def test_family_pf_views_roundtrip(family, m, n):
    lax = make_family(family, m, n)
    vs, ws = lax.pole_fields()
    views = []
    for r, res, poles in ((lax.F, "a", vs), (lax.G, "b", ws)):
        pf = partial_fraction(r, [(f, 1) for f in poles])
        views.append(pf)
        assert pf.reassemble() == r
        const = [JetQuotient(jet(FieldId(f"{res}0")))] if family == "ratgp" else []
        assert pf.polypart == PPoly(const)
        assert [b.pole for b in pf.poles] == list(poles)
        for i, b in enumerate(pf.poles, start=1):
            assert b.order == 1 and b.residues == (JetQuotient(jet(FieldId(f"{res}{i}"))),)
    assert lax.partial_fractions() == tuple(views)


def test_custom_validates_roster():
    v = FieldId("v")
    F = PRational(PPoly([JetQuotient(jet(v))]))
    lax = make_custom(F, F, [v])
    assert lax.family == "custom"
    with pytest.raises(ParameterError):
        make_custom(F, F, [])


def test_unknown_family():
    with pytest.raises(ParameterError):
        make_family("exp", 1, 1)
