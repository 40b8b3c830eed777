from fractions import Fraction

import pytest

from contactlax.compat import reduce_2plus1
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
    assert lax.pole_data is None


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
    assert lax.pole_data[0][0] is None  # no constant term


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


@pytest.mark.parametrize("family,m,n", [(f, m, n) for f in ("rat", "ratgp") for m in (1, 2, 3) for n in (1, 2, 3)])
def test_family_pf_views_roundtrip(family, m, n):
    # the recorded poles of the pair and of its planar reduction against
    # the views computed from F and G alone
    lax = make_family(family, m, n)
    planar, _ = reduce_2plus1(lax)
    assert planar.dimension == "2+1"
    for pair in (lax, planar):
        for r, (const, pairs), res, pole, k in zip((pair.F, pair.G), pair.pole_data, "ab", "vw", (m, n)):
            view = partial_fraction(r, [v for _, v in pairs])
            assert view.reassemble() == r
            assert const == (FieldId(f"{res}0") if family == "ratgp" else None)
            assert view.polypart == PPoly([JetQuotient(jet(const))] if const else [])
            assert pairs == tuple((FieldId(f"{res}{i}"), FieldId(f"{pole}{i}")) for i in range(1, k + 1))
            assert [(b.pole, b.residue) for b in view.poles] == [(v, JetQuotient(jet(a))) for a, v in pairs]


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
