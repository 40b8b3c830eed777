"""Constructors for the three contact Lax-pair families.

Field naming is fixed ("a0", "a1", ..., "v1", ..., "b0", ..., "w1", ...)
so derived systems and golden comparisons are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError
from .jetalg import ONE, ZERO, P, DiffPoly, FieldId, JetQuotient, jet

POLY = "poly"
RAT = "rat"
RATGP = "ratgp"
CUSTOM = "custom"

# one side of a rational pair: its constant field (or None) and its
# (residue field, pole field) pairs
PoleSide = tuple[FieldId | None, tuple[tuple[FieldId, FieldId], ...]]


@dataclass(frozen=True)
class LaxPair:
    """F and G: quotients of polynomials in the jets and the parameter P."""

    F: JetQuotient
    G: JetQuotient
    fields: tuple[FieldId, ...]
    family: str
    m: int | None = None
    n: int | None = None
    dimension: str = "3+1"  # "2+1" after the planar reduction
    pole_data: tuple[PoleSide, PoleSide] | None = None  # F's and G's; set by the rational constructors

    def __post_init__(self):
        roster = set(self.fields)
        used = {jv.field for r in (self.F, self.G) for jv in r.jet_variables()} - {P.field}
        missing = {f.name for f in used if f not in roster}
        if missing:
            raise ParameterError(f"fields used but not in roster: {sorted(missing)}")

    def pole_fields(self) -> tuple[tuple[FieldId, ...], tuple[FieldId, ...]]:
        """(poles of F, poles of G); empty outside the rational families."""
        if self.pole_data is None:
            return (), ()
        return tuple(tuple(pole for _, pole in pairs) for _, pairs in self.pole_data)


def check_params(m: int, n: int):
    if not (isinstance(m, int) and isinstance(n, int) and m >= 1 and n >= 1):
        raise ParameterError(f"m and n must be positive integers, got m={m}, n={n}")


def _fid(prefix: str, i: int) -> FieldId:
    return FieldId(f"{prefix}{i}")


def make_poly(m: int, n: int) -> LaxPair:
    """Polynomial family: F = p^(m+1) + sum v_i p^i, G = p^(n+1) +
    (n/m) v_m p^n + sum_(j<n) w_j p^j; the subleading coefficient of G is
    locked to (n/m) v_m."""
    check_params(m, n)
    vs = [_fid("v", i) for i in range(m + 1)]
    ws = [_fid("w", j) for j in range(n)]
    fc = [jet(v) for v in vs] + [ONE]
    gc = [jet(w) for w in ws] + [Fraction(n, m) * jet(vs[m]), ONE]
    p = DiffPoly.from_jet(P)
    F, G = (JetQuotient(sum((c * p ** k for k, c in enumerate(cs)), ZERO)) for cs in (fc, gc))
    return LaxPair(F, G, tuple(vs + ws), POLY, m, n)


def make_rat(m: int, n: int) -> LaxPair:
    """Rational family with no polynomial part: F = sum a_i/(p - v_i),
    G = sum b_j/(p - w_j)."""
    return _make_rational(RAT, m, n)


def make_ratgp(m: int, n: int) -> LaxPair:
    """General-position rational family: constant terms a_0, b_0 plus
    simple poles."""
    return _make_rational(RATGP, m, n)


def _make_rational(family: str, m: int, n: int) -> LaxPair:
    check_params(m, n)
    sides = tuple(
        (_fid(res, 0) if family == RATGP else None, tuple((_fid(res, i), _fid(pole, i)) for i in range(1, k + 1)))
        for res, pole, k in (("a", "v", m), ("b", "w", n))
    )
    pair, roster, p = [], [], DiffPoly.from_jet(P)
    for const, pairs in sides:
        # jets are interned constant, poles, residues, F before G: the
        # order of terms in every output follows it
        num, den = jet(const) if const else ZERO, ONE
        # c + sum a/(p - v) over the product of the distinct (p - v)
        for lin, (a, _) in zip([p - jet(v) for _, v in pairs], pairs):
            num, den = lin * num + jet(a) * den, lin * den
        pair.append(JetQuotient(num, den))
        roster += ([const] if const else []) + [a for a, _ in pairs] + [v for _, v in pairs]
    return LaxPair(*pair, tuple(roster), family, m, n, pole_data=sides)


def make_custom(F: JetQuotient, G: JetQuotient, fields) -> LaxPair:
    """Arbitrary pair; roster coverage is still validated."""
    return LaxPair(F, G, tuple(fields), CUSTOM)


def make_family(family: str, m: int, n: int) -> LaxPair:
    try:
        ctor = {POLY: make_poly, RAT: make_rat, RATGP: make_ratgp}[family]
    except KeyError:
        raise ParameterError(f"unknown family {family!r}") from None
    return ctor(m, n)

