"""Constructors for the three contact Lax-pair families.

Field naming is fixed ("a0", "a1", ..., "v1", ..., "b0", ..., "w1", ...)
so derived systems and golden comparisons are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .jetalg import ONE, ZERO, FieldId, JetQuotient, jet
from .pfield import ParameterError, PartialFractions, PPoly, PRational, p_minus, partial_fraction

POLY = "poly"
RAT = "rat"
RATGP = "ratgp"
CUSTOM = "custom"


@dataclass(frozen=True)
class LaxPair:
    F: PRational
    G: PRational
    fields: tuple[FieldId, ...]
    family: str
    m: int | None = None
    n: int | None = None
    dimension: str = "3+1"  # "2+1" after the planar reduction

    def __post_init__(self):
        roster = set(self.fields)
        used = self.F.field_ids() | self.G.field_ids()
        missing = {f.name for f in used if f not in roster}
        if missing:
            raise ParameterError(f"fields used but not in roster: {sorted(missing)}")

    def pole_fields(self) -> tuple[tuple[FieldId, ...], tuple[FieldId, ...]]:
        """(poles of F, poles of G); empty outside the rational families."""
        if self.family not in (RAT, RATGP):
            return (), ()
        vs = tuple(f for f in self.fields if f.name.startswith("v"))
        ws = tuple(f for f in self.fields if f.name.startswith("w"))
        return vs, ws

    def partial_fractions(self) -> tuple[PartialFractions | None, PartialFractions | None]:
        """Views of F and G over pole_fields(); (None, None) outside the
        rational families."""
        if self.family not in (RAT, RATGP):
            return None, None
        vs, ws = self.pole_fields()
        return partial_fraction(self.F, [(v, 1) for v in vs]), partial_fraction(self.G, [(w, 1) for w in ws])


def _check_params(m: int, n: int):
    if not (isinstance(m, int) and isinstance(n, int) and m >= 1 and n >= 1):
        raise ParameterError(f"m and n must be positive integers, got m={m}, n={n}")


def _fid(prefix: str, i: int) -> FieldId:
    return FieldId(f"{prefix}{i}")


def make_poly(m: int, n: int) -> LaxPair:
    """Polynomial family: F = p^(m+1) + sum v_i p^i, G = p^(n+1) +
    (n/m) v_m p^n + sum_(j<n) w_j p^j; the subleading coefficient of G is
    locked to (n/m) v_m."""
    _check_params(m, n)
    vs = [_fid("v", i) for i in range(m + 1)]
    ws = [_fid("w", j) for j in range(n)]
    fc = [JetQuotient(jet(v)) for v in vs] + [JetQuotient(ONE)]
    F = PRational(PPoly(fc))
    gc = [JetQuotient(ZERO)] * (n + 2)
    for j in range(n):
        gc[j] = JetQuotient(jet(ws[j]))
    gc[n] = JetQuotient(Fraction(n, m) * jet(vs[m]))
    gc[n + 1] = JetQuotient(ONE)
    G = PRational(PPoly(gc))
    return LaxPair(F, G, tuple(vs + ws), POLY, m, n)


def make_rat(m: int, n: int) -> LaxPair:
    """Rational family with no polynomial part: F = sum a_i/(p - v_i),
    G = sum b_j/(p - w_j)."""
    _check_params(m, n)
    avs = [_fid("a", i) for i in range(1, m + 1)]
    vs = [_fid("v", i) for i in range(1, m + 1)]
    bws = [_fid("b", j) for j in range(1, n + 1)]
    ws = [_fid("w", j) for j in range(1, n + 1)]
    F = _sum_of_poles(None, avs, vs)
    G = _sum_of_poles(None, bws, ws)
    return LaxPair(F, G, tuple(avs + vs + bws + ws), RAT, m, n)


def make_ratgp(m: int, n: int) -> LaxPair:
    """General-position rational family: constant terms a_0, b_0 plus
    simple poles."""
    _check_params(m, n)
    a0, b0 = _fid("a", 0), _fid("b", 0)
    avs = [_fid("a", i) for i in range(1, m + 1)]
    vs = [_fid("v", i) for i in range(1, m + 1)]
    bws = [_fid("b", j) for j in range(1, n + 1)]
    ws = [_fid("w", j) for j in range(1, n + 1)]
    F = _sum_of_poles(a0, avs, vs)
    G = _sum_of_poles(b0, bws, ws)
    roster = (a0, *avs, *vs, b0, *bws, *ws)
    return LaxPair(F, G, roster, RATGP, m, n)


def _sum_of_poles(const_field: FieldId | None, residues, poles) -> PRational:
    num = PPoly([JetQuotient(jet(const_field))]) if const_field else PPoly()
    den = PPoly.const(1)
    for pole in poles:
        den = den * p_minus(jet(pole))
    acc = num * den
    for res, pole in zip(residues, poles):
        part = PPoly([JetQuotient(jet(res))])
        for other in poles:
            if other is not pole:
                part = part * p_minus(jet(other))
        acc = acc + part
    return PRational(acc, den)


def make_custom(F: PRational, G: PRational, fields) -> LaxPair:
    """Arbitrary pair; roster coverage is still validated."""
    return LaxPair(F, G, tuple(fields), CUSTOM)


def make_family(family: str, m: int, n: int) -> LaxPair:
    try:
        ctor = {POLY: make_poly, RAT: make_rat, RATGP: make_ratgp}[family]
    except KeyError:
        raise ParameterError(f"unknown family {family!r}") from None
    return ctor(m, n)

