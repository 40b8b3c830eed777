"""Polynomials and rational functions of the formal indeterminate p with
jet-quotient coefficients, including the partial-fraction view whose poles
are symbolic field names assumed pairwise distinct (general position:
pole differences like w1 - v1 are treated as invertible and never tested
for vanishing)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .jetalg import (
    ONE,
    ZERO,
    DiffPoly,
    FieldId,
    Frozen,
    JetQuotient,
    PoleError,
    StructureError,
    divide_exact,
    jet,
    monomial_gcd,
    quotient_rule,
    strip_monomial,
    _as_quotient,
    _rebuild,
    _set,
)


class ParameterError(ValueError):
    """Invalid constructor or operation parameters."""


def _q(x) -> JetQuotient:
    q = _as_quotient(x)
    if q is NotImplemented:
        raise StructureError(f"not coercible to a jet quotient: {x!r}")
    return q


class PPoly(Frozen):
    """Coefficients by ascending p-degree; leading coefficient nonzero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_q(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        _set(self, "coeffs", tuple(cs))

    @staticmethod
    def const(c) -> "PPoly":
        return PPoly([_q(c)])

    @staticmethod
    def x() -> "PPoly":
        return PPoly([JetQuotient(ZERO), JetQuotient(ONE)])

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, k: int) -> JetQuotient:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return JetQuotient(ZERO)

    def __eq__(self, other):
        if not isinstance(other, PPoly):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, PPoly):
            other = PPoly.const(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return PPoly([self[k] + other[k] for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return PPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, PPoly):
            other = PPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, DiffPoly, JetQuotient)):
            c = _q(other)
            return PPoly([a * c for a in self.coeffs])
        if not isinstance(other, PPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return PPoly()
        out = [JetQuotient(ZERO)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                out[i + j] = out[i + j] + a * b
        return PPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise StructureError("negative power")
        result = PPoly.const(1)
        for _ in range(k):
            result = result * self
        return result

    def deriv(self) -> "PPoly":
        return PPoly([self.coeffs[k] * k for k in range(1, len(self.coeffs))])

    def eval_at(self, value) -> JetQuotient:
        """Horner evaluation at a jet-quotient value of p."""
        v = _q(value)
        acc = JetQuotient(ZERO)
        for c in reversed(self.coeffs):
            acc = acc * v + c
        return acc

    def map_coeffs(self, fn) -> "PPoly":
        return PPoly([fn(c) for c in self.coeffs])

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if k == 0:
                parts.append(f"({c!r})")
            elif k == 1:
                parts.append(f"({c!r})*p")
            else:
                parts.append(f"({c!r})*p^{k}")
        return " + ".join(parts)


def p_minus(value) -> PPoly:
    """The linear factor p - value."""
    return PPoly([-_q(value), JetQuotient(ONE)])


def poly_divmod(a: PPoly, b: PPoly) -> tuple[PPoly, PPoly]:
    if b.is_zero():
        raise PoleError("polynomial division by zero")
    quot = [JetQuotient(ZERO)] * max(0, a.degree() - b.degree() + 1)
    rem = list(a.coeffs)
    db, lead = b.degree(), b.coeffs[-1]
    while len(rem) - 1 >= db and rem:
        k = len(rem) - 1 - db
        c = rem[-1] / lead
        quot[k] = c
        for j in range(db + 1):
            rem[k + j] = rem[k + j] - c * b.coeffs[j]
        while rem and rem[-1].is_zero():
            rem.pop()
    return PPoly(quot), PPoly(rem)


def poly_div_exact(a: PPoly, b: PPoly) -> PPoly | None:
    q, r = poly_divmod(a, b)
    return q if r.is_zero() else None


@dataclass(frozen=True)
class PoleBlock:
    pole: FieldId
    residue: JetQuotient  # multiplies 1/(p - pole)


@dataclass(frozen=True)
class PartialFractions:
    polypart: PPoly
    poles: tuple[PoleBlock, ...]

    def reassemble(self) -> "PRational":
        return pole_sum(self.polypart, [(blk.residue, jet(blk.pole)) for blk in self.poles])


class PRational(Frozen):
    """num/den of PPoly; den nonzero with leading coefficient normalized
    to 1.  A partial-fraction view is not carried: a rational family's
    pair records its poles (LaxPair.pole_data), and partial_fraction
    computes and checks one for any other function."""

    __slots__ = ("num", "den")

    def __init__(self, num: PPoly, den: PPoly | None = None):
        if not isinstance(num, PPoly):
            num = PPoly.const(num)
        if den is None:
            den = PPoly.const(1)
        elif not isinstance(den, PPoly):
            den = PPoly.const(den)
        if den.is_zero():
            raise PoleError("zero p-denominator")
        if num.is_zero():
            num, den = PPoly(), PPoly.const(1)
        elif den.degree() == 0:
            c = den.coeffs[0]
            if not (c == 1):
                num = num * (JetQuotient(ONE) / c)
            den = PPoly.const(1)
        else:
            lead = den.coeffs[-1]
            if not (lead == 1):
                inv = JetQuotient(ONE) / lead
                num = num * inv
                den = den * inv
        _set(self, "num", num)
        _set(self, "den", den)

    @staticmethod
    def const(c) -> "PRational":
        return PRational(PPoly.const(c))

    @staticmethod
    def p() -> "PRational":
        return PRational(PPoly.x())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, DiffPoly, JetQuotient)):
            other = PRational.const(other)
        if not isinstance(other, PRational):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def __add__(self, other):
        other = _as_prational(other)
        if self.den == other.den:
            return PRational(self.num + other.num, self.den)
        # exact-divisibility alignment keeps family denominators factored
        q = poly_div_exact(other.den, self.den)
        if q is not None:
            return PRational(self.num * q + other.num, other.den)
        q = poly_div_exact(self.den, other.den)
        if q is not None:
            return PRational(self.num + other.num * q, self.den)
        return PRational(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return _rebuild(PRational, (-self.num, self.den))

    def __sub__(self, other):
        return self + (-_as_prational(other))

    def __rsub__(self, other):
        return (-self) + _as_prational(other)

    def __mul__(self, other):
        other = _as_prational(other)
        return PRational(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_prational(other)
        if other.is_zero():
            raise PoleError("division by the zero rational function")
        return PRational(self.num * other.den, self.den * other.num)

    def pdiff(self) -> "PRational":
        """Formal d/dp by the quotient rule."""
        return quotient_rule(PRational, self.num, self.den, self.num.deriv(), self.den.deriv())

    def field_ids(self) -> set[FieldId]:
        out = set()
        for c in list(self.num.coeffs) + list(self.den.coeffs):
            for jv in c.jet_variables():
                out.add(jv.field)
        return out

    def __repr__(self):
        if self.den.degree() == 0 and not self.den.is_zero():
            return repr(self.num)
        return f"[{self.num!r}] / [{self.den!r}]"


def _as_prational(x) -> PRational:
    if isinstance(x, PRational):
        return x
    if isinstance(x, PPoly):
        return PRational(x)
    if isinstance(x, (int, Fraction, DiffPoly, JetQuotient)):
        return PRational.const(x)
    raise StructureError(f"not coercible to PRational: {x!r}")


def collect(r: PRational) -> tuple[PPoly, PPoly]:
    """Bring a rational function of p to one fraction whose coefficients
    have jet denominator 1, with shared monomial content removed."""
    mult = ONE
    for c in list(r.num.coeffs) + list(r.den.coeffs):
        if c.den == ONE:
            continue
        if divide_exact(mult, c.den) is None:
            mult = mult * c.den
    mq = JetQuotient(mult)
    num = [c * mq for c in r.num.coeffs]
    den = [c * mq for c in r.den.coeffs]
    for c in num + den:
        if not (c.den == ONE):
            raise StructureError("denominator clearing failed")
    mono = monomial_gcd(*(c.num for c in num + den if not c.num.is_zero()))
    if mono:
        num = [JetQuotient(strip_monomial(c.num, mono)) if not c.num.is_zero() else c for c in num]
        den = [JetQuotient(strip_monomial(c.num, mono)) if not c.num.is_zero() else c for c in den]
    return PPoly(num), PPoly(den)


def pole_sum(polypart: PPoly, terms) -> PRational:
    """polypart + sum residue/(p - pole) over the (residue, pole) values
    of terms, over the product of the poles' linear factors: the poles
    are distinct, so no factor divides the denominator before it.  A zero
    residue adds nothing."""
    num, den = polypart, PPoly.const(1)
    for res, pole in terms:
        res = PPoly([res])
        if not res.is_zero():
            num, den = num * p_minus(pole) + res * den, den * p_minus(pole)
    return PRational(num, den)


def partial_fraction(r: PRational, poles: list[FieldId]) -> PartialFractions:
    """The partial-fraction view of r over the given simple symbolic poles:
    the residue at a pole P is rem(P)/D'(P), rem the remainder of the
    numerator modulo the denominator D.  The view is checked by exact
    reassembly.  The engine reads a rational family's view off its pair
    instead; this computes one for any function (the tests' oracle)."""
    polypart, rem = poly_divmod(r.num, r.den)
    dden = r.den.deriv()
    blocks = []
    for fid in poles:
        pole_val = _q(jet(fid))
        d_at = dden.eval_at(pole_val)
        if d_at.is_zero():
            raise ParameterError(f"{fid.name} is not a simple pole")
        blocks.append(PoleBlock(fid, rem.eval_at(pole_val) / d_at))
    pf = PartialFractions(polypart, tuple(blocks))
    if not (pf.reassemble() == r):
        raise ParameterError("partial fractions do not reassemble; pole list incomplete?")
    return pf
