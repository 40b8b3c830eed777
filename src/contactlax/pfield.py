"""Polynomials of the formal indeterminate p with jet-quotient
coefficients, and the rational functions num/den of them that a Lax
pair's F and G are: built, compared and brought to one fraction by
`collect`, with no arithmetic between them.  Poles are symbolic field
names assumed pairwise distinct (general position: pole differences like
w1 - v1 are treated as invertible and never tested for vanishing)."""

from __future__ import annotations

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
    monomial_gcd,
    strip_monomial,
    _as_quotient,
    _set,
)


class ParameterError(ValueError):
    """Invalid constructor or operation parameters."""


# the integrator's errors live here, beside ParameterError, so that the
# command line can map them to exit codes without importing NumPy


class CompileError(RuntimeError):
    pass


class PoleProximityError(RuntimeError):
    def __init__(self, step, dist, guard):
        super().__init__(f"pole proximity at step {step}: min distance {dist:.3e} < guard {guard:.3e}")
        self.step, self.dist, self.guard = step, dist, guard


class NumericAbortError(RuntimeError):
    pass


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


class PRational(Frozen):
    """num/den of PPoly; den nonzero with leading coefficient normalized
    to 1.  An immutable value that the pair, the two derivation paths
    and the gauge maps build and compare; it has no arithmetic.  A
    rational family's pair records its poles and residues
    (LaxPair.pole_data), which the engine reads instead of a partial
    fraction of num/den."""

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
