"""Exact differential-polynomial algebra over jet variables.

A jet variable is a field symbol together with a derivative multi-index
over the four independent variables (slot order x, y, z, t; the same
slots are read as X, Y, Z, T after the change to evolution form).
DiffPoly is the universal expression value: a sparse multivariate
polynomial in jet variables with exact rational coefficients.
JetQuotient is the corresponding fraction; its normalization cancels
monomial content and whole-denominator factors only, never a general
multivariate gcd, so equality testing cross-multiplies.  The spectral
parameter p of a Lax pair is the jet P, of role PARAMETER, which total
derivatives hold fixed: a pair's F and G are quotients in it, and
p_coefficients reads a quotient's coefficients by p-degree.

All values are immutable once built and every operation is a pure
function, so values can be shared freely between workers.
"""

from __future__ import annotations

import heapq
import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import itemgetter, or_
from types import MappingProxyType

DIRS = ("x", "y", "z", "t")
_AXIS = {"x": 0, "y": 1, "z": 2, "t": 3, "X": 0, "Y": 1, "Z": 2, "T": 3}
ZERO_INDEX = (0, 0, 0, 0)

FIELD = "field"
POTENTIAL = "potential"
WAVE = "wave-function"
PARAMETER = "parameter"


class StructureError(ValueError):
    """Malformed expression tree or non-terminating rewrite."""


class CoverageError(LookupError):
    """A jet variable had no substitution rule or point value."""


class PoleError(ZeroDivisionError):
    """A denominator evaluated to zero."""


@dataclass(frozen=True)
class FieldId:
    name: str
    role: str = FIELD

    def __repr__(self):
        return self.name


@dataclass(frozen=True)
class JetVariable:
    field: FieldId
    d: tuple[int, int, int, int] = ZERO_INDEX

    def __repr__(self):
        if self.d == ZERO_INDEX:
            return self.field.name
        suffix = "".join(DIRS[ax] * k for ax, k in enumerate(self.d))
        return f"{self.field.name}_{suffix}"


def jet_sort_key(jv: JetVariable) -> tuple:
    """The canonical jet order: field name, role, multi-index."""
    return jv.field.name, jv.field.role, jv.d


# Global interner.  A monomial key is one int: jet id i owns bits
# [8i, 8i + 8), seven exponent bits under a guard bit, and the unit
# monomial is 0, so a product of monomials is the sum of their keys.
# _GUARD holds the guard bit of every interned id: a product overflows
# exactly when it has a guard bit set, and d divides m (both free of
# guard bits, as every stored key is) exactly when m - d borrows from no
# byte, which would set that byte's guard bit.  An
# exponent above _MAX_EXP raises StructureError; it never wraps.  Ids are
# assigned in the order jets are first met in the process and never
# reused, so keys stay valid.  Emitted expressions depend on that
# interning order in three ways: a term lists its factors in id order;
# terms are sorted by those id-ordered factor lists (each factor compared
# by jet_sort_key), so a*c + b prints as b + c*a once c was interned
# before a; and a quotient's denominator is made monic at its leading
# term in the graded order of _graded_key, whose ties fall to jet ids, so
# c/(2a + 3b) becomes (1/2 c)/(a + 3/2 b) or (1/3 c)/(2/3 a + b).
# Pickles carry the jets themselves (DiffPoly.__reduce__).
_JET_IDS: dict[JetVariable, int] = {}
_JETS: list[JetVariable] = []
_JET_SORT: list[tuple] = []
_GUARD = 0
_MAX_EXP = 127


def _jet_id(jv: JetVariable) -> int:
    global _GUARD
    i = _JET_IDS.get(jv)
    if i is None:
        # validate before interning: a half-written entry would shift
        # every later jet's sort key
        d = jv.d
        if not (isinstance(jv.field, FieldId) and isinstance(d, tuple) and len(d) == 4
                and all(isinstance(k, int) and k >= 0 for k in d)):
            raise StructureError(f"not a jet of a field: {jv.field!r} with multi-index {d!r}")
        i = len(_JETS)
        _JET_IDS[jv] = i
        _JETS.append(jv)
        _JET_SORT.append(jet_sort_key(jv))
        _GUARD |= 0x80 << (i << 3)
    return i


# the spectral parameter, interned before any other jet: its exponent is
# the lowest byte of every key, and every other jet keeps its relative
# id order, so no emitted expression depends on it
P = JetVariable(FieldId("p", PARAMETER))
_jet_id(P)


def _axis(direction) -> int:
    if isinstance(direction, int):
        if 0 <= direction <= 3:
            return direction
        raise StructureError(f"bad axis {direction}")
    try:
        return _AXIS[direction]
    except KeyError:
        raise StructureError(f"bad direction {direction!r}") from None


def _coeff(c):
    """Keep integers as int (fast path); Fractions only when non-integral."""
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise StructureError(f"coefficient must be an exact rational, got {type(c)}")


def _factors(m: int) -> list[tuple[int, int]]:
    """The (jet id, exponent) factors of a monomial key, ids ascending.
    The top byte is peeled off first: it needs no mask."""
    out = []
    while m:
        s = (m.bit_length() - 1) & -8
        e = m >> s
        out.append((s >> 3, e))
        m -= e << s
    out.reverse()
    return out


def _check_exponents(terms) -> None:
    """Raise StructureError when a key of terms has an exponent above
    _MAX_EXP (a guard bit set)."""
    if reduce(or_, terms, 0) & _GUARD:
        raise StructureError(f"jet exponent above {_MAX_EXP}")


def _graded_key(nbytes: int):
    """Sort key of the graded order on keys of at most nbytes bytes:
    total degree, then the exponent vector over ascending jet ids,
    compared lexicographically; larger is higher.  The order is compatible
    with monomial multiplication."""

    def key(m: int):
        exps = m.to_bytes(nbytes, "little")
        return sum(exps), exps

    return key


def _sorted_terms(terms: dict) -> tuple[list, list]:
    """The jet ids of terms by rank, and the terms as (codes, coeff) rows
    sorted by their code lists.  A jet's rank is its place in
    jet_sort_key order among the jets of terms; a factor's code is
    rank << 7 | exponent (exponents stay below 128), and a row lists its
    codes in jet-id order, so rows compare as lists of (jet_sort_key,
    exponent) pairs would."""
    ids = sorted((i for i, _ in _factors(reduce(or_, terms, 0))), key=_JET_SORT.__getitem__)
    rank = {i << 3: r << 7 for r, i in enumerate(ids)}  # bit offset -> rank << 7
    codes = {}  # one-factor key -> its code, for this call only
    rows = []
    for m, c in terms.items():
        fs = []
        while m:  # as in _factors
            s = (m.bit_length() - 1) & -8
            f = (m >> s) << s
            m -= f
            code = codes.get(f)
            if code is None:
                code = codes[f] = rank[s] | f >> s
            fs.append(code)
        fs.reverse()
        rows.append((fs, c))
    rows.sort(key=itemgetter(0))
    return ids, rows


_set = object.__setattr__


class Frozen:
    """A slotted value whose slots are filled once, at construction
    (``_set``), so a value shared through a cache cannot be changed."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} values are read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return _rebuild, (type(self), tuple(getattr(self, s) for s in self.__slots__))


def _rebuild(cls, values):
    obj = object.__new__(cls)
    for s, v in zip(cls.__slots__, values):
        _set(obj, s, v)
    return obj


class DiffPoly(Frozen):
    """Normal form: {monomial key: nonzero coeff}; the zero polynomial is {}."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict | None = None):
        _set(self, "_terms", terms if terms is not None else {})

    @property
    def terms(self):
        """Read-only view of the normal form."""
        return MappingProxyType(self._terms)

    def __reduce__(self):
        # jet ids are local to a process: pickle the jets themselves
        return _from_factors, (
            tuple((c, tuple((_JETS[i], k) for i, k in _factors(m))) for m, c in self._terms.items()),
        )

    # -- construction -------------------------------------------------

    @staticmethod
    def const(c) -> "DiffPoly":
        c = _coeff(c if isinstance(c, (int, Fraction)) else Fraction(c))
        return DiffPoly({0: c} if c != 0 else {})

    @staticmethod
    def from_jet(jv: JetVariable, power: int = 1) -> "DiffPoly":
        if power < 0:
            raise StructureError("negative power")
        if power == 0:
            return ONE
        if power > _MAX_EXP:
            raise StructureError(f"jet exponent above {_MAX_EXP}")
        return DiffPoly({power << (_jet_id(jv) << 3): 1})

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if isinstance(other, DiffPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self._terms == DiffPoly.const(other)._terms
        return NotImplemented

    __hash__ = None

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DiffPoly.const(other)
        elif not isinstance(other, DiffPoly):
            return NotImplemented
        return _plus(self, other, False)

    __radd__ = __add__

    def __neg__(self):
        return DiffPoly({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DiffPoly.const(other)
        elif not isinstance(other, DiffPoly):
            return NotImplemented
        return _plus(self, other, True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            if c == 0:
                return ZERO
            if c == 1:
                return self
            return DiffPoly({m: cc * c for m, cc in self._terms.items()})
        if not isinstance(other, DiffPoly):
            return NotImplemented
        a, b = (self, other) if len(self._terms) <= len(other._terms) else (other, self)
        t1, t2 = a._terms, b._terms
        if not t1:
            return ZERO
        if len(t1) == 1:  # a monomial times t2: no two keys collide
            # a product with the unit is the other operand: values are read-only
            if t1 == ONE._terms:
                return b
            if t2 == ONE._terms:
                return a
            (m1, c1), = t1.items()
            out = {m1 + m2: c1 * c2 for m2, c2 in t2.items()}
            _check_exponents(out)
            return DiffPoly(out)
        return sum_of_products(((self, other),))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise StructureError("powers must be non-negative integers")
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise PoleError("division by zero")
            return self * (Fraction(1) / Fraction(other))
        if isinstance(other, DiffPoly):
            return JetQuotient(self, other)
        if isinstance(other, JetQuotient):
            return JetQuotient(self) / other
        return NotImplemented

    # -- views -----------------------------------------------------------

    def jet_variables(self):
        return sorted((_JETS[i] for i, _ in _factors(reduce(or_, self._terms, 0))), key=jet_sort_key)

    def monomials(self):
        """(coeff, ((JetVariable, power), ...)) view: the factors of a
        term in jet-id order, and the terms sorted by those factor lists,
        so both orders depend on the interning order of the process."""
        ids, rows = _sorted_terms(self._terms)
        for codes, c in rows:
            yield Fraction(c), tuple((_JETS[ids[k >> 7]], k & _MAX_EXP) for k in codes)

    def leading(self):
        """Term maximal in the graded order of _graded_key."""
        terms = self._terms
        if not terms:
            return None
        m = max(terms, key=_graded_key((max(terms).bit_length() + 7) >> 3))
        return m, terms[m]

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for c, factors in self.monomials():
            fac = "*".join(f"{jv}^{p}" if p > 1 else f"{jv}" for jv, p in factors)
            if not fac:
                parts.append(f"{c}")
            elif c == 1:
                parts.append(fac)
            elif c == -1:
                parts.append(f"-{fac}")
            else:
                parts.append(f"{c}*{fac}")
        return " + ".join(parts).replace("+ -", "- ")


def _add_term(out: dict, m: int, c) -> None:
    """out[m] += c on a term dict, deleting the entry when it cancels."""
    acc = out.get(m)
    if acc is None:
        out[m] = c
    else:
        acc = acc + c
        if acc == 0:
            del out[m]
        else:
            out[m] = acc


def _plus(a: DiffPoly, b: DiffPoly, sub: bool) -> DiffPoly:
    """a + b, or a - b when sub, in one pass over b's terms: each is added
    into (or subtracted from) a copy of a's, and deleted when it cancels."""
    if not b._terms:
        return a
    if not a._terms:
        return -b if sub else b
    out = dict(a._terms)
    get = out.get
    for m, c in b._terms.items():
        acc = get(m)
        if acc is None:
            out[m] = -c if sub else c
        else:
            acc = acc - c if sub else acc + c
            if acc:
                out[m] = acc
            else:
                del out[m]
    return DiffPoly(out)


def sum_of_products(pairs) -> DiffPoly:
    """sum(a * b for a, b in pairs), every product of two terms added
    into one dict, so no product is built on its own.  Each pair loops
    over its shorter operand outside, as a * b does."""
    out = {}
    get = out.get
    for a, b in pairs:
        t1, t2 = a._terms, b._terms
        if len(t1) > len(t2):
            t1, t2 = t2, t1
        for m1, c1 in t1.items():
            for m2, c2 in t2.items():
                key = m1 + m2
                acc = get(key)
                if acc is None:
                    out[key] = c1 * c2
                else:
                    acc += c1 * c2
                    if acc == 0:
                        del out[key]
                    else:
                        out[key] = acc
    _check_exponents(out)
    return DiffPoly(out)


ZERO = DiffPoly({})
ONE = DiffPoly({0: 1})


def _from_factors(terms) -> DiffPoly:
    """Rebuild a pickled DiffPoly, interning its jets in this process."""
    return DiffPoly({sum(p << (_jet_id(jv) << 3) for jv, p in factors): c for c, factors in terms})


def jet(field: FieldId, d: tuple[int, int, int, int] = ZERO_INDEX) -> DiffPoly:
    return DiffPoly.from_jet(JetVariable(field, tuple(d)))


# -- content / primitive part / exact division -------------------------


def monomial_gcd(*polys: DiffPoly) -> int:
    """The monomial gcd of all terms of the given nonzero polynomials,
    scanned in order; the scan stops at the first term that leaves it 1.
    Each step takes the bytewise minimum: a byte of m replaces the byte of
    the gcd where it is no larger."""
    guard = _GUARD
    common = None
    for e in polys:
        for m in e._terms:
            if common is None:
                common = m
            else:
                no_larger = (((common | guard) - m) & guard) >> 7
                common ^= (common ^ m) & (no_larger * 0xFF)
            if not common:
                return 0
    return common or 0


def content(*polys: DiffPoly):
    """(rational content, common monomial) of nonzero polynomials, taken
    together."""
    if not polys or any(e.is_zero() for e in polys):
        raise StructureError("zero polynomial has no content")
    coeffs = [c for e in polys for c in e._terms.values()]
    rat = Fraction(math.gcd(*(c.numerator for c in coeffs)), math.lcm(*(c.denominator for c in coeffs)))
    return rat, monomial_gcd(*polys)


def strip_monomial(e: DiffPoly, mono: int) -> DiffPoly:
    if not mono:
        return e
    guard = _GUARD
    out = {}
    for m, c in e._terms.items():
        q = m - mono
        if q & guard:  # a byte borrowed
            raise StructureError("monomial does not divide every term")
        out[q] = c
    return DiffPoly(out)


def primitive(e: DiffPoly):
    """Strip rational and monomial content and fix the sign so the leading
    term is positive.  Returns (primitive part, rational scale, monomial)
    with e == scale * monomial * primitive part.  When the content is
    integral, so is every coefficient, and it is divided out in integers."""
    if e.is_zero():
        return e, Fraction(1), 0
    rat, mono = content(e)
    out = strip_monomial(e, mono)
    lead = out.leading()
    if lead[1] < 0:
        rat = -rat
    if rat.denominator != 1:
        scale = Fraction(1) / rat
        out = DiffPoly({m: _coeff(Fraction(c) * scale) for m, c in out._terms.items()})
    elif rat == -1:
        out = -out
    elif rat != 1:
        k = rat.numerator
        out = DiffPoly({m: c // k for m, c in out._terms.items()})
    return out, rat, mono


def divide_exact(a: DiffPoly, b: DiffPoly):
    """Exact polynomial division a/b; None when b does not divide a.

    The remainder's monomials sit in a heap ordered by the keys as plain
    ints, which is lex order with the highest jet id first (heap division,
    Johnson 1974; Monagan & Pearce 2011).  A monomial is pushed (negated)
    when it enters the remainder; a popped monomial that has since
    cancelled is skipped.  No cancelled monomial can come back above the
    current leading term, so each pop yields the remainder's leading term.
    Exact quotients are unique, so the answer does not depend on the
    order; the quotient's terms are listed in the graded order of
    _graded_key, highest first.  When b divides a, no quotient exponent
    exceeds a's degree in that jet, so a quotient term with a guard bit
    set proves that b does not, as a borrow does.  A quotient term free of
    guard bits plus a term of b cannot carry out of a byte, so remainder
    keys stay exact."""
    if b.is_zero():
        raise PoleError("division by the zero polynomial")
    if a.is_zero():
        return ZERO
    guard = _GUARD
    bl_m = max(b._terms)  # leading in int order
    # int order is a monomial order, so a multiple of b has as its
    # int-largest and int-smallest terms those of b times those of the
    # quotient: both extreme terms of b must divide those of a
    if (max(a._terms) - bl_m) & guard or (min(a._terms) - min(b._terms)) & guard:
        return None
    inv = _coeff(1 / Fraction(b._terms[bl_m]))
    rest = [(m2, c2) for m2, c2 in b._terms.items() if m2 != bl_m]
    rem = dict(a._terms)
    heap = [-m for m in rem]
    heapq.heapify(heap)
    quot = {}
    while rem:
        best = -heapq.heappop(heap)
        c = rem.pop(best, None)
        if c is None:
            continue
        qm = best - bl_m
        if qm & guard:  # a byte borrowed, or an exponent past _MAX_EXP
            return None
        qc = _coeff(c * inv)
        quot[qm] = qc
        for m2, c2 in rest:
            key = qm + m2
            acc = rem.get(key)
            if acc is None:
                rem[key] = -qc * c2
                heapq.heappush(heap, -key)
            else:
                acc -= qc * c2
                if acc == 0:
                    del rem[key]
                else:
                    rem[key] = acc
    graded = _graded_key((next(iter(quot)).bit_length() + 7) >> 3)  # the first term is the largest int
    return DiffPoly({m: quot[m] for m in sorted(quot, key=graded, reverse=True)})


# -- quotients ----------------------------------------------------------


def _normalized(num: DiffPoly, den: DiffPoly) -> tuple[DiffPoly, DiffPoly]:
    if num.is_zero():
        return ZERO, ONE
    if den._terms == ONE._terms:
        return num, den
    # shared monomial content; the denominator first, since it is
    # usually the shorter and often has none
    mono = monomial_gcd(den, num)
    if mono:
        num = strip_monomial(num, mono)
        den = strip_monomial(den, mono)
    if len(den._terms) == 1:
        # monomial denominator: after content cancellation nothing
        # else can cancel except the coefficient
        (m, c), = den._terms.items()
        scale = Fraction(1) / Fraction(c)
        return num * scale, DiffPoly({m: 1}) if m else ONE
    q = divide_exact(num, den)
    if q is not None:
        return q, ONE
    lead = den.leading()
    if lead[1] != 1:
        scale = Fraction(1) / Fraction(lead[1])
        num = num * scale
        den = den * scale
    return num, den


class JetQuotient(Frozen):
    """num/den of DiffPoly.  Normalization: cancels shared monomial
    content, makes the denominator's leading coefficient 1, and collapses
    to den == 1 when the denominator divides the numerator exactly."""

    __slots__ = ("num", "den")

    def __init__(self, num: DiffPoly, den: DiffPoly | None = None):
        if isinstance(num, (int, Fraction)):
            num = DiffPoly.const(num)
        if den is None:
            den = ONE
        elif isinstance(den, (int, Fraction)):
            den = DiffPoly.const(den)
        if den.is_zero():
            raise PoleError("zero denominator")
        num, den = _normalized(num, den)
        _set(self, "num", num)
        _set(self, "den", den)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, DiffPoly)):
            other = JetQuotient(other if isinstance(other, DiffPoly) else DiffPoly.const(other))
        if not isinstance(other, JetQuotient):
            return NotImplemented
        if self.den._terms == other.den._terms:
            return self.num._terms == other.num._terms
        return (self.num * other.den)._terms == (other.num * self.den)._terms

    __hash__ = None

    def _combine(self, other, sub: bool):
        """self + other, or self - other when sub: over one denominator the
        numerators are combined and normalized once."""
        other = _as_quotient(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den._terms == other.den._terms:
            return JetQuotient(_plus(self.num, other.num, sub), self.den)
        return JetQuotient(_plus(self.num * other.den, other.num * self.den, sub), self.den * other.den)

    def __add__(self, other):
        return self._combine(other, False)

    __radd__ = __add__

    def __neg__(self):
        return _rebuild(JetQuotient, (-self.num, self.den))

    def __sub__(self, other):
        return self._combine(other, True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_quotient(other)
        if other is NotImplemented:
            return NotImplemented
        return JetQuotient(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_quotient(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise PoleError("division by zero quotient")
        return JetQuotient(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _as_quotient(other) / self

    def __pow__(self, k: int):
        if k < 0:
            if self.num.is_zero():
                raise PoleError("zero to a negative power")
            return JetQuotient(self.den ** (-k), self.num ** (-k))
        return JetQuotient(self.num ** k, self.den ** k)

    def jet_variables(self):
        seen = {jv for jv in self.num.jet_variables()}
        seen.update(self.den.jet_variables())
        return sorted(seen, key=jet_sort_key)

    def __repr__(self):
        if self.den._terms == ONE._terms:
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"


def _as_quotient(x):
    if isinstance(x, JetQuotient):
        return x
    if isinstance(x, DiffPoly):
        return _rebuild(JetQuotient, (x, ONE))
    if isinstance(x, (int, Fraction)):
        return JetQuotient(DiffPoly.const(x))
    return NotImplemented


# -- total derivatives ----------------------------------------------------


def total_derivative(e: DiffPoly, direction) -> DiffPoly:
    """Total derivative: bumps jet multi-indices via Leibniz and the chain
    rule; a parameter's jet is constant."""
    ax = _axis(direction)
    out = {}
    step = {}  # jet id -> key of (its bumped jet) / (itself)
    for m, c in e._terms.items():
        for jid, pw in _factors(m):
            u = step.get(jid)
            if u is None:
                jv = _JETS[jid]
                d = list(jv.d)
                d[ax] += 1
                u = step[jid] = 0 if jv.field.role == PARAMETER else (
                    (1 << (_jet_id(JetVariable(jv.field, tuple(d))) << 3)) - (1 << (jid << 3)))
            if u:
                _add_term(out, m + u, c * pw)
    _check_exponents(out)
    return DiffPoly(out)


def total_derivative_q(q: JetQuotient | DiffPoly, direction) -> JetQuotient:
    """The quotient rule (num' den - num den') / den^2, or num' / den
    when the denominator's derivative is zero."""
    if isinstance(q, DiffPoly):
        return JetQuotient(total_derivative(q, direction))
    dnum, dden = total_derivative(q.num, direction), total_derivative(q.den, direction)
    if dden.is_zero():
        return JetQuotient(dnum, q.den)
    return JetQuotient(dnum * q.den - q.num * dden, q.den * q.den)


def partial(e: DiffPoly, jv: JetVariable) -> DiffPoly:
    """The partial derivative of e by the jet jv."""
    s = _jet_id(jv) << 3
    return DiffPoly({m - (1 << s): c * k for m, c in e._terms.items() if (k := (m >> s) & 0xFF)})


# -- substitution ----------------------------------------------------------


def _match_base(jv: JetVariable, bases):
    best = None
    best_key = None
    for b in bases:
        if all(jd >= bd for jd, bd in zip(jv.d, b.d)):
            key = (sum(b.d), b.d)
            if best is None or key > best_key:
                best, best_key = b, key
    return best


def _prolonged(base: JetVariable, d: tuple, rules_q, cache) -> JetQuotient:
    key = (base, d)
    got = cache.get(key)
    if got is not None:
        return got
    if d == base.d:
        q = rules_q[base]
    else:
        for ax in range(4):
            if d[ax] > base.d[ax]:
                prev = list(d)
                prev[ax] -= 1
                q = total_derivative_q(_prolonged(base, tuple(prev), rules_q, cache), ax)
                break
    cache[key] = q
    return q


def _replace_jets(poly: DiffPoly, fn):
    """The one jet-replacement kernel: fn maps each distinct jet, in order
    of first occurrence, to its replacement (a DiffPoly or JetQuotient)
    or None.  Returns (num, den), poly with the jets replaced as one
    fraction, or None when nothing is replaced.  den is the product of
    the distinct replacement denominators, compared as polynomials, each
    to the largest power that a group of terms needs; terms are grouped
    by their powers of the replaced jets, and num sums, in one
    sum_of_products, each group's cofactor times its replacement
    numerators' powers and the part of den its own powers leave out."""
    repl = {}
    unseen = -1  # a mask with a 0 byte for every jet already mapped
    for m in poly._terms:
        new = m & unseen
        if new:
            for jid, _ in _factors(new):
                repl[jid] = fn(_JETS[jid])
                unseen ^= 0xFF << (jid << 3)
    ids = sorted(jid for jid, r in repl.items() if r is not None)
    if not ids:
        return None
    dens, slots = [], []  # the distinct denominators but 1, and each jet's place in dens (None for 1)
    for jid in ids:
        r = repl[jid] = _as_quotient(repl[jid])
        k = None if r.den._terms == ONE._terms else next(
            (k for k, d in enumerate(dens) if d._terms == r.den._terms), len(dens))
        if k == len(dens):
            dens.append(r.den)
        slots.append(k)
    groups = decompose_by_jets(poly, [_JETS[jid] for jid in ids])
    needs = {pows: [sum(pw for k, pw in zip(slots, pows) if k == i) for i in range(len(dens))] for pows in groups}
    top = [max(col) for col in zip(*needs.values())]
    pairs = []
    for pows, rest in groups.items():
        fs = [repl[jid].num ** pw for jid, pw in zip(ids, pows) if pw]
        fs += [d ** (t - n) for d, t, n in zip(dens, top, needs[pows]) if t > n]
        pairs.append((rest, math.prod(fs, start=ONE)))
    return sum_of_products(pairs), math.prod((d ** t for d, t in zip(dens, top)), start=ONE)


def substitute(e: DiffPoly | JetQuotient, rules: dict) -> JetQuotient:
    """Replace jets matching the rules.  A rule maps a base jet to its
    replacement; jets above a base are rewritten by total differentiation
    of the rule (prolongation).  Jets of a ruled field lying below every
    base are left untouched.  The replacement is one simultaneous pass:
    the output is not rescanned, so {u: v, v: w} takes u to v.  Numerator
    and denominator each come back as one fraction (_replace_jets), and
    the result is the one quotient they make, normalized once."""
    rules_q = {base: _as_quotient(rhs) for base, rhs in rules.items()}
    by_field: dict[FieldId, list] = {}
    for base in rules_q:
        by_field.setdefault(base.field, []).append(base)
    cache: dict = {}

    def rule(jv):
        b = _match_base(jv, by_field.get(jv.field, ()))
        return None if b is None else _prolonged(b, jv.d, rules_q, cache)

    q = _as_quotient(e)
    num, den = (_replace_jets(part, rule) for part in (q.num, q.den))
    if num is None and den is None:
        return q
    (n1, d1), (n2, d2) = num or (q.num, ONE), den or (q.den, ONE)
    return JetQuotient(n1 * d2, d1 * n2)


# -- structural decomposition ------------------------------------------------


def jets_of_field(e: DiffPoly, field: FieldId) -> set:
    return {jv for jv in e.jet_variables() if jv.field == field}


def decompose_by_jets(e: DiffPoly, jets: list[JetVariable]) -> dict[tuple, DiffPoly]:
    """Group terms by the exponent vector of the given jets; values are
    the residual polynomials with those factors removed.  Groups and the
    terms in each keep the order of first occurrence in e."""
    shifts = [_jet_id(jv) << 3 for jv in jets]
    mask = 0
    for s in shifts:
        mask |= 0xFF << s
    out: dict[int, dict] = {}  # the selected factors' key -> terms
    for m, c in e._terms.items():
        sel = m & mask
        out.setdefault(sel, {})[m ^ sel] = c
    return {tuple((sel >> s) & 0xFF for s in shifts): DiffPoly(v) for sel, v in out.items()}


def map_jets(e: DiffPoly, fn) -> DiffPoly:
    """Simultaneous one-pass replacement of jet variables by polynomials;
    fn returns None to keep a jet.  Like substitute(), the output is not
    rescanned, so self-referential maps (a change of independent
    variables reusing the same index slots) are safe; unlike it, there is
    no prolongation, and every denominator being 1, the result stays a
    polynomial: _replace_jets's numerator."""
    out = _replace_jets(e, fn)
    return e if out is None else out[0]


def p_of_slope(e: DiffPoly, top: JetVariable, bottom: JetVariable | None = None) -> tuple[DiffPoly, set]:
    """e with each term's top^j bottom^k replaced by P^j, in one pass over
    the terms (P is jet id 0, so P^j adds j to a key), and the set of the
    grades j + k met.  Without bottom, k is 0."""
    sx = _jet_id(top) << 3
    sz = _jet_id(bottom) << 3 if bottom else 0
    mz = 0xFF << sz if bottom else 0  # bottom's byte
    out, grades = {}, set()
    for m, c in e._terms.items():
        j, z = (m >> sx) & 0xFF, m & mz
        grades.add(j + (z >> sz))
        _add_term(out, m - (j << sx) - z + j, c)  # terms meet when e has P in it or mixes grades
    _check_exponents(out)
    return DiffPoly(out), grades


def linear_coefficient(e: DiffPoly, jv: JetVariable) -> tuple[DiffPoly, DiffPoly]:
    """Split e == coeff * jv + rest, requiring e linear in jv."""
    parts = decompose_by_jets(e, [jv])
    if any(pows[0] > 1 for pows in parts):
        raise StructureError(f"not linear in {jv!r}")
    return parts.get((1,), ZERO), parts.get((0,), ZERO)


def p_coefficients(q: JetQuotient) -> tuple[list[DiffPoly], list[DiffPoly]]:
    """The coefficients of q's numerator and denominator by ascending
    degree in P, as one fraction: the denominator made monic at its top
    coefficient, jet denominators then cleared by the product of those
    that do not divide it already, in coefficient order, and the
    monomial content the coefficients share removed.  Zero reads
    ([], [1])."""
    if q.is_zero():
        return [], [ONE]
    num, den = ([parts.get((k,), ZERO) for k in range(max(parts)[0] + 1)]
                for parts in (decompose_by_jets(e, [P]) for e in (q.num, q.den)))
    lead = den[-1]
    cs = [JetQuotient(c, lead) for c in num + den]
    mult = ONE
    for c in cs:
        if c.den != ONE and divide_exact(mult, c.den) is None:
            mult = mult * c.den
    cs = [JetQuotient(c.num * mult, c.den) for c in cs]
    if any(c.den != ONE for c in cs):
        raise StructureError("denominator clearing failed")
    mono = monomial_gcd(*(c.num for c in cs if c))
    cs = [strip_monomial(c.num, mono) for c in cs]
    return cs[:len(num)], cs[len(num):]


# -- evaluation -------------------------------------------------------------


PRIME = 2 ** 61 - 1


def evaluate_mod(e: DiffPoly | JetQuotient, point: dict) -> int:
    """The value in GF(PRIME) of e at a point mapping JetVariable -> int.
    Each factor (one jet to a power) is raised once, and each product is
    reduced as it grows.  Raises CoverageError when the point has no value
    for a jet, and PoleError when the denominator, or the denominator of a
    rational coefficient, is 0 mod PRIME."""
    if isinstance(e, JetQuotient):
        den = evaluate_mod(e.den, point)
        if den == 0:
            raise PoleError("denominator vanishes mod p at the point")
        return evaluate_mod(e.num, point) * pow(den, -1, PRIME) % PRIME
    powers = {}  # key of a factor -> its value
    total = 0
    for m, c in e._terms.items():
        if not isinstance(c, int):
            d = c.denominator % PRIME
            if d == 0:
                raise PoleError("coefficient denominator vanishes mod p")
            c = c.numerator * pow(d, -1, PRIME)
        while m:  # the factors, top byte first, as in _factors
            s = (m.bit_length() - 1) & -8
            f = (m >> s) << s
            m -= f
            x = powers.get(f)
            if x is None:
                jv = _JETS[s >> 3]
                if jv not in point:
                    raise CoverageError(f"no value for {jv!r}")
                x = powers[f] = pow(point[jv], f >> s, PRIME)
            c = c * x % PRIME
        total += c
    return total % PRIME


# -- expression trees (JSON wire format) ------------------------------------


def _frac_str(c) -> str:
    f = Fraction(c)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


# what _frac_str writes: an integer or p/q, in ASCII digits
_FRAC_LITERAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _parse_frac(s: str) -> Fraction:
    """The literal s, refused unless _frac_str could have written it: a
    decimal or exponent form such as 1e99999999 would cost its full
    integer to build."""
    if not _FRAC_LITERAL.fullmatch(s):
        raise StructureError(f"bad rational literal {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise StructureError(f"bad rational literal {s!r}") from exc


def from_tree(node, fields: dict[str, FieldId] | None = None) -> DiffPoly:
    """Normalize a raw expression tree of +, *, integer powers, rationals
    and jet variables into the unique normal form."""
    if not isinstance(node, dict) or "op" not in node:
        raise StructureError(f"malformed node: {node!r}")
    op = node["op"]
    if op == "num":
        return DiffPoly.const(_parse_frac(str(node["value"])))
    if op == "jet":
        name = node["field"]
        d = node.get("d", [0, 0, 0, 0])
        if not isinstance(d, (list, tuple)) or any(isinstance(k, int) and k > _MAX_EXP for k in d):
            raise StructureError(f"bad multi-index {d!r}")
        fid = fields.get(name) if fields else None
        if fid is None:
            fid = FieldId(name)
        return jet(fid, tuple(d))
    if op in ("add", "mul"):
        args = node.get("args")
        if not isinstance(args, list) or not args:
            raise StructureError(f"{op} needs a nonempty args list")
        if op == "add":
            out = {}
            for a in args:
                for m, c in from_tree(a, fields)._terms.items():
                    _add_term(out, m, c)
            return DiffPoly(out)
        acc = from_tree(args[0], fields)
        for a in args[1:]:
            acc = acc * from_tree(a, fields)
        return acc
    if op == "pow":
        exp = node.get("exp")
        if not isinstance(exp, int) or exp < 0:
            raise StructureError(f"bad exponent {exp!r}")
        # also for a constant base, which no jet exponent bounds
        if exp > _MAX_EXP:
            raise StructureError(f"jet exponent above {_MAX_EXP}")
        return from_tree(node["base"], fields) ** exp
    raise StructureError(f"unknown op {op!r}")


def _num_node(c, depth: int) -> str:
    pad = "\n" + " " * (depth + 1)
    return f'{{{pad}"op": "num",{pad}"value": "{_frac_str(c)}"\n{" " * depth}}}'


def _jet_node(jid: int, depth: int) -> str:
    jv = _JETS[jid]
    pad = "\n" + " " * (depth + 1)
    ipad = pad + " "
    return (f'{{{pad}"op": "jet",{pad}"field": {json.dumps(jv.field.name)},'
            f'{pad}"d": [{ipad}{("," + ipad).join(map(str, jv.d))}{pad}]\n{" " * depth}}}')


def write_tree(e: DiffPoly, depth: int, out: list) -> None:
    """Append to out the pieces of the wire-format tree of e as JSON text,
    laid out as json.dumps(..., indent=1) lays out a node nested `depth`
    levels deep (its first line unindented); the caller joins them once.
    Terms come in the order of DiffPoly.monomials(), a term's factors in
    jet-id order; write_tree and from_tree round-trip bit-exact on normal
    forms."""
    if not e._terms:
        out.append(_num_node(0, depth))
        return
    ids, terms = _sorted_terms(e._terms)

    def factor(code: int, d: int) -> str:
        k = code & _MAX_EXP
        if k == 1:
            return _jet_node(ids[code >> 7], d)
        pad = "\n" + " " * (d + 1)
        base = factor(code - k + 1, d + 1)  # the same jet to the power 1
        return f'{{{pad}"op": "pow",{pad}"base": {base},{pad}"exp": {k}\n{" " * d}}}'

    single = len(terms) == 1
    td = depth if single else depth + 2  # depth of a term's node
    pad = "\n" + " " * (td + 1)
    sep = f",{pad} "
    head = f'{{{pad}"op": "mul",{pad}"args": [{pad} '
    tail = f'{pad}]\n{" " * td}}}'
    # text tables for this call only: each factor inside a product by its
    # code, alone and after its separator, and a product's text up to its
    # first factor by coefficient
    factors = {k: factor(k, td + 2) for k in set().union(*[fs for fs, _ in terms])}
    later = {k: sep + text for k, text in factors.items()}.__getitem__
    heads = {c: head if c == 1 else head + _num_node(c, td + 2) + sep for c in {c for _, c in terms}}
    apad = "\n" + " " * (depth + 1)
    lead = "" if single else f'{{{apad}"op": "add",{apad}"args": [{apad} '  # before the first term
    between = f",{apad} "
    for fs, c in terms:
        out.append(lead)
        lead = between
        if not fs:
            out.append(_num_node(c, td))
        elif c == 1 and len(fs) == 1:
            out.append(factor(fs[0], td))
        else:
            out.append(heads[c])
            out.append(factors[fs[0]])
            out += map(later, fs[1:])
            out.append(tail)
    if not single:
        out.append(f'{apad}]\n{" " * depth}}}')


def to_tree(e: DiffPoly) -> dict:
    """The wire-format tree of e, parsed from write_tree's text."""
    out = []
    write_tree(e, 0, out)
    return json.loads("".join(out))
