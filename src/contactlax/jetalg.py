"""Exact differential-polynomial algebra over jet variables.

A jet variable is a field symbol together with a derivative multi-index
over the four independent variables (slot order x, y, z, t; the same
slots are read as X, Y, Z, T after the change to evolution form).
DiffPoly is the universal expression value: a sparse multivariate
polynomial in jet variables with exact rational coefficients.
JetQuotient is the corresponding fraction; its normalization cancels
monomial content and whole-denominator factors only, never a general
multivariate gcd, so equality testing cross-multiplies.

All values are immutable once built and every operation is a pure
function, so values can be shared freely between workers.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

DIRS = ("x", "y", "z", "t")
_AXIS = {"x": 0, "y": 1, "z": 2, "t": 3, "X": 0, "Y": 1, "Z": 2, "T": 3}
ZERO_INDEX = (0, 0, 0, 0)

FIELD = "field"
POTENTIAL = "potential"
WAVE = "wave-function"
INDEPENDENT = "independent"


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


# Global interner.  Monomial keys store small integer ids, assigned in
# the order jets are first met in the process, and list their factors in
# id order.  Emitted expressions depend on that interning order in three
# ways: a term lists its factors in id order; terms are sorted by those
# id-ordered factor lists (each factor compared by jet_sort_key), so
# a*c + b prints as b + c*a once c was interned before a; and a
# quotient's denominator is made monic at its leading term in the graded
# order of _mono_key, whose ties fall to jet ids, so c/(2a + 3b) becomes
# (1/2 c)/(a + 3/2 b) or (1/3 c)/(2/3 a + b).  Pickles carry the jets
# themselves (DiffPoly.__reduce__).
_JET_IDS: dict[JetVariable, int] = {}
_JETS: list[JetVariable] = []
_JET_SORT: list[tuple] = []


def _jet_id(jv: JetVariable) -> int:
    i = _JET_IDS.get(jv)
    if i is None:
        i = len(_JETS)
        _JET_IDS[jv] = i
        _JETS.append(jv)
        _JET_SORT.append(jet_sort_key(jv))
    return i


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


def _mul_mono(m1: tuple, m2: tuple) -> tuple:
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        a, b = m1[i], m2[j]
        if a == b:
            out.append(a)
            out.append(m1[i + 1] + m2[j + 1])
            i += 2
            j += 2
        elif a < b:
            out.append(a)
            out.append(m1[i + 1])
            i += 2
        else:
            out.append(b)
            out.append(m2[j + 1])
            j += 2
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def _mono_key(m: tuple) -> tuple:
    """Sort key of the graded order used for exact division: ascending
    keys are descending monomials.  Higher total degree comes first; ties
    are broken lexicographically by ascending jet id, a higher exponent on
    an earlier id winning.  The order is compatible with monomial
    multiplication, so it is safe for division.  The key is
    (-deg, id0, -e0, id1, -e1, ...), compared in C; of two distinct
    monomials of equal degree neither key is a prefix of the other."""
    exps = m[1::2]
    k = [-sum(exps)]
    k += m
    k[2::2] = [-e for e in exps]
    return tuple(k)


def _mono_div(m: tuple, d: tuple):
    """Divide monomial m by d; None when not divisible."""
    need = dict(zip(d[0::2], d[1::2]))
    out = []
    i = 0
    while i < len(m):
        jid, pw = m[i], m[i + 1]
        i += 2
        want = need.pop(jid, 0)
        if want > pw:
            return None
        if pw > want:
            out.append(jid)
            out.append(pw - want)
    if need:
        return None
    return tuple(out)


def _mono_sort_key(m: tuple):
    return tuple(_JET_SORT[m[i]] + (m[i + 1],) for i in range(0, len(m), 2))


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
            tuple((c, tuple((_JETS[m[i]], m[i + 1]) for i in range(0, len(m), 2))) for m, c in self._terms.items()),
        )

    # -- construction -------------------------------------------------

    @staticmethod
    def const(c) -> "DiffPoly":
        c = _coeff(c if isinstance(c, (int, Fraction)) else Fraction(c))
        return DiffPoly({(): c} if c != 0 else {})

    @staticmethod
    def from_jet(jv: JetVariable, power: int = 1) -> "DiffPoly":
        if power < 0:
            raise StructureError("negative power")
        if power == 0:
            return ONE
        return DiffPoly({(_jet_id(jv), power): 1})

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
        if not self._terms:
            return other
        if not other._terms:
            return self
        out = dict(self._terms)
        for m, c in other._terms.items():
            _add_term(out, m, c)
        return DiffPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return DiffPoly({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = DiffPoly.const(other)
        elif not isinstance(other, DiffPoly):
            return NotImplemented
        return self + (-other)

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
        t1, t2 = self._terms, other._terms
        if not t1 or not t2:
            return ZERO
        if len(t1) > len(t2):
            t1, t2 = t2, t1
        out = {}
        for m1, c1 in t1.items():
            for m2, c2 in t2.items():
                key = _mul_mono(m1, m2)
                c = c1 * c2
                acc = out.get(key)
                if acc is None:
                    out[key] = c
                else:
                    acc = acc + c
                    if acc == 0:
                        del out[key]
                    else:
                        out[key] = acc
        return DiffPoly(out)

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
        seen = set()
        for m in self._terms:
            for i in range(0, len(m), 2):
                seen.add(m[i])
        return sorted((_JETS[i] for i in seen), key=jet_sort_key)

    def monomials(self):
        """(coeff, ((JetVariable, power), ...)) view: the factors of a
        term in jet-id order, and the terms sorted by those factor lists,
        so both orders depend on the interning order of the process."""
        items = sorted(self._terms.items(), key=lambda kv: _mono_sort_key(kv[0]))
        for m, c in items:
            yield Fraction(c), tuple((_JETS[m[i]], m[i + 1]) for i in range(0, len(m), 2))

    def leading(self):
        """Term maximal in the graded order used for exact division."""
        if not self._terms:
            return None
        m = min(self._terms, key=_mono_key)
        return m, self._terms[m]

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


def _add_term(out: dict, m: tuple, c) -> None:
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


ZERO = DiffPoly({})
ONE = DiffPoly({(): 1})


def _from_factors(terms) -> DiffPoly:
    """Rebuild a pickled DiffPoly, interning its jets in this process."""
    out = {}
    for c, factors in terms:
        out[tuple(x for jid, p in sorted((_jet_id(jv), p) for jv, p in factors) for x in (jid, p))] = c
    return DiffPoly(out)


def jet(field: FieldId, d: tuple[int, int, int, int] = ZERO_INDEX) -> DiffPoly:
    return DiffPoly.from_jet(JetVariable(field, tuple(d)))


# -- content / primitive part / exact division -------------------------


def monomial_gcd(*polys: DiffPoly) -> tuple:
    """The monomial gcd of all terms of the given nonzero polynomials,
    scanned in order; the scan stops at the first term that leaves it 1."""
    common = None
    for e in polys:
        for m in e._terms:
            here = dict(zip(m[0::2], m[1::2]))
            common = here if common is None else {jid: min(pw, here[jid]) for jid, pw in common.items() if jid in here}
            if not common:
                return ()
    return tuple(x for item in common.items() for x in item) if common else ()


def content(e: DiffPoly):
    """(rational content, common monomial) of a nonzero polynomial."""
    if e.is_zero():
        raise StructureError("zero polynomial has no content")
    coeffs = e._terms.values()
    rat = Fraction(math.gcd(*(c.numerator for c in coeffs)), math.lcm(*(c.denominator for c in coeffs)))
    return rat, monomial_gcd(e)


def strip_monomial(e: DiffPoly, mono: tuple) -> DiffPoly:
    if not mono:
        return e
    out = {}
    for m, c in e._terms.items():
        q = _mono_div(m, mono)
        if q is None:
            raise StructureError("monomial does not divide every term")
        out[q] = c
    return DiffPoly(out)


def primitive(e: DiffPoly):
    """Strip rational and monomial content and fix the sign so the leading
    term is positive.  Returns (primitive part, rational scale, monomial)
    with e == scale * monomial * primitive part."""
    if e.is_zero():
        return e, Fraction(1), ()
    rat, mono = content(e)
    out = strip_monomial(e, mono)
    lead = out.leading()
    if lead[1] < 0:
        rat = -rat
    scale = Fraction(1) / rat
    out = DiffPoly({m: _coeff(Fraction(c) * scale) for m, c in out._terms.items()})
    return out, rat, mono


def divide_exact(a: DiffPoly, b: DiffPoly):
    """Exact polynomial division a/b; None when b does not divide a.

    The remainder's monomials sit in a min-heap of graded-order keys
    (heap division, Johnson 1974; Monagan & Pearce 2011).  A monomial is
    pushed when it enters the remainder; a popped monomial that has since
    cancelled is skipped.  No cancelled monomial can come back above the
    current leading term, so each pop yields the remainder's leading term."""
    if b.is_zero():
        raise PoleError("division by the zero polynomial")
    if a.is_zero():
        return ZERO
    bl_m, bl_c = b.leading()
    bl_c = Fraction(bl_c)
    rest = [(m2, c2) for m2, c2 in b._terms.items() if m2 != bl_m]
    rem = dict(a._terms)
    heap = [(_mono_key(m), m) for m in rem]
    heapq.heapify(heap)
    quot = {}
    while rem:
        _, best = heapq.heappop(heap)
        c = rem.pop(best, None)
        if c is None:
            continue
        qm = _mono_div(best, bl_m)
        if qm is None:
            return None
        qc = _coeff(Fraction(c) / bl_c)
        quot[qm] = qc
        for m2, c2 in rest:
            key = _mul_mono(qm, m2)
            acc = rem.get(key)
            if acc is None:
                rem[key] = -qc * c2
                heapq.heappush(heap, (_mono_key(key), key))
            else:
                acc -= qc * c2
                if acc == 0:
                    del rem[key]
                else:
                    rem[key] = acc
    return DiffPoly(quot)


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

    def __add__(self, other):
        other = _as_quotient(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den._terms == other.den._terms:
            return JetQuotient(self.num + other.num, self.den)
        return JetQuotient(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return _rebuild(JetQuotient, (-self.num, self.den))

    def __sub__(self, other):
        other = _as_quotient(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

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
    rule."""
    ax = _axis(direction)
    out = {}
    for m, c in e._terms.items():
        for i in range(0, len(m), 2):
            jid, pw = m[i], m[i + 1]
            jv = _JETS[jid]
            rest = list(m)
            if pw == 1:
                del rest[i:i + 2]
            else:
                rest[i + 1] = pw - 1
            d = list(jv.d)
            d[ax] += 1
            bumped = _jet_id(JetVariable(jv.field, tuple(d)))
            _add_term(out, _mul_mono(tuple(rest), (bumped, 1)), c * pw)
    return DiffPoly(out)


def quotient_rule(make, num, den, dnum, dden):
    """The one quotient rule: make(dnum * den - num * dden, den * den),
    or make(dnum, den) when dden is zero.  Jet quotients, p-rational
    coefficients and d/dp all differentiate through it."""
    if dden.is_zero():
        return make(dnum, den)
    return make(dnum * den - num * dden, den * den)


def total_derivative_q(q: JetQuotient | DiffPoly, direction) -> JetQuotient:
    if isinstance(q, DiffPoly):
        return JetQuotient(total_derivative(q, direction))
    return quotient_rule(JetQuotient, q.num, q.den, total_derivative(q.num, direction),
                         total_derivative(q.den, direction))


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


def _replace_jets(poly: DiffPoly, fn, lift):
    """The one jet-replacement kernel: fn maps each distinct jet, in order
    of first occurrence, to its replacement or None.  Terms are grouped by
    their powers of the replaced jets, each lifted cofactor is multiplied
    by its replacement powers once, and the groups are summed in order of
    first occurrence.  None when nothing is replaced."""
    repl = {}
    for m in poly._terms:
        for jid in m[::2]:
            if jid not in repl:
                repl[jid] = fn(_JETS[jid])
    ids = sorted(jid for jid, r in repl.items() if r is not None)
    if not ids:
        return None
    total = None
    for pows, rest in decompose_by_jets(poly, [_JETS[jid] for jid in ids]).items():
        q = lift(rest)
        for jid, pw in zip(ids, pows):
            if pw:
                q = q * repl[jid] ** pw
        total = q if total is None else total + q
    return total


def substitute(e: DiffPoly | JetQuotient, rules: dict) -> JetQuotient:
    """Replace jets matching the rules.  A rule maps a base jet to its
    replacement; jets above a base are rewritten by total differentiation
    of the rule (prolongation).  Jets of a ruled field lying below every
    base are left untouched.  Passes repeat until no rule matches."""
    rules_q = {base: _as_quotient(rhs) for base, rhs in rules.items()}
    by_field: dict[FieldId, list] = {}
    for base in rules_q:
        by_field.setdefault(base.field, []).append(base)
    cache: dict = {}

    def rule(jv):
        b = _match_base(jv, by_field.get(jv.field, ()))
        return None if b is None else _prolonged(b, jv.d, rules_q, cache)

    cur = _as_quotient(e)
    for _ in range(100):
        rn = _replace_jets(cur.num, rule, _as_quotient)
        rd = _replace_jets(cur.den, rule, _as_quotient)
        if rn is None and rd is None:
            return cur
        qn = rn if rn is not None else _as_quotient(cur.num)
        qd = rd if rd is not None else _as_quotient(cur.den)
        cur = qn / qd
    raise StructureError("substitution did not reach a fixed point")


# -- structural decomposition ------------------------------------------------


def jets_of_field(e: DiffPoly, field: FieldId) -> set:
    return {jv for jv in e.jet_variables() if jv.field == field}


def decompose_by_jets(e: DiffPoly, jets: list[JetVariable]) -> dict[tuple, DiffPoly]:
    """Group terms by the exponent vector of the given jets; values are
    the residual polynomials with those factors removed.  Groups and the
    terms in each keep the order of first occurrence in e."""
    pos = {_jet_id(jv): k for k, jv in enumerate(jets)}
    out: dict[tuple, dict] = {}
    for m, c in e._terms.items():
        pows = [0] * len(jets)
        rest = []
        for i in range(0, len(m), 2):
            k = pos.get(m[i])
            if k is None:
                rest += m[i:i + 2]
            else:
                pows[k] = m[i + 1]
        out.setdefault(tuple(pows), {})[tuple(rest)] = c
    return {k: DiffPoly(v) for k, v in out.items()}


def map_jets(e: DiffPoly, fn) -> DiffPoly:
    """Simultaneous one-pass replacement of jet variables by polynomials;
    fn returns None to keep a jet.  Unlike substitute(), the output is
    not rescanned, so self-referential maps (a change of independent
    variables reusing the same index slots) are safe."""
    out = _replace_jets(e, fn, lambda rest: rest)
    return e if out is None else out


def linear_coefficient(e: DiffPoly, jv: JetVariable) -> tuple[DiffPoly, DiffPoly]:
    """Split e == coeff * jv + rest, requiring e linear in jv."""
    parts = decompose_by_jets(e, [jv])
    if any(pows[0] > 1 for pows in parts):
        raise StructureError(f"not linear in {jv!r}")
    return parts.get((1,), ZERO), parts.get((0,), ZERO)


# -- evaluation -------------------------------------------------------------


PRIME = 2 ** 61 - 1


def evaluate_mod(e: DiffPoly | JetQuotient, point: dict) -> int:
    """Evaluation in GF(PRIME) at a point mapping JetVariable -> int.
    Raises PoleError when a denominator, or the denominator of a rational
    coefficient, is 0 mod PRIME."""
    if isinstance(e, JetQuotient):
        den = evaluate_mod(e.den, point)
        if den == 0:
            raise PoleError("denominator vanishes mod p at the point")
        return evaluate_mod(e.num, point) * pow(den, -1, PRIME) % PRIME
    vals = {}
    total = 0
    for m, c in e._terms.items():
        if isinstance(c, int):
            prod = c
        else:
            d = c.denominator % PRIME
            if d == 0:
                raise PoleError("coefficient denominator vanishes mod p")
            prod = c.numerator * pow(d, -1, PRIME)
        for i in range(0, len(m), 2):
            jid = m[i]
            v = vals.get(jid)
            if v is None:
                jv = _JETS[jid]
                if jv not in point:
                    raise CoverageError(f"no value for {jv!r}")
                v = point[jv] % PRIME
                vals[jid] = v
            k = m[i + 1]
            prod = prod * (v if k == 1 else pow(v, k, PRIME)) % PRIME
        total += prod
    return total % PRIME


# -- expression trees (JSON wire format) ------------------------------------


def _frac_str(c) -> str:
    f = Fraction(c)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def _parse_frac(s: str) -> Fraction:
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
        if len(d) != 4 or any((not isinstance(k, int)) or k < 0 for k in d):
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
        return from_tree(node["base"], fields) ** exp
    raise StructureError(f"unknown op {op!r}")


def to_tree(e: DiffPoly) -> dict:
    """Emission in the order of DiffPoly.monomials(); to_tree/from_tree
    round-trips bit-exact on normal forms."""
    if e.is_zero():
        return {"op": "num", "value": "0"}
    terms = []
    for c, factors in e.monomials():
        parts = []
        if c != 1 or not factors:
            parts.append({"op": "num", "value": _frac_str(c)})
        for jv, p in factors:
            base = {"op": "jet", "field": jv.field.name, "d": list(jv.d)}
            parts.append(base if p == 1 else {"op": "pow", "base": base, "exp": p})
        terms.append(parts[0] if len(parts) == 1 else {"op": "mul", "args": parts})
    return terms[0] if len(terms) == 1 else {"op": "add", "args": terms}

