"""Derivation of the compatibility condition of a contact Lax pair and
everything downstream of it: coefficient extraction into a PDE system,
per-pole residue organization, determinedness reporting, comparison with
the published rational-family system, the evolution-form change of
independents (X = x, Y = y - t, Z = z, T = y + t), and the planar
reduction (field z-jets set to zero, wave function z-derivative set to 1).

The compatibility condition is computed twice, by independent routes:

  (a) jet-level substitution: introduce wave-function jets to order 2,
      rewrite psi_y -> psi_z F, psi_t -> psi_z G together with their x/z
      prolongations, form D_t(psi_z F) - D_y(psi_z G), check that all
      second-order wave jets cancel and that a single overall psi_z
      factor remains, divide it out;

  (b) the closed-form bracket, linear in the first-order field jets,
      with p held fixed.

The two must agree exactly; a disagreement aborts the derivation.  The
substitution path's fraction is returned as it stands.  For a pair in
general position every pole of the condition is a true double pole (its
order-2 residue is one of the derived equations), so numerator and
denominator share no (p - pole) factor and nothing is cancelled.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from itertools import islice
from math import comb, prod
from types import MappingProxyType

from .jetalg import (
    ONE,
    P,
    PRIME,
    WAVE,
    ZERO,
    ZERO_INDEX,
    DiffPoly,
    FieldId,
    JetQuotient,
    JetVariable,
    StructureError,
    content,
    decompose_by_jets,
    evaluate_mod,
    jet,
    jet_sort_key,
    jets_of_field,
    map_jets,
    p_coefficients,
    p_of_slope,
    partial,
    primitive,
    strip_monomial,
    substitute,
    sum_of_products,
    total_derivative,
    total_derivative_q,
)
from .laxfamilies import LaxPair, POLY, RAT, RATGP, make_family
from .pfield import ParameterError
from .sampling import pole_pairs_for, random_points

PSI = FieldId("psi", WAVE)

XYZT = ("x", "y", "z", "t")
XYT = ("x", "y", "t")
_UNIT = {s: tuple(int(i == k) for i in range(4)) for k, s in enumerate(XYZT)}  # first-order multi-indices
CK_INDEPENDENTS = ("X", "Y", "Z", "T")
CK_SEED = 20240211  # the seed of the T-solvability witness point


class DerivationError(RuntimeError):
    """Wave-function jets failed to cancel, or the two derivation paths
    disagree: a malformed pair or an engine bug."""


class TransformDegenerateError(RuntimeError):
    """The T-jet coefficient matrix is singular at the witness point."""


# -- p and the wave-function jets ---------------------------------------------


def wave_form(r: JetQuotient, psi: FieldId = PSI, planar: bool = False) -> tuple[DiffPoly, DiffPoly]:
    """num and den of a quotient r in p with p replaced by psi_x/psi_z,
    both homogenized to r's top p-degree (planar: p replaced by psi_x).
    Terms come by ascending p-degree, in the plane by descending degree:
    total differentiation interns new jets in the order it meets them,
    and the order of factors in every output follows."""
    psix = DiffPoly.from_jet(JetVariable(psi, (1, 0, 0, 0)))
    psiz = ONE if planar else DiffPoly.from_jet(JetVariable(psi, (0, 0, 1, 0)))
    num, den = (decompose_by_jets(e, [P]) for e in (r.num, r.den))
    top = max(k for (k,) in (*num, *den))

    def homogenized(parts):
        terms = sorted(parts.items(), reverse=planar)
        return sum((rest * psix ** k * psiz ** (top - k) for (k,), rest in terms), ZERO)

    return homogenized(num), homogenized(den)


def p_form(jq: JetQuotient, psi: FieldId = PSI, planar: bool = False) -> JetQuotient:
    """Read a jet quotient of the shape psi_z * R(psi_x/psi_z) back as
    R(p) (planar mode: R(psi_x) with psi_z == 1).  Raises
    DerivationError when other wave jets survive or the required
    homogeneity fails."""
    slope = [JetVariable(psi, (1, 0, 0, 0))] + ([] if planar else [JetVariable(psi, (0, 0, 1, 0))])
    for part in (jq.num, jq.den):
        extra = jets_of_field(part, psi) - set(slope)
        if extra:
            raise DerivationError(f"wave-function jets survive: {sorted(map(repr, extra))}")
    if jq.num.is_zero():
        return jq
    out = []
    for part in (jq.num, jq.den):
        e, grades = p_of_slope(part, *slope)
        if not planar and len(grades) != 1:
            raise DerivationError("not homogeneous in the wave-function jets")
        out.append((e, max(grades)))
    (num, s_n), (den, s_d) = out
    if not planar and s_n - s_d != 1:
        raise DerivationError("no single overall psi_z factor to divide out")
    return JetQuotient(num, den)


# -- the two derivation paths -------------------------------------------------


def cc_substitution_path(lax: LaxPair) -> JetQuotient:
    """Path (a): mechanical jet-level substitution."""
    planar = lax.dimension == "2+1"
    (fn, fd), (gn, gd) = (wave_form(r, PSI, planar) for r in (lax.F, lax.G))  # interns psi_x, then psi_z
    psiz = ONE if planar else DiffPoly.from_jet(JetVariable(PSI, (0, 0, 1, 0)))
    fq, gq = JetQuotient(psiz * fn, fd), JetQuotient(psiz * gn, gd)
    rule_y = {JetVariable(PSI, (0, 1, 0, 0)): fq}
    rule_t = {JetVariable(PSI, (0, 0, 0, 1)): gq}
    e1 = substitute(total_derivative_q(fq, "t"), rule_t)
    e2 = substitute(total_derivative_q(gq, "y"), rule_y)
    return p_form(e1 - e2, PSI, planar)


def _bracket_terms(lax: LaxPair) -> tuple[list[tuple[DiffPoly, DiffPoly]], DiffPoly]:
    """The terms F_t, -G_y, F_p G_x, -G_p F_x, (F - p F_p) G_z and
    -(G - p G_p) F_z of the closed-form bracket (no z-terms in the plane),
    the s-derivatives total with p held fixed, each as numerators (a, b)
    of a product a b over D^2 E^2, and D^2 E^2.  With F = N/D and
    G = M/E, every derivative of F is a numerator over D^2
    (F_s = (N_s D - N D_s)/D^2, likewise F_p), and F - p F_p is
    (N D - p (N_p D - N D_p))/D^2."""
    def over_square(n, d, s):  # s is a direction, or None for p
        dn, dd = (partial(e, P) if s is None else total_derivative(e, s) for e in (n, d))
        return dn * d - n * dd

    planar = lax.dimension == "2+1"
    (n_f, d_f), (n_g, d_g) = (lax.F.num, lax.F.den), (lax.G.num, lax.G.den)
    dirs = ("x",) if planar else ("x", "z")
    f_s = {s: over_square(n_f, d_f, s) for s in ("t", None, *dirs)}
    g_s = {s: over_square(n_g, d_g, s) for s in ("y", None, *dirs)}
    d_f2, d_g2 = d_f * d_f, d_g * d_g
    terms = [(f_s["t"], d_g2), (-g_s["y"], d_f2), (f_s[None], g_s["x"]), (-g_s[None], f_s["x"])]
    if not planar:
        p = DiffPoly.from_jet(P)
        terms += [(n_f * d_f - p * f_s[None], g_s["z"]), (p * g_s[None] - n_g * d_g, f_s["z"])]
    return terms, d_f2 * d_g2


def cc_bracket_path(lax: LaxPair) -> JetQuotient:
    """Path (b): the closed-form compatibility bracket, one numerator
    over D^2 E^2 (see _bracket_terms)."""
    terms, den = _bracket_terms(lax)
    return JetQuotient(sum_of_products(terms), den)


def bracket_mod(lax: LaxPair, pt: dict, pval: int) -> int:
    """The bracket of cc_bracket_path in GF(PRIME) at a point mapping
    JetVariable -> int and p = pval, off every pole.  Each side
    c + sum a/(p - v) is read from lax.pole_data, its value, p-derivative
    and coefficient derivatives c_s + sum (a_s + a v_s/(p - v))/(p - v)
    formed at the point.  A planar pair has no z-terms."""
    dirs = XYT if lax.dimension == "2+1" else XYZT
    sides = []
    for const, pairs in lax.pole_data:
        # the value, d/dp (None: the constant has none), then the
        # coefficient derivative along each of dirs
        acc = [pt[JetVariable(const, d)] if const and d else 0 for d in (ZERO_INDEX, None, *map(_UNIT.get, dirs))]
        for res, pole in pairs:
            a, inv = pt[JetVariable(res)], pow(pval - pt[JetVariable(pole)], -1, PRIME)
            acc[0] += a * inv
            acc[1] -= a * inv * inv
            for k, s in enumerate(dirs, 2):
                acc[k] += (pt[JetVariable(res, _UNIT[s])] + a * pt[JetVariable(pole, _UNIT[s])] * inv) * inv
        sides.append(dict(zip(("", "p", *dirs), acc)))
    f, g = sides
    out = f["t"] - g["y"] + f["p"] * g["x"] - g["p"] * f["x"]
    if lax.dimension != "2+1":
        out += (f[""] - pval * f["p"]) * g["z"] - (g[""] - pval * g["p"]) * f["z"]
    return out % PRIME


def compatibility_condition(lax: LaxPair) -> JetQuotient:
    """Derive the compatibility condition as a rational function of p,
    running both paths and insisting on exact agreement; returns the
    substitution path's fraction as it stands."""
    via_subst = cc_substitution_path(lax)
    via_bracket = cc_bracket_path(lax)
    if not (via_subst == via_bracket):
        raise DerivationError("substitution and bracket derivations disagree")
    return via_subst


# -- PDE systems ---------------------------------------------------------------


@dataclass(frozen=True)
class PDESystem:
    """A system of equations in the unknowns, each stored once, as the
    tuple of quotients it is the sum of (terms: a residue row's two-pole
    terms, or one quotient for a coefficient form, a planar reduction or
    a system read from JSON).  `equations` sums each tuple in order on its
    first read and keeps the sums; the JSON and LaTeX writers, rls and the
    planar reduction read them, and deriving, ck_transform and compiling
    never do."""

    unknowns: tuple[FieldId, ...]
    independents: tuple[str, ...]
    terms: tuple[tuple[JetQuotient, ...], ...]
    provenance: Mapping

    def __post_init__(self):
        # A read-only view of a private copy: derive() caches its result,
        # so no caller may change what the next caller is handed.
        object.__setattr__(self, "provenance", MappingProxyType(dict(self.provenance)))
        object.__setattr__(self, "terms", tuple(map(tuple, self.terms)))
        known = set(self.unknowns)
        for q in (q for ts in self.terms for q in ts):
            for jv in q.jet_variables():
                if jv.field not in known:
                    raise StructureError(f"equation references unknown field {jv.field.name}")

    @cached_property
    def equations(self) -> tuple[JetQuotient, ...]:
        return tuple(sum(ts[1:], ts[0]) for ts in self.terms)

    def counts(self) -> tuple[int, int]:
        return len(self.terms), len(self.unknowns)

    def __reduce__(self):
        # a mapping proxy does not pickle; rebuild from a plain dict, and
        # leave the summed equations to be summed again
        return PDESystem, (self.unknowns, self.independents, self.terms, dict(self.provenance))


@dataclass(frozen=True)
class Determinedness:
    equations: int
    unknowns: int
    verdict: str


def determinedness_report(sys: PDESystem) -> Determinedness:
    ne, nu = sys.counts()
    verdict = "determined" if ne == nu else ("underdetermined" if ne < nu else "overdetermined")
    return Determinedness(ne, nu, verdict)


def _system(lax: LaxPair, terms, **provenance) -> PDESystem:
    """The one builder of a pair's system: the pair's unknowns, (x, y, t)
    or (x, y, z, t) by its dimension, and its family, sizes, dimension
    and pole fields recorded next to the given provenance."""
    prov = {"family": lax.family, "m": lax.m, "n": lax.n, "dimension": lax.dimension,
            **provenance, "pole_fields": lax.pole_fields()}
    return PDESystem(tuple(lax.fields), XYT if lax.dimension == "2+1" else XYZT, terms, prov)


def _formal_top_degree(lax: LaxPair, num: list) -> int:
    if lax.family == POLY:
        return lax.m + lax.n + 1
    if lax.family in (RAT, RATGP):
        return 2 * (lax.m + lax.n)
    return max(len(num) - 1, 0)


def extract_system(cc: JetQuotient, lax: LaxPair) -> PDESystem:
    """One equation per numerator p-coefficient over the common
    denominator (p_coefficients); identically zero coefficients are
    dropped but recorded, so structural cancellations (like the locked top
    coefficient of the polynomial family) stay visible."""
    num, _ = p_coefficients(cc)
    eqs, degrees, dropped = [], [], []
    for k in range(_formal_top_degree(lax, num) + 1):
        c = num[k] if k < len(num) else ZERO
        if c.is_zero():
            dropped.append(k)
        else:
            eqs.append((JetQuotient(c),))
            degrees.append(k)
    return _system(lax, eqs, path="coefficients", p_degrees=tuple(degrees),
                   dropped_zero_coefficients=tuple(dropped))


def _two_pole_terms(a, v, b, w=None) -> tuple[JetQuotient, JetQuotient]:
    """The order-1 and order-2 Laurent coefficients, at a simple pole v
    with residue a of one side, of the bracket's part linear in one summand
    of the other side: b/(p - w), or the constant b when w is None.  Each
    argument is a (value, x-jet, z-jet) triple.  With d = v - w, both
    terms are in lowest terms: their numerators are a b (d_x - v d_z) and
    -2 a b (d_x - v d_z) modulo d."""
    (a, a_x, a_z), (v, v_x, v_z), (b, b_x, b_z) = a, v, b
    k1, k2 = 2 * a * b_z - a_z * b, a * (v * b_z - b_x - b * v_z)  # the constant's terms
    if w is None:
        return JetQuotient(k1), JetQuotient(k2)
    w, w_x, w_z = w
    d, e = v - w, a * b * ((v_x - w_x) - v * (v_z - w_z))
    mid = a * b_x + a_x * b - v * a * b_z + 2 * a * b * w_z - v * a_z * b
    return JetQuotient(d * d * k1 + d * mid - 2 * e, d ** 3), JetQuotient(d * k2 + e, d ** 2)


def _pole_rows(side, other, direction: str, planar: bool):
    """(pole field, (order-1 terms, order-2 terms)) at each pole v of a side
    (const, ((residue, pole), ...)) of lax.pole_data: the G-free part A_t,
    A P_t (direction t), then the _two_pole_terms of each summand of the
    other side, its constant first.  Each term is in lowest terms, and so
    is their sum."""
    def triples(*fields):
        # (value, x-jet, z-jet) per field, z-jets zero in the planar bracket;
        # x-jets are interned first: the order of terms in every output follows it
        xs = [jet(f, _UNIT["x"]) for f in fields]
        zs = [ZERO if planar else jet(f, _UNIT["z"]) for f in fields]
        return [*zip(map(jet, fields), xs, zs)]

    const, pairs = other
    summands = [(*triples(c), None) for c in [const] if c] + [triples(b, w) for b, w in pairs]
    for res, pole in side[1]:
        a = jet(res)
        order1, order2 = [total_derivative_q(a, direction)], [a * total_derivative_q(jet(pole), direction)]
        own = triples(res) + triples(pole)
        for b, w in summands:
            k1, k2 = _two_pole_terms(*own, b, w)
            order1.append(k1)
            order2.append(k2)
        yield pole, (order1, order2)


def residue_system(lax: LaxPair) -> PDESystem:
    """A rational pair's compatibility content organized the way the
    published system is: order-2 then order-1 residue equations at each
    pole (and the p->infinity constant first, when the pair has
    constants), read off the pair's own simple poles, in lowest terms.  The
    bracket is antisymmetric under F <-> G, y <-> t, so a pole of G takes
    the formula of a pole of F with F and y, negated.  The compatibility
    condition is never formed, and no row is summed: each equation is
    its terms (the G-free part, then one two-pole term per summand of the
    other side; the constant's four addends), checked against bracket_mod
    at random points of GF(PRIME)."""
    if lax.family not in (RAT, RATGP):
        raise ParameterError(f"the residue form applies to the rational families, not {lax.family}")
    side_f, side_g = lax.pole_data
    planar = lax.dimension == "2+1"
    # (pole field, (order-1 terms, order-2 terms))
    rows = list(_pole_rows(side_f, side_g, "t", planar))
    rows += [(f, tuple([-t for t in ts] for ts in terms)) for f, terms in _pole_rows(side_g, side_f, "y", planar)]
    # only the constants a0, b0 are regular at p = oo: a0_t - b0_y + a0 b0_z - b0 a0_z survives
    a0, b0 = (JetQuotient(jet(c)) if c else JetQuotient(ZERO) for c, _ in lax.pole_data)
    const_terms = [total_derivative_q(a0, "t"), -total_derivative_q(b0, "y")]
    if not planar:
        const_terms += [a0 * total_derivative_q(b0, "z"), -(b0 * total_derivative_q(a0, "z"))]
    _residue_spot_check(const_terms, rows, lax)
    # only ratgp has constants; then a0_t, which no other addend reads, keeps the row nonzero
    terms, labels = ([const_terms], ["constant"]) if any(c for c, _ in lax.pole_data) else ([], [])
    for order in (2, 1):
        for f, ts in rows:
            terms.append(ts[order - 1])
            labels.append(f"{f.name}:{order}")
    return _system(lax, terms, path="residues", labels=tuple(labels))


def _residue_spot_check(const_terms, rows, lax: LaxPair):
    """Compare the sum of const_terms plus, over the rows
    (pole, (order-1 terms, order-2 terms)), each order's terms summed
    over (p - pole)^order, with bracket_mod at five random points of
    GF(PRIME).  The value of p is drawn after each point, again while it
    hits a pole.  All five points are drawn first; then every term is
    evaluated at all of them in one evaluate_mod call, and each group (the
    constant row, or one order of one pole's row) is summed at each point
    before its power of 1/(p - pole) is applied.  A mismatch is an engine
    bug."""
    rng = random.Random(60170)
    # the terms are quotients of polynomials in the jets the bracket reads
    jvs = {JetVariable(f, d) for f in lax.fields for d in (ZERO_INDEX, *_UNIT.values())}
    pole_jets = [JetVariable(f) for f, _ in rows]
    draws = random_points(jvs, rng, pole_pairs=pole_pairs_for([f for f, _ in rows]))
    pts, pvals = [], []
    for _ in range(5):
        pt = next(draws)
        pval = rng.randrange(PRIME)
        while any(pval == pt[pj] for pj in pole_jets):
            pval = rng.randrange(PRIME)
        pts.append(pt)
        pvals.append(pval)
    # (terms, pole jet or None, power of 1/(p - pole)) of each group
    groups = [(const_terms, None, 0)]
    groups += [(ts, pj, k) for (_, orders), pj in zip(rows, pole_jets) for k, ts in enumerate(orders, 1)]
    vals = evaluate_mod([t for ts, _, _ in groups for t in ts], pts)
    for j, (pt, pval) in enumerate(zip(pts, pvals)):
        rhs, i = 0, 0
        for ts, pj, k in groups:
            s = sum(v[j] for v in vals[i:i + len(ts)])
            i += len(ts)
            rhs += s if pj is None else s * pow(pval - pt[pj], -k, PRIME)
        if bracket_mod(lax, pt, pval) != rhs % PRIME:
            raise DerivationError("the residue equations fail the random-point check against the bracket of F and G")


@lru_cache(maxsize=None)
def family_cc(family: str, m: int, n: int) -> JetQuotient:
    return compatibility_condition(make_family(family, m, n))


@lru_cache(maxsize=None)
def derive(family: str, m: int, n: int, form: str = "coefficients") -> PDESystem:
    lax = make_family(family, m, n)
    if form == "residues":
        return residue_system(lax)
    return extract_system(family_cc(family, m, n), lax)


# -- evolution-form change of independents --------------------------------------


def _ck_jet_expansion(jv: JetVariable) -> DiffPoly:
    nx, ny, nz, nt = jv.d
    out = ZERO
    for r in range(ny + 1):
        for s in range(nt + 1):
            c = comb(ny, r) * comb(nt, s) * (-1) ** s
            d = (nx, r + s, nz, ny + nt - r - s)
            out = out + c * DiffPoly.from_jet(JetVariable(jv.field, d))
    return out


def ck_transform(sys: PDESystem) -> PDESystem:
    """Re-express y/t jets through Y and T, term by term, and verify
    first-order T-solvability at a random point of GF(PRIME)."""
    if sys.independents not in (XYZT,):
        raise StructureError("evolution transform expects (x, y, z, t) independents")

    def expand(jv):
        if jv.d[1] or jv.d[3]:
            return _ck_jet_expansion(jv)
        return None

    def mapped(q):  # a two-pole term reads no y- or t-jet, and comes back as it is
        num, den = map_jets(q.num, expand), map_jets(q.den, expand)
        return q if num is q.num and den is q.den else JetQuotient(num, den)

    prov = dict(sys.provenance)
    prov["ck_of"] = prov.get("path", "unknown")
    prov["original_system"] = sys
    out = PDESystem(sys.unknowns, CK_INDEPENDENTS, [[mapped(q) for q in ts] for ts in sys.terms], prov)
    t_solvability_witness(out)
    return out


def t_jet_split(sys: PDESystem) -> tuple[list[list[DiffPoly]], list[list[JetQuotient]]]:
    """Split each equation, the sum of its quotients in sys.terms, as
    (sum_j rows[i][j] * (u_j)_T + r) / D plus its T-free terms: the terms
    with a T-jet share the denominator D, which cancels from the solve for
    the T-jets, and r is their T-free part.  rests[i] is the rest of the
    equation times D, as quotients whose sum it is: r, then D times each
    T-free term.  When that rest is not zero, the rational and monomial
    content common to the rows and the rest's numerators cancels too.
    Raises TransformDegenerateError unless the system is linear in its
    first-order T-jets, with T-free coefficients and remainders, no T-jet
    in a denominator, one denominator under the T-jets of an equation and
    one equation per unknown."""
    t_jets = [JetVariable(u, (0, 0, 0, 1)) for u in sys.unknowns]
    k = len(t_jets)
    rows, rests = [], []
    for terms in sys.terms:
        row, rest, free, den, squared = [ZERO] * k, ZERO, [], None, []
        for term in terms:
            if set(t_jets) & set(term.den.jet_variables()):
                raise TransformDegenerateError("T-jet inside a denominator")
            parts = decompose_by_jets(term.num, t_jets)
            part = parts.pop((0,) * k, ZERO)
            if not parts:
                free.append(term)
                continue
            rest = rest + part
            if den is None:
                den = term.den
            elif den != term.den:
                raise TransformDegenerateError("the T-jets of an equation stand over different denominators")
            for pows, c in parts.items():
                # a term belongs to the row of its first T-jet; the others
                # stay in its coefficient, where the check below finds them
                j = next(i for i, pw in enumerate(pows) if pw)
                if pows[j] > 1:
                    squared.append(j)
                elif sum(pows) > 1:
                    c = prod(map(DiffPoly.from_jet, t_jets[j + 1:], pows[j + 1:]), start=c)
                row[j] = row[j] + c
        if squared:
            raise TransformDegenerateError(f"not linear in {t_jets[min(squared)]!r}")
        for part in (*row, rest):
            for jv in part.jet_variables():
                if jv.d[3]:
                    raise TransformDegenerateError(f"a T-jet coefficient or remainder contains the T-jet {jv!r}")
        if rest or free:
            rat, mono = content(*(c for c in (*row, rest, *(q.num for q in free)) if c))
            row, rest = [strip_monomial(c, mono) / rat for c in row], strip_monomial(rest, mono) / rat
            scale = (den or ONE) / rat
            free = [JetQuotient(strip_monomial(q.num, mono) * scale, q.den) for q in free]
        rows.append(row)
        rests.append([JetQuotient(rest), *free])
    if len(rows) != len(sys.unknowns):
        raise TransformDegenerateError(
            f"T-jet matrix is not square: {len(rows)} equations, {len(sys.unknowns)} unknowns"
        )
    return rows, rests


def _det_mod(mat: list[list[int]]) -> tuple[int, tuple[int, ...]]:
    """Determinant over GF(PRIME) by Gaussian elimination, and for each
    column the original row that pivots it (empty when singular)."""
    n = len(mat)
    m = [row[:] for row in mat]
    order = list(range(n))
    det = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return 0, ()
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            order[col], order[piv] = order[piv], order[col]
            det = -det
        det = det * m[col][col] % PRIME
        inv = pow(m[col][col], -1, PRIME)
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv % PRIME
                m[r] = [(a - f * b) % PRIME for a, b in zip(m[r], m[col])]
    return det, tuple(order)


def t_solvability_witness(sys: PDESystem) -> tuple[int, tuple[int, ...]]:
    """t_matrix_witness of the T-jet matrix of t_jet_split."""
    return t_matrix_witness(t_jet_split(sys)[0], sys)


def t_matrix_witness(rows: list[list[DiffPoly]], sys: PDESystem) -> tuple[int, tuple[int, ...]]:
    """Evaluate the T-jet matrix rows of sys (from t_jet_split) at a
    random point of GF(PRIME), drawn with the fixed seed CK_SEED clear of
    the poles of sys, and require it to be invertible; returns the
    determinant mod PRIME and the row that pivots each column.  A nonzero
    result proves the matrix nonsingular over Q: reduction mod PRIME is a
    ring map that commutes with evaluation and with the determinant, so
    the determinant polynomial is not zero; likewise each pivot is a
    nonzero rational function of the jets.  Only a zero result can be
    wrong, with probability at most degree/PRIME (Schwartz-Zippel)."""
    vs, ws = sys.provenance.get("pole_fields", ((), ()))
    jvs = {jv for row in rows for c in row for jv in c.jet_variables()}
    pt = next(random_points(jvs, random.Random(CK_SEED), pole_pairs=pole_pairs_for((*vs, *ws))))
    vals = iter(evaluate_mod([c for row in rows for c in row], [pt]))
    det, pivots = _det_mod([[next(vals)[0] for _ in row] for row in rows])
    if det == 0:
        raise TransformDegenerateError("T-jet coefficient matrix is singular at the witness point")
    return det, pivots


# -- planar reduction ------------------------------------------------------------


def _kill_z_jets(e: DiffPoly) -> DiffPoly:
    z_jets = [jv for jv in e.jet_variables() if jv.d[2] > 0]
    return decompose_by_jets(e, z_jets).get((0,) * len(z_jets), ZERO)


def reduce_equation(eq: JetQuotient) -> JetQuotient | None:
    num = _kill_z_jets(eq.num)
    den = _kill_z_jets(eq.den)
    if den.is_zero():
        raise StructureError("denominator vanishes under the planar reduction")
    if num.is_zero():
        return None
    return JetQuotient(num, den)


def reduce_system(sys: PDESystem) -> PDESystem:
    """Set every z-jet of every unknown to zero in each equation's sum;
    drop equations that become trivial."""
    eqs, kept = [], []
    for i, eq in enumerate(sys.equations):
        r = reduce_equation(eq)
        if r is not None:
            eqs.append((r,))
            kept.append(i)
    prov = dict(sys.provenance)
    prov["kept_equations"] = tuple(kept)
    if "p_degrees" in prov:
        prov["p_degrees"] = tuple(prov["p_degrees"][i] for i in kept)
    independents = tuple(d for d in sys.independents if d not in ("z", "Z"))
    return PDESystem(sys.unknowns, independents, eqs, prov)


def reduce_2plus1(lax: LaxPair) -> tuple[LaxPair, PDESystem]:
    """The planar reduction: field z-jets vanish and psi_z == 1, so
    p becomes psi_x.  Returns the reduced pair and its compatibility
    system."""
    lax21 = replace(lax, dimension="2+1")
    cc = compatibility_condition(lax21)
    return lax21, extract_system(cc, lax21)


# -- comparison against the published rational-family system --------------------


@dataclass(frozen=True)
class LineMatch:
    label: str
    derived_label: str
    matched: bool
    eval_matched: bool
    diff_terms: tuple[str, ...]


@dataclass(frozen=True)
class MatchReport:
    m: int
    n: int
    lines: tuple[LineMatch, ...]
    verdict: str  # "pass" | "mismatch-reported"


def _compare_as_equations(q_derived: JetQuotient, q_printed: JetQuotient, rng, pole_pairs):
    c1 = q_derived.num * q_printed.den
    c2 = q_printed.num * q_derived.den
    p1 = primitive(c1)[0] if not c1.is_zero() else c1
    p2 = primitive(c2)[0] if not c2.is_zero() else c2
    # primitive signs each side by its own leading term, so a mismatch
    # term that leads one side flips it: itemize the shorter of p1 -+ p2
    # (two sign-normalized primitives are never negatives of each other),
    # signed by its term of least factor list in jet_sort_key order, not by jet ids
    diff = min(p1 - p2, p1 + p2, key=lambda d: len(d.terms))
    first = min(diff.monomials(), key=lambda t: sorted((jet_sort_key(jv), k) for jv, k in t[1]), default=(1,))
    diff = -diff if first[0] < 0 else diff
    matched = diff.is_zero()
    jvs = set(p1.jet_variables()) | set(p2.jet_variables())
    # drawn lazily: the line stops at its first nonzero point, and rng goes on to the next line
    draws = islice(random_points(jvs, rng, pole_pairs=pole_pairs), 20)
    eval_matched = all(evaluate_mod([diff], [pt])[0][0] == 0 for pt in draws)
    terms = tuple(f"{c} * {dict(fs)}" if fs else f"{c}" for c, fs in diff.monomials())
    return matched, eval_matched, terms


def match_printed_system(m: int, n: int) -> MatchReport:
    """Compare the machine-derived rational-family system against the
    hand transcription of its published form, line by line, both
    symbolically and at 20 random points of GF(PRIME).  Discrepancies are
    itemized term by term, never reconciled silently."""
    from .transcriptions import load_printed_rational_system, quotient_from_tree

    golden = load_printed_rational_system(m, n)
    lax = make_family(RAT, m, n)
    fields = {f.name: f for f in lax.fields}
    rs = derive(RAT, m, n, form="residues")
    labels = rs.provenance["labels"]
    if len(labels) != len(golden["lines"]):
        raise StructureError("transcription and derivation disagree on the equation count")
    rng = random.Random(1189)
    vs, ws = lax.pole_fields()
    pairs = pole_pairs_for((*vs, *ws))
    lines = []
    for (dl, deq), gl in zip(zip(labels, rs.equations), golden["lines"]):
        printed = quotient_from_tree(gl["expr"], fields)
        matched, eval_matched, diff = _compare_as_equations(deq, printed, rng, pairs)
        if matched != eval_matched:
            raise DerivationError(f"symbolic and random-point verdicts disagree on {gl['label']}")
        lines.append(LineMatch(gl["label"], dl, matched, eval_matched, diff if not matched else ()))
    verdict = "pass" if all(l.matched for l in lines) else "mismatch-reported"
    return MatchReport(m, n, tuple(lines), verdict)
