import math
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from contactlax.gauge import Q
from contactlax.jetalg import (
    ONE,
    ZERO,
    CoverageError,
    DiffPoly,
    FieldId,
    JetQuotient,
    JetVariable,
    P,
    PRIME,
    PoleError,
    decompose_by_jets,
    divide_exact,
    jet,
    jet_sort_key,
    p_coefficients,
    partial,
    total_derivative_q,
)
from contactlax.laxfamilies import POLY, RAT, RATGP, LaxPair
from contactlax.pfield import ParameterError
from contactlax.sampling import pole_pairs_for

# the parameter p as a polynomial
p = DiffPoly.from_jet(P)


FIELD_NAMES = ("u1", "u2", "v1", "w1")


@pytest.fixture
def rng():
    return random.Random(20240611)


def random_tree(rng: random.Random, names=FIELD_NAMES, depth: int = 3):
    """Raw expression tree (wire-format nodes), small enough to stay fast
    in exact arithmetic."""
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.3:
            v = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            return {"op": "num", "value": str(v)}
        d = [0, 0, 0, 0]
        if rng.random() < 0.5:
            d[rng.randrange(4)] = rng.randint(1, 2)
        return {"op": "jet", "field": rng.choice(names), "d": d}
    op = rng.choice(("add", "mul", "pow"))
    if op == "pow":
        return {"op": "pow", "base": random_tree(rng, names, depth - 1), "exp": rng.randint(0, 3)}
    k = rng.randint(2, 3)
    return {"op": op, "args": [random_tree(rng, names, depth - 1) for _ in range(k)]}


def random_rational(rng: random.Random) -> Fraction:
    """Small-height rational: numerator and denominator below 100."""
    return Fraction(rng.randint(-100, 100), rng.randint(1, 100))


def rational_point(jet_vars, rng: random.Random, pole_pairs=()):
    """Small-height rational point with every pole pair at least 1/10
    apart, for the exact and floating-point oracles of the tests."""
    jet_vars = sorted(jet_vars, key=lambda jv: (jv.field.name, jv.field.role, jv.d))
    for _ in range(500):
        pt = {jv: random_rational(rng) for jv in jet_vars}
        if all(abs(pt[a] - pt[b]) >= Fraction(1, 10) for a, b in pole_pairs):
            return pt
    raise RuntimeError("could not sample a point clear of the poles")


def random_point(jet_vars, rng: random.Random, pole_pairs=()) -> dict[JetVariable, int]:
    """One uniform point of GF(PRIME) per call, the variables sorted on
    every call and drawn again, up to 8 times, while a pole pair
    coincides: the oracle of sampling.random_points, which sorts once
    and draws the same values from the same generator state."""
    jet_vars = sorted(jet_vars, key=jet_sort_key)
    for _ in range(8):
        pt = {jv: rng.randrange(PRIME) for jv in jet_vars}
        if all(pt[a] != pt[b] for a, b in pole_pairs if a in pt and b in pt):
            return pt
    raise RuntimeError("could not sample a point clear of the poles")


# -- exact oracles, written against the public API -----------------------------


def p_coeffs(e) -> list[JetQuotient]:
    """The coefficients by ascending p-degree of a polynomial in p with
    jet-quotient coefficients: a DiffPoly, or a JetQuotient whose
    denominator is free of p.  Zero has none."""
    e = e if isinstance(e, JetQuotient) else JetQuotient(e)
    assert P not in e.den.jet_variables(), "not a polynomial in p"
    parts = decompose_by_jets(e.num, [P])
    return [JetQuotient(parts.get((k,), ZERO), e.den) for k in range(max(parts)[0] + 1)] if parts else []


def from_p_coeffs(cs) -> JetQuotient:
    return sum((c * p ** k for k, c in enumerate(cs)), JetQuotient(ZERO))


def p_eval(e, at) -> JetQuotient:
    """Horner evaluation of a polynomial in p at a jet-quotient value."""
    acc = JetQuotient(ZERO)
    for c in reversed(p_coeffs(e)):
        acc = acc * at + c
    return acc


def p_deriv(e) -> JetQuotient:
    e = e if isinstance(e, JetQuotient) else JetQuotient(e)
    return JetQuotient(partial(e.num, P), e.den)


def poly_divmod(a, b) -> tuple[JetQuotient, JetQuotient]:
    """Division with remainder of polynomials in p over the jet quotients."""
    bs = p_coeffs(b)
    if not bs:
        raise PoleError("polynomial division by zero")
    rem = p_coeffs(a)
    quot = [JetQuotient(ZERO)] * max(0, len(rem) - len(bs) + 1)
    db, lead = len(bs) - 1, bs[-1]
    while len(rem) - 1 >= db and rem:
        k = len(rem) - 1 - db
        c = rem[-1] / lead
        quot[k] = c
        for j in range(db + 1):
            rem[k + j] = rem[k + j] - c * bs[j]
        while rem and rem[-1].is_zero():
            rem.pop()
    return from_p_coeffs(quot), from_p_coeffs(rem)


def poly_div_exact(a, b) -> JetQuotient | None:
    q, r = poly_divmod(a, b)
    return q if r.is_zero() else None


def prational_sum(a: JetQuotient, b: JetQuotient) -> JetQuotient:
    """a + b, over the larger denominator when the other divides it as a
    polynomial in p, else over their product."""
    for x, y in ((a, b), (b, a)):
        q = poly_div_exact(y.den, x.den)
        if q is not None:
            return (x.num * q + y.num) / JetQuotient(y.den)
    return JetQuotient(a.num * b.den + b.num * a.den, a.den * b.den)


@dataclass(frozen=True)
class PoleBlock:
    pole: FieldId
    residue: JetQuotient  # multiplies 1/(p - pole)


@dataclass(frozen=True)
class PartialFractions:
    polypart: JetQuotient  # a polynomial in p
    poles: tuple[PoleBlock, ...]

    def reassemble(self) -> JetQuotient:
        return sum((blk.residue / (p - jet(blk.pole)) for blk in self.poles), self.polypart)


def partial_fraction(r: JetQuotient, poles: list[FieldId]) -> PartialFractions:
    """The partial-fraction view of r over the given simple symbolic poles:
    the residue at a pole v is rem(v)/D'(v), rem the remainder of the
    numerator modulo the denominator D.  The view is checked by exact
    reassembly.  A rational family's pair records its view instead
    (LaxPair.pole_data); this computes one from F or G alone."""
    polypart, rem = poly_divmod(r.num, r.den)
    dden = p_deriv(r.den)
    blocks = []
    for fid in poles:
        pole_val = JetQuotient(jet(fid))
        d_at = p_eval(dden, pole_val)
        if d_at.is_zero():
            raise ParameterError(f"{fid.name} is not a simple pole")
        blocks.append(PoleBlock(fid, p_eval(rem, pole_val) / d_at))
    pf = PartialFractions(polypart, tuple(blocks))
    if not (pf.reassemble() == r):
        raise ParameterError("partial fractions do not reassemble; pole list incomplete?")
    return pf


def evaluate(e, point: dict) -> Fraction:
    """Exact evaluation at a point mapping JetVariable -> rational."""
    if isinstance(e, JetQuotient):
        den = evaluate(e.den, point)
        if den == 0:
            raise PoleError("denominator vanishes at the point")
        return evaluate(e.num, point) / den
    total = Fraction(0)
    for c, factors in e.monomials():
        for jv, p in factors:
            if jv not in point:
                raise CoverageError(f"no value for {jv!r}")
            c *= Fraction(point[jv]) ** p
        total += c
    return total


def eval_tree(node, point_by_name: dict) -> Fraction:
    """Direct evaluation of a wire-format tree, without normalization;
    point_by_name maps (field name, multi-index) -> rational."""
    op = node["op"]
    if op == "num":
        return Fraction(str(node["value"]))
    if op == "jet":
        key = (node["field"], tuple(node.get("d", (0, 0, 0, 0))))
        if key not in point_by_name:
            raise CoverageError(f"no value for {key}")
        return Fraction(point_by_name[key])
    if op == "add":
        return sum((eval_tree(a, point_by_name) for a in node["args"]), Fraction(0))
    if op == "mul":
        out = Fraction(1)
        for a in node["args"]:
            out *= eval_tree(a, point_by_name)
        return out
    if op == "pow":
        return eval_tree(node["base"], point_by_name) ** node["exp"]
    raise ValueError(f"unknown op {op!r}")


def _frac_str(c) -> str:
    f = Fraction(c)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def tree_oracle(e: DiffPoly) -> dict:
    """The wire-format tree of e built node by node as a dict, in the
    order of DiffPoly.monomials(); the oracle for jetalg.write_tree."""
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


def _quotient_oracle(q: JetQuotient) -> dict:
    return {"num": tree_oracle(q.num), "den": tree_oracle(q.den)}


def _p_quotient_oracle(r: JetQuotient, pf: PartialFractions | None = None) -> dict:
    num, den = p_coefficients(r)
    out = {
        "num": [tree_oracle(c) for c in num],
        "den": [tree_oracle(c) for c in den],
    }
    if pf is not None:
        out["pf"] = {
            "polypart": [_quotient_oracle(c) for c in p_coeffs(pf.polypart)],
            "poles": [
                {
                    "pole": blk.pole.name,
                    "order": 1,
                    "residues": [_quotient_oracle(blk.residue)],
                }
                for blk in pf.poles
            ],
        }
    return out


def laxpair_oracle(lax: LaxPair) -> dict:
    """A lax pair's JSON document built as a dict tree, a rational
    family's views computed from F and G alone; the oracle for
    serialize.laxpair_dumps."""
    pf_F, pf_G = (partial_fraction(r, poles) if lax.pole_data else None
                  for r, poles in zip((lax.F, lax.G), lax.pole_fields()))
    return {
        "family": lax.family,
        "m": lax.m,
        "n": lax.n,
        "dimension": lax.dimension,
        "fields": [f.name for f in lax.fields],
        "F": _p_quotient_oracle(lax.F, pf_F),
        "G": _p_quotient_oracle(lax.G, pf_G),
    }


def pdesystem_oracle(sys) -> dict:
    """A system's JSON document built as a dict tree; the oracle for
    serialize.pdesystem_dumps."""
    prov = {}
    for k in ("family", "m", "n", "dimension", "path", "ck_of"):
        if k in sys.provenance:
            prov[k] = sys.provenance[k]
    for k in ("p_degrees", "dropped_zero_coefficients", "labels", "kept_equations"):
        if k in sys.provenance:
            prov[k] = list(sys.provenance[k])
    if "pole_fields" in sys.provenance:
        vs, ws = sys.provenance["pole_fields"]
        prov["pole_fields"] = [[f.name for f in vs], [f.name for f in ws]]
    prov["denominators"] = [tree_oracle(eq.den) for eq in sys.equations]
    if "original_system" in sys.provenance:
        prov["original_system"] = pdesystem_oracle(sys.provenance["original_system"])
    return {
        "unknowns": [f.name for f in sys.unknowns],
        "independents": list(sys.independents),
        "equations": [tree_oracle(eq.num) for eq in sys.equations],
        "provenance": prov,
    }


def residue_oracle(cc: JetQuotient, lax: LaxPair) -> list:
    """The residue equations of a rational-family pair the global way:
    the order-2 partial fraction of the whole compatibility condition
    (remainder modulo its denominator, two deflations per pole, the
    quotient rule for the order-1 residue), each residue then reduced
    over the pole differences.  Returns (label, equation) pairs; the
    oracle for compat.residue_system."""
    vs, ws = lax.pole_fields()
    poles = (*vs, *ws)
    polypart, rem = poly_divmod(cc.num, cc.den)
    diffs = [DiffPoly.from_jet(a) - DiffPoly.from_jet(b) for a, b in pole_pairs_for(poles)]
    residues = {}
    for f in poles:
        at = JetQuotient(jet(f))
        q = cc.den
        for _ in range(2):
            q, r = poly_divmod(q, p - at)
            assert r.is_zero(), f"{f.name} is not a double pole"
        n_at, q_at = p_eval(rem, at), p_eval(q, at)
        first = (p_eval(p_deriv(rem), at) * q_at - n_at * p_eval(p_deriv(q), at)) / (q_at * q_at)
        residues[f.name] = {2: n_at / q_at, 1: first}
    out = [("constant", c) for c in p_coeffs(polypart) if not c.is_zero()]
    for order in (2, 1):
        for f in poles:
            num, den = residues[f.name][order].num, residues[f.name][order].den
            for d in diffs:
                while (qn := divide_exact(num, d)) is not None and (qd := divide_exact(den, d)) is not None:
                    num, den = qn, qd
            out.append((f"{f.name}:{order}", JetQuotient(num, den)))
    return out


def _prolonged_rule(rules: dict, jv: JetVariable):
    """The replacement of jv under substitute's rules: the rule of the
    highest base below jv, totally differentiated up to jv; None when no
    base lies below it."""
    bases = [b for b in rules if b.field == jv.field and all(j >= k for j, k in zip(jv.d, b.d))]
    if not bases:
        return None
    base = max(bases, key=lambda b: (sum(b.d), b.d))
    q = rules[base] if isinstance(rules[base], JetQuotient) else JetQuotient(rules[base])
    for ax in range(4):
        for _ in range(jv.d[ax] - base.d[ax]):
            q = total_derivative_q(q, ax)
    return q


def _per_group_sum(poly: DiffPoly, fn) -> JetQuotient | None:
    """poly with each jet replaced by fn's quotient (None keeps it), one
    normalized quotient per term group and partial sum, as jetalg's
    replacement kernel summed before it put every group over one common
    denominator; None when nothing is replaced."""
    jets = [jv for jv in poly.jet_variables() if fn(jv) is not None]
    if not jets:
        return None
    total = JetQuotient(ZERO)
    for pows, rest in decompose_by_jets(poly, jets).items():
        q = JetQuotient(rest)
        for jv, pw in zip(jets, pows):
            q = q * fn(jv) ** pw
        total = total + q
    return total


def substitute_oracle(e, rules: dict) -> JetQuotient:
    """substitute(e, rules) by the per-group quotient sum: numerator and
    denominator replaced group by group, then divided."""
    q = e if isinstance(e, JetQuotient) else JetQuotient(e)
    num, den = (_per_group_sum(part, lambda jv: _prolonged_rule(rules, jv)) for part in (q.num, q.den))
    if num is None and den is None:
        return q
    return (JetQuotient(q.num) if num is None else num) / (JetQuotient(q.den) if den is None else den)


def compose_linear(r: JetQuotient, c1, c0) -> JetQuotient:
    """r evaluated at p -> c1*p + c0 (jet-quotient constants, c1 != 0)."""
    arg = c1 * p + c0
    return p_eval(r.num, arg) / p_eval(r.den, arg)


def q_is_z() -> dict:
    """Jet values of the identity gauge q = z."""
    return {
        JetVariable(Q, (1, 0, 0, 0)): JetQuotient(ZERO),
        JetVariable(Q, (0, 1, 0, 0)): JetQuotient(ZERO),
        JetVariable(Q, (0, 0, 1, 0)): JetQuotient(ONE),
        JetVariable(Q, (0, 0, 0, 1)): JetQuotient(ZERO),
    }


def unit_q_z() -> dict:
    """The q_z = 1 slice (q_x, q_y, q_t remain free)."""
    return {JetVariable(Q, (0, 0, 1, 0)): JetQuotient(ONE)}


def expected_roster_size(family: str, m: int, n: int) -> int:
    if family == POLY:
        return m + n + 1
    if family == RAT:
        return 2 * (m + n)
    if family == RATGP:
        return 2 * (m + n + 1)
    raise ParameterError(f"unknown family {family!r}")


def residual_oracle(cs, times, snapshots, grid) -> float:
    """The original-form residual field by field: each field's own
    stack_plan walked over that field alone, and the three-point
    T-derivative formed again for each of its y or t jets; the oracle for
    numeric.residual_original_form.  The snapshots are three dicts name
    -> array."""
    import numpy as np  # here, so that the exact tests never load NumPy

    from contactlax.numeric import fd2_diff, stack_plan

    (t0, t1, t2), (prev, cur, nxt) = times, snapshots
    h0, h1 = t1 - t0, t2 - t1
    jets = {}
    for name in dict.fromkeys(name for name, _ in cs.residual_jets):
        own = [(d, (0, 1, 0) if d[1] or d[3] else d[:3]) for n, d in cs.residual_jets if n == name]
        spatial = {(0, 0, 0): cur[name]}
        for d, parent, axis, h in stack_plan([(name, key) for _, key in own], grid):
            spatial[d] = fd2_diff(spatial[parent], axis, h)
        for d, key in own:
            u = spatial[key]
            if d[1] or d[3]:
                u_T = (h0 * h0 * (nxt[name] - cur[name]) + h1 * h1 * (cur[name] - prev[name])) / (h0 * h1 * (h0 + h1))
                u = u_T + u if d[1] else u_T - u
            jets[name, d] = u
    rs = [np.asarray(r) for r in cs._residual(*map(jets.get, cs.residual_jets))]
    return math.sqrt(sum(float(np.sum(r ** 2)) for r in rs) / sum(r.size for r in rs))
