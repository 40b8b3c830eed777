import random
from fractions import Fraction

import pytest

from contactlax.gauge import Q
from contactlax.jetalg import (
    ONE,
    ZERO,
    CoverageError,
    DiffPoly,
    JetQuotient,
    JetVariable,
    PoleError,
    divide_exact,
    jet,
)
from contactlax.laxfamilies import POLY, RAT, RATGP, LaxPair
from contactlax.pfield import (
    ParameterError,
    PartialFractions,
    PPoly,
    PRational,
    collect,
    p_minus,
    partial_fraction,
    poly_divmod,
)
from contactlax.sampling import pole_pairs_for


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


# -- exact oracles, written against the public API -----------------------------


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


def _prational_oracle(r: PRational, pf: PartialFractions | None = None) -> dict:
    num, den = collect(r)
    out = {
        "num": [tree_oracle(c.num) for c in num.coeffs],
        "den": [tree_oracle(c.num) for c in den.coeffs],
    }
    if pf is not None:
        out["pf"] = {
            "polypart": [_quotient_oracle(c) for c in pf.polypart.coeffs],
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
        "F": _prational_oracle(lax.F, pf_F),
        "G": _prational_oracle(lax.G, pf_G),
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


def residue_oracle(cc: PRational, lax: LaxPair) -> list:
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
            q, r = poly_divmod(q, p_minus(at))
            assert r.is_zero(), f"{f.name} is not a double pole"
        n_at, q_at = rem.eval_at(at), q.eval_at(at)
        first = (rem.deriv().eval_at(at) * q_at - n_at * q.deriv().eval_at(at)) / (q_at * q_at)
        residues[f.name] = {2: n_at / q_at, 1: first}
    out = [("constant", c) for c in polypart.coeffs if not c.is_zero()]
    for order in (2, 1):
        for f in poles:
            num, den = residues[f.name][order].num, residues[f.name][order].den
            for d in diffs:
                while (qn := divide_exact(num, d)) is not None and (qd := divide_exact(den, d)) is not None:
                    num, den = qn, qd
            out.append((f"{f.name}:{order}", JetQuotient(num, den)))
    return out


def compose_linear(r: PRational, c1, c0) -> PRational:
    """r evaluated at p -> c1*p + c0 (jet-quotient constants, c1 != 0)."""
    arg = PPoly([c0, c1])

    def horner(pp: PPoly) -> PPoly:
        acc = PPoly()
        for c in reversed(pp.coeffs):
            acc = acc * arg + PPoly([c])
        return acc

    return PRational(horner(r.num), horner(r.den))


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
