import random
from fractions import Fraction

import pytest

from contactlax.gauge import Q
from contactlax.jetalg import (
    ONE,
    ZERO,
    CoverageError,
    JetQuotient,
    JetVariable,
    PoleError,
)
from contactlax.laxfamilies import POLY, RAT, RATGP
from contactlax.pfield import ParameterError, PPoly, PRational


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
