import random
from fractions import Fraction

import pytest


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
