"""Random rational jet points for probabilistic cross-checks.

Numerators and denominators stay below 100 and samples are rejected when
any requested pole difference falls under the gap threshold, so pole
denominators never get small."""

from __future__ import annotations

import random
from fractions import Fraction

from .jetalg import JetVariable


def random_rational(rng: random.Random, max_abs: int = 100, max_den: int = 100) -> Fraction:
    return Fraction(rng.randint(-max_abs, max_abs), rng.randint(1, max_den))


def random_point(
    jet_vars,
    rng: random.Random,
    pole_pairs=(),
    min_gap: Fraction = Fraction(1, 10),
    tries: int = 500,
) -> dict[JetVariable, Fraction]:
    jet_vars = list(jet_vars)
    for _ in range(tries):
        pt = {jv: random_rational(rng) for jv in jet_vars}
        ok = True
        for a, b in pole_pairs:
            if a in pt and b in pt and abs(pt[a] - pt[b]) < min_gap:
                ok = False
                break
        if ok:
            return pt
    raise RuntimeError("could not sample a point clear of the poles")


def pole_pairs_for(poles) -> list[tuple[JetVariable, JetVariable]]:
    """All unordered pairs (i < j) of the given pole fields' locations."""
    spots = [JetVariable(f) for f in poles]
    return [(spots[i], spots[j]) for i in range(len(spots)) for j in range(i + 1, len(spots))]
