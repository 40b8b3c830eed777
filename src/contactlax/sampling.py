"""Random points of GF(p), p = 2^61 - 1, for the randomized identity checks.

The residue spot check, the printed-system line comparison and the
T-solvability witness all draw their points here, from one
``random_points`` stream per check, and evaluate with
``jetalg.evaluate_mod``, which takes many expressions at many points.
The spot check draws its five points (and a value of p at each) first,
then evaluates every recorded term at all five in one call, against
``compat.bracket_mod`` there; the witness evaluates every entry of its
T-jet matrix at its one point in one call; the line comparison
evaluates one difference at one point at a time, and stops drawing at
the first point where it is nonzero.  A nonzero polynomial of total
degree d vanishes at a uniform point of GF(p)^k with probability at
most d/p (Schwartz, J. ACM 27(4), 1980; Zippel, EUROSAM 1979).  A point
on which two poles of a requested pair coincide is drawn again."""

from __future__ import annotations

import random
from collections.abc import Iterator

from .jetalg import PRIME, JetVariable, jet_sort_key

_DRAWS = 8


def random_points(jet_vars, rng: random.Random, pole_pairs=()) -> Iterator[dict[JetVariable, int]]:
    """Uniform points of GF(PRIME), drawn from rng as they are asked for.
    Each point's values are assigned in one fixed variable order, sorted
    once, so the points do not depend on string hashing."""
    jet_vars = sorted(jet_vars, key=jet_sort_key)
    known = set(jet_vars)
    pole_pairs = [(a, b) for a, b in pole_pairs if a in known and b in known]
    while True:
        for _ in range(_DRAWS):
            pt = {jv: rng.randrange(PRIME) for jv in jet_vars}
            if all(pt[a] != pt[b] for a, b in pole_pairs):
                break
        else:
            raise RuntimeError("could not sample a point clear of the poles")
        yield pt


def pole_pairs_for(poles) -> list[tuple[JetVariable, JetVariable]]:
    """All unordered pairs (i < j) of the given pole fields' locations."""
    spots = [JetVariable(f) for f in poles]
    return [(spots[i], spots[j]) for i in range(len(spots)) for j in range(i + 1, len(spots))]
