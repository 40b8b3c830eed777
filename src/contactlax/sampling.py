"""Random points of GF(p), p = 2^61 - 1, for the randomized identity checks.

The residue spot check, the printed-system line comparison and
the T-solvability witness all sample here.  The spot check evaluates
all its rows at its five points in one ``jetalg.evaluate_mod_points``
call, against ``compat.bracket_mod`` there; the witness evaluates all
the entries of its T-jet matrix at its one point in one such call; the
line comparison evaluates one difference at a time with
``jetalg.evaluate_mod``, and stops at the first point where it is
nonzero.  Within one call, each jet power is computed once per point.
A nonzero polynomial of total degree d vanishes at a uniform point of
GF(p)^k with probability at most d/p (Schwartz, J. ACM 27(4), 1980;
Zippel, EUROSAM 1979).  A point on which two poles of a requested pair
coincide is drawn again."""

from __future__ import annotations

import random

from .jetalg import PRIME, JetVariable, jet_sort_key

_DRAWS = 8


def random_point(jet_vars, rng: random.Random, pole_pairs=()) -> dict[JetVariable, int]:
    """Uniform values in GF(PRIME), assigned in a fixed variable order so
    the point does not depend on string hashing."""
    jet_vars = sorted(jet_vars, key=jet_sort_key)
    for _ in range(_DRAWS):
        pt = {jv: rng.randrange(PRIME) for jv in jet_vars}
        if all(pt[a] != pt[b] for a, b in pole_pairs if a in pt and b in pt):
            return pt
    raise RuntimeError("could not sample a point clear of the poles")


def pole_pairs_for(poles) -> list[tuple[JetVariable, JetVariable]]:
    """All unordered pairs (i < j) of the given pole fields' locations."""
    spots = [JetVariable(f) for f in poles]
    return [(spots[i], spots[j]) for i in range(len(spots)) for j in range(i + 1, len(spots))]
