"""The gauge sector: the constant-term pair (a0, b0), its potential q,
the change of variables z~ = q that removes the gauge freedom, and the
end-to-end machine verification that a general-position rational pair
turns into the pole-only pair.

The pair is transformed once; candidate field maps are data checked
against that one result:

  * the "printed" map  a~_i = a_i q_z^2,  v~_i = v_i - q_x/q_z
  * the "solved"  map, read off mechanically from the transformed pair
    one pole term at a time.

Verification reports which of the two renders the transformed pair in
the pole-only template; the chain-rule computation is the judge.
"""

from __future__ import annotations

from itertools import chain

from .compat import PSI, constant_row, p_form, wave_form
from .errors import GaugeError, StructureError
from .jetalg import (
    POTENTIAL,
    WAVE,
    ZERO,
    P,
    DiffPoly,
    FieldId,
    JetQuotient,
    JetVariable,
    jet,
    jets_of_field,
    linear_coefficient,
    p_coefficients,
    substitute,
    to_tree,
)
from .laxfamilies import LaxPair, RAT, RATGP, make_ratgp

PSI_NEW = FieldId("psi_tilde", WAVE)
Q = FieldId("q", POTENTIAL)
A0 = FieldId("a0")
B0 = FieldId("b0")


def gauge_residual(a0: JetQuotient | DiffPoly, b0: JetQuotient | DiffPoly) -> JetQuotient:
    """Normal form of (a0)_t - (b0)_y - b0 (a0)_z + a0 (b0)_z, the sum of
    compat.constant_row."""
    return sum(constant_row(*(q if isinstance(q, JetQuotient) else JetQuotient(q) for q in (a0, b0))))


def potential_solution() -> tuple[JetQuotient, JetQuotient]:
    """The general solution of the residual equation: a0 = q_y/q_z,
    b0 = q_t/q_z."""
    qy = jet(Q, (0, 1, 0, 0))
    qt = jet(Q, (0, 0, 0, 1))
    qz = jet(Q, (0, 0, 1, 0))
    return JetQuotient(qy, qz), JetQuotient(qt, qz)


def chain_rules() -> dict:
    """First-order wave-function chain rule induced by z~ = q."""
    nx = jet(PSI_NEW, (1, 0, 0, 0))
    ny = jet(PSI_NEW, (0, 1, 0, 0))
    nz = jet(PSI_NEW, (0, 0, 1, 0))
    nt = jet(PSI_NEW, (0, 0, 0, 1))
    qx = jet(Q, (1, 0, 0, 0))
    qy = jet(Q, (0, 1, 0, 0))
    qz = jet(Q, (0, 0, 1, 0))
    qt = jet(Q, (0, 0, 0, 1))
    return {
        JetVariable(PSI, (1, 0, 0, 0)): JetQuotient(nx + nz * qx),
        JetVariable(PSI, (0, 1, 0, 0)): JetQuotient(ny + nz * qy),
        JetVariable(PSI, (0, 0, 1, 0)): JetQuotient(nz * qz),
        JetVariable(PSI, (0, 0, 0, 1)): JetQuotient(nt + nz * qt),
    }


def constraint_rules() -> dict:
    """q_y -> a0 q_z and q_t -> b0 q_z; prolongation covers higher jets,
    so no y- or t-jet of q survives their application."""
    qz = jet(Q, (0, 0, 1, 0))
    return {
        JetVariable(Q, (0, 1, 0, 0)): JetQuotient(jet(A0) * qz),
        JetVariable(Q, (0, 0, 0, 1)): JetQuotient(jet(B0) * qz),
    }


def _transform_equation(r: JetQuotient, lhs_slot: int, values: dict | None) -> JetQuotient:
    """Push one Lax equation (psi_<slot> = psi_z * r) through the change
    of variables and solve it for the new wave jet; returns the new
    right-hand rational function of p."""
    num_h, den_h = wave_form(r)
    lhs_d = [0, 0, 0, 0]
    lhs_d[lhs_slot] = 1
    psiz = DiffPoly.from_jet(JetVariable(PSI, (0, 0, 1, 0)))
    relation = DiffPoly.from_jet(JetVariable(PSI, tuple(lhs_d))) * den_h - psiz * num_h
    moved = substitute(relation, chain_rules())
    moved = substitute(substitute(moved, constraint_rules()), values or {})
    new_jet = JetVariable(PSI_NEW, tuple(lhs_d))
    if jets_of_field(moved.den, PSI_NEW) & {new_jet}:
        raise StructureError("new wave jet appears in a denominator")
    coeff, rest = linear_coefficient(moved.num, new_jet)
    if coeff.is_zero():
        raise GaugeError("transformed relation is not solvable for the new wave jet")
    return p_form(JetQuotient(-rest, coeff), PSI_NEW)


def transform_pair(lax: LaxPair, values: dict | None = None) -> tuple[JetQuotient, JetQuotient]:
    """(F~, G~): the pair pushed through z~ = q by the wave-function
    chain rule and the constraint rewriting, then specialized by
    ``values`` (jet -> expression: q jets and fields, e.g. the q_z = 1
    slice or the identity gauge q = z).  No y- or t-jet of q survives."""
    if lax.family not in (RATGP, RAT):
        raise GaugeError("the change of variables applies to the rational families")
    pair = (_transform_equation(lax.F, 1, values), _transform_equation(lax.G, 3, values))
    if any(jv.d[1] or jv.d[3] for r in pair for part in (r.num, r.den) for jv in jets_of_field(part, Q)):
        raise GaugeError("y- or t-jets of the potential survived constraint elimination")
    return pair


def transform_rhs(r: JetQuotient, values: dict | None = None) -> JetQuotient:
    """Transform psi_z * r(p) alone (no left-hand side, no constraints):
    the building block for reading off the solved field map term by
    term."""
    num_h, den_h = wave_form(r)
    psiz = DiffPoly.from_jet(JetVariable(PSI, (0, 0, 1, 0)))
    e = substitute(JetQuotient(psiz * num_h, den_h), chain_rules())
    return p_form(substitute(e, values or {}), PSI_NEW)


def printed_field_map(lax: LaxPair, values: dict | None = None) -> dict:
    """The published map: residues scale by q_z^2, poles shift by
    q_x/q_z."""
    qx = JetQuotient(jet(Q, (1, 0, 0, 0)))
    qz = JetQuotient(jet(Q, (0, 0, 1, 0)))
    out = {}
    for res, pole in chain.from_iterable(pairs for _, pairs in lax.pole_data):
        out[res.name] = JetQuotient(jet(res)) * qz * qz
        out[pole.name] = JetQuotient(jet(pole)) - qx / qz
    return {k: substitute(v, values or {}) for k, v in out.items()}


def solved_field_map(lax: LaxPair, values: dict | None = None) -> dict:
    """Read the map off the engine itself: transform each simple-pole
    term and match it against residue/(p - pole)."""
    out = {}
    for res, pole in chain.from_iterable(pairs for _, pairs in lax.pole_data):
        num, den = p_coefficients(transform_rhs(JetQuotient(jet(res), DiffPoly.from_jet(P) - jet(pole)), values))
        if len(den) != 2 or len(num) > 1:
            raise GaugeError(f"transformed pole term for {pole.name} is not a simple pole")
        out[pole.name] = -JetQuotient(den[0], den[1])
        out[res.name] = JetQuotient(num[0] if num else ZERO, den[1])
    return out


def _residual_witness(*diffs):
    """The first nonzero p-coefficient of the first nonzero difference."""
    for diff in diffs:
        if not diff.is_zero():
            return next(to_tree(c) for c in p_coefficients(diff)[0] if c)
    return None


def apply_change_of_variables(lax: LaxPair, pair: tuple, field_map: dict, name: str) -> dict:
    """Check one candidate field map against the transformed pair
    ``pair`` of ``transform_pair(lax)``.  The report records whether the
    transformed pair has zero polynomial part and whether the map renders
    it in the pole-only template; ``residual`` is the first nonzero
    coefficient of the difference, or None."""
    p = JetQuotient(DiffPoly.from_jet(P))
    diff_f, diff_g = (r - sum((field_map[res.name] / (p - field_map[pole.name]) for res, pole in pairs), ZERO)
                      for r, (_, pairs) in zip(pair, lax.pole_data))
    return {
        "map": name,
        "polynomial_part_zero": all(len(num) < len(den) for num, den in map(p_coefficients, pair)),
        "pole_structure_ok": diff_f.is_zero() and diff_g.is_zero(),
        "residual": _residual_witness(diff_f, diff_g),
    }


def verify_gauge_removal(m: int, n: int, q_jet_values: dict | None = None) -> dict:
    """Transform the general-position pair once and check the printed
    and the engine-solved map against it; report which validates.  A
    solved map that fails to exist or validate is fatal: it would
    contradict the removal statement."""
    lax = make_ratgp(m, n)
    maps = {
        "printed": printed_field_map(lax, q_jet_values),
        "solved": solved_field_map(lax, q_jet_values),
    }
    pair = transform_pair(lax, q_jet_values)
    reports = {name: apply_change_of_variables(lax, pair, fm, name) for name, fm in maps.items()}
    if not (reports["solved"]["polynomial_part_zero"] and reports["solved"]["pole_structure_ok"]):
        raise GaugeError("engine-solved field map failed to validate")
    return {
        "m": m,
        "n": n,
        "q_jet_values": "general" if not q_jet_values else "specialized",
        "maps": reports,
        "validated": [name for name, r in reports.items() if r["pole_structure_ok"]],
        "maps_agree": all(maps["printed"][k] == v for k, v in maps["solved"].items()),
    }
