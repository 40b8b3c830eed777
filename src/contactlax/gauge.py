"""The gauge sector: the constant-term pair (a0, b0), its potential q,
the change of variables z~ = q that removes the gauge freedom, and the
end-to-end machine verification that a general-position rational pair
turns into the pole-only pair.

Two candidate field maps are first-class data, never hard-coded results:

  * the "printed" map  a~_i = a_i q_z^2,  v~_i = v_i - q_x/q_z
  * the "solved"  map, read off mechanically from the transformed pair
    one pole term at a time.

Verification reports which of the two renders the transformed pair in
the pole-only template; the chain-rule computation is the judge.
"""

from __future__ import annotations

from dataclasses import dataclass

from .compat import PSI, homogenize_rational, rational_from_psi_quotient
from .jetalg import (
    ONE,
    POTENTIAL,
    WAVE,
    ZERO,
    DiffPoly,
    FieldId,
    JetQuotient,
    JetVariable,
    StructureError,
    jet,
    jets_of_field,
    linear_coefficient,
    substitute,
    total_derivative_q,
)
from .laxfamilies import LaxPair, RAT, RATGP, make_rat, make_ratgp
from .pfield import PPoly, PRational, collect, p_minus

PSI_NEW = FieldId("psi_tilde", WAVE)
Q = FieldId("q", POTENTIAL)


class GaugeError(RuntimeError):
    """Gauge incompatibility or a failed gauge-removal verification."""


def gauge_residual(a0: JetQuotient | DiffPoly, b0: JetQuotient | DiffPoly) -> JetQuotient:
    """Normal form of (a0)_t - (b0)_y - b0 (a0)_z + a0 (b0)_z."""
    a0 = a0 if isinstance(a0, JetQuotient) else JetQuotient(a0)
    b0 = b0 if isinstance(b0, JetQuotient) else JetQuotient(b0)
    return (
        total_derivative_q(a0, "t")
        - total_derivative_q(b0, "y")
        - b0 * total_derivative_q(a0, "z")
        + a0 * total_derivative_q(b0, "z")
    )


def potential_solution(q: FieldId = Q) -> tuple[JetQuotient, JetQuotient]:
    """The general solution of the residual equation: a0 = q_y/q_z,
    b0 = q_t/q_z."""
    qy = jet(q, (0, 1, 0, 0))
    qt = jet(q, (0, 0, 0, 1))
    qz = jet(q, (0, 0, 1, 0))
    return JetQuotient(qy, qz), JetQuotient(qt, qz)


def chain_rules(q: FieldId = Q, psi: FieldId = PSI, psi_new: FieldId = PSI_NEW) -> dict:
    """First-order wave-function chain rule induced by z~ = q."""
    nx = jet(psi_new, (1, 0, 0, 0))
    ny = jet(psi_new, (0, 1, 0, 0))
    nz = jet(psi_new, (0, 0, 1, 0))
    nt = jet(psi_new, (0, 0, 0, 1))
    qx = jet(q, (1, 0, 0, 0))
    qy = jet(q, (0, 1, 0, 0))
    qz = jet(q, (0, 0, 1, 0))
    qt = jet(q, (0, 0, 0, 1))
    return {
        JetVariable(psi, (1, 0, 0, 0)): JetQuotient(nx + nz * qx),
        JetVariable(psi, (0, 1, 0, 0)): JetQuotient(ny + nz * qy),
        JetVariable(psi, (0, 0, 1, 0)): JetQuotient(nz * qz),
        JetVariable(psi, (0, 0, 0, 1)): JetQuotient(nt + nz * qt),
    }


def constraint_rules(q: FieldId, a0: FieldId, b0: FieldId) -> dict:
    """q_y -> a0 q_z and q_t -> b0 q_z; prolongation covers higher jets,
    so no y- or t-jet of q survives their application."""
    qz = jet(q, (0, 0, 1, 0))
    return {
        JetVariable(q, (0, 1, 0, 0)): JetQuotient(jet(a0) * qz),
        JetVariable(q, (0, 0, 0, 1)): JetQuotient(jet(b0) * qz),
    }


@dataclass(frozen=True)
class ChangeOfVariables:
    """Substitution data for z~ = q: constraint rewriting plus a candidate
    field map (new-field name -> expression in the old fields and q)."""

    q: FieldId = Q
    a0: FieldId = FieldId("a0")
    b0: FieldId = FieldId("b0")
    field_map: dict | None = None
    map_name: str = "unspecified"
    q_jet_values: dict | None = None     # e.g. q = z, or the q_z = 1 slice
    field_values: dict | None = None     # e.g. a0 -> 0 when q = z


def q_is_z(q: FieldId = Q) -> dict:
    """Jet values of the identity gauge q = z."""
    return {
        JetVariable(q, (1, 0, 0, 0)): JetQuotient(ZERO),
        JetVariable(q, (0, 1, 0, 0)): JetQuotient(ZERO),
        JetVariable(q, (0, 0, 1, 0)): JetQuotient(ONE),
        JetVariable(q, (0, 0, 0, 1)): JetQuotient(ZERO),
    }


def unit_q_z(q: FieldId = Q) -> dict:
    """The q_z = 1 slice (q_x, q_y, q_t remain free)."""
    return {JetVariable(q, (0, 0, 1, 0)): JetQuotient(ONE)}


def _apply_values(expr: JetQuotient, cov: ChangeOfVariables) -> JetQuotient:
    """Apply cov.q_jet_values, then cov.field_values, when given."""
    if cov.q_jet_values:
        expr = substitute(expr, cov.q_jet_values, prolong=True)
    if cov.field_values:
        expr = substitute(expr, cov.field_values, prolong=True)
    return expr


def _transform_equation(r: PRational, lhs_slot: int, cov: ChangeOfVariables) -> PRational:
    """Push one Lax equation (psi_<slot> = psi_z * r) through the change
    of variables and solve it for the new wave jet; returns the new
    right-hand rational function of p."""
    num_h, den_h = homogenize_rational(r, PSI)
    lhs_d = [0, 0, 0, 0]
    lhs_d[lhs_slot] = 1
    psiz = DiffPoly.from_jet(JetVariable(PSI, (0, 0, 1, 0)))
    relation = DiffPoly.from_jet(JetVariable(PSI, tuple(lhs_d))) * den_h - psiz * num_h
    moved = substitute(relation, chain_rules(cov.q), prolong=False)
    moved = substitute(moved, constraint_rules(cov.q, cov.a0, cov.b0), prolong=True)
    moved = _apply_values(moved, cov)
    new_jet = JetVariable(PSI_NEW, tuple(lhs_d))
    if jets_of_field(moved.den, PSI_NEW) & {new_jet}:
        raise StructureError("new wave jet appears in a denominator")
    coeff, rest = linear_coefficient(moved.num, new_jet)
    if coeff.is_zero():
        raise GaugeError("transformed relation is not solvable for the new wave jet")
    return rational_from_psi_quotient(JetQuotient(-rest, coeff), PSI_NEW)


def transform_rhs(r: PRational, cov: ChangeOfVariables) -> PRational:
    """Transform psi_z * r(p) alone (no left-hand side, no constraints):
    the building block for reading off the solved field map term by
    term."""
    num_h, den_h = homogenize_rational(r, PSI)
    psiz = DiffPoly.from_jet(JetVariable(PSI, (0, 0, 1, 0)))
    e = substitute(JetQuotient(psiz * num_h, den_h), chain_rules(cov.q), prolong=False)
    return rational_from_psi_quotient(_apply_values(e, cov), PSI_NEW)


def printed_field_map(lax: LaxPair, cov: ChangeOfVariables) -> dict:
    """The published map: residues scale by q_z^2, poles shift by
    q_x/q_z."""
    q = cov.q
    qx = JetQuotient(jet(q, (1, 0, 0, 0)))
    qz = JetQuotient(jet(q, (0, 0, 1, 0)))
    out = {}
    for f in lax.fields:
        kind, idx = f.name[0], f.name[1:]
        if kind in ("a", "b") and idx != "0":
            out[f.name] = JetQuotient(jet(f)) * qz * qz
        elif kind in ("v", "w"):
            out[f.name] = JetQuotient(jet(f)) - qx / qz
    return {k: _apply_values(v, cov) for k, v in out.items()}


def solved_field_map(lax: LaxPair, cov: ChangeOfVariables) -> dict:
    """Read the map off the engine itself: transform each simple-pole
    term and match it against residue/(p - pole)."""
    out = {}
    vs, ws = lax.pole_fields()
    for poles, res_prefix in ((vs, "a"), (ws, "b")):
        for pole in poles:
            idx = pole.name[1:]
            res = FieldId(f"{res_prefix}{idx}")
            term = PRational(PPoly([JetQuotient(jet(res))]), p_minus(jet(pole)))
            moved = transform_rhs(term, cov)
            num, den = collect(moved)
            if den.degree() != 1 or num.degree() > 0:
                raise GaugeError(f"transformed pole term for {pole.name} is not a simple pole")
            lead = den[1]
            out[pole.name] = -(den[0] / lead)
            out[res.name] = num[0] / lead
    return out


def _template_from_map(field_map: dict, poles, residues) -> PRational:
    total = PRational(PPoly())
    for pole, res in zip(poles, residues):
        total = total + PRational(PPoly([field_map[res.name]]), p_minus(field_map[pole.name]))
    return total


@dataclass(frozen=True)
class CovResult:
    pair: LaxPair | None
    report: dict


def _no_qt_qy_jets(r: PRational, q: FieldId) -> bool:
    for c in list(r.num.coeffs) + list(r.den.coeffs):
        for part in (c.num, c.den):
            for jv in jets_of_field(part, q):
                if jv.d[1] or jv.d[3]:
                    return False
    return True


def _residual_witness(diff: PRational):
    if diff.is_zero():
        return None
    num, _ = collect(diff)
    for c in num.coeffs:
        if not c.is_zero():
            from .jetalg import to_tree

            return to_tree(c.num)
    return None


def apply_change_of_variables(lax: LaxPair, cov: ChangeOfVariables) -> CovResult:
    """Transform a general-position pair by z~ = q: the wave-function
    chain rule, the constraint rewriting, then the candidate field map.
    The report records, for this map, whether the transformed pair has
    zero polynomial part and the pole-only template's residue structure;
    the output pair (in the new symbols, tildes dropped) is built only
    when the map validates."""
    if lax.family not in (RATGP, RAT):
        raise GaugeError("the change of variables applies to the rational families")
    f_new = _transform_equation(lax.F, 1, cov)
    g_new = _transform_equation(lax.G, 3, cov)
    for r in (f_new, g_new):
        if not _no_qt_qy_jets(r, cov.q):
            raise GaugeError("y- or t-jets of the potential survived constraint elimination")
    fn, fd = collect(f_new)
    gn, gd = collect(g_new)
    poly_part_zero = fn.degree() < fd.degree() and gn.degree() < gd.degree()
    report = {
        "map": cov.map_name,
        "polynomial_part_zero": bool(poly_part_zero),
        "pole_structure_ok": False,
        "residual": None,
    }
    pair = None
    if cov.field_map is not None:
        m = len(lax.pole_fields()[0])
        n = len(lax.pole_fields()[1])
        vs, ws = lax.pole_fields()
        f_tpl = _template_from_map(cov.field_map, vs, [FieldId(f"a{p.name[1:]}") for p in vs])
        g_tpl = _template_from_map(cov.field_map, ws, [FieldId(f"b{p.name[1:]}") for p in ws])
        diff_f = f_new - f_tpl
        diff_g = g_new - g_tpl
        ok = diff_f.is_zero() and diff_g.is_zero()
        report["pole_structure_ok"] = bool(ok)
        report["residual"] = _residual_witness(diff_f if not diff_f.is_zero() else diff_g)
        if ok and poly_part_zero:
            base = make_rat(m, n)
            pair = LaxPair(
                base.F,
                base.G,
                base.fields,
                RAT,
                m,
                n,
                provenance=(
                    ("gauge_map", cov.map_name),
                    ("field_map", tuple(sorted((k, repr(v)) for k, v in cov.field_map.items()))),
                ),
            )
    return CovResult(pair, report)


def verify_gauge_removal(m: int, n: int, q_jet_values: dict | None = None) -> dict:
    """Run the change of variables on the general-position pair with the
    printed map and with the engine-solved map; report which validates.
    Neither outcome is presumed.  A solved map that fails to exist or
    validate is fatal: it would contradict the removal statement."""
    lax = make_ratgp(m, n)
    base = ChangeOfVariables(q_jet_values=q_jet_values)
    printed = ChangeOfVariables(
        field_map=printed_field_map(lax, base), map_name="printed", q_jet_values=q_jet_values
    )
    solved = ChangeOfVariables(
        field_map=solved_field_map(lax, base), map_name="solved", q_jet_values=q_jet_values
    )
    res_p = apply_change_of_variables(lax, printed)
    res_s = apply_change_of_variables(lax, solved)
    if not (res_s.report["polynomial_part_zero"] and res_s.report["pole_structure_ok"]):
        raise GaugeError("engine-solved field map failed to validate")
    maps_agree = all(
        printed.field_map[k] == solved.field_map[k] for k in solved.field_map
    )
    return {
        "m": m,
        "n": n,
        "q_jet_values": "general" if not q_jet_values else "specialized",
        "maps": {"printed": res_p.report, "solved": res_s.report},
        "validated": [r["map"] for r in (res_p.report, res_s.report) if r["pole_structure_ok"]],
        "maps_agree": bool(maps_agree),
    }


def eliminate_gauge(lax: LaxPair, q: FieldId = Q) -> LaxPair:
    """Full pipeline: confirm the potential solves the constant-term
    equation, then apply the validated (engine-solved) map; the output
    satisfies the pole-only structural predicate."""
    a0e, b0e = potential_solution(q)
    res = gauge_residual(a0e, b0e)
    if not res.is_zero():
        raise GaugeError("gauge pair is incompatible: nonzero constant-term residual")
    cov = ChangeOfVariables(q=q)
    solved = ChangeOfVariables(q=q, field_map=solved_field_map(lax, cov), map_name="solved")
    out = apply_change_of_variables(lax, solved)
    if out.pair is None:
        raise GaugeError("gauge elimination did not reach the pole-only shape")
    return out.pair
