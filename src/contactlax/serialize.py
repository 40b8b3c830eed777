"""JSON serialization for the engine's value types.

Expression nodes use the wire format of the core algebra; rational
functions of p serialize as coefficient arrays by ascending degree with
jet denominators cleared.  Lax pairs are written and never read back;
for systems, export -> import is the identity on normal forms.
"""

from __future__ import annotations

from .compat import PDESystem
from .jetalg import DiffPoly, FieldId, JetQuotient, from_tree, to_tree
from .laxfamilies import LaxPair
from .pfield import ParameterError, PartialFractions, PRational, collect


def _quotient_to_json(q: JetQuotient) -> dict:
    return {"num": to_tree(q.num), "den": to_tree(q.den)}


def prational_to_json(r: PRational, pf: PartialFractions | None = None) -> dict:
    """num/den with jet denominators cleared, and the view pf of r if given."""
    num, den = collect(r)
    out = {
        "num": [to_tree(c.num) for c in num.coeffs],
        "den": [to_tree(c.num) for c in den.coeffs],
    }
    if pf is not None:
        out["pf"] = {
            "polypart": [_quotient_to_json(c) for c in pf.polypart.coeffs],
            "poles": [
                {
                    "pole": blk.pole.name,
                    "order": blk.order,
                    "residues": [_quotient_to_json(res) for res in blk.residues],
                }
                for blk in pf.poles
            ],
        }
    return out


def laxpair_to_json(lax: LaxPair) -> dict:
    pf_F, pf_G = lax.partial_fractions()
    return {
        "family": lax.family,
        "m": lax.m,
        "n": lax.n,
        "dimension": lax.dimension,
        "fields": [f.name for f in lax.fields],
        "F": prational_to_json(lax.F, pf_F),
        "G": prational_to_json(lax.G, pf_G),
    }


_PROV_SCALARS = ("family", "m", "n", "dimension", "path", "ck_of")
_PROV_LISTS = ("p_degrees", "dropped_zero_coefficients", "labels", "kept_equations")


def pdesystem_to_json(sys: PDESystem) -> dict:
    prov = {}
    for k in _PROV_SCALARS:
        if k in sys.provenance:
            prov[k] = sys.provenance[k]
    for k in _PROV_LISTS:
        if k in sys.provenance:
            prov[k] = list(sys.provenance[k])
    if "pole_fields" in sys.provenance:
        vs, ws = sys.provenance["pole_fields"]
        prov["pole_fields"] = [[f.name for f in vs], [f.name for f in ws]]
    prov["denominators"] = [to_tree(eq.den) for eq in sys.equations]
    if "original_system" in sys.provenance:
        prov["original_system"] = pdesystem_to_json(sys.provenance["original_system"])
    return {
        "unknowns": [f.name for f in sys.unknowns],
        "independents": list(sys.independents),
        "equations": [to_tree(eq.num) for eq in sys.equations],
        "provenance": prov,
    }


def pdesystem_from_json(d: dict) -> PDESystem:
    fields = {name: FieldId(name) for name in d["unknowns"]}
    prov = dict(d.get("provenance", {}))
    dens = prov.pop("denominators", None)
    if dens is not None and len(dens) != len(d["equations"]):
        raise ParameterError("provenance.denominators and equations differ in length")
    eqs = []
    for i, tree in enumerate(d["equations"]):
        num = from_tree(tree, fields)
        den = from_tree(dens[i], fields) if dens else DiffPoly.const(1)
        eqs.append(JetQuotient(num, den))
    for k in _PROV_LISTS:
        if k in prov:
            prov[k] = tuple(prov[k])
    if "pole_fields" in prov:
        vs, ws = prov["pole_fields"]
        prov["pole_fields"] = (
            tuple(fields.get(n) or FieldId(n) for n in vs),
            tuple(fields.get(n) or FieldId(n) for n in ws),
        )
    if "original_system" in prov:
        prov["original_system"] = pdesystem_from_json(prov["original_system"])
    return PDESystem(
        tuple(fields.values()), tuple(d["independents"]), tuple(eqs), prov
    )
