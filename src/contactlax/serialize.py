"""JSON serialization for the engine's value types.

Expression nodes use the wire format of the core algebra; rational
functions of p serialize as p-coefficient arrays by ascending degree
with jet denominators cleared.  Documents are written as text in the layout
of json.dumps(..., indent=1) by one writer (write_document, into whose one
list of pieces jetalg.write_tree appends expression leaves; the list is
joined once); no dict tree is built on the way.  Lax pairs are written
and never read back; for systems, export -> import is the identity on
normal forms.
"""

from __future__ import annotations

import json

from .compat import PDESystem
from .errors import ParameterError
from .jetalg import ONE, DiffPoly, FieldId, JetQuotient, from_tree, jet, p_coefficients, write_tree
from .laxfamilies import LaxPair, PoleSide


def write_document(doc) -> str:
    """json.dumps(doc, indent=1) of a document of dicts, lists and JSON
    scalars whose DiffPoly leaves stand for their wire-format trees,
    joined once from one list of pieces."""
    out = []
    _write(doc, 0, out)
    return "".join(out)


def _write(node, depth: int, out: list) -> None:
    if isinstance(node, DiffPoly):
        write_tree(node, depth, out)
    elif isinstance(node, dict) and node:
        pad = "\n" + " " * (depth + 1)
        out.append("{")
        for i, (k, v) in enumerate(node.items()):
            out.append(f"{',' if i else ''}{pad}{json.dumps(k)}: ")
            _write(v, depth + 1, out)
        out.append(f"\n{' ' * depth}}}")
    elif isinstance(node, (list, tuple)) and node:
        pad = "\n" + " " * (depth + 1)
        out.append("[")
        for i, v in enumerate(node):
            out.append(f"{',' if i else ''}{pad}")
            _write(v, depth + 1, out)
        out.append(f"\n{' ' * depth}]")
    else:
        out.append(json.dumps(node))


def _p_quotient_doc(r: JetQuotient, pole_side: PoleSide | None = None) -> dict:
    """The p-coefficients of num/den (p_coefficients), and r's recorded
    poles if given."""
    num, den = p_coefficients(r)
    out = {"num": num, "den": den}
    if pole_side is not None:
        const, pairs = pole_side
        out["pf"] = {
            "polypart": [{"num": jet(const), "den": ONE}] if const else [],
            "poles": [
                {
                    "pole": pole.name,
                    "order": 1,
                    "residues": [{"num": jet(res), "den": ONE}],
                }
                for res, pole in pairs
            ],
        }
    return out


def laxpair_dumps(lax: LaxPair) -> str:
    """The lax pair's JSON text."""
    side_F, side_G = lax.pole_data or (None, None)
    return write_document({
        "family": lax.family,
        "m": lax.m,
        "n": lax.n,
        "dimension": lax.dimension,
        "fields": [f.name for f in lax.fields],
        "F": _p_quotient_doc(lax.F, side_F),
        "G": _p_quotient_doc(lax.G, side_G),
    })


_PROV_SCALARS = ("family", "m", "n", "dimension", "path", "ck_of")
_PROV_LISTS = ("p_degrees", "dropped_zero_coefficients", "labels", "kept_equations")


def _system_doc(sys: PDESystem) -> dict:
    prov = {k: sys.provenance[k] for k in _PROV_SCALARS + _PROV_LISTS if k in sys.provenance}
    if "pole_fields" in sys.provenance:
        vs, ws = sys.provenance["pole_fields"]
        prov["pole_fields"] = [[f.name for f in vs], [f.name for f in ws]]
    prov["denominators"] = [eq.den for eq in sys.equations]
    if "original_system" in sys.provenance:
        prov["original_system"] = _system_doc(sys.provenance["original_system"])
    return {
        "unknowns": [f.name for f in sys.unknowns],
        "independents": sys.independents,
        "equations": [eq.num for eq in sys.equations],
        "provenance": prov,
    }


def pdesystem_dumps(sys: PDESystem) -> str:
    """The system's JSON text; pdesystem_from_json(json.loads(...)) gives
    back its normal forms."""
    return write_document(_system_doc(sys))


def pdesystem_from_json(d: dict) -> PDESystem:
    """The system of a JSON document; refuses repeated unknowns, and pole
    fields that are not two lists of distinct unknowns, with ParameterError."""
    fields = {name: FieldId(name) for name in d["unknowns"]}
    if len(fields) != len(d["unknowns"]):
        raise ParameterError(f"repeated unknowns in {d['unknowns']}")
    prov = dict(d.get("provenance", {}))
    dens = prov.pop("denominators", None)
    if dens is not None and len(dens) != len(d["equations"]):
        raise ParameterError("provenance.denominators and equations differ in length")
    eqs = []
    for i, tree in enumerate(d["equations"]):
        num = from_tree(tree, fields)
        den = from_tree(dens[i], fields) if dens else DiffPoly.const(1)
        eqs.append((JetQuotient(num, den),))
    for k in _PROV_LISTS:
        if k in prov:
            prov[k] = tuple(prov[k])
    if "pole_fields" in prov:
        sides = prov["pole_fields"]
        if len(sides) != 2 or not all(isinstance(s, list) and all(n in fields for n in s) for s in sides):
            raise ParameterError(f"provenance.pole_fields must be two lists of unknowns, got {sides}")
        if len({n for s in sides for n in s}) != sum(map(len, sides)):
            raise ParameterError(f"provenance.pole_fields names an unknown twice: {sides}")
        prov["pole_fields"] = tuple(tuple(fields[n] for n in s) for s in sides)
    if "original_system" in prov:
        prov["original_system"] = pdesystem_from_json(prov["original_system"])
    return PDESystem(tuple(fields.values()), tuple(d["independents"]), eqs, prov)
