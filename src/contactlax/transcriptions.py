"""Loader for the hand-transcribed published-system files.

The JSON files under ``paper-transcriptions/`` are comparands: they were
typed in from the printed source, kept in its notation, and are never
regenerated by the engine, so any disagreement with the machine
derivation is diagnosed rather than baked in.  Their expression grammar
extends the wire format with two nodes the printed form needs:

    {"op": "div", "num": ..., "den": ...}     exact quotient
    {"op": "D", "dir": "z", "arg": ...}       total derivative
"""

from __future__ import annotations

import json
from importlib.resources import files

from .errors import StructureError
from .jetalg import FieldId, JetQuotient, from_tree, total_derivative_q


def quotient_from_tree(node, fields: dict[str, FieldId] | None = None) -> JetQuotient:
    if not isinstance(node, dict) or "op" not in node:
        raise StructureError(f"malformed node: {node!r}")
    op = node["op"]
    if op in ("num", "jet"):  # leaves read as the wire format reads them
        return JetQuotient(from_tree(node, fields))
    if op == "add":
        acc = quotient_from_tree(node["args"][0], fields)
        for a in node["args"][1:]:
            acc = acc + quotient_from_tree(a, fields)
        return acc
    if op == "mul":
        acc = quotient_from_tree(node["args"][0], fields)
        for a in node["args"][1:]:
            acc = acc * quotient_from_tree(a, fields)
        return acc
    if op == "pow":
        return quotient_from_tree(node["base"], fields) ** node["exp"]
    if op == "div":
        return quotient_from_tree(node["num"], fields) / quotient_from_tree(node["den"], fields)
    if op == "D":
        return total_derivative_q(quotient_from_tree(node["arg"], fields), node["dir"])
    raise StructureError(f"unknown op {op!r}")


def load_printed_rational_system(m: int, n: int) -> dict:
    name = f"rational_system_m{m}_n{n}.json"
    path = files("contactlax").joinpath("paper-transcriptions").joinpath(name)
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise FileNotFoundError(
            f"no transcription for (m, n) = ({m}, {n}); available comparands cover (1,1) and (2,1)"
        ) from None
    return json.loads(text)
