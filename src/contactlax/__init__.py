"""contactlax: contact Lax pairs of rational type, their mechanically
derived (3+1)-dimensional compatibility systems, gauge-removal
verification, and desk-scale numerical integration."""

from .jetalg import (
    DiffPoly,
    FieldId,
    JetQuotient,
    JetVariable,
    evaluate,
    from_tree,
    jet,
    substitute,
    to_tree,
    total_derivative,
)
from .laxfamilies import LaxPair, make_custom, make_family, make_poly, make_rat, make_ratgp
from .pfield import PPoly, PRational, collect, partial_fraction
from .compat import (
    PDESystem,
    ck_transform,
    compatibility_condition,
    derive,
    determinedness_report,
    extract_system,
    match_printed_system,
    reduce_2plus1,
    reduce_system,
    residue_system,
)
from .gauge import (
    apply_change_of_variables,
    eliminate_gauge,
    gauge_residual,
    potential_solution,
    verify_gauge_removal,
)

__version__ = "0.1.0"

__all__ = [
    "DiffPoly", "FieldId", "JetQuotient", "JetVariable", "evaluate", "from_tree",
    "jet", "substitute", "to_tree", "total_derivative",
    "LaxPair", "make_custom", "make_family", "make_poly", "make_rat", "make_ratgp",
    "PPoly", "PRational", "collect", "partial_fraction",
    "PDESystem", "ck_transform", "compatibility_condition", "derive",
    "determinedness_report", "extract_system", "match_printed_system",
    "reduce_2plus1", "reduce_system", "residue_system",
    "apply_change_of_variables", "eliminate_gauge",
    "gauge_residual", "potential_solution", "verify_gauge_removal",
]
