"""Layer spans for the traced run, recorded from outside the engine.

Each target function is wrapped at every name it is bound to: the
module that defines it, every ``contactlax`` module that imported it by
name, and module-level dispatch tables such as ``numeric.SPATIAL_OPS``.
Methods are wrapped on their class.  A span's self time is its duration
minus the durations of the wrapped calls made inside it; the worker
also converts it to reference units job by job (``self_ref``).  Spans are
aggregated in memory per target and read once the traced pass ends; a
target that a later version of the engine no longer has reads zero.
"""

from __future__ import annotations

import sys
from time import perf_counter


def _nterms(poly) -> int:
    terms = getattr(poly, "terms", None)
    try:
        return len(terms if terms is not None else poly)
    except TypeError:
        return 0


def _hit(stat, args, out):
    stat["hits"] += out is not None


def _division(stat, args, out):
    _hit(stat, args, out)
    if args:
        stat["terms_in"] += _nterms(args[0])


def _system_terms(stat, args, out):
    for eq in getattr(out, "equations", ()):
        stat["terms_out"] += _nterms(getattr(eq, "num", eq)) + _nterms(getattr(eq, "den", ()))


def _snapshots(stat, args, out):
    for snap in getattr(out, "snapshots", ()):
        stat["snapshot_bytes"] += sum(getattr(a, "nbytes", 0) for a in snap.values())


# (module, function or Class.method, probe of arguments and result)
TARGETS = (
    ("jetalg", "divide_exact", _division),
    ("jetalg", "content", None),
    ("jetalg", "substitute", None),
    ("jetalg", "total_derivative", None),
    ("pfield", "poly_div_exact", _hit),
    ("pfield", "partial_fraction", None),
    ("pfield", "collect", None),
    ("compat", "cc_substitution_path", None),
    ("compat", "cc_bracket_path", None),
    ("compat", "compatibility_condition", None),
    ("compat", "extract_system", _system_terms),
    ("compat", "residue_system", _system_terms),
    ("compat", "ck_transform", None),
    ("compat", "match_printed_system", None),
    ("compat", "reduce_2plus1", None),
    ("gauge", "verify_gauge_removal", None),
    ("gauge", "apply_change_of_variables", None),
    ("numeric", "compile_system", None),
    ("numeric", "spectral_diff", None),
    ("numeric", "fd2_diff", None),
    ("numeric", "CompiledSystem.rhs_from_jets", None),
    ("numeric", "residual_original_form", None),
    ("numeric", "integrate", _snapshots),
)

PACKAGE = "contactlax"


def _new_stat() -> dict:
    return {"calls": 0, "self_s": 0.0, "self_ref": 0.0, "incl_s": 0.0, "hits": 0, "terms_in": 0,
            "terms_out": 0, "snapshot_bytes": 0}


class Spans:
    """Install with ``install()``, run the traced work, then ``remove()``
    and read ``stats``, keyed ``module.name``."""

    def __init__(self):
        self.stats = {f"{mod}.{name}": _new_stat() for mod, name, _ in TARGETS}
        self._open = []  # child time accumulated by each open span
        self._undo = []

    def _wrap(self, key, fn, probe):
        stat, stack = self.stats[key], self._open

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dur
                stat["calls"] += 1
                stat["self_s"] += dur - child
                stat["incl_s"] += dur
            if probe is not None:
                probe(stat, args, out)
            return out

        span.__wrapped__ = fn
        return span

    def exclude(self, seconds: float):
        """Leave time spent outside the engine (reference sampling) out of
        the self time of the span it interrupted."""
        if self._open:
            self._open[-1] += seconds

    def _rebind(self, namespace: dict, wrappers: dict, setter):
        for key, value in list(namespace.items()):
            pair = wrappers.get(id(value))
            if pair is not None and pair[0] is value:
                setter(key, pair[1])
                self._undo.append((setter, key, value))

    def install(self):
        wrappers = {}  # id(original) -> (original, wrapper)
        for mod_name, name, probe in TARGETS:
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            if home is None:
                continue
            key = f"{mod_name}.{name}"
            cls_name, _, meth = name.rpartition(".")
            if cls_name:
                cls = getattr(home, cls_name, None)
                orig = vars(cls).get(meth) if cls is not None else None
                if orig is not None:
                    setter = lambda k, v, c=cls: setattr(c, k, v)  # noqa: E731
                    setter(meth, self._wrap(key, orig, probe))
                    self._undo.append((setter, meth, orig))
                continue
            orig = getattr(home, name, None)
            if orig is not None:
                wrappers[id(orig)] = (orig, self._wrap(key, orig, probe))
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            ns = vars(mod)
            self._rebind(ns, wrappers, lambda k, v, m=mod: setattr(m, k, v))
            for table in [v for v in ns.values() if type(v) is dict]:
                self._rebind(table, wrappers, table.__setitem__)

    def remove(self):
        for setter, key, orig in reversed(self._undo):
            setter(key, orig)
        self._undo.clear()
