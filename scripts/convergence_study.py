#!/usr/bin/env python3
"""Manufactured-solution convergence and residual-refinement study for
the (m, n) = (1, 1) rational-family system in evolution form."""

from contactlax.compat import ck_transform, derive
from contactlax.numeric import (
    HarmonicField,
    Mode,
    compile_system,
    manufactured_fields,
    manufactured_test,
    residual_refinement_study,
)


def main():
    cs = compile_system(ck_transform(derive("rat", 1, 1, form="residues")))
    rep = manufactured_test(cs, manufactured_fields(cs.unknowns))
    print("temporal errors :", ["%.3e" % e for e in rep.temporal_errors])
    print("temporal orders :", ["%.2f" % o for o in rep.temporal_orders], "(nominal 4)")
    print("spatial errors  :", ["%.3e" % e for e in rep.spatial_errors])
    print("spatial orders  :", ["%.2f" % o for o in rep.spatial_orders], "(nominal 2, FD2)")

    init = {
        "v1": HarmonicField(-1.0, (Mode((1, 0, 1), 0.1, 0.3),)),
        "w1": HarmonicField(1.0, (Mode((0, 1, 1), 0.1, 1.1),)),
        "a1": HarmonicField(1.0, (Mode((1, 1, 0), 0.1, 2.0),)),
        "b1": HarmonicField(0.7, (Mode((1, 0, 0), 0.1, 0.9),)),
    }
    res = residual_refinement_study(cs, init)
    print("original-form residual under refinement:", ["%.3e" % r for r in res])
    print("monotone decreasing:", all(a > b for a, b in zip(res, res[1:])))


if __name__ == "__main__":
    main()
