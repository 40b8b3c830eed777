#!/usr/bin/env python3
"""Derive the compatibility systems of all three families for m, n <= 3,
then the residue form of the two rational families, and print the
equation/unknown counts with timings."""

import time

from contactlax.compat import derive, determinedness_report


def table(families, form):
    print(f"{form} form")
    print(f"{'family':8s} {'m':>2s} {'n':>2s} {'eqs':>4s} {'unk':>4s}  verdict          time")
    for family in families:
        for m in range(1, 4):
            for n in range(1, 4):
                t0 = time.time()
                rep = determinedness_report(derive(family, m, n, form))
                dt = time.time() - t0
                print(
                    f"{family:8s} {m:2d} {n:2d} {rep.equations:4d} {rep.unknowns:4d}"
                    f"  {rep.verdict:15s} {dt:6.2f}s"
                )


def main():
    table(("poly", "rat", "ratgp"), "coefficients")
    print()
    # the residue form never builds the compatibility condition: these time
    # the closed-form two-pole terms, one per (pole, summand), and the spot check
    table(("rat", "ratgp"), "residues")


if __name__ == "__main__":
    main()
