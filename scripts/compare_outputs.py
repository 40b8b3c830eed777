"""Byte-identity check of the CLI between two source trees.

Runs a fixed list of CLI commands against each tree, every command in a
fresh process with PYTHONHASHSEED=0 inside its own empty directory, and
compares exit codes, stdout, stderr and every file written, byte for
byte.  The list covers the residue form of both rational families at
m, n <= 3 (derive, ck, export --what ck) and their derive at (4, 4), the
coefficient-form derive table, the verifications, the planar reduction,
pair export, the simulate runs of the CI workflow and one command per
exit code.  The commands run concurrently, one subprocess per CPU, and
are reported in list order.

    git archive <commit> | tar -x -C /tmp/base
    PYTHONPATH=src python scripts/compare_outputs.py /tmp/base/src [--head src] [--only derive]

Prints one line per differing command, with the largest relative
difference |a - b| / max(|a|, |b|) and the largest absolute difference
|a - b| between corresponding numbers of its differing outputs (CSV
cells, report values, stdout numbers), or ``non-numeric`` when they
differ in anything else, and exits 1 if there is any.  The absolute
figure tells re-rounding of a number near zero, such as a small
manufactured-solution error, from a change of an O(1) value.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the CI workflow's hash-seed initial data, and its pole-abort data
INIT = {u: {"fourier": {"mean": c, "modes": [{"k": k, "amp": 0.05, "phase": 0.3}]}}
        for u, c, k in (("v1", -1.0, [1, 0, 0]), ("w1", 1.0, [0, 1, 0]), ("a1", 1.0, [0, 0, 1]),
                        ("b1", 0.7, [1, 1, 0]))}
ABORT = {u: {"constant": c} for u, c in (("v1", -1.0), ("w1", -0.95), ("a1", 1.0), ("b1", 0.5))}
SIZES = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)]
# a decimal number that is not part of a name such as v1
NUMBER = re.compile(rb"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def commands() -> list[list[list[str]]]:
    """Each command is a list of CLI argument lists, run in order in one
    directory."""
    out = []
    for fam in ("rat", "ratgp"):
        for m, n in SIZES:
            size = ["--family", fam, "-m", str(m), "-n", str(n)]
            out += [
                [["derive", *size, "--form", "residues", "--out-json", "sys.json", "--latex", "sys.tex"]],
                [["ck", *size, "--form", "residues", "--out-json", "ck.json", "--latex", "ck.tex"]],
                [["export", *size, "--what", "ck", "--form", "residues", "--out", "ck.json", "--latex", "ck.tex"]],
            ]
        # four summands per row: where summation order matters most
        out.append([["derive", "--family", fam, "-m", "4", "-n", "4", "--form", "residues", "--out-json", "sys.json",
                     "--latex", "sys.tex"]])
    for fam in ("poly", "rat", "ratgp"):
        for m, n in SIZES:
            size = ["--family", fam, "-m", str(m), "-n", str(n)]
            out.append([["derive", *size, "--out-json", "sys.json", "--latex", "sys.tex"]])
            if m + n <= 4:
                out.append([["export", *size, "--what", "lax", "--out", "lax.json", "--latex", "lax.tex"]])
                out.append([["reduce21", *size, "--out-json", "r21.json", "--latex", "r21.tex"]])
    for m, n in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        size = ["-m", str(m), "-n", str(n)]
        out += [[["verify", "theorem1", *size]], [["verify", "ab", *size]]]
        out += [[["verify", "reduce21", "--family", fam, *size]] for fam in ("rat", "ratgp")]
    out += [[["verify", "qsolution"]], [["verify", "theorem1", "-m", "3", "-n", "3"]]]
    for m in (1, 2):
        out += [[["verify", "rls", "-m", str(m), "-n", "1", *diff]] for diff in ([], ["--diff"])]
    for spatial in ("spectral", "fd2"):
        out.append([["simulate", "--family", "rat", "--init", "init.json", "--grid", "9", "10", "12", "--steps", "10",
                     "--spatial", spatial, "--monitor", "sim.csv"]])
    out += [
        [["ck", "--family", "rat", "-m", "1", "-n", "1", "--out-json", "ck.json"],
         ["simulate", "--system-json", "ck.json", "--grid", "16", "--steps", "20", "--init", "init.json"]],
        [["simulate", "--family", "rat", "--manufactured", "--convergence", "conv.csv"]],
        [["derive", "--family", "rat", "-m", "0", "-n", "1"]],
        [["derive", "--family", "poly", "--form", "residues"]],
        [["simulate", "--init", "abort.json", "--grid", "8", "--steps", "5"]],
    ]
    return out


def run(src: Path, steps: list[list[str]], workdir: Path) -> dict[str, bytes]:
    """The outcome of one command: per step its exit code and outputs,
    then every file left in workdir."""
    (workdir / "init.json").write_text(json.dumps(INIT))
    (workdir / "abort.json").write_text(json.dumps(ABORT))
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
    got = {}
    for i, argv in enumerate(steps):
        done = subprocess.run([sys.executable, "-m", "contactlax.cli", *argv], capture_output=True, cwd=workdir,
                              env=env, timeout=1800)
        got[f"step {i} exit"] = b"exit %d" % done.returncode
        got[f"step {i} stdout"] = done.stdout
        got[f"step {i} stderr"] = done.stderr
    for path in sorted(workdir.iterdir()):
        got[path.name] = path.read_bytes()
    return got


def number_differences(a: bytes | None, b: bytes | None) -> tuple[float, float] | None:
    """The largest relative and the largest absolute difference between
    corresponding numbers of two texts, or None when they differ in
    anything but those numbers."""
    if a is None or b is None or NUMBER.split(a) != NUMBER.split(b):
        return None
    rel = absolute = Fraction(0)
    for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)):
        if x != y:
            x, y = Fraction(x.decode()), Fraction(y.decode())
            if x != y:
                rel = max(rel, abs(x - y) / max(abs(x), abs(y)))
                absolute = max(absolute, abs(x - y))
    return float(rel), float(absolute)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path, help="the src directory of the tree to compare against")
    ap.add_argument("--head", type=Path, default=ROOT / "src", help="the src directory under test")
    ap.add_argument("--only", help="run only the commands whose text contains this")
    args = ap.parse_args()
    cmds = [c for c in commands() if not args.only or args.only in " ".join(map(" ".join, c))]

    def differences(steps) -> tuple[list[str], tuple[float, float] | None]:
        """The differing outputs of one command, and their largest relative
        and absolute differences (None: non-numeric)."""
        outcomes = []
        for src in (args.base, args.head):
            with tempfile.TemporaryDirectory() as tmp:
                outcomes.append(run(src.resolve(), steps, Path(tmp)))
        base, head = outcomes
        keys = sorted(k for k in base.keys() | head.keys() if base.get(k) != head.get(k))
        diffs = [None if k.endswith(" exit") else number_differences(base.get(k), head.get(k)) for k in keys]
        if None in diffs:
            return keys, None
        return keys, (max((d[0] for d in diffs), default=0.0), max((d[1] for d in diffs), default=0.0))

    differing = 0
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        for steps, (keys, worst) in zip(cmds, pool.map(differences, cmds)):
            if keys:
                differing += 1
                how = ("non-numeric" if worst is None
                       else "largest relative difference %.3g, absolute %.3g" % worst)
                print(f"DIFF {' && '.join(map(' '.join, steps))}: {', '.join(keys)}: {how}", flush=True)
    print(f"{len(cmds) - differing} of {len(cmds)} commands byte-identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
