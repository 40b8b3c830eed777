"""Byte-identity check of the CLI: against a committed manifest, or
between two source trees.

Runs a fixed list of CLI commands, every command in a fresh process
inside its own empty directory, with PYTHONHASHSEED taken from the
environment (0 when unset), and looks at exit codes, stdout, stderr and
every file written, byte for byte.  The list covers the residue form of
both rational families at m, n <= 3 (derive, ck, export --what ck) and
their derive at (4, 4), the coefficient-form derive table, the
verifications, the planar reduction, pair export, the simulate runs of
the CI workflow and one command per exit code.  The commands run
concurrently, one subprocess per CPU, and are reported in list order.

    PYTHONPATH=src python scripts/compare_outputs.py [--only derive]
    PYTHONPATH=src python scripts/compare_outputs.py --write [--only derive]

check, or rewrite, scripts/artifacts.sha256: one SHA-256 per command
without a simulate step, over its outcome as run() returns it.  A
check prints one line per command whose digest differs and exits 1 if
there is any.  simulate's numbers pass through BLAS matrix products,
which may round differently on another CPU, so its commands are
compared between trees only:

    git archive <commit> | tar -x -C /tmp/base
    PYTHONPATH=src python scripts/compare_outputs.py /tmp/base/src [--only derive]

runs every command against the base tree and this one, prints one line
per differing command, with the largest relative difference
|a - b| / max(|a|, |b|) and the largest absolute difference |a - b|
between corresponding numbers of its differing outputs (CSV cells,
report values, stdout numbers), or ``non-numeric`` when they differ in
anything else, and exits 1 if there is any.  The absolute figure tells
re-rounding of a number near zero, such as a small manufactured-solution
error, from a change of an O(1) value.
"""

from __future__ import annotations

import argparse
import hashlib
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
MANIFEST = ROOT / "scripts" / "artifacts.sha256"

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
    # no output file: the residue spot check at a size the benchmark never reaches
    out.append([["derive", "--family", "ratgp", "-m", "5", "-n", "5", "--form", "residues"]])
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
        [["ck", "--family", "rat", "-m", "1", "-n", "1", "--out-json", "ck.json"]],
        [["ck", "--family", "rat", "-m", "1", "-n", "1", "--out-json", "ck.json"],
         ["simulate", "--system-json", "ck.json", "--grid", "16", "--steps", "20", "--init", "init.json"]],
        # a residue form read back from its file: the summed rows, compiled without terms
        [["ck", "--family", "rat", "-m", "1", "-n", "1", "--form", "residues", "--out-json", "ck.json"],
         ["simulate", "--system-json", "ck.json", "--grid", "9", "10", "12", "--steps", "10", "--init", "init.json",
          "--monitor", "sim.csv"]],
        [["simulate", "--family", "rat", "--manufactured", "--convergence", "conv.csv"]],
        [["derive", "--family", "rat", "-m", "0", "-n", "1"]],
        [["derive", "--family", "poly", "--form", "residues"]],
        [["simulate", "--init", "abort.json", "--grid", "8", "--steps", "5"]],
    ]
    return out


def text(steps: list[list[str]]) -> str:
    return " && ".join(map(" ".join, steps))


def exact(steps: list[list[str]]) -> bool:
    """Whether a command's outcome is the same on every machine, so that
    the manifest pins it: it has no simulate step."""
    return all(argv[0] != "simulate" for argv in steps)


def manifest() -> list[tuple[str, str]]:
    """The (command, digest) entries of the manifest, in file order."""
    return [tuple(line.split("  ", 1)[::-1]) for line in MANIFEST.read_text().splitlines()]


def digest(outcome: dict[str, bytes]) -> str:
    """One SHA-256 over an outcome of run(), in its order: each name, then
    the length and bytes of its output."""
    h = hashlib.sha256()
    for name, data in outcome.items():
        h.update(b"%s %d\n" % (name.encode(), len(data)))
        h.update(data)
    return h.hexdigest()


def run(src: Path, steps: list[list[str]], workdir: Path) -> dict[str, bytes]:
    """The outcome of one command: per step its exit code and outputs,
    then every file left in workdir."""
    (workdir / "init.json").write_text(json.dumps(INIT))
    (workdir / "abort.json").write_text(json.dumps(ABORT))
    env = {"PYTHONHASHSEED": "0", **os.environ, "PYTHONPATH": str(src)}
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
    ap.add_argument("base", nargs="?", type=Path,
                    help="the src directory of a tree to compare against; without it, check the manifest")
    ap.add_argument("--write", action="store_true", help="rewrite the manifest from this tree")
    ap.add_argument("--only", help="run only the commands whose text contains this")
    args = ap.parse_args()
    if args.base and args.write:
        ap.error("--write takes no base tree")
    cmds = [c for c in commands() if (args.base or exact(c)) and (not args.only or args.only in text(c))]
    head = ROOT / "src"

    def outcome(src: Path, steps) -> dict[str, bytes]:
        with tempfile.TemporaryDirectory() as tmp:
            return run(src, steps, Path(tmp))

    if args.base is None:
        with ThreadPoolExecutor(os.cpu_count()) as pool:
            got = dict(zip(map(text, cmds), pool.map(lambda steps: digest(outcome(head, steps)), cmds)))
        pinned = dict(manifest()) if MANIFEST.exists() else {}
        if args.write:
            pinned.update(got)
            lines = [f"{pinned[t]}  {t}\n" for t in map(text, filter(exact, commands())) if t in pinned]
            MANIFEST.write_text("".join(lines))
            print(f"wrote {len(lines)} digests to {MANIFEST.relative_to(ROOT)}")
            return 0
        differing = [t for t, d in got.items() if pinned.get(t) != d]
        for t in differing:
            print(f"DIFF {t}: {'differs from' if t in pinned else 'not in'} the manifest")
        print(f"{len(got) - len(differing)} of {len(got)} commands match the manifest")
        return 1 if differing else 0

    def differences(steps) -> tuple[list[str], tuple[float, float] | None]:
        """The differing outputs of one command, and their largest relative
        and absolute differences (None: non-numeric)."""
        base, mine = outcome(args.base.resolve(), steps), outcome(head, steps)
        keys = sorted(k for k in base.keys() | mine.keys() if base.get(k) != mine.get(k))
        diffs = [None if k.endswith(" exit") else number_differences(base.get(k), mine.get(k)) for k in keys]
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
                print(f"DIFF {text(steps)}: {', '.join(keys)}: {how}", flush=True)
    print(f"{len(cmds) - differing} of {len(cmds)} commands byte-identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
