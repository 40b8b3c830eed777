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

Prints one line per differing command and exits 1 if there is any.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the CI workflow's hash-seed initial data, and its pole-abort data
INIT = {u: {"fourier": {"mean": c, "modes": [{"k": k, "amp": 0.05, "phase": 0.3}]}}
        for u, c, k in (("v1", -1.0, [1, 0, 0]), ("w1", 1.0, [0, 1, 0]), ("a1", 1.0, [0, 0, 1]),
                        ("b1", 0.7, [1, 1, 0]))}
ABORT = {u: {"constant": c} for u, c in (("v1", -1.0), ("w1", -0.95), ("a1", 1.0), ("b1", 0.5))}
SIZES = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)]


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


def run(src: Path, steps: list[list[str]], workdir: Path) -> dict:
    """The outcome of one command: per step its exit code and output
    digests, then the digest of every file left in workdir."""
    (workdir / "init.json").write_text(json.dumps(INIT))
    (workdir / "abort.json").write_text(json.dumps(ABORT))
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
    got = {}
    for i, argv in enumerate(steps):
        done = subprocess.run([sys.executable, "-m", "contactlax.cli", *argv], capture_output=True, cwd=workdir,
                              env=env, timeout=1800)
        got[f"step {i} exit"] = done.returncode
        got[f"step {i} stdout"] = hashlib.sha256(done.stdout).hexdigest()
        got[f"step {i} stderr"] = hashlib.sha256(done.stderr).hexdigest()
    for path in sorted(workdir.iterdir()):
        got[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return got


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("base", type=Path, help="the src directory of the tree to compare against")
    ap.add_argument("--head", type=Path, default=ROOT / "src", help="the src directory under test")
    ap.add_argument("--only", help="run only the commands whose text contains this")
    args = ap.parse_args()
    cmds = [c for c in commands() if not args.only or args.only in " ".join(map(" ".join, c))]

    def differing_keys(steps) -> list[str]:
        outcomes = []
        for src in (args.base, args.head):
            with tempfile.TemporaryDirectory() as tmp:
                outcomes.append(run(src.resolve(), steps, Path(tmp)))
        base, head = outcomes
        return sorted(k for k in base.keys() | head.keys() if base.get(k) != head.get(k))

    differing = 0
    with ThreadPoolExecutor(os.cpu_count()) as pool:
        for steps, keys in zip(cmds, pool.map(differing_keys, cmds)):
            if keys:
                differing += 1
                print(f"DIFF {' && '.join(map(' '.join, steps))}: {', '.join(keys)}", flush=True)
    print(f"{len(cmds) - differing} of {len(cmds)} commands byte-identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
