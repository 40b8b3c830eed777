#!/usr/bin/env python3
"""Regenerate ``expected.json``: the exact equation values of every system
the workloads derive, and the final monitor row and residual bound of
every simulate initial-data variant.

    PYTHONPATH=src python3 perfbench/record.py

Run it only when the documented output of the engine changes on purpose.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import sys
import tempfile

import workloads


def _run(cli, argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited {code}")


def main() -> int:
    import contactlax.cli as cli

    expected = {"systems": {}, "simulate": {}}
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out")
        # simulate first: the worker runs it in a fresh process
        init = os.path.join(tmp, "init.json")
        for workload in workloads.SIMULATE:
            (job,) = workloads.jobs_for(workload, 0)
            rows = {}
            for variant in range(workloads.PHASE_VARIANTS):
                with open(init, "w") as f:
                    json.dump(workloads.initial_data(variant), f)
                _run(cli, job.argv + ["--init", init, "--monitor", out])
                with open(out) as f:
                    table = [[float(x) for x in r] for r in list(csv.reader(f))[1:]]
                largest = max(r[3] for r in table if not math.isnan(r[3]))
                rows[str(variant)] = {
                    "final_row": table[-1],
                    "residual_bound": largest * workloads.RESIDUAL_BOUND_FACTOR,
                }
                print(f"{workload} variant {variant}: {table[-1]}", file=sys.stderr)
            expected["simulate"][workload] = rows
        for workload in ("derive-table", "residues-verify"):
            for job in workloads.jobs_for(workload, 0):
                if job.system_out:
                    _run(cli, job.argv + ["--out-json", out])
                    with open(out) as f:
                        expected["systems"][job.name] = workloads.system_values(job.name, json.load(f))
    with open(workloads.EXPECTED_PATH, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
