"""Regenerate ``reference.json``: the sweep periods and the scan results
for every scan seed, as the current sources compute them.

Run from the root of a checkout, on the commit whose outputs later
commits are checked against::

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import K_GRID, REFERENCE_PATH, SCAN_SEEDS, Scan, Sweep  # noqa: E402
from run import Runner  # noqa: E402


def outcome_of(runner, workload):
    outdir = runner.fresh_dir()
    return workload.run(workload.prepare(outdir), outdir)


def main():
    # placeholder periods let the sweep build; no check runs here
    reference = {"sweep_periods": {repr(k): 0.0 for k in K_GRID}, "scan": {}}
    runner = Runner("reference", 0, reference)
    try:
        records = outcome_of(runner, Sweep(reference, x2=0.0)).result["records"]
        periods = {repr(k): rec["period"] for k, rec in zip(K_GRID, records)}
        scan = {}
        for seed in range(SCAN_SEEDS):
            workload = Scan(reference, scan_seed=seed)
            scan[str(seed)] = workload.reference_entry(outcome_of(runner, workload))
            print(f"scan seed {seed} done", file=sys.stderr)
    finally:
        runner.close()
    with open(REFERENCE_PATH, "w") as fh:
        json.dump({"sweep_periods": periods, "scan": scan}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
