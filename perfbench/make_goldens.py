"""Regenerate ``perfbench/goldens.json``: one untimed pass per seed.

Usage (from the repository root)::

    python3 perfbench/make_goldens.py --seeds 0-31
    python3 perfbench/make_goldens.py --seeds 0-3 --workload serve_shed

Only run this when a change is *meant* to alter the outputs a goldens
entry pins; say in the change which workloads moved and why.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-31")
    parser.add_argument("--workload", action="append")
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    for path in (ROOT / "src", ROOT):
        sys.path.insert(0, str(path))
    from perfbench.bench import GOLDENS, golden_groups
    from perfbench.workloads import SPECS, AnalysisLog, Workload, coverage_by_ct
    from repro.core.pipeline import DarpaService

    with open(GOLDENS) as fp:
        goldens = json.load(fp)
    log = AnalysisLog()
    original = DarpaService._on_settled
    DarpaService._on_settled = log.wrap(original)
    try:
        for name in args.workload or sorted(SPECS):
            table = goldens["workloads"].setdefault(name, {})
            for seed in _seeds(args.seeds):
                workload = Workload(SPECS[name], seed, ROOT, log)
                units = [workload.run_unit(k)
                         for k in range(workload.units_per_pass)]
                entry = {"groups": golden_groups(name, units)}
                if name == "ct_sweep_oracle":
                    entry["coverage"] = coverage_by_ct(units)
                table[str(seed)] = entry
                workload.cleanup()
                print(f"{name} seed {seed}: {entry['groups']}", flush=True)
    finally:
        DarpaService._on_settled = original
    goldens["workloads"] = {
        name: dict(sorted(table.items(), key=lambda kv: int(kv[0])))
        for name, table in sorted(goldens["workloads"].items())}
    with open(GOLDENS, "w") as fp:
        json.dump(goldens, fp, indent=1, sort_keys=False)
        fp.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
