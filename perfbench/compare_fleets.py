"""Compare the benchmark's fixed-shape fleet with the program's generator.

Usage (from the repository root)::

    python3 perfbench/compare_fleets.py --apps 8 --seeds 0-4

For each seed it replays both fleets of ``--apps`` one-minute sessions
(the trained TinyYolo, ct 200 ms, one session at a time as
``run_darpa_over_fleet`` does) with the layer probes on.  It prints, per
fleet and seed, the analyses per session, the screen-cache hit ratio and
the four largest layers' shares of the traced wall, then their mean and
min-max range over the seeds.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ("renderer", "screencache.fingerprint", "refine", "infer.forward")


def _seeds(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def measure(fleet, detector) -> dict:
    """One traced pass over ``fleet``."""
    from perfbench.probe import Probe, install_layer_probes
    from perfbench.workloads import AnalysisLog
    from repro.bench import experiments
    from repro.core.pipeline import DarpaService

    probe, log = Probe(), AnalysisLog()
    original = DarpaService._on_settled
    install_layer_probes(probe)
    DarpaService._on_settled = log.wrap(original)
    try:
        analyses = 0
        run = probe.timed("bench.pass", lambda: [
            experiments.run_darpa_session(s, detector, ct_ms=200.0,
                                          monkey_seed=1000 + i)
            for i, s in enumerate(fleet)])
        for result in run():
            analyses += result.screens_analyzed
    finally:
        probe.restore()
        DarpaService._on_settled = original
    wall = probe.get("bench.pass").total_ms
    probes = probe.get("screencache.fingerprint").calls
    row = {"analyses/session": analyses / len(fleet),
           "hit_ratio": log.cache_hits / probes if probes else 0.0}
    for name in LAYERS:
        row[f"{name} %"] = probe.get(name).self_ms / wall * 100.0
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--apps", type=int, default=8)
    parser.add_argument("--seeds", default="0-4", help="e.g. 0-4")
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    for path in (ROOT / "src", ROOT):
        sys.path.insert(0, str(path))
    from perfbench.fleet import build_fleet, load_trained
    from repro.bench import build_runtime_fleet

    detector, _ = load_trained(ROOT)
    fleets = {
        "generator": lambda seed: build_runtime_fleet(
            n_apps=args.apps, seed=seed, duration_ms=60_000.0),
        "fixed": lambda seed: build_fleet(args.apps, seed, seed, 60_000.0),
    }
    rows = {name: [] for name in fleets}
    for seed in _seeds(args.seeds):
        for name, build in fleets.items():
            row = measure(build(seed), detector)
            rows[name].append(row)
            print(f"seed {seed} {name:9s} " + "  ".join(
                f"{k} {v:.3g}" for k, v in row.items()), flush=True)
    for name, table in rows.items():
        print(f"{name} over {len(table)} seeds (mean [min, max]):")
        for key in table[0]:
            values = [r[key] for r in table]
            print(f"  {key:28s} {statistics.mean(values):8.3g} "
                  f"[{min(values):.3g}, {max(values):.3g}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
