"""Host-time benchmark of the DARPA fleet path.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet_trained --seed 0 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 32 --trace 1

One workload runs per process; ``all`` runs each in its own process
and prints every metric with its unit.  ``--trace 0`` times untraced
passes over the workload and prints the end-to-end metrics; ``--trace
1`` alternates untraced and traced passes and prints the per-layer
metrics, the tracing overhead and a per-layer table.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``ct_sweep_oracle`` (the Figure 8 sweep with the oracle, which only
the simulator, debounce and dispatch code serve) runs by hand but is not
in ``BENCHMARK.json``: that pure-Python path slows by up to 75% when
other load shares the machine, so its run-to-run spread exceeds any
bound the benchmark could keep.

``--seed n`` builds the inputs of seed ``n % 32``: outputs are committed
in ``perfbench/goldens.json`` for seeds 0-31, so every run is checked
against them.

Exit codes: 0 done (see ``correct``), 2 the ``repro`` package cannot be
imported from ``src/``, 3 the committed detector weights are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("fleet_trained", "serve_shed", "ct_sweep_oracle")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            code = code or proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        print(f"== {name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in sorted(result["metrics"].items()):
            print(f"   {metric:32s} {entry['value']:14.6g} {entry['unit']}")
    return code


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    # One BLAS thread: on a small shared machine a second BLAS thread
    # measures the scheduler, not the program.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    for path in (ROOT / "src", ROOT):
        sys.path.insert(0, str(path))
    try:
        import repro  # noqa: F401  (the checkout's program must import)
    except ImportError as exc:
        print(f"perfbench: cannot import the repro package from "
              f"{ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from perfbench.bench import run_workload
    from perfbench.fleet import WeightsMissingError

    try:
        result, lines = run_workload(ROOT, args.workload, args.seed,
                                     args.seconds, bool(args.trace))
    except WeightsMissingError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = {"value": peak_kb / 1024.0,
                                            "unit": "MB"}
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

