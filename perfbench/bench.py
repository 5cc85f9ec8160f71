"""Set-up, timed phases, output checks and metrics of one workload."""

from __future__ import annotations

import gc
import json
import os
import statistics
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.probe import Probe, install_layer_probes
from perfbench.report import layer_table
from perfbench.workloads import (
    CORPUS_VERSION,
    SPECS,
    TAIL_PERCENTILE,
    AnalysisLog,
    UnitResult,
    Workload,
    coverage_by_ct,
    digest,
)

SETUP_REPEATS = 5
GOLDENS = Path(__file__).resolve().parent / "goldens.json"
#: Goldens are committed for input seeds 0..GOLDEN_SEEDS-1; ``--seed n``
#: builds the inputs of seed ``n % GOLDEN_SEEDS``, so every run is
#: compared with committed outputs.
GOLDEN_SEEDS = 32
#: Layers whose self time is subtracted from the wall to give
#: ``sim.residual_ms``.
LAYERS = ("renderer", "screencache.fingerprint", "infer.preprocess",
          "infer.forward", "nms.decode", "refine", "decorator", "frauddroid",
          "artifacts.write", "artifacts.journal", "artifacts.merge")
#: Probed entry points each workload must reach in a traced pass; every
#: other layer in LAYERS (and ``daemon.batch``) must record no call.
#: The oracle never reads pixels, so ct_sweep_oracle reaches only the
#: decorator.
REACHED = {
    "fleet_trained": ("renderer", "screencache.fingerprint",
                      "infer.preprocess", "infer.forward", "nms.decode",
                      "refine", "decorator"),
    "serve_shed": ("renderer", "screencache.fingerprint", "infer.preprocess",
                   "infer.forward", "nms.decode", "refine", "decorator",
                   "frauddroid", "daemon.batch", "artifacts.write",
                   "artifacts.journal", "artifacts.merge"),
    "ct_sweep_oracle": ("decorator",),
}


@dataclass
class Pass:
    """Every unit of the workload once."""

    ms: float
    traced: bool
    cache_hits: int


@dataclass
class Phase:
    #: The units of the first pass.  Every later pass repeats them
    #: exactly (checked unit by unit), so only these are kept: holding
    #: every pass would make peak RSS grow with the program's speed.
    first: List[UnitResult]
    passes: List[Pass]
    latencies_ms: Sequence[float]

    @property
    def sessions(self) -> List[object]:
        """The sessions of one pass."""
        return [r for u in self.first for r in u.sessions]

    def timed(self, traced: bool) -> List[Pass]:
        return [p for p in self.passes if p.traced == traced]

    def rate(self, count: float) -> float:
        """``count`` per pass over the median untraced pass time, in 1/s:
        every pass does the same work, and the median ignores a pass
        that shared the machine with a burst of other load."""
        ms = statistics.median(p.ms for p in self.timed(False))
        return count / (ms / 1000.0)


class Tracing:
    """Switches the layer probes on for the passes that trace."""

    def __init__(self, log: AnalysisLog, on_settled) -> None:
        self.probe = Probe()
        self.log = log
        self.on_settled = on_settled

    def on(self) -> None:
        from repro.core.pipeline import DarpaService

        install_layer_probes(self.probe)
        DarpaService._on_settled = self.log.wrap(
            self.probe.timed("pipeline.analyze", self.on_settled))

    def off(self) -> None:
        from repro.core.pipeline import DarpaService

        self.probe.restore()
        DarpaService._on_settled = self.log.wrap(self.on_settled)


@dataclass
class Checks:
    """Output checks; each failed check is a failed operation."""

    name: str
    golden: Optional[Dict]
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)
    seen: Dict[int, str] = field(default_factory=dict)

    def check(self, ok: bool, what: str, weight: int = 1) -> None:
        self.attempted += weight
        if not ok:
            self.failed += weight
            self.notes.append(what)

    def unit(self, unit: UnitResult) -> None:
        """Run-to-run consistency (every pass, traced or not) plus the
        daemon's outcome trichotomy."""
        first = self.seen.setdefault(unit.index, unit.digest)
        ok = first == unit.digest
        if self.name == "serve_shed":
            c = unit.detail["counters"]
            ok = ok and c["decorated"] + c["degraded"] + c["shed"] == c["offered"]
        self.check(ok, f"unit {unit.index} differs from its first run "
                       f"or fails its structure check")

    def first_pass(self, units: List[UnitResult]) -> None:
        """Compare one full pass with the committed goldens."""
        groups = golden_groups(self.name, units)
        if self.name == "ct_sweep_oracle":
            rows = coverage_by_ct(units)
            ordered = [rows[k] for k in sorted(rows, key=float)]
            for col in (0, 3):    # screens analysed and AUIs caught
                values = [row[col] for row in ordered]
                self.check(all(a >= b for a, b in zip(values, values[1:])),
                           f"Figure 8 column {col} not non-increasing in ct")
        self.check(self.golden is not None,
                   "no committed goldens for this seed", weight=len(units))
        if self.golden is None:
            return
        expected = self.golden.get("groups", [])
        size = max(1, len(units) // max(1, len(groups)))
        for k, got in enumerate(groups):
            want = expected[k] if k < len(expected) else None
            self.check(got == want, f"group {k}: {got} != committed {want}",
                       weight=size)
        if self.name == "ct_sweep_oracle":
            self.check(coverage_by_ct(units) == self.golden.get("coverage"),
                       "Figure 8 coverage differs from the committed values")


def golden_groups(name: str, units: List[UnitResult]) -> List[str]:
    """Digests committed per seed: one per session, one per daemon run,
    one per ct value of the sweep."""
    if name != "ct_sweep_oracle":
        return [u.golden[:12] for u in units]
    by_ct: Dict[float, List[str]] = {}
    for u in units:
        by_ct.setdefault(u.detail["ct_ms"], []).append(u.golden)
    return [digest(by_ct[ct])[:12] for ct in sorted(by_ct)]


def load_golden(name: str, seed: int) -> Optional[Dict]:
    with open(GOLDENS) as fp:
        goldens = json.load(fp)
    return goldens["workloads"].get(name, {}).get(str(seed))


class SetUp:
    """Builds and warms up a workload and records how long that took.

    The timed phase repeats it between passes, spread over the phase,
    so the median set-up time samples the same stretch of machine time
    as the passes rather than a few seconds before them."""

    def __init__(self, spec, seed: int, root: Path, log: AnalysisLog) -> None:
        self.spec, self.seed, self.root, self.log = spec, seed, root, log
        self.seconds: List[float] = []

    def __call__(self) -> Workload:
        from repro.wallclock import Stopwatch

        samples, hits = len(self.log.latencies_ms), self.log.cache_hits
        watch = Stopwatch()
        workload = Workload(self.spec, self.seed, self.root, self.log)
        workload.warm_up()
        self.seconds.append(watch.elapsed_s())
        # The warm-up's analyses are not part of the timed phase.
        del self.log.latencies_ms[samples:]
        self.log.cache_hits = hits
        return workload


def run_phase(workload: Workload, seconds: float, log: AnalysisLog,
              checks: Checks, tracing: Optional[Tracing] = None,
              setup: Optional[SetUp] = None) -> Phase:
    """Whole passes until they add up to ``seconds``, to the nearest
    half pass; never less than one.  Units of one pass differ in cost,
    so a partial pass would bias every rate.  With ``tracing``, passes
    alternate untraced and traced, at least one of each, so both see
    the same machine and the gap between them is the tracing overhead.
    With ``setup``, set-ups are repeated between passes, in step with
    the timed seconds, until there are ``SETUP_REPEATS``."""
    from repro.wallclock import Stopwatch

    def run_pass() -> List[UnitResult]:
        units = []
        for _ in range(workload.units_per_pass):
            unit = workload.run_unit(len(units))
            units.append(unit)
            checks.unit(unit)
        return units

    log.latencies_ms = array("d")
    log.cache_hits = 0
    passes: List[Pass] = []
    first: List[UnitResult] = []
    timed_s = 0.0
    while True:
        traced = tracing is not None and len(passes) % 2 == 1
        hits = log.cache_hits
        watch = Stopwatch()
        if traced:
            tracing.on()
            units = tracing.probe.timed("bench.pass", run_pass)()
            tracing.off()
        else:
            units = run_pass()
        passes.append(Pass(watch.elapsed_ms(), traced,
                           log.cache_hits - hits))
        timed_s += passes[-1].ms / 1000.0
        if len(passes) <= 2:
            # The first untraced and the first traced pass.
            checks.first_pass(units)
        first = first or units
        # Collect the passes' cyclic garbage (daemon closures, session
        # graphs) here, so peak RSS does not depend on when the
        # collector happened to run.
        gc.collect()
        done = (timed_s * (1.0 + 0.5 / len(passes)) >= seconds
                and (tracing is None or len(passes) >= 2))
        if setup is not None:
            due = int(1 + (SETUP_REPEATS - 1) * min(1.0, timed_s / seconds))
            while len(setup.seconds) < (SETUP_REPEATS if done else due):
                setup()
                gc.collect()
        if done:
            break
    return Phase(first=first, passes=passes, latencies_ms=log.latencies_ms)


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def end_to_end(name: str, phase: Phase, setup_s: List[float],
               lines: List[str]) -> Dict[str, Dict]:
    lat = phase.latencies_ms
    pct = TAIL_PERCENTILE[name]
    beyond = len(lat) - int(-(-len(lat) * pct // 100))
    lines.append(f"analyze_ms_tail is p{pct:g} of {len(lat)} analyses "
                 f"({beyond} beyond it)")
    screens = sum(r.screens_analyzed for r in phase.sessions)
    lines.append(f"{len(phase.passes)} passes, pass seconds: " + " ".join(
        f"{p.ms / 1000.0:.2f}" for p in phase.passes))
    return {
        "sessions_per_s": {"value": phase.rate(len(phase.sessions)),
                           "unit": "1/s"},
        "screens_per_s": {"value": phase.rate(screens), "unit": "1/s"},
        "analyze_ms_p50": {"value": statistics.median(lat), "unit": "ms"},
        "analyze_ms_tail": {"value": percentile(lat, pct), "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
    }


def costmodel(sessions: List[object]) -> Dict[str, float]:
    from repro.android.device import PerfOp

    n = len(sessions)
    out = {
        "costmodel.cpu_pct": sum(r.perf.cpu_pct for r in sessions) / n,
        "costmodel.memory_mb": sum(r.perf.memory_mb for r in sessions) / n,
        "costmodel.fps": sum(r.perf.fps for r in sessions) / n,
    }
    for op in PerfOp:
        out[f"costmodel.{op.value}_count"] = (
            sum(r.perf.counts.get(op.value, 0) for r in sessions) / n)
    return out


COSTMODEL_UNITS = {"costmodel.cpu_pct": "%", "costmodel.memory_mb": "MB",
                   "costmodel.fps": "fps"}


def per_layer(probe: Probe, phase: Phase) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of the traced passes, per completed session.

    Output counts (events, coalesced rounds, bytes written) are the same
    in every pass, so they are taken from the first pass."""
    traced = phase.timed(True)
    units = phase.first
    sessions = phase.sessions
    n = len(sessions) * len(traced)
    per_pass = len(sessions)
    wall_ms = probe.get("bench.pass").total_ms
    cache_hits = sum(p.cache_hits for p in traced)
    g = probe.get
    pre, fwd, dec, ref = (g("infer.preprocess"), g("infer.forward"),
                          g("nms.decode"), g("refine"))
    fp = g("screencache.fingerprint")
    images = pre.calls
    miss_ms = ((pre.self_ms + fwd.self_ms + dec.self_ms + ref.self_ms) / images
               if images else 0.0)
    counters = [u.detail.get("counters", {}) for u in units]
    rounds = sum(c.get("coalesced_rounds", 0) for c in counters)
    requests = sum(c.get("coalesced_requests", 0) for c in counters)
    artifacts_ms = sum(g(k).self_ms for k in
                       ("artifacts.write", "artifacts.journal", "artifacts.merge"))
    layer_self = sum(g(k).self_ms for k in LAYERS)
    overhead = (statistics.median(p.ms for p in traced)
                / statistics.median(p.ms for p in phase.timed(False)))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: Dict[str, Tuple[float, str]] = {
        "renderer.calls": (g("renderer").calls / n, "count/session"),
        "renderer.busy_ms": (g("renderer").self_ms / n, "ms/session"),
        "renderer.ms_per_call": (ratio(g("renderer").total_ms,
                                       g("renderer").calls), "ms"),
        "screencache.probes": (fp.calls / n, "count/session"),
        "screencache.hit_ratio": (ratio(cache_hits, fp.calls), "ratio"),
        "screencache.fingerprint_ms": (fp.self_ms / n, "ms/session"),
        "screencache.net_saved_ms": (
            (cache_hits * miss_ms - fp.self_ms) / n, "ms/session"),
        "infer.preprocess_ms": (pre.self_ms / n, "ms/session"),
        "infer.forward_calls": (fwd.calls / n, "count/session"),
        "infer.images_per_forward": (ratio(images, fwd.calls), "ratio"),
        "infer.forward_ms": (fwd.self_ms / n, "ms/session"),
        "infer.ms_per_image": (ratio(fwd.self_ms, images), "ms"),
        "nms.decode_ms": (dec.self_ms / n, "ms/session"),
        "nms.boxes_kept": (dec.items / n, "count/session"),
        "refine.boxes": (ref.calls / n, "count/session"),
        "refine.busy_ms": (ref.self_ms / n, "ms/session"),
        "refine.ms_per_box": (ratio(ref.self_ms, ref.calls), "ms"),
        "decorator.overlays": (g("decorator").items / n, "count/session"),
        "decorator.busy_ms": (g("decorator").self_ms / n, "ms/session"),
        "frauddroid.calls": (g("frauddroid").calls / n, "count/session"),
        "frauddroid.busy_ms": (g("frauddroid").self_ms / n, "ms/session"),
        "daemon.rounds": (rounds / per_pass, "count/session"),
        "daemon.occupancy_mean": (ratio(requests, rounds), "ratio"),
        "daemon.batch_ms": (g("daemon.batch").total_ms / n, "ms/session"),
        "artifacts.write_ms": (artifacts_ms / n, "ms/session"),
        "artifacts.bytes": (sum(u.detail.get("bytes", 0) for u in units)
                            / per_pass, "B/session"),
        "sim.events": (sum(r.events_total for r in sessions) / per_pass,
                       "count/session"),
        "sim.residual_ms": ((wall_ms - layer_self) / n, "ms/session"),
        "trace.overhead_pct": ((overhead - 1.0) * 100.0, "%"),
    }
    for key, value in costmodel(sessions).items():
        out[key] = (value, COSTMODEL_UNITS.get(key, "count/session"))
    return out


def provenance(workload: Workload, seed: int) -> Dict[str, object]:
    import numpy as np

    from repro.bench.provenance import build_manifest

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload.spec.name,
        "seed": seed,
        "input_seed": workload.seed,
        "fleet_seed": workload.fleet_seed,
        "weights": ("oracle" if workload.weights_sha256 is None
                    else "sha256:" + workload.weights_sha256),
        "manifest": build_manifest(CORPUS_VERSION, workload.seed,
                                   workload.spec.config()),
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }


def run_workload(root: Path, name: str, seed: int, seconds: float,
                 trace: bool) -> Tuple[Dict, List[str]]:
    """Set up, run the timed phase(s), check, and return the result
    object plus the lines to print before it."""
    from repro.core.pipeline import DarpaService

    spec = SPECS[name]
    input_seed = seed % GOLDEN_SEEDS
    log = AnalysisLog()
    original = DarpaService._on_settled
    DarpaService._on_settled = log.wrap(original)
    tracing = Tracing(log, original)
    workload: Optional[Workload] = None
    lines: List[str] = []
    try:
        setup = SetUp(spec, input_seed, root, log)
        workload = setup()
        checks = Checks(name, load_golden(name, input_seed))
        lines.append(json.dumps({"provenance": provenance(workload, seed)},
                                sort_keys=True))
        if not trace:
            phase = run_phase(workload, seconds, log, checks, setup=setup)
            metrics = end_to_end(name, phase, setup.seconds, lines)
        else:
            phase = run_phase(workload, seconds, log, checks, tracing)
            probe = tracing.probe
            wall_ms = probe.get("bench.pass").total_ms
            for frame in LAYERS + ("daemon.batch",):
                calls = probe.get(frame).calls
                reached = frame in REACHED[name]
                checks.check(calls > 0 if reached else calls == 0,
                             f"{frame}: {calls} calls, expected "
                             + ("some" if reached else "none"))
            layer = per_layer(probe, phase)
            lines.extend(layer_table(
                name, probe, layer, wall_ms,
                len(phase.sessions) * len(phase.timed(True)), LAYERS))
            metrics = {k: {"value": v, "unit": u}
                       for k, (v, u) in sorted(layer.items())}
    finally:
        tracing.probe.restore()
        DarpaService._on_settled = original
        if workload is not None:
            workload.cleanup()
    golden = "committed" if checks.golden is not None else "not committed"
    lines.append(f"goldens for input seed {input_seed}: {golden}; "
                 f"{checks.failed} of {checks.attempted} checks failed")
    lines.extend(f"FAILED: {note}" for note in checks.notes[:20])
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed, "metrics": metrics}
    return result, lines
