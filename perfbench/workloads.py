"""The workloads: set-up, one unit of work, and its output digest.

A *unit* is what the timed loop runs between clock reads: one session
(``fleet_trained``), one session at one ct value
(``ct_sweep_oracle``) or one whole daemon run over the fleet in one of
its screen orders (``serve_shed``).  A
*pass* is every unit of the workload once; each phase runs at least one
full pass, so cost-model figures and committed digests always cover the
same sessions.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perfbench.fleet import build_fleet, load_trained

#: Table VIII / Figure 8 cut-off values.
CT_SWEEP_MS = (50.0, 100.0, 200.0, 300.0, 400.0, 500.0)
DEFAULT_CT_MS = 200.0
#: Percentile reported as ``analyze_ms_tail``, fixed per workload and
#: leaving at least ten samples beyond it in a run.  serve_shed's p95
#: falls on the few analyses that waited behind a whole batch round,
#: and which those are depends on the screen order: over ten seeds its
#: ratio to the median spread by 0.30 (quartiles over median), its p90's
#: by 0.12.
TAIL_PERCENTILE = {"fleet_trained": 95.0, "serve_shed": 90.0,
                   "ct_sweep_oracle": 99.0}
#: The warm-up session of set-up: one app of this simulated length from
#: the workload's fleet seed, in a fixed screen order.
WARMUP_MS = 30_000.0
CORPUS_VERSION = "runtime-fleet-expected-mix-v2"


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    n_apps: int
    duration_ms: float
    detector: str                 # "trained" | "oracle"
    cts: Tuple[float, ...] = (DEFAULT_CT_MS,)
    daemon: bool = False
    #: Fixed seed of the apps, screens and their shape; None takes it
    #: from ``--seed``, which always sets each session's screen order.
    fleet_seed: Optional[int] = None
    #: Seeded screen orders of the fleet per pass (daemon only).
    orders: int = 1

    def config(self) -> Dict[str, object]:
        return {"workload": self.name, "n_apps": self.n_apps,
                "duration_ms": self.duration_ms, "detector": self.detector,
                "cts": list(self.cts), "daemon": self.daemon,
                "fleet_seed": self.fleet_seed, "orders": self.orders}


SPECS: Dict[str, WorkloadSpec] = {
    spec.name: spec for spec in (
        # Eight and five sessions are too few to average over their
        # screens and shapes: a seeded fleet moved the work in a pass by
        # up to a quarter between seeds (the daemon's, which also
        # decides the shed session and who shares a batch, moved its
        # latency tail by a third).  So these two replay the fleet of
        # seed 0, whose mix is close to the generator's mean, and the
        # seed orders each session's screens.  Who shares a batch still
        # depends on the order, so each serve_shed pass replays two
        # orders, which pools the latency tail over both.
        WorkloadSpec("fleet_trained", n_apps=8, duration_ms=60_000.0,
                     detector="trained", fleet_seed=0),
        WorkloadSpec("serve_shed", n_apps=5, duration_ms=60_000.0,
                     detector="trained", daemon=True, fleet_seed=0,
                     orders=2),
        WorkloadSpec("ct_sweep_oracle", n_apps=48, duration_ms=60_000.0,
                     detector="oracle", cts=CT_SWEEP_MS),
    )
}

#: serve_shed's daemon: arrivals 20 ms apart against a 200 ms shed
#: deadline, every other setting the default.
SERVE_ARRIVAL_MS = 20.0
SERVE_SHED_DEADLINE_MS = 200.0


def _plain(value: object) -> object:
    """numpy scalars as the Python numbers they equal."""
    return value.item()


def digest(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=_plain)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def perf_row(perf) -> Dict[str, object]:
    return {"cpu_pct": perf.cpu_pct, "memory_mb": perf.memory_mb,
            "fps": perf.fps, "power_mw": perf.power_mw,
            "counts": dict(sorted(perf.counts.items()))}


class AnalysisLog:
    """Wraps the pipeline's settle callback: one latency sample and one
    detection row per completed analysis, grouped by package."""

    def __init__(self) -> None:
        self.latencies_ms = array("d")
        self.rows: Dict[str, List[list]] = {}
        self.cache_hits = 0

    def wrap(self, on_settled):
        from repro.wallclock import monotonic_ms

        def settled(service, event):
            before = len(service.stats.records)
            hits = service.stats.cache_hits
            start = monotonic_ms()
            on_settled(service, event)
            elapsed = monotonic_ms() - start
            if len(service.stats.records) == before:
                return
            record = service.stats.records[-1]
            self.latencies_ms.append(elapsed)
            self.cache_hits += service.stats.cache_hits - hits
            self.rows.setdefault(record.package, []).append([
                record.timestamp_ms, record.flagged_aui, record.degraded,
                [[d.label, d.rect.x, d.rect.y, d.rect.w, d.rect.h, d.score]
                 for d in record.detections]])

        return settled

    def take(self, package: str) -> List[list]:
        return self.rows.pop(package, [])


@dataclass
class UnitResult:
    """What one unit did, for the metrics and the output checks."""

    index: int
    sessions: List[object]
    #: Digest of every output; equal for every run of the same unit.
    digest: str
    #: The part of the outputs compared with the committed goldens.
    golden: str
    detail: Dict[str, object] = field(default_factory=dict)


class Workload:
    """A built workload: its fleet, its detector and its units."""

    def __init__(self, spec: WorkloadSpec, seed: int, root: Path,
                 log: AnalysisLog):
        from repro.bench import experiments

        self.spec = spec
        self.seed = seed
        self.root = root
        self.log = log
        # Drop the memoized corpus so every set-up repetition pays for
        # the corpus and fleet build it reports.
        self.fleet_seed = seed if spec.fleet_seed is None else spec.fleet_seed
        experiments._corpus_memo.pop(self.fleet_seed, None)
        self.fleets = [build_fleet(spec.n_apps, self.fleet_seed,
                                   seed * spec.orders + k, spec.duration_ms)
                       for k in range(spec.orders)]
        self.fleet = self.fleets[0]
        self.warm_up_session = build_fleet(1, self.fleet_seed, 0,
                                           WARMUP_MS)[0]
        packages = [s.spec.package for s in self.fleet]
        if len(set(packages)) != len(packages):
            raise ValueError(f"{spec.name}: fleet packages are not unique")
        self.weights_sha256: Optional[str] = None
        if spec.detector == "trained":
            self.detector, self.weights_sha256 = load_trained(root)
        else:
            self.detector = "oracle"
        self.out_dir = root / "perfbench" / "_work" / spec.name

    @property
    def units_per_pass(self) -> int:
        if self.spec.daemon:
            return len(self.fleets)
        return len(self.spec.cts) * len(self.fleet)

    def warm_up(self) -> None:
        """One session outside the timed phase: plan compile and
        first-touch allocations."""
        from repro.bench.experiments import run_darpa_session

        run_darpa_session(self.warm_up_session, self.detector,
                          ct_ms=DEFAULT_CT_MS, duration_ms=WARMUP_MS,
                          monkey_seed=1000)
        self.log.rows.clear()

    def run_unit(self, index: int) -> UnitResult:
        if self.spec.daemon:
            return self._run_daemon(index % len(self.fleets))
        from repro.bench import experiments

        n = len(self.fleet)
        k = index % self.units_per_pass
        ct, i = self.spec.cts[k // n], k % n
        # Exactly run_darpa_over_fleet's per-session call, one session
        # at a time so every pass can be checked unit by unit.
        result = experiments.run_darpa_session(
            self.fleet[i], self.detector, ct_ms=ct,
            duration_ms=self.spec.duration_ms, monkey_seed=1000 + i)
        analyses = self.log.take(result.package)
        return UnitResult(
            index=k, sessions=[result],
            digest=self._session_digest(result, analyses),
            golden=self._session_digest(result, analyses, exact=False),
            detail={"ct_ms": ct})

    @staticmethod
    def _session_digest(result, analyses: List[list], exact: bool = True) -> str:
        """Digest of a session's verdicts, detections and PerfReport.

        ``exact=False`` rounds box coordinates and scores, so the
        committed digests survive last-bit BLAS differences between
        CPUs; run-to-run checks use the exact values.
        """
        if not exact:
            analyses = [[t, flagged, degraded,
                         [[label, round(x, 2), round(y, 2), round(w, 2),
                           round(h, 2), round(score, 4)]
                          for label, x, y, w, h, score in boxes]]
                        for t, flagged, degraded, boxes in analyses]
        return digest({
            "package": result.package,
            "verdicts": result.screen_verdicts,
            "screens_analyzed": result.screens_analyzed,
            "events_total": result.events_total,
            "perf": perf_row(result.perf),
            "analyses": analyses,
        })

    def _run_daemon(self, k: int) -> UnitResult:
        from repro.core.daemon import DaemonConfig, DarpaDaemon

        config = DaemonConfig(inter_arrival_ms=SERVE_ARRIVAL_MS,
                              shed_deadline_ms=SERVE_SHED_DEADLINE_MS)
        report = DarpaDaemon(self.fleets[k], self.detector, config=config,
                             ct_ms=DEFAULT_CT_MS, out_dir=str(self.out_dir)
                             ).run()
        sessions = [report.results[i] for i in sorted(report.results)]
        analyses = [self.log.take(r.package) for r in sessions]
        telemetry = (self.out_dir / "telemetry.json").read_bytes()
        written = sum((self.out_dir / name).stat().st_size
                      for name in sorted(os.listdir(self.out_dir)))
        counters = dict(sorted(report.counters.items()))

        def daemon_digest(exact: bool) -> str:
            return digest({
                "sessions": [self._session_digest(r, a, exact)
                             for r, a in zip(sessions, analyses)],
                "counters": counters,
                "outcomes": [report.outcomes[i]
                             for i in sorted(report.outcomes)],
                "telemetry_sha256": hashlib.sha256(telemetry).hexdigest(),
            })

        return UnitResult(index=k, sessions=sessions,
                          digest=daemon_digest(True),
                          golden=daemon_digest(False),
                          detail={"counters": counters, "bytes": written})

    def cleanup(self) -> None:
        shutil.rmtree(self.root / "perfbench" / "_work", ignore_errors=True)


def coverage_by_ct(units: List[UnitResult]) -> Dict[str, List[int]]:
    """Figure 8's numbers per ct over one pass: screens analysed, events,
    AUIs shown, AUIs caught."""
    out: Dict[str, List[int]] = {}
    for unit in units:
        key = f"{unit.detail['ct_ms']:g}"
        row = out.setdefault(key, [0, 0, 0, 0])
        for r in unit.sessions:
            row[0] += r.screens_analyzed
            row[1] += r.events_total
            row[2] += r.auis_shown
            row[3] += r.auis_flagged
    return out
