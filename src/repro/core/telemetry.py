"""Fleet telemetry: mergeable quantile sketches, SLOs, exporters.

PR 3's observability layer records *per-session* spans and metrics;
this module is the layer on top that a fleet deployment actually
watches — tail latency, health objectives, and alerting — built so
that every number is **deterministic and exactly mergeable**:

- :class:`QuantileSketch` is a DDSketch-style fixed log-bucket sketch.
  Bucket indices are pure functions of the value, counts are integers,
  and the running sum is kept in integer microseconds, so ``merge`` is
  exactly associative and commutative: fleet-wide p50/p95/p99 are
  byte-identical for any shard count or merge order.  Buckets carry
  *exemplars* — the (session, span_id) of one observation — linking a
  hot tail bucket back to the span dump that produced it;
- :class:`SessionTelemetry` derives one session's latency sketches
  (reaction / debounce / screenshot / inference) and health counters
  purely from its exported spans + metrics snapshot.  Reaction time is
  the modelled end-to-end figure the paper argues about: wall time from
  the last UI event (debounce start) to the analysis verdict, plus the
  cost-model CPU attributed to the analysis subtree;
- :class:`FleetTelemetry` merges session telemetries (or shard-level
  part snapshots) and exports Prometheus text exposition and a
  versioned JSON snapshot;
- :class:`SloEngine` evaluates declarative :class:`SloSpec` objectives
  ("p95 reaction <= ct + inference budget", "decoration success >=
  99.9%", "fallback share <= 1%", ...) over sliding session windows
  with multi-window burn-rate alerting.  Alerts are plain, reproducible
  records: the same seeded fleet produces the same alert list whether
  it ran sequentially or sharded.

Nothing here touches the serving path: telemetry is derived after the
fact from artifacts tracing already produces, so runs with telemetry
disabled are bit-identical to runs without this module loaded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union)

from repro.android.device import DeviceProfile
from repro.core.observability import SpanForest

#: Default relative accuracy of the log buckets (DDSketch alpha).
DEFAULT_ALPHA = 0.01

#: Sketch names, one per monitored latency stage.
REACTION_SKETCH = "darpa.latency.reaction_ms"
DEBOUNCE_SKETCH = "darpa.latency.debounce_ms"
SCREENSHOT_SKETCH = "darpa.latency.screenshot_ms"
INFERENCE_SKETCH = "darpa.latency.inference_ms"
STAGE_SKETCHES: Tuple[str, ...] = (
    REACTION_SKETCH, DEBOUNCE_SKETCH, SCREENSHOT_SKETCH, INFERENCE_SKETCH)

#: Slack on top of ``ct + screenshot + inference`` that the reaction
#: SLO tolerates: cache probes, decoration drawing, a benign retry.
REACTION_SLACK_MS = 25.0

#: Snapshot schema version (bumped on any incompatible field change).
TELEMETRY_VERSION = 1


def _exemplar_key(exemplar: Mapping[str, object]) -> Tuple[int, int]:
    return (int(exemplar.get("session", 0)), int(exemplar.get("span_id", 0)))


class QuantileSketch:
    """A deterministic, exactly-mergeable log-bucket quantile sketch.

    Bucket ``i`` covers ``(gamma**(i-1), gamma**i]`` with
    ``gamma = (1 + alpha) / (1 - alpha)``; zeros get their own count.
    All mutable state is integral (counts, and the value sum in
    microseconds), so merging never re-associates float additions —
    ``merge`` is associative, commutative, and idempotent on empty
    sketches, and two snapshots built through different merge trees are
    byte-identical.

    Each non-empty bucket optionally keeps one *exemplar* (a dict with
    ``session``/``span_id``/... fields); merges keep the exemplar with
    the smallest ``(session, span_id)``, which is order-invariant.
    """

    __slots__ = ("alpha", "_gamma", "_log_gamma", "zero_count", "counts",
                 "count", "sum_micros", "min", "max", "exemplars")

    def __init__(self, alpha: float = DEFAULT_ALPHA):
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        self.alpha = float(alpha)
        self._gamma = (1.0 + self.alpha) / (1.0 - self.alpha)
        self._log_gamma = math.log(self._gamma)
        self.zero_count = 0
        self.counts: Dict[int, int] = {}
        self.count = 0
        self.sum_micros = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.exemplars: Dict[int, Dict[str, object]] = {}

    # -- recording -------------------------------------------------------

    def bucket_index(self, value: float) -> int:
        """The bucket covering a strictly positive value."""
        if value <= 0.0:
            raise ValueError("bucket_index needs a positive value")
        return int(math.ceil(math.log(value) / self._log_gamma))

    def observe(self, value: float,
                exemplar: Optional[Dict[str, object]] = None) -> None:
        v = float(value)
        if v < 0.0:
            raise ValueError("latencies cannot be negative")
        self.count += 1
        self.sum_micros += int(round(v * 1000.0))
        self.min = v if self.min is None else min(self.min, v)
        self.max = v if self.max is None else max(self.max, v)
        if v == 0.0:
            self.zero_count += 1
            return
        idx = self.bucket_index(v)
        self.counts[idx] = self.counts.get(idx, 0) + 1
        if exemplar is not None:
            kept = self.exemplars.get(idx)
            if kept is None or _exemplar_key(exemplar) < _exemplar_key(kept):
                self.exemplars[idx] = dict(exemplar)

    # -- queries ---------------------------------------------------------

    @property
    def sum(self) -> float:
        return self.sum_micros / 1000.0

    def bucket_value(self, index: int) -> float:
        """Deterministic representative value of a bucket (its midpoint
        under the relative-error guarantee)."""
        return 2.0 * self._gamma ** index / (self._gamma + 1.0)

    def quantile(self, q: float) -> float:
        """The q-quantile estimate (within ``alpha`` relative error)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = max(1, int(math.ceil(q * self.count)))
        if rank <= self.zero_count:
            return 0.0
        seen = self.zero_count
        for idx in sorted(self.counts):
            seen += self.counts[idx]
            if seen >= rank:
                return self.bucket_value(idx)
        return self.bucket_value(max(self.counts))

    def count_le(self, threshold: float) -> int:
        """Observations at or below ``threshold`` (bucket-granular, so
        the answer is identical however the sketch was merged)."""
        if threshold < 0.0:
            return 0
        total = self.zero_count
        if threshold > 0.0:
            limit = self.bucket_index(threshold)
            total += sum(n for idx, n in self.counts.items() if idx <= limit)
        return total

    def hottest_exemplar(self) -> Optional[Dict[str, object]]:
        """The exemplar of the highest occupied bucket, if any."""
        for idx in sorted(self.exemplars, reverse=True):
            return dict(self.exemplars[idx])
        return None

    # -- merging ---------------------------------------------------------

    def merge(self, other: "QuantileSketch") -> "QuantileSketch":
        """Fold ``other`` into this sketch (in place); returns self."""
        if other.alpha != self.alpha:
            raise ValueError("cannot merge sketches with different alpha")
        self.zero_count += other.zero_count
        self.count += other.count
        self.sum_micros += other.sum_micros
        for idx, n in other.counts.items():
            self.counts[idx] = self.counts.get(idx, 0) + n
        for idx, exemplar in other.exemplars.items():
            kept = self.exemplars.get(idx)
            if kept is None or _exemplar_key(exemplar) < _exemplar_key(kept):
                self.exemplars[idx] = dict(exemplar)
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min,
                                                              other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max,
                                                              other.max)
        return self

    # -- (de)serialization ----------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        return {
            "alpha": self.alpha,
            "zero_count": self.zero_count,
            "count": self.count,
            "sum_micros": self.sum_micros,
            "min": self.min,
            "max": self.max,
            "buckets": {str(idx): self.counts[idx]
                        for idx in sorted(self.counts)},
            "exemplars": {str(idx): self.exemplars[idx]
                          for idx in sorted(self.exemplars)},
        }

    @classmethod
    def from_snapshot(cls, snap: Mapping[str, object]) -> "QuantileSketch":
        sketch = cls(alpha=float(snap["alpha"]))  # type: ignore[arg-type]
        sketch.zero_count = int(snap["zero_count"])  # type: ignore[arg-type]
        sketch.count = int(snap["count"])  # type: ignore[arg-type]
        sketch.sum_micros = int(snap["sum_micros"])  # type: ignore[arg-type]
        sketch.min = None if snap["min"] is None else float(snap["min"])  # type: ignore[arg-type]
        sketch.max = None if snap["max"] is None else float(snap["max"])  # type: ignore[arg-type]
        sketch.counts = {int(k): int(v)
                         for k, v in snap["buckets"].items()}  # type: ignore[union-attr]
        sketch.exemplars = {int(k): dict(v)
                            for k, v in snap["exemplars"].items()}  # type: ignore[union-attr]
        return sketch


# ---------------------------------------------------------------------------
# Session-level telemetry (derived from span dumps)
# ---------------------------------------------------------------------------

def sketches_from_spans(
    spans: Union[SpanForest, Sequence[Mapping[str, object]]],
    profile: Optional[DeviceProfile] = None,
    session: int = 0,
    alpha: float = DEFAULT_ALPHA,
) -> Dict[str, QuantileSketch]:
    """Per-stage latency sketches of one session's span dump.

    - ``debounce``: wall duration of each settle window (= ct);
    - ``screenshot`` / ``inference``: cost-model CPU attributed to each
      successful capture / CNN forward;
    - ``reaction``: for each analysis that produced a verdict
      (``outcome == "ok"``), wall time since the settle window opened
      (the last UI event — so backoff retries are included) plus the
      attributed CPU of the whole analyze subtree.

    ``spans`` may be a prebuilt :class:`SpanForest`.  Exemplars carry
    ``(session, span_id, trace_id)`` so a hot bucket points straight
    back into the span JSONL.
    """
    forest = SpanForest.of(spans, profile)
    sketches = {name: QuantileSketch(alpha=alpha) for name in STAGE_SKETCHES}

    def exemplar(span: Mapping[str, object]) -> Dict[str, object]:
        return {"session": session, "span_id": int(span["span_id"]),  # type: ignore[arg-type]
                "trace_id": str(span["trace_id"])}

    pending_debounce: Optional[Mapping[str, object]] = None
    for span in forest.spans:  # finish order: children close before parents
        name = span["name"]
        span_id = int(span["span_id"])  # type: ignore[arg-type]
        if name == "debounce":
            sketches[DEBOUNCE_SKETCH].observe(
                float(span["end_ms"]) - float(span["start_ms"]),  # type: ignore[arg-type]
                exemplar=exemplar(span))
            pending_debounce = span
        elif name == "screenshot" and span.get("ops"):
            sketches[SCREENSHOT_SKETCH].observe(forest.cpu[span_id],
                                                exemplar=exemplar(span))
        elif name == "inference" and span.get("ops"):
            sketches[INFERENCE_SKETCH].observe(forest.cpu[span_id],
                                               exemplar=exemplar(span))
        elif (name == "analyze"
              and span.get("attributes", {}).get("outcome") == "ok"):  # type: ignore[union-attr]
            start = (float(pending_debounce["start_ms"])  # type: ignore[arg-type]
                     if pending_debounce is not None
                     else float(span["start_ms"]))  # type: ignore[arg-type]
            reaction = ((float(span["end_ms"]) - start)  # type: ignore[arg-type]
                        + forest.subtree_cpu(span_id))
            sketches[REACTION_SKETCH].observe(reaction,
                                              exemplar=exemplar(span))
    return sketches


#: Health counters a session contributes to fleet telemetry, in the
#: historic short names (see ``repro.core.pipeline.STAT_COUNTERS``).
TELEMETRY_COUNTERS: Tuple[str, ...] = (
    "screens_analyzed",
    "decorations_drawn",
    "overlay_rejections",
    "fallback_detections",
    "screenshot_failures",
    "retries",
    "detector_failures",
    "breaker_opens",
    "deadline_skips",
    # Breaker transition counters, read from the ``darpa.resilience.*``
    # namespace (see ``repro.core.pipeline.RESILIENCE_COUNTERS``).
    "breaker_opened",
    "breaker_half_opened",
    "breaker_closed",
    "probe_successes",
    "probe_failures",
)

_PIPELINE_PREFIX = "darpa.pipeline."
_RESILIENCE_PREFIX = "darpa.resilience."

#: Telemetry counters that live under ``darpa.resilience.`` instead of
#: ``darpa.pipeline.`` in registry snapshots and Prometheus exports.
RESILIENCE_TELEMETRY_COUNTERS: frozenset = frozenset((
    "breaker_opened", "breaker_half_opened", "breaker_closed",
    "probe_successes", "probe_failures"))


def _counter_namespace(name: str) -> str:
    return (_RESILIENCE_PREFIX if name in RESILIENCE_TELEMETRY_COUNTERS
            else _PIPELINE_PREFIX)


def counters_from_snapshot(snapshot: Mapping[str, object]) -> Dict[str, int]:
    """The :data:`TELEMETRY_COUNTERS` of one session's registry snapshot
    (0 for any the snapshot lacks)."""
    recorded = snapshot.get("counters", {})
    return {name: int(recorded.get(_counter_namespace(name) + name) or 0)  # type: ignore[union-attr]
            for name in TELEMETRY_COUNTERS}


@dataclass
class SessionTelemetry:
    """One session's contribution to fleet telemetry."""

    session: int
    sketches: Dict[str, QuantileSketch]
    counters: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_result(cls, session: int, result,
                    profile: Optional[DeviceProfile] = None,
                    alpha: float = DEFAULT_ALPHA) -> "SessionTelemetry":
        """Derive telemetry from a traced :class:`SessionResult`."""
        if result.spans is None:
            raise ValueError(
                "telemetry needs a traced session (run with trace=True)")
        return cls(session=session,
                   sketches=sketches_from_spans(result.spans, profile=profile,
                                                session=session, alpha=alpha),
                   counters=counters_from_snapshot(result.metrics))


def session_telemetries(
    results: Sequence,
    profile: Optional[DeviceProfile] = None,
    start_index: int = 0,
    alpha: float = DEFAULT_ALPHA,
) -> List[SessionTelemetry]:
    """Per-session telemetry for a traced fleet, in fleet order."""
    return [SessionTelemetry.from_result(start_index + i, r, profile=profile,
                                         alpha=alpha)
            for i, r in enumerate(results)]


# ---------------------------------------------------------------------------
# Fleet-level telemetry (mergeable across shards)
# ---------------------------------------------------------------------------

class FleetTelemetry:
    """Merged sketches + counters for a whole fleet (or one shard).

    ``merge`` has the same algebra as the sketches it contains, so
    shard-level telemetries fold into the fleet-level one in any order
    with byte-identical snapshots.
    """

    def __init__(self, alpha: float = DEFAULT_ALPHA):
        self.alpha = float(alpha)
        self.sessions = 0
        self.sketches: Dict[str, QuantileSketch] = {
            name: QuantileSketch(alpha=alpha) for name in STAGE_SKETCHES}
        self.counters: Dict[str, int] = {
            name: 0 for name in TELEMETRY_COUNTERS}

    def observe_session(self, telemetry: SessionTelemetry) -> None:
        self.sessions += 1
        for name, sketch in telemetry.sketches.items():
            if name not in self.sketches:
                self.sketches[name] = QuantileSketch(alpha=self.alpha)
            self.sketches[name].merge(sketch)
        for name, value in telemetry.counters.items():
            self.counters[name] = self.counters.get(name, 0) + int(value)

    @classmethod
    def from_sessions(cls, telemetries: Iterable[SessionTelemetry],
                      alpha: float = DEFAULT_ALPHA) -> "FleetTelemetry":
        fleet = cls(alpha=alpha)
        for telemetry in telemetries:
            fleet.observe_session(telemetry)
        return fleet

    @classmethod
    def from_results(cls, results: Sequence,
                     profile: Optional[DeviceProfile] = None,
                     start_index: int = 0,
                     alpha: float = DEFAULT_ALPHA) -> "FleetTelemetry":
        return cls.from_sessions(
            session_telemetries(results, profile=profile,
                                start_index=start_index, alpha=alpha),
            alpha=alpha)

    def merge(self, other: "FleetTelemetry") -> "FleetTelemetry":
        if other.alpha != self.alpha:
            raise ValueError("cannot merge telemetry with different alpha")
        self.sessions += other.sessions
        for name, sketch in other.sketches.items():
            if name not in self.sketches:
                self.sketches[name] = QuantileSketch(alpha=self.alpha)
            self.sketches[name].merge(sketch)
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + int(value)
        return self

    def quantiles(self, qs: Sequence[float] = (0.5, 0.95, 0.99)
                  ) -> Dict[str, Dict[str, float]]:
        """p50/p95/p99 (by default) per sketch, for reports."""
        return {
            name: {f"p{round(q * 100)}": sketch.quantile(q) for q in qs}
            for name, sketch in sorted(self.sketches.items())
        }

    # -- (de)serialization ----------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Versioned JSON-ready snapshot (the ``telemetry.json`` schema)."""
        return {
            "version": TELEMETRY_VERSION,
            "alpha": self.alpha,
            "sessions": self.sessions,
            "counters": {name: self.counters[name]
                         for name in sorted(self.counters)},
            "sketches": {name: self.sketches[name].snapshot()
                         for name in sorted(self.sketches)},
        }

    @classmethod
    def from_snapshot(cls, snap: Mapping[str, object]) -> "FleetTelemetry":
        version = int(snap.get("version", 0))  # type: ignore[arg-type]
        if version != TELEMETRY_VERSION:
            raise ValueError(
                f"unsupported telemetry snapshot version {version}")
        fleet = cls(alpha=float(snap["alpha"]))  # type: ignore[arg-type]
        fleet.sessions = int(snap["sessions"])  # type: ignore[arg-type]
        fleet.counters = {str(k): int(v)
                          for k, v in snap["counters"].items()}  # type: ignore[union-attr]
        fleet.sketches = {
            str(name): QuantileSketch.from_snapshot(s)
            for name, s in snap["sketches"].items()}  # type: ignore[union-attr]
        return fleet

    # -- Prometheus exposition ------------------------------------------

    def prometheus_lines(self) -> List[str]:
        """Text exposition: sketches as summaries, counters as totals."""
        lines: List[str] = []
        for name in sorted(self.sketches):
            sketch = self.sketches[name]
            metric = _prom_name(name)
            lines.append(f"# TYPE {metric} summary")
            for q in (0.5, 0.95, 0.99):
                lines.append(
                    f'{metric}{{quantile="{q}"}} {_prom_float(sketch.quantile(q))}')
            lines.append(f"{metric}_sum {_prom_float(sketch.sum)}")
            lines.append(f"{metric}_count {sketch.count}")
        for name in sorted(self.counters):
            metric = _prom_name(_counter_namespace(name) + name) + "_total"
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {self.counters[name]}")
        lines.append("# TYPE darpa_fleet_sessions gauge")
        lines.append(f"darpa_fleet_sessions {self.sessions}")
        return lines

    def to_prometheus(self) -> str:
        return "\n".join(self.prometheus_lines()) + "\n"


def _prom_name(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


def _prom_float(value: float) -> str:
    return repr(float(value))


# ---------------------------------------------------------------------------
# Registry snapshot helpers (metrics.jsonl -> one merged exposition)
# ---------------------------------------------------------------------------

def merge_registry_snapshots(
    snapshots: Sequence[Mapping[str, object]]) -> Dict[str, object]:
    """Fold per-session :class:`MetricsRegistry` snapshots into one.

    Counters and histogram tallies add; gauges are last-write-wins in
    the given order (feed snapshots in global session order).  Histogram
    ``sum`` totals are folded with :func:`math.fsum`, which is exactly
    rounded and therefore permutation-invariant — shard merge order
    cannot skew the merged float by even an ulp.
    """
    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Dict[str, object]] = {}
    hist_sums: Dict[str, List[float]] = {}
    for snap in snapshots:
        for name, value in snap.get("counters", {}).items():  # type: ignore[union-attr]
            counters[name] = counters.get(name, 0) + int(value)
        for name, value in snap.get("gauges", {}).items():  # type: ignore[union-attr]
            gauges[name] = float(value)
        for name, hist in snap.get("histograms", {}).items():  # type: ignore[union-attr]
            hist_sums.setdefault(name, []).append(float(hist["sum"]))
            merged = histograms.get(name)
            if merged is None:
                histograms[name] = {
                    "buckets": list(hist["buckets"]),
                    "bucket_counts": list(hist["bucket_counts"]),
                    "count": int(hist["count"]),
                    "sum": 0.0,
                }
                continue
            if list(hist["buckets"]) != merged["buckets"]:
                raise ValueError(
                    f"histogram {name!r} has mismatched buckets across "
                    "snapshots")
            merged["bucket_counts"] = [
                a + b for a, b in zip(merged["bucket_counts"],
                                      hist["bucket_counts"])]
            merged["count"] = int(merged["count"]) + int(hist["count"])
    for name, values in hist_sums.items():
        histograms[name]["sum"] = math.fsum(values)
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


def registry_prometheus_lines(
        snapshot: Mapping[str, object]) -> List[str]:
    """Prometheus text exposition of a registry snapshot."""
    lines: List[str] = []
    for name in sorted(snapshot.get("counters", {})):  # type: ignore[union-attr]
        metric = _prom_name(name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {snapshot['counters'][name]}")  # type: ignore[index]
    for name in sorted(snapshot.get("gauges", {})):  # type: ignore[union-attr]
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prom_float(snapshot['gauges'][name])}")  # type: ignore[index]
    for name in sorted(snapshot.get("histograms", {})):  # type: ignore[union-attr]
        hist = snapshot["histograms"][name]  # type: ignore[index]
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(hist["buckets"], hist["bucket_counts"]):
            cumulative += int(count)
            lines.append(
                f'{metric}_bucket{{le="{_prom_float(bound)}"}} {cumulative}')
        cumulative += int(hist["bucket_counts"][-1])
        lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
        lines.append(f"{metric}_sum {_prom_float(hist['sum'])}")
        lines.append(f"{metric}_count {hist['count']}")
    return lines


# ---------------------------------------------------------------------------
# SLOs and burn-rate alerting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BurnPolicy:
    """One multi-window burn-rate alerting rule.

    Fires when the error-budget burn rate over BOTH the fast and the
    slow sliding window (measured in sessions) reaches
    ``burn_threshold``.  The classic pairing: a tight window with a
    high threshold pages on fast burn; a wide window with a low
    threshold tickets on slow, sustained burn.
    """

    severity: str
    fast_window: int
    slow_window: int
    burn_threshold: float


DEFAULT_POLICIES: Tuple[BurnPolicy, ...] = (
    BurnPolicy(severity="page", fast_window=5, slow_window=15,
               burn_threshold=8.0),
    BurnPolicy(severity="ticket", fast_window=15, slow_window=30,
               burn_threshold=2.0),
)


@dataclass(frozen=True)
class SloSpec:
    """A declarative objective over fleet telemetry.

    ``kind == "quantile"``: the good fraction is the share of ``sketch``
    observations at or below ``threshold_ms`` (so ``objective=0.95``
    states "p95 <= threshold").  ``kind == "ratio"``: the good fraction
    is ``1 - bad/total`` where ``bad`` is one counter and ``total`` the
    sum of ``total_counters``.
    """

    name: str
    objective: float
    kind: str
    sketch: str = ""
    threshold_ms: float = 0.0
    bad_counter: str = ""
    total_counters: Tuple[str, ...] = ()
    policies: Tuple[BurnPolicy, ...] = DEFAULT_POLICIES

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError("objective must be in (0, 1)")
        if self.kind not in ("quantile", "ratio"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")

    def tally(self, telemetry: SessionTelemetry) -> Tuple[int, int]:
        """(bad, total) events this session contributes."""
        if self.kind == "quantile":
            sketch = telemetry.sketches.get(self.sketch)
            if sketch is None or sketch.count == 0:
                return 0, 0
            return sketch.count - sketch.count_le(self.threshold_ms), \
                sketch.count
        total = sum(telemetry.counters.get(name, 0)
                    for name in self.total_counters)
        bad = telemetry.counters.get(self.bad_counter, 0)
        return bad, total


def default_slos(ct_ms: float = 200.0,
                 profile: Optional[DeviceProfile] = None,
                 ) -> Tuple[SloSpec, ...]:
    """The stock objectives of a DARPA fleet at cut-off ``ct_ms``.

    The reaction budget is the paper's deployability argument in SLO
    form: a settled screen must be analyzed within the debounce cut-off
    plus the screenshot + inference cost model (with a small slack for
    cache probes / decoration drawing).
    """
    profile = profile or DeviceProfile()
    reaction_budget_ms = (ct_ms + profile.screenshot_cpu_ms
                          + profile.inference_cpu_ms + REACTION_SLACK_MS)
    return (
        SloSpec(name="reaction_p95", objective=0.95, kind="quantile",
                sketch=REACTION_SKETCH, threshold_ms=reaction_budget_ms),
        SloSpec(name="decoration_success", objective=0.999, kind="ratio",
                bad_counter="overlay_rejections",
                total_counters=("decorations_drawn", "overlay_rejections")),
        SloSpec(name="fallback_share", objective=0.99, kind="ratio",
                bad_counter="fallback_detections",
                total_counters=("screens_analyzed",)),
        SloSpec(name="capture_success", objective=0.95, kind="ratio",
                bad_counter="screenshot_failures",
                total_counters=("screens_analyzed", "screenshot_failures")),
        SloSpec(name="watchdog_aborts", objective=0.99, kind="ratio",
                bad_counter="deadline_skips",
                total_counters=("screens_analyzed", "deadline_skips")),
        # Breaker flap health: failed half-open probes mean the detector
        # keeps getting quarantined and re-quarantined.  Normalized per
        # analyzed screen, so the burn-rate windows read "what share of
        # recent traffic ran during a failed recovery attempt".
        SloSpec(name="breaker_recovery", objective=0.99, kind="ratio",
                bad_counter="probe_failures",
                total_counters=("screens_analyzed",)),
    )


@dataclass(frozen=True)
class Alert:
    """One deterministic burn-rate alert record."""

    slo: str
    severity: str
    session_index: int
    sim_time_ms: float
    fast_burn: float
    slow_burn: float
    fast_window: int
    slow_window: int

    def to_dict(self) -> Dict[str, object]:
        return {
            "slo": self.slo,
            "severity": self.severity,
            "session_index": self.session_index,
            "sim_time_ms": self.sim_time_ms,
            "fast_burn": self.fast_burn,
            "slow_burn": self.slow_burn,
            "fast_window": self.fast_window,
            "slow_window": self.slow_window,
        }


@dataclass
class SloResult:
    """Evaluation of one SLO over a whole fleet."""

    spec: SloSpec
    bad: int
    total: int
    alerts: List[Alert]

    @property
    def compliance(self) -> float:
        return 1.0 if self.total == 0 else 1.0 - self.bad / self.total

    @property
    def burn_rate(self) -> float:
        budget = 1.0 - self.spec.objective
        if self.total == 0:
            return 0.0
        return (self.bad / self.total) / budget

    @property
    def met(self) -> bool:
        return self.compliance >= self.spec.objective

    def to_dict(self) -> Dict[str, object]:
        return {
            "slo": self.spec.name,
            "objective": self.spec.objective,
            "bad": self.bad,
            "total": self.total,
            "compliance": self.compliance,
            "burn_rate": self.burn_rate,
            "met": self.met,
            "alerts": [a.to_dict() for a in self.alerts],
        }


@dataclass
class SloReport:
    """All SLO results for one fleet run."""

    results: List[SloResult]

    @property
    def alerts(self) -> List[Alert]:
        out = [a for r in self.results for a in r.alerts]
        out.sort(key=lambda a: (a.session_index, a.slo, a.severity))
        return out

    @property
    def all_met(self) -> bool:
        return all(r.met for r in self.results)

    def to_dict(self) -> Dict[str, object]:
        return {"slos": [r.to_dict() for r in self.results],
                "alerts": [a.to_dict() for a in self.alerts],
                "all_met": self.all_met}


class SloEngine:
    """Evaluates SLO specs over a fleet's per-session telemetry series.

    The series is consumed in global session order; every window
    arithmetic is integer counting over that order, so the report (and
    each alert record) is identical for sequential and sharded runs of
    the same seed.  An alert fires on the False->True transition of its
    policy's condition and re-arms once the condition clears.
    """

    def __init__(self, slos: Sequence[SloSpec] = ()):
        self.slos: Tuple[SloSpec, ...] = tuple(slos) or default_slos()

    @staticmethod
    def _window_burn(bad_prefix: List[int], total_prefix: List[int],
                     index: int, window: int, budget: float) -> float:
        lo = max(0, index + 1 - window)
        bad = bad_prefix[index + 1] - bad_prefix[lo]
        total = total_prefix[index + 1] - total_prefix[lo]
        if total == 0:
            return 0.0
        return (bad / total) / budget

    def evaluate(self, series: Sequence[SessionTelemetry],
                 session_ms: float = 60_000.0) -> SloReport:
        results: List[SloResult] = []
        for spec in self.slos:
            tallies = [spec.tally(t) for t in series]
            bad_prefix, total_prefix = [0], [0]
            for bad, total in tallies:
                bad_prefix.append(bad_prefix[-1] + bad)
                total_prefix.append(total_prefix[-1] + total)
            budget = 1.0 - spec.objective
            alerts: List[Alert] = []
            for policy in spec.policies:
                firing = False
                for i in range(len(series)):
                    fast = self._window_burn(bad_prefix, total_prefix, i,
                                             policy.fast_window, budget)
                    slow = self._window_burn(bad_prefix, total_prefix, i,
                                             policy.slow_window, budget)
                    condition = (fast >= policy.burn_threshold
                                 and slow >= policy.burn_threshold)
                    if condition and not firing:
                        alerts.append(Alert(
                            slo=spec.name, severity=policy.severity,
                            session_index=series[i].session,
                            sim_time_ms=(i + 1) * session_ms,
                            fast_burn=fast, slow_burn=slow,
                            fast_window=policy.fast_window,
                            slow_window=policy.slow_window))
                    firing = condition
            alerts.sort(key=lambda a: (a.session_index, a.severity))
            results.append(SloResult(spec=spec, bad=bad_prefix[-1],
                                     total=total_prefix[-1], alerts=alerts))
        return SloReport(results=results)
