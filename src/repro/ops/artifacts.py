"""Run-directory artifact loader for the ops dashboard.

A fleet run leaves a directory of deterministic artifacts behind:

- ``telemetry.json`` — the merged :class:`FleetTelemetry` snapshot, or
  (mid-run / pre-merge) per-shard ``shard-*.telemetry.json`` parts;
- ``trace.jsonl`` / ``shard-*.trace.jsonl`` — span JSONL, one line per
  span, each line carrying its global ``session`` index;
- ``metrics.jsonl`` / ``shard-*.metrics.jsonl`` — one
  :class:`MetricsRegistry` snapshot line per session;
- ``daemon.json`` / ``drain.json`` — the serving daemon's scheduling
  records and drain manifest (absent for plain fleet runs);
- ``slo.json`` — an optional pre-computed SLO report (``repro slo
  --json``); when absent the report is derived here from the per-session
  telemetry series with the stock objectives;
- ``profile.json`` / ``shard-*.profile.json`` — the merged stack
  profile or its shard parts (folded here; the merge algebra is
  order-free).  When neither is present the profile is folded from the
  loaded spans on the spot, so bare trace dumps still get a flame view;
- ``baseline.profile.json`` — an optional reference profile the
  ``/api/flame/diff`` route attributes the run against.

:func:`load_run` folds all of that into one frozen :class:`RunModel`.
Every fold is order-canonical — part files are sorted by name before
reading and the sketch algebra is exactly associative — so the model
(and therefore every route response built from it) is byte-identical
no matter how the directory listing enumerated the shard parts.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.android.device import DeviceProfile
from repro.core.observability import SpanForest, read_jsonl, read_span_jsonl
from repro.core.telemetry import (
    FleetTelemetry,
    REACTION_SLACK_MS,
    SessionTelemetry,
    SloEngine,
    counters_from_snapshot,
    default_slos,
    sketches_from_spans,
)
from repro.profiling import Profile, dropped_from_metrics, profile_from_spans

#: Schema version stamped on every route payload.
OPS_VERSION = 1


class RunDirectoryError(ValueError):
    """The run directory is missing, unreadable, or has no artifacts."""


@dataclass(frozen=True)
class SpanView:
    """One span of the trace waterfall (immutable projection).

    ``depth`` is the nesting level under the session root and
    ``cpu_ms`` the cost-model CPU attributed to this span alone (not
    its subtree) — both precomputed so the route layer stays a pure
    re-projection.
    """

    session: int
    span_id: int
    parent_id: Optional[int]
    trace_id: str
    name: str
    start_ms: float
    end_ms: float
    depth: int
    cpu_ms: float
    attributes: Mapping[str, object]


@dataclass(frozen=True)
class SessionTrace:
    """One session's spans, ordered for waterfall rendering."""

    session: int
    trace_id: str
    start_ms: float
    end_ms: float
    spans: Tuple[SpanView, ...]


@dataclass(frozen=True)
class RunModel:
    """Everything the route layer needs, loaded once, immutable.

    ``fleet`` is a :class:`FleetTelemetry`; it is mutable by type but
    treated as frozen here — routes only read it.
    """

    ct_ms: float
    reaction_budget_ms: float
    fleet: FleetTelemetry
    sessions: Tuple[int, ...]
    traces: Mapping[int, SessionTrace]
    slo: Mapping[str, object]
    daemon: Optional[Mapping[str, object]]
    drain: Optional[Mapping[str, object]]
    profile: Profile
    baseline_profile: Optional[Profile]

    def span_ids(self, session: int) -> frozenset:
        trace = self.traces.get(session)
        if trace is None:
            return frozenset()
        return frozenset(span.span_id for span in trace.spans)


# ---------------------------------------------------------------------------
# Artifact readers
# ---------------------------------------------------------------------------

def _classify(names: Sequence[str]) -> Dict[str, List[str]]:
    """Sort artifact file names into kinds (order-canonical)."""
    plan: Dict[str, List[str]] = {
        "telemetry": [], "trace": [], "metrics": [], "profile": [],
        "single": []}
    for name in sorted(names):
        if name == "telemetry.json" or (name.startswith("shard-")
                                        and name.endswith(".telemetry.json")):
            plan["telemetry"].append(name)
        elif name == "trace.jsonl" or (name.startswith("shard-")
                                       and name.endswith(".trace.jsonl")):
            plan["trace"].append(name)
        elif name == "metrics.jsonl" or (name.startswith("shard-")
                                         and name.endswith(".metrics.jsonl")):
            plan["metrics"].append(name)
        elif name == "profile.json" or (name.startswith("shard-")
                                        and name.endswith(".profile.json")):
            plan["profile"].append(name)
        elif name in ("daemon.json", "drain.json", "slo.json",
                      "baseline.profile.json"):
            plan["single"].append(name)
    return plan


def injectable_listing(run_dir: str,
                       names: Optional[Sequence[str]] = None) -> List[str]:
    """The sanctioned directory enumeration: sorted, injectable.

    Returns ``sorted(names)`` when a listing is injected (goldens
    shuffle it to prove listing-order invariance) and a sorted
    ``os.listdir`` otherwise — callers never see on-disk order, which
    is why darpaflow treats this helper as a listing sanitizer and
    DL008 exempts its body.  Raises :class:`RunDirectoryError` when
    the directory is unreadable.
    """
    try:
        listing = list(names) if names is not None else os.listdir(run_dir)
    except OSError as exc:
        raise RunDirectoryError(f"cannot list run directory: {exc}")
    return sorted(listing)


def _read_json(run_dir: str, name: str) -> Mapping[str, object]:
    with open(os.path.join(run_dir, name)) as fp:
        try:
            return json.load(fp)
        except json.JSONDecodeError as exc:
            raise RunDirectoryError(f"{name}: malformed JSON ({exc})")


def _build_trace(session: int, forest: SpanForest) -> SessionTrace:
    views = []
    for span in forest.spans:
        span_id = int(span["span_id"])  # type: ignore[arg-type]
        views.append(SpanView(
            session=session,
            span_id=span_id,
            parent_id=span["parent_id"],  # int or None: read_span_jsonl
            trace_id=str(span["trace_id"]),
            name=str(span["name"]),
            start_ms=float(span["start_ms"]),  # type: ignore[arg-type]
            end_ms=float(span["end_ms"]),  # type: ignore[arg-type]
            depth=forest.depth[span_id],
            cpu_ms=forest.cpu[span_id],
            attributes=dict(span.get("attributes", {})),  # type: ignore[arg-type]
        ))
    views.sort(key=lambda v: (v.start_ms, v.span_id))
    root = forest.root
    if root is not None:
        trace_id = str(root["trace_id"])
        lo, hi = float(root["start_ms"]), float(root["end_ms"])  # type: ignore[arg-type]
    else:
        # The root did not survive (evicted, or the dump was cut before
        # it closed): bound the trace by the spans that did.
        trace_id = views[0].trace_id
        if any(view.trace_id != trace_id for view in views):
            trace_id = ""
        lo = min(view.start_ms for view in views)
        hi = max(view.end_ms for view in views)
    return SessionTrace(session=session, trace_id=trace_id,
                        start_ms=lo, end_ms=hi, spans=tuple(views))


def load_run(
    run_dir: str,
    ct_ms: float = 200.0,
    profile: Optional[DeviceProfile] = None,
    names: Optional[Sequence[str]] = None,
) -> RunModel:
    """Load a run directory into a :class:`RunModel`.

    ``names`` overrides the directory listing (the goldens shuffle it to
    prove the model is listing-order invariant); the loader sorts it
    before reading either way.  Raises :class:`RunDirectoryError` when
    the directory is unreadable or holds no recognizable artifacts.
    """
    profile = profile or DeviceProfile()
    plan = _classify(injectable_listing(run_dir, names))
    if not any(plan.values()):
        raise RunDirectoryError(
            f"no run artifacts (telemetry/trace/daemon) in {run_dir}")

    # Fleet telemetry: merged snapshot and/or shard parts.  In a real
    # directory the two are mutually exclusive (the merge deletes the
    # parts); folding whatever is present keeps mid-run directories
    # loadable, and the sketch algebra makes the fold order-free.
    fleet = FleetTelemetry()
    for name in plan["telemetry"]:
        fleet.merge(FleetTelemetry.from_snapshot(_read_json(run_dir, name)))

    # Spans, grouped by global session index.  Line order within a
    # session (span finish order) is preserved — the telemetry
    # derivation depends on it — and part files are read in sorted-name
    # order, which IS global session order for shard parts.
    spans_by_session: Dict[int, List[Dict[str, object]]] = {}
    for name in plan["trace"]:
        path = os.path.join(run_dir, name)
        for session, spans in read_span_jsonl(path,
                                              RunDirectoryError).items():
            spans_by_session.setdefault(session, []).extend(spans)

    metrics_by_session: Dict[int, Mapping[str, object]] = {}
    for name in plan["metrics"]:
        path = os.path.join(run_dir, name)
        for _, record in read_jsonl(path, RunDirectoryError):
            session = int(record.get("session", 0))  # type: ignore[arg-type]
            metrics_by_session[session] = record.get("metrics", {})  # type: ignore[assignment]

    # One span tree per session, shared by the waterfall, the profile
    # fold and the sketches, so all three agree on a truncated dump.
    sessions = tuple(sorted(spans_by_session))
    forests = {session: SpanForest(spans_by_session[session], profile)
               for session in sessions}
    traces = {session: _build_trace(session, forests[session])
              for session in sessions}

    singles = {name: _read_json(run_dir, name) for name in plan["single"]}

    # Stack profile: merged file and/or shard parts, folded order-free
    # (the profile algebra is all-integer, like the sketches).  A
    # directory with no profile artifacts derives one from its spans so
    # bare trace dumps still serve /api/flame.
    run_profile = Profile()
    for name in plan["profile"]:
        payload = _read_json(run_dir, name)
        try:
            run_profile.merge(Profile.from_dict(payload))
        except (ValueError, TypeError) as exc:
            raise RunDirectoryError(f"{name}: malformed profile ({exc})")
    if not plan["profile"]:
        for session in sessions:
            metrics = metrics_by_session.get(session, {})
            run_profile.merge(profile_from_spans(
                forests[session], dropped_spans=dropped_from_metrics(metrics)))

    baseline_profile: Optional[Profile] = None
    baseline_payload = singles.get("baseline.profile.json")
    if baseline_payload is not None:
        try:
            baseline_profile = Profile.from_dict(baseline_payload)
        except (ValueError, TypeError) as exc:
            raise RunDirectoryError(
                f"baseline.profile.json: malformed profile ({exc})")

    # Per-session telemetry, derived once: the SLO series when no
    # slo.json was shipped, and the fleet snapshot when no telemetry was
    # (a daemon-only directory, or a bare trace).
    series = [
        SessionTelemetry(
            session=session,
            sketches=sketches_from_spans(forests[session], session=session),
            counters=counters_from_snapshot(
                metrics_by_session.get(session, {})))
        for session in sessions
    ]
    slo = singles.get("slo.json")
    if slo is None:
        engine = SloEngine(default_slos(ct_ms=ct_ms, profile=profile))
        slo = engine.evaluate(series).to_dict()
    if not plan["telemetry"]:
        for telemetry in series:
            fleet.observe_session(telemetry)

    return RunModel(
        ct_ms=float(ct_ms),
        reaction_budget_ms=(float(ct_ms) + profile.screenshot_cpu_ms
                            + profile.inference_cpu_ms + REACTION_SLACK_MS),
        fleet=fleet,
        sessions=sessions,
        traces=traces,
        slo=slo,
        daemon=singles.get("daemon.json"),
        drain=singles.get("drain.json"),
        profile=run_profile,
        baseline_profile=baseline_profile,
    )


__all__ = [
    "OPS_VERSION",
    "RunDirectoryError",
    "SpanView",
    "SessionTrace",
    "RunModel",
    "injectable_listing",
    "load_run",
]
