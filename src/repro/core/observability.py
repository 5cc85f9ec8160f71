"""Observability for the DARPA serving path: tracing, metrics, profiling.

The paper's evaluation is built on *per-stage* timing (Tables VII/VIII
decompose overhead by component; Figure 8 trades debounce settle time
against coverage), but the pipeline historically exposed only coarse
end-of-run counters.  This module adds the missing middle layer — all
of it on the simulated clock, with zero new dependencies and zero
effect on any measured number:

- :class:`Tracer` emits nested :class:`Span`\\ s
  (``session → event → debounce → screenshot → cache_probe →
  inference|fallback → decorate``) carrying attributes such as the
  screen fingerprint, cache hit/miss, retry attempt and breaker state.
  Finished spans land in a bounded in-memory ring buffer and export as
  deterministic JSONL;
- :class:`MetricsRegistry` provides named counters, gauges and
  fixed-bucket latency histograms.  The pipeline's ``DarpaStats`` is a
  thin compatibility view over one of these registries;
- :class:`PlanProfiler` hooks :class:`repro.vision.nn.infer.InferencePlan`
  execution, attributing per-step cost-model charges (MAC-weighted
  shares of the inference CPU budget) to the enclosing span;
- :func:`report_from_spans` rebuilds a :class:`~repro.android.device.PerfReport`
  purely from exported spans.  Because every cost-model charge is
  attributed to exactly one span, the rebuilt report is **bit-identical**
  to the device meter's — which the benchmarks and the differential
  tests assert.

Determinism rules: span ids are sequential per tracer, timestamps come
from the :class:`~repro.android.clock.SimulatedClock`, no RNG is ever
consulted, and JSONL lines are serialized with sorted keys — two runs
of the same seeded session produce byte-identical trace files.
Tracing off (the default) is bit-inert: the ``NULL_TRACER`` singleton
records nothing and the pipeline takes no extra RNG draws or perf
charges either way.
"""

from __future__ import annotations

import json
import math
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Deque,
    Dict,
    IO,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from repro.android.clock import SimulatedClock
from repro.android.device import DeviceProfile, PerfMeter, PerfOp, PerfReport

# ---------------------------------------------------------------------------
# Metric naming scheme (see DESIGN.md "Observability"):
#
#   darpa.pipeline.<counter>       — the DarpaStats compatibility counters
#   darpa.stage.<stage>.count      — completed spans per stage
#   darpa.stage.<stage>.cpu_ms     — histogram of per-span attributed cost
#   darpa.breaker.state            — gauge: 0 closed / 1 half-open / 2 open
#   darpa.cache.entries            — gauge: live fingerprint-cache entries
# ---------------------------------------------------------------------------

#: Fixed upper bounds (ms) of the per-stage latency histograms.  Chosen
#: around the cost model's scale: probes ~2ms, screenshots ~30ms,
#: inferences ~100ms, retried analyses a few hundred.
STAGE_BUCKETS_MS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0)

#: Counter bumped whenever the tracer ring buffer evicts a finished
#: span.  Silent drops would corrupt span-derived totals, so the drop
#: count itself must be observable (and is surfaced by ``repro trace``).
DROPPED_SPANS_COUNTER = "darpa.trace.dropped_spans"

#: Step label :meth:`PlanProfiler.attribute` folds zero-MAC steps (and
#: the floating-point residual of the weighted shares) into, so the
#: per-step costs sum to the attributed total exactly.
OVERHEAD_STEP = "overhead"


def op_cpu_ms(profile: DeviceProfile) -> Dict[str, float]:
    """CPU-ms charged per unit of each billable operation."""
    return {
        PerfOp.EVENT_DELIVERED.value: profile.event_cpu_ms,
        PerfOp.SCREENSHOT.value: profile.screenshot_cpu_ms,
        PerfOp.INFERENCE.value: profile.inference_cpu_ms,
        PerfOp.FALLBACK_INFERENCE.value: profile.fallback_cpu_ms,
        PerfOp.CACHE_PROBE.value: profile.cache_probe_cpu_ms,
        PerfOp.DECORATION.value: profile.decoration_cpu_ms,
        PerfOp.APP_FRAME.value: 0.0,
    }


def ops_cpu_ms(ops: Mapping[str, object],
               costs: Mapping[str, float]) -> float:
    """Cost-model CPU of one span's own ``ops``, priced by ``costs``."""
    return sum(int(n) * costs[op] for op, n in ops.items())  # type: ignore[call-overload]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

class Counter:
    """A monotonic-by-convention named counter.

    ``value`` is settable so the ``DarpaStats`` compatibility view can
    expose counters as plain read/write attributes (``stats.retries += 1``
    keeps working); new code should prefer :meth:`inc`.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """A last-write-wins instantaneous value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def reset(self) -> None:
        self.value = 0.0


class Histogram:
    """A fixed-bucket histogram (cumulative counts are derivable).

    ``bucket_counts[i]`` counts observations ``<= buckets[i]``;
    the final slot counts overflow.  ``sum``/``count`` track totals so
    mean latency needs no bucket arithmetic — and so the property tests
    can assert ``count`` equals the matching stage counter and ``sum``
    equals the span-attributed cost, exactly.
    """

    __slots__ = ("name", "buckets", "bucket_counts", "count", "sum")

    def __init__(self, name: str, buckets: Sequence[float] = STAGE_BUCKETS_MS):
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError("histogram buckets must be ascending and non-empty")
        self.name = name
        self.buckets = tuple(float(b) for b in buckets)
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        v = float(value)
        self.count += 1
        self.sum += v
        for i, bound in enumerate(self.buckets):
            if v <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def reset(self) -> None:
        self.bucket_counts = [0] * (len(self.buckets) + 1)
        self.count = 0
        self.sum = 0.0


class MetricsRegistry:
    """A named home for counters, gauges and histograms.

    Instruments are created on first touch and live for the registry's
    lifetime; iteration order is creation order, so snapshots of two
    identical runs are byte-identical when serialized with sorted keys.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str,
                  buckets: Sequence[float] = STAGE_BUCKETS_MS) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(name, buckets)
        elif tuple(float(b) for b in buckets) != inst.buckets:
            raise ValueError(
                f"histogram {name!r} already registered with different buckets")
        return inst

    @property
    def counters(self) -> Dict[str, Counter]:
        return dict(self._counters)

    @property
    def gauges(self) -> Dict[str, Gauge]:
        return dict(self._gauges)

    @property
    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict, JSON-ready dump of every instrument."""
        return {
            "counters": {n: c.value for n, c in self._counters.items()},
            "gauges": {n: g.value for n, g in self._gauges.items()},
            "histograms": {
                n: {"buckets": list(h.buckets),
                    "bucket_counts": list(h.bucket_counts),
                    "count": h.count, "sum": h.sum}
                for n, h in self._histograms.items()
            },
        }

    def reset(self) -> None:
        for c in self._counters.values():
            c.reset()
        for g in self._gauges.values():
            g.reset()
        for h in self._histograms.values():
            h.reset()


# ---------------------------------------------------------------------------
# Spans + Tracer
# ---------------------------------------------------------------------------

@dataclass
class Span:
    """One named, timed region of a traced run.

    ``ops`` holds the cost-model charges attributed while this span was
    the innermost open one (children do NOT roll up into parents, so
    summing ``ops`` across all spans of a trace reproduces the device
    meter's totals exactly once).
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    trace_id: str
    start_ms: float
    end_ms: Optional[float] = None
    attributes: Dict[str, object] = field(default_factory=dict)
    ops: Dict[str, int] = field(default_factory=dict)

    @property
    def closed(self) -> bool:
        return self.end_ms is not None

    @property
    def duration_ms(self) -> float:
        if self.end_ms is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end_ms - self.start_ms

    def charge(self, op: PerfOp, n: int) -> None:
        key = op.value
        self.ops[key] = self.ops.get(key, 0) + n

    def cpu_ms(self, profile: DeviceProfile) -> float:
        """Cost-model CPU attributed directly to this span (not children)."""
        return ops_cpu_ms(self.ops, op_cpu_ms(profile))

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "attributes": dict(self.attributes),
            "ops": dict(self.ops),
        }


class NullTracer:
    """The do-nothing tracer: every hook is inert, every export empty.

    The pipeline calls the tracer unconditionally; when tracing is off
    this singleton absorbs the calls without allocating spans, touching
    the registry, or observing the perf meter — which is what keeps the
    disabled mode bit-inert (and nearly free).
    """

    enabled = False
    registry: Optional[MetricsRegistry] = None

    _NULL_SPAN = Span(name="null", span_id=0, parent_id=None,
                      trace_id="null", start_ms=0.0, end_ms=0.0)

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Span]:
        yield self._NULL_SPAN

    def start_span(self, name: str, **attributes: object) -> Span:
        return self._NULL_SPAN

    def end_span(self, span: Span, **attributes: object) -> None:
        pass

    def emit(self, name: str, start_ms: float, end_ms: float,
             **attributes: object) -> Optional[Span]:
        return None

    def set_attribute(self, key: str, value: object) -> None:
        pass

    def annotate(self, span: Span, **attributes: object) -> None:
        pass

    def attach_registry(self, registry: MetricsRegistry) -> None:
        pass

    def observe_perf(self, meter: PerfMeter) -> None:
        pass

    def export(self) -> List[Dict[str, object]]:
        return []


#: Shared inert tracer — safe because it holds no state.
NULL_TRACER = NullTracer()


class Tracer:
    """Emits nested spans on the simulated clock.

    Finished spans are kept in a ring buffer of ``capacity`` (old spans
    fall off first; counters and histograms keep counting regardless)
    and can be exported as dicts or JSONL.  When a
    :class:`MetricsRegistry` is attached, closing a span bumps
    ``darpa.stage.<name>.count`` and observes the span's attributed
    cost in ``darpa.stage.<name>.cpu_ms``.

    Attach to a device's :class:`~repro.android.device.PerfMeter` with
    :meth:`observe_perf`: every subsequent cost-model charge is
    attributed to the innermost open span (charges with no open span
    accumulate in :attr:`orphan_ops`, which a healthy wiring keeps
    empty), and component residency/reset events are mirrored so
    :func:`report_from_spans` can rebuild the meter's report exactly.
    """

    enabled = True

    def __init__(self, clock: SimulatedClock, trace_id: str = "trace",
                 registry: Optional[MetricsRegistry] = None,
                 capacity: int = 65536):
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.clock = clock
        self.trace_id = trace_id
        self.registry = registry
        if registry is not None:
            registry.counter(DROPPED_SPANS_COUNTER)
        self.capacity = capacity
        self.finished: Deque[Span] = deque(maxlen=capacity)
        #: Finished spans the ring buffer evicted (observability of the
        #: observer: silent truncation would corrupt span-derived totals).
        self.dropped = 0
        self.orphan_ops: Dict[str, int] = {}
        self.components: List[str] = []
        self._stack: List[Span] = []
        self._seq = 0
        self._profile: Optional[DeviceProfile] = None

    # -- span lifecycle -------------------------------------------------

    @property
    def current(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    @property
    def open_spans(self) -> List[Span]:
        return list(self._stack)

    def start_span(self, name: str, **attributes: object) -> Span:
        self._seq += 1
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name=name,
            span_id=self._seq,
            parent_id=parent.span_id if parent is not None else None,
            trace_id=self.trace_id,
            start_ms=self.clock.now_ms,
            attributes=dict(attributes),
        )
        self._stack.append(span)
        return span

    def end_span(self, span: Span, **attributes: object) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise ValueError(
                f"span {span.name!r} is not the innermost open span")
        self._stack.pop()
        span.attributes.update(attributes)
        span.end_ms = self.clock.now_ms
        self._finish(span)

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Span]:
        span = self.start_span(name, **attributes)
        try:
            yield span
        finally:
            self.end_span(span)

    def emit(self, name: str, start_ms: float, end_ms: float,
             **attributes: object) -> Span:
        """Record an already-elapsed region as a closed span.

        Used for stages whose start is only known in hindsight — e.g.
        the debounce settle window, which begins at the last UI event
        and ends ``ct`` ms later when the quiescence timer fires.
        """
        if end_ms < start_ms:
            raise ValueError("span cannot end before it starts")
        self._seq += 1
        parent = self._stack[-1] if self._stack else None
        span = Span(
            name=name,
            span_id=self._seq,
            parent_id=parent.span_id if parent is not None else None,
            trace_id=self.trace_id,
            start_ms=start_ms,
            end_ms=end_ms,
            attributes=dict(attributes),
        )
        self._finish(span)
        return span

    def set_attribute(self, key: str, value: object) -> None:
        """Attach ``key=value`` to the innermost open span."""
        if self._stack:
            self._stack[-1].attributes[key] = value

    def annotate(self, span: Span, **attributes: object) -> None:
        """Attach attributes to a specific span (open or closed).

        Call sites use this instead of mutating the span directly so
        the same code is inert under :data:`NULL_TRACER` (whose spans
        are a shared singleton that must never accumulate state).
        """
        span.attributes.update(attributes)

    def attach_registry(self, registry: MetricsRegistry) -> None:
        """Adopt ``registry`` and pre-create the drop counter, so a
        healthy (drop-free) trace still exports the counter at zero."""
        self.registry = registry
        registry.counter(DROPPED_SPANS_COUNTER)

    def _finish(self, span: Span) -> None:
        if len(self.finished) == self.capacity:
            self.dropped += 1
            if self.registry is not None:
                self.registry.counter(DROPPED_SPANS_COUNTER).inc()
        self.finished.append(span)
        if self.registry is not None:
            self.registry.counter(f"darpa.stage.{span.name}.count").inc()
            cpu = (span.cpu_ms(self._profile)
                   if self._profile is not None else 0.0)
            self.registry.histogram(
                f"darpa.stage.{span.name}.cpu_ms").observe(cpu)

    # -- perf attribution -----------------------------------------------

    def observe_perf(self, meter: PerfMeter) -> None:
        """Mirror every cost-model charge of ``meter`` into spans."""
        self._profile = meter.profile
        meter.set_observers(
            on_record=self._on_perf_record,
            on_component=self._on_perf_component,
            on_reset=self._on_perf_reset,
        )

    def _on_perf_record(self, op: PerfOp, n: int) -> None:
        if self._stack:
            self._stack[-1].charge(op, n)
        else:
            self.orphan_ops[op.value] = self.orphan_ops.get(op.value, 0) + n

    def _on_perf_component(self, name: str) -> None:
        if name not in self.components:
            self.components.append(name)

    def _on_perf_reset(self) -> None:
        # The meter forgot everything; drop our attributions with it so
        # span-derived totals keep matching the meter bit-for-bit.
        for span in self.finished:
            span.ops.clear()
        for span in self._stack:
            span.ops.clear()
        self.orphan_ops.clear()
        self.components.clear()

    # -- export ----------------------------------------------------------

    def export(self) -> List[Dict[str, object]]:
        """Finished spans, in finish order, as JSON-ready dicts.

        The session root span (if any is still open when callers export
        mid-run) is excluded — export after closing every span.
        """
        return [span.to_dict() for span in self.finished]

    def jsonl_lines(self) -> Iterator[str]:
        for span in self.finished:
            yield json.dumps(span.to_dict(), sort_keys=True)

    def write_jsonl(self, fp: IO[str]) -> int:
        """Append one line per finished span; returns the line count."""
        n = 0
        for line in self.jsonl_lines():
            fp.write(line + "\n")
            n += 1
        return n


# ---------------------------------------------------------------------------
# Plan profiling
# ---------------------------------------------------------------------------

class PlanProfiler:
    """Per-step profile of one :class:`InferencePlan` forward.

    The plan calls :meth:`start_forward` once per ``forward`` and
    :meth:`record_step` per executed step with the step's estimated
    multiply-accumulate count.  :meth:`attribute` then splits a total
    cost-model charge (the flat ``inference_cpu_ms``) across the steps
    proportionally to their MACs, giving the enclosing span a per-op
    cost breakdown without the cost model itself changing.
    """

    def __init__(self) -> None:
        self.steps: List[Tuple[str, int]] = []
        self.forwards = 0

    def start_forward(self, batch: int) -> None:
        self.forwards += 1
        self.steps = []

    def record_step(self, label: str, macs: int) -> None:
        self.steps.append((label, int(macs)))

    @property
    def total_macs(self) -> int:
        return sum(m for _, m in self.steps)

    def attribute(self, total_cpu_ms: float) -> List[Dict[str, object]]:
        """MAC-weighted shares of ``total_cpu_ms`` per executed step.

        Steps with zero MACs (reshape/concat/copy plumbing) carry no
        weight of their own; they fold into one trailing ``overhead``
        entry that also absorbs the floating-point residual of the
        weighted shares — so the returned costs sum to ``total_cpu_ms``
        **exactly** (``math.fsum`` of the shares plus the residual is
        the total by construction), and no executed step silently
        vanishes from the attribution.
        """
        total = self.total_macs
        out: List[Dict[str, object]] = []
        zero_mac_steps = 0
        for label, macs in self.steps:
            if macs == 0:
                zero_mac_steps += 1
                continue
            out.append({"step": label, "macs": macs,
                        "cpu_ms": total_cpu_ms * (macs / total)})
        residual = total_cpu_ms - math.fsum(
            float(entry["cpu_ms"]) for entry in out)  # type: ignore[arg-type]
        if zero_mac_steps or residual != 0.0:
            out.append({"step": OVERHEAD_STEP, "macs": 0,
                        "cpu_ms": residual})
        return out


# ---------------------------------------------------------------------------
# Span-dump index
# ---------------------------------------------------------------------------

class SpanForest:
    """The span tree of ONE session's dump, built once.

    The single owner of the span-tree rules every dump consumer shares
    (report rebuild, telemetry sketches, profile fold, ops waterfall).
    Per span id: ``by_id``, ``parent`` (``None`` for roots), ``children``
    (finish order), ``depth``, ``path`` (names from the root down) and
    ``cpu`` (own ops, priced once).  ``spans`` is the dump in finish
    order; ``root`` the unique parentless ``session`` span, or ``None``.
    ``orphans`` are spans whose ``parent_id`` is absent from the dump
    (or, in a corrupt dump, closes a parent cycle): each becomes a root
    at depth 0, so a truncated dump is a defined partial tree.
    """

    def __init__(self, spans: Iterable[Mapping[str, object]],
                 profile: Optional[DeviceProfile] = None):
        costs = op_cpu_ms(profile or DeviceProfile())
        self.spans = list(spans)
        self.by_id = {int(s["span_id"]): s for s in self.spans}  # type: ignore[call-overload]
        self.cpu = {span_id: ops_cpu_ms(s.get("ops", {}), costs)  # type: ignore[arg-type]
                    for span_id, s in self.by_id.items()}
        self.parent: Dict[int, Optional[int]] = {
            span_id: None if s.get("parent_id") is None
            else int(s["parent_id"])  # type: ignore[call-overload]
            for span_id, s in self.by_id.items()}
        self.depth: Dict[int, int] = {}
        self.path: Dict[int, Tuple[str, ...]] = {}
        orphans = set()
        for span_id in self.by_id:
            if span_id in self.depth:
                continue
            chain = [span_id]
            while chain[-1] not in self.depth:
                parent = self.parent[chain[-1]]
                if parent is not None and (parent not in self.by_id
                                           or parent in chain):
                    # Parent evicted (or, corrupt, a cycle): re-root here.
                    orphans.add(chain[-1])
                    self.parent[chain[-1]] = parent = None
                if parent is None:
                    break
                chain.append(parent)
            for node in reversed(chain):
                parent, name = self.parent[node], str(self.by_id[node]["name"])
                if parent is None:
                    self.depth[node], self.path[node] = 0, (name,)
                else:
                    self.depth[node] = self.depth[parent] + 1
                    self.path[node] = self.path[parent] + (name,)
        self.orphans = frozenset(orphans)
        self.children: Dict[int, List[int]] = {}
        for span_id, parent in self.parent.items():
            if parent is not None:
                self.children.setdefault(parent, []).append(span_id)
        roots = [s for s in self.spans
                 if s["name"] == "session" and s.get("parent_id") is None]
        self.root = roots[0] if len(roots) == 1 else None

    @classmethod
    def of(cls, spans: Union["SpanForest", Iterable[Mapping[str, object]]],
           profile: Optional[DeviceProfile] = None) -> "SpanForest":
        """``spans`` itself if already a forest, else a forest over it."""
        return spans if isinstance(spans, SpanForest) else cls(spans, profile)

    def subtree_cpu(self, span_id: int) -> float:
        """CPU of a span and its descendants, added in LIFO walk order —
        the float order the reaction sketch's golden bytes pin."""
        total = self.cpu[span_id]
        stack = [span_id]
        while stack:
            for child in self.children.get(stack.pop(), ()):
                total += self.cpu[child]
                stack.append(child)
        return total


def read_jsonl(path: str, error: Type[Exception] = ValueError
               ) -> List[Tuple[int, Dict[str, object]]]:
    """``(line number, object)`` per complete line of a JSONL file.

    An unterminated final line is a write in flight (or torn by a
    crash) and is dropped, as :class:`repro.ops.tail.JsonlTail` does.
    A malformed complete line raises ``error``; ``OSError`` propagates.
    """
    with open(path, "rb") as fp:
        *lines, _torn = fp.read().split(b"\n")
    records = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:
            raise error(f"{path}:{lineno}: malformed JSONL ({exc})")
        if not isinstance(record, dict):
            raise error(f"{path}:{lineno}: expected an object per line")
        records.append((lineno, record))
    return records


def read_span_jsonl(path: str, error: Type[Exception] = ValueError
                    ) -> Dict[int, List[Dict[str, object]]]:
    """A span JSONL dump as ``{session: [span, ...]}`` in line (finish)
    order, each line's ``session`` key popped.  A record that is not a
    span — no ``name``, or no integer ``span_id`` and integer-or-null
    ``parent_id`` — raises ``error``."""
    by_session: Dict[int, List[Dict[str, object]]] = {}
    for lineno, record in read_jsonl(path, error):
        session = record.pop("session", 0)
        parent = record.get("parent_id", "")  # absent: not a span
        if not (isinstance(session, int) and "name" in record
                and isinstance(record.get("span_id"), int)
                and (parent is None or isinstance(parent, int))):
            raise error(f"{path}:{lineno}: not a span record")
        by_session.setdefault(session, []).append(record)
    return by_session


# ---------------------------------------------------------------------------
# Span-derived reporting
# ---------------------------------------------------------------------------

def ops_from_spans(spans: Iterable[Dict[str, object]]) -> Dict[str, int]:
    """Total cost-model charges across a span dump (each charge counted
    exactly once, because ops never roll up into parents)."""
    totals: Dict[str, int] = {}
    for span in spans:
        for op, n in span.get("ops", {}).items():  # type: ignore[union-attr]
            totals[op] = totals.get(op, 0) + int(n)
    return totals


def stage_cpu_ms(spans: Iterable[Dict[str, object]],
                 profile: Optional[DeviceProfile] = None) -> Dict[str, float]:
    """Per-stage attributed cost-model CPU, keyed by span name.

    On a **truncated** dump (ring-buffer evictions mid-session) this is
    a partial total: evicted spans take their attributed ops with them,
    so each stage's CPU covers only the surviving spans — it never
    over-counts, and the tracer's ``dropped`` counter says how many
    spans are missing.  ``tests/core`` pins this behavior.
    """
    forest = SpanForest(spans, profile)
    out: Dict[str, float] = {}
    for span in forest.spans:
        name = str(span["name"])
        out[name] = out.get(name, 0.0) + forest.cpu[int(span["span_id"])]  # type: ignore[call-overload]
    return out


def session_root(spans: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """The (unique) parentless ``session`` span of a session dump."""
    root = SpanForest(spans).root
    if root is None:
        raise ValueError("expected exactly one session root")
    return root  # type: ignore[return-value]


def report_from_spans(
    spans: Sequence[Dict[str, object]],
    duration_ms: Optional[float] = None,
    profile: Optional[DeviceProfile] = None,
) -> PerfReport:
    """Rebuild a :class:`PerfReport` purely from an exported span dump.

    Replays the span-attributed op totals and the root span's component
    residency through a fresh :class:`PerfMeter`, so the arithmetic is
    the meter's own — when the attribution is complete (no dropped
    spans, no orphan charges) the result is bit-identical to the report
    the device produced during the run.  ``duration_ms`` defaults to
    the session root span's duration.

    On a **truncated** dump the rebuild is a defined partial report,
    not an error: evicted spans' ops are simply absent, so every cost
    figure is ``<=`` the device meter's (never above).  The session
    root span always survives a mid-session truncation — it closes
    last, and the ring evicts oldest-first — so the duration (and the
    baseline share of the report) stays exact; only op-derived overhead
    undercounts.  A dump truncated so hard the root itself was evicted
    raises ``ValueError`` from :func:`session_root`.  ``tests/core``
    pins this contract.
    """
    root = session_root(spans)
    if duration_ms is None:
        if root["end_ms"] is None:
            raise ValueError("session root span was never closed")
        duration_ms = float(root["end_ms"]) - float(root["start_ms"])  # type: ignore[arg-type]
    meter = PerfMeter(profile or DeviceProfile())
    for name in root.get("attributes", {}).get("components", ()):  # type: ignore[union-attr]
        meter.enable_component(str(name))
    for op, n in ops_from_spans(spans).items():
        meter.record(PerfOp(op), n)
    return meter.report(duration_ms)
