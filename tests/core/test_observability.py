"""Unit tests for repro.core.observability: metrics, tracer, profiler,
span-derived reporting, and the DarpaStats compatibility view."""

import io
import json
import math

import pytest

from repro.android.clock import SimulatedClock
from repro.android.device import Device, DeviceProfile, PerfMeter, PerfOp
from repro.core import DarpaConfig, DarpaService, ScreenshotPolicy
from repro.core.observability import (
    NULL_TRACER,
    OVERHEAD_STEP,
    Histogram,
    MetricsRegistry,
    PlanProfiler,
    Span,
    SpanForest,
    Tracer,
    ops_from_spans,
    read_jsonl,
    read_span_jsonl,
    report_from_spans,
    session_root,
    stage_cpu_ms,
)
from repro.core.pipeline import STAT_COUNTERS, DarpaStats

from tests.core.test_pipeline import make_session


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

class TestMetrics:
    def test_counter_inc_and_reset(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        c.inc()
        c.inc(3)
        assert c.value == 4
        assert reg.counter("x") is c  # same instrument on re-touch
        c.reset()
        assert c.value == 0

    def test_gauge_last_write_wins(self):
        g = MetricsRegistry().gauge("g")
        g.set(3)
        g.set(1.5)
        assert g.value == 1.5

    def test_histogram_buckets_and_totals(self):
        h = Histogram("h", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.bucket_counts == [1, 1, 1, 1]  # last slot = overflow
        assert h.count == 4
        assert h.sum == pytest.approx(555.5)
        h.reset()
        assert h.bucket_counts == [0, 0, 0, 0] and h.count == 0 and h.sum == 0.0

    def test_histogram_boundary_is_inclusive(self):
        h = Histogram("h", buckets=(1.0, 10.0))
        h.observe(1.0)
        assert h.bucket_counts == [1, 0, 0]

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(10.0, 1.0))

    def test_histogram_bucket_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError):
            reg.histogram("h", buckets=(1.0, 3.0))

    def test_snapshot_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        reg.gauge("g").set(7)
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 2}
        assert snap["gauges"] == {"g": 7.0}
        assert snap["histograms"]["h"]["count"] == 1
        reg.reset()
        assert reg.snapshot()["counters"] == {"c": 0}


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------

class TestTracer:
    def test_nesting_and_parent_ids(self):
        clock = SimulatedClock()
        tracer = Tracer(clock)
        with tracer.span("outer") as outer:
            clock.advance(5)
            with tracer.span("inner") as inner:
                clock.advance(2)
            assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert [s.name for s in tracer.finished] == ["inner", "outer"]
        assert inner.duration_ms == 2.0
        assert outer.duration_ms == 7.0

    def test_end_span_enforces_lifo(self):
        tracer = Tracer(SimulatedClock())
        outer = tracer.start_span("outer")
        tracer.start_span("inner")
        with pytest.raises(ValueError):
            tracer.end_span(outer)

    def test_emit_retroactive_span(self):
        clock = SimulatedClock()
        clock.advance(100)
        tracer = Tracer(clock)
        span = tracer.emit("debounce", start_ms=40.0, end_ms=100.0, package="p")
        assert span.closed and span.duration_ms == 60.0
        with pytest.raises(ValueError):
            tracer.emit("bad", start_ms=10.0, end_ms=5.0)

    def test_ring_buffer_drops_oldest_and_counts(self):
        clock = SimulatedClock()
        tracer = Tracer(clock, capacity=2)
        for i in range(4):
            with tracer.span(f"s{i}"):
                pass
        assert [s.name for s in tracer.finished] == ["s2", "s3"]
        assert tracer.dropped == 2

    def test_dropped_spans_surface_as_registry_counter(self):
        from repro.core.observability import DROPPED_SPANS_COUNTER

        reg = MetricsRegistry()
        tracer = Tracer(SimulatedClock(), registry=reg, capacity=3)
        # Pre-created at zero: a healthy trace still exports the counter.
        assert reg.counter(DROPPED_SPANS_COUNTER).value == 0
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        assert tracer.dropped == 2
        assert reg.counter(DROPPED_SPANS_COUNTER).value == tracer.dropped
        assert reg.snapshot()["counters"][DROPPED_SPANS_COUNTER] == 2

    def test_attach_registry_precreates_drop_counter(self):
        from repro.core.observability import DROPPED_SPANS_COUNTER

        tracer = Tracer(SimulatedClock())
        reg = MetricsRegistry()
        tracer.attach_registry(reg)
        assert tracer.registry is reg
        assert DROPPED_SPANS_COUNTER in reg.snapshot()["counters"]
        NULL_TRACER.attach_registry(reg)  # inert no-op on the null tracer
        assert NULL_TRACER.registry is None

    def test_registry_stage_instruments(self):
        clock = SimulatedClock()
        reg = MetricsRegistry()
        tracer = Tracer(clock, registry=reg)
        meter = PerfMeter(DeviceProfile())
        tracer.observe_perf(meter)
        with tracer.span("analyze"):
            meter.record(PerfOp.SCREENSHOT)
        assert reg.counter("darpa.stage.analyze.count").value == 1
        hist = reg.histogram("darpa.stage.analyze.cpu_ms")
        assert hist.count == 1
        assert hist.sum == pytest.approx(DeviceProfile().screenshot_cpu_ms)

    def test_perf_attribution_innermost_only(self):
        clock = SimulatedClock()
        tracer = Tracer(clock)
        meter = PerfMeter(DeviceProfile())
        tracer.observe_perf(meter)
        with tracer.span("outer") as outer:
            meter.record(PerfOp.EVENT_DELIVERED)
            with tracer.span("inner") as inner:
                meter.record(PerfOp.INFERENCE)
        assert outer.ops == {"event_delivered": 1}
        assert inner.ops == {"inference": 1}  # no parent roll-up
        meter.record(PerfOp.DECORATION)  # no open span
        assert tracer.orphan_ops == {"decoration": 1}

    def test_perf_reset_clears_attributions(self):
        clock = SimulatedClock()
        tracer = Tracer(clock)
        meter = PerfMeter(DeviceProfile())
        tracer.observe_perf(meter)
        meter.enable_component("monitoring")
        with tracer.span("s") as s:
            meter.record(PerfOp.SCREENSHOT)
        meter.reset()
        assert s.ops == {}
        assert tracer.components == []

    def test_jsonl_is_sorted_and_parseable(self):
        clock = SimulatedClock()
        tracer = Tracer(clock)
        with tracer.span("a", k=1):
            pass
        fp = io.StringIO()
        assert tracer.write_jsonl(fp) == 1
        line = fp.getvalue().strip()
        parsed = json.loads(line)
        assert parsed["name"] == "a"
        assert line == json.dumps(parsed, sort_keys=True)

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("x", a=1) as span:
            NULL_TRACER.annotate(span, b=2)
            NULL_TRACER.set_attribute("c", 3)
        assert span.attributes == {}  # shared singleton never mutated
        assert NULL_TRACER.export() == []
        assert NULL_TRACER.emit("y", 0.0, 1.0) is None

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Tracer(SimulatedClock(), capacity=0)


# ---------------------------------------------------------------------------
# PlanProfiler
# ---------------------------------------------------------------------------

class TestPlanProfiler:
    def test_attribute_shares_sum_to_total(self):
        prof = PlanProfiler()
        prof.start_forward(batch=1)
        prof.record_step("conv0", 300)
        prof.record_step("conv1", 100)
        shares = prof.attribute(100.0)
        assert [s["step"] for s in shares] == ["conv0", "conv1"]
        assert sum(s["cpu_ms"] for s in shares) == pytest.approx(100.0)
        assert shares[0]["cpu_ms"] == pytest.approx(75.0)

    def test_start_forward_resets_steps(self):
        prof = PlanProfiler()
        prof.start_forward(batch=1)
        prof.record_step("a", 10)
        prof.start_forward(batch=1)
        assert prof.steps == [] and prof.forwards == 2

    def test_zero_macs_fold_into_overhead(self):
        # A forward made only of zero-MAC plumbing still accounts for
        # the whole charge: it all lands in the explicit overhead frame.
        prof = PlanProfiler()
        prof.start_forward(batch=1)
        prof.record_step("a", 0)
        assert prof.attribute(100.0) == [
            {"step": OVERHEAD_STEP, "macs": 0, "cpu_ms": 100.0}]

    def test_mixed_zero_mac_steps_sum_exactly(self):
        prof = PlanProfiler()
        prof.start_forward(batch=1)
        prof.record_step("conv0", 300)
        prof.record_step("reshape", 0)
        prof.record_step("conv1", 100)
        shares = prof.attribute(100.0)
        assert [s["step"] for s in shares] == ["conv0", "conv1",
                                               OVERHEAD_STEP]
        assert math.fsum(s["cpu_ms"] for s in shares) == 100.0
        assert shares[0]["cpu_ms"] == pytest.approx(75.0)
        assert shares[2]["macs"] == 0

    def test_plan_reports_macs_per_forward(self):
        import numpy as np
        from repro.vision.nn.infer import InferencePlan
        from repro.vision.nn.layers import Conv2D, LeakyReLU, MaxPool2D

        rng = np.random.default_rng(0)
        plan = InferencePlan([Conv2D(3, 4, kernel=3, pad=1, rng=rng),
                              LeakyReLU(0.1), MaxPool2D(2)])
        prof = PlanProfiler()
        plan.profiler = prof
        plan.forward(np.zeros((1, 3, 8, 8), dtype=np.float32))
        # MACs of the pre-pool GEMM: oh*ow*k*k*c*oc = 8*8*3*3*3*4
        assert prof.steps == [("conv0", 8 * 8 * 3 * 3 * 3 * 4)]


# ---------------------------------------------------------------------------
# Span-derived reporting
# ---------------------------------------------------------------------------

def _traced_meter_run():
    clock = SimulatedClock()
    tracer = Tracer(clock, trace_id="t")
    meter = PerfMeter(DeviceProfile())
    tracer.observe_perf(meter)
    root = tracer.start_span("session")
    meter.enable_component("monitoring")
    meter.enable_component("detection")
    with tracer.span("analyze"):
        meter.record(PerfOp.SCREENSHOT)
        with tracer.span("inference"):
            meter.record(PerfOp.INFERENCE)
    meter.record(PerfOp.EVENT_DELIVERED, 7)
    clock.advance(60_000)
    tracer.end_span(root, components=sorted(tracer.components))
    return tracer, meter


class TestSpanDerivedReporting:
    def test_ops_counted_exactly_once(self):
        tracer, meter = _traced_meter_run()
        assert ops_from_spans(tracer.export()) == {
            k: v for k, v in meter.counts().items() if v}

    def test_report_bit_identical_to_meter(self):
        tracer, meter = _traced_meter_run()
        assert report_from_spans(tracer.export()) == meter.report(60_000.0)

    def test_stage_cpu_breakdown(self):
        tracer, _ = _traced_meter_run()
        cpu = stage_cpu_ms(tracer.export())
        p = DeviceProfile()
        assert cpu["analyze"] == pytest.approx(p.screenshot_cpu_ms)
        assert cpu["inference"] == pytest.approx(p.inference_cpu_ms)

    def test_session_root_requires_unique_root(self):
        tracer, _ = _traced_meter_run()
        spans = tracer.export()
        assert session_root(spans)["name"] == "session"
        with pytest.raises(ValueError):
            session_root([s for s in spans if s["name"] != "session"])

    def test_root_must_be_closed_without_duration(self):
        span = Span(name="session", span_id=1, parent_id=None,
                    trace_id="t", start_ms=0.0).to_dict()
        with pytest.raises(ValueError):
            report_from_spans([span])


# ---------------------------------------------------------------------------
# Truncated ring-buffer dumps: the partial-report contract
# ---------------------------------------------------------------------------

def _truncated_meter_run(capacity):
    """The `_traced_meter_run` workload on a tiny tracer ring buffer."""
    clock = SimulatedClock()
    tracer = Tracer(clock, trace_id="t", capacity=capacity)
    meter = PerfMeter(DeviceProfile())
    tracer.observe_perf(meter)
    root = tracer.start_span("session")
    meter.enable_component("monitoring")
    meter.enable_component("detection")
    with tracer.span("analyze"):
        meter.record(PerfOp.SCREENSHOT)
        with tracer.span("inference"):
            meter.record(PerfOp.INFERENCE)
    meter.record(PerfOp.EVENT_DELIVERED, 7)
    clock.advance(60_000)
    tracer.end_span(root, components=sorted(tracer.components))
    return tracer, meter


class TestTruncatedDumps:
    """Oldest-first eviction mid-session: reports stay defined, partial,
    and never over-count — the contract the docstrings promise."""

    def test_eviction_is_counted_never_silent(self):
        tracer, _ = _truncated_meter_run(capacity=2)
        # 3 spans finished, 2 kept: exactly one drop, and it's counted.
        assert len(tracer.finished) == 2
        assert tracer.dropped == 1

    def test_root_survives_mid_session_truncation(self):
        # The session root closes last, so oldest-first eviction can
        # never take it while any other span survives: duration (and
        # the baseline share of a rebuilt report) stays exact.
        tracer, _ = _truncated_meter_run(capacity=2)
        spans = tracer.export()
        assert session_root(spans)["name"] == "session"

    def test_stage_cpu_covers_only_surviving_spans(self):
        full_tracer, _ = _truncated_meter_run(capacity=64)
        trunc_tracer, _ = _truncated_meter_run(capacity=2)
        full = stage_cpu_ms(full_tracer.export())
        partial = stage_cpu_ms(trunc_tracer.export())
        # The evicted "inference" span took its attributed CPU with it.
        assert "inference" not in partial
        for stage in sorted(partial):
            assert partial[stage] <= full[stage] + 1e-12

    def test_partial_report_never_exceeds_meter(self):
        tracer, meter = _truncated_meter_run(capacity=2)
        partial = report_from_spans(tracer.export())
        complete = meter.report(60_000.0)
        # Defined, not an error — and every cost figure undercounts.
        assert partial.cpu_pct <= complete.cpu_pct
        assert partial.power_mw <= complete.power_mw
        # Op totals are exactly the surviving spans' attributions.
        assert ops_from_spans(tracer.export()) != {
            k: v for k, v in meter.counts().items() if v}

    def test_rebuilt_equals_meter_when_nothing_dropped(self):
        tracer, meter = _truncated_meter_run(capacity=64)
        assert tracer.dropped == 0
        assert report_from_spans(tracer.export()) == meter.report(60_000.0)

    def test_root_eviction_raises(self):
        # Truncate so hard even the root is gone: session_root (and so
        # report_from_spans) refuses rather than fabricating a report.
        tracer, _ = _truncated_meter_run(capacity=2)
        spans = [s for s in tracer.export() if s["name"] != "session"]
        with pytest.raises(ValueError):
            report_from_spans(spans)


# ---------------------------------------------------------------------------
# SpanForest: the one span-tree index every dump consumer reads
# ---------------------------------------------------------------------------

def _span(name, span_id, parent_id=None, ops=None):
    return {"name": name, "span_id": span_id, "parent_id": parent_id,
            "trace_id": "t", "start_ms": 0.0, "end_ms": 1.0,
            "attributes": {}, "ops": ops or {}}


class TestSpanForest:
    # Finish order: children close before their parents.
    DUMP = [
        _span("screenshot", 3, 2, ops={PerfOp.SCREENSHOT.value: 1}),
        _span("inference", 4, 2, ops={PerfOp.INFERENCE.value: 1}),
        _span("analyze", 2, 1),
        _span("event", 5, 1, ops={PerfOp.EVENT_DELIVERED.value: 2}),
        _span("session", 1),
    ]

    def test_tree_of_a_complete_dump(self):
        forest = SpanForest(self.DUMP)
        assert forest.root is self.DUMP[-1]
        assert forest.orphans == frozenset()
        assert forest.children == {2: [3, 4], 1: [2, 5]}
        assert forest.depth == {3: 2, 4: 2, 2: 1, 5: 1, 1: 0}
        assert forest.path[4] == ("session", "analyze", "inference")
        p = DeviceProfile()
        assert forest.cpu[3] == p.screenshot_cpu_ms
        assert forest.subtree_cpu(2) == (p.screenshot_cpu_ms
                                         + p.inference_cpu_ms)

    def test_missing_parent_reroots_its_children(self):
        forest = SpanForest([s for s in self.DUMP if s["span_id"] != 2])
        assert forest.orphans == frozenset({3, 4})
        assert forest.parent[3] is None and forest.depth[3] == 0
        assert forest.path[4] == ("inference",)
        assert forest.root is not None

    def test_missing_root_leaves_no_root(self):
        forest = SpanForest(self.DUMP[:-1])
        assert forest.root is None
        assert forest.orphans == frozenset({2, 5})
        assert forest.depth[3] == 1  # still under its surviving parent

    def test_parent_cycle_is_cut_not_looped(self):
        forest = SpanForest([_span("a", 1, 2), _span("b", 2, 1)])
        assert len(forest.orphans) == 1
        assert sorted(forest.depth.values()) == [0, 1]

    def test_subtree_cpu_adds_in_lifo_walk_order(self):
        # root -> (a -> c, b -> d).  The walk adds root, a, b, then pops
        # b (adds d) and a (adds c); a pre-order walk would add c before
        # b, and with these charges the two float sums differ.
        def events(n):
            return {PerfOp.EVENT_DELIVERED.value: n}
        spans = [_span("c", 4, 2, ops=events(1)), _span("a", 2, 1, events(1)),
                 _span("d", 5, 3, ops=events(2)), _span("b", 3, 1, events(1)),
                 _span("root", 1, ops=events(1))]
        cpu = SpanForest(spans).cpu
        lifo, preorder = cpu[1], cpu[1]
        for span_id in (2, 3, 5, 4):
            lifo += cpu[span_id]
        for span_id in (2, 4, 3, 5):
            preorder += cpu[span_id]
        assert lifo != preorder
        assert SpanForest(spans).subtree_cpu(1) == lifo

    def test_prebuilt_forest_is_reused(self):
        forest = SpanForest(self.DUMP)
        assert SpanForest.of(forest) is forest
        assert SpanForest.of(self.DUMP).depth == forest.depth

    def test_span_cpu_ms_agrees_with_the_forest(self):
        span = Span(name="x", span_id=1, parent_id=None, trace_id="t",
                    start_ms=0.0, end_ms=1.0,
                    ops={PerfOp.INFERENCE.value: 2})
        profile = DeviceProfile()
        assert span.cpu_ms(profile) == SpanForest(
            [span.to_dict()], profile).cpu[1]


class TestJsonlReaders:
    def write(self, tmp_path, text):
        path = tmp_path / "trace.jsonl"
        path.write_text(text)
        return str(path)

    def test_unterminated_final_line_is_dropped(self, tmp_path):
        line = json.dumps({"session": 3, **_span("session", 1)})
        path = self.write(tmp_path, line + "\n" + line[:17])
        assert [n for n, _ in read_jsonl(path)] == [1]
        assert list(read_span_jsonl(path)) == [3]

    def test_malformed_complete_line_names_file_and_line(self, tmp_path):
        path = self.write(tmp_path, "{}\n{oops\n{}\n")
        with pytest.raises(KeyError, match=r"trace\.jsonl:2"):
            read_jsonl(path, error=KeyError)

    def test_non_span_record_is_rejected(self, tmp_path):
        path = self.write(tmp_path, '{"rows": 3}\n')
        with pytest.raises(ValueError, match="not a span record"):
            read_span_jsonl(path)
        for bad in ({"session": "x"}, {"span_id": "1"}, {"parent_id": 1.5}):
            line = json.dumps({**_span("s", 1), **bad})
            with pytest.raises(ValueError, match="not a span record"):
                read_span_jsonl(self.write(tmp_path, line + "\n"))

    def test_sessions_keep_line_order(self, tmp_path):
        lines = [json.dumps({"session": session, **_span("x", span_id)})
                 for session, span_id in ((1, 5), (0, 1), (1, 2))]
        path = self.write(tmp_path, "".join(l + "\n" for l in lines))
        grouped = read_span_jsonl(path)
        assert [s["span_id"] for s in grouped[1]] == [5, 2]
        assert "session" not in grouped[0][0]


# ---------------------------------------------------------------------------
# DarpaStats compatibility view + explicit reset (the stop/start fix)
# ---------------------------------------------------------------------------

class TestDarpaStats:
    def test_attributes_are_registry_counters(self):
        stats = DarpaStats()
        stats.retries += 2
        assert stats.registry.counter("darpa.pipeline.retries").value == 2
        stats.registry.counter("darpa.pipeline.retries").inc()
        assert stats.retries == 3

    def test_snapshot_covers_every_counter(self):
        stats = DarpaStats()
        assert set(stats.snapshot()) == set(STAT_COUNTERS)

    def test_value_equality(self):
        a, b = DarpaStats(), DarpaStats()
        assert a == b
        a.cache_hits += 1
        assert a != b

    def test_explicit_reset_zeroes_counters_and_records(self):
        stats = DarpaStats()
        stats.events_seen += 5
        stats.records.append(object())
        stats.reset()
        assert stats.events_seen == 0 and stats.records == []

    def test_stats_survive_stop_start_cycles(self):
        """Counters are cumulative across lifecycle transitions: only an
        explicit reset_stats() zeroes them."""
        device, app, detector, service = make_session()
        service.start()
        app.launch()
        device.clock.advance(2000)
        seen = service.stats.events_seen
        analyzed = service.stats.screens_analyzed
        assert seen > 0 and analyzed > 0
        service.stop()
        service.start()
        assert service.stats.events_seen == seen
        assert service.stats.screens_analyzed == analyzed
        device.clock.advance(3000)
        assert service.stats.screens_analyzed > analyzed  # keeps counting
        service.reset_stats()
        assert service.stats.events_seen == 0
        assert service.stats.screens_analyzed == 0
        assert service.stats.records == []

    def test_reset_stats_with_perf_zeroes_meter_and_cache_tallies(self):
        device, app, detector, service = make_session()
        service.start()
        app.launch()
        device.clock.advance(2000)
        assert any(device.perf.counts().values())
        service.reset_stats(reset_perf=True)
        assert not any(device.perf.counts().values())
        if service.screen_cache is not None:
            assert service.screen_cache.hits == 0
            assert service.screen_cache.misses == 0


# ---------------------------------------------------------------------------
# DarpaService wiring
# ---------------------------------------------------------------------------

class TestServiceTracing:
    def _traced_session(self):
        device, app, detector, service = make_session()
        tracer = Tracer(device.clock, trace_id="svc")
        traced = DarpaService(
            device, detector, config=service.config,
            policy=ScreenshotPolicy(consent_given=True), tracer=tracer)
        return device, app, traced, tracer

    def test_tracer_adopts_stats_registry(self):
        _, _, traced, tracer = self._traced_session()
        assert tracer.registry is traced.stats.registry

    def test_pipeline_emits_expected_span_taxonomy(self):
        device, app, traced, tracer = self._traced_session()
        traced.start()
        app.launch()
        device.clock.advance(6000)
        names = {s.name for s in tracer.finished}
        assert {"event", "debounce", "analyze", "screenshot",
                "inference", "decorate"} <= names
        assert not tracer.open_spans
        assert tracer.orphan_ops == {}

    def test_traced_run_matches_untraced_stats(self):
        device, app, detector, plain = make_session()
        plain.start()
        app.launch()
        device.clock.advance(6000)
        device2, app2, traced, tracer = self._traced_session()
        traced.start()
        app2.launch()
        device2.clock.advance(6000)
        assert plain.stats == traced.stats
        assert device.perf.counts() == device2.perf.counts()

    def test_gauges_track_breaker_and_cache(self):
        device, app, traced, tracer = self._traced_session()
        traced.start()
        app.launch()
        device.clock.advance(6000)
        reg = traced.stats.registry
        assert reg.gauge("darpa.breaker.state").value == 0  # CLOSED
        if traced.screen_cache is not None:
            assert reg.gauge("darpa.cache.entries").value == \
                len(traced.screen_cache)

    def test_span_ops_reproduce_meter_counts(self):
        device, app, traced, tracer = self._traced_session()
        traced.start()
        app.launch()
        device.clock.advance(6000)
        derived = ops_from_spans(s.to_dict() for s in tracer.finished)
        expected = {k: v for k, v in device.perf.counts().items() if v}
        assert derived == expected
