"""Every span-dump consumer agrees on a truncated dump.

One real session dump (session 0 of the ops fixture run) is cut three
ways — a parent span evicted, the session root evicted, and the trace
file cut at a line boundary before the root closed — and each cut is
run through all four consumers:

- ``load_run`` and the ``/api/traces`` waterfall it serves;
- ``profile_from_spans`` (the flame profile fold);
- ``sketches_from_spans`` (fleet telemetry);
- ``stage_cpu_ms`` / ``report_from_spans`` (the perf rebuild).

They must agree on which spans are orphans (parent absent from the
dump, re-rooted at depth 0), see every surviving span, and never
report more cost-model CPU for a stage than the full dump holds.
"""

import json
import os

import pytest

from repro.core.observability import (
    SpanForest,
    read_span_jsonl,
    report_from_spans,
    stage_cpu_ms,
)
from repro.core.telemetry import (
    INFERENCE_SKETCH,
    REACTION_SKETCH,
    SCREENSHOT_SKETCH,
    sketches_from_spans,
)
from repro.ops.artifacts import load_run
from repro.ops.routes import resolve
from repro.profiling import profile_from_spans

SHARD = os.path.join(os.path.dirname(os.path.dirname(__file__)), "ops",
                     "fixtures", "run", "shard-000000.trace.jsonl")
#: Session 0's ``session`` root is line 251 of the shard part.
LINES_BEFORE_ROOT = 250


def full_dump():
    return read_span_jsonl(SHARD)[0]


def cut_dump(kind, tmp_path):
    spans = full_dump()
    if kind == "missing_parent":
        parents = {s["parent_id"] for s in spans}
        victim = next(s for s in spans
                      if s["name"] == "analyze" and s["span_id"] in parents)
        return [s for s in spans if s is not victim]
    if kind == "missing_root":
        return [s for s in spans if s["name"] != "session"]
    with open(SHARD) as fp:
        head = [next(fp) for _ in range(LINES_BEFORE_ROOT)]
    part = tmp_path / "cut.trace.jsonl"
    part.write_text("".join(head))
    return read_span_jsonl(str(part))[0]


def expected_orphans(spans):
    ids = {s["span_id"] for s in spans}
    return {s["span_id"] for s in spans
            if s["parent_id"] is not None and s["parent_id"] not in ids}


@pytest.mark.parametrize("kind",
                         ["missing_parent", "missing_root", "line_cut"])
def test_consumers_agree_on_a_truncated_dump(kind, tmp_path):
    full, spans = full_dump(), cut_dump(kind, tmp_path)
    orphans = expected_orphans(spans)
    assert orphans, "vacuous cut — nothing was orphaned"
    assert SpanForest(spans).orphans == orphans

    # load_run + /api/traces: orphans are the depth-0 spans that still
    # name a parent; the rootless trace is bounded by its survivors.
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / "trace.jsonl").write_text("".join(
        json.dumps({"session": 0, **s}) + "\n" for s in spans))
    model = load_run(str(run_dir))
    payload = resolve(model, "/api/traces/0")
    assert {row["span_id"] for row in payload["spans"]
            if row["depth"] == 0 and row["parent_id"] is not None} == orphans
    if kind != "missing_parent":
        assert payload["trace_id"] == spans[0]["trace_id"]
        assert payload["start_ms"] == min(s["start_ms"] for s in spans)
        assert payload["end_ms"] == max(s["end_ms"] for s in spans)

    # Profile fold: the same orphan count, from the file or the list.
    assert profile_from_spans(spans).orphan_spans == len(orphans)
    assert model.profile.orphan_spans == len(orphans)
    assert (profile_from_spans(spans).total_cpu_us
            <= profile_from_spans(full).total_cpu_us)

    # Sketches: every surviving span is observed, orphans included.
    sketches = sketches_from_spans(spans)
    assert sketches[REACTION_SKETCH].count == sum(
        1 for s in spans if s["name"] == "analyze"
        and s["attributes"].get("outcome") == "ok")
    for sketch, stage in ((SCREENSHOT_SKETCH, "screenshot"),
                          (INFERENCE_SKETCH, "inference")):
        assert sketches[sketch].count == sum(
            1 for s in spans if s["name"] == stage and s["ops"])

    # Stage CPU never exceeds the full dump's, in either projection.
    full_cpu = stage_cpu_ms(full)
    for stage, cpu in stage_cpu_ms(spans).items():
        assert cpu <= full_cpu[stage]
    route_cpu = {}
    for row in payload["spans"]:
        name = row["name"]
        route_cpu[name] = route_cpu.get(name, 0.0) + row["cpu_ms"]
    for stage, cpu in route_cpu.items():
        assert cpu <= full_cpu[stage]

    # The perf rebuild: partial with its root, refused without one.
    if kind == "missing_parent":
        assert (report_from_spans(spans).cpu_pct
                <= report_from_spans(full).cpu_pct)
    else:
        with pytest.raises(ValueError):
            report_from_spans(spans)
