"""Fold exported span dumps into :class:`~repro.profiling.profile.Profile`\\ s.

The tracer already attributes every cost-model charge to exactly one
span (innermost-open wins; children never roll up into parents), so a
span dump *is* a profile — it just isn't stack-keyed yet.  This module
reads each span's stack path off the session's
:class:`~repro.core.observability.SpanForest`, converts the span's
attributed CPU to integer microseconds (rounded exactly once, at fold
time), and expands the PlanProfiler's ``plan_ops`` attribute on
inference spans into per-step child frames so the flame view reaches
down to individual kernel steps (``...;inference;conv3/gemm``).

Truncation is first-class: a ring-buffer-evicted parent makes its
surviving children *orphans* — the forest roots each one at depth 0,
they are counted in :attr:`Profile.orphan_spans`, and the tracer's
drop counter rides along as :attr:`Profile.dropped_spans`, so a merged
profile always says how complete it is.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Union

from repro.android.device import DeviceProfile
from repro.core.observability import DROPPED_SPANS_COUNTER, SpanForest
from repro.profiling.profile import Profile, STACK_SEP

#: Span attribute carrying the PlanProfiler per-step MAC attribution
#: (written by the pipeline on inference spans).
PLAN_OPS_ATTR = "plan_ops"


def _us(cpu_ms: float) -> int:
    """Milliseconds -> integer microseconds, rounded exactly once."""
    return int(round(cpu_ms * 1000.0))


def _segment(name: str) -> str:
    """A span/step name made safe for the ``;``-separated stack key."""
    return name.replace(STACK_SEP, "_") or "unnamed"


def dropped_from_metrics(snapshot: Mapping[str, object]) -> int:
    """The tracer's dropped-span count out of a registry snapshot."""
    counters = snapshot.get("counters", {})
    if not isinstance(counters, Mapping):
        return 0
    return int(counters.get(DROPPED_SPANS_COUNTER, 0))  # type: ignore[arg-type]


def profile_from_spans(
    spans: Union[SpanForest, Iterable[Mapping[str, object]]],
    profile: Optional[DeviceProfile] = None,
    dropped_spans: int = 0,
) -> Profile:
    """Fold one session's exported span dump into a Profile.

    ``dropped_spans`` is the tracer's eviction count for this dump
    (callers read it from the session's metrics snapshot via
    :func:`dropped_from_metrics`); it is carried, not inferred.  Stack
    paths, per-span CPU and the orphan count come from the session's
    :class:`SpanForest` (``spans`` may be a prebuilt one).
    """
    forest = SpanForest.of(spans, profile)
    out = Profile()
    out.sessions = 1
    out.dropped_spans = int(dropped_spans)
    out.orphan_spans = len(forest.orphans)

    for span in forest.spans:
        span_id = int(span["span_id"])  # type: ignore[arg-type]
        stack = tuple(_segment(name) for name in forest.path[span_id])
        span_us = _us(forest.cpu[span_id])
        attributes = span.get("attributes", {})
        plan_ops = (attributes.get(PLAN_OPS_ATTR)
                    if isinstance(attributes, Mapping) else None)
        if isinstance(plan_ops, (list, tuple)) and plan_ops:
            steps_us = 0
            for step in plan_ops:
                step_us = _us(float(step.get("cpu_ms", 0.0)))  # type: ignore[union-attr]
                out.observe(stack + (_segment(str(step.get("step"))),),  # type: ignore[union-attr]
                            cpu_us=step_us, count=1,
                            macs=int(step.get("macs", 0)))  # type: ignore[union-attr]
                steps_us += step_us
            # The span's own frame keeps whatever the per-step rounding
            # left over, so subtree totals still match the span's CPU.
            out.observe(stack, cpu_us=max(0, span_us - steps_us), count=1)
        else:
            out.observe(stack, cpu_us=span_us, count=1)
    return out


def profile_from_result(result, profile: Optional[DeviceProfile] = None
                        ) -> Profile:
    """Fold one :class:`SessionResult` (spans + metrics) into a Profile."""
    metrics = result.metrics if isinstance(result.metrics, Mapping) else {}
    return profile_from_spans(
        result.spans or (), profile=profile,
        dropped_spans=dropped_from_metrics(metrics))


def profile_from_results(results, profile: Optional[DeviceProfile] = None
                         ) -> Profile:
    """Fold a whole fleet's results; order-free by the merge algebra."""
    out = Profile()
    for result in results:
        out.merge(profile_from_result(result, profile=profile))
    return out


__all__ = [
    "PLAN_OPS_ATTR",
    "dropped_from_metrics",
    "profile_from_spans",
    "profile_from_result",
    "profile_from_results",
]
