"""The per-layer table: host self time next to the cost-model charge."""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

#: Table rows: label, probe frames, cost-model operation.
ROWS = (
    ("renderer", ("renderer",), "screenshot"),
    ("screencache", ("screencache.fingerprint",), "cache_probe"),
    ("infer.preprocess", ("infer.preprocess",), None),
    ("infer.forward", ("infer.forward",), "inference"),
    ("nms", ("nms.decode",), None),
    ("refine", ("refine",), None),
    ("decorator", ("decorator",), "decoration"),
    ("frauddroid", ("frauddroid",), "fallback_inference"),
    ("artifacts", ("artifacts.write", "artifacts.journal", "artifacts.merge"),
     None),
)
#: ROADMAP baseline order of the four largest layers on the fleet path.
BASELINE_ORDER = ("renderer", "screencache", "refine", "infer.forward")


def _cpu_ms_per_op() -> Dict[str, float]:
    from repro.android.device import DeviceProfile

    p = DeviceProfile()
    return {"event_delivered": p.event_cpu_ms,
            "screenshot": p.screenshot_cpu_ms,
            "inference": p.inference_cpu_ms,
            "fallback_inference": p.fallback_cpu_ms,
            "cache_probe": p.cache_probe_cpu_ms,
            "decoration": p.decoration_cpu_ms}


def layer_table(name: str, probe, layer: Dict[str, Tuple[float, str]],
                wall_ms: float, sessions: int,
                layers: Sequence[str]) -> List[str]:
    """One row per layer, per session of the traced phase."""
    cpu = _cpu_ms_per_op()
    self_ms = {label: sum(probe.get(f).self_ms for f in frames)
               for label, frames, _ in ROWS}
    calls = {label: sum(probe.get(f).calls for f in frames)
             for label, frames, _ in ROWS}
    residual = wall_ms - sum(probe.get(f).self_ms for f in layers)
    lines = [f"per-layer host time, {name}: {sessions} traced sessions, "
             f"{wall_ms / 1000.0:.2f} s wall",
             "  (every column per session, except the share of the wall)",
             f"  {'layer':18s} {'calls':>8s} {'host ms':>10s} "
             f"{'share':>7s}  {'cost-model op':18s} {'ops':>7s} "
             f"{'model CPU ms':>14s}"]

    def row(label: str, n_calls: float, host_ms: float, op) -> str:
        count = layer.get(f"costmodel.{op}_count", (0.0, ""))[0] if op else 0.0
        model = f"{count * cpu[op]:14.1f}" if op else f"{'-':>14s}"
        return (f"  {label:18s} {n_calls / sessions:8.1f} "
                f"{host_ms / sessions:10.1f} {host_ms / wall_ms:7.1%}  "
                f"{op or '-':18s} {count:7.1f} {model}")

    for label, _, op in ROWS:
        lines.append(row(label, calls[label], self_ms[label], op))
    lines.append(row("sim.residual", 0, residual, "event_delivered"))
    ranked = sorted((k for k in self_ms if self_ms[k] > 0),
                    key=lambda k: -self_ms[k])
    lines.append("  top layers by host self time: "
                 + (" > ".join(ranked[:4]) or "none ran"))
    order = sorted(BASELINE_ORDER, key=lambda k: -self_ms[k])
    if not all(self_ms[k] > 0 for k in BASELINE_ORDER):
        verdict = "not applicable, a layer did not run"
    elif tuple(order) == BASELINE_ORDER:
        verdict = "reproduced"
    else:
        verdict = "not reproduced: " + " > ".join(order)
    lines.append("  ROADMAP baseline order renderer > screencache > refine > "
                 f"infer.forward: {verdict}")
    lines.append("  (cost-model ops are per session of a pass; "
                 "the inference charge covers preprocess, nms and refine)")
    return lines
