"""Host-time probes around the program's public layer entry points.

Nothing under ``src/`` is changed: each probe replaces a name *where
the caller looks it up* (``repro.android.accessibility.render_screen``,
not ``repro.android.renderer``) with a wrapper that reads
:func:`repro.wallclock.monotonic_ms` on entry and exit.

Frames nest per thread.  A frame's self time is its duration minus the
frames it called on the same thread.  The daemon runs its sessions in
lockstep threads, only one of which runs at any instant; the wait of a
parked session (``daemon.wait``) and the coordinator's batch wall
(``daemon.batch``) cover time other threads spend, so no layer sum
includes their self time.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Tuple

from repro.wallclock import monotonic_ms


class LayerStats:
    __slots__ = ("calls", "total_ms", "self_ms", "items")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ms = 0.0
        self.self_ms = 0.0
        #: Sum of ``len(result)`` for frames that count their results.
        self.items = 0


class Probe:
    """Per-layer call counts, wall and self time."""

    def __init__(self) -> None:
        self.layers: Dict[str, LayerStats] = {}
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[List]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def timed(self, name: str, fn: Callable, count: bool = False) -> Callable:
        """``fn`` wrapped as frame ``name`` (a re-entrant call is folded
        into the outer frame); ``count`` adds ``len(result)`` to
        :attr:`LayerStats.items`."""
        layers = self.layers

        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = monotonic_ms()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = monotonic_ms() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stats = layers.get(name)
                if stats is None:
                    stats = layers[name] = LayerStats()
                stats.calls += 1
                stats.total_ms += elapsed
                stats.self_ms += elapsed - frame[1]
                if count and result is not None:
                    stats.items += len(result)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner: object, attr: str, name: str,
              count: bool = False) -> None:
        """Replace ``owner.attr`` with a timed wrapper until :meth:`restore`."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.timed(name, original, count))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def get(self, name: str) -> LayerStats:
        return self.layers.get(name) or LayerStats()


def install_layer_probes(probe: Probe) -> None:
    """Wrap every layer entry point the per-layer metrics name."""
    import repro.android.accessibility as accessibility
    import repro.bench.experiments as experiments
    import repro.bench.parallel as parallel
    import repro.core.daemon as daemon
    import repro.vision.yolo as yolo
    from repro.baselines.frauddroid import FraudDroidScreenDetector
    from repro.core.decorator import ViewDecorator
    from repro.core.screencache import ScreenFingerprintCache
    from repro.vision.nn.infer import InferencePlan

    probe.patch(experiments, "run_darpa_session", "session")
    probe.patch(accessibility, "render_screen", "renderer")
    probe.patch(ScreenFingerprintCache, "fingerprint", "screencache.fingerprint")
    probe.patch(yolo, "to_input_tensor", "infer.preprocess")
    probe.patch(InferencePlan, "forward", "infer.forward")
    probe.patch(yolo.TinyYolo, "decode", "nms.decode", count=True)
    probe.patch(yolo, "refine_detection_box", "refine")
    probe.patch(ViewDecorator, "decorate", "decorator", count=True)
    probe.patch(FraudDroidScreenDetector, "detect_screen", "frauddroid")
    probe.patch(daemon.CoalescingCoordinator, "run_batch", "daemon.batch")
    probe.patch(daemon._CoalescingProxy, "detect_screen", "daemon.wait")
    probe.patch(parallel, "write_session_part", "artifacts.write")
    probe.patch(daemon.DarpaDaemon, "_journal_completed", "artifacts.journal")
    probe.patch(parallel, "merge_trace_artifacts", "artifacts.merge")
