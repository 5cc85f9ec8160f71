"""Load profiles from the places they live.

``repro profile`` (and ``--diff``) accepts any of:

- a **run directory** — ``profile.json`` if merged, else
  ``shard-*.profile.json`` parts folded in sorted-name order, else the
  raw ``trace.jsonl`` / ``shard-*.trace.jsonl`` spans folded on the
  spot (with per-session dropped-span counts out of the metrics lines);
- a **profile.json** file (or any JSON file with an embedded
  :data:`~repro.profiling.profile.PROFILE_KEY` block, e.g. a
  ``BENCH_*.json`` baseline);
- a **span JSONL** file (``trace.jsonl`` dumps from ``repro trace``).

Every fold path sorts its inputs (file names, session indices) before
merging, so the loaded profile is byte-identical no matter how the
directory listing enumerated shard parts — the same order-canonical
contract as the ops dashboard loader.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Mapping, Optional

from repro.android.device import DeviceProfile
from repro.core.observability import read_jsonl, read_span_jsonl
from repro.profiling.fold import dropped_from_metrics, profile_from_spans
from repro.profiling.profile import PROFILE_KEY, Profile


class ProfileSourceError(ValueError):
    """The profile source is missing, unreadable, or not a profile."""


def _load_json(path: str) -> Mapping[str, object]:
    try:
        with open(path) as fp:
            payload = json.load(fp)
    except (OSError, json.JSONDecodeError) as exc:
        raise ProfileSourceError(f"cannot read {path}: {exc}")
    if not isinstance(payload, Mapping):
        raise ProfileSourceError(f"{path}: expected a JSON object")
    return payload


def _profile_from_payload(path: str,
                          payload: Mapping[str, object]) -> Profile:
    if "frames" in payload:
        source: object = payload
    elif PROFILE_KEY in payload:
        source = payload[PROFILE_KEY]
    else:
        raise ProfileSourceError(
            f"{path}: neither a profile document nor a payload with a "
            f"{PROFILE_KEY!r} block")
    try:
        return Profile.from_dict(source)  # type: ignore[arg-type]
    except (ValueError, TypeError, AttributeError) as exc:
        raise ProfileSourceError(f"{path}: malformed profile ({exc})")


def _fold_sessions(by_session: Mapping[int, List[Dict[str, object]]],
                   dropped: Optional[Dict[int, int]] = None,
                   device_profile: Optional[DeviceProfile] = None
                   ) -> Profile:
    """Fold each session's spans, in session order, into one Profile."""
    out = Profile()
    for session in sorted(by_session):
        out.merge(profile_from_spans(
            by_session[session], profile=device_profile,
            dropped_spans=(dropped or {}).get(session, 0)))
    return out


def _load_dir(run_dir: str,
              device_profile: Optional[DeviceProfile]) -> Profile:
    try:
        listing = sorted(os.listdir(run_dir))
    except OSError as exc:
        raise ProfileSourceError(f"cannot list {run_dir}: {exc}")

    merged = [n for n in listing if n == "profile.json"]
    parts = [n for n in listing if n.startswith("shard-")
             and n.endswith(".profile.json")]
    if merged or parts:
        out = Profile()
        for name in merged + parts:
            path = os.path.join(run_dir, name)
            out.merge(_profile_from_payload(path, _load_json(path)))
        return out

    trace_parts = [n for n in listing
                   if n == "trace.jsonl" or (n.startswith("shard-")
                                             and n.endswith(".trace.jsonl"))]
    if not trace_parts:
        raise ProfileSourceError(
            f"no profile or trace artifacts in {run_dir}")
    by_session: Dict[int, List[Dict[str, object]]] = {}
    for name in trace_parts:
        path = os.path.join(run_dir, name)
        for session, spans in read_span_jsonl(
                path, ProfileSourceError).items():
            by_session.setdefault(session, []).extend(spans)
    dropped: Dict[int, int] = {}
    for name in listing:
        if name == "metrics.jsonl" or (name.startswith("shard-")
                                       and name.endswith(".metrics.jsonl")):
            for _, record in read_jsonl(os.path.join(run_dir, name),
                                        ProfileSourceError):
                session = int(record.get("session", 0))  # type: ignore[arg-type]
                metrics = record.get("metrics", {})
                if isinstance(metrics, Mapping):
                    dropped[session] = dropped_from_metrics(metrics)
    return _fold_sessions(by_session, dropped, device_profile)


def load_profile(source: str,
                 device_profile: Optional[DeviceProfile] = None) -> Profile:
    """Load a Profile from a run directory, JSON document, or span JSONL."""
    if not os.path.exists(source):
        raise ProfileSourceError(f"no such file or directory: {source}")
    try:
        if os.path.isdir(source):
            return _load_dir(source, device_profile)
        if source.endswith(".jsonl"):
            return _fold_sessions(read_span_jsonl(source, ProfileSourceError),
                                  device_profile=device_profile)
    except OSError as exc:
        raise ProfileSourceError(f"cannot read {source}: {exc}")
    return _profile_from_payload(source, _load_json(source))


__all__ = ["ProfileSourceError", "load_profile"]
