"""Seeded benchmark fleets at the generator's expected mix, and the
committed weights.

The program's generator (:func:`repro.bench.build_runtime_fleet`) draws
every session's shape at random: 2-3 AUI screens, 2-3 ordinary screens,
a benign close-button dialog with probability 0.45, and each screen
animated with probability 0.28.  An animated screen ticks every
U(55, 190) ms in bursts of 6-13 ticks with a U(60, 700) ms pause between
bursts; a still screen emits 0-3 minor updates U(40, 120) ms apart.  On
a fleet small enough to time in seconds these draws move the work by
about a quarter from one seed to the next, which hides a 10% change.

The fleets here use the same corpus, apps and screen builders, but take
each of those quantities at its expected mix over the whole fleet
instead of drawing it per screen:

- half the sessions show 3 AUI screens and half 2, likewise for
  ordinary screens, and ``round(0.45 * n)`` sessions add a benign
  dialog; which sessions is seeded;
- 28% of the AUI screens and 28% of the other screens animate, chosen
  by the seed;
- animated screens take ticks and pauses from equal slices of the
  generator's ranges, paired in a fixed scrambled order and handed out
  by a seeded permutation; the tick offsets come from the generator's
  own ``_burst_pause_offsets``, with burst lengths 6-13 taken in turn;
- still screens take 0-3 minor updates in turn, spaced by equal slices
  of 40-120 ms;
- screens get equal slots of the session (the generator's mean), in an
  order drawn from its own seed.

A fleet seed chooses the apps' screens and their shape, an order seed
the order of each session's screens; neither changes how much work a
fleet holds.
"""

from __future__ import annotations

import hashlib
import io
import zipfile
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

#: The generator's expected mix (see the module docstring).
SCREENS_PER_KIND = (2, 3)
BENIGN_SHARE = 0.45
ANIMATED_SHARE = 0.28
MINOR_UPDATES = (0, 1, 2, 3)
MINOR_SPACING_MS = (40.0, 120.0)
_GOLDEN = 0.6180339887498949

#: Keys of the trained benchmark detector in the ``.bench_cache`` store;
#: must match :func:`repro.bench.experiments.get_trained_model`.
TRAINED_EPOCHS = 110
TRAINED_SEED = 0


class WeightsMissingError(RuntimeError):
    """The committed detector weights are not in ``.bench_cache``."""


class _Quantiles:
    """Stands in for the generator's random draws: ``uniform(lo, hi)``
    returns the next of the given quantiles of [lo, hi), and
    ``integers(lo, hi)`` the next of lo..hi-1 in turn."""

    def __init__(self, quantiles: Sequence[float], turn: int) -> None:
        self._quantiles = list(quantiles)
        self._turn = turn

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self._quantiles.pop(0)

    def integers(self, lo: int, hi: int) -> int:
        value = lo + self._turn % (hi - lo)
        self._turn += 1
        return value


def _slices(n: int, scrambled: bool = False) -> List[float]:
    """Midpoints of ``n`` equal slices of [0, 1); ``scrambled`` puts them
    in a fixed order that is unrelated to their rank."""
    ranks = np.arange(n)
    if scrambled:
        ranks = np.argsort(np.argsort((ranks * _GOLDEN) % 1.0))
    return [(int(r) + 0.5) / n for r in ranks]


def _mix(n: int, values: Sequence, rng: np.random.Generator) -> List:
    """``n`` values, ``values`` in turn, in seeded order."""
    return [values[int(k) % len(values)] for k in rng.permutation(n)]


def _chosen(n: int, share: float, rng: np.random.Generator) -> List[bool]:
    """``round(share * n)`` of ``n`` flags set, in seeded positions."""
    picked = set(rng.permutation(n)[:int(round(share * n))].tolist())
    return [k in picked for k in range(n)]


def build_fleet(n_apps: int, fleet_seed: int, order_seed: int,
                duration_ms: float) -> List:
    """``n_apps`` sessions of ``duration_ms`` each: screens and their
    shape from ``fleet_seed``, each session's screen order from
    ``order_seed``."""
    from repro.android.apps import AppSpec, UiStep, UiTimeline
    from repro.bench.experiments import (
        FleetSession,
        _burst_pause_offsets,
        get_corpus_and_splits,
    )
    from repro.datagen import build_aui_screen, build_non_aui_screen

    corpus, _ = get_corpus_and_splits(fleet_seed)
    content = np.random.default_rng([fleet_seed, 31])
    shape = np.random.default_rng([fleet_seed, 0x5EED])
    ordering = np.random.default_rng([order_seed, 0x0DE5])
    pool = [s for s in corpus.samples if s.spec.n_upo > 0]
    n_aui = _mix(n_apps, SCREENS_PER_KIND, shape)
    n_plain = _mix(n_apps, SCREENS_PER_KIND, shape)
    benign = _chosen(n_apps, BENIGN_SHARE, shape)
    apps = []
    for i in range(n_apps):
        profile = corpus.apps[i % len(corpus.apps)]
        auis = [build_aui_screen(pool[int(content.integers(0, len(pool)))].spec,
                                 package=profile.package,
                                 id_policy=profile.id_policy)
                for _ in range(n_aui[i])]
        negatives = [build_non_aui_screen(
            content, benign_close=k >= n_plain[i], package=profile.package,
            id_policy=profile.id_policy,
            fullscreen=bool(content.integers(0, 2)))
            for k in range(n_plain[i] + int(benign[i]))]
        apps.append((profile, auis, negatives))

    aui_moving = iter(_chosen(sum(n_aui), ANIMATED_SHARE, shape))
    other_moving = iter(_chosen(sum(len(negs) for _, _, negs in apps),
                                ANIMATED_SHARE, shape))
    flags = [[next(aui_moving) for _ in auis]
             + [next(other_moving) for _ in negs] for _, auis, negs in apps]
    n_animated = sum(sum(f) for f in flags)
    n_still = sum(len(f) for f in flags) - n_animated
    # Rhythm k: the k-th slice of the tick range, a scrambled slice of
    # the pause range, and bursts starting at length 6 + k % 8.
    pairs = list(zip(_slices(n_animated), _slices(n_animated, scrambled=True)))
    rhythms = iter([(pairs[k], int(k)) for k in shape.permutation(n_animated)])
    still = [(MINOR_UPDATES[k % len(MINOR_UPDATES)], spacing)
             for k, spacing in enumerate(_slices(n_still, scrambled=True))]
    stills = iter([still[k] for k in shape.permutation(n_still)])
    lo, hi = MINOR_SPACING_MS

    fleet = []
    for (profile, auis, negatives), animates in zip(apps, flags):
        screens = list(zip(auis + negatives, animates))
        order = ordering.permutation(len(screens))
        slot = duration_ms / len(screens)
        steps = []
        for pos, k in enumerate(order):
            screen, moving = screens[int(k)]
            if moving:
                quantiles, turn = next(rhythms)
                offsets = _burst_pause_offsets(_Quantiles(quantiles, turn),
                                               slot)
                steps.append(UiStep(at_ms=pos * slot, screen=screen,
                                    update_offsets=offsets))
            else:
                minor, spacing = next(stills)
                steps.append(UiStep(at_ms=pos * slot, screen=screen,
                                    minor_updates=minor,
                                    minor_spacing_ms=lo + (hi - lo) * spacing))
        fleet.append(FleetSession(
            spec=AppSpec(package=profile.package, timeline=UiTimeline(steps),
                         id_policy=profile.id_policy,
                         category=profile.category),
            aui_screens=auis, non_aui_screens=negatives))
    return fleet


def trained_weights_path(root: Path) -> Path:
    """Path of the trained TinyYolo's ``.npz`` under ``root/.bench_cache``."""
    from repro.bench.cache import BenchCache
    from repro.vision import YoloConfig

    config = YoloConfig()
    key = {
        "masked": False, "epochs": TRAINED_EPOCHS, "seed": TRAINED_SEED,
        "channels": config.channels, "input": (config.input_w, config.input_h),
        "lambda_upo": config.lambda_upo, "v": 2,
    }
    return root / ".bench_cache" / f"yolo-{BenchCache.fingerprint(key)}.npz"


def load_trained(root: Path):
    """The trained detector and the sha256 of the file it came from.

    Never trains: a missing or unreadable file is a
    :class:`WeightsMissingError`.
    """
    from repro.vision import TinyYolo, YoloConfig

    path = trained_weights_path(root)
    try:
        blob = path.read_bytes()
        with np.load(io.BytesIO(blob), allow_pickle=False) as data:
            state: Dict[str, np.ndarray] = {k: data[k] for k in data.files}
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise WeightsMissingError(
            f"trained weights missing or unreadable: {path}: {exc}") from exc
    model = TinyYolo(YoloConfig(), seed=TRAINED_SEED)
    model.load_state_dict(state)
    return model, hashlib.sha256(blob).hexdigest()
