"""Declarative SLOs over trace timelines, for CI gating.

A spec file declares bounds on a small registered catalog of service-level
metrics, all computed from a ``repro trace`` timeline in one streaming
pass (:class:`SloAccumulator`) — no simulator re-run needed::

    {
      "slos": [
        {"metric": "frame_loss_rate", "max": 0.25},
        {"metric": "p95_frame_latency_s", "max": 0.05},
        {"metric": "min_user_delivered_fps", "min": 5.0}
      ]
    }

``repro obs check <trace.jsonl> --spec <spec.json>`` evaluates every
entry and exits non-zero when any bound is violated (or a required metric
is unavailable in the trace), printing a per-SLO report — the same shape
CI archives as JSON.

The fold groups events exactly as span reconstruction does
(:func:`repro.obs.spans.reconstruct`: ``(unit, frame)`` occurrences in
``seq`` order, annotations joining a frame that has opened) but keeps only
what the metrics read: one row per closed frame attempt, in the order the
attempts opened, plus the stall and played tallies.  Memory is O(closed
frames), not O(events).

Like metrics and trace events, SLO metrics live in a module-scope catalog
(:data:`SLO_METRICS`) so ``docs/METRICS.md`` can enumerate them and spec
files can be validated against known names.  Every metric is a pure,
deterministic function of the finalized fold.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping

from .spans import (
    ANNOTATION_EVENTS,
    SeqOrderError,
    iter_events_in_order,
    load_events,
    seq_key,
)

__all__ = [
    "SloAccumulator",
    "fold_events",
    "fold_trace",
    "SloMetric",
    "SLO_METRICS",
    "SloEntry",
    "SloResult",
    "load_spec",
    "evaluate_spec",
    "format_results",
    "results_jsonable",
]


class SloAccumulator:
    """Single-pass fold of a trace into what the SLO metrics read.

    Feed events in ``seq`` order via :meth:`add_event`, then call
    :meth:`finalize`.  ``closed`` holds one row per closed frame attempt,
    ``(open index, unit, airtime_s, lost_users, delivered_users)``, with
    the outcome's fields as recorded; the metrics convert them (``float``,
    ``int`` per user) when they read them, as the reconstructed
    ``FrameSpans`` properties do.  After :meth:`finalize` the rows are in
    open-index order, the order ``Reconstruction.closed_frames()`` lists
    them in.
    """

    __slots__ = ("closed", "stalls", "played", "_open", "_opened", "_opens")

    def __init__(self) -> None:
        self.closed: list[tuple[int, str | None, Any, Any, Any]] = []
        self.stalls = 0  # unframed core.playback_state "stalled" events
        self.played = 0  # core.frame_played events that joined a frame
        # (unit, frame) -> open index of its open attempt
        self._open: dict[tuple[str | None, int], int] = {}
        # every (unit, frame) that ever opened an attempt
        self._opened: set[tuple[str | None, int]] = set()
        self._opens = 0

    def add_event(self, ev: Mapping[str, Any]) -> None:
        """Fold one trace event; must be called in ``seq`` order."""
        frame = ev.get("frame")
        name = ev.get("event")
        if frame is None:
            if name == "core.playback_state" and ev.get("state") == "stalled":
                self.stalls += 1
            return
        unit = ev.get("unit")
        gk = (None if unit is None else str(unit), int(frame))
        if name in ANNOTATION_EVENTS:
            # An annotation joins its frame only if the frame has opened.
            if name == "core.frame_played" and gk in self._opened:
                self.played += 1
            return
        index = self._open.get(gk)
        if index is None:
            index = self._opens
            self._opens += 1
            self._open[gk] = index
            self._opened.add(gk)
        if name == "net.frame_outcome":
            del self._open[gk]
            self.closed.append((
                index,
                gk[0],
                ev.get("airtime_s", 0.0),
                ev.get("lost_users", ()),
                ev.get("delivered_users", ()),
            ))

    def finalize(self) -> "SloAccumulator":
        """Put the closed rows in open-index order; returns ``self``."""
        self.closed.sort(key=itemgetter(0))
        return self


def fold_events(events: Iterable[Mapping[str, Any]]) -> SloAccumulator:
    """Fold an event list in ``seq`` order (sorted stably, as
    :func:`~repro.obs.spans.reconstruct` does) into a finalized fold."""
    acc = SloAccumulator()
    for ev in sorted(events, key=seq_key):
        acc.add_event(ev)
    return acc.finalize()


def fold_trace(path: Path | str) -> SloAccumulator:
    """Fold a ``repro trace`` JSONL file in one streaming pass.

    Trace files are written in ``seq`` order, so the file streams straight
    through the fold.  Should the ``seq`` key ever go down, the file is
    re-read whole and refolded in sorted order, which keeps the result
    equal to :func:`fold_events` over :func:`~repro.obs.spans.load_events`
    for every input.
    """
    acc = SloAccumulator()
    try:
        for ev in iter_events_in_order(path):
            acc.add_event(ev)
    except SeqOrderError:
        return fold_events(load_events(path))
    return acc.finalize()


@dataclass(frozen=True)
class SloMetric:
    """One registered service-level metric computed from a trace."""

    name: str
    unit: str
    help: str
    compute: Callable[[SloAccumulator], float | None]

    def describe(self) -> dict[str, Any]:
        """Static metadata — the METRICS.md generator input."""
        return {"name": self.name, "unit": self.unit, "help": self.help}


SLO_METRICS: dict[str, SloMetric] = {}


def _metric(
    name: str, unit: str, help: str
) -> Callable[[Callable[[SloAccumulator], float | None]], SloMetric]:
    def register(fn: Callable[[SloAccumulator], float | None]) -> SloMetric:
        declared = SloMetric(name=name, unit=unit, help=help, compute=fn)
        SLO_METRICS[name] = declared
        return declared

    return register


def _users(raw: Any) -> tuple[int, ...]:
    return tuple(int(u) for u in raw)


@_metric(
    "frame_loss_rate", "fraction",
    "closed frame delivery attempts with at least one user's frame lost, "
    "over all closed attempts",
)
def _frame_loss_rate(fold: SloAccumulator) -> float | None:
    closed = fold.closed
    if not closed:
        return None
    lost = sum(1 for row in closed if _users(row[3]))
    return lost / len(closed)


@_metric(
    "stall_rate", "stalls/frame",
    "closed loop only: playback stall onsets per played frame, from "
    "core.playback_state and core.frame_played events",
)
def _stall_rate(fold: SloAccumulator) -> float | None:
    if fold.played == 0:
        return None
    return fold.stalls / fold.played


@_metric(
    "p95_frame_latency_s", "s",
    "95th percentile (nearest-rank) of end-to-end frame delivery latency "
    "over closed attempts",
)
def _p95_frame_latency_s(fold: SloAccumulator) -> float | None:
    latencies = sorted(float(row[2]) for row in fold.closed)
    if not latencies:
        return None
    rank = max(1, math.ceil(0.95 * len(latencies)))
    return latencies[rank - 1]


@_metric(
    "min_user_delivered_fps", "fps",
    "per-user delivered-frame-rate floor: for each (unit, user), frames "
    "delivered divided by the unit's total delivery airtime; the minimum "
    "over all users",
)
def _min_user_delivered_fps(fold: SloAccumulator) -> float | None:
    airtime_by_unit: dict[str | None, float] = {}
    delivered: dict[tuple[str | None, int], int] = {}
    seen_users: set[tuple[str | None, int]] = set()
    for _, unit, airtime_s, lost_users, delivered_users in fold.closed:
        airtime_by_unit[unit] = airtime_by_unit.get(unit, 0.0) + float(airtime_s)
        for u in _users(delivered_users):
            key = (unit, u)
            seen_users.add(key)
            delivered[key] = delivered.get(key, 0) + 1
        for u in _users(lost_users):
            seen_users.add((unit, u))
    if not seen_users:
        return None
    floor: float | None = None
    for key in sorted(seen_users, key=lambda k: (k[0] or "", k[1])):
        unit_airtime = airtime_by_unit.get(key[0], 0.0)
        count = delivered.get(key, 0)
        if unit_airtime <= 0:
            fps = 0.0 if count == 0 else float("inf")
        else:
            fps = count / unit_airtime
        floor = fps if floor is None else min(floor, fps)
    return floor


@dataclass(frozen=True)
class SloEntry:
    """One declared bound: ``metric <= max`` or ``metric >= min``."""

    metric: str
    bound: float
    kind: str  # "max" | "min"

    def __post_init__(self) -> None:
        if self.metric not in SLO_METRICS:
            known = ", ".join(sorted(SLO_METRICS))
            raise ValueError(
                f"unknown SLO metric {self.metric!r} (known: {known})"
            )
        if self.kind not in ("max", "min"):
            raise ValueError(f"SLO kind must be 'max' or 'min', got {self.kind!r}")
        if not math.isfinite(self.bound):
            raise ValueError("SLO bound must be finite")


@dataclass(frozen=True)
class SloResult:
    """The verdict for one spec entry against one trace."""

    entry: SloEntry
    value: float | None
    ok: bool

    def to_jsonable(self) -> dict[str, Any]:
        """Canonical JSON shape for CI artifacts."""
        return {
            "metric": self.entry.metric,
            "kind": self.entry.kind,
            "bound": self.entry.bound,
            "value": self.value,
            "ok": self.ok,
        }


def load_spec(path: Path | str) -> list[SloEntry]:
    """Parse and validate an SLO spec file into entries."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("slos"), list):
        raise ValueError(f"{path}: expected an object with an 'slos' list")
    entries: list[SloEntry] = []
    for i, raw in enumerate(doc["slos"]):
        if not isinstance(raw, dict) or "metric" not in raw:
            raise ValueError(f"{path}: slos[{i}] needs a 'metric' key")
        has_max = "max" in raw
        has_min = "min" in raw
        if has_max == has_min:
            raise ValueError(
                f"{path}: slos[{i}] needs exactly one of 'max' or 'min'"
            )
        kind = "max" if has_max else "min"
        entries.append(
            SloEntry(
                metric=str(raw["metric"]),
                bound=float(raw[kind]),
                kind=kind,
            )
        )
    if not entries:
        raise ValueError(f"{path}: spec declares no SLOs")
    return entries


def evaluate_spec(
    entries: list[SloEntry], fold: SloAccumulator
) -> list[SloResult]:
    """Evaluate every entry against a finalized fold; a metric the trace
    cannot supply fails it."""
    results: list[SloResult] = []
    for entry in entries:
        value = SLO_METRICS[entry.metric].compute(fold)
        if value is None:
            ok = False
        elif entry.kind == "max":
            ok = value <= entry.bound
        else:
            ok = value >= entry.bound
        results.append(SloResult(entry=entry, value=value, ok=ok))
    return results


def format_results(results: list[SloResult]) -> str:
    """Per-SLO verdict lines plus a PASS/FAIL summary."""
    lines = []
    for r in results:
        op = "<=" if r.entry.kind == "max" else ">="
        shown = "unavailable" if r.value is None else f"{r.value:.6g}"
        verdict = "ok  " if r.ok else "FAIL"
        lines.append(
            f"[{verdict}] {r.entry.metric} = {shown} "
            f"(required {op} {r.entry.bound:.6g})"
        )
    violations = sum(1 for r in results if not r.ok)
    lines.append(
        f"SLO check: {'PASS' if violations == 0 else 'FAIL'} "
        f"({len(results) - violations}/{len(results)} satisfied)"
    )
    return "\n".join(lines)


def results_jsonable(results: list[SloResult]) -> dict[str, Any]:
    """Canonical JSON document for an SLO evaluation (CI artifact shape)."""
    return {
        "schema": "repro.obs.slo/1",
        "ok": all(r.ok for r in results),
        "results": [r.to_jsonable() for r in results],
    }
