"""Bounded-memory streaming aggregation of trace timelines.

The batch observability pipeline (``load_events`` → ``reconstruct`` →
``analyze``) holds the whole trace, every span group, and every per-frame
attribution in memory at once — fine for a loss sweep, hostile at venue
scale (ROADMAP: 10 rooms / ~11k sessions and growing).  This module is
the single-pass alternative: every event is folded into constant-size
accumulators the moment it is seen, closed frame groups are dropped as
soon as their attribution lands, and the only per-key residual is one
occurrence counter per distinct ``(unit, frame)``.

Bit-identity with the batch path is *by construction*, not by luck:

* :func:`repro.obs.analyze.analyze` is itself a fold over
  :class:`AnalyzeAccumulator`, so batch and streamed reports can only
  differ if the event order differs — and trace files are written in
  ``seq`` order, which is exactly the order batch sorts into.
* Cross-frame sums use :class:`ExactSum` (Shewchuk's exact partials, the
  machinery behind :func:`math.fsum`): the rounded total is the correctly
  rounded value of the *real* sum, so it is invariant under event
  reordering across frames and under accumulator merging at any shard
  boundary — ``tests/obs/test_stream.py`` asserts both with ``==``.

The cross-shard contract for :meth:`AnalyzeAccumulator.merge`: each
accumulator must have consumed a *unit-disjoint* slice of the timeline
(the shard planner splits at room/spec boundaries, so ``(unit, frame)``
span groups never straddle accumulators), and merging in spec order
yields the same report as one accumulator over the concatenated stream.
"""

from __future__ import annotations

import bisect
import math
from pathlib import Path
from typing import Any, Iterable, Mapping

from .analyze import (
    SEGMENTS,
    SEGMENT_ORDER,
    close_attribution,
    fold_event_into_segments,
)
from .spans import ANNOTATION_EVENTS, iter_events_in_order

__all__ = [
    "ExactSum",
    "LATENCY_HIST_EDGES",
    "LatencyHistogram",
    "AnalyzeAccumulator",
    "stream_analyze",
]


class ExactSum:
    """An exactly-rounded, mergeable running sum of floats.

    Maintains Shewchuk's non-overlapping partials (the :func:`math.fsum`
    algorithm) so :meth:`value` is the correctly rounded sum of the *real*
    (infinite-precision) total.  Because the real total is independent of
    addition order, so is the rounded value — which is what makes
    shard-split accumulation bit-identical to a single pass, where a plain
    ``+=`` would drift by a few ulps per reordering.
    """

    __slots__ = ("_partials",)

    def __init__(self, value: float = 0.0) -> None:
        self._partials: list[float] = [float(value)] if value else []

    def add(self, x: float) -> None:
        """Fold one float in exactly."""
        partials = self._partials
        x = float(x)
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    def merge(self, other: "ExactSum") -> None:
        """Fold another exact sum in; exact, so order never matters."""
        for y in other._partials:
            self.add(y)

    def value(self) -> float:
        """The correctly rounded total (bit-identical to ``math.fsum`` of
        every value ever added, in any order)."""
        return math.fsum(self._partials)


# Fixed latency-histogram bucket edges (seconds): sub-frame-time buckets
# around the 30/60 fps deadlines up to a one-second overflow.
LATENCY_HIST_EDGES: tuple[float, ...] = (
    0.005, 0.01, 0.0167, 0.0333, 0.05, 0.1, 0.2, 0.5, 1.0,
)


class LatencyHistogram:
    """A fixed-edge histogram whose merge is order-invariant.

    Bucket counts are integers (exact under any ordering) and the running
    sum is an :class:`ExactSum`, so histograms built from differently
    ordered or differently sharded event streams finalize bit-identically
    (property-tested with hypothesis in ``tests/obs/test_stream.py``).
    """

    __slots__ = ("edges", "_counts", "_sum", "_count")

    def __init__(self, edges: Iterable[float] = LATENCY_HIST_EDGES) -> None:
        self.edges = tuple(float(e) for e in edges)
        if any(b <= a for a, b in zip(self.edges, self.edges[1:])):
            raise ValueError("histogram edges must strictly increase")
        self._counts = [0] * (len(self.edges) + 1)
        self._sum = ExactSum()
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one sample (first bucket whose edge >= value)."""
        self._counts[bisect.bisect_left(self.edges, value)] += 1
        self._sum.add(value)
        self._count += 1

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram in (edges must match)."""
        if self.edges != other.edges:
            raise ValueError("cannot merge histograms with different edges")
        self._counts = [a + b for a, b in zip(self._counts, other._counts)]
        self._sum.merge(other._sum)
        self._count += other._count

    def to_jsonable(self) -> dict[str, Any]:
        """Canonical JSON shape (mirrors the metrics-registry histogram)."""
        return {
            "edges": list(self.edges),
            "counts": list(self._counts),
            "sum": self._sum.value(),
            "count": self._count,
        }


class _BlameAcc:
    """One blame-table row under construction: exact per-segment sums."""

    __slots__ = ("frames", "airtime", "seg")

    def __init__(self) -> None:
        self.frames = 0
        self.airtime = ExactSum()
        self.seg = {name: ExactSum() for name in SEGMENT_ORDER}

    def fold(self, seg: Mapping[str, float], airtime_s: float) -> None:
        self.frames += 1
        self.airtime.add(airtime_s)
        for name in SEGMENT_ORDER:
            self.seg[name].add(seg[name])

    def merge(self, other: "_BlameAcc") -> None:
        self.frames += other.frames
        self.airtime.merge(other.airtime)
        for name in SEGMENT_ORDER:
            self.seg[name].merge(other.seg[name])

    def copy(self) -> "_BlameAcc":
        clone = _BlameAcc()
        clone.merge(self)
        return clone

    def finalize(self) -> dict[str, Any]:
        """The canonical blame-entry shape of the analyze report."""
        airtime = self.airtime.value()
        totals = {name: self.seg[name].value() for name in SEGMENT_ORDER}
        segments = {
            name: {
                "seconds": totals[name],
                "share": (totals[name] / airtime) if airtime > 0 else 0.0,
            }
            for name in SEGMENT_ORDER
        }
        by_layer: dict[str, float] = {}
        for name in SEGMENT_ORDER:
            layer = SEGMENTS[name].layer
            by_layer[layer] = by_layer.get(layer, 0.0) + totals[name]
        return {
            "frames": self.frames,
            "airtime_s": airtime,
            "segments": segments,
            "by_layer": {layer: by_layer[layer] for layer in sorted(by_layer)},
        }


class _OpenFrame:
    """In-flight span group: just enough state to attribute it at close."""

    __slots__ = (
        "unit", "frame", "occurrence", "room", "ap", "seg", "saw_breakdown",
    )

    def __init__(self, unit: str | None, frame: int, occurrence: int) -> None:
        self.unit = unit
        self.frame = frame
        self.occurrence = occurrence
        self.room: str | None = None
        self.ap: str | None = None
        self.seg = {name: 0.0 for name in SEGMENT_ORDER}
        self.saw_breakdown = False


_ADMISSION_EVENTS = {
    "scenario.user_arrival": "arrivals",
    "scenario.user_rejected": "rejected",
    "scenario.user_departure": "departures",
}


class AnalyzeAccumulator:
    """Single-pass, mergeable construction of the ``analyze`` report.

    Feed events in ``seq`` order via :meth:`add_event`; closed frames are
    attributed immediately (sharing the exact fold rules of
    :func:`repro.obs.analyze.attribute_frame`) and dropped, so memory
    stays bounded by the number of *concurrently open* frames, not the
    trace length.  :meth:`merge` folds another accumulator built from a
    unit-disjoint stream slice; :meth:`finalize` emits the canonical
    report dict (``repro.obs.analyze/2``).
    """

    def __init__(self, top: int = 5) -> None:
        self.top = max(0, int(top))
        self.num_events = 0
        self.frames_total = 0
        self.status_counts = {"on_time": 0, "late": 0, "lost": 0}
        self.blame_all = _BlameAcc()
        self.blame_late = _BlameAcc()
        self.blame_lost = _BlameAcc()
        self.latency_hist = LatencyHistogram()
        self._units: set[str] = set()
        # (room, ap) -> [_BlameAcc, late, lost]
        self._shards: dict[tuple[str, str], list[Any]] = {}
        # (room, ap) -> admission tallies
        self._admission: dict[tuple[str, str], dict[str, Any]] = {}
        # decision event name -> policy label -> count
        self._policies: dict[str, dict[str, int]] = {}
        # sorted [( (-airtime, key), worst-frame entry ), ...], len <= top
        self._worst: list[tuple[tuple, dict[str, Any]]] = []
        # (unit, frame) -> open group / occurrence counter
        self._open: dict[tuple[str | None, int], _OpenFrame] = {}
        self._occurrences: dict[tuple[str | None, int], int] = {}

    # -- folding ---------------------------------------------------------

    def add_event(self, ev: Mapping[str, Any]) -> None:
        """Fold one trace event; must be called in ``seq`` order."""
        self.num_events += 1
        name = ev.get("event")
        unit = ev.get("unit")
        unit_s = None if unit is None else str(unit)
        if unit_s is not None:
            self._units.add(unit_s)

        policy = ev.get("policy")
        if policy is not None and name:
            per = self._policies.setdefault(str(name), {})
            label = str(policy)
            per[label] = per.get(label, 0) + 1

        counter = _ADMISSION_EVENTS.get(name or "")
        if counter is not None:
            self._fold_admission(ev, counter)

        frame = ev.get("frame")
        if frame is None or name in ANNOTATION_EVENTS:
            # Unframed events and after-the-fact annotations contribute to
            # the event count (and the tallies above) but never to a span
            # group — exactly the batch reconstruction's accounting.
            return

        gk = (unit_s, int(frame))
        group = self._open.get(gk)
        if group is None:
            index = self._occurrences.get(gk, 0)
            self._occurrences[gk] = index + 1
            group = _OpenFrame(unit_s, int(frame), index)
            self._open[gk] = group
            self.frames_total += 1
        if group.room is None and ev.get("room") is not None:
            group.room = str(ev["room"])
        if group.ap is None and ev.get("ap") is not None:
            group.ap = str(ev["ap"])
        group.saw_breakdown |= fold_event_into_segments(group.seg, ev)
        if name == "net.frame_outcome":
            self._close(group, ev)
            del self._open[gk]

    def _fold_admission(self, ev: Mapping[str, Any], counter: str) -> None:
        key = (str(ev.get("room") or ""), str(ev.get("ap") or ""))
        row = self._admission.get(key)
        if row is None:
            row = {
                "arrivals": 0, "rejected": 0, "departures": 0,
                "peak_occupancy": 0, "capacity": None,
            }
            self._admission[key] = row
        row[counter] += 1
        active = ev.get("active")
        if active is not None:
            row["peak_occupancy"] = max(row["peak_occupancy"], int(active))
        capacity = ev.get("capacity")
        if capacity is not None:
            cap = int(capacity)
            if row["capacity"] is None or cap > row["capacity"]:
                row["capacity"] = cap

    def _close(self, group: _OpenFrame, outcome: Mapping[str, Any]) -> None:
        airtime = float(outcome.get("airtime_s", 0.0))
        close_attribution(group.seg, airtime, group.saw_breakdown)

        lost_users = [int(u) for u in outcome.get("lost_users", ())]
        deadline = outcome.get("deadline_s")
        deadline_f = None if deadline is None else float(deadline)
        if lost_users:
            status = "lost"
        elif deadline_f is not None and airtime > deadline_f:
            status = "late"
        else:
            status = "on_time"

        self.status_counts[status] += 1
        self.blame_all.fold(group.seg, airtime)
        if status == "late":
            self.blame_late.fold(group.seg, airtime)
        elif status == "lost":
            self.blame_lost.fold(group.seg, airtime)
        self.latency_hist.observe(airtime)

        if group.room is not None or group.ap is not None:
            sk = (group.room or "", group.ap or "")
            shard = self._shards.get(sk)
            if shard is None:
                shard = [_BlameAcc(), 0, 0]
                self._shards[sk] = shard
            shard[0].fold(group.seg, airtime)
            if status == "late":
                shard[1] += 1
            elif status == "lost":
                shard[2] += 1

        if self.top:
            entry = {
                "unit": group.unit,
                "frame": group.frame,
                "occurrence": group.occurrence,
                "status": status,
                "airtime_s": airtime,
                "deadline_s": deadline_f,
                "lost_users": lost_users,
                "segments": {
                    name: group.seg[name] for name in SEGMENT_ORDER
                },
            }
            sort_key = (
                -airtime, (group.unit or "", group.frame, group.occurrence),
            )
            bisect.insort(self._worst, (sort_key, entry))
            del self._worst[self.top:]

    # -- merging ---------------------------------------------------------

    def merge(self, other: "AnalyzeAccumulator") -> None:
        """Fold another accumulator built from a unit-disjoint slice.

        Exact sums make the numeric totals independent of merge order;
        call in spec order anyway so any still-open groups and the worst
        tie-breaks stay deterministic and documentation-friendly.
        """
        if self.top != other.top:
            raise ValueError("cannot merge accumulators with different top")
        overlap = self._occurrences.keys() & other._occurrences.keys()
        if overlap:
            raise ValueError(
                "accumulators overlap on (unit, frame) keys — shard streams "
                f"must be unit-disjoint; e.g. {sorted(overlap)[:3]}"
            )
        self.num_events += other.num_events
        self.frames_total += other.frames_total
        for status, count in other.status_counts.items():
            self.status_counts[status] += count
        self.blame_all.merge(other.blame_all)
        self.blame_late.merge(other.blame_late)
        self.blame_lost.merge(other.blame_lost)
        self.latency_hist.merge(other.latency_hist)
        self._units |= other._units
        for sk, (acc, late, lost) in sorted(other._shards.items()):
            shard = self._shards.get(sk)
            if shard is None:
                self._shards[sk] = [acc.copy(), late, lost]
            else:
                shard[0].merge(acc)
                shard[1] += late
                shard[2] += lost
        for key, row in other._admission.items():
            mine = self._admission.get(key)
            if mine is None:
                self._admission[key] = dict(row)
                continue
            for counter in ("arrivals", "rejected", "departures"):
                mine[counter] += row[counter]
            mine["peak_occupancy"] = max(
                mine["peak_occupancy"], row["peak_occupancy"]
            )
            if row["capacity"] is not None and (
                mine["capacity"] is None or row["capacity"] > mine["capacity"]
            ):
                mine["capacity"] = row["capacity"]
        for name, per in other._policies.items():
            mine_p = self._policies.setdefault(name, {})
            for label, count in per.items():
                mine_p[label] = mine_p.get(label, 0) + count
        merged_worst = sorted(self._worst + other._worst)
        del merged_worst[self.top:]
        self._worst = merged_worst
        self._open.update(other._open)
        self._occurrences.update(other._occurrences)

    # -- finalizing ------------------------------------------------------

    def finalize(self) -> dict[str, Any]:
        """Emit the canonical analyze report (``repro.obs.analyze/2``)."""
        problem = self.blame_late.copy()
        problem.merge(self.blame_lost)
        closed = self.blame_all.frames
        by_shard = [
            {
                "room": room,
                "ap": ap,
                "late": self._shards[(room, ap)][1],
                "lost": self._shards[(room, ap)][2],
                **self._shards[(room, ap)][0].finalize(),
            }
            for room, ap in sorted(self._shards)
        ]
        admission = [
            {"room": room, "ap": ap, **self._admission[(room, ap)]}
            for room, ap in sorted(self._admission)
        ]
        return {
            "schema": "repro.obs.analyze/2",
            "num_events": self.num_events,
            "units": sorted(self._units),
            "frames": {
                "total": self.frames_total,
                "closed": closed,
                "incomplete": self.frames_total - closed,
                "on_time": self.status_counts["on_time"],
                "late": self.status_counts["late"],
                "lost": self.status_counts["lost"],
            },
            "blame": {
                "all": self.blame_all.finalize(),
                "late": self.blame_late.finalize(),
                "lost": self.blame_lost.finalize(),
                "problem": problem.finalize(),
            },
            "by_shard": by_shard,
            "worst_frames": [entry for _, entry in self._worst],
            "admission": admission,
            "policies": {
                name: {
                    label: self._policies[name][label]
                    for label in sorted(self._policies[name])
                }
                for name in sorted(self._policies)
            },
            "latency_hist": self.latency_hist.to_jsonable(),
        }


def stream_analyze(
    paths: Path | str | Iterable[Path | str], top: int = 5
) -> dict[str, Any]:
    """Analyze one or more trace files in a single bounded-memory pass.

    Events stream straight from disk
    (:func:`repro.obs.spans.iter_events_in_order`) into one
    :class:`AnalyzeAccumulator`, file by file in the given order.  Trace
    files written by ``repro trace`` are in ``seq`` order, and for them
    the report is bit-identical to ``analyze(load_events(path))``.  A file
    whose ``seq`` goes down is rejected with a
    :class:`~repro.obs.spans.SeqOrderError` naming the line: batch
    ``analyze`` sorts such a file first, which bounded memory rules out.
    """
    if isinstance(paths, (str, Path)):
        paths = [paths]
    acc = AnalyzeAccumulator(top=top)
    for path in paths:
        for ev in iter_events_in_order(path):
            acc.add_event(ev)
    return acc.finalize()
