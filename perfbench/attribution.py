"""Span files and the per-layer metrics derived from them.

A traced run writes its spans once, after the root span closes: one JSON
header line (the span-name table and the span count) followed by four
little-endian arrays -- name id (int32), start and end (float64 host
seconds), parent index (int32, -1 for a root).

A span's *self time* is its duration minus the durations of its direct
children.  Summed over every span of a tree the self times telescope to
the root's duration, which is why the per-layer self times plus
``unattributed_s`` (the self time of glue spans) add up to the root span.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from layers import (
    LAYERS,
    ROOT,
    SYNTH_ENTRY,
    UNIT_ENTRY,
    layer_of,
)

VISIBILITY_ENTRIES = (
    "repro.pointcloud.visibility:compute_visibility",
    "repro.pointcloud.visibility:compute_visibility_batch",
)
FRUSTUM_ENTRY = "repro.geometry.frustum:Frustum.__init__"
STUDY_ENTRY = "repro.traces.userstudy:generate_user_study"
ANALYZE_STEP = "perfbench:obs-analyze"
CHECK_STEP = "perfbench:obs-check"


@dataclass(frozen=True)
class Spans:
    """The spans of one traced run, column-wise."""

    names: list[str]
    name_id: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray

    def __len__(self) -> int:
        return len(self.name_id)

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        """Each span's duration minus its direct children's durations."""
        dur = self.duration
        children = np.zeros(len(self))
        has_parent = self.parent >= 0
        np.add.at(children, self.parent[has_parent], dur[has_parent])
        return dur - children

    def ids_of(self, names: Sequence[str]) -> np.ndarray:
        """Boolean mask of the spans whose name is in ``names``."""
        wanted = set(names)
        ids = [i for i, name in enumerate(self.names) if name in wanted]
        return np.isin(self.name_id, ids)

    def count(self, *names: str) -> int:
        return int(self.ids_of(names).sum())

    def total(self, *names: str) -> float:
        return float(self.duration[self.ids_of(names)].sum())


def write_spans(
    path: Path,
    names: list[str],
    name_id: array,
    start: array,
    end: array,
    parent: array,
) -> Path:
    """Write spans in the format described in the module docstring."""
    header = json.dumps({"names": names, "count": len(name_id)}) + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        for column, code in ((name_id, "i"), (start, "d"), (end, "d"), (parent, "i")):
            if column.typecode != code:
                raise TypeError(f"span column has type {column.typecode}, want {code}")
            fh.write(column.tobytes())
    return path


def read_spans(path: Path) -> Spans:
    """Read a span file written by :func:`write_spans`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        body = fh.read()
    n = int(header["count"])
    sizes = (("<i4", 4), ("<f8", 8), ("<f8", 8), ("<i4", 4))
    columns, offset = [], 0
    for dtype, width in sizes:
        columns.append(np.frombuffer(body, dtype=dtype, count=n, offset=offset))
        offset += n * width
    if offset != len(body):
        raise ValueError(f"{path}: {len(body) - offset} trailing byte(s)")
    return Spans(header["names"], *columns)


def check_nesting(spans: Spans) -> list[str]:
    """Problems with the span tree; empty when every span nests.

    Every span must end at or after it starts, lie inside its parent's
    interval, and start after its parent (parents are recorded first).
    """
    problems = []
    idx = np.arange(len(spans))
    bad = np.flatnonzero(spans.end < spans.start)
    problems += [f"span {i} ends before it starts" for i in bad[:5]]
    child = idx[spans.parent >= 0]
    par = spans.parent[child]
    if np.any(par >= child):
        problems.append("a parent index does not precede its child")
    outside = child[
        (spans.start[child] < spans.start[par]) | (spans.end[child] > spans.end[par])
    ]
    problems += [
        f"span {i} ({spans.names[spans.name_id[i]]}) lies outside its parent"
        for i in outside[:5]
    ]
    roots = idx[spans.parent < 0]
    if len(roots) != 1 or spans.names[spans.name_id[roots[0]]] != ROOT:
        problems.append(f"want exactly one root span {ROOT!r}, found {len(roots)}")
    return problems


def layer_self_times(spans: Spans) -> tuple[dict[str, float], float, float]:
    """``(self seconds per layer, unattributed seconds, root seconds)``."""
    self_time = spans.self_time()
    span_layer = np.array(
        [LAYERS.index(layer_of(n)) if layer_of(n) else -1 for n in spans.names]
        or [-1],
        dtype=np.int64,
    )[spans.name_id]
    per_layer = {
        layer: float(self_time[span_layer == i].sum()) for i, layer in enumerate(LAYERS)
    }
    unattributed = float(self_time[span_layer < 0].sum())
    root = float(spans.duration[spans.parent < 0].sum())
    return per_layer, unattributed, root


def _counter(snapshot: Mapping[str, Any], name: str) -> float:
    entry = snapshot.get(name)
    return float(entry["value"]) if entry and entry.get("value") is not None else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: Spans, counters: Mapping[str, Any], extras: Mapping[str, Any]
) -> dict[str, float]:
    """Every per-layer metric of one traced repetition (trace_overhead aside).

    ``counters`` is the program's merged metrics snapshot and ``extras``
    the workload's own observations (distinct synthesis keys, trace-file
    sizes and event counts).  A ratio whose base is zero reads 0.
    """
    per_layer, unattributed, _ = layer_self_times(spans)
    out = {f"{layer}.self_s": per_layer[layer] for layer in LAYERS}
    mac_ids = [i for i, n in enumerate(spans.names) if layer_of(n) == "mac"]
    out["mac.calls"] = float(np.isin(spans.name_id, mac_ids).sum())
    plans = _counter(counters, "mac.frame_plans_built")
    decisions = _counter(counters, "core.grouping_decisions")
    out["mac.frame_plans_built"] = plans
    out["mac.plans_per_decision"] = _ratio(plans, decisions)
    synth = spans.count(SYNTH_ENTRY)
    out["pointcloud.synth_calls"] = float(synth)
    out["pointcloud.synth_reuse"] = _ratio(extras.get("synth_keys", 0), synth)
    vis = spans.ids_of(VISIBILITY_ENTRIES)
    parent_vis = np.zeros(len(spans), dtype=bool)
    has_parent = spans.parent >= 0
    parent_vis[has_parent] = vis[spans.parent[has_parent]]
    out["pointcloud.visibility_calls"] = float((vis & ~parent_vis).sum())
    out["geometry.frustum_builds"] = float(spans.count(FRUSTUM_ENTRY))
    out["core.grouping_decisions"] = decisions
    out["core.frames_played"] = _counter(counters, "core.frames_played")
    fired = _counter(counters, "sim.events_fired")
    out["sim.events_fired"] = fired
    out["sim.host_us_per_event"] = _ratio(per_layer["sim"] * 1e6, fired)
    out["net.packets_sent"] = _counter(counters, "net.packets_sent")
    out["net.goodput_ratio"] = _ratio(
        _counter(counters, "net.app_bytes_delivered"),
        _counter(counters, "net.wire_bytes_sent"),
    )
    delivered = _counter(counters, "net.user_frames_delivered")
    out["net.frame_delivery_ratio"] = _ratio(
        delivered, delivered + _counter(counters, "net.user_frames_lost")
    )
    out["scenario.room_ticks"] = _counter(counters, "scenario.room_ticks")
    out["traces.study_calls"] = float(spans.count(STUDY_ENTRY))
    out["obs.events_recorded"] = float(extras.get("events_recorded", 0))
    out["obs.trace_mb"] = float(extras.get("trace_bytes", 0)) / 1e6
    out["obs.analyze_s"] = spans.total(ANALYZE_STEP)
    out["obs.check_s"] = spans.total(CHECK_STEP)
    out["runner.units"] = float(spans.count(UNIT_ENTRY))
    out["unattributed_s"] = unattributed
    return out
