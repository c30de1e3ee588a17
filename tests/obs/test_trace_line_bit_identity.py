"""Trace JSON lines: both recorders against the original line serializer.

The reference is the serializer both recorders used before they shared
one line-dict helper and one module-level encoder: build a
:class:`TraceEvent`, take its ``to_jsonable`` dict, and ``json.dumps`` it.
The bodies are copied verbatim and the lines compared with exact ``==``.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from hypothesis import given, settings, strategies as st

from repro.obs.trace import (
    StreamingTraceRecorder,
    TraceEvent,
    TraceEventType,
    TraceRecorder,
)

# -- reference: the pre-change serializer, verbatim -------------------------


@dataclass(frozen=True)
class _RefTraceEvent:
    """One recorded occurrence: where on the timeline, what, and details."""

    t: float  # sim time the event was emitted at
    seq: int  # global emission order (total tie-break)
    layer: str  # sim | net | mac | core | runner
    event: str  # registered event-type name
    fields: dict[str, Any] = field(default_factory=dict)

    def to_jsonable(self) -> dict[str, Any]:
        """Canonical JSON-line shape (stable key order)."""
        return {
            "t": self.t,
            "seq": self.seq,
            "layer": self.layer,
            "event": self.event,
            **{k: self.fields[k] for k in sorted(self.fields)},
        }


def _ref_line(now, context, kind, t, seq, fields):
    merged = {**context, **fields} if context else dict(fields)
    ev = _RefTraceEvent(
        t=now if t is None else float(t),
        seq=seq,
        layer=kind.layer,
        event=kind.name,
        fields=merged,
    )
    return json.dumps(ev.to_jsonable(), sort_keys=False, separators=(",", ":"))


# -- strategies -------------------------------------------------------------

# Not registered: the event catalog stays as the program declares it.
_KIND = TraceEventType("test.bit_identity", "net", "", ())

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=8),  # includes non-ASCII and control characters
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=12,
)
# Field names include the header keys, which a field overrides in place.
_keys = st.one_of(
    st.sampled_from(
        ["t", "seq", "layer", "event", "unit", "frame", "users", "ä", "z"]
    ),
    st.text(min_size=1, max_size=5),
)
_field_maps = st.dictionaries(_keys, _values, max_size=6)
_times = st.one_of(
    st.none(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(10**6), max_value=10**6),
)


@given(
    st.lists(st.tuples(_times, _field_maps), min_size=1, max_size=6),
    _field_maps,
    st.floats(allow_nan=True, allow_infinity=True),
)
@settings(max_examples=200, deadline=None)
def test_both_recorders_write_the_reference_lines(emits, context, now):
    expected = [
        _ref_line(now, context, _KIND, t, seq, fields)
        for seq, (t, fields) in enumerate(emits)
    ]

    batch = TraceRecorder()
    batch.now = now
    batch.set_context(**context)
    for t, fields in emits:
        batch.record(_KIND, t, fields)
    assert list(batch.jsonl_lines()) == expected
    assert [ev.to_jsonable() for ev in batch.events] == [
        _RefTraceEvent(ev.t, ev.seq, ev.layer, ev.event, ev.fields)
        .to_jsonable()
        for ev in batch.events
    ]

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.jsonl"
        stream = StreamingTraceRecorder(path, flush_every=2)
        stream.now = now
        stream.set_context(**context)
        for t, fields in emits:
            stream.record(_KIND, t, dict(fields))
        stream.close()
        written = path.read_text(encoding="utf-8")
    assert written == "".join(line + "\n" for line in expected)


def test_header_named_field_overrides_in_place():
    ev = TraceEvent(t=1.0, seq=3, layer="net", event="x",
                    fields={"z": 1, "seq": 9, "a": 2})
    assert list(ev.to_jsonable().items()) == [
        ("t", 1.0), ("seq", 9), ("layer", "net"), ("event", "x"),
        ("a", 2), ("z", 1),
    ]
