"""Structured trace events: a sim-time-ordered timeline of what happened.

Instrumented modules declare their event types **at module scope**, which
both registers them in the catalog (so ``docs/METRICS.md`` can enumerate
them) and gives the call site a near-zero disabled fast path::

    from repro.obs import trace as _t

    _EV_ROUND = _t.event_type(
        "net.arq_round", layer="net",
        help="one completed block-ACK round",
        fields=("round", "packets", "pending"),
    )
    ...
    _EV_ROUND.emit(t=env.now, round=r, packets=n, pending=left)

``emit`` checks the module-global recorder and returns immediately when no
recording is active; truly hot paths (the sim engine inner loop) guard the
call itself with :func:`active` so not even the kwargs dict is built.

Recording is explicit: install a :class:`TraceRecorder` (directly or via
the :func:`recording` context manager), run the workload, then write the
timeline with :meth:`TraceRecorder.write_jsonl`.  Events carry the sim
time they were emitted at; within one :class:`~repro.sim.Environment` run
the emission order *is* sim-time order (the engine fires events in time
order), and the monotonically increasing ``seq`` field makes the total
order explicit across equal timestamps and across successive private
clocks (e.g. one transport simulation per frame).

Nothing here reads a clock or an RNG: tracing on/off cannot change any
experiment result (asserted by ``tests/obs/test_equivalence.py``).
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

__all__ = [
    "TraceEvent",
    "TraceEventType",
    "TraceRecorder",
    "StreamingTraceRecorder",
    "EVENT_TYPES",
    "CORRELATION_FIELDS",
    "correlation",
    "event_type",
    "install",
    "uninstall",
    "active",
    "recording",
    "streaming_recording",
]

# The cross-layer join keys: every tap that knows one of these attaches it,
# so span reconstruction (repro.obs.spans) joins events structurally instead
# of guessing from emission order.  ``unit`` is ambient recorder context (the
# RunSpec key, set by the trace CLI); ``room``/``ap`` are ambient shard
# context (set per room by the scenario shard engine); the rest are
# per-event fields.
CORRELATION_FIELDS = ("unit", "room", "ap", "frame", "user", "users")


def correlation(
    frame: int | None = None,
    user: int | None = None,
    users: tuple[int, ...] | None = None,
    room: str | None = None,
    ap: str | None = None,
) -> dict[str, Any]:
    """Correlation fields for an ``emit`` call, omitting the unknown ones.

    Taps deep in the stack (ARQ rounds, FEC blocks) receive the frame index
    and receiver ids as optional pass-through arguments; this keeps the
    "include only what the caller knows" convention in one place.  Most
    taps never pass ``room``/``ap`` explicitly — the shard engine sets
    them as ambient recorder context instead.
    """
    fields: dict[str, Any] = {}
    if frame is not None:
        fields["frame"] = int(frame)
    if user is not None:
        fields["user"] = int(user)
    if users is not None:
        fields["users"] = [int(u) for u in users]
    if room is not None:
        fields["room"] = str(room)
    if ap is not None:
        fields["ap"] = str(ap)
    return fields


@dataclass(frozen=True)
class TraceEvent:
    """One recorded occurrence: where on the timeline, what, and details."""

    t: float  # sim time the event was emitted at
    seq: int  # global emission order (total tie-break)
    layer: str  # sim | net | mac | core | runner
    event: str  # registered event-type name
    fields: dict[str, Any] = field(default_factory=dict)

    def to_jsonable(self) -> dict[str, Any]:
        """Canonical JSON-line shape (stable key order)."""
        return _line_dict(self.t, self.seq, self.layer, self.event, self.fields)


def _line_dict(
    t: float, seq: int, layer: str, event: str, fields: Mapping[str, Any]
) -> dict[str, Any]:
    """The canonical JSON-line dict: the four header keys, then the fields
    in sorted key order (a field named like a header key overrides its
    value in place)."""
    line = {"t": t, "seq": seq, "layer": layer, "event": event}
    for key in sorted(fields):
        line[key] = fields[key]
    return line


# One shared compact encoder; its defaults are exactly ``json.dumps``'s, so
# ``_encode_line(d) == json.dumps(d, separators=(",", ":"))``.
_encode_line = json.JSONEncoder(separators=(",", ":")).encode


class TraceEventType:
    """A declared, documented kind of trace event plus its emit fast path."""

    __slots__ = ("name", "layer", "help", "fields")

    def __init__(
        self, name: str, layer: str, help: str, fields: tuple[str, ...]
    ) -> None:
        if not name:
            raise ValueError("trace event name must be non-empty")
        self.name = name
        self.layer = layer
        self.help = help
        self.fields = fields

    def emit(self, t: float | None = None, **fields: Any) -> None:
        """Record one occurrence; no-op when no recorder is installed.

        ``t`` defaults to the recorder's ambient sim time — the time of the
        engine event currently firing — so code without an ``env`` in reach
        (schedulers, groupers, adaptation policies) still lands at the
        right point on the timeline.
        """
        recorder = _RECORDER
        if recorder is None:
            return
        recorder.record(self, t, fields)

    def describe(self) -> dict[str, Any]:
        """Static metadata — the METRICS.md generator input."""
        return {
            "name": self.name,
            "layer": self.layer,
            "help": self.help,
            "fields": list(self.fields),
        }


EVENT_TYPES: dict[str, TraceEventType] = {}


def event_type(
    name: str, layer: str, help: str = "", fields: tuple[str, ...] = ()
) -> TraceEventType:
    """Declare (or re-fetch) an event type; idempotent under module reloads."""
    existing = EVENT_TYPES.get(name)
    if existing is not None:
        return existing
    declared = TraceEventType(name, layer, help, tuple(fields))
    EVENT_TYPES[name] = declared
    return declared


class TraceRecorder:
    """Accumulates :class:`TraceEvent` records and serializes them.

    ``now`` is the ambient sim time, maintained by the engine while firing
    events.  ``context`` fields (e.g. the :class:`~repro.runner.RunSpec`
    key the trace CLI sets per work unit) are merged into every event.
    """

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self.now: float = 0.0
        self.context: dict[str, Any] = {}
        self._seq = 0

    def record(
        self,
        kind: TraceEventType,
        t: float | None,
        fields: Mapping[str, Any],
    ) -> None:
        """Append one event (called through :meth:`TraceEventType.emit`)."""
        merged = {**self.context, **fields} if self.context else dict(fields)
        self.events.append(
            TraceEvent(
                t=self.now if t is None else float(t),
                seq=self._seq,
                layer=kind.layer,
                event=kind.name,
                fields=merged,
            )
        )
        self._seq += 1

    def set_context(self, **fields: Any) -> None:
        """Attach ``fields`` to every subsequently recorded event."""
        self.context.update(fields)

    def clear_context(self) -> None:
        """Drop all ambient context fields."""
        self.context.clear()

    def __len__(self) -> int:
        return len(self.events)

    def layer_counts(self) -> dict[str, int]:
        """Events per layer, keyed by sorted layer name (for summaries)."""
        counts: dict[str, int] = {}
        for ev in self.events:
            counts[ev.layer] = counts.get(ev.layer, 0) + 1
        return {layer: counts[layer] for layer in sorted(counts)}

    def jsonl_lines(self) -> Iterator[str]:
        """One canonical JSON document per event, in emission order."""
        for ev in self.events:
            yield _encode_line(ev.to_jsonable())

    def write_jsonl(self, path: Path | str) -> Path:
        """Write the timeline as JSON lines; returns the path."""
        path = Path(path)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            "\n".join(self.jsonl_lines()) + ("\n" if self.events else ""),
            encoding="utf-8",
        )
        return path


class StreamingTraceRecorder(TraceRecorder):
    """A recorder that flushes JSONL to disk instead of retaining events.

    The batch :class:`TraceRecorder` holds every event until
    :meth:`~TraceRecorder.write_jsonl`; at venue scale that buffer *is*
    the peak-RSS story.  This variant serializes each event the moment it
    is recorded, buffers only ``flush_every`` pending lines, and keeps
    per-layer counts incrementally — the file it produces is byte-
    identical to the batch recorder's for the same workload and filters
    (``tests/obs/test_trace.py`` asserts it).

    ``layers``/``events`` apply the trace CLI's write filters at record
    time (recording everything and filtering post-hoc would defeat the
    bounded memory); ``len()`` counts *written* events and ``recorded``
    counts everything emitted, mirroring the batch CLI's summary line.
    """

    def __init__(
        self,
        path: Path | str,
        layers: Iterable[str] | None = None,
        events: Iterable[str] | None = None,
        flush_every: int = 4096,
    ) -> None:
        super().__init__()
        self.path = Path(path)
        if self.path.parent != Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._layers = frozenset(layers) if layers else None
        self._names = frozenset(events) if events else None
        self._flush_every = max(1, int(flush_every))
        self._fh = open(self.path, "w", encoding="utf-8", newline="")
        self._pending: list[str] = []
        self._written = 0
        self.recorded = 0
        self._counts: dict[str, int] = {}

    def record(
        self,
        kind: TraceEventType,
        t: float | None,
        fields: Mapping[str, Any],
    ) -> None:
        """Serialize one event straight to the flush buffer."""
        seq = self._seq
        self._seq += 1
        self.recorded += 1
        if self._layers is not None and kind.layer not in self._layers:
            return
        if self._names is not None and kind.name not in self._names:
            return
        merged = {**self.context, **fields} if self.context else fields
        self._pending.append(
            _encode_line(
                _line_dict(
                    self.now if t is None else float(t),
                    seq, kind.layer, kind.name, merged,
                )
            )
        )
        self._counts[kind.layer] = self._counts.get(kind.layer, 0) + 1
        self._written += 1
        if len(self._pending) >= self._flush_every:
            self.flush()

    def flush(self) -> None:
        """Write the pending lines out (newline-terminated, batch shape)."""
        if self._pending:
            self._fh.write("\n".join(self._pending) + "\n")
            self._pending.clear()
            # Push through the interpreter's buffer so the on-disk file is
            # a valid (possibly shorter) trace at every flush boundary.
            self._fh.flush()

    def close(self) -> Path:
        """Flush the tail and close the file; returns the path."""
        self.flush()
        if not self._fh.closed:
            self._fh.close()
        return self.path

    def __len__(self) -> int:
        return self._written

    def layer_counts(self) -> dict[str, int]:
        """Written events per layer, keyed by sorted layer name."""
        return {layer: self._counts[layer] for layer in sorted(self._counts)}

    def jsonl_lines(self) -> Iterator[str]:
        raise TypeError(
            "StreamingTraceRecorder does not retain events; read them back "
            f"from {self.path}"
        )

    def write_jsonl(self, path: Path | str) -> Path:
        raise TypeError(
            "StreamingTraceRecorder already streamed its events to "
            f"{self.path}; call close() instead"
        )


_RECORDER: TraceRecorder | None = None


def install(recorder: TraceRecorder) -> None:
    """Make ``recorder`` the active sink for every ``emit`` in the process."""
    global _RECORDER
    if _RECORDER is not None:
        raise RuntimeError("a trace recorder is already installed")
    _RECORDER = recorder


def uninstall() -> None:
    """Deactivate tracing (idempotent)."""
    global _RECORDER
    _RECORDER = None


def active() -> TraceRecorder | None:
    """The currently installed recorder, or None — the hot-path guard."""
    return _RECORDER


@contextlib.contextmanager
def recording() -> Iterator[TraceRecorder]:
    """Context manager: install a fresh recorder, yield it, uninstall."""
    recorder = TraceRecorder()
    install(recorder)
    try:
        yield recorder
    finally:
        uninstall()


@contextlib.contextmanager
def streaming_recording(
    path: Path | str,
    layers: Iterable[str] | None = None,
    events: Iterable[str] | None = None,
    flush_every: int = 4096,
) -> Iterator[StreamingTraceRecorder]:
    """Context manager: stream events to ``path``, close on the way out."""
    recorder = StreamingTraceRecorder(
        path, layers=layers, events=events, flush_every=flush_every
    )
    install(recorder)
    try:
        yield recorder
    finally:
        uninstall()
        recorder.close()
