"""Span reconstruction: fold a flat trace timeline into causal frame spans.

``repro trace`` writes a flat JSONL timeline — one record per event, in a
global total order (``seq``).  This module folds that timeline back into
the *structure* the simulation had while it ran: one span group per frame
delivery attempt, holding the frame's events and the timed spans derived
from them (ARQ rounds, FEC blocks, beam switches, the frame's whole
delivery, and — in the closed loop — the delivery-to-playback lifetime
per user).

Joining is structural, never heuristic: every instrumented tap attaches
the correlation fields it knows (:data:`repro.obs.trace.CORRELATION_FIELDS`
— ``unit`` from ambient recorder context, ``frame``/``user``/``users``
per event), so an event belongs to a span group iff its ``(unit, frame)``
matches.  Frame indices legitimately repeat within a unit — the loss sweep
replays the same frames at every loss point, and the closed-loop session
re-requests lost frames — so groups are keyed by *occurrence*: a
``net.frame_outcome`` event closes the current occurrence of its frame,
and any later event with the same frame index opens the next one.

Like trace event types, span types are declared in a module-scope catalog
(:data:`SPAN_TYPES`) so ``docs/METRICS.md`` can enumerate them and the
analyzer can trust the names.  Reconstruction is a pure function of the
event list: same trace in, bit-identical spans out.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping

__all__ = [
    "Span",
    "SpanType",
    "SPAN_TYPES",
    "span_type",
    "FrameSpans",
    "Reconstruction",
    "ANNOTATION_EVENTS",
    "SeqOrderError",
    "seq_key",
    "iter_events",
    "iter_events_in_order",
    "load_events",
    "reconstruct",
]


class SpanType:
    """A declared, documented kind of reconstructed span."""

    __slots__ = ("name", "layer", "help")

    def __init__(self, name: str, layer: str, help: str) -> None:
        if not name:
            raise ValueError("span type name must be non-empty")
        self.name = name
        self.layer = layer
        self.help = help

    def describe(self) -> dict[str, Any]:
        """Static metadata — the METRICS.md generator input."""
        return {"name": self.name, "layer": self.layer, "help": self.help}


SPAN_TYPES: dict[str, SpanType] = {}


def span_type(name: str, layer: str, help: str = "") -> SpanType:
    """Declare (or re-fetch) a span type; idempotent under module reloads."""
    existing = SPAN_TYPES.get(name)
    if existing is not None:
        return existing
    declared = SpanType(name, layer, help)
    SPAN_TYPES[name] = declared
    return declared


SPAN_FRAME_DELIVERY = span_type(
    "net.frame_delivery", layer="net",
    help="one delivery attempt of a full frame plan, from first airtime to "
         "the net.frame_outcome event; its duration is the frame's "
         "end-to-end delivery latency",
)
SPAN_UNIT_TX = span_type(
    "net.unit_tx", layer="net",
    help="one transmission unit's delivery attempt (multicast shared cells, "
         "a residual unicast leg, or a solo user's frame)",
)
SPAN_ARQ_ROUND = span_type(
    "net.arq_round", layer="net",
    help="one completed block-ACK round: union retransmission airtime plus "
         "per-member feedback and turnaround",
)
SPAN_ARQ_WASTE = span_type(
    "net.arq_waste", layer="net",
    help="the partial ARQ round the frame deadline cut short; its airtime "
         "delivered nothing",
)
SPAN_FEC_BLOCK = span_type(
    "net.fec_block", layer="net",
    help="one FEC-protected block transmission (source PDUs plus repair, "
         "possibly deadline-truncated)",
)
SPAN_BEAM_SWITCH = span_type(
    "mac.beam_switch", layer="mac",
    help="one beam-switch overhead the radio paid before a transmission "
         "unit",
)
SPAN_FRAME_LIFETIME = span_type(
    "core.frame_lifetime", layer="core",
    help="closed loop only: from the end of a frame's delivery to the "
         "moment one user's client buffer played it out",
)
# Live-conferencing placeholders (ROADMAP: ReVo-style bidirectional live
# volumetric video).  Declared now so the blame decomposition — capture
# wait, uplink, fan-out, downlink — is already in the catalog when the
# live session mode lands; zero-width in every current trace because no
# tap emits the events yet.
SPAN_CAPTURE_WAIT = span_type(
    "core.capture_wait", layer="core",
    help="live conferencing only: time a freshly captured frame waited "
         "at the sender before its uplink transmission began "
         "(zero-width placeholder in current traces)",
)
SPAN_FANOUT = span_type(
    "net.fanout", layer="net",
    help="live conferencing only: airtime spent replicating one captured "
         "frame toward its N-1 remote viewers beyond the first copy "
         "(zero-width placeholder in current traces)",
)


@dataclass(frozen=True)
class Span:
    """One reconstructed interval on a frame's timeline."""

    type: str  # a SPAN_TYPES name
    start_t: float
    end_t: float
    frame: int | None = None
    user: int | None = None
    users: tuple[int, ...] | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end_t - self.start_t

    def to_jsonable(self) -> dict[str, Any]:
        """Canonical JSON shape (stable key order, unknowns omitted)."""
        doc: dict[str, Any] = {
            "type": self.type,
            "start_t": self.start_t,
            "end_t": self.end_t,
        }
        if self.frame is not None:
            doc["frame"] = self.frame
        if self.user is not None:
            doc["user"] = self.user
        if self.users is not None:
            doc["users"] = list(self.users)
        if self.attrs:
            doc["attrs"] = {k: self.attrs[k] for k in sorted(self.attrs)}
        return doc


@dataclass
class FrameSpans:
    """One frame delivery attempt: its events, derived spans, and outcome."""

    unit: str | None
    frame: int
    occurrence: int  # nth delivery attempt of this frame within the unit
    room: str | None = None  # scenario shard context, from the first event
    ap: str | None = None  # that carried it (venue runs only)
    events: list[dict[str, Any]] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)
    outcome: dict[str, Any] | None = None  # the net.frame_outcome event

    @property
    def closed(self) -> bool:
        """Whether a ``net.frame_outcome`` event terminated this attempt."""
        return self.outcome is not None

    @property
    def airtime_s(self) -> float:
        """End-to-end delivery latency of this attempt (0.0 if unclosed)."""
        if self.outcome is None:
            return 0.0
        return float(self.outcome.get("airtime_s", 0.0))

    @property
    def deadline_s(self) -> float | None:
        """The frame deadline budget, when the outcome recorded one."""
        if self.outcome is None:
            return None
        value = self.outcome.get("deadline_s")
        return None if value is None else float(value)

    @property
    def delivered_users(self) -> tuple[int, ...]:
        """Users whose frame completely arrived in time."""
        if self.outcome is None:
            return ()
        return tuple(int(u) for u in self.outcome.get("delivered_users", ()))

    @property
    def lost_users(self) -> tuple[int, ...]:
        """Users whose frame missed the deadline (residual loss)."""
        if self.outcome is None:
            return ()
        return tuple(int(u) for u in self.outcome.get("lost_users", ()))

    @property
    def status(self) -> str:
        """``on_time`` | ``late`` | ``lost`` | ``incomplete``."""
        if self.outcome is None:
            return "incomplete"
        if self.lost_users:
            return "lost"
        deadline = self.deadline_s
        if deadline is not None and self.airtime_s > deadline:
            return "late"
        return "on_time"

    def key(self) -> tuple[str, int, int]:
        """Deterministic identity: ``(unit, frame, occurrence)``."""
        return (self.unit or "", self.frame, self.occurrence)


@dataclass
class Reconstruction:
    """The folded timeline: frame span groups plus the unframed remainder."""

    frames: list[FrameSpans] = field(default_factory=list)
    unframed: list[dict[str, Any]] = field(default_factory=list)

    @property
    def units(self) -> list[str]:
        """Distinct work-unit keys seen in the trace, sorted."""
        seen = {fs.unit for fs in self.frames if fs.unit is not None}
        seen.update(
            str(ev["unit"]) for ev in self.unframed if ev.get("unit") is not None
        )
        return sorted(seen)

    def closed_frames(self) -> list[FrameSpans]:
        """Frame attempts that reached their ``net.frame_outcome``."""
        return [fs for fs in self.frames if fs.closed]


# One shared decoder: ``raw_decode`` skips ``json.loads``'s per-call
# type dispatch and trailing-whitespace scan; any line it cannot take whole
# is handed back to ``json.loads`` for the canonical exception.
_raw_decode = json.JSONDecoder().raw_decode


def seq_key(ev: Mapping[str, Any]) -> int:
    """The total-order key of a trace event (``seq``, 0 when missing)."""
    return int(ev.get("seq", 0))


class SeqOrderError(ValueError):
    """A trace file's ``seq`` key went down between two records."""


def iter_events(path: Path | str) -> Iterator[dict[str, Any]]:
    """Stream a ``repro trace`` JSONL file one event dict at a time.

    Unlike :func:`load_events` this never holds the file in memory — it is
    the loader the bounded-memory pipeline (:mod:`repro.obs.stream`) folds
    from.  Errors are diagnosed, not raised raw: an unparsable line
    reports its ``path:lineno``, and a final line that is cut off
    mid-record (no trailing newline — the classic partial write of an
    interrupted run) is called out as truncated rather than surfacing a
    JSON stack trace.
    """
    return _iter_events(path, ordered=False)


def iter_events_in_order(path: Path | str) -> Iterator[dict[str, Any]]:
    """:func:`iter_events`, guarding the ``seq`` order single-pass folds
    rely on.

    Raises :class:`SeqOrderError` (a :class:`ValueError`) naming
    ``path:lineno`` and both keys at the first record whose
    :func:`seq_key` is lower than its predecessor's; records up to that
    one have already been yielded.  Equal keys are in order (a stable
    sort keeps them as written).
    """
    return _iter_events(path, ordered=True)


def _iter_events(path: Path | str, ordered: bool) -> Iterator[dict[str, Any]]:
    last_seq: int | None = None
    with open(path, "r", encoding="utf-8") as fh:
        lineno = 0
        for raw in fh:
            lineno += 1
            line = raw.strip()
            if not line:
                continue
            try:
                event, end = _raw_decode(line)
            except ValueError:
                end = -1
            if end != len(line):
                # ``json.loads`` rejects every line ``raw_decode`` could not
                # take whole, with the exception the diagnosis quotes.
                try:
                    event = json.loads(line)
                except ValueError as exc:
                    if not raw.endswith("\n"):
                        raise ValueError(
                            f"{path}:{lineno}: truncated trace record "
                            f"(partial write?): {line[:60]!r}"
                        ) from exc
                    raise ValueError(
                        f"{path}:{lineno}: not valid JSON: {exc}"
                    ) from exc
            if not isinstance(event, dict):
                raise ValueError(f"{path}:{lineno}: expected a JSON object")
            if ordered:
                seq = seq_key(event)
                if last_seq is not None and seq < last_seq:
                    raise SeqOrderError(
                        f"{path}:{lineno}: seq {seq} follows seq {last_seq}; "
                        "the trace is not in seq order"
                    )
                last_seq = seq
            yield event


def load_events(path: Path | str) -> list[dict[str, Any]]:
    """Parse a ``repro trace`` JSONL file into event dicts."""
    return list(iter_events(path))


def _span_from_event(ev: Mapping[str, Any]) -> Span | None:
    """Derive the timed span an event describes, if it describes one.

    Every duration comes from the event's own fields (``cost_s``,
    ``wasted_s``, ``airtime_s``, ``overhead_s``) — the span ends at the
    event's emission time and extends backwards by the reported duration.
    """
    name = ev.get("event")
    t = float(ev.get("t", 0.0))
    frame = ev.get("frame")
    users = ev.get("users")
    users_t = (
        tuple(int(u) for u in users) if isinstance(users, (list, tuple)) else None
    )
    frame_i = None if frame is None else int(frame)

    if name == "net.arq_round":
        dur = float(ev.get("cost_s", 0.0))
        return Span(
            type=SPAN_ARQ_ROUND.name, start_t=t - dur, end_t=t,
            frame=frame_i, users=users_t,
            attrs={
                "round": ev.get("round"),
                "packets": ev.get("packets"),
                "data_s": ev.get("data_s"),
                "overhead_s": ev.get("overhead_s"),
            },
        )
    if name == "net.arq_deadline":
        dur = float(ev.get("wasted_s", 0.0))
        return Span(
            type=SPAN_ARQ_WASTE.name, start_t=t - dur, end_t=t,
            frame=frame_i, users=users_t,
            attrs={
                "round": ev.get("round"),
                "pending_receivers": ev.get("pending_receivers"),
            },
        )
    if name == "net.fec_tx":
        dur = float(ev.get("airtime_s", 0.0))
        return Span(
            type=SPAN_FEC_BLOCK.name, start_t=t - dur, end_t=t,
            frame=frame_i, users=users_t,
            attrs={
                "k": ev.get("k"),
                "n_sent": ev.get("n_sent"),
                "truncated": ev.get("truncated"),
                "source_s": ev.get("source_s"),
                "repair_s": ev.get("repair_s"),
            },
        )
    if name == "net.unit_tx":
        dur = float(ev.get("airtime_s", 0.0))
        return Span(
            type=SPAN_UNIT_TX.name, start_t=t - dur, end_t=t,
            frame=frame_i, users=users_t,
            attrs={
                "scheme": ev.get("scheme"),
                "packets": ev.get("packets"),
                "receivers": ev.get("receivers"),
                "delivered": ev.get("delivered"),
            },
        )
    if name == "net.beam_switch":
        dur = float(ev.get("overhead_s", 0.0))
        return Span(
            type=SPAN_BEAM_SWITCH.name, start_t=t - dur, end_t=t, frame=frame_i
        )
    if name == "core.capture_wait":
        dur = float(ev.get("wait_s", 0.0))
        return Span(
            type=SPAN_CAPTURE_WAIT.name, start_t=t - dur, end_t=t,
            frame=frame_i, users=users_t,
        )
    if name == "net.fanout":
        dur = float(ev.get("airtime_s", 0.0))
        return Span(
            type=SPAN_FANOUT.name, start_t=t - dur, end_t=t,
            frame=frame_i, users=users_t,
            attrs={"copies": ev.get("copies")},
        )
    if name == "net.frame_outcome":
        dur = float(ev.get("airtime_s", 0.0))
        return Span(
            type=SPAN_FRAME_DELIVERY.name, start_t=t - dur, end_t=t,
            frame=frame_i,
            attrs={
                "delivered_users": ev.get("delivered_users"),
                "lost_users": ev.get("lost_users"),
                "deadline_s": ev.get("deadline_s"),
                "arq_rounds": ev.get("arq_rounds"),
                "retx_overhead": ev.get("retx_overhead"),
            },
        )
    return None


# Events that *describe* a finished delivery instead of contributing to an
# in-flight one: they join the latest closed occurrence of their frame, and
# never open or close a span group.
ANNOTATION_EVENTS = ("core.frame_played", "core.qoe_sample")


def reconstruct(events: Iterable[Mapping[str, Any]]) -> Reconstruction:
    """Fold a flat event list into per-frame span groups.

    Events are processed in ``seq`` order.  Within one ``unit``, the first
    event carrying frame index ``f`` opens occurrence 0 of that frame's
    span group; a ``net.frame_outcome`` for ``f`` closes the open
    occurrence, and later events for ``f`` open the next occurrence.
    *Annotation* events — ``core.frame_played`` and ``core.qoe_sample``,
    which describe a delivery after the fact rather than contribute to
    one — instead join the most recently *closed* occurrence of their
    frame; ``core.frame_played`` additionally adds a
    ``core.frame_lifetime`` span from delivery end to play-out.  Events
    without a ``frame`` field land in ``unframed``.
    """
    recon = Reconstruction()
    # (unit, frame) -> open FrameSpans
    open_groups: dict[tuple[str | None, int], FrameSpans] = {}
    # (unit, frame) -> most recently closed FrameSpans
    closed_latest: dict[tuple[str | None, int], FrameSpans] = {}
    # (unit, frame) -> number of occurrences started
    occurrences: dict[tuple[str | None, int], int] = {}

    ordered = sorted(events, key=seq_key)
    for ev in ordered:
        event_dict = dict(ev)
        frame = event_dict.get("frame")
        if frame is None:
            recon.unframed.append(event_dict)
            continue
        unit = event_dict.get("unit")
        unit_s = None if unit is None else str(unit)
        gk = (unit_s, int(frame))
        name = event_dict.get("event")

        if name in ANNOTATION_EVENTS:
            target = closed_latest.get(gk) or open_groups.get(gk)
            if target is None:
                recon.unframed.append(event_dict)
                continue
            target.events.append(event_dict)
            if name == "core.frame_played":
                delivery_end = next(
                    (
                        s.end_t
                        for s in target.spans
                        if s.type == SPAN_FRAME_DELIVERY.name
                    ),
                    float(event_dict.get("t", 0.0)),
                )
                user = event_dict.get("user")
                target.spans.append(
                    Span(
                        type=SPAN_FRAME_LIFETIME.name,
                        start_t=delivery_end,
                        end_t=float(event_dict.get("t", 0.0)),
                        frame=int(frame),
                        user=None if user is None else int(user),
                        attrs={
                            "on_time": event_dict.get("on_time"),
                            "quality": event_dict.get("quality"),
                        },
                    )
                )
            continue

        group = open_groups.get(gk)
        if group is None:
            index = occurrences.get(gk, 0)
            occurrences[gk] = index + 1
            group = FrameSpans(unit=unit_s, frame=int(frame), occurrence=index)
            open_groups[gk] = group
            recon.frames.append(group)
        group.events.append(event_dict)
        if group.room is None and event_dict.get("room") is not None:
            group.room = str(event_dict["room"])
        if group.ap is None and event_dict.get("ap") is not None:
            group.ap = str(event_dict["ap"])
        span = _span_from_event(event_dict)
        if span is not None:
            group.spans.append(span)
        if name == "net.frame_outcome":
            group.outcome = event_dict
            closed_latest[gk] = group
            del open_groups[gk]

    return recon
