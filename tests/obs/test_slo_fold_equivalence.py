"""The streaming SLO fold against the reconstruction-based SLO path.

The reference below is the SLO metric code as it was before ``obs check``
became a single streaming fold: each metric read a
:class:`~repro.obs.spans.Reconstruction`.  The bodies are copied verbatim,
and every comparison is exact (float bits, not approximate), over real
``loss_sweep`` and ``policy_comparison`` traces and over synthetic event
lists built to hit each grouping rule.
"""

from __future__ import annotations

import json
import math
import random
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.cli import main as trace_main, obs_main
from repro.obs.slo import SLO_METRICS, fold_events, fold_trace
from repro.obs.spans import load_events, reconstruct

# -- reference: the pre-fold metric bodies, verbatim ------------------------


def _ref_frame_loss_rate(recon):
    closed = recon.closed_frames()
    if not closed:
        return None
    lost = sum(1 for fs in closed if fs.status == "lost")
    return lost / len(closed)


def _ref_stall_rate(recon):
    stalls = sum(
        1
        for ev in recon.unframed
        if ev.get("event") == "core.playback_state"
        and ev.get("state") == "stalled"
    )
    played = sum(
        1
        for fs in recon.frames
        for ev in fs.events
        if ev.get("event") == "core.frame_played"
    )
    if played == 0:
        return None
    return stalls / played


def _ref_p95_frame_latency_s(recon):
    latencies = sorted(fs.airtime_s for fs in recon.closed_frames())
    if not latencies:
        return None
    rank = max(1, math.ceil(0.95 * len(latencies)))
    return latencies[rank - 1]


def _ref_min_user_delivered_fps(recon):
    airtime_by_unit: dict[str | None, float] = {}
    delivered: dict[tuple[str | None, int], int] = {}
    seen_users: set[tuple[str | None, int]] = set()
    for fs in recon.closed_frames():
        airtime_by_unit[fs.unit] = (
            airtime_by_unit.get(fs.unit, 0.0) + fs.airtime_s
        )
        for u in fs.delivered_users:
            key = (fs.unit, u)
            seen_users.add(key)
            delivered[key] = delivered.get(key, 0) + 1
        for u in fs.lost_users:
            seen_users.add((fs.unit, u))
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


_REFERENCE = {
    "frame_loss_rate": _ref_frame_loss_rate,
    "stall_rate": _ref_stall_rate,
    "p95_frame_latency_s": _ref_p95_frame_latency_s,
    "min_user_delivered_fps": _ref_min_user_delivered_fps,
}


def _bits(value):
    return None if value is None else struct.pack("<d", value)


def _reference_values(events):
    recon = reconstruct(events)
    return {name: _bits(fn(recon)) for name, fn in _REFERENCE.items()}


def _fold_values(fold):
    return {
        name: _bits(metric.compute(fold))
        for name, metric in SLO_METRICS.items()
    }


def _assert_equivalent(events):
    expected = _reference_values(events)
    assert _fold_values(fold_events(events)) == expected
    return expected


def test_reference_covers_the_whole_catalog():
    assert set(_REFERENCE) == set(SLO_METRICS)


# -- real traces ------------------------------------------------------------


def _trace(tmp_path_factory, experiment, *extra):
    out = tmp_path_factory.mktemp("fold") / f"{experiment}-trace.jsonl"
    argv = [experiment, "--scale", "small", "--out", str(out), "--quiet"]
    assert trace_main(argv + list(extra)) == 0
    return out


@pytest.fixture(scope="module")
def loss_sweep_trace(tmp_path_factory):
    return _trace(tmp_path_factory, "loss_sweep")


@pytest.fixture(scope="module")
def policy_trace(tmp_path_factory):
    # The sim layer's ~140k engine events carry no ``frame`` and are not
    # playback events, so neither path reads them; leaving them out keeps
    # the fixture small.
    return _trace(
        tmp_path_factory, "policy_comparison",
        "--layer", "net", "--layer", "core", "--layer", "mac",
    )


@pytest.mark.parametrize("fixture", ["loss_sweep_trace", "policy_trace"])
def test_fold_matches_reference_on_real_traces(fixture, request):
    path = request.getfixturevalue(fixture)
    events = load_events(path)
    expected = _assert_equivalent(events)
    assert _fold_values(fold_trace(path)) == expected
    assert expected["frame_loss_rate"] is not None
    if fixture == "policy_trace":
        # The closed-loop trace exercises the annotation rules.
        assert expected["stall_rate"] is not None
        names = {ev["event"] for ev in events}
        assert {
            "core.frame_played", "core.playback_state", "core.qoe_sample",
        } <= names


@pytest.mark.parametrize("fixture", ["loss_sweep_trace", "policy_trace"])
def test_fold_matches_reference_on_reordered_real_traces(
    fixture, request, tmp_path
):
    events = load_events(request.getfixturevalue(fixture))
    rng = random.Random(20211)
    shuffled = list(events)
    rng.shuffle(shuffled)
    expected = _assert_equivalent(shuffled)
    # A file out of seq order streams until the first regression, then is
    # refolded sorted: the same values as the in-order file.
    path = tmp_path / "shuffled.jsonl"
    path.write_text(
        "".join(json.dumps(ev) + "\n" for ev in shuffled), encoding="utf-8"
    )
    assert _fold_values(fold_trace(path)) == expected
    for cut in (0, 1, len(events) // 3, len(events) // 2, len(events) - 1):
        _assert_equivalent(events[:cut])
    for keep in (0.9, 0.5, 0.1):
        _assert_equivalent([ev for ev in events if rng.random() < keep])


def test_check_cli_output_matches_reference(policy_trace, tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps({"slos": [
            {"metric": name, "max": 1e9} for name in sorted(SLO_METRICS)
        ]}),
        encoding="utf-8",
    )
    out = tmp_path / "slo.json"
    assert obs_main(
        ["check", str(policy_trace), "--spec", str(spec), "--json", str(out)]
    ) == 0
    capsys.readouterr()
    recon = reconstruct(load_events(policy_trace))
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert {r["metric"]: r["value"] for r in doc["results"]} == {
        name: _REFERENCE[name](recon) for name in sorted(SLO_METRICS)
    }


# -- the grouping rules, one at a time --------------------------------------


def _ev(seq, event, layer="net", t=0.0, **fields):
    doc = {"t": t, "layer": layer, "event": event, **fields}
    if seq is not None:
        doc["seq"] = seq
    return doc


def _outcome(seq, frame, airtime, delivered=(0,), lost=(), unit="u"):
    return _ev(
        seq, "net.frame_outcome", unit=unit, frame=frame, airtime_s=airtime,
        delivered_users=list(delivered), lost_users=list(lost),
    )


def _played(seq, frame, user=0, unit="u"):
    return _ev(seq, "core.frame_played", layer="core", unit=unit,
               frame=frame, user=user)


def _stalled(seq, **fields):
    return _ev(seq, "core.playback_state", layer="core", state="stalled",
               **fields)


def test_empty_trace_makes_every_metric_unavailable():
    assert _assert_equivalent([]) == {name: None for name in SLO_METRICS}


def test_orphan_annotations_do_not_count_as_played():
    events = [
        _played(0, 5),  # frame 5 never opened: no target
        _ev(1, "core.qoe_sample", layer="core", unit="u", frame=6),
        _stalled(2),
        _outcome(3, 0, 0.01),
        _played(4, 0),
    ]
    values = _assert_equivalent(events)
    assert values["stall_rate"] == _bits(1.0)


def test_playback_state_carrying_a_frame_opens_a_group():
    events = [
        _stalled(0, unit="u", frame=3),  # framed: not a stall, opens frame 3
        _played(1, 3),  # joins the open frame-3 group
        _outcome(2, 3, 0.02),
        _stalled(3),
    ]
    values = _assert_equivalent(events)
    assert values["stall_rate"] == _bits(1.0)


def test_repeated_frame_occurrences_and_unclosed_frames():
    events = [
        _ev(0, "net.unit_tx", unit="u", frame=0, airtime_s=0.01),
        _ev(1, "net.unit_tx", unit="v", frame=0, airtime_s=0.01),
        _outcome(2, 0, 0.03, delivered=(0, 1)),
        _outcome(3, 0, 0.1, delivered=(0,), lost=(1,)),  # occurrence 1
        _outcome(4, 0, 0.07, delivered=(2,), unit="v"),
        _played(5, 0),
        _ev(6, "net.unit_tx", unit="u", frame=1, airtime_s=0.01),  # unclosed
        _outcome(7, 0, 1e-9, delivered=(), lost=(0, 1, 2)),
    ]
    values = _assert_equivalent(events)
    assert values["frame_loss_rate"] == _bits(0.5)


def test_interleaved_frames_keep_open_order_in_sums():
    # Frames close in a different order than they opened; the per-unit
    # airtime sum must run in open order to keep its bits.
    events = [
        _ev(0, "net.unit_tx", unit="u", frame=2),
        _ev(1, "net.unit_tx", unit="u", frame=1),
        _outcome(2, 1, 0.1),
        _ev(3, "net.unit_tx", unit="u", frame=0),
        _outcome(4, 0, 1e16),
        _outcome(5, 2, 1.0),
        _outcome(6, 3, -1e16),
    ]
    _assert_equivalent(events)


def test_missing_seq_sorts_as_zero():
    events = [
        _outcome(5, 0, 0.02),
        _outcome(None, 0, 0.04, lost=(0,)),
        _outcome(None, 1, 0.03),
        _played(1, 1),
    ]
    _assert_equivalent(events)


_units = st.sampled_from([None, "a", "b"])
_frames = st.sampled_from([None, 0, 1, 2])
_users = st.lists(st.integers(min_value=0, max_value=3), max_size=3)
_airtimes = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-9, 1e16, -1e16]),
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)


@st.composite
def _events(draw):
    name = draw(st.sampled_from([
        "net.unit_tx", "net.frame_outcome", "core.frame_played",
        "core.qoe_sample", "core.playback_state", "mac.frame_plan",
    ]))
    doc = {"t": 0.0, "layer": name.split(".")[0], "event": name}
    seq = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=40)))
    if seq is not None:
        doc["seq"] = seq
    for key, value in (("unit", draw(_units)), ("frame", draw(_frames))):
        if value is not None:
            doc[key] = value
    if name == "net.frame_outcome":
        doc["airtime_s"] = draw(_airtimes)
        doc["delivered_users"] = draw(_users)
        doc["lost_users"] = draw(_users)
    if name == "core.playback_state":
        doc["state"] = draw(st.sampled_from(["stalled", "playing"]))
    return doc


@given(st.lists(_events(), max_size=40))
@settings(max_examples=300, deadline=None)
def test_fold_matches_reference_on_generated_traces(events):
    _assert_equivalent(events)
