"""Bit-identity of the airtime model against its scalar reference (hypothesis).

The scheduler prices each distinct ``cell_bytes`` dict once per call, so
venue users that share an archetype's dict share one computation.  The
functions below are the straightforward per-member bodies the scheduler
had before that change, kept verbatim as the reference: every property
asserts exact ``==`` equality against them, never a tolerance, over
demand lists whose members share dict objects, hold equal-but-distinct
dicts, or hold disjoint dicts, in random member order.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.mac import (
    UserDemand,
    multicast_frame_time,
    overlap_bytes,
    plan_frame,
    unicast_frame_time,
)
from repro.mac.scheduler import _transfer_time_s


# -- scalar references --------------------------------------------------------


def ref_overlap_bytes(demands: list[UserDemand]) -> float:
    if not demands:
        return 0.0
    shared = set(demands[0].cell_bytes)
    for d in demands[1:]:
        shared &= set(d.cell_bytes)
    return float(
        sum(max(d.cell_bytes[c] for d in demands) for c in sorted(shared))
    )


def ref_unicast_frame_time(demands: list[UserDemand]) -> float:
    return float(sum(_transfer_time_s(d.total_bytes, d.unicast_rate_mbps)
                     for d in demands))


def ref_multicast_frame_time(
    demands: list[UserDemand], multicast_rate_mbps: float
) -> float:
    if not demands:
        return 0.0
    s_m = ref_overlap_bytes(demands)
    t = _transfer_time_s(s_m, multicast_rate_mbps)
    shared = set(demands[0].cell_bytes)
    for d in demands[1:]:
        shared &= set(d.cell_bytes)
    for d in demands:
        residual = sum(b for c, b in d.cell_bytes.items() if c not in shared)
        t += _transfer_time_s(residual, d.unicast_rate_mbps)
    return float(t)


def ref_solo_users(plan) -> list[int]:
    return [u for u in plan.demands if u not in plan.grouped_users]


def ref_total_time_s(plan) -> float:
    t = 0.0
    num_transmissions = 0
    for members, rate in plan.groups:
        group_demands = [plan.demands[m] for m in members]
        t += ref_multicast_frame_time(group_demands, rate)
        num_transmissions += 1 + len(members)  # one multicast + residuals
    for u in ref_solo_users(plan):
        t += _transfer_time_s(
            plan.demands[u].total_bytes, plan.demands[u].unicast_rate_mbps
        )
        num_transmissions += 1
    return t + plan.beam_switch_overhead_s * num_transmissions


# -- strategies ---------------------------------------------------------------

byte_values = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
    st.integers(min_value=0, max_value=10**6),
)
cell_maps = st.dictionaries(
    keys=st.integers(min_value=0, max_value=40),
    values=byte_values,
    max_size=14,
)
rates = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.1, max_value=5000.0, allow_nan=False),
)
# How a member gets its dict from the archetype pool: the pool's object
# itself (shared by reference), an equal copy, or a dict of its own whose
# cells are disjoint from the pool's.
HOW = ("shared", "copy", "disjoint")


@st.composite
def demand_lists(draw, min_size=1, max_size=30):
    pool = draw(st.lists(cell_maps, min_size=1, max_size=4))
    # Venue users share a unicast rate: a small pool makes repeated
    # per-member terms, which a count-multiply shortcut would round off.
    rate_pool = draw(st.lists(rates, min_size=1, max_size=2))
    n = draw(st.integers(min_value=min_size, max_value=max_size))
    demands = []
    for uid in range(n):
        base = draw(st.sampled_from(pool))
        how = draw(st.sampled_from(HOW))
        if how == "shared":
            cells = base
        elif how == "copy":
            cells = dict(base)
        else:
            cells = {c + 1000: b for c, b in draw(cell_maps).items()}
        demands.append(UserDemand(uid, cells, draw(st.sampled_from(rate_pool))))
    return draw(st.permutations(demands))


@st.composite
def plans(draw):
    demands = draw(demand_lists())
    uids = [d.user_id for d in demands]
    order = draw(st.permutations(uids))
    groups = []
    rest = list(order)
    while rest and draw(st.booleans()):
        size = draw(st.integers(min_value=1, max_value=len(rest)))
        members, rest = tuple(rest[:size]), rest[size:]
        groups.append((members, draw(rates)))
    overhead = draw(st.sampled_from([0.0, 1e-5, 2.5e-4]))
    return plan_frame(demands, groups, beam_switch_overhead_s=overhead)


# -- properties -----------------------------------------------------------------


@given(demand_lists(min_size=0))
@settings(max_examples=200, deadline=None)
def test_overlap_bytes_bit_identical(demands):
    assert overlap_bytes(demands) == ref_overlap_bytes(demands)


@given(demand_lists(min_size=0))
@settings(max_examples=200, deadline=None)
def test_unicast_frame_time_bit_identical(demands):
    assert unicast_frame_time(demands) == ref_unicast_frame_time(demands)


@given(demand_lists(min_size=0), rates)
@settings(max_examples=200, deadline=None)
def test_multicast_frame_time_bit_identical(demands, rate):
    assert multicast_frame_time(demands, rate) == ref_multicast_frame_time(
        demands, rate
    )


@given(plans())
@settings(max_examples=200, deadline=None)
def test_plan_total_time_and_solo_users_bit_identical(plan):
    assert plan.solo_users == ref_solo_users(plan)
    assert plan.total_time_s() == ref_total_time_s(plan)


def test_venue_shaped_group_bit_identical():
    """Hundreds of members over a few shared archetype dicts."""
    archetypes = [
        {c: 1000.0 + 37.25 * c + a for c in range(a, 60 + a)} for a in range(4)
    ]
    demands = [
        UserDemand(uid, archetypes[(uid * 7) % 4], 412.5) for uid in range(300)
    ]
    assert overlap_bytes(demands) == ref_overlap_bytes(demands)
    assert unicast_frame_time(demands) == ref_unicast_frame_time(demands)
    assert multicast_frame_time(demands, 330.0) == ref_multicast_frame_time(
        demands, 330.0
    )
    groups = [(tuple(range(0, 120)), 330.0), (tuple(range(120, 200)), 300.0)]
    plan = plan_frame(demands, groups)
    assert plan.solo_users == ref_solo_users(plan)
    assert plan.total_time_s() == ref_total_time_s(plan)


def test_no_memo_crosses_calls():
    """Mutating a shared dict between two calls changes the second result."""
    shared = {0: 4000.0, 1: 2500.0, 2: 900.0}
    other = {1: 1200.0, 2: 3100.0, 3: 700.0}
    demands = [
        UserDemand(0, shared, 400.0),
        UserDemand(1, shared, 350.0),
        UserDemand(2, other, 300.0),
    ]
    plan = plan_frame(demands, [((0, 2), 280.0)])
    before = (
        overlap_bytes(demands),
        unicast_frame_time(demands),
        multicast_frame_time(demands, 280.0),
        plan.total_time_s(),
    )

    shared[1] = 9000.0
    shared[5] = 1500.0
    del shared[0]

    after = (
        overlap_bytes(demands),
        unicast_frame_time(demands),
        multicast_frame_time(demands, 280.0),
        plan.total_time_s(),
    )
    assert after == (
        ref_overlap_bytes(demands),
        ref_unicast_frame_time(demands),
        ref_multicast_frame_time(demands, 280.0),
        ref_total_time_s(plan),
    )
    assert all(a != b for a, b in zip(after, before))
