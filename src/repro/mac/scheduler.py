"""Frame transmission scheduling: unicast vs. viewport-similarity multicast.

Implements the paper's transmission-time model (§4.2).  For a multicast
group k the time to deliver one frame to every member is

    T_m(k) = S_m(k) / r_m  +  sum_i (S_i - S_m(k)) / r_i

where ``S_m(k)`` is the size of the group's overlapped (intersection) cells,
``r_m`` the multicast rate (set by the weakest member's MCS under the
group's beam), and ``S_i``/``r_i`` each member's total requested bytes and
unicast rate.  Groups are admitted subject to T_m(k) <= 1/F for the target
frame rate F.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs import metrics as _metrics
from ..obs import trace as _trace

__all__ = [
    "UserDemand",
    "overlap_bytes",
    "unicast_frame_time",
    "multicast_frame_time",
    "FramePlan",
    "plan_frame",
]

_C_PLANS = _metrics.counter(
    "mac.frame_plans_built", unit="plans", layer="mac",
    help="FramePlans constructed via plan_frame (includes candidate plans "
         "evaluated during grouping search)",
)
_C_GROUPS = _metrics.counter(
    "mac.multicast_groups_planned", unit="groups", layer="mac",
    help="multicast groups admitted into constructed frame plans",
)
_EV_PLAN = _trace.event_type(
    "mac.frame_plan", layer="mac",
    help="a frame delivery plan was built (grant decision: who shares a "
         "multicast beam, who goes solo)",
    fields=("users", "groups", "solo", "total_time_s", "user_ids", "frame"),
)


@dataclass(frozen=True)
class UserDemand:
    """One user's demand for one video frame.

    ``cell_bytes`` maps cell id -> compressed bytes this user needs from
    that cell (after the user's visibility/density reduction).
    """

    user_id: int
    cell_bytes: dict[int, float]
    unicast_rate_mbps: float

    def __post_init__(self) -> None:
        if self.unicast_rate_mbps < 0:
            raise ValueError("unicast_rate_mbps must be non-negative")

    @property
    def total_bytes(self) -> float:
        return float(sum(self.cell_bytes.values()))


# Distinct ``cell_bytes`` dicts keyed by ``id``.  Venue users of one
# archetype share a single dict, so per-dict work runs once per archetype
# rather than once per user.  The ids are only meaningful while the
# demands are alive: a map never outlives the call that built it.
_CellMaps = dict[int, dict[int, float]]


def _cell_maps(demands: list[UserDemand]) -> _CellMaps:
    """The distinct ``cell_bytes`` objects of ``demands``, first seen first."""
    return {id(d.cell_bytes): d.cell_bytes for d in demands}


def _shared_cells(maps: _CellMaps) -> set[int]:
    """Cells present in every map (``maps`` non-empty)."""
    first, *rest = maps.values()
    shared = set(first)
    for m in rest:
        shared.intersection_update(m)
    return shared


def _max_shared_bytes(maps: _CellMaps, shared: set[int]) -> float:
    """Per-cell max over the maps, summed over the shared cells in order."""
    return float(sum(max(m[c] for m in maps.values()) for c in sorted(shared)))


def _totals(demands: list[UserDemand]) -> dict[int, float]:
    """Total requested bytes of each distinct ``cell_bytes``, by ``id``."""
    return {key: float(sum(m.values())) for key, m in _cell_maps(demands).items()}


def overlap_bytes(demands: list[UserDemand]) -> float:
    """S_m(k): bytes of the cells *every* group member requests.

    For a shared cell, members may want different densities (distance
    optimization); the multicast carries the maximum requested density and
    members discard excess points locally, so the shared size is the
    per-cell max over members.
    """
    if not demands:
        return 0.0
    maps = _cell_maps(demands)
    return _max_shared_bytes(maps, _shared_cells(maps))


def _transfer_time_s(nbytes: float, rate_mbps: float) -> float:
    """Seconds to move ``nbytes`` at ``rate_mbps`` (inf if the link is down)."""
    if nbytes <= 0:
        return 0.0
    if rate_mbps <= 0:
        return float("inf")
    return nbytes * 8.0 / (rate_mbps * 1e6)


def unicast_frame_time(demands: list[UserDemand]) -> float:
    """Serialized airtime to unicast every user's full demand."""
    totals = _totals(demands)
    return float(sum(
        _transfer_time_s(totals[id(d.cell_bytes)], d.unicast_rate_mbps)
        for d in demands
    ))


def multicast_frame_time(
    demands: list[UserDemand], multicast_rate_mbps: float
) -> float:
    """The paper's T_m(k) for one group.

    The shared cells go out once at the multicast rate; each member's
    residual cells follow via unicast at that member's own rate.
    """
    if not demands:
        return 0.0
    maps = _cell_maps(demands)
    shared = _shared_cells(maps)
    t = _transfer_time_s(_max_shared_bytes(maps, shared), multicast_rate_mbps)
    residuals = {
        key: sum(b for c, b in m.items() if c not in shared)
        for key, m in maps.items()
    }
    for d in demands:
        t += _transfer_time_s(residuals[id(d.cell_bytes)], d.unicast_rate_mbps)
    return float(t)


@dataclass
class FramePlan:
    """A complete delivery plan for one frame across all users.

    ``groups`` lists multicast groups (with their rates); users not covered
    by any group are served pure unicast.
    """

    demands: dict[int, UserDemand]
    groups: list[tuple[tuple[int, ...], float]] = field(default_factory=list)
    beam_switch_overhead_s: float = 0.0

    def __post_init__(self) -> None:
        covered: set[int] = set()
        for members, rate in self.groups:
            if rate < 0:
                raise ValueError("multicast rate must be non-negative")
            for m in members:
                if m in covered:
                    raise ValueError(f"user {m} appears in two groups")
                if m not in self.demands:
                    raise KeyError(f"group member {m} has no demand")
                covered.add(m)

    @property
    def grouped_users(self) -> set[int]:
        return {m for members, _ in self.groups for m in members}

    @property
    def solo_users(self) -> list[int]:
        grouped = self.grouped_users
        return [u for u in self.demands if u not in grouped]

    def total_time_s(self) -> float:
        """Airtime to deliver the frame to everyone under this plan."""
        t = 0.0
        num_transmissions = 0
        for members, rate in self.groups:
            group_demands = [self.demands[m] for m in members]
            t += multicast_frame_time(group_demands, rate)
            num_transmissions += 1 + len(members)  # one multicast + residuals
        solo = [self.demands[u] for u in self.solo_users]
        totals = _totals(solo)
        for d in solo:
            t += _transfer_time_s(totals[id(d.cell_bytes)], d.unicast_rate_mbps)
            num_transmissions += 1
        return t + self.beam_switch_overhead_s * num_transmissions

    def achievable_fps(self, cap_fps: float = 30.0) -> float:
        """Frame rate this plan sustains (1 / total time, capped)."""
        t = self.total_time_s()
        if t <= 0:
            return cap_fps
        return min(cap_fps, 1.0 / t)

    def satisfies(self, target_fps: float) -> bool:
        """The paper's admission constraint T_m(k) <= 1/F."""
        return self.total_time_s() <= 1.0 / target_fps


def plan_frame(
    demands: list[UserDemand],
    groups: list[tuple[tuple[int, ...], float]] | None = None,
    beam_switch_overhead_s: float = 0.0,
    frame: int | None = None,
) -> FramePlan:
    """Build a :class:`FramePlan` from a demand list.

    ``frame`` is a trace-only correlation field (the frame index the plan
    is for, when the caller knows it); it never changes the plan.
    """
    plan = FramePlan(
        demands={d.user_id: d for d in demands},
        groups=groups or [],
        beam_switch_overhead_s=beam_switch_overhead_s,
    )
    _C_PLANS.inc()
    _C_GROUPS.inc(len(plan.groups))
    if _trace._RECORDER is not None:
        _EV_PLAN.emit(
            users=len(plan.demands),
            groups=len(plan.groups),
            solo=len(plan.solo_users),
            total_time_s=plan.total_time_s(),
            user_ids=sorted(plan.demands),
            **_trace.correlation(frame=frame),
        )
    return plan
