"""Per-process visibility sharing: occupancies per video, results per view.

The memo must be invisible in every output: a session or a Table 1
measurement reads the same with the memo warm, cold (after
``clear_fixture_caches``) and bypassed altogether.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from repro.core import (
    CapacityRateProvider,
    CrossLayerPolicy,
    SessionConfig,
    StreamingSession,
    measure_max_fps,
)
from repro.core import session as session_module
from repro.core.session import _DemandBuilder
from repro.experiments.common import (
    clear_fixture_caches,
    room_video,
    study_in_room,
)
from repro.geometry import Frustum, Quaternion
from repro.mac import AD_MODEL
from repro.pointcloud import (
    VisibilityConfig,
    compute_visibility,
    memoized_visibility,
)
from repro.pointcloud import visibility as visibility_module
from repro.prediction import LinearRegressionPredictor
from repro.runner import canonical_json, get_experiment, resolve_params, run_specs
from repro.traces import Pose

FLAG_COMBOS = list(itertools.product((False, True), repeat=3))


def _fixtures():
    video = room_video("high", num_frames=12, points_per_frame=1500)
    study = study_in_room(num_users=3, duration_s=1.0, seed=5)
    return video, study


def _config(video, study, flags, partitioner, predictor, **kwargs):
    viewport, occlusion, distance = flags
    return SessionConfig(
        video=video,
        study=study,
        rates=CapacityRateProvider(model=AD_MODEL, num_users=len(study)),
        visibility=VisibilityConfig(
            viewport=viewport, occlusion=occlusion, distance=distance
        ),
        grouping="greedy",
        adaptation=CrossLayerPolicy(),
        predictor=LinearRegressionPredictor() if predictor else None,
        partitioner=partitioner,
        octree_points_per_leaf=150,
        **kwargs,
    )


def _session_json(flags, partitioner, predictor) -> str:
    video, study = _fixtures()
    report = StreamingSession(
        _config(video, study, flags, partitioner, predictor)
    ).run()
    return canonical_json(
        {
            "summary": report.summary(),
            "users": [dataclasses.asdict(user) for user in report.users],
        }
    )


def _unmemoized(occupancy, pose, config):
    return compute_visibility(occupancy, pose.frustum(), config)


@pytest.mark.parametrize("predictor", [False, True], ids=["oracle", "predicted"])
@pytest.mark.parametrize("partitioner", ["grid", "octree"])
@pytest.mark.parametrize("flags", FLAG_COMBOS, ids=lambda f: "".join("01"[b] for b in f))
def test_session_report_identical_warm_cold_and_bypassed(
    monkeypatch, flags, partitioner, predictor
):
    clear_fixture_caches()
    cold = _session_json(flags, partitioner, predictor)
    # Views shared with another config must not leak between configs.
    _session_json(tuple(not flag for flag in flags), partitioner, predictor)
    warm = _session_json(flags, partitioner, predictor)
    clear_fixture_caches()
    with monkeypatch.context() as patch:
        patch.setattr(session_module, "memoized_visibility", _unmemoized)
        bypassed = _session_json(flags, partitioner, predictor)
    clear_fixture_caches()
    assert cold == warm == bypassed == _session_json(flags, partitioner, predictor)


@pytest.mark.parametrize("partitioner", ["grid", "octree"])
def test_measure_max_fps_unchanged(monkeypatch, partitioner):
    clear_fixture_caches()
    video, study = _fixtures()
    config = _config(video, study, (True, True, True), partitioner, False)
    cold = measure_max_fps(config)
    warm = measure_max_fps(config)
    with monkeypatch.context() as patch:
        patch.setattr(session_module, "memoized_visibility", _unmemoized)
        bypassed = measure_max_fps(config)
    assert len(cold) == config.num_frames
    assert np.array_equal(cold, warm) and np.array_equal(cold, bypassed)


def test_memo_keys_cover_every_input():
    video, study = _fixtures()
    grid = video.occupancy(2, 0.5)
    assert video.occupancy(2, 0.5) is grid
    assert video.occupancy(2, 0.25) is not grid
    assert video.occupancy(2, 0.25).grid.cell_size == 0.25
    assert video.occupancy(2, 0.5, "octree") is not grid
    assert video.occupancy(3, 0.5) is not grid

    pose = study.traces[0].pose_at(0.0)
    other = study.traces[0].pose_at(0.5)
    config = VisibilityConfig()
    base = memoized_visibility(grid, pose, config)
    same = Pose(t=9.0, position=pose.position.copy(), orientation=pose.orientation)
    assert memoized_visibility(grid, same, VisibilityConfig()) is base
    for view, cfg in [
        (Pose(t=0.0, position=other.position, orientation=pose.orientation), config),
        (Pose(t=0.0, position=pose.position, orientation=other.orientation), config),
        (pose, VisibilityConfig.vanilla()),
    ]:
        result = memoized_visibility(grid, view, cfg)
        expected = compute_visibility(grid, view.frustum(), cfg)
        assert result is not base
        assert np.array_equal(result.cell_ids, expected.cell_ids)
        assert np.array_equal(result.fractions, expected.fractions)

    # A miss culls ``Pose.frustum()``'s default frustum: seen from 15 m
    # away, the content lies beyond any shorter far plane.
    center = video.bounds.center
    eye = center + np.array([15.0, 0.0, 0.0])
    far_view = Pose(t=0.0, position=eye, orientation=Quaternion.look_at(center - eye))
    result = memoized_visibility(grid, far_view, config)
    expected = compute_visibility(grid, Frustum(eye, far_view.orientation), config)
    assert len(result.cell_ids)
    assert np.array_equal(result.cell_ids, expected.cell_ids)
    assert np.array_equal(result.fractions, expected.fractions)


def test_units_share_results_but_not_cell_bytes():
    video, study = _fixtures()
    config = _config(video, study, (True, True, True), "grid", False)
    first, second = _DemandBuilder(config), _DemandBuilder(config)
    assert first.occupancy(3) is second.occupancy(3)
    assert first._visibility(1, 3, 0.0) is second._visibility(1, 3, 0.0)
    a = first.demand(1, 3, "high", 0.0, 1000.0)
    b = second.demand(1, 3, "high", 0.0, 1000.0)
    assert a.cell_bytes == b.cell_bytes and a.cell_bytes
    assert a.cell_bytes is not b.cell_bytes


def test_predicted_poses_add_no_memo_entries(monkeypatch):
    clear_fixture_caches()
    video, study = _fixtures()
    config = _config(video, study, (True, True, True), "grid", True)
    direct = []
    counting = lambda *args: direct.append(args) or compute_visibility(*args)  # noqa: E731
    monkeypatch.setattr(session_module, "compute_visibility", counting)
    StreamingSession(config).run()

    oracle = {
        trace.pose_at(f / config.target_fps).position.tobytes()
        for trace in study.traces
        for f in range(config.num_frames)
    }
    keys = [
        key
        for f in range(len(video))
        for key in video.occupancy(f, config.cell_size).visibility_memo
    ]
    assert direct, "the predictor never looked ahead"
    assert all(key[0] in oracle for key in keys)


def test_policy_comparison_computes_each_distinct_view_once(monkeypatch):
    clear_fixture_caches()
    computed = []
    occupancies = []  # keeps every keyed occupancy alive, so ids stay unique
    batch = visibility_module.compute_visibility_batch

    def counting_batch(occupancy, frustums, config=None):
        occupancies.append(occupancy)
        for fr in frustums:
            q = fr.orientation
            computed.append(
                (id(occupancy), fr.position.tobytes(), q.w, q.x, q.y, q.z,
                 fr.h_fov, fr.v_fov, fr.near, fr.far, config)
            )
        return batch(occupancy, frustums, config)

    requests = []
    memoized = visibility_module.memoized_visibility

    def counting_memo(*args):
        requests.append(args)
        return memoized(*args)

    monkeypatch.setattr(visibility_module, "compute_visibility_batch", counting_batch)
    monkeypatch.setattr(session_module, "memoized_visibility", counting_memo)
    from repro.experiments import policy_comparison

    monkeypatch.setattr(policy_comparison, "memoized_visibility", counting_memo)
    experiment = get_experiment("policy_comparison")
    params = resolve_params(experiment, {}, scale="small")
    run_specs(list(experiment.decompose(params)), workers=1, cache=None)

    assert computed and len(computed) == len(set(computed))
    assert len(computed) < len(requests) / 4
