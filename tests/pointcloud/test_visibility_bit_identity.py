"""Bit-identity of visibility over per-occupancy cell arrays.

``compute_visibility_batch`` reads nominal counts, cell bounds and centers
from the occupancy's cached ``cell_arrays`` instead of rebuilding them on
every call.  ``ref_compute_visibility_batch`` below is the body it had
before that change, kept verbatim as the reference.  Results must match
exactly, under all eight ``VisibilityConfig`` flag combinations, for both
the uniform grid and the octree partitioner.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.geometry import Frustum
from repro.pointcloud import (
    CellGrid,
    FrameOccupancy,
    OctreeOccupancy,
    VisibilityConfig,
    VisibilityResult,
    build_octree,
    compute_visibility,
    compute_visibility_batch,
    synthesize_video,
)
from repro.pointcloud.visibility import _occlusion_mask
from repro.traces import generate_user_study


# -- reference (the pre-change body) ------------------------------------------


def ref_compute_visibility_batch(
    occupancy: FrameOccupancy,
    frustums: list[Frustum],
    config: VisibilityConfig | None = None,
) -> list[VisibilityResult]:
    config = config or VisibilityConfig()
    grid = occupancy.grid
    all_ids = occupancy.cell_ids
    all_nominal = occupancy.nominal_counts().astype(np.float64)
    frame_points = float(all_nominal.sum())

    all_lows = all_highs = all_centers = None
    if len(all_ids) and (config.viewport or config.occlusion):
        all_lows, all_highs = grid.cell_bounds_array(all_ids)
    if len(all_ids) and (config.occlusion or config.distance):
        all_centers = grid.cell_centers(all_ids)

    results = []
    for frustum in frustums:
        cell_ids, nominal = all_ids, all_nominal
        lows, highs, centers = all_lows, all_highs, all_centers

        # 1. Viewport: frustum-cull occupied cells.
        if config.viewport and len(cell_ids):
            mask = frustum.intersects_aabbs(lows, highs)
            cell_ids = cell_ids[mask]
            nominal = nominal[mask]
            lows, highs = lows[mask], highs[mask]
            if centers is not None:
                centers = centers[mask]

        # 2. Occlusion: angular-bin depth culling.
        if config.occlusion and len(cell_ids):
            keep = _occlusion_mask(
                centers, lows, highs, nominal, frustum, config, grid.cell_size
            )
            cell_ids = cell_ids[keep]
            nominal = nominal[keep]
            centers = centers[keep]

        # 3. Distance: reduced fetch fraction for far cells.
        if config.distance and len(cell_ids):
            dist = np.linalg.norm(centers - frustum.position, axis=1)
            fractions = np.where(
                dist <= config.distance_full_m,
                1.0,
                np.maximum(
                    config.distance_min_fraction,
                    (config.distance_full_m / np.maximum(dist, 1e-9)) ** 2,
                ),
            )
        else:
            fractions = np.ones(len(cell_ids))

        order = np.argsort(cell_ids)
        results.append(
            VisibilityResult(
                cell_ids=cell_ids[order],
                fractions=fractions[order],
                nominal_counts=nominal[order],
                frame_nominal_points=frame_points,
            )
        )
    return results


# -- fixtures -----------------------------------------------------------------

CONFIGS = [
    VisibilityConfig(viewport=v, occlusion=o, distance=d)
    for v, o, d in itertools.product((False, True), repeat=3)
]


@pytest.fixture(scope="module")
def scene():
    video = synthesize_video("high", num_frames=3, points_per_frame=4000, seed=9)
    study = generate_user_study(num_users=5, duration_s=2.0, seed=9)
    frustums = [
        trace.pose_at(t).frustum()
        for trace in study.traces
        for t in (0.0, 0.7, 1.6)
    ]
    grid = CellGrid.covering(video.bounds, 0.25, margin=0.05)
    occupancies = {
        "grid": [grid.occupancy(frame) for frame in video],
        "octree": [
            build_octree(frame, root=video.bounds, max_points_per_leaf=300)
            .occupancy()
            for frame in video
        ],
    }
    return frustums, occupancies


def _assert_results_equal(new, ref) -> None:
    assert len(new) == len(ref)
    for a, b in zip(new, ref):
        for name in ("cell_ids", "fractions", "nominal_counts"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype
            assert np.array_equal(x, y)
        assert a.frame_nominal_points == b.frame_nominal_points
        assert a.visible_set == b.visible_set


# -- equivalence --------------------------------------------------------------


@pytest.mark.parametrize("partitioner", ["grid", "octree"])
@pytest.mark.parametrize(
    "config", CONFIGS, ids=lambda c: f"v{c.viewport:d}o{c.occlusion:d}d{c.distance:d}"
)
def test_batch_equals_reference(scene, partitioner, config):
    frustums, occupancies = scene
    for occ in occupancies[partitioner]:
        _assert_results_equal(
            compute_visibility_batch(occ, frustums, config),
            ref_compute_visibility_batch(occ, frustums, config),
        )
        # A second call reuses the cached arrays and must not drift.
        single = [compute_visibility(occ, f, config) for f in frustums[:3]]
        _assert_results_equal(
            single, ref_compute_visibility_batch(occ, frustums[:3], config)
        )


@pytest.mark.parametrize("config", CONFIGS[::3])
def test_empty_occupancies_equal_reference(scene, config):
    frustums, occupancies = scene
    empty = np.array([], dtype=np.int64)
    grid = occupancies["grid"][0].grid
    for occ in (
        FrameOccupancy(grid=grid, cell_ids=empty, counts=empty),
        OctreeOccupancy(tree=None, cell_ids=empty, counts=empty, scale_factor=1.0),
    ):
        _assert_results_equal(
            compute_visibility_batch(occ, frustums[:2], config),
            ref_compute_visibility_batch(occ, frustums[:2], config),
        )


# -- the cached arrays --------------------------------------------------------


@pytest.mark.parametrize("partitioner", ["grid", "octree"])
def test_cell_arrays_are_computed_once_and_read_only(scene, partitioner):
    _, occupancies = scene
    occ = occupancies[partitioner][0]
    arrays = occ.cell_arrays
    assert occ.cell_arrays is arrays
    nominal, lows, highs, centers = arrays
    assert np.array_equal(nominal, occ.nominal_counts().astype(np.float64))
    ref_lows, ref_highs = occ.grid.cell_bounds_array(occ.cell_ids)
    assert np.array_equal(lows, ref_lows) and np.array_equal(highs, ref_highs)
    assert np.array_equal(centers, occ.grid.cell_centers(occ.cell_ids))
    for array in arrays:
        with pytest.raises(ValueError):
            array[0] = 1.0
        with pytest.raises(ValueError):
            array += 1.0


def test_results_do_not_alias_the_cached_arrays(scene):
    frustums, occupancies = scene
    occ = occupancies["grid"][0]
    for result in compute_visibility_batch(
        occ, frustums[:2], VisibilityConfig.vanilla()
    ):
        # An owned copy, read-only because results are shared.
        assert result.nominal_counts.flags.owndata
        assert not result.nominal_counts.flags.writeable
        assert not np.shares_memory(result.nominal_counts, occ.cell_arrays[0])
