"""Bit-identity of column-wise cell indexing against the broadcast form.

``CellGrid.cell_index_of`` computes each axis on its own 1-D column
instead of broadcasting ``(N, 3) - (3,)``.  The functions below are the
bodies ``cell_index_of`` and ``occupancy`` had before that change, kept
verbatim as the reference.  Every property asserts exact equality of
values and dtype, for points inside the grid, on cell boundaries and
outside it (the clamp), at every paper cell size and at sizes that are not
powers of two.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from repro.geometry import AABB
from repro.pointcloud import (
    PAPER_CELL_SIZES,
    CellGrid,
    FrameOccupancy,
    PointCloudFrame,
    synthesize_video,
)


# -- references (the pre-change bodies) ---------------------------------------


def ref_cell_index_of(self: CellGrid, points: np.ndarray) -> np.ndarray:
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    rel = (points - self.bounds.lo) / self.cell_size
    ijk = np.floor(rel).astype(np.int64)
    for axis in range(3):
        ijk[:, axis] = np.clip(ijk[:, axis], 0, self.dims[axis] - 1)
    nx, ny, _ = self.dims
    return ijk[:, 0] + nx * (ijk[:, 1] + ny * ijk[:, 2])


def ref_occupancy(self: CellGrid, frame: PointCloudFrame) -> FrameOccupancy:
    idx = ref_cell_index_of(self, frame.points)
    cell_ids, counts = np.unique(idx, return_counts=True)
    return FrameOccupancy(
        grid=self,
        cell_ids=cell_ids,
        counts=counts,
        scale_factor=frame.scale_factor,
    )


# -- strategies ---------------------------------------------------------------

# The paper's sizes are powers of two, where dividing equals multiplying by
# the reciprocal; the other sizes also pin the division itself.
CELL_SIZES = PAPER_CELL_SIZES + (0.1, 0.3, 0.7)


@st.composite
def grids(draw) -> CellGrid:
    lo = np.array([draw(st.floats(-3.0, 1.0)) for _ in range(3)])
    size = np.array([draw(st.floats(0.1, 4.0)) for _ in range(3)])
    return CellGrid(AABB(lo, lo + size), draw(st.sampled_from(CELL_SIZES)))


@st.composite
def grid_and_points(draw, min_points: int = 0) -> tuple[CellGrid, np.ndarray]:
    """A grid and points that sit on its cell faces or anywhere in a wide range.

    Face coordinates ``lo + k * cell_size`` round to either side of the
    face; the wide range puts points far outside the grid (the clamp).
    """
    grid = draw(grids())
    n = draw(st.integers(min_points, 60))
    free = draw(arrays(np.float64, (n, 3), elements=st.floats(-6.0, 6.0)))
    k = draw(arrays(np.int64, (n, 3), elements=st.integers(-3, max(grid.dims) + 3)))
    on_face = draw(arrays(np.bool_, (n, 3)))
    return grid, np.where(on_face, grid.bounds.lo + k * grid.cell_size, free)


def _assert_same(a: np.ndarray, b: np.ndarray) -> None:
    assert a.dtype == b.dtype
    assert a.shape == b.shape
    assert np.array_equal(a, b)


# -- properties ---------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(grid_and_points())
def test_cell_index_of_equals_reference(case):
    grid, points = case
    _assert_same(grid.cell_index_of(points), ref_cell_index_of(grid, points))


@settings(max_examples=100, deadline=None)
@given(grid_and_points(min_points=1))
def test_cell_index_of_single_point_equals_reference(case):
    grid, points = case
    point = tuple(points[0])
    _assert_same(grid.cell_index_of(point), ref_cell_index_of(grid, point))


@settings(max_examples=150, deadline=None)
@given(grid_and_points(min_points=1), st.floats(1.0, 40.0))
def test_occupancy_equals_reference(case, scale):
    grid, points = case
    frame = PointCloudFrame(points, nominal_points=int(len(points) * scale))
    new, ref = grid.occupancy(frame), ref_occupancy(grid, frame)
    _assert_same(new.cell_ids, ref.cell_ids)
    _assert_same(new.counts, ref.counts)
    assert new.scale_factor == ref.scale_factor


def test_occupancy_of_synthesized_frames_equals_reference_at_paper_sizes():
    video = synthesize_video("high", num_frames=3, points_per_frame=5000, seed=3)
    for cell_size in PAPER_CELL_SIZES:
        grid = CellGrid.covering(video.bounds, cell_size, margin=0.05)
        for frame in video.frames:
            new, ref = grid.occupancy(frame), ref_occupancy(grid, frame)
            _assert_same(new.cell_ids, ref.cell_ids)
            _assert_same(new.counts, ref.counts)
            # A grid without margin puts hull points on the far faces.
            tight = CellGrid.covering(video.bounds, cell_size)
            _assert_same(
                tight.cell_index_of(frame.points),
                ref_cell_index_of(tight, frame.points),
            )
