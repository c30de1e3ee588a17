"""View frustum construction and culling.

The paper determines visible cells by frustum culling the partitioned point
cloud against each user's 6DoF viewport ("we use frustum culling [26] to
determine the cells overlapping with the 3D viewport").  This module builds
the six frustum planes from a pose (position + orientation + FoV) and tests
AABBs and point sets against them, vectorized over many cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .aabb import AABB
from .quaternion import Quaternion
from . import vec

__all__ = ["Frustum"]


@dataclass(frozen=True)
class Frustum:
    """A perspective view frustum.

    Planes are stored as ``(normal, offset)`` rows with inward-pointing
    normals: a point ``p`` is inside iff ``normal . p + offset >= 0`` for all
    six planes.  The camera looks along the pose's +X axis (see
    :meth:`Quaternion.forward`) with +Z up.

    The normals are plain scalar arithmetic on :meth:`Quaternion.axes`, the
    same IEEE operations the array form did.  The six offsets keep
    ``np.dot``: BLAS's dot product may fuse multiply-adds, so a scalar
    ``a0*b0 + a1*b1 + a2*b2`` rounds differently in a sizeable share of
    frusta (about a third of random 3-vector pairs with OpenBLAS on x86-64),
    which would move cell selections on the boundary.
    """

    position: np.ndarray
    orientation: Quaternion
    h_fov: float = np.deg2rad(90.0)
    v_fov: float = np.deg2rad(70.0)
    near: float = 0.05
    far: float = 20.0
    _normals: np.ndarray = field(init=False, repr=False)
    _offsets: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0 < self.h_fov < np.pi:
            raise ValueError("h_fov must be in (0, pi)")
        if not 0 < self.v_fov < np.pi:
            raise ValueError("v_fov must be in (0, pi)")
        if not 0 < self.near < self.far:
            raise ValueError("need 0 < near < far")
        object.__setattr__(
            self, "position", np.asarray(self.position, dtype=np.float64)
        )
        normals, offsets = self._build_planes()
        object.__setattr__(self, "_normals", normals)
        object.__setattr__(self, "_offsets", offsets)

    def _build_planes(self) -> tuple[np.ndarray, np.ndarray]:
        f, l, u = (axis.tolist() for axis in self.orientation.axes())

        hh = 0.5 * self.h_fov
        hv = 0.5 * self.v_fov
        ch, sh = float(np.cos(hh)), float(np.sin(hh))
        cv, sv = float(np.cos(hv)), float(np.sin(hv))
        # Inward normals of the four side planes: rotate the forward vector
        # outward by half the FoV, then tilt 90 degrees toward the axis.
        normals = np.array(
            [
                f,
                [-b for b in f],
                [ch * -a + sh * b for a, b in zip(l, f)],
                [ch * a + sh * b for a, b in zip(l, f)],
                [cv * -a + sv * b for a, b in zip(u, f)],
                [cv * a + sv * b for a, b in zip(u, f)],
            ],
            dtype=np.float64,
        )
        fwd, _, n_left, n_right, n_top, n_bottom = normals
        p = self.position
        offsets = np.array(
            [
                -np.dot(fwd, p + self.near * fwd),
                np.dot(fwd, p + self.far * fwd),
                -np.dot(n_left, p),
                -np.dot(n_right, p),
                -np.dot(n_top, p),
                -np.dot(n_bottom, p),
            ],
            dtype=np.float64,
        )
        return normals, offsets

    # -- queries -----------------------------------------------------------

    @property
    def forward(self) -> np.ndarray:
        return self.orientation.forward()

    def contains_point(self, point: np.ndarray) -> bool:
        p = np.asarray(point, dtype=np.float64)
        return bool(np.all(self._normals @ p + self._offsets >= 0.0))

    def contains_points(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask over an ``(N, 3)`` array of points."""
        points = np.asarray(points, dtype=np.float64)
        # (6, N) signed distances.
        d = self._normals @ points.T + self._offsets[:, None]
        return np.all(d >= 0.0, axis=0)

    def intersects_aabb(self, box: AABB) -> bool:
        """Conservative frustum-AABB test (plane rejection).

        May report true for boxes slightly outside a frustum corner — the
        standard conservative behaviour of plane-based culling, which only
        over-fetches and never drops a visible cell.
        """
        return bool(self.intersects_aabbs(box.lo[None, :], box.hi[None, :])[0])

    def intersects_aabbs(self, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
        """Vectorized frustum-AABB test for ``(N, 3)`` corner arrays.

        For each plane, the AABB's "positive vertex" (the corner farthest in
        the direction of the plane normal) is tested; if it is behind any
        plane, the whole box is outside.
        """
        lows = np.asarray(lows, dtype=np.float64)
        highs = np.asarray(highs, dtype=np.float64)
        inside = np.ones(len(lows), dtype=bool)
        for n, off in zip(self._normals, self._offsets):
            pv = np.where(n >= 0.0, highs, lows)  # (N, 3) positive vertices
            inside &= pv @ n + off >= 0.0
        return inside

    def with_pose(self, position: np.ndarray, orientation: Quaternion) -> "Frustum":
        """A copy of this frustum moved to a new pose."""
        return Frustum(
            position=position,
            orientation=orientation,
            h_fov=self.h_fov,
            v_fov=self.v_fov,
            near=self.near,
            far=self.far,
        )

    def angular_offset(self, point: np.ndarray) -> float:
        """Angle (radians) between the view direction and ``point``."""
        return vec.angle_between(
            np.asarray(point, dtype=np.float64) - self.position, self.forward
        )
