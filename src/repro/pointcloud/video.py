"""Volumetric video container and the paper's three quality levels.

The paper creates three versions of the soldier video by varying point
density — 330K, 430K and 550K points per frame — whose Draco-compressed
bitrates span "235 to 364 Mbps".  Those calibration points live here as
:data:`QUALITIES` and are consumed by the compression model and by Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..geometry import AABB
from .cells import CellGrid
from .cloud import PointCloudFrame
from .octree import build_octree

__all__ = ["QualityLevel", "QUALITIES", "QUALITY_ORDER", "PointCloudVideo"]


@dataclass(frozen=True)
class QualityLevel:
    """One encoding quality of a volumetric video.

    Attributes:
        name: ``"low"`` / ``"medium"`` / ``"high"``.
        points_per_frame: nominal full-density point count.
        bitrate_mbps: Draco-compressed streaming bitrate at 30 FPS.  The low
            and high values are the endpoints the paper reports; medium is
            interpolated on point count.
    """

    name: str
    points_per_frame: int
    bitrate_mbps: float

    @property
    def bytes_per_frame(self) -> float:
        """Compressed frame size in bytes at 30 FPS."""
        return self.bitrate_mbps * 1e6 / 8.0 / 30.0

    @property
    def bytes_per_point(self) -> float:
        return self.bytes_per_frame / self.points_per_frame


QUALITIES: dict[str, QualityLevel] = {
    "low": QualityLevel("low", 330_000, 235.0),
    "medium": QualityLevel("medium", 430_000, 294.0),
    "high": QualityLevel("high", 550_000, 364.0),
}

QUALITY_ORDER: tuple[str, ...] = ("low", "medium", "high")


@dataclass
class PointCloudVideo:
    """An ordered sequence of point-cloud frames at a fixed frame rate."""

    name: str
    frames: list[PointCloudFrame]
    fps: float = 30.0
    quality: QualityLevel = field(default_factory=lambda: QUALITIES["high"])
    # Per-instance stores behind :meth:`occupancy`: every session that plays
    # this video object shares them, and they go when the video does.
    _grids: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _occupancies: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not self.frames:
            raise ValueError("a video needs at least one frame")
        if self.fps <= 0:
            raise ValueError("fps must be positive")

    def __len__(self) -> int:
        return len(self.frames)

    def __getitem__(self, index: int) -> PointCloudFrame:
        return self.frames[index]

    def __iter__(self):
        return iter(self.frames)

    @property
    def duration(self) -> float:
        """Video length in seconds."""
        return len(self.frames) / self.fps

    @property
    def bounds(self) -> AABB:
        """Union bounding box over all frames (the content volume)."""
        box = self.frames[0].bounds
        for frame in self.frames[1:]:
            box = box.union(frame.bounds)
        return box

    def occupancy(
        self,
        index: int,
        cell_size: float,
        partitioner: str = "grid",
        points_per_leaf: int = 300,
    ):
        """Cell occupancy of frame ``index``, built once per video object.

        ``"grid"`` partitions on ``CellGrid.covering(bounds, cell_size,
        margin=0.05)``; ``"octree"`` builds adaptive leaves of about
        ``points_per_leaf`` sampled points under the video's bounds.  The
        result is keyed by ``(partitioner, cell_size, points_per_leaf,
        index)`` and shared by every caller, together with its visibility
        memo (see :func:`~repro.pointcloud.visibility.memoized_visibility`),
        so the frames must not be edited in place afterwards.
        """
        key = (partitioner, cell_size, points_per_leaf, index)
        occupancy = self._occupancies.get(key)
        if occupancy is None:
            if partitioner == "octree":
                occupancy = build_octree(
                    self.frames[index],
                    root=self.bounds,
                    max_points_per_leaf=points_per_leaf,
                ).occupancy()
            else:
                grid = self._grids.get(cell_size)
                if grid is None:
                    grid = self._grids[cell_size] = CellGrid.covering(
                        self.bounds, cell_size, margin=0.05
                    )
                occupancy = grid.occupancy(self.frames[index])
            self._occupancies[key] = occupancy
        return occupancy

    def frame_at(self, t: float) -> PointCloudFrame:
        """Frame displayed at time ``t`` seconds (clamped to the video)."""
        index = int(t * self.fps)
        index = max(0, min(index, len(self.frames) - 1))
        return self.frames[index]

    def translated(self, offset) -> "PointCloudVideo":
        """The video moved by ``offset`` (e.g. to place content in a room).

        Trace studies and the room channel share world coordinates; use
        this to put the content where the users actually look.
        """
        import numpy as np

        off = np.asarray(offset, dtype=np.float64)
        return PointCloudVideo(
            name=self.name,
            frames=[f.transformed(off) for f in self.frames],
            fps=self.fps,
            quality=self.quality,
        )

    def at_quality(self, name: str) -> "PointCloudVideo":
        """The same geometry re-labeled at another quality level.

        Quality only changes the nominal density/bitrate, not the sampled
        geometry, mirroring how the paper derives the three versions from
        one capture.
        """
        level = QUALITIES[name]
        frames = [
            PointCloudFrame(f.points, nominal_points=level.points_per_frame)
            for f in self.frames
        ]
        return PointCloudVideo(
            name=self.name.rsplit("-", 1)[0] + f"-{level.name}",
            frames=frames,
            fps=self.fps,
            quality=level,
        )
