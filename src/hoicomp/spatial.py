"""Two-channel binary spatial maps for a human/object box pair.

Both boxes are re-expressed in the frame of their union box (the tight box
enclosing both) and rasterized onto a 64x64 grid, one channel per box. A cell
is set iff its center lies inside the transformed box, with half-open edges
[x1, x2) x [y1, y2) so adjacent boxes tile without overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBox, InvalidBox

GRID_SIZE = 64


@dataclass(frozen=True)
class Box2D:
    """Axis-aligned box in pixel coordinates; x1 < x2 and y1 < y2."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        vals = (self.x1, self.y1, self.x2, self.y2)
        if not all(math.isfinite(v) for v in vals):
            raise InvalidBox(f"non-finite coordinates {vals}")
        if min(vals) < 0:
            raise InvalidBox(f"negative coordinates {vals}")
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise InvalidBox(f"box not properly ordered {vals}")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def area(self) -> float:
        return self.width * self.height

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.x1, self.y1, self.x2, self.y2)


def union_box(a: Box2D, b: Box2D) -> Box2D:
    """Tight box enclosing both inputs."""
    return Box2D(
        min(a.x1, b.x1), min(a.y1, b.y1), max(a.x2, b.x2), max(a.y2, b.y2)
    )


@dataclass(frozen=True)
class SpatialMap:
    """Binary person/object channels on the GRID_SIZE x GRID_SIZE grid."""

    person_channel: np.ndarray
    object_channel: np.ndarray

    def __post_init__(self):
        self.person_channel.setflags(write=False)
        self.object_channel.setflags(write=False)

    def as_vector(self) -> np.ndarray:
        """Flattened [person, object] channels, length 2 * GRID_SIZE**2."""
        return np.concatenate(
            [self.person_channel.ravel(), self.object_channel.ravel()]
        ).astype(np.float64)


def _rasterize(box: Box2D, frame: Box2D, size: int) -> np.ndarray:
    sx = size / frame.width
    sy = size / frame.height
    gx1 = (box.x1 - frame.x1) * sx
    gx2 = (box.x2 - frame.x1) * sx
    gy1 = (box.y1 - frame.y1) * sy
    gy2 = (box.y2 - frame.y1) * sy
    centers = np.arange(size) + 0.5
    cols = (centers >= gx1) & (centers < gx2)
    rows = (centers >= gy1) & (centers < gy2)
    grid = (rows[:, None] & cols[None, :]).astype(np.uint8)
    if not grid.any():
        raise DegenerateBox(f"box {box.as_tuple()} covers no cell center in frame {frame.as_tuple()}")
    return grid


def encode_spatial_map(human: Box2D, obj: Box2D, size: int = GRID_SIZE) -> SpatialMap:
    """Rasterize a human/object box pair into its union-box frame.

    Channel 0 marks the human box, channel 1 the object box. The union frame
    makes the encoding invariant to translating or uniformly scaling both
    boxes together.

    Raises:
        DegenerateBox: a box so thin relative to the union that no cell
            center falls inside it. Callers must supply usable boxes.
    """
    frame = union_box(human, obj)
    return SpatialMap(
        person_channel=_rasterize(human, frame, size),
        object_channel=_rasterize(obj, frame, size),
    )


def spatial_vector(human: Box2D, obj: Box2D, size: int = GRID_SIZE) -> np.ndarray:
    """Shorthand for ``encode_spatial_map(...).as_vector()``."""
    return encode_spatial_map(human, obj, size).as_vector()


def ascii_art(smap: SpatialMap) -> str:
    """Render each channel as '#'/'.' rows for eyeballing on a terminal."""
    blocks = []
    for name, grid in (("person", smap.person_channel), ("object", smap.object_channel)):
        rows = ["".join("#" if v else "." for v in row) for row in grid]
        blocks.append(f"[{name}]\n" + "\n".join(rows))
    return "\n".join(blocks)
