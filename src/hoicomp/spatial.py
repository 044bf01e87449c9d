"""Two-channel binary spatial maps for batches of human/object box pairs.

Both boxes of a pair are re-expressed in the frame of their union box (the
tight box enclosing both) and rasterized onto a 64x64 grid, one channel per
box. A cell is set iff its center lies inside the transformed box, with
half-open edges [x1, x2) x [y1, y2) so adjacent boxes tile without overlap.
One broadcast rasterizes a whole batch; a single pair is a batch of one.
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


def check_boxes(boxes: np.ndarray, locate) -> None:
    """Raise ``InvalidBox`` at the first row of an (n, 4) array of
    (x1, y1, x2, y2) rows that ``Box2D`` would reject, for the first of its
    reasons that row fails; ``locate(k)`` names row k in the message."""
    if not boxes.size:
        return
    # min and max propagate nan, so these whole-array tests see every bad value
    if boxes.min() >= 0 and np.isfinite(boxes.max()) and (boxes[:, :2] < boxes[:, 2:]).all():
        return
    reasons = (
        (~np.isfinite(boxes).all(axis=1), "non-finite coordinates"),
        ((boxes < 0).any(axis=1), "negative coordinates"),
        (~(boxes[:, :2] < boxes[:, 2:]).all(axis=1), "box not properly ordered"),
    )
    k = int(np.argmax(reasons[0][0] | reasons[1][0] | reasons[2][0]))
    what = next(what for mask, what in reasons if mask[k])
    raise InvalidBox(f"{locate(k)}: {what} {boxes[k].tolist()}")


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


def spatial_vector(human_boxes, object_boxes, size: int = GRID_SIZE) -> np.ndarray:
    """Rasterize n human/object box pairs, given as (n, 4) arrays, into their
    union-box frames: an (n, 2 * size**2) float64 array whose row k holds the
    flattened human channel, then the object channel, of pair k.

    Raises:
        DegenerateBox: a box so thin relative to its union that no cell
            center falls inside it. Callers must supply usable boxes.
    """
    boxes = np.stack([human_boxes, object_boxes], axis=1).astype(np.float64)  # (n, 2, 4)
    frame_lo = np.minimum(boxes[:, 0, :2], boxes[:, 1, :2])[:, None]  # union x1, y1
    frame_hi = np.maximum(boxes[:, 0, 2:], boxes[:, 1, 2:])[:, None]  # union x2, y2
    scale = size / (frame_hi - frame_lo)
    lo = (boxes[..., :2] - frame_lo) * scale  # (n, 2, 2): grid x1, y1 per channel
    hi = (boxes[..., 2:] - frame_lo) * scale
    centers = np.arange(size) + 0.5
    inside = (centers >= lo[..., None]) & (centers < hi[..., None])  # (n, 2, 2, size)
    cols, rows = inside[:, :, 0], inside[:, :, 1]
    empty = ~(cols.any(axis=-1) & rows.any(axis=-1))
    if empty.any():
        k, channel = np.argwhere(empty)[0]
        box = tuple(boxes[k, channel].tolist())
        raise DegenerateBox(f"pair {k}: box {box} covers no cell center in its union frame")
    grids = rows[..., :, None] & cols[..., None, :]
    return grids.reshape(len(boxes), -1).astype(np.float64)


def encode_spatial_map(human: Box2D, obj: Box2D, size: int = GRID_SIZE) -> SpatialMap:
    """``spatial_vector`` of one pair, as a map. Channel 0 marks the human
    box, channel 1 the object box. The union frame makes the encoding
    invariant to translating or uniformly scaling both boxes together."""
    vec = spatial_vector([human.as_tuple()], [obj.as_tuple()], size)
    person, obj_channel = vec.reshape(2, size, size).astype(np.uint8)
    return SpatialMap(person_channel=person, object_channel=obj_channel)


def ascii_art(smap: SpatialMap) -> str:
    """Render each channel as '#'/'.' rows for eyeballing on a terminal."""
    blocks = []
    for name, grid in (("person", smap.person_channel), ("object", smap.object_channel)):
        rows = ["".join("#" if v else "." for v in row) for row in grid]
        blocks.append(f"[{name}]\n" + "\n".join(rows))
    return "\n".join(blocks)
