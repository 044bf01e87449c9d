"""Two-channel binary spatial maps for batches of human/object box pairs.

Both boxes of a pair are re-expressed in the frame of their union box (the
tight box enclosing both) and rasterized onto a 64x64 grid, one channel per
box. A cell is set iff its center lies inside the transformed box, with
half-open edges [x1, x2) x [y1, y2) so adjacent boxes tile without overlap.
The union frame makes the encoding invariant to translating or uniformly
scaling both boxes together.

The set cells of a channel are therefore one rectangle of cells: a column
range times a row range. ``cell_spans`` computes those ranges for a batch,
and is the one place that applies the rasterization rule. ``spatial_vector``
draws the rasterized rows from them for training and display; ``rect_sums``
gives their product with a weight matrix without drawing them, which is how
scoring reads the raster (``network.forward_spatial_human_boxes``).

This module owns the raster's layout: a row is ``RASTER_WIDTH`` wide and
holds the human channel, then the object channel, each ``GRID_SIZE`` rows
of ``GRID_SIZE`` columns. Other modules know only that width, and reach the
cells through ``spatial_vector`` and ``rect_sums``.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateBox, DimensionMismatch, InvalidBox

GRID_SIZE = 64
RASTER_WIDTH = 2 * GRID_SIZE * GRID_SIZE  # the width of a spatial_vector row

# float64 elements per row block of rect_sums' lookups, both channels
# together: 256 KiB, so a block's temporaries stay in a 2 MiB L2 cache
_LOOKUP_BLOCK = 32768

_CENTERS = np.arange(GRID_SIZE) + 0.5


def check_boxes(boxes: np.ndarray, locate) -> None:
    """Check an (n, 4) array of (x1, y1, x2, y2) boxes in pixel coordinates.

    A box is valid when its coordinates are finite and non-negative, and
    ``x1 < x2`` and ``y1 < y2``. Raises ``InvalidBox`` at the first invalid
    row, for the first of those rules it breaks; ``locate(k)`` names row k
    in the message."""
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


def cell_spans(human_boxes, object_boxes) -> tuple[np.ndarray, np.ndarray]:
    """The cells each of n human/object box pairs, given as (n, 4) arrays,
    covers in its union-box frame: ``(start, stop)``, two (n, 2, 2) int
    arrays indexed by pair, channel (human, object) and axis (x, y). The
    cells of a channel are columns ``[start[k, c, 0], stop[k, c, 0])`` times
    rows ``[start[k, c, 1], stop[k, c, 1])``.

    Raises:
        DegenerateBox: a box so thin relative to its union that no cell
            center falls inside it, on one axis or both. Callers must supply
            usable boxes.
    """
    boxes = np.stack([human_boxes, object_boxes], axis=1).astype(np.float64)  # (n, 2, 4)
    frame_lo = np.minimum(boxes[:, 0, :2], boxes[:, 1, :2])[:, None]  # union x1, y1
    frame_hi = np.maximum(boxes[:, 0, 2:], boxes[:, 1, 2:])[:, None]  # union x2, y2
    scale = GRID_SIZE / (frame_hi - frame_lo)
    lo = (boxes[..., :2] - frame_lo) * scale  # (n, 2, 2): grid x1, y1 per channel
    hi = (boxes[..., 2:] - frame_lo) * scale
    # the cell centers are sorted, so the first center >= lo and the first
    # center >= hi bound the centers with lo <= center < hi
    start = np.searchsorted(_CENTERS, lo)
    stop = np.searchsorted(_CENTERS, hi)
    stop[np.isnan(hi)] = 0  # searchsorted places nan after every center; no center is < nan
    empty = (stop <= start).any(axis=-1)  # (n, 2)
    if empty.any():
        k, channel = np.argwhere(empty)[0]
        box = tuple(boxes[k, channel].tolist())
        raise DegenerateBox(f"pair {k}: box {box} covers no cell center in its union frame")
    return start, stop


def spatial_vector(human_boxes, object_boxes) -> np.ndarray:
    """Rasterize n human/object box pairs, given as (n, 4) arrays, into their
    union-box frames: an (n, RASTER_WIDTH) uint8 array whose row k holds
    the flattened human channel, then the object channel, of pair k. A cell
    is 1 iff ``cell_spans`` puts it inside the channel's box. The bytes are
    those of the boolean grid, with no wider copy: the network scales them
    into its own float input.

    Raises:
        DegenerateBox: as ``cell_spans``.
    """
    start, stop = cell_spans(human_boxes, object_boxes)
    cells = np.arange(GRID_SIZE)
    inside = (cells >= start[..., None]) & (cells < stop[..., None])  # (n, 2, 2, GRID_SIZE)
    cols, rows = inside[:, :, 0], inside[:, :, 1]
    grids = rows[..., :, None] & cols[..., None, :]
    return grids.reshape(len(start), -1).view(np.uint8)


def rect_sums(human_boxes, object_boxes, weights) -> np.ndarray:
    """``spatial_vector(human_boxes, object_boxes) @ weights`` up to
    rounding, without drawing the raster: an (n, m) float64 array for n
    box pairs, given as (n, 4) arrays, and (RASTER_WIDTH, m) ``weights``.

    A channel's raster is 1 on one rectangle of cells (``cell_spans``), so
    its product with the channel's rows of ``weights`` is the sum of those
    rows over the rectangle: four lookups in their 2-D prefix sum, a
    (GRID_SIZE + 1, GRID_SIZE + 1, m) table per channel, built once per
    call. The object channel's sum is added to the human channel's.

    Raises:
        DimensionMismatch: ``weights`` is not (RASTER_WIDTH, m).
        DegenerateBox: as ``cell_spans``.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[0] != RASTER_WIDTH:
        raise DimensionMismatch(f"weights have shape {weights.shape}, expected ({RASTER_WIDTH}, m)")
    start, stop = cell_spans(human_boxes, object_boxes)  # (n, channel, axis x/y)
    m = weights.shape[1]
    # table[c, y, x] sums channel c's rows over cell rows < y and columns < x:
    # the running sums of np.cumsum along y, then x, one slice at a time. Both
    # channels' tables share one buffer, 4.3 MB at m = 64: numpy advises huge
    # pages for it (over 4 MiB), and a 2.2 MB table per channel measured a
    # slower set-up in the pipeline run after scoring (2-core Xeon, huge pages
    # on madvise)
    table = np.zeros((2, GRID_SIZE + 1, GRID_SIZE + 1, m))
    acc = table[:, 1:, 1:]
    acc[...] = weights.reshape(2, GRID_SIZE, GRID_SIZE, m)
    for k in range(1, GRID_SIZE):
        acc[:, k] += acc[:, k - 1]
    for k in range(1, GRID_SIZE):
        acc[:, :, k] += acc[:, :, k - 1]
    x0, y0, x1, y1 = start[..., 0], start[..., 1], stop[..., 0], stop[..., 1]  # (n, channel)
    out = np.empty((len(start), m))
    rows = max(1, _LOOKUP_BLOCK // (2 * m))
    for b in (slice(k, k + rows) for k in range(0, len(out), rows)):  # elementwise, in row blocks
        human, obj = (t[y1[b, c], x1[b, c]] - t[y0[b, c], x1[b, c]]
                      - t[y1[b, c], x0[b, c]] + t[y0[b, c], x0[b, c]] for c, t in enumerate(table))
        np.add(human, obj, out=out[b])
    return out


def ascii_art(vector: np.ndarray) -> str:
    """Render one row of ``spatial_vector`` as '#'/'.' rows, one block per
    channel, for eyeballing on a terminal."""
    blocks = []
    for name, grid in zip(("person", "object"), np.reshape(vector, (2, GRID_SIZE, GRID_SIZE))):
        rows = ["".join("#" if v else "." for v in row) for row in grid]
        blocks.append(f"[{name}]\n" + "\n".join(rows))
    return "\n".join(blocks)
