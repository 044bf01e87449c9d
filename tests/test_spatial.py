import re
from typing import NamedTuple

import numpy as np
import pytest

from hoicomp.errors import DegenerateBox, DimensionMismatch, InvalidBox
from hoicomp.spatial import (
    GRID_SIZE,
    RASTER_WIDTH,
    ascii_art,
    cell_spans,
    check_boxes,
    rect_sums,
    spatial_vector,
)


class Box(NamedTuple):
    """One (x1, y1, x2, y2) box, for the scalar oracle below."""

    x1: float
    y1: float
    x2: float
    y2: float


def union_frame(a, b):
    """Tight box enclosing both inputs."""
    return Box(min(a.x1, b.x1), min(a.y1, b.y1), max(a.x2, b.x2), max(a.y2, b.y2))


def brute_rasterize(box, frame, size=GRID_SIZE):
    """Per-cell center test, scalar loops; the independent oracle."""
    box, frame = Box(*box), Box(*frame)
    sx = size / (frame.x2 - frame.x1)
    sy = size / (frame.y2 - frame.y1)
    gx1, gx2 = (box.x1 - frame.x1) * sx, (box.x2 - frame.x1) * sx
    gy1, gy2 = (box.y1 - frame.y1) * sy, (box.y2 - frame.y1) * sy
    grid = np.zeros((size, size), dtype=np.uint8)
    for r in range(size):
        for c in range(size):
            cx, cy = c + 0.5, r + 0.5
            if gx1 <= cx < gx2 and gy1 <= cy < gy2:
                grid[r, c] = 1
    return grid


def brute_pair(human, obj, size=GRID_SIZE):
    """(person, object) channels of one box pair, from the oracle."""
    frame = union_frame(Box(*human), Box(*obj))
    return brute_rasterize(human, frame, size), brute_rasterize(obj, frame, size)


def channels(human, obj):
    """(person, object) channels of one box pair: ``spatial_vector`` of a
    batch of one, reshaped to two grids."""
    vec = spatial_vector(np.array([human], dtype=np.float64), np.array([obj], dtype=np.float64))
    assert vec.shape == (1, 2 * GRID_SIZE * GRID_SIZE)
    return vec.reshape(2, GRID_SIZE, GRID_SIZE)


def random_box(rng, lo, hi, size_lo, size_hi):
    x1, y1 = rng.uniform(lo, hi, 2)
    return Box(x1, y1, x1 + rng.uniform(size_lo, size_hi), y1 + rng.uniform(size_lo, size_hi))


class TestBox2D:
    """The (x1, y1, x2, y2) box rules of ``check_boxes``."""

    def test_valid(self):
        check_boxes(np.array([[1.0, 2.0, 4.0, 8.0], [0.0, 0.0, 0.5, 0.5]]), str)
        check_boxes(np.empty((0, 4)), str)

    @pytest.mark.parametrize(
        "coords",
        [(5, 0, 1, 10), (0, 5, 10, 1), (0, 0, 0, 10), (-1, 0, 5, 5), (0, 0, float("nan"), 5)],
    )
    def test_invalid(self, coords):
        boxes = np.array([(0, 0, 1, 1), coords], dtype=np.float64)
        with pytest.raises(InvalidBox, match="^row 1: "):
            check_boxes(boxes, lambda k: f"row {k}")


class TestEncode:
    def test_full_coverage(self):
        box = (3, 4, 13, 24)
        person, obj = channels(box, box)
        assert person.all() and obj.all()

    def test_left_right_halves(self):
        person, obj = channels((0, 0, 10, 10), (10, 0, 20, 10))
        assert person[:, :32].all() and not person[:, 32:].any()
        assert obj[:, 32:].all() and not obj[:, :32].any()

    def test_counts_match_bruteforce(self):
        human, obj = (0, 0, 10, 10), (10, 0, 20, 10)
        np.testing.assert_array_equal(channels(human, obj), brute_pair(human, obj))

    def test_random_against_bruteforce(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            human = random_box(rng, 0, 50, 5, 60)
            obj = random_box(rng, 0, 50, 5, 60)
            np.testing.assert_array_equal(channels(human, obj), brute_pair(human, obj))

    def test_translation_scale_invariance(self):
        rng = np.random.default_rng(9)
        human = Box(3, 7, 40, 30)
        obj = Box(25, 5, 90, 55)
        base = channels(human, obj)
        for _ in range(10):
            dx, dy = rng.uniform(0, 100, 2)
            s = rng.uniform(0.2, 5.0)

            def move(b):
                return Box(s * (b.x1 + dx), s * (b.y1 + dy), s * (b.x2 + dx), s * (b.y2 + dy))

            np.testing.assert_array_equal(channels(move(human), move(obj)), base)

    def test_swap_swaps_channels(self):
        human = (0, 0, 30, 20)
        obj = (15, 10, 60, 45)
        np.testing.assert_array_equal(channels(human, obj), channels(obj, human)[::-1])

    def test_solid_rectangle(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            human = random_box(rng, 0, 40, 5, 50)
            obj = random_box(rng, 0, 40, 5, 50)
            for grid in channels(human, obj):
                rows = np.flatnonzero(grid.any(axis=1))
                cols = np.flatnonzero(grid.any(axis=0))
                block = np.zeros_like(grid)
                block[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1] = 1
                np.testing.assert_array_equal(grid, block)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateBox, match="pair 0"):
            channels((0, 0, 0.01, 0.01), (0, 0, 1000, 1000))

    def test_each_channel_nonempty(self):
        person, obj = channels((0, 0, 5, 5), (100, 100, 105, 105))
        assert person.any() and obj.any()


def random_boxes(rng, n):
    corner = rng.uniform(0, 500, (n, 2))
    return np.concatenate([corner, corner + rng.uniform(5, 300, (n, 2))], axis=1)


class TestBatch:
    def test_rows_match_single_pair_maps(self):
        """Row k of a batch is the map of pair k alone, as the oracle draws it."""
        rng = np.random.default_rng(23)
        for n in (1, 2, 7, 40):
            human, obj = random_boxes(rng, n), random_boxes(rng, n)
            got = spatial_vector(human, obj)
            assert got.dtype == np.uint8 and got.shape == (n, 2 * GRID_SIZE * GRID_SIZE)
            for k in range(n):
                alone = spatial_vector(human[k : k + 1], obj[k : k + 1])
                assert got[k].tobytes() == alone[0].tobytes()
                np.testing.assert_array_equal(
                    got[k].reshape(2, GRID_SIZE, GRID_SIZE), brute_pair(human[k], obj[k])
                )

    def test_one_degenerate_row_anywhere_raises(self):
        rng = np.random.default_rng(24)
        human, obj = random_boxes(rng, 6), random_boxes(rng, 6)
        spatial_vector(human, obj)
        for k in range(6):
            for channel in (0, 1):
                pair = [human.copy(), obj.copy()]
                pair[channel][k] = (0, 0, 0.01, 0.01)  # too thin for the union frame
                pair[1 - channel][k] = (0, 0, 1000, 1000)
                with pytest.raises(DegenerateBox, match=f"pair {k}"):
                    spatial_vector(*pair)


def broadcast_raster(human, obj):
    """The rasterizer that preceded ``cell_spans``: every cell center tested
    against every box in one broadcast, giving boolean cells. Degenerate
    boxes are not checked."""
    boxes = np.stack([human, obj], axis=1).astype(np.float64)
    frame_lo = np.minimum(boxes[:, 0, :2], boxes[:, 1, :2])[:, None]
    frame_hi = np.maximum(boxes[:, 0, 2:], boxes[:, 1, 2:])[:, None]
    scale = GRID_SIZE / (frame_hi - frame_lo)
    lo = (boxes[..., :2] - frame_lo) * scale
    hi = (boxes[..., 2:] - frame_lo) * scale
    centers = np.arange(GRID_SIZE) + 0.5
    inside = (centers >= lo[..., None]) & (centers < hi[..., None])
    cols, rows = inside[:, :, 0], inside[:, :, 1]
    return (rows[..., :, None] & cols[..., None, :]).reshape(len(boxes), -1)


def lattice_pairs(rng, n):
    """n human/object box pairs, as two (n, 4) arrays, whose every edge lies
    on a cell center or a cell border of the pair's union frame, exactly: the
    pair is drawn on a half-unit lattice of a 64-unit union, then scaled by a
    power of two and shifted by an integer."""
    boxes = np.empty((n, 2, 2, 2))  # pair, box, axis, (low, high) edge
    for index in np.ndindex(n, 2, 2):
        boxes[index] = np.sort(rng.choice(2 * GRID_SIZE + 1, size=2, replace=False)) / 2
    pairs, axes = np.arange(n)[:, None], np.arange(2)
    boxes[pairs, rng.integers(0, 2, (n, 2)), axes, 0] = 0.0  # one box reaches each
    boxes[pairs, rng.integers(0, 2, (n, 2)), axes, 1] = GRID_SIZE  # side of the union
    boxes = boxes * 2.0 ** rng.integers(-2, 4, (n, 1, 1, 1)) + rng.integers(0, 500, (n, 1, 1, 1))
    boxes = boxes.transpose(0, 1, 3, 2).reshape(n, 2, 4)  # x1, y1, x2, y2
    return boxes[:, 0], boxes[:, 1]


FULL = (0.0, 0.0, 64.0, 64.0)  # a union frame in which grid and box coordinates coincide

# object boxes inside FULL, with the cells (x0, x1, y0, y1) they cover
EDGE_CASES = [
    ((10.5, 3.5, 20.5, 4.5), (10, 20, 3, 4)),    # every edge on a cell center
    ((10.0, 3.0, 11.0, 4.0), (10, 11, 3, 4)),    # one cell, edges on cell borders
    ((10.5, 3.5, 11.5, 4.5), (10, 11, 3, 4)),    # one cell, edges on cell centers
    ((63.5, 0.0, 64.0, 0.5), (63, 64, 0, 0)),    # upper edge on the first center: no row
    ((63.5, 0.0, 64.0, 0.500001), (63, 64, 0, 1)),  # just above it: one row
    ((0.0, 0.0, 64.0, 64.0), (0, 64, 0, 64)),    # the full frame
    ((0.0, 62.5, 0.5, 64.0), (0, 0, 62, 64)),    # x range ends on the first center: no column
]


class TestCellSpans:
    def test_edge_boxes(self):
        human = np.array([FULL] * len(EDGE_CASES))
        obj = np.array([box for box, _ in EDGE_CASES])
        start, stop = cell_spans(human[:2], obj[:2])
        assert start.shape == stop.shape == (2, 2, 2)
        for k, (box, (x0, x1, y0, y1)) in enumerate(EDGE_CASES):
            pair = (human[k : k + 1], obj[k : k + 1])
            if x0 == x1 or y0 == y1:
                with pytest.raises(DegenerateBox, match="pair 0"):
                    cell_spans(*pair)
                continue
            start, stop = cell_spans(*pair)
            np.testing.assert_array_equal(start[0], [[0, 0], [x0, y0]])
            np.testing.assert_array_equal(stop[0], [[64, 64], [x1, y1]])
            np.testing.assert_array_equal(spatial_vector(*pair), broadcast_raster(*pair))

    def test_rows_equal_broadcast_raster(self):
        rng = np.random.default_rng(41)
        human, obj = random_boxes(rng, 200), random_boxes(rng, 200)
        np.testing.assert_array_equal(spatial_vector(human, obj), broadcast_raster(human, obj))

    def test_lattice_rows_equal_broadcast_raster(self):
        human, obj = lattice_pairs(np.random.default_rng(42), 400)
        want = broadcast_raster(human, obj)
        usable = want.reshape(-1, 2, GRID_SIZE * GRID_SIZE).any(axis=2).all(axis=1)
        assert 0 < usable.sum() < len(usable)  # some boxes cover no cell center
        np.testing.assert_array_equal(spatial_vector(human[usable], obj[usable]), want[usable])
        for k in np.flatnonzero(~usable):
            with pytest.raises(DegenerateBox):
                cell_spans(human[k : k + 1], obj[k : k + 1])

    @pytest.mark.parametrize("coord", range(4))
    def test_nan_box_is_degenerate(self, coord):
        human, obj = np.array([FULL, FULL]), np.array([FULL, (1.0, 2.0, 30.0, 40.0)])
        human[1, coord] = np.nan
        with np.errstate(invalid="ignore"), pytest.raises(DegenerateBox, match="pair 1"):
            cell_spans(human, obj)


def covered(human, obj):
    """The pairs whose boxes each cover some cell center: those
    ``spatial_vector`` accepts."""
    return broadcast_raster(human, obj).reshape(len(human), 2, -1).any(axis=2).all(axis=1)


class TestRectSums:
    """``rect_sums`` is the raster's product with a weight matrix. The
    weights are positive, so no product is a cancellation and a relative
    bound holds on every entry."""

    @staticmethod
    def assert_product(human, obj, m=5):
        weights = np.random.default_rng(m).uniform(1.0, 2.0, (RASTER_WIDTH, m))
        got = rect_sums(human, obj, weights)
        assert got.dtype == np.float64 and got.shape == (len(human), m)
        np.testing.assert_allclose(got, spatial_vector(human, obj) @ weights, rtol=1e-12, atol=0)

    def test_random_boxes(self):
        rng = np.random.default_rng(51)
        human, obj = random_boxes(rng, 300), random_boxes(rng, 300)
        keep = covered(human, obj)
        assert keep.sum() > 250
        self.assert_product(human[keep], obj[keep], m=7)

    def test_lattice_boxes(self):
        human, obj = lattice_pairs(np.random.default_rng(52), 400)
        keep = covered(human, obj)
        self.assert_product(human[keep], obj[keep], m=3)

    def test_one_cell_and_full_frame_rectangles(self):
        boxes = np.array([box for box, (x0, x1, y0, y1) in EDGE_CASES if x0 < x1 and y0 < y1]
                         + [(0.0, 0.0, 1.0, 1.0), (63.0, 63.0, 64.0, 64.0), (63.0, 0.0, 64.0, 1.0)])
        full = np.array([FULL] * len(boxes))
        for human, obj in ((full, boxes), (boxes, full)):  # each channel of one cell
            self.assert_product(human, obj)

    def test_empty_batch(self):
        got = rect_sums(np.empty((0, 4)), np.empty((0, 4)), np.ones((RASTER_WIDTH, 3)))
        assert got.shape == (0, 3)

    def test_raises_degenerate_box_where_spatial_vector_does(self):
        human, obj = lattice_pairs(np.random.default_rng(53), 400)
        weights = np.ones((RASTER_WIDTH, 2))
        raised = 0
        pairs = [(human[k : k + 1], obj[k : k + 1]) for k in range(len(human))]
        for pair in [(human, obj), *pairs]:
            try:
                spatial_vector(*pair)
            except DegenerateBox as want:
                raised += 1
                with pytest.raises(DegenerateBox, match=f"^{re.escape(str(want))}$"):
                    rect_sums(*pair, weights)
            else:
                rect_sums(*pair, weights)
        assert 1 < raised < len(human)  # the whole batch and some of its pairs

    @pytest.mark.parametrize("shape", [(RASTER_WIDTH,), (RASTER_WIDTH - 1, 2), (1, RASTER_WIDTH)])
    def test_weights_of_another_shape(self, shape):
        with pytest.raises(DimensionMismatch):
            rect_sums(np.array([FULL]), np.array([FULL]), np.ones(shape))


class TestRendering:
    def test_vector_layout(self):
        """A row holds the flattened person channel, then the object channel."""
        human, obj = (0, 0, 10, 10), (10, 0, 20, 10)
        vec = spatial_vector(np.array([human], float), np.array([obj], float))[0]
        person, obj_channel = brute_pair(human, obj)
        assert vec.shape == (2 * GRID_SIZE * GRID_SIZE,)
        np.testing.assert_array_equal(vec[: GRID_SIZE * GRID_SIZE], person.ravel())
        np.testing.assert_array_equal(vec[GRID_SIZE * GRID_SIZE :], obj_channel.ravel())

    def test_ascii_art(self):
        vec = np.concatenate([np.tri(GRID_SIZE).ravel(), np.ones(GRID_SIZE * GRID_SIZE)])
        lines = ascii_art(vec).split("\n")
        assert len(lines) == 2 * GRID_SIZE + 2
        assert lines[0] == "[person]" and lines[GRID_SIZE + 1] == "[object]"
        assert lines[1] == "#" + "." * (GRID_SIZE - 1)  # grid row 0 is the first text row
        assert lines[GRID_SIZE] == "#" * GRID_SIZE
        assert all(line == "#" * GRID_SIZE for line in lines[GRID_SIZE + 2 :])
