import numpy as np
import pytest

from hoicomp.errors import DegenerateBox, InvalidBox
from hoicomp.spatial import (
    GRID_SIZE,
    Box2D,
    SpatialMap,
    ascii_art,
    encode_spatial_map,
    spatial_vector,
)


def union_frame(a, b):
    """Tight box enclosing both inputs."""
    return Box2D(min(a.x1, b.x1), min(a.y1, b.y1), max(a.x2, b.x2), max(a.y2, b.y2))


def brute_rasterize(box, frame, size=GRID_SIZE):
    """Per-cell center test, scalar loops; the independent oracle."""
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


class TestBox2D:
    def test_valid(self):
        box = Box2D(1.0, 2.0, 4.0, 8.0)
        assert box.width == 3.0 and box.height == 6.0 and box.area == 18.0

    @pytest.mark.parametrize(
        "coords",
        [(5, 0, 1, 10), (0, 5, 10, 1), (0, 0, 0, 10), (-1, 0, 5, 5), (0, 0, float("nan"), 5)],
    )
    def test_invalid(self, coords):
        with pytest.raises(InvalidBox):
            Box2D(*coords)


class TestEncode:
    def test_full_coverage(self):
        box = Box2D(3, 4, 13, 24)
        smap = encode_spatial_map(box, box)
        assert smap.person_channel.all()
        assert smap.object_channel.all()

    def test_left_right_halves(self):
        smap = encode_spatial_map(Box2D(0, 0, 10, 10), Box2D(10, 0, 20, 10))
        person, obj = smap.person_channel, smap.object_channel
        assert person[:, :32].all() and not person[:, 32:].any()
        assert obj[:, 32:].all() and not obj[:, :32].any()

    def test_counts_match_bruteforce(self):
        human, obj = Box2D(0, 0, 10, 10), Box2D(10, 0, 20, 10)
        frame = union_frame(human, obj)
        smap = encode_spatial_map(human, obj)
        np.testing.assert_array_equal(smap.person_channel, brute_rasterize(human, frame))
        np.testing.assert_array_equal(smap.object_channel, brute_rasterize(obj, frame))

    def test_random_against_bruteforce(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            x1, y1 = rng.uniform(0, 50, 2)
            human = Box2D(x1, y1, x1 + rng.uniform(5, 60), y1 + rng.uniform(5, 60))
            x1, y1 = rng.uniform(0, 50, 2)
            obj = Box2D(x1, y1, x1 + rng.uniform(5, 60), y1 + rng.uniform(5, 60))
            frame = union_frame(human, obj)
            smap = encode_spatial_map(human, obj)
            np.testing.assert_array_equal(smap.person_channel, brute_rasterize(human, frame))
            np.testing.assert_array_equal(smap.object_channel, brute_rasterize(obj, frame))

    def test_translation_scale_invariance(self):
        rng = np.random.default_rng(9)
        human = Box2D(3, 7, 40, 30)
        obj = Box2D(25, 5, 90, 55)
        base = encode_spatial_map(human, obj)
        for _ in range(10):
            dx, dy = rng.uniform(0, 100, 2)
            s = rng.uniform(0.2, 5.0)

            def move(b):
                return Box2D(s * (b.x1 + dx), s * (b.y1 + dy), s * (b.x2 + dx), s * (b.y2 + dy))

            shifted = encode_spatial_map(move(human), move(obj))
            np.testing.assert_array_equal(shifted.person_channel, base.person_channel)
            np.testing.assert_array_equal(shifted.object_channel, base.object_channel)

    def test_swap_swaps_channels(self):
        human = Box2D(0, 0, 30, 20)
        obj = Box2D(15, 10, 60, 45)
        a = encode_spatial_map(human, obj)
        b = encode_spatial_map(obj, human)
        np.testing.assert_array_equal(a.person_channel, b.object_channel)
        np.testing.assert_array_equal(a.object_channel, b.person_channel)

    def test_solid_rectangle(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            x1, y1 = rng.uniform(0, 40, 2)
            human = Box2D(x1, y1, x1 + rng.uniform(5, 50), y1 + rng.uniform(5, 50))
            x1, y1 = rng.uniform(0, 40, 2)
            obj = Box2D(x1, y1, x1 + rng.uniform(5, 50), y1 + rng.uniform(5, 50))
            smap = encode_spatial_map(human, obj)
            for grid in (smap.person_channel, smap.object_channel):
                rows = np.flatnonzero(grid.any(axis=1))
                cols = np.flatnonzero(grid.any(axis=0))
                block = np.zeros_like(grid)
                block[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1] = 1
                np.testing.assert_array_equal(grid, block)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateBox):
            encode_spatial_map(Box2D(0, 0, 0.01, 0.01), Box2D(0, 0, 1000, 1000))

    def test_each_channel_nonempty(self):
        smap = encode_spatial_map(Box2D(0, 0, 5, 5), Box2D(100, 100, 105, 105))
        assert smap.person_channel.any()
        assert smap.object_channel.any()


def random_boxes(rng, n):
    corner = rng.uniform(0, 500, (n, 2))
    return np.concatenate([corner, corner + rng.uniform(5, 300, (n, 2))], axis=1)


class TestBatch:
    def test_rows_match_single_pair_maps(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 7, 40):
            human, obj = random_boxes(rng, n), random_boxes(rng, n)
            got = spatial_vector(human, obj)
            want = np.stack([
                encode_spatial_map(Box2D(*human[k]), Box2D(*obj[k])).as_vector() for k in range(n)
            ])
            assert got.dtype == np.float64 and got.shape == (n, 2 * GRID_SIZE * GRID_SIZE)
            assert got.tobytes() == want.tobytes()

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


class TestRendering:
    def test_vector_layout(self):
        smap = encode_spatial_map(Box2D(0, 0, 10, 10), Box2D(10, 0, 20, 10))
        vec = smap.as_vector()
        assert vec.shape == (2 * GRID_SIZE * GRID_SIZE,)
        np.testing.assert_array_equal(
            vec[: GRID_SIZE * GRID_SIZE].reshape(GRID_SIZE, GRID_SIZE), smap.person_channel
        )

    def test_ascii_art(self):
        smap = SpatialMap(
            person_channel=np.eye(GRID_SIZE, dtype=np.uint8),
            object_channel=np.ones((GRID_SIZE, GRID_SIZE), dtype=np.uint8),
        )
        art = ascii_art(smap)
        assert art.startswith("[person]\n#")
        assert art.count("\n") == 2 * GRID_SIZE + 1
