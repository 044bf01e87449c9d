import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoicomp.errors import (
    DanglingId,
    DimensionMismatch,
    DuplicateHoi,
    EmptyDefinition,
    ParseError,
)
from hoicomp.label_algebra import (
    build_space,
    compose,
    decompose,
    format_space,
    parse_space,
)
from hoicomp.synthdata import random_hoi_defs

from conftest import TOY_DEFS, TOY_OBJECTS, TOY_VERBS, draw_space


# ---- independent oracles working from the raw definitions ----

def brute_decompose(y, defs):
    active = [c for c in range(len(defs)) if y[c]]
    verbs = set()
    objects = set()
    for c in active:
        verbs.update(defs[c][0])
        objects.add(defs[c][1])
    return objects, verbs


def brute_compose(objects, verbs, defs):
    return np.array(
        [1 if (defs[c][1] in objects and set(defs[c][0]) & verbs) else 0 for c in range(len(defs))],
        dtype=np.uint8,
    )


def bits_to_set(vec):
    return set(int(i) for i in np.flatnonzero(vec))


def set_to_bits(ids, length):
    vec = np.zeros(length, dtype=np.uint8)
    for i in ids:
        vec[i] = 1
    return vec


class TestBuildSpace:
    def test_toy_matrices(self, toy_space):
        # ride-row spans ride-horse and ride-bicycle, feed-row only feed-horse
        assert toy_space.verb_hoi.tolist() == [[1, 0, 1], [0, 1, 0]]
        assert toy_space.object_hoi.tolist() == [[1, 1, 0], [0, 0, 1]]
        assert toy_space.num_verbs == 2
        assert toy_space.num_objects == 2
        assert toy_space.num_hois == 3

    def test_invariants_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            space, _ = draw_space(rng)
            assert (space.object_hoi.sum(axis=0) == 1).all()
            assert (space.verb_hoi.sum(axis=0) >= 1).all()
            assert (space.verb_hoi.sum(axis=1) >= 1).all()
            assert (space.object_hoi.sum(axis=1) >= 1).all()
            seen = set()
            for c in range(space.num_hois):
                key = (space.verbs_of(c), space.object_of(c))
                assert key not in seen
                seen.add(key)

    @pytest.mark.parametrize("nv,no,nh", [(117, 80, 600), (29, 69, 238)])
    def test_benchmark_scales(self, nv, no, nh):
        defs = random_hoi_defs(nv, no, nh, np.random.default_rng(0))
        space = build_space(defs)
        assert (space.num_verbs, space.num_objects, space.num_hois) == (nv, no, nh)

    def test_duplicate_hoi(self):
        with pytest.raises(DuplicateHoi):
            build_space([((0,), 0), ((0,), 0)])

    def test_dangling_verb(self):
        with pytest.raises(DanglingId):
            build_space([((0,), 0)], verb_names=("a", "b"))

    def test_id_beyond_the_name_tables(self):
        with pytest.raises(DimensionMismatch, match="id beyond the provided name tables"):
            build_space([((0,), 0), ((1,), 0)], verb_names=("a",))

    def test_dangling_object(self):
        with pytest.raises(DanglingId):
            build_space([((0,), 0), ((1,), 0)], object_names=("x", "y"))

    def test_empty(self):
        with pytest.raises(EmptyDefinition):
            build_space([])
        with pytest.raises(EmptyDefinition):
            build_space([((), 0)])

    def test_immutable(self, toy_space):
        with pytest.raises(ValueError):
            toy_space.verb_hoi[0, 0] = 0


class TestDecompose:
    def test_single_hoi(self, toy_space):
        y = set_to_bits({1}, 3)  # feed-horse
        l_o, l_v = decompose(y, toy_space)
        assert bits_to_set(l_o) == {0}  # horse
        assert bits_to_set(l_v) == {1}  # feed

    def test_shared_verb_union(self, toy_space):
        y = set_to_bits({0, 2}, 3)  # ride-horse + ride-bicycle
        l_o, l_v = decompose(y, toy_space)
        objects, verbs = brute_decompose(y, TOY_DEFS)
        assert bits_to_set(l_o) == objects == {0, 1}
        assert bits_to_set(l_v) == verbs == {0}

    def test_zero(self, toy_space):
        l_o, l_v = decompose(np.zeros(3, dtype=np.uint8), toy_space)
        assert not l_o.any() and not l_v.any()

    def test_batch(self, toy_space):
        ys = np.stack([set_to_bits({0}, 3), set_to_bits({1, 2}, 3)])
        l_o, l_v = decompose(ys, toy_space)
        assert l_o.shape == (2, 2) and l_v.shape == (2, 2)
        for row, y in zip(range(2), ys):
            objects, verbs = brute_decompose(y, TOY_DEFS)
            assert bits_to_set(l_o[row]) == objects
            assert bits_to_set(l_v[row]) == verbs

    def test_shape_mismatch(self, toy_space):
        with pytest.raises(DimensionMismatch, match="label vector has length 4, expected 3"):
            decompose(np.zeros(4, dtype=np.uint8), toy_space)


class TestCompose:
    def test_new_concept(self, toy_space):
        # ride-horse assembled although only feed-horse / ride-bicycle exist as sources
        y = compose(set_to_bits({0}, toy_space.num_objects), set_to_bits({0}, 2), toy_space)
        assert bits_to_set(y) == {0}

    def test_absent_pair(self, toy_space):
        y = compose(set_to_bits({1}, toy_space.num_objects), set_to_bits({1}, 2), toy_space)
        assert not y.any()

    def test_random_against_bruteforce(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            space, defs = draw_space(rng)
            l_o = (rng.random(space.num_objects) < 0.4).astype(np.uint8)
            l_v = (rng.random(space.num_verbs) < 0.4).astype(np.uint8)
            got = compose(l_o, l_v, space)
            want = brute_compose(bits_to_set(l_o), bits_to_set(l_v), defs)
            np.testing.assert_array_equal(got, want)

    def test_shape_mismatch(self, toy_space):
        with pytest.raises(DimensionMismatch, match="object vector has length 5, expected 2"):
            compose(np.zeros(5, dtype=np.uint8), np.zeros(2, dtype=np.uint8), toy_space)


    def test_toy_pair_enumeration(self, toy_space):
        feasible = 0
        for v in range(toy_space.num_verbs):
            for o in range(toy_space.num_objects):
                y = compose(set_to_bits({o}, toy_space.num_objects), set_to_bits({v}, 2), toy_space)
                feasible += int(y.any())
        assert feasible == 3  # of 4 verb-object pairs

    def test_broadcast_pairs_match_rows(self):
        # the composer labels every (verb row, object row) pair in one call
        rng = np.random.default_rng(13)
        for _ in range(50):
            space, _ = draw_space(rng)
            n = int(rng.integers(1, 6))
            l_o = (rng.random((n, space.num_objects)) < 0.4).astype(np.uint8)
            l_v = (rng.random((n, space.num_verbs)) < 0.4).astype(np.uint8)
            got = compose(l_o[None, :, :], l_v[:, None, :], space)
            assert got.shape == (n, n, space.num_hois) and got.dtype == np.uint8
            for i, j in np.ndindex(n, n):
                np.testing.assert_array_equal(got[i, j], compose(l_o[j], l_v[i], space))


class TestProperties:
    def test_superset_roundtrip_random(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            space, _ = draw_space(rng)
            y = (rng.random(space.num_hois) < 0.3).astype(np.uint8)
            l_o, l_v = decompose(y, space)
            back = compose(l_o, l_v, space)
            assert np.all(back >= y)

    def test_singleton_exactness(self, toy_space):
        # feed is unique to (feed, horse): exact round trip
        y = set_to_bits({1}, 3)
        l_o, l_v = decompose(y, toy_space)
        np.testing.assert_array_equal(compose(l_o, l_v, toy_space), y)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_monotonicity(self, seed, data):
        rng = np.random.default_rng(seed)
        space, _ = draw_space(rng)
        l_o = (rng.random(space.num_objects) < 0.3).astype(np.uint8)
        l_v = (rng.random(space.num_verbs) < 0.3).astype(np.uint8)
        base = compose(l_o, l_v, space)
        grow_o = l_o | (rng.random(space.num_objects) < 0.3).astype(np.uint8)
        grow_v = l_v | (rng.random(space.num_verbs) < 0.3).astype(np.uint8)
        assert np.all(compose(grow_o, grow_v, space) >= base)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_decompose_linear_over_union(self, seed):
        rng = np.random.default_rng(seed)
        space, _ = draw_space(rng)
        y1 = (rng.random(space.num_hois) < 0.3).astype(np.uint8)
        y2 = (rng.random(space.num_hois) < 0.3).astype(np.uint8)
        o12, v12 = decompose(y1 | y2, space)
        o1, v1 = decompose(y1, space)
        o2, v2 = decompose(y2, space)
        np.testing.assert_array_equal(o12, o1 | o2)
        np.testing.assert_array_equal(v12, v1 | v2)


class TestSpaceFile:
    def test_roundtrip(self, toy_space):
        loaded = parse_space(format_space(toy_space).splitlines(keepends=True))
        np.testing.assert_array_equal(loaded.verb_hoi, toy_space.verb_hoi)
        np.testing.assert_array_equal(loaded.object_hoi, toy_space.object_hoi)
        assert loaded.verb_names == TOY_VERBS
        assert loaded.object_names == TOY_OBJECTS

    def test_roundtrip_random(self):
        rng = np.random.default_rng(3)
        space, _ = draw_space(rng)
        loaded = parse_space(format_space(space).splitlines(keepends=True))
        np.testing.assert_array_equal(loaded.verb_hoi, space.verb_hoi)
        np.testing.assert_array_equal(loaded.object_hoi, space.object_hoi)

    def test_multi_verb_line(self):
        space = parse_space(["0\thold,sip\tcup\n", "1\thold\tbottle\n"])
        assert space.verbs_of(0) == (0, 1)
        assert space.num_verbs == 2

    def test_bad_field_count(self):
        with pytest.raises(ParseError) as err:
            parse_space(["0\tride\n"])
        assert err.value.line == 1

    def test_non_dense_ids(self):
        with pytest.raises(ParseError):
            parse_space(["0\tride\thorse\n", "2\tfeed\thorse\n"])

    def test_repeated_id(self):
        with pytest.raises(ParseError):
            parse_space(["0\tride\thorse\n", "0\tfeed\thorse\n"])

    def test_format_is_stable(self, toy_space):
        assert format_space(toy_space) == "0\tride\thorse\n1\tfeed\thorse\n2\tride\tbicycle\n"
