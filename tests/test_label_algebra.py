import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoicomp.errors import (
    DanglingId,
    DimensionMismatch,
    DuplicateHoi,
    DuplicateName,
    EmptyDefinition,
    InconsistentLabel,
    NotOneObject,
    OutOfRange,
    UnstorableName,
)
from hoicomp.evaluator import DETECTIONS_ENTRIES, Detections, load_detections, save_detections
from hoicomp.label_algebra import HoiLabelSpace, build_space, compose, decompose
from hoicomp.synthdata import (
    COLUMNS,
    SPACE_ENTRIES,
    empty_dataset,
    load_dataset,
    random_hoi_defs,
    read_archive,
    save_dataset,
)
from hoicomp.zeroshot import SPLIT_ENTRIES, ZeroShotSplit, load_split, save_split

from conftest import TOY_DEFS, TOY_OBJECTS, TOY_VERBS, draw_space
from test_synthdata import replace_entry


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
                key = (space.verbs_of(c), int(space.objects_by_hoi()[c]))
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


def toy_arrays(**changes):
    """The toy space's four fields as hand-built arrays, with ``changes``."""
    return {
        "verb_hoi": np.array([[1, 0, 1], [0, 1, 0]], dtype=np.uint8),
        "object_hoi": np.array([[1, 1, 0], [0, 0, 1]], dtype=np.uint8),
        "verb_names": TOY_VERBS,
        "object_names": TOY_OBJECTS,
    } | changes


def matrix(rows):
    return np.array(rows, dtype=np.uint8)


class TestSpaceRules:
    def test_toy_arrays_build_the_toy_space(self, toy_space):
        assert HoiLabelSpace(**toy_arrays()) == toy_space

    @pytest.mark.parametrize("changes, error, message", [
        ({"verb_hoi": matrix([1, 0, 1])}, DimensionMismatch,
         "verb_hoi is uint8 (3,), expected a 2-D uint8 matrix"),
        ({"object_hoi": np.array([[1, 1, 0], [0, 0, 1]])}, DimensionMismatch, "object_hoi is int64"),
        ({"object_hoi": [[1, 1, 0], [0, 0, 1]]}, DimensionMismatch, "object_hoi is list"),
        ({"verb_hoi": matrix([[1, 0], [0, 1]])}, DimensionMismatch,
         "verb_hoi has 2 classes, object_hoi 3"),
        ({"verb_names": ("ride",)}, DimensionMismatch, "1 verb names for the 2 rows of verb_hoi"),
        ({"object_names": TOY_OBJECTS + ("cup",)}, DimensionMismatch,
         "3 object names for the 2 rows of object_hoi"),
        ({"verb_hoi": matrix([[2, 0, 1], [0, 1, 0]])}, OutOfRange, "verb_hoi holds 2"),
        ({"verb_hoi": matrix([[], []]), "object_hoi": matrix([[], []])}, EmptyDefinition,
         "the label space has no classes"),
        ({"verb_hoi": matrix([[1, 0, 0], [0, 1, 0]])}, EmptyDefinition, "class 2 has no verbs"),
        ({"object_hoi": matrix([[1, 1, 0], [0, 0, 0]])}, NotOneObject, "class 2 has 0 objects"),
        ({"object_hoi": matrix([[1, 1, 1], [0, 0, 1]])}, NotOneObject, "class 2 has 2 objects"),
        ({"verb_hoi": matrix([[1, 1, 1], [0, 0, 0]])}, DuplicateHoi,
         "class 1 duplicates an earlier (verb set, object) pair"),
        ({"verb_hoi": matrix([[1, 0, 1], [0, 1, 0], [0, 0, 0]]), "verb_names": TOY_VERBS + ("sip",)},
         DanglingId, "verb id 2 appears in no interaction"),
        ({"object_hoi": matrix([[1, 1, 0], [0, 0, 1], [0, 0, 0]]),
          "object_names": TOY_OBJECTS + ("cup",)}, DanglingId, "object id 2 appears in no interaction"),
        ({"verb_names": ("ride", "ride")}, DuplicateName, "verb name 'ride' names two verb ids"),
        ({"object_names": ("horse", "horse")}, DuplicateName, "object name 'horse'"),
    ], ids=["1-d", "dtype", "not-an-array", "class-counts", "short-names", "long-names",
            "not-0/1", "no-classes", "no-verb", "no-object", "two-objects", "duplicate",
            "dangling-verb", "dangling-object", "verb-names", "object-names"])
    def test_rule(self, changes, error, message):
        with pytest.raises(error) as err:
            HoiLabelSpace(**toy_arrays(**changes))
        assert message in str(err.value)

    @pytest.mark.parametrize("defs", [[((-1,), 0), ((0,), 0)], [((0,), -1), ((1,), 0)]],
                             ids=["verb", "object"])
    def test_negative_id(self, defs):
        # indexing with -1 would set the last id: the verb case built b-object0
        with pytest.raises(DimensionMismatch, match="definition uses a negative id"):
            build_space(defs, verb_names=("a", "b"))

    @pytest.mark.parametrize("changes, message", [
        ({"verb_names": ("ride", "ride\x00")}, "verb name 'ride\\x00' ends in a NUL character"),
        ({"object_names": ("horse\x00", "bicycle")}, "object name 'horse\\x00' ends in a NUL"),
    ], ids=["verb", "object"])
    def test_name_ending_in_nul(self, tmp_path, changes, message):
        # a file drops trailing NULs, so "ride\x00" would load back as a second "ride"
        path = tmp_path / "data.ds"
        with pytest.raises(UnstorableName) as err:
            save_dataset(empty_dataset(0, 2, 3), HoiLabelSpace(**toy_arrays(**changes)), path)
        assert message in str(err.value)
        with pytest.raises(UnstorableName):
            build_space(TOY_DEFS, **{"verb_names": TOY_VERBS, "object_names": TOY_OBJECTS,
                                     **changes})
        assert not path.exists()

    def test_equality_compares_matrices_and_names(self, toy_space):
        assert toy_space == build_space(TOY_DEFS, verb_names=TOY_VERBS, object_names=TOY_OBJECTS)
        assert toy_space != build_space(TOY_DEFS)  # default names
        assert toy_space != build_space(TOY_DEFS[:2] + (((0,), 1), ((1,), 1)),
                                        verb_names=TOY_VERBS, object_names=TOY_OBJECTS)
        assert toy_space != build_space(((((0,), 1), ((1,), 1), ((0,), 0))),
                                        verb_names=TOY_VERBS, object_names=TOY_OBJECTS)
        assert toy_space != "ride-horse"
        with pytest.raises(TypeError):
            hash(toy_space)

    def test_hoi_names_derived_when_first_read(self, toy_space):
        assert "hoi_names" not in vars(toy_space)
        assert toy_space.hoi_names == ("ride-horse", "feed-horse", "ride-bicycle")
        assert build_space([((0, 1), 0)], verb_names=("hold", "sip"),
                           object_names=("cup",)).hoi_names == ("hold+sip-cup",)


def write_each_kind(space, root):
    """A dataset, a detections and a split file holding ``space`` under
    ``root``: {kind: (path, the archive's entries)}."""
    files = {kind: root / name for kind, name in
             (("dataset", "data.ds"), ("detections", "dets.npz"), ("split", "split.npz"))}
    save_dataset(empty_dataset(0, 2, space.num_hois), space, files["dataset"])
    box = np.zeros((0, 4))
    save_detections(Detections(image_id=np.zeros(0, dtype=np.int64), human_box=box, object_box=box,
                               score=np.zeros((0, space.num_hois))), space, files["detections"])
    save_split(ZeroShotSplit(frozenset(), space, "rare_first"), files["split"])
    entries = {"dataset": COLUMNS, "detections": DETECTIONS_ENTRIES, "split": SPLIT_ENTRIES}
    return {kind: (path, entries[kind]) for kind, path in files.items()}


def stored_space(path, kind, entries):
    return read_archive(path, kind, entries)[1]


class TestSpaceFile:
    def test_roundtrip(self, toy_space, tmp_path):
        for kind, (path, entries) in write_each_kind(toy_space, tmp_path).items():
            loaded = stored_space(path, kind, entries)
            assert loaded == toy_space, kind
            assert loaded.verb_names == TOY_VERBS and loaded.object_names == TOY_OBJECTS
        # a multi-verb class
        cups = build_space([((0, 1), 0), ((0,), 1)], verb_names=("hold", "sip"),
                           object_names=("cup", "bottle"))
        (tmp_path / "cups").mkdir()
        for kind, (path, entries) in write_each_kind(cups, tmp_path / "cups").items():
            loaded = stored_space(path, kind, entries)
            assert loaded == cups and loaded.verbs_of(0) == (0, 1), kind

    def test_roundtrip_random(self, tmp_path):
        rng = np.random.default_rng(3)
        for k in range(10):
            space, _ = draw_space(rng)
            other, _ = draw_space(rng)
            root = tmp_path / str(k)
            root.mkdir()
            files = write_each_kind(space, root)
            for kind, (path, entries) in files.items():
                assert stored_space(path, kind, entries) == space, kind
            load_dataset(files["dataset"][0], space=space)
            load_split(files["split"][0], space)
            load_detections(files["detections"][0], space)
            if other != space:
                for kind, load in (("dataset", lambda path, other: load_dataset(path, space=other)),
                                   ("split", load_split), ("detections", load_detections)):
                    with pytest.raises(InconsistentLabel, match="another label space than --data"):
                        load(files[kind][0], other)

    def test_format_is_stable(self, toy_space, tmp_path):
        entries = {
            "verb_hoi": np.array([[1, 0, 1], [0, 1, 0]], dtype=np.uint8),
            "object_hoi": np.array([[1, 1, 0], [0, 0, 1]], dtype=np.uint8),
            "verb_names": np.array(["ride", "feed"], dtype="<U4"),
            "object_names": np.array(["horse", "bicycle"], dtype="<U7"),
        }
        for kind, (path, own) in write_each_kind(toy_space, tmp_path).items():
            with np.load(path) as archive:
                assert archive.files == list(own + SPACE_ENTRIES), kind
                for name, want in entries.items():
                    np.testing.assert_array_equal(archive[name], want)
                    assert archive[name].dtype == want.dtype, (kind, name)

    @pytest.mark.parametrize("name, value, message", [
        ("verb_names", np.array([b"ride", b"feed"]), "entry 'verb_names' is |S4 (2,)"),
        ("object_names", np.array([["horse", "bicycle"]]), "entry 'object_names' is <U7 (1, 2)"),
        ("object_names", np.array("horse"), "entry 'object_names' is <U5 ()"),
    ])
    def test_name_entry_of_another_type(self, toy_space, tmp_path, name, value, message):
        path, _ = write_each_kind(toy_space, tmp_path)["dataset"]
        replace_entry(path, name, value)
        with pytest.raises(DimensionMismatch) as err:
            load_dataset(path)
        assert message in str(err.value)
