import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hoicomp import synthdata
from hoicomp.errors import (
    DimensionMismatch,
    InconsistentLabel,
    InvalidBox,
    InvalidConfig,
    ParseError,
)
from hoicomp.evaluator import ground_truths_from_instances
from hoicomp.label_algebra import build_space
from hoicomp.synthdata import (
    COLUMNS,
    LABEL_COLUMNS,
    SPACE_ENTRIES,
    DatasetConfig,
    class_counts,
    empty_dataset,
    generate,
    load_dataset,
    random_hoi_defs,
    label_bytes,
    save_dataset,
    unpack_labels,
    zipf_probs,
)
from hoicomp.trainer import group_by_image
from hoicomp.zeroshot import ZeroShotSplit, apply_split

import label_oracle

from conftest import (
    TOY_DEFS,
    assert_datasets_equal,
    dense,
    make_dataset,
    make_row,
    packed,
    peak_above_live,
)


def small_config(**overrides):
    base = dict(
        num_verbs=4,
        num_objects=3,
        hoi_defs=random_hoi_defs(4, 3, 8, np.random.default_rng(0)),
        zipf_exponent=1.0,
        n_train=300,
        n_test=60,
        feature_dim=8,
        class_sep=5.0,
        noise_sigma=1.0,
        seed=42,
    )
    base.update(overrides)
    return DatasetConfig(**base)


class TestConfig:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"zipf_exponent": -0.5},
            {"class_sep": 0.0},
            {"feature_dim": 1},
            {"multi_label_frac": 1.5},
            {"max_instances_per_image": 0},
        ],
    )
    def test_invalid(self, overrides):
        with pytest.raises(InvalidConfig):
            generate(small_config(**overrides))

    def test_random_defs_bounds(self):
        with pytest.raises(InvalidConfig):
            random_hoi_defs(5, 2, 3, np.random.default_rng(0))
        with pytest.raises(InvalidConfig):
            random_hoi_defs(2, 2, 5, np.random.default_rng(0))


class TestZipf:
    def test_probs_shape_and_order(self):
        p = zipf_probs(10, 1.5)
        assert p.shape == (10,)
        assert np.isclose(p.sum(), 1.0)
        assert (np.diff(p) < 0).all()

    def test_uniform_when_exponent_zero(self):
        cfg = small_config(zipf_exponent=0.0, n_train=3000, multi_label_frac=0.0)
        train, _, space = generate(cfg)
        counts = class_counts(train, space)
        n, c = cfg.n_train, space.num_hois
        p = 1.0 / c
        sigma = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) <= 3 * sigma)

    def test_long_tail_mass(self):
        # exact mass of the least-frequent decile first, then the sample
        exponent, c, n = 2.0, 60, 20000
        probs = zipf_probs(c, exponent)
        decile = c // 10
        exact_tail_mass = probs[-decile:].sum()
        assert exact_tail_mass < 0.02
        defs = random_hoi_defs(12, 10, c, np.random.default_rng(1))
        cfg = DatasetConfig(
            num_verbs=12, num_objects=10, hoi_defs=defs, zipf_exponent=exponent,
            n_train=n, n_test=0, feature_dim=4, class_sep=4.0, noise_sigma=1.0,
            seed=7, multi_label_frac=0.0,
        )
        train, _, space = generate(cfg)
        counts = class_counts(train, space)
        assert counts[-decile:].sum() / counts.sum() < 0.02


class TestGenerate:
    def test_deterministic(self):
        cfg = small_config()
        a = generate(cfg)
        b = generate(cfg)
        assert_datasets_equal(a[0], b[0])
        assert_datasets_equal(a[1], b[1])

    def test_train_test_streams_disjoint(self):
        train_a, _, _ = generate(small_config(n_test=10))
        train_b, _, _ = generate(small_config(n_test=200))
        assert_datasets_equal(train_a, train_b)

    def test_labels_feasible_and_consistent(self):
        train, test, space = generate(small_config(multi_label_frac=0.5))
        for data in (train, test):
            labels = dense(data, space)
            for k in range(len(data)):
                assert labels[k].any()
                for c in np.flatnonzero(labels[k]):
                    assert space.object_of(int(c)) == data.object_id[k]

    def test_scores_in_range(self):
        train, _, _ = generate(small_config())
        for scores in (train.human_score, train.object_score):
            assert np.all((0.5 <= scores) & (scores <= 1.0))

    def test_images_grouped(self):
        cfg = small_config(max_instances_per_image=3)
        train, _, _ = generate(cfg)
        sizes = {}
        for image_id in train.image_id.tolist():
            sizes[image_id] = sizes.get(image_id, 0) + 1
        assert max(sizes.values()) <= 3
        assert any(v >= 2 for v in sizes.values())

    def test_verb_feature_shared_across_classes(self):
        # two single-verb classes sharing a verb: sample means must agree
        defs = (((0,), 0), ((0,), 1), ((1,), 0))
        cfg = DatasetConfig(
            num_verbs=2, num_objects=2, hoi_defs=defs, zipf_exponent=0.0,
            n_train=3000, n_test=0, feature_dim=16, class_sep=5.0,
            noise_sigma=1.0, seed=3, multi_label_frac=0.0,
        )
        train, _, space = generate(cfg)
        groups = {0: [], 1: []}
        labels = dense(train, space)
        for k in range(len(train)):
            c = int(np.flatnonzero(labels[k])[0])
            if c in groups:
                groups[c].append(train.verb_feat[k])
        m0 = np.mean(groups[0], axis=0)
        m1 = np.mean(groups[1], axis=0)
        n_min = min(len(groups[0]), len(groups[1]))
        # ||m0 - m1|| concentrates around sigma * sqrt(D * 2 / n)
        bound = 3.0 * cfg.noise_sigma * np.sqrt(cfg.feature_dim * 2.0 / n_min)
        assert np.linalg.norm(m0 - m1) < bound


class TestCounts:
    def test_empty(self, toy_space):
        assert class_counts(make_row(toy_space, [0])[:0], toy_space).tolist() == [0, 0, 0]

    def test_three_identical(self, toy_space):
        insts = make_dataset([make_row(toy_space, [0]) for _ in range(3)])
        assert class_counts(insts, toy_space).tolist() == [3, 0, 0]

    def test_recount_oracle(self):
        train, _, space = generate(small_config(multi_label_frac=0.3))
        counts = class_counts(train, space)
        recount = np.zeros(space.num_hois, dtype=int)
        labels = dense(train, space)
        for k in range(len(train)):
            for c in np.flatnonzero(labels[k]):
                recount[c] += 1
        np.testing.assert_array_equal(counts, recount)
        assert counts.dtype == np.int64
        assert counts.sum() == sum(int(labels[k].sum()) for k in range(len(train)))

    # 70,000 rows is past 65,535, where one uint16 sum of a 0/1 column
    # overflows; 0, 1, 257 and 258 rows sit around block edges. An 8-class
    # row is one byte: ``high`` bounds the bytes drawn, so 1 sets only class
    # 7 and 255 any classes, and class 3 is set in every row
    @pytest.mark.parametrize("rows", [0, 1, 257, 258, 70_000])
    @pytest.mark.parametrize("high", [1, 255])
    def test_blocks_equal_one_int64_sum(self, rows, high):
        space = build_space(random_hoi_defs(4, 3, 8, np.random.default_rng(0)))
        drawn = np.random.default_rng(rows).integers(0, high + 1, (rows, 1), dtype=np.uint8)
        label = unpack_labels(drawn)
        label[:, 3] = 1
        data = empty_dataset(rows, 2, space.num_hois)
        data.label[:] = packed(label)
        counts = class_counts(data, space)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, label.sum(axis=0, dtype=np.int64))
        assert counts[3] == rows


def space_of(num_hois: int):
    """A label space of ``num_hois`` classes over as few verbs and objects
    as a square grid of them allows."""
    side = math.isqrt(num_hois - 1) + 1
    return build_space(random_hoi_defs(side, side, num_hois, np.random.default_rng(num_hois)))


class TestPackedLabels:
    """The code that reads packed labels against ``label_oracle``'s dense
    references, over class counts around byte edges."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(num_hois=st.integers(1, 70), rows=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
    @example(num_hois=1, rows=5, seed=0)
    @example(num_hois=8, rows=17, seed=1)
    @example(num_hois=9, rows=17, seed=2)
    @example(num_hois=60, rows=40, seed=3)
    @example(num_hois=63, rows=40, seed=4)
    def test_packed_results_equal_the_dense_oracle(self, num_hois, rows, seed):
        rng = np.random.default_rng(seed)
        space = space_of(num_hois)
        label = (rng.random((rows, num_hois)) < rng.uniform(0.0, 0.5)).astype(np.uint8)
        data = empty_dataset(rows, 2, num_hois)
        data.label[:] = packed(label)
        data.image_id[:] = rng.integers(0, 6, rows)
        data.human_box[:] = (10, 10, 110, 210)
        data.object_box[:] = (120, 40, 260, 180)
        assert data.label.shape == (rows, label_bytes(num_hois))
        assert not unpack_labels(data.label)[:, num_hois:].any()  # zero padding
        np.testing.assert_array_equal(dense(data, space), label)

        np.testing.assert_array_equal(class_counts(data, space), label_oracle.class_counts(label))

        unseen = frozenset(int(c) for c in np.flatnonzero(rng.random(num_hois) < 0.3))
        split = ZeroShotSplit(unseen, space, "rare_first")
        stripped = apply_split(data, split)
        want = label_oracle.apply_split(label, unseen)
        assert stripped.label.tobytes() == packed(want).tobytes()  # padding stays zero
        np.testing.assert_array_equal(data.label, packed(label))  # input unchanged

        groups = group_by_image(stripped)
        assert [g.tolist() for g in groups] == label_oracle.group_by_image(data.image_id, want)

        gts = ground_truths_from_instances(data)
        pairs = label_oracle.ground_truth_rows(label)
        assert gts.hoi_id.tolist() == [c for _, c in pairs]
        assert gts.image_id.tolist() == [int(data.image_id[k]) for k, _ in pairs]


# the one-byte label row of a 3-class space with class 6, a padding bit, set
PADDING_BYTE = int(packed([[0, 0, 0, 0, 0, 0, 1, 0]])[0, 0])

# a dataset in the tab-separated text format that preceded the archive
OLD_TEXT_FORMAT = b"feature_dim\t4\nnum_instances\t0\n[space]\n0\tride\thorse\n[instances]\n"


def first_label_error(bits, object_id, space):
    """The message of ``load_dataset``'s first label error, found row by row
    in the dense rows ``bits`` of every packed bit, padding included: each
    check runs over every row before the next; None when all pass."""
    label = bits[:, : space.num_hois]
    checks = (
        ("bit beyond the last class", lambda k: bits[k, space.num_hois :].any(), False),
        ("no active interaction", lambda k: not bits[k].any(), False),
        ("an active class's object differs from object_id",
         lambda k: any(space.object_of(int(c)) != object_id[k] for c in np.flatnonzero(label[k])),
         True),
    )
    for what, bad, quoted in checks:
        for k in range(len(label)):
            if bad(k):
                return f"entry 'label', row {k}: {what}" + (f" {object_id[k]}" if quoted else "")
    return None


def replace_entry(path, name, value):
    """Rewrite the archive at ``path`` with entry ``name`` set to ``value``,
    or without it if ``value`` is None."""
    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    arrays[name] = value
    if value is None:
        del arrays[name]
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def edited(path, column, row, value):
    """Set one cell of a saved dataset: ``column`` counts the Dataset
    fields from 1, ``row`` indexes the rows (a cell or a whole box)."""
    name = COLUMNS[column - 1]
    with np.load(path) as archive:
        array = archive[name]
    array[row] = value
    replace_entry(path, name, array)
    return name


class TestFileFormat:
    def test_roundtrip(self, tmp_path):
        train, test, space = generate(small_config(multi_label_frac=0.3))
        for name, data in (("train", train), ("test", test)):
            path = tmp_path / f"{name}.tsv"
            save_dataset(data, space, path)
            loaded, loaded_space = load_dataset(path)
            assert_datasets_equal(data, loaded)  # equal dtypes too
            assert loaded.image_id.dtype == np.int64 and loaded.label.dtype == np.uint8
            assert loaded.human_box.shape == (len(data), 4)
            np.testing.assert_array_equal(loaded_space.verb_hoi, space.verb_hoi)
            np.testing.assert_array_equal(loaded_space.object_hoi, space.object_hoi)
            save_dataset(loaded, space, tmp_path / "again.tsv")
            assert (tmp_path / "again.tsv").read_bytes() == path.read_bytes()
            with np.load(path) as archive:  # a plain numpy archive, names as given
                assert archive.files == list(COLUMNS + SPACE_ENTRIES)
            assert loaded_space == space

    def test_empty_instances(self, tmp_path, toy_space):
        path = tmp_path / "empty.tsv"
        save_dataset(make_row(toy_space, [0])[:0], toy_space, path)
        loaded, space = load_dataset(path)
        assert len(loaded) == 0 and loaded.label.shape == (0, 1)  # 3 classes, one byte
        assert space.num_hois == 3

    def test_single_instance_label(self, tmp_path, toy_space):
        inst = make_row(toy_space, [1])  # feed-horse
        path = tmp_path / "one.tsv"
        save_dataset(inst, toy_space, path)
        loaded, space = load_dataset(path)
        assert loaded.label.dtype == np.uint8
        assert dense(loaded, space).tolist() == [[0, 1, 0]]
        assert loaded.object_id.tolist() == [0]

    @pytest.fixture
    def two_rows(self, tmp_path, toy_space):
        path = tmp_path / "bad.tsv"
        save_dataset(make_dataset([make_row(toy_space, [0]), make_row(toy_space, [1])]), toy_space, path)
        return path

    @pytest.mark.parametrize("name, value", [("object_id", None), ("extra", np.zeros(2))],
                             ids=["missing", "extra"])
    def test_entries_must_match(self, two_rows, name, value):
        replace_entry(two_rows, name, value)
        with pytest.raises(ParseError, match="archive entries"):
            load_dataset(two_rows)

    @pytest.mark.parametrize("content", ["empty", "npy", "text", "truncated"])
    def test_not_an_archive(self, two_rows, content):
        if content == "npy":
            with open(two_rows, "wb") as fh:
                np.save(fh, np.zeros((2, 4)))
        else:
            blob = two_rows.read_bytes()
            two_rows.write_bytes({"empty": b"", "text": OLD_TEXT_FORMAT, "truncated": blob[: len(blob) // 2]}[content])
        with pytest.raises(ParseError, match="not a dataset archive"):
            load_dataset(two_rows)

    @pytest.mark.parametrize("column", [4, 5])
    @pytest.mark.parametrize("score", ["1.5", "nan", "-0.2"])
    def test_score_out_of_range(self, two_rows, column, score):
        name = edited(two_rows, column, 1, float(score))
        with pytest.raises(ParseError, match=f"entry '{name}', row 1: detector score outside"):
            load_dataset(two_rows)

    @pytest.mark.parametrize("column", [6, 7, 8])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature(self, two_rows, column, value):
        name = edited(two_rows, column, (1, 2), float(value))
        with pytest.raises(ParseError, match=f"entry '{name}', row 1: non-finite feature"):
            load_dataset(two_rows)

    @pytest.mark.parametrize("column", [2, 3])
    @pytest.mark.parametrize("box", ["-1.0,0.0,5.0,5.0", "5.0,0.0,1.0,5.0", "0.0,0.0,inf,5.0", "0.0,nan,5.0,5.0"])
    def test_bad_box(self, two_rows, column, box):
        name = edited(two_rows, column, 0, [float(v) for v in box.split(",")])
        with pytest.raises(InvalidBox, match=f"entry '{name}', row 0"):
            load_dataset(two_rows)

    def test_image_id_wrong_dtype(self, two_rows):
        replace_entry(two_rows, "image_id", np.zeros(2))
        with pytest.raises(DimensionMismatch, match="entry 'image_id' is float64"):
            load_dataset(two_rows)

    def test_inconsistent_label(self, two_rows):
        edited(two_rows, 10, 0, 1)  # object says bicycle, label says ride-horse
        with pytest.raises(InconsistentLabel, match="entry 'label', row 0"):
            load_dataset(two_rows)

    # row 1's one label byte: class 6's bit, beyond the 3 classes, or none
    @pytest.mark.parametrize("value, what", [(PADDING_BYTE, "bit beyond the last class"),
                                             (0, "no active interaction")])
    def test_bad_label_values(self, two_rows, value, what):
        edited(two_rows, 9, 1, value)
        with pytest.raises(InconsistentLabel, match=f"entry 'label', row 1: {what}"):
            load_dataset(two_rows)

    @pytest.mark.parametrize("seed", range(12))
    def test_label_errors_name_the_first_bad_row_across_blocks(self, tmp_path, monkeypatch,
                                                               toy_space, seed):
        # blocks of 2 rows, bad rows of several kinds anywhere: the error is
        # the first kind in check order, at its first row, as a row-by-row
        # scan of the whole label finds it
        monkeypatch.setattr(synthdata, "LABEL_BLOCK_ROWS", 2)
        rng = np.random.default_rng(seed)
        data = make_dataset([make_row(toy_space, [int(rng.integers(3))]) for _ in range(9)])
        bits = unpack_labels(data.label)  # (9, 8): 3 classes and 5 padding bits
        for k in rng.choice(9, size=int(rng.integers(1, 4)), replace=False):
            kind = int(rng.integers(4))
            if kind == 0:
                bits[k, rng.integers(3, 8)] = 1
            elif kind == 1:
                bits[k] = 0
            elif kind == 2:
                bits[k, rng.integers(3)] = 1  # maybe of another object
            else:
                data.object_id[k] = rng.choice([-1, 1 - data.object_id[k], 2, 2**40])
        data.label[:] = packed(bits)
        want = first_label_error(bits, data.object_id, toy_space)
        path = tmp_path / "bad.ds"
        save_dataset(data, toy_space, path)
        if want is None:
            load_dataset(path)
            return
        with pytest.raises(InconsistentLabel) as err:
            load_dataset(path)
        assert str(err.value) == want

    def test_label_check_makes_no_label_sized_temporary(self, tmp_path):
        # 20,000 rows of 600 classes, 12 MB as one byte per class: the checks
        # once made (N, C) bool temporaries of that size, 12.4 MB above what
        # loads. The bound is a quarter of that, 3 MB, as it was for bytes
        rng = np.random.default_rng(0)
        space = build_space(random_hoi_defs(117, 80, 600, rng))
        data = empty_dataset(20_000, 32, space.num_hois)
        classes = rng.integers(0, space.num_hois, len(data))
        data.label[:] = packed(np.arange(space.num_hois) == classes[:, None])
        data.object_id[:] = space.objects_by_hoi()[classes]
        data.human_box[:] = (10, 10, 110, 210)
        data.object_box[:] = (120, 40, 260, 180)
        path = tmp_path / "big.ds"
        save_dataset(data, space, path)
        kept = sum(getattr(data, name).nbytes for name in COLUMNS)
        peak = peak_above_live(lambda: load_dataset(path))
        dense_bytes = len(data) * space.num_hois
        assert peak - kept < dense_bytes / 4, (peak - kept) / dense_bytes

    @pytest.mark.parametrize("num_hois", [3, 9, 60])
    def test_padding_bit_names_the_first_bad_row(self, tmp_path, num_hois):
        space = space_of(num_hois)
        data = make_dataset([make_row(space, [c % num_hois]) for c in range(6)])
        bits = unpack_labels(data.label)
        bits[[4, 2], -1] = 1  # the last padding bit, in rows 2 and 4
        data.label[:] = packed(bits)
        path = tmp_path / "padded.ds"
        save_dataset(data, space, path)
        for labels_only in (False, True):
            with pytest.raises(InconsistentLabel) as err:
                load_dataset(path, labels_only=labels_only)
            assert str(err.value) == "entry 'label', row 2: bit beyond the last class"

    def test_byte_per_class_file_is_the_wrong_width(self, tmp_path):
        # the format before labels were bits: a 0/1 byte for each class
        train, _, space = generate(small_config(n_train=5, n_test=0))
        path = tmp_path / "bytes.ds"
        save_dataset(train, space, path)
        replace_entry(path, "label", unpack_labels(train.label, space.num_hois))
        for labels_only in (False, True):
            with pytest.raises(DimensionMismatch) as err:
                load_dataset(path, labels_only=labels_only)
            assert str(err.value) == "entry 'label' is uint8 (5, 8), expected uint8 (5, 1)"

    def test_labels_only_reads_and_checks_the_label_columns(self, two_rows, monkeypatch):
        full, space = load_dataset(two_rows)
        read = []
        getitem = np.lib.npyio.NpzFile.__getitem__
        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__",
                            lambda archive, key: read.append(key) or getitem(archive, key))
        labels, labels_space = load_dataset(two_rows, labels_only=True)
        assert sorted(read) == sorted(LABEL_COLUMNS + SPACE_ENTRIES)
        assert labels_space == space and len(labels) == len(full)
        for name in COLUMNS:
            if name in LABEL_COLUMNS:
                np.testing.assert_array_equal(getattr(labels, name), getattr(full, name))
            else:
                assert getattr(labels, name) is None, name
        np.testing.assert_array_equal(class_counts(labels, space), class_counts(full, space))
        # a bad feature is not read; a bad label raises as a full load does
        edited(two_rows, 6, (1, 2), float("nan"))
        load_dataset(two_rows, labels_only=True)
        edited(two_rows, 10, 0, 1)
        with pytest.raises(InconsistentLabel, match="entry 'label', row 0"):
            load_dataset(two_rows, labels_only=True)

    def test_dimension_mismatch(self, two_rows):
        replace_entry(two_rows, "verb_feat", np.zeros((2, 5)))
        with pytest.raises(DimensionMismatch, match="entry 'verb_feat'"):
            load_dataset(two_rows)
