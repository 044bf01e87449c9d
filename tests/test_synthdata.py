import numpy as np
import pytest

from hoicomp.errors import (
    DimensionMismatch,
    InconsistentLabel,
    InvalidBox,
    InvalidConfig,
    ParseError,
)
from hoicomp.label_algebra import is_feasible
from hoicomp.synthdata import (
    DatasetConfig,
    class_counts,
    format_row,
    generate,
    load_dataset,
    random_hoi_defs,
    save_dataset,
    zipf_probs,
)

from conftest import TOY_DEFS, assert_datasets_equal, make_dataset, make_row


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
            for k in range(len(data)):
                assert is_feasible(data.label[k])
                for c in np.flatnonzero(data.label[k]):
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
        for k in range(len(train)):
            c = int(np.flatnonzero(train.label[k])[0])
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
        for k in range(len(train)):
            for c in np.flatnonzero(train.label[k]):
                recount[c] += 1
        np.testing.assert_array_equal(counts, recount)
        assert counts.dtype == np.int64
        assert counts.sum() == sum(int(train.label[k].sum()) for k in range(len(train)))


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

    def test_empty_instances(self, tmp_path, toy_space):
        path = tmp_path / "empty.tsv"
        save_dataset(make_row(toy_space, [0])[:0], toy_space, path)
        # header declares dim 0, so patch it to a real one for the loader
        text = path.read_text().replace("feature_dim\t0", "feature_dim\t4")
        path.write_text(text)
        loaded, space = load_dataset(path)
        assert len(loaded) == 0 and loaded.label.shape == (0, 3)
        assert space.num_hois == 3

    def test_single_instance_label(self, tmp_path, toy_space):
        inst = make_row(toy_space, [1])  # feed-horse
        path = tmp_path / "one.tsv"
        save_dataset(inst, toy_space, path)
        loaded, space = load_dataset(path)
        assert loaded.label.tolist() == [[0, 1, 0]]
        assert loaded.object_id.tolist() == [0]

    def test_parse_error_reports_line(self, tmp_path, toy_space):
        inst = make_row(toy_space, [0])
        path = tmp_path / "bad.tsv"
        save_dataset(inst, toy_space, path)
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].replace("\t", " ", 1)  # break the field count
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert err.value.line == len(lines)

    @pytest.mark.parametrize("column", [4, 5])
    @pytest.mark.parametrize("score", ["1.5", "nan", "-0.2"])
    def test_score_out_of_range(self, tmp_path, toy_space, column, score):
        path = tmp_path / "bad.tsv"
        save_dataset(make_dataset([make_row(toy_space, [0]), make_row(toy_space, [1])]), toy_space, path)
        lines = path.read_text().splitlines()
        fields = lines[-1].split("\t")
        fields[column - 1] = score
        lines[-1] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert (err.value.line, err.value.column) == (len(lines), column)

    @pytest.mark.parametrize("column", [2, 3])
    @pytest.mark.parametrize("box", ["-1.0,0.0,5.0,5.0", "5.0,0.0,1.0,5.0", "0.0,0.0,inf,5.0", "0.0,nan,5.0,5.0"])
    def test_bad_box(self, tmp_path, toy_space, column, box):
        path = tmp_path / "bad.tsv"
        save_dataset(make_dataset([make_row(toy_space, [0]), make_row(toy_space, [1])]), toy_space, path)
        lines = path.read_text().splitlines()
        fields = lines[-2].split("\t")
        fields[column - 1] = box
        lines[-2] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InvalidBox, match=f"line {len(lines) - 1}, column {column}"):
            load_dataset(path)

    def test_image_id_outside_int64(self, tmp_path, toy_space):
        path = tmp_path / "bad.tsv"
        save_dataset(make_row(toy_space, [0]), toy_space, path)
        lines = path.read_text().splitlines()
        lines[-1] = str(2**63) + lines[-1][1:]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            load_dataset(path)
        assert (err.value.line, err.value.column) == (len(lines), 1)

    def test_inconsistent_label(self, tmp_path, toy_space):
        inst = make_row(toy_space, [0])
        path = tmp_path / "bad.tsv"
        save_dataset(inst, toy_space, path)
        text = path.read_text()
        fields = text.splitlines()[-1].split("\t")
        fields[5] = "1"  # object says bicycle, label says ride-horse
        path.write_text("\n".join(text.splitlines()[:-1] + ["\t".join(fields)]) + "\n")
        with pytest.raises(InconsistentLabel):
            load_dataset(path)

    def test_dimension_mismatch(self, tmp_path, toy_space):
        inst = make_row(toy_space, [0], dim=4)
        path = tmp_path / "bad.tsv"
        save_dataset(inst, toy_space, path)
        text = path.read_text().replace("feature_dim\t4", "feature_dim\t5")
        path.write_text(text)
        with pytest.raises(DimensionMismatch):
            load_dataset(path)

    def test_format_instance_full_precision(self, toy_space):
        rng = np.random.default_rng(8)
        inst = make_row(toy_space, [0], rng=rng)
        line = format_row(inst, 0)
        human_feat = [float(v) for v in line.split("\t")[7].split(",")]
        np.testing.assert_array_equal(np.array(human_feat), inst.human_feat[0])
