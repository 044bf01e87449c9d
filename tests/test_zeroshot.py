import itertools
from dataclasses import fields, replace

import numpy as np
import pytest

from hoicomp.errors import (
    DimensionMismatch,
    InconsistentLabel,
    InfeasibleSplit,
    InvalidConfig,
    ParseError,
)
from hoicomp.label_algebra import build_space
from hoicomp.experiments import default_dataset_config
from hoicomp.synthdata import SPACE_ENTRIES, Dataset, class_counts, generate, random_hoi_defs
from hoicomp.zeroshot import (
    SPLIT_ENTRIES,
    ZeroShotSplit,
    apply_split,
    frequency_partition,
    load_split,
    make_split,
    save_split,
    zeroshot_partition,
)

from conftest import (
    TOY_DEFS,
    assert_datasets_equal,
    dense,
    draw_space,
    make_dataset,
    make_row,
    peak_above_live,
)


def assert_columns_shared(out, data):
    """Every column of ``out`` but the label is ``data``'s own array."""
    for f in fields(Dataset):
        if f.name != "label":
            assert np.shares_memory(getattr(out, f.name), getattr(data, f.name)), f.name


def covers(space, unseen):
    """Coverage oracle: every verb and object appears in some seen class."""
    seen = [c for c in range(space.num_hois) if c not in unseen]
    verbs = set()
    objects = set()
    for c in seen:
        verbs.update(space.verbs_of(c))
        objects.add(int(space.objects_by_hoi()[c]))
    return verbs == set(range(space.num_verbs)) and objects == set(range(space.num_objects))


def feasible_subsets(space, k):
    return [
        set(sub)
        for sub in itertools.combinations(range(space.num_hois), k)
        if covers(space, set(sub))
    ]


class TestMakeSplit:
    def test_toy_only_feasible_singleton(self, toy_space):
        # exhaustive check: of the three 1-subsets only {ride-horse} keeps coverage
        assert feasible_subsets(toy_space, 1) == [{0}]
        for counts in ((5, 1, 3), (1, 5, 3)):
            split = make_split(np.array(counts), toy_space, 1, "rare_first")
            assert split.unseen == {0}
            assert split.seen == {1, 2}

    def test_zero_unseen(self, toy_space):
        split = make_split(np.zeros(3, dtype=int), toy_space, 0, "rare_first")
        assert split.unseen == frozenset()
        assert split.seen == {0, 1, 2}

    def test_infeasible_reports_blocker(self, toy_space):
        with pytest.raises(InfeasibleSplit) as err:
            make_split(np.array([5, 1, 3]), toy_space, 2, "rare_first")
        assert "blocked" in str(err.value)

    @pytest.mark.parametrize("counts, blocker", [
        # feed-horse is the only feed class, ride-bicycle the only bicycle one
        ((5, 1, 3), "verb 'feed' (class 1)"),
        ((5, 3, 1), "object 'bicycle' (class 2)"),
    ])
    def test_infeasible_message(self, toy_space, counts, blocker):
        with pytest.raises(InfeasibleSplit) as err:
            make_split(np.array(counts), toy_space, 2, "rare_first")
        assert str(err.value) == (
            f"only 1 of 2 unseen classes selectable under coverage; first blocked candidate: {blocker}"
        )

    def test_strategies_order(self):
        # verb0 spans all objects so its classes stay removable
        defs = (((0,), 0), ((0,), 1), ((0,), 2), ((1,), 0), ((1,), 1), ((1,), 2))
        space = build_space(defs)
        counts = np.array([10, 20, 30, 40, 50, 60])
        rare = make_split(counts, space, 2, "rare_first")
        nonrare = make_split(counts, space, 2, "nonrare_first")
        assert rare.unseen == {0, 1}
        assert nonrare.unseen == {5, 4}

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        space, _ = draw_space(rng, max_verbs=6, max_objects=5, max_hois=18)
        counts = rng.integers(0, 50, space.num_hois)
        n = space.num_hois // 3
        a = make_split(counts, space, n, "rare_first", tie_break_seed=9)
        b = make_split(counts, space, n, "rare_first", tie_break_seed=9)
        assert a.unseen == b.unseen

    def test_coverage_random_spaces(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            space, _ = draw_space(rng, max_verbs=6, max_objects=5, max_hois=20)
            counts = rng.integers(0, 100, space.num_hois)
            n = space.num_hois // 4
            try:
                split = make_split(counts, space, n, "rare_first", tie_break_seed=1)
            except InfeasibleSplit:
                continue
            assert len(split.unseen) == n
            assert covers(space, split.unseen)
            assert split.unseen | split.seen == set(range(space.num_hois))
            assert not split.unseen & split.seen

    def test_greedy_local_optimality_exhaustive_swap(self):
        # no unseen member can trade places with a strictly rarer seen class
        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(40):
            space, _ = draw_space(rng, max_verbs=5, max_objects=4, max_hois=20)
            if space.num_hois < 4:
                continue
            counts = rng.integers(0, 40, space.num_hois)
            n = space.num_hois // 4
            try:
                split = make_split(counts, space, n, "rare_first", tie_break_seed=2)
            except InfeasibleSplit:
                continue
            for u in split.unseen:
                for s in split.seen:
                    if counts[s] < counts[u]:
                        swapped = (set(split.unseen) - {u}) | {s}
                        assert not covers(space, swapped)
                        checked += 1
        assert checked > 0

    def test_fidelity_scale(self):
        defs = random_hoi_defs(117, 80, 600, np.random.default_rng(0))
        space = build_space(defs)
        counts = np.random.default_rng(1).integers(0, 500, 600)
        split = make_split(counts, space, 120, "rare_first", tie_break_seed=0)
        assert len(split.unseen) == 120
        assert covers(space, split.unseen)

    def test_bad_args(self, toy_space):
        with pytest.raises(InvalidConfig):
            make_split(np.zeros(3, dtype=int), toy_space, 3, "rare_first")
        with pytest.raises(InvalidConfig):
            make_split(np.zeros(3, dtype=int), toy_space, 1, "alphabetical")
        with pytest.raises(DimensionMismatch, match=r"counts has shape \(4,\), expected \(3,\)"):
            make_split(np.zeros(4, dtype=int), toy_space, 1, "rare_first")


class TestApplySplit:
    def test_empty_unseen_unchanged(self, toy_space):
        insts = make_dataset([make_row(toy_space, [0]) for _ in range(3)])
        split = ZeroShotSplit(unseen=frozenset(), space=toy_space, strategy="rare_first")
        out = apply_split(insts, split)
        assert_datasets_equal(out, insts)

    def test_pure_unseen_row_stays_unlabelled(self, toy_space):
        insts = make_dataset([make_row(toy_space, [0]), make_row(toy_space, [1])])
        split = ZeroShotSplit(unseen=frozenset({0}), space=toy_space, strategy="rare_first")
        out = apply_split(insts, split)
        assert dense(out, toy_space).tolist() == [[0, 0, 0], [0, 1, 0]]
        assert dense(insts, toy_space).tolist() == [[1, 0, 0], [0, 1, 0]]  # input untouched
        assert not np.shares_memory(out.label, insts.label)
        assert_columns_shared(out, insts)

    def test_mixed_label_keeps_seen_bits(self, toy_space):
        inst = make_row(toy_space, [0, 1])  # ride-horse + feed-horse
        split = ZeroShotSplit(unseen=frozenset({0}), space=toy_space, strategy="rare_first")
        out = apply_split(inst, split)
        assert dense(out, toy_space).tolist() == [[0, 1, 0]]
        assert dense(inst, toy_space).tolist() == [[1, 1, 0]]  # input untouched

    def test_unlabelled_count_matches_bruteforce(self):
        rng = np.random.default_rng(6)
        space, _ = draw_space(rng, max_verbs=6, max_objects=5, max_hois=16)
        insts = make_dataset([
            make_row(space, [int(rng.integers(space.num_hois))], image_id=i, rng=rng)
            for i in range(200)
        ])
        counts = class_counts(insts, space)
        split = make_split(counts, space, space.num_hois // 5, "rare_first", tie_break_seed=3)
        before_split, before_label = replace(split), insts.label.copy()
        out = apply_split(insts, split)
        emptied = sum(1 for label in dense(insts, space) if set(np.flatnonzero(label)) <= split.unseen)
        assert emptied > 0 and len(out) == len(insts)
        assert sum(1 for label in out.label if not label.any()) == emptied
        assert split == before_split  # the split is an input, not an output
        np.testing.assert_array_equal(insts.label, before_label)
        for label, old in zip(dense(out, space), dense(insts, space)):
            want = set(int(c) for c in np.flatnonzero(old)) - split.unseen
            assert set(int(c) for c in np.flatnonzero(label)) == want
        assert_columns_shared(out, insts)

    def test_copies_only_the_label(self):
        # the default 20k-row data: every column but the label is shared, so
        # the peak is one label copy; a copy of every column peaked at 16.3
        train_set, _, space = generate(default_dataset_config())
        split = make_split(class_counts(train_set, space), space, 12, "rare_first")
        peak = peak_above_live(lambda: apply_split(train_set, split))
        assert peak < 1.5 * train_set.label.nbytes, peak / train_set.label.nbytes

    def test_coverage_survives_in_training_set(self):
        rng = np.random.default_rng(7)
        space, _ = draw_space(rng, max_verbs=5, max_objects=4, max_hois=14)
        # one instance per class guarantees pre-split coverage
        insts = make_dataset([make_row(space, [c], image_id=c, rng=rng) for c in range(space.num_hois)])
        counts = class_counts(insts, space)
        split = make_split(counts, space, space.num_hois // 4, "rare_first", tie_break_seed=4)
        out = apply_split(insts, split)
        verbs = set()
        objects = set()
        for label in dense(out, space):
            for c in np.flatnonzero(label):
                verbs.update(space.verbs_of(int(c)))
                objects.add(int(space.objects_by_hoi()[c]))
        assert verbs == set(range(space.num_verbs))
        assert objects == set(range(space.num_objects))


class TestPartitions:
    def test_frequency_partition_threshold(self):
        counts = np.array([3, 9, 10, 50])
        part = frequency_partition(counts, rare_threshold=10)
        assert part["rare"] == {0, 1}
        assert part["nonrare"] == {2, 3}

    def test_zeroshot_partition(self, toy_space):
        split = ZeroShotSplit(unseen=frozenset({1}), space=toy_space, strategy="rare_first")
        part = zeroshot_partition(split)
        assert part == {"unseen": {1}, "seen": {0, 2}}


def split_file(path, space, ids=(), **changes):
    """Write a split archive by hand: unseen ``ids`` of ``space``, strategy
    rare_first and seed 0, with each entry in ``changes`` set, or dropped
    where its value is None; returns ``path``."""
    entries = {"unseen": np.array(ids, dtype=np.int64), "strategy": np.array("rare_first"),
               "seed": np.array(0, dtype=np.int64), "verb_hoi": space.verb_hoi,
               "object_hoi": space.object_hoi, "verb_names": np.array(space.verb_names),
               "object_names": np.array(space.object_names)} | changes
    with open(path, "wb") as fh:
        np.savez(fh, **{name: value for name, value in entries.items() if value is not None})
    return path


class TestSplitFile:
    def test_roundtrip(self, toy_space, tmp_path):
        split = make_split(np.array([5, 1, 3]), toy_space, 1, "rare_first", tie_break_seed=17)
        path = tmp_path / "split.npz"
        save_split(split, path)
        loaded = load_split(path, toy_space)
        assert loaded == split
        assert loaded.unseen == split.unseen
        assert loaded.seen == split.seen
        assert loaded.strategy == "rare_first"
        assert loaded.seed == 17
        assert loaded.space == toy_space
        with np.load(path) as archive:
            assert archive.files == list(SPLIT_ENTRIES + SPACE_ENTRIES)

    def test_external_list_import(self, toy_space, tmp_path):
        # an id list made outside make_split, written with the space's entries
        loaded = load_split(split_file(tmp_path / "imported.npz", toy_space, [0]), toy_space)
        assert loaded.unseen == {0}

    @pytest.mark.parametrize("ids, missing", [
        ("0\n1\n", "verb 'feed'"), ("0\n2\n", "verb 'ride'"), ("2\n", "object 'bicycle'"),
    ])
    def test_uncovered_split(self, toy_space, tmp_path, ids, missing):
        path = split_file(tmp_path / "uncovered.npz", toy_space, [int(c) for c in ids.split()])
        with pytest.raises(InfeasibleSplit, match=missing):
            load_split(path, toy_space)

    def test_bad_id(self, toy_space, tmp_path):
        for ids in ([99], [-1], [0, 3]):
            with pytest.raises(ParseError, match="outside label space"):
                load_split(split_file(tmp_path / "bad.npz", toy_space, ids), toy_space)

    def test_ids_not_ascending_and_distinct(self, toy_space, tmp_path):
        for ids in ([1, 0], [0, 0]):
            with pytest.raises(ParseError, match="not ascending and distinct"):
                load_split(split_file(tmp_path / "bad.npz", toy_space, ids), toy_space)

    def test_bad_seed(self, toy_space, tmp_path):
        path = split_file(tmp_path / "bad.npz", toy_space, [0], seed=np.array(-1))
        with pytest.raises(ParseError, match="seed -1 is negative"):
            load_split(path, toy_space)

    def test_unknown_strategy(self, toy_space, tmp_path):
        path = split_file(tmp_path / "bad.npz", toy_space, [0], strategy=np.array("alphabetical"))
        with pytest.raises(ParseError, match="unknown strategy 'alphabetical'"):
            load_split(path, toy_space)

    def test_missing_strategy(self, toy_space, tmp_path):
        path = split_file(tmp_path / "bad.npz", toy_space, [0], strategy=None)
        with pytest.raises(ParseError, match="archive entries"):
            load_split(path, toy_space)

    @pytest.mark.parametrize("name, value", [
        ("unseen", None), ("verb_hoi", None), ("seen", np.array([1, 2])),
    ], ids=["missing-unseen", "missing-space-entry", "extra"])
    def test_entries_must_match(self, toy_space, tmp_path, name, value):
        with pytest.raises(ParseError, match="archive entries"):
            load_split(split_file(tmp_path / "bad.npz", toy_space, [0], **{name: value}), toy_space)

    @pytest.mark.parametrize("name, value, message", [
        ("unseen", np.array([0], dtype=np.int32), "entry 'unseen' is int32 (1,), expected int64 (K,)"),
        ("strategy", np.array(["rare_first"]), "entry 'strategy' is <U10 (1,), expected a unicode"),
        ("seed", np.array(0.0), "entry 'seed' is float64 (), expected int64 ()"),
    ])
    def test_entry_of_another_type(self, toy_space, tmp_path, name, value, message):
        with pytest.raises(DimensionMismatch) as err:
            load_split(split_file(tmp_path / "bad.npz", toy_space, [0], **{name: value}), toy_space)
        assert message in str(err.value)

    def test_split_of_another_space(self, toy_space, tmp_path):
        other = build_space(TOY_DEFS, verb_names=("ride", "wash"), object_names=("horse", "bicycle"))
        path = tmp_path / "other.npz"
        save_split(ZeroShotSplit(frozenset({0}), other, "rare_first"), path)
        with pytest.raises(InconsistentLabel, match="other.npz holds another label space"):
            load_split(path, toy_space)

    def test_text_split_file_rejected(self, toy_space, tmp_path):
        # the format before split files were archives
        path = tmp_path / "split.txt"
        path.write_text("strategy\trare_first\nseed\t0\n[unseen]\n0\n")
        with pytest.raises(ParseError, match=r"not a split archive \(a zip of .npy entries\)"):
            load_split(path, toy_space)

    def test_empty_unseen_list_loads(self, toy_space, tmp_path):
        path = split_file(tmp_path / "none.npz", toy_space)
        assert load_split(path, toy_space).unseen == frozenset()
