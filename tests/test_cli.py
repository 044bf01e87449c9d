import argparse
import functools
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from hoicomp import cli
from hoicomp import rng as rngmod
from hoicomp.cli import main
from hoicomp.evaluator import Detections, ground_truth_classes, save_detections
from hoicomp.network import NetworkConfig, load_params, save_params
from hoicomp.synthdata import SPACE_ENTRIES, DatasetConfig, load_dataset, unpack_labels
from hoicomp.trainer import TrainConfig, make_minibatch
from hoicomp.zeroshot import ZeroShotSplit, save_split

from test_file_fuzz import write_valid_files
from test_network import save_unbuilt
from test_spatial import brute_pair
from test_synthdata import replace_entry


def run(*argv):
    return main([str(a) for a in argv])


def expected_art(human_box, object_box):
    """The '#'/'.' rows ``--show-spatial`` should print for one box pair,
    drawn from the scalar rasterizer."""
    blocks = []
    for name, grid in zip(("person", "object"), brute_pair(human_box, object_box)):
        blocks.append(f"[{name}]\n" + "\n".join("".join(".#"[v] for v in row) for row in grid))
    return "\n".join(blocks) + "\n"


TINY_DATA = [
    "--num-verbs", 3, "--num-objects", 3, "--num-hois", 6,
    "--n-train", 120, "--n-test", 40, "--feature-dim", 6,
]
TINY_TRAIN = [
    "--iterations", 20, "--interactions", 4,
    "--hidden", 6, "--vo-hidden", 6, "--sp-hidden", 6,
]


@pytest.fixture()
def dataset(tmp_path):
    data = tmp_path / "d.tsv"
    assert run("gen-data", "--seed", 7, "--out", data, *TINY_DATA) == 0
    return data, data.with_suffix(".tsv.test")


class TestGenData:
    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        assert run("gen-data", "--seed", 7, "--out", a, *TINY_DATA) == 0
        assert run("gen-data", "--seed", 7, "--out", b, *TINY_DATA) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.with_suffix(".tsv.test").read_bytes() == b.with_suffix(".tsv.test").read_bytes()

    def test_show_spatial(self, tmp_path, capsys):
        out = tmp_path / "d.tsv"
        run("gen-data", "--seed", 1, "--out", out, "--show-spatial", 1, *TINY_DATA)
        printed = capsys.readouterr().out
        data, space = load_dataset(out)
        header = f"image {data.image_id[0]} object {space.object_names[data.object_id[0]]}\n"
        assert header + expected_art(data.human_box[0], data.object_box[0]) in printed

    def test_spec_echo_replays(self, tmp_path):
        a = tmp_path / "a.tsv"
        run("gen-data", "--seed", 3, "--out", a, *TINY_DATA)
        b = tmp_path / "b.tsv"
        assert run("--config", str(a) + ".spec", "gen-data", "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_replay_writes_its_test_set_beside_its_own_out(self, tmp_path):
        a, t1, b = tmp_path / "a.tsv", tmp_path / "t1.tsv", tmp_path / "b.tsv"
        assert run("gen-data", "--seed", 3, "--out", a, "--test-out", t1, *TINY_DATA) == 0
        assert run("--config", str(a) + ".spec", "gen-data", "--out", b) == 0
        assert b.read_bytes() == a.read_bytes()
        assert b.with_suffix(".tsv.test").read_bytes() == t1.read_bytes()

    def test_test_out_at_the_spec_path_fails_before_output(self, tmp_path, capsys):
        # the spec would overwrite the test set it follows
        out = tmp_path / "g.ds"
        capsys.readouterr()
        code = run("gen-data", "--out", out, "--test-out", f"{out}.spec", *TINY_DATA)
        err = assert_failed_before_output(code, capsys, out)
        assert err == f"error: --test-out and --out's spec name the same file {out}.spec\n"


class TestMakeSplits:
    @pytest.mark.parametrize("onto", ["--out", "--out's spec"])
    def test_output_onto_the_dataset_fails_before_loading(self, dataset, tmp_path, capsys,
                                                          monkeypatch, onto):
        data, _ = dataset
        out = data if onto == "--out" else tmp_path / "split.txt"
        if onto != "--out":  # a dataset where the split's spec would go
            data = Path(f"{out}.spec")
            data.write_bytes(dataset[0].read_bytes())
        before = data.read_bytes()
        files = sorted(tmp_path.iterdir())
        monkeypatch.setattr(cli, "load_dataset", None)  # a call would raise TypeError
        capsys.readouterr()
        code = run("make-splits", "--data", data, "--n-unseen", 1, "--out", out)
        err = capsys.readouterr().err
        assert code == 1 and err == f"error: --data and {onto} name the same file {data}\n", err
        assert data.read_bytes() == before and sorted(tmp_path.iterdir()) == files


class TestTrain:
    def test_compose_off_equals_lambda2_zero(self, dataset, tmp_path):
        data, test = dataset
        out_a, out_b = tmp_path / "off", tmp_path / "zero"
        assert run("train", "--data", data, "--test", test, "--out", out_a,
                   "--seed", 5, "--compose", "off", *TINY_TRAIN) == 0
        assert run("train", "--data", data, "--test", test, "--out", out_b,
                   "--seed", 5, "--lambda2", 0.0, *TINY_TRAIN) == 0
        assert (out_a / "metrics.log").read_bytes() == (out_b / "metrics.log").read_bytes()
        assert (out_a / "checkpoint.ckpt").read_bytes() == (out_b / "checkpoint.ckpt").read_bytes()

    def test_rerun_byte_identical(self, dataset, tmp_path):
        data, test = dataset
        out_a, out_b = tmp_path / "r1", tmp_path / "r2"
        args = ["train", "--data", data, "--test", test, "--seed", 2, *TINY_TRAIN]
        assert run(*args, "--out", out_a) == 0
        assert run(*args, "--out", out_b) == 0
        for name in ("metrics.log", "checkpoint.ckpt", "report.txt", "report.tsv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_replay_from_spec_file(self, dataset, tmp_path):
        data, test = dataset
        out_a = tmp_path / "orig"
        run("train", "--data", data, "--test", test, "--seed", 4, "--out", out_a, *TINY_TRAIN)
        out_b = tmp_path / "replay"
        assert run("--config", out_a / "spec.txt", "train", "--out", out_b) == 0
        for name in ("metrics.log", "checkpoint.ckpt", "report.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_split_flow(self, dataset, tmp_path):
        data, test = dataset
        split = tmp_path / "split.txt"
        assert run("make-splits", "--data", data, "--n-unseen", 1, "--out", split) == 0
        out = tmp_path / "zs"
        assert run("train", "--data", data, "--test", test, "--split", split,
                   "--unseen-allowed", "--out", out, "--seed", 1, *TINY_TRAIN) == 0
        report = (out / "report.txt").read_text()
        assert "map_unseen=" in report and "map_seen=" in report


class TestEval:
    def test_checkpoint_eval_matches_train_report(self, dataset, tmp_path):
        data, test = dataset
        out = tmp_path / "run"
        run("train", "--data", data, "--test", test, "--seed", 3, "--out", out, *TINY_TRAIN)
        out2 = tmp_path / "eval"
        assert run("eval", "--data", test, "--train-data", data,
                   "--checkpoint", out / "checkpoint.ckpt", "--out", out2) == 0
        assert (out / "report.txt").read_text() == (out2 / "report.txt").read_text()

    @pytest.mark.parametrize("branch", ["both", "vo_only", "sp_only"])
    @pytest.mark.parametrize("eval_mode", ["default", "known_object"])
    def test_checkpoint_eval_matches_train_report_without_every_class(self, tmp_path, branch,
                                                                      eval_mode):
        # a test set that lacks some classes: train scores only its
        # ground-truth classes, eval --checkpoint the full table
        data = tmp_path / "d.ds"
        assert run("gen-data", "--seed", 5, "--out", data, "--num-verbs", 4, "--num-objects", 4,
                   "--num-hois", 12, "--n-train", 120, "--n-test", 8, "--feature-dim", 6) == 0
        test = data.with_suffix(".ds.test")
        insts, space = load_dataset(test)
        assert 0 < len(ground_truth_classes(insts)) < space.num_hois
        scoring = ["--branch", branch, "--eval-mode", eval_mode]
        trained, scored = tmp_path / "train", tmp_path / "eval"
        assert run("train", "--data", data, "--test", test, "--seed", 3, "--out", trained,
                   *scoring, *TINY_TRAIN) == 0
        assert run("eval", "--data", test, "--train-data", data, *scoring,
                   "--checkpoint", trained / "checkpoint.ckpt", "--out", scored) == 0
        for name in ("report.txt", "report.tsv"):
            assert (trained / name).read_bytes() == (scored / name).read_bytes(), name

    @pytest.mark.parametrize("with_split", [False, True])
    def test_train_data_is_read_for_its_labels_only(self, dataset, tmp_path, monkeypatch,
                                                     with_split):
        # the report equals train's, whose counts come from the whole file,
        # and eval reads the training file's label columns and space alone
        data, test = dataset
        split = ["--split", tmp_path / "split.txt"] if with_split else []
        if with_split:
            assert run("make-splits", "--data", data, "--n-unseen", 1, "--out", split[1]) == 0
        out = tmp_path / "run"
        assert run("train", "--data", data, "--test", test, *split, "--seed", 3, "--out", out,
                   *TINY_TRAIN) == 0
        read = []
        getitem = np.lib.npyio.NpzFile.__getitem__

        def recording(archive, key):
            read.append((Path(archive.zip.filename).name, key))
            return getitem(archive, key)

        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", recording)
        out2 = tmp_path / "eval"
        assert run("eval", "--data", test, "--train-data", data, *split,
                   "--checkpoint", out / "checkpoint.ckpt", "--out", out2) == 0
        from_train = sorted(key for name, key in read if name == data.name)
        assert from_train == sorted(["label", "object_id", *SPACE_ENTRIES])
        for name in ("report.txt", "report.tsv"):
            assert (out / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_external_detections(self, dataset, tmp_path, capsys):
        data, test = dataset
        insts, space = load_dataset(test)
        dets = Detections(image_id=insts.image_id, human_box=insts.human_box,
                          object_box=insts.object_box,
                          score=0.9 * unpack_labels(insts.label, space.num_hois))
        dets_path = tmp_path / "dets.npz"
        save_detections(dets, space, dets_path)
        out = tmp_path / "eval"
        assert run("eval", "--data", test, "--detections", dets_path, "--out", out) == 0
        text = (out / "report.txt").read_text()
        assert "map_full=" in text

    def test_saved_detections_reproduce_the_report(self, dataset, tmp_path):
        data, test = dataset
        out = tmp_path / "run"
        run("train", "--data", data, "--test", test, "--seed", 3, "--out", out, *TINY_TRAIN)
        scored, loaded = tmp_path / "scored", tmp_path / "loaded"
        assert run("eval", "--data", test, "--train-data", data, "--checkpoint",
                   out / "checkpoint.ckpt", "--dets-out", "--out", scored) == 0
        assert run("eval", "--data", test, "--train-data", data, "--detections",
                   scored / "detections.npz", "--out", loaded) == 0
        for name in ("report.txt", "report.tsv"):
            assert (scored / name).read_bytes() == (loaded / name).read_bytes(), name

    def test_requires_exactly_one_source(self, dataset, tmp_path, capsys):
        data, test = dataset
        assert run("eval", "--data", test, "--out", tmp_path / "x") == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("sources", [[], ["--checkpoint", "c.ckpt", "--detections", "d.npz"]])
    def test_source_check_precedes_output(self, dataset, tmp_path, capsys, sources):
        data, test = dataset
        out = tmp_path / "o"
        assert run("eval", "--data", test, "--train-data", data, "--split", tmp_path / "none",
                   *sources, "--out", out) == 1
        assert "exactly one of --checkpoint / --detections" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_detections_file(self, dataset, tmp_path, capsys):
        data, test = dataset
        empty = tmp_path / "empty.npz"  # no pairs
        save_detections(Detections(image_id=np.zeros(0, dtype=np.int64), human_box=np.zeros((0, 4)),
                                   object_box=np.zeros((0, 4)), score=np.zeros((0, 6))),
                        load_dataset(test)[1], empty)
        assert run("eval", "--data", test, "--detections", empty, "--out", tmp_path / "e") == 0
        assert "map_full=0.0\n" in capsys.readouterr().out

    def test_text_detections_file(self, dataset, tmp_path, capsys):
        # one pair a line, the format before detections files were archives
        data, test = dataset
        text = tmp_path / "dets.tsv"
        text.write_text("0\t0.0,0.0,10.0,10.0\t0.0,0.0,10.0,10.0\t" + ",".join(["0.5"] * 6) + "\n")
        out = tmp_path / "o"
        code = run("eval", "--data", test, "--detections", text, "--out", out)
        err = assert_failed_before_output(code, capsys, out)
        assert "not a detections archive (a zip of .npy entries)" in err

    def test_checkpoint_of_another_label_space(self, dataset, tmp_path, capsys):
        data, test = dataset
        out = tmp_path / "run"
        assert run("train", "--data", data, "--seed", 3, "--out", out, *TINY_TRAIN) == 0
        other = tmp_path / "other.tsv"
        hois = TINY_DATA.index("--num-hois") + 1
        other_data = TINY_DATA[:hois] + [8] + TINY_DATA[hois + 1:]
        assert run("gen-data", "--seed", 8, "--out", other, *other_data) == 0
        capsys.readouterr()
        assert run("eval", "--data", other.with_suffix(".tsv.test"), "--checkpoint",
                   out / "checkpoint.ckpt", "--out", tmp_path / "eval") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "6 classes" in err and "has 8" in err


class TestDemosAndSweeps:
    def test_compose_demo_prints(self, dataset, capsys):
        data, _ = dataset
        assert run("compose-demo", "--data", data, "--batch-size", 6, "--limit", 5) == 0
        printed = capsys.readouterr().out
        assert "feasible compositions" in printed
        assert "real[0]" in printed

    def test_compose_demo_show_spatial(self, dataset, capsys):
        data, _ = dataset
        assert run("compose-demo", "--data", data, "--batch-size", 6, "--seed", 3,
                   "--show-spatial", 1) == 0
        printed = capsys.readouterr().out
        train_set, _ = load_dataset(data)
        cfg = TrainConfig(interactions_per_minibatch=6, seed=3)
        first = make_minibatch(train_set, cfg, rngmod.stream(3, "batch"))[0]
        art = expected_art(train_set.human_box[first], train_set.object_box[first])
        assert f"real[0] image={train_set.image_id[first]} " in printed
        assert printed.count("[person]") == 1 and art in printed  # the one map is row 0's

    @pytest.mark.parametrize("flag", ["--limit", "--show-spatial", "--seed"])
    def test_compose_demo_negative_value_prints_nothing(self, dataset, capsys, flag):
        data, _ = dataset
        capsys.readouterr()
        assert run("compose-demo", "--data", data, flag, -1) == 1
        printed = capsys.readouterr()
        assert printed.out == "" and printed.err.startswith("error:")

    def test_sweep_rows(self, dataset, tmp_path):
        data, test = dataset
        out = tmp_path / "sweep"
        assert run("sweep", "--data", data, "--test", test, "--param", "lambda1",
                   "--values", "1.0,2.0", "--out", out, "--iterations", 10,
                   "--interactions", 4, "--hidden", 6, "--vo-hidden", 6, "--sp-hidden", 6) == 0
        lines = (out / "sweep.tsv").read_text().strip().split("\n")
        assert lines[0].startswith("lambda1\t")
        assert len(lines) == 3

    def test_ablate_matrix(self, dataset, tmp_path):
        data, test = dataset
        out = tmp_path / "ablate"
        assert run("ablate", "--data", data, "--test", test, "--out", out,
                   "--iterations", 10, "--interactions", 4,
                   "--hidden", 6, "--vo-hidden", 6, "--sp-hidden", 6) == 0
        table = (out / "ablate.tsv").read_text()
        for row in ("compose_off", "compose_within", "compose_between", "compose_both",
                    "branch_both", "branch_vo_only", "branch_sp_only"):
            assert row in table


def report_values(path):
    """The ``map_*`` lines of a report.txt, as printed."""
    return dict(line.split("=", 1) for line in path.read_text().splitlines() if line.startswith("map_"))


def expected_table(first, runs):
    """The sweep.tsv or ablate.tsv text for (row name, report.txt) runs: the
    header, then each run's values as its report prints them, in order."""
    columns = ["map_full", "map_rare", "map_nonrare"]
    lines = ["\t".join([first, *columns])]
    for name, report in runs:
        values = report_values(report)
        assert sorted(values) == sorted(columns), name
        lines.append("\t".join([name, *(values[c] for c in columns)]))
    return "\n".join(lines) + "\n"


class TestMultiRunRows:
    """Each row of a multi-run table is what the single ``train`` run it
    stands for reports with the same flags, in the order the command lists
    them."""

    FLAGS = ["--iterations", 10, "--interactions", 4, "--hidden", 6, "--vo-hidden", 6,
             "--sp-hidden", 6]

    def test_ablate_rows_match_train_runs(self, dataset, tmp_path):
        data, test = dataset
        flags = [*self.FLAGS, "--rare-threshold", 1000, "--eval-mode", "known_object"]
        assert run("ablate", "--data", data, "--test", test, "--out", tmp_path / "ab", *flags) == 0
        singles = [(f"compose_{m}", "--compose", m) for m in ("off", "within", "between", "both")]
        singles += [(f"branch_{b}", "--branch", b) for b in ("both", "vo_only", "sp_only")]
        for row, flag, value in singles:
            assert run("train", "--data", data, "--test", test, "--out", tmp_path / row,
                       flag, value, *flags) == 0
        expected = expected_table("run", [(row, tmp_path / row / "report.txt")
                                          for row, *_ in singles])
        assert (tmp_path / "ab" / "ablate.tsv").read_text() == expected

    def test_sweep_rows_match_train_runs(self, dataset, tmp_path):
        data, test = dataset
        flags = [*self.FLAGS, "--branch", "sp_only", "--eval-mode", "known_object"]
        assert run("sweep", "--data", data, "--test", test, "--param", "lambda1",
                   "--values", "2.0,0.5", "--out", tmp_path / "sweep", *flags) == 0
        for value in ("2.0", "0.5"):
            assert run("train", "--data", data, "--test", test, "--out", tmp_path / value,
                       "--lambda1", value, *flags) == 0
        expected = expected_table("lambda1", [(value, tmp_path / value / "report.txt")
                                              for value in ("2.0", "0.5")])
        assert (tmp_path / "sweep" / "sweep.tsv").read_text() == expected

    def test_ablate_trains_one_model_for_its_branch_rows(self, dataset, tmp_path, trainings):
        data, test = dataset
        assert run("ablate", "--data", data, "--test", test, "--out", tmp_path / "ab",
                   *self.FLAGS) == 0
        assert len((tmp_path / "ab" / "ablate.tsv").read_text().splitlines()) == 1 + 7
        assert len(trainings) == 4

    def test_sweep_repeated_value_is_trained_once(self, dataset, tmp_path, capsys, trainings):
        data, test = dataset
        assert run("sweep", "--data", data, "--test", test, "--param", "lambda2",
                   "--values", "1,2,2", "--out", tmp_path / "sweep", *self.FLAGS) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 3 and rows[1] == rows[2] != rows[0]
        assert len(trainings) == 2

    def test_sweep_value_repeated_later_is_trained_once(self, dataset, tmp_path, capsys,
                                                        trainings):
        data, test = dataset
        assert run("sweep", "--data", data, "--test", test, "--param", "lambda2",
                   "--values", "1,2,1", "--out", tmp_path / "sweep", *self.FLAGS) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 3 and rows[0] == rows[2] != rows[1]
        assert len(trainings) == 2

    def test_split_eval_matches_train_report(self, dataset, tmp_path):
        data, test = dataset
        split = tmp_path / "split.txt"
        assert run("make-splits", "--data", data, "--n-unseen", 2, "--out", split) == 0
        trained, scored = tmp_path / "train", tmp_path / "eval"
        assert run("train", "--data", data, "--test", test, "--split", split,
                   "--out", trained, *TINY_TRAIN) == 0
        assert run("eval", "--data", test, "--train-data", data, "--split", split,
                   "--checkpoint", trained / "checkpoint.ckpt", "--out", scored) == 0
        for name in ("report.txt", "report.tsv"):
            assert (trained / name).read_bytes() == (scored / name).read_bytes(), name


# flags that only say where output goes or what to print, so a spec leaves
# them out and a replay names its own --out
OUTPUT_ONLY = {
    "gen-data": {"out", "test_out", "show_spatial"},
    "make-splits": {"out"},
    "train": {"out"},
    "eval": {"out", "dets_out"},
    "sweep": {"out"},
    "ablate": {"out"},
}


@functools.cache
def subparsers():
    """Each subcommand's parser, by name; built once, so do not change it."""
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def subparser_flags(command):
    return {action.dest for action in subparsers()[command]._actions} - {"help"}


def spec_file(command, out):
    return Path(f"{out}.spec") if command in ("gen-data", "make-splits") else out / "spec.txt"


@pytest.fixture()
def spec_runs(dataset, tmp_path):
    """Run every subcommand that writes a spec, together setting each of its
    flags at least once; returns (command, spec file) per run."""
    data, test = dataset
    split, trained, scored = tmp_path / "split.txt", tmp_path / "train", tmp_path / "eval"
    runs = [
        (["gen-data", "--test-out", tmp_path / "gt.tsv", "--show-spatial", 1, *TINY_DATA],
         tmp_path / "g.tsv"),
        (["make-splits", "--data", data, "--n-unseen", 1], split),
        (["train", "--data", data, "--test", test, "--split", split, *TINY_TRAIN], trained),
        (["eval", "--data", test, "--train-data", data, "--split", split,
          "--checkpoint", trained / "checkpoint.ckpt", "--dets-out"], scored),
        (["eval", "--data", test, "--detections", scored / "detections.npz"],
         tmp_path / "eval-dets"),
        (["sweep", "--data", data, "--test", test, "--param", "lambda2", "--values", "1.0",
          *TINY_TRAIN], tmp_path / "sweep"),
        (["ablate", "--data", data, "--test", test, *TINY_TRAIN], tmp_path / "ablate"),
    ]
    for argv, out in runs:
        assert run(*argv, "--out", out) == 0, argv[0]
    return [(argv[0], spec_file(argv[0], out)) for argv, out in runs]


def test_spec_keys_are_the_flags_a_replay_needs(spec_runs):
    written = {}
    for command, spec in spec_runs:
        first, *lines = spec.read_text(encoding="utf-8").splitlines()
        assert first == f"command={command}"
        written.setdefault(command, set()).update(line.split("=", 1)[0] for line in lines)
    assert set(written) == set(OUTPUT_ONLY)
    for command, keys in written.items():
        assert keys == subparser_flags(command) - OUTPUT_ONLY[command], command


def test_replayed_spec_is_byte_identical(spec_runs, tmp_path):
    for k, (command, spec) in enumerate(spec_runs):
        out = tmp_path / f"replay-{k}"
        assert run("--config", spec, command, "--out", out) == 0, command
        assert spec_file(command, out).read_bytes() == spec.read_bytes(), command


def test_only_train_takes_eval_every(spec_runs, tmp_path):
    # sweep and ablate write no metrics.log, where periodic scoring would
    # show, so they take no --eval-every. A spec of theirs that records one
    # still replays, to the same spec without it: train keeps the key known
    assert "eval_every" in subparser_flags("train")
    for command, spec in spec_runs:
        if command not in ("sweep", "ablate"):
            continue
        assert "eval_every" not in subparser_flags(command)
        with pytest.raises(SystemExit):
            run(command, "--eval-every", 5)
        old = tmp_path / f"{command}-old.txt"
        old.write_text(spec.read_text(encoding="utf-8") + "eval_every=5\n", encoding="utf-8")
        out = tmp_path / f"{command}-replay"
        assert run("--config", old, command, "--out", out) == 0, command
        assert spec_file(command, out).read_bytes() == spec.read_bytes(), command


def assert_failed_before_output(code, capsys, out):
    """Exit code 1, one ``error:`` line, and nothing written at ``out`` or
    beside it (``out.test``, ``out.spec``); returns the error line."""
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error:") and len(err.strip().split("\n")) == 1, err
    assert not list(out.parent.glob(out.name + "*"))
    return err


# a value that is not finite, or that lies below its setting's bound (a
# width under 1, a count or scale under 0), fails its config check
BAD_SETTINGS = [
    *[("gen-data", flag, value) for flag in ("--zipf-exponent", "--class-sep", "--noise-sigma")
      for value in ("nan", "inf")],
    ("gen-data", "--noise-sigma", "-1"),
    ("gen-data", "--seed", "-1"),
    ("gen-data", "--show-spatial", "-1"),
    *[("train", flag, value) for flag in ("--lr", "--weight-decay", "--lambda1", "--lambda2")
      for value in ("nan", "inf")],
    ("train", "--hidden", "0"),
    ("train", "--vo-hidden", "0"),
    ("train", "--sp-hidden", "-3"),
    ("train", "--eval-every", "-1"),
    ("train", "--rare-threshold", "-5"),
    ("train", "--seed", "-1"),
    ("eval", "--rare-threshold", "-5"),
]


@pytest.mark.parametrize("command, flag, value", BAD_SETTINGS)
def test_bad_setting_fails_before_output(dataset, request, tmp_path, capsys, command, flag, value):
    data, test = dataset
    if command == "gen-data":
        inputs = TINY_DATA
    elif command == "train":
        inputs = ["--data", data, "--test", test, *TINY_TRAIN]
    else:
        inputs = ["--data", test, "--train-data", data,
                  "--checkpoint", request.getfixturevalue("checkpoint")]
    capsys.readouterr()
    out = tmp_path / "o"
    code = run(command, *inputs, flag, value, "--out", out)
    err = assert_failed_before_output(code, capsys, out)
    name = flag[2:].replace("-", "_")
    if value in ("nan", "inf"):
        assert name + " must be finite" in err
    else:  # the message names the bound
        assert name + " must be " in err and ">= " in err


# "DATA"/"TEST" name the tiny dataset's files, "EMPTY" a training set of
# the same label space with no rows, "CLASS0" one whose rows all hold class
# 0 alone, "SPLIT0" a valid split with class 0 unseen, "CKPT" a checkpoint
# trained on DATA, "BYTES" DATA with one byte per class in its label (the
# format before labels were bits), "OTHER" a training set of another label
# space with as many classes, "OTHER_SPLIT" a split that make-splits made of
# OTHER, "OTHER_DETS" the detections of CKPT on OTHER's test set, "NAN_CKPT"
# CKPT with a NaN in vo_b3, "OUT" the run's own --out, and "MISSING" a path
# where nothing is
BAD_INPUTS = [
    ["train", "--data", "MISSING"],
    ["train", "--data", "DATA", "--test", "MISSING"],
    ["train", "--data", "DATA", "--split", "MISSING"],
    ["train", "--data", "DATA", "--lr", "nan"],
    # a learning rate this large diverges in training, after every input is read
    ["train", "--data", "DATA", "--test", "TEST", "--lr", "1e300"],
    ["sweep", "--data", "DATA", "--test", "TEST", "--param", "lambda1", "--values", "1",
     "--lr", "1e300"],
    ["ablate", "--data", "DATA", "--test", "TEST", "--lr", "1e300"],
    ["eval", "--data", "MISSING", "--checkpoint", "CKPT"],
    ["eval", "--data", "TEST", "--train-data", "MISSING", "--checkpoint", "CKPT"],
    ["eval", "--data", "TEST", "--split", "MISSING", "--checkpoint", "CKPT"],
    ["eval", "--data", "TEST", "--checkpoint", "MISSING"],
    ["eval", "--data", "TEST", "--detections", "MISSING"],
    # a checkpoint is checked whole, so also under a branch that would not read the NaN
    ["eval", "--data", "TEST", "--checkpoint", "NAN_CKPT", "--branch", "both"],
    ["eval", "--data", "TEST", "--checkpoint", "NAN_CKPT", "--branch", "sp_only"],
    ["sweep", "--data", "MISSING", "--test", "TEST", "--param", "lambda1", "--values", "1"],
    ["sweep", "--data", "DATA", "--test", "MISSING", "--param", "lambda1", "--values", "1"],
    ["sweep", "--data", "DATA", "--test", "TEST", "--param", "lambda2", "--values", "1,nan"],
    ["ablate", "--data", "MISSING", "--test", "TEST"],
    ["ablate", "--data", "DATA", "--test", "MISSING"],
    ["train", "--data", "EMPTY"],
    ["sweep", "--data", "EMPTY", "--test", "TEST", "--param", "lambda1", "--values", "1"],
    ["ablate", "--data", "EMPTY", "--test", "TEST"],
    # every row is left with no seen class, so nothing can be trained on
    ["train", "--data", "CLASS0", "--split", "SPLIT0"],
    ["train", "--data", "BYTES"],
    ["eval", "--data", "TEST", "--train-data", "BYTES", "--checkpoint", "CKPT"],
    # each file read beside --data must hold its label space
    ["train", "--data", "DATA", "--test", "OTHER"],
    ["eval", "--data", "TEST", "--train-data", "OTHER", "--checkpoint", "CKPT"],
    ["train", "--data", "DATA", "--split", "OTHER_SPLIT"],
    ["eval", "--data", "TEST", "--split", "OTHER_SPLIT", "--checkpoint", "CKPT"],
    ["eval", "--data", "TEST", "--detections", "OTHER_DETS"],
    # the test set would overwrite the training set
    ["gen-data", "--test-out", "OUT"],
    # a list with no number would train nothing
    ["sweep", "--data", "DATA", "--test", "TEST", "--param", "lambda1", "--values", ","],
]


@pytest.fixture()
def checkpoint(dataset, tmp_path):
    data, test = dataset
    assert run("train", "--data", data, "--out", tmp_path / "ckpt", *TINY_TRAIN) == 0
    return tmp_path / "ckpt" / "checkpoint.ckpt"


@pytest.mark.parametrize("argv", BAD_INPUTS, ids=" ".join)
def test_bad_input_fails_before_output(dataset, checkpoint, tmp_path, capsys, argv):
    data, test = dataset
    out = tmp_path / "o"
    paths = {"DATA": data, "TEST": test, "CKPT": checkpoint, "MISSING": tmp_path / "missing",
             "EMPTY": tmp_path / "empty.tsv", "CLASS0": tmp_path / "class0.tsv",
             "SPLIT0": tmp_path / "split0.txt", "BYTES": tmp_path / "bytes.tsv",
             "OTHER": tmp_path / "foreign.tsv", "OTHER_SPLIT": tmp_path / "foreign.split",
             "OTHER_DETS": tmp_path / "foreign" / "detections.npz",
             "NAN_CKPT": tmp_path / "nan.ckpt", "OUT": out}
    if "NAN_CKPT" in argv:
        params, meta = load_params(checkpoint)
        params.vo_b3[3] = np.nan
        save_params(params, paths["NAN_CKPT"], meta)
    if "EMPTY" in argv:
        assert run("gen-data", "--seed", 7, "--out", paths["EMPTY"], *TINY_DATA, "--n-train", 0) == 0
    if "CLASS0" in argv:
        assert run("gen-data", "--seed", 7, "--out", paths["CLASS0"], *TINY_DATA, "--n-train", 2) == 0
        class0, space = load_dataset(paths["CLASS0"])
        assert np.flatnonzero(unpack_labels(class0.label, space.num_hois).any(axis=0)).tolist() == [0]
    if "BYTES" in argv:
        train_set, space = load_dataset(data)
        paths["BYTES"].write_bytes(data.read_bytes())
        replace_entry(paths["BYTES"], "label", unpack_labels(train_set.label, space.num_hois))
    if {"OTHER", "OTHER_SPLIT", "OTHER_DETS"} & set(argv):
        assert run("gen-data", "--seed", 8, "--out", paths["OTHER"], *TINY_DATA) == 0
        assert load_dataset(paths["OTHER"])[1] != load_dataset(data)[1]
    if "OTHER_SPLIT" in argv:
        assert run("make-splits", "--data", paths["OTHER"], "--n-unseen", 1,
                   "--out", paths["OTHER_SPLIT"]) == 0
    if "OTHER_DETS" in argv:
        assert run("eval", "--data", f"{paths['OTHER']}.test", "--checkpoint", checkpoint,
                   "--dets-out", "--out", paths["OTHER_DETS"].parent) == 0
    if "SPLIT0" in argv:
        save_split(ZeroShotSplit(frozenset({0}), load_dataset(data)[1], "rare_first"),
                   paths["SPLIT0"])
    flags = {"eval": [], "gen-data": TINY_DATA}.get(argv[0], TINY_TRAIN)
    capsys.readouterr()
    code = run(*(paths.get(a, a) for a in argv), *flags, "--out", out)
    assert_failed_before_output(code, capsys, out)


@pytest.mark.parametrize("width", ["hidden", "vo_hidden", "sp_hidden"])
def test_zero_width_checkpoint_fails_before_output(dataset, tmp_path, capsys, width):
    _, test = dataset
    # the tiny data's label space and feature width
    widths = asdict(NetworkConfig(num_hois=6, feature_dim=6, hidden=6, vo_hidden=6, sp_hidden=6))
    ckpt = tmp_path / "zero.ckpt"
    save_unbuilt(ckpt, **{**widths, width: 0})
    capsys.readouterr()
    out = tmp_path / "o"
    code = run("eval", "--data", test, "--checkpoint", ckpt, "--out", out)
    assert f"{width} must be >= 1" in assert_failed_before_output(code, capsys, out)


def test_default_train_flags_build_the_default_train_config():
    args = cli.build_parser().parse_args(["train"])
    assert cli._train_config(args) == TrainConfig()


def test_every_dataset_setting_is_a_gen_data_flag():
    # hoi_defs is drawn from --num-verbs/--num-objects/--num-hois
    assert {f.name for f in fields(DatasetConfig)} - {"hoi_defs"} <= subparser_flags("gen-data")


class TestErrors:
    def test_missing_file_is_one_line_error(self, tmp_path, capsys):
        assert run("train", "--data", tmp_path / "nope.tsv", "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().split("\n")) == 1

    def test_malformed_checkpoint_is_one_line_error(self, dataset, tmp_path, capsys):
        _, test = dataset
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"HOICOMP-CKPT\n{not json\n[data]\n")
        assert run("eval", "--data", test, "--checkpoint", bad, "--out", tmp_path / "o") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().split("\n")) == 1

    def test_sweep_values_not_numbers_fail_before_loading(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert run("sweep", "--data", tmp_path / "nope.tsv", "--test", tmp_path / "nope.test",
                   "--param", "lambda1", "--values", "1,abc", "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'1,abc'" in err  # not the missing data file
        assert len(err.strip().split("\n")) == 1
        assert not out.exists()

    def test_missing_required_flag(self, tmp_path, capsys):
        assert run("gen-data") == 1
        assert "--out" in capsys.readouterr().err


class TestConfigFile:
    @pytest.mark.parametrize("text", [
        "iterations 5\n",       # no '='
        "iterations=abc\n",     # not an int
        "iteration=5\n",        # names no flag
        "param=lambda3\n",      # not one of the flag's choices
        "no_balance=ture\n",    # not a boolean spelling
    ])
    def test_bad_config_is_one_line_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert run("--config", cfg, "gen-data", "--out", tmp_path / "d.tsv") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().split("\n")) == 1
        assert not (tmp_path / "d.tsv").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        assert run("--config", tmp_path / "nope.cfg", "gen-data", "--out", tmp_path / "d.tsv") == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_non_utf8_split_file(self, dataset, tmp_path, capsys):
        # a text split, the format before split files were archives, with a
        # byte that is not UTF-8
        data, _ = dataset
        bad = tmp_path / "split.txt"
        bad.write_bytes(b"strategy\trare_first\nseed\t0\n[unseen]\n0\xff\n")
        out = tmp_path / "o"
        code = run("train", "--data", data, "--split", bad, "--out", out, *TINY_TRAIN)
        assert "not a split archive" in assert_failed_before_output(code, capsys, out)

    def test_text_format_data_file(self, tmp_path, capsys):
        old = tmp_path / "old.tsv"  # the tab-separated format that preceded the archive
        old.write_bytes(b"feature_dim\t4\nnum_instances\t0\n[space]\n0\tride\thorse\n[instances]\n")
        assert run("make-splits", "--data", old, "--n-unseen", 1, "--out", tmp_path / "s.txt") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not a dataset archive" in err
        assert len(err.strip().split("\n")) == 1


# ---- the parser walk: each subcommand's valid run, changed in one flag ----

# the values every numeric flag is tried at, by the flag's type
EDGE_VALUES = {int: ("0", "-1"), float: ("0", "-1", "nan", "inf")}

# the fuzzed format each flag naming an input file reads; None: not a file
READS = {"data": "data.ds", "test": "data.ds", "train_data": "data.ds",
         "split": "split.npz", "checkpoint": "model.ckpt", "detections": "dets.npz",
         "values": None}


def numeric_flags(command):
    for action in subparsers()[command]._actions:
        if action.type in EDGE_VALUES:
            yield action.option_strings[0], action.type


def file_flags(command):
    """Flags of ``command`` that name a file it reads."""
    for action in subparsers()[command]._actions:
        if (action.type is None and action.nargs is None and action.choices is None
                and action.dest not in cli.OUTPUT_FLAGS and READS[action.dest] is not None):
            yield action.option_strings[0], READS[action.dest]


@pytest.fixture(scope="module")
def walk_inputs(tmp_path_factory):
    """The tiny data, a checkpoint trained on it and, under ``bad``, each
    fuzzed format's valid file truncated halfway; returns (root, {command:
    the flags of its valid run but --out})."""
    root = tmp_path_factory.mktemp("walk")
    data, test, ckpt = root / "d.tsv", root / "d.tsv.test", root / "run" / "checkpoint.ckpt"
    assert run("gen-data", "--seed", 7, "--out", data, *TINY_DATA) == 0
    assert run("train", "--data", data, "--out", ckpt.parent, *TINY_TRAIN) == 0
    (root / "bad").mkdir()
    write_valid_files(root / "bad")
    for path in (root / "bad").iterdir():
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    train = [*TINY_TRAIN, "--iterations", 1]
    return root, {
        "gen-data": TINY_DATA,
        "make-splits": ["--data", data, "--n-unseen", 1],
        "train": ["--data", data, "--test", test, *train],
        "eval": ["--data", test, "--train-data", data, "--checkpoint", ckpt],
        "compose-demo": ["--data", data],
        "sweep": ["--data", data, "--test", test, "--param", "lambda1", "--values", 1, *train],
        "ablate": ["--data", data, "--test", test, *train],
    }


def run_cleanly(argv, tmp_path, capsys):
    """Run ``argv`` with a fresh ``--out`` when the command has one: exit
    code 0 or 1, no traceback, and on 1 one ``error:`` line and no output."""
    out = tmp_path / "o"
    if "out" in subparser_flags(next(a for a in argv if a in subparsers())):
        argv = [*argv, "--out", out]
    capsys.readouterr()
    code = run(*argv)  # an exception escaping main fails the test with its traceback
    if code == 0:
        assert "Traceback" not in capsys.readouterr().err
    else:
        assert_failed_before_output(code, capsys, out)
    return code


@pytest.mark.parametrize("command", sorted(subparsers()))
def test_walk_starts_from_valid_runs(walk_inputs, tmp_path, capsys, command):
    assert run_cleanly([command, *walk_inputs[1][command]], tmp_path, capsys) == 0


@pytest.mark.parametrize("command, flag, value", [
    pytest.param(command, flag, value, id=f"{command} {flag} {value}")
    for command in sorted(subparsers())
    for flag, kind in numeric_flags(command) for value in EDGE_VALUES[kind]
])
def test_numeric_edge_values_exit_cleanly(walk_inputs, tmp_path, capsys, command, flag, value):
    run_cleanly([command, *walk_inputs[1][command], flag, value], tmp_path, capsys)


@pytest.mark.parametrize("command, flag, name", [
    pytest.param(command, flag, name, id=f"{command} {flag} {name}")
    for command in sorted(subparsers())
    for flag, name in [*file_flags(command), ("--config", "run.cfg")]
])
def test_corrupt_input_files_exit_cleanly(walk_inputs, tmp_path, capsys, command, flag, name):
    root, inputs = walk_inputs
    argv = [command, *inputs[command], flag, root / "bad" / name]
    if flag == "--config":  # a global flag, so it goes before the command
        argv = argv[-2:] + argv[:-2]
    if flag == "--detections":  # eval scores one of --checkpoint / --detections
        k = argv.index("--checkpoint")
        del argv[k : k + 2]
    run_cleanly(argv, tmp_path, capsys)


@pytest.mark.parametrize("command", [c for c in sorted(subparsers())
                                     if ("--split", "split.npz") in file_flags(c)])
def test_split_cut_before_its_id_list_fails(walk_inputs, tmp_path, capsys, command):
    # the walk's truncated split archive keeps its first entries' bytes and
    # loses the zip directory that lists them
    root, inputs = walk_inputs
    cut = root / "bad" / "split.npz"
    assert b"unseen.npy" in cut.read_bytes() and b"PK\x05\x06" not in cut.read_bytes()
    assert run_cleanly([command, *inputs[command], "--split", cut], tmp_path, capsys) == 1
