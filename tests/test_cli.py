import argparse

import numpy as np
import pytest

from hoicomp import cli
from hoicomp import rng as rngmod
from hoicomp.cli import main
from hoicomp.evaluator import Detections, save_detections
from hoicomp.synthdata import load_dataset
from hoicomp.trainer import TrainConfig, make_minibatch

from test_spatial import brute_pair


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

    def test_external_detections(self, dataset, tmp_path, capsys):
        data, test = dataset
        insts, space = load_dataset(test)
        dets = Detections(
            image_id=insts.image_id, hoi_id=np.argmax(insts.label, axis=1).astype(np.int64),
            score=np.full(len(insts), 0.9), human_box=insts.human_box, object_box=insts.object_box,
        )
        dets_path = tmp_path / "dets.tsv"
        save_detections(dets, dets_path)
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
                   scored / "detections.tsv", "--out", loaded) == 0
        for name in ("report.txt", "report.tsv"):
            assert (scored / name).read_bytes() == (loaded / name).read_bytes(), name

    def test_requires_exactly_one_source(self, dataset, tmp_path, capsys):
        data, test = dataset
        assert run("eval", "--data", test, "--out", tmp_path / "x") == 1
        assert "error:" in capsys.readouterr().err


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


def table_rows(path):
    """A sweep.tsv or ablate.tsv as {first column: {header: value as printed}}."""
    header, *rows = (line.split("\t") for line in path.read_text().splitlines())
    return {row[0]: dict(zip(header[1:], row[1:])) for row in rows}


class TestMultiRunRows:
    """Each row of a multi-run table is what the single ``train`` run it
    stands for reports with the same flags."""

    FLAGS = ["--iterations", 10, "--interactions", 4, "--hidden", 6, "--vo-hidden", 6,
             "--sp-hidden", 6]

    def test_ablate_rows_match_train_runs(self, dataset, tmp_path):
        data, test = dataset
        flags = [*self.FLAGS, "--rare-threshold", 1000, "--eval-mode", "known_object"]
        assert run("ablate", "--data", data, "--test", test, "--out", tmp_path / "ab", *flags) == 0
        rows = table_rows(tmp_path / "ab" / "ablate.tsv")
        singles = [(f"compose_{m}", "--compose", m) for m in ("off", "within", "between", "both")]
        singles += [(f"branch_{b}", "--branch", b) for b in ("both", "vo_only", "sp_only")]
        for row, flag, value in singles:
            out = tmp_path / row
            assert run("train", "--data", data, "--test", test, "--out", out,
                       flag, value, *flags) == 0
            assert rows[row] == report_values(out / "report.txt"), row

    def test_sweep_rows_match_train_runs(self, dataset, tmp_path):
        data, test = dataset
        flags = [*self.FLAGS, "--branch", "sp_only", "--eval-mode", "known_object"]
        assert run("sweep", "--data", data, "--test", test, "--param", "lambda1",
                   "--values", "0.5,2.0", "--out", tmp_path / "sweep", *flags) == 0
        rows = table_rows(tmp_path / "sweep" / "sweep.tsv")
        for value in ("0.5", "2.0"):
            out = tmp_path / value
            assert run("train", "--data", data, "--test", test, "--out", out,
                       "--lambda1", value, *flags) == 0
            assert rows[value] == report_values(out / "report.txt"), value

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


# flags that only say where output goes, so a replayed spec leaves them out
OUTPUT_ONLY = {
    "gen-data": {"show_spatial"},
    "make-splits": set(),
    "train": {"out"},
    "eval": {"out", "dets_out"},
    "sweep": {"out"},
    "ablate": {"out"},
}


def subparser_flags(command):
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {action.dest for action in sub.choices[command]._actions} - {"help"}


def test_spec_keys_are_the_flags_a_replay_needs(dataset, tmp_path, monkeypatch):
    data, test = dataset
    written = {}
    write_spec = cli._write_spec

    def record(args, keys, path):
        written[args.command] = set(keys)
        write_spec(args, keys, path)

    monkeypatch.setattr(cli, "_write_spec", record)
    short = ["--iterations", 2, "--interactions", 4, "--hidden", 6, "--vo-hidden", 6,
             "--sp-hidden", 6]
    trained = tmp_path / "train"
    for argv in (
        ["gen-data", "--out", tmp_path / "g.tsv", *TINY_DATA],
        ["make-splits", "--data", data, "--n-unseen", 1, "--out", tmp_path / "split.txt"],
        ["train", "--data", data, "--test", test, "--out", trained, *short],
        ["eval", "--data", test, "--checkpoint", trained / "checkpoint.ckpt",
         "--out", tmp_path / "eval"],
        ["sweep", "--data", data, "--test", test, "--param", "lambda2", "--values", "1.0",
         "--out", tmp_path / "sweep", *short],
        ["ablate", "--data", data, "--test", test, "--out", tmp_path / "ablate", *short],
    ):
        assert run(*argv) == 0, argv[0]
    assert set(written) == set(OUTPUT_ONLY)
    for command, keys in written.items():
        assert keys == subparser_flags(command) - OUTPUT_ONLY[command], command


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
        data, _ = dataset
        bad = tmp_path / "split.txt"
        bad.write_bytes(b"strategy\trare_first\nseed\t0\n[unseen]\n0\xff\n")
        assert run("train", "--data", data, "--split", bad, "--out", tmp_path / "o", *TINY_TRAIN) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "line 4" in err

    def test_text_format_data_file(self, tmp_path, capsys):
        old = tmp_path / "old.tsv"  # the tab-separated format that preceded the archive
        old.write_bytes(b"feature_dim\t4\nnum_instances\t0\n[space]\n0\tride\thorse\n[instances]\n")
        assert run("make-splits", "--data", old, "--n-unseen", 1, "--out", tmp_path / "s.txt") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not a dataset archive" in err
        assert len(err.strip().split("\n")) == 1
