"""Mutated files reach every loader; only ``HoicompError`` may escape.

Each loader gets a valid file of its format, then up to three mutations:
a line dropped, duplicated or replaced by random bytes, or a short byte run
spliced into a line, often a token chosen to hit a parser edge (bytes that
are not UTF-8, separators, non-finite and out-of-range numbers).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hoicomp.cli import load_flat_config
from hoicomp.errors import HoicompError
from hoicomp.evaluator import Detections, load_detections, save_detections
from hoicomp.label_algebra import build_space
from hoicomp.network import NetworkConfig, init_params, load_params, save_params
from hoicomp.synthdata import load_dataset, save_dataset
from hoicomp.trainer import read_metrics_log, write_metrics_log
from hoicomp.zeroshot import ZeroShotSplit, load_split, save_split

from conftest import TOY_DEFS, make_dataset, make_row

TOKENS = [
    b"\xff", b"\x80", b"\xe2\x82", b"\n", b"\t", b",", b"=", b"[", b"-", b" ", b"",
    b"0", b"9", b"nan", b"inf", b"-1", b"1e999", b"99999999999999999999", b"\r\n",
]


def mutate(data, blob: bytes) -> bytes:
    for _ in range(data.draw(st.integers(1, 3))):
        lines = blob.split(b"\n")
        k = data.draw(st.integers(0, len(lines) - 1))
        op = data.draw(st.sampled_from(["drop", "dup", "line", "splice", "splice"]))
        if op == "drop":
            del lines[k]
        elif op == "dup":
            lines.insert(k, lines[k])
        elif op == "line":
            lines[k] = data.draw(st.binary(max_size=40))
        else:
            line = lines[k]
            start = data.draw(st.integers(0, len(line)))
            stop = data.draw(st.integers(start, min(len(line), start + 8)))
            token = data.draw(st.sampled_from(TOKENS) | st.binary(max_size=4))
            lines[k] = line[:start] + token + line[stop:]
        blob = b"\n".join(lines)
    return blob


def write_valid_files(root):
    """Write one valid file per format under ``root``; returns the space
    the dataset, split and detections files hold, which the split and
    detections loaders check against."""
    space = build_space(TOY_DEFS, verb_names=("ride", "feed"), object_names=("horse", "bicycle"))
    rng = np.random.default_rng(0)
    data = make_dataset([make_row(space, [c], image_id=c // 2, rng=rng) for c in (0, 1, 2, 0)])
    save_dataset(data, space, root / "data.tsv")
    save_split(ZeroShotSplit(unseen=frozenset({0}), space=space, strategy="rare_first", seed=3),
               root / "split.txt")
    box = np.tile([1.0, 2.0, 30.0, 40.5], (4, 1))
    dets = Detections(image_id=np.arange(4), human_box=box, object_box=box,
                      score=0.25 * np.arange(12.0).reshape(4, 3))
    save_detections(dets, space, root / "dets.npz")
    (root / "run.cfg").write_text("command=train\niterations=5\nlr=0.01\n# comment\nno_balance=true\n")
    net = NetworkConfig(num_hois=3, feature_dim=2, hidden=2, vo_hidden=2, sp_hidden=2, spatial_dim=4)
    save_params(init_params(net, rng), root / "model.ckpt", meta={"seed": 1})
    write_metrics_log([{"iter": 0, "L_sp": 1.5, "L_vo": 0.25, "L_comp": 0.0},
                       {"iter": 1, "L_sp": 1.25, "L_vo": 0.2, "L_comp": 0.1, "mAP_full": 33.3}],
                      root / "metrics.log")
    return space


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """One valid file per format, and the space the files hold."""
    root = tmp_path_factory.mktemp("formats")
    return root, write_valid_files(root)


LOADERS = {  # file name -> load(path, space); the split and detections files are archives too
    "data.tsv": lambda path, space: load_dataset(path),
    "split.txt": load_split,
    "dets.npz": load_detections,
    "run.cfg": lambda path, space: load_flat_config(path),
    "model.ckpt": lambda path, space: load_params(path),
    "metrics.log": lambda path, space: read_metrics_log(path),
}


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_valid_files_load(files, name):
    root, space = files
    LOADERS[name](root / name, space)


@pytest.mark.parametrize("name", sorted(LOADERS))
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_only_package_errors_escape(files, name, data):
    root, space = files
    path = root / f"mutated-{name}"
    path.write_bytes(mutate(data, (root / name).read_bytes()))
    try:
        LOADERS[name](path, space)
    except HoicompError:
        pass
