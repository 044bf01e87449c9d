import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from hoicomp import experiments
from hoicomp.label_algebra import build_space
from hoicomp.synthdata import Dataset, random_hoi_defs, unpack_labels

# toy space used across modules:
#   class 0 = ride-horse, class 1 = feed-horse, class 2 = ride-bicycle
TOY_DEFS = (((0,), 0), ((1,), 0), ((0,), 1))
TOY_VERBS = ("ride", "feed")
TOY_OBJECTS = ("horse", "bicycle")


@pytest.fixture
def toy_space():
    return build_space(TOY_DEFS, verb_names=TOY_VERBS, object_names=TOY_OBJECTS)


@pytest.fixture()
def trainings(monkeypatch):
    """The models ``experiments.run_rows`` trains, one list item per
    training, counted while the test runs."""
    calls = []
    train = experiments.train

    def counted(*args, **kwargs):
        calls.append(1)
        return train(*args, **kwargs)

    monkeypatch.setattr(experiments, "train", counted)
    return calls


def peak_above_live(run, warm_up=None) -> int:
    """Bytes of the ``tracemalloc`` peak while ``run()`` runs, above the
    memory live just before it. ``warm_up()``, when given, runs first under
    the same trace, so what it leaves behind counts as live."""
    tracemalloc.start()
    try:
        if warm_up is not None:
            warm_up()
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()


def draw_space(rng, max_verbs=10, max_objects=8, max_hois=40):
    """Random valid label space within the given bounds; returns (space, defs)."""
    while True:
        nv = int(rng.integers(1, max_verbs + 1))
        no = int(rng.integers(1, max_objects + 1))
        lo = max(nv, no)
        hi = min(max_hois, nv * no)
        if lo <= hi:
            break
    nh = int(rng.integers(lo, hi + 1))
    defs = random_hoi_defs(nv, no, nh, rng)
    return build_space(defs), defs


def make_row(
    space,
    hoi_ids,
    image_id=0,
    rng=None,
    dim=4,
    human_box=(10, 10, 110, 210),
    object_box=(120, 40, 260, 180),
    human_score=0.9,
    object_score=0.8,
):
    """One-row dataset with the given active classes and random features."""
    rng = rng or np.random.default_rng(0)
    label = np.zeros((1, space.num_hois), dtype=np.uint8)
    label[0, list(hoi_ids)] = 1
    label = packed(label)
    human_feat, verb_feat, object_feat = (rng.standard_normal((1, dim)) for _ in range(3))
    return Dataset(
        image_id=np.array([image_id], dtype=np.int64),
        human_box=np.array([human_box], dtype=np.float64),
        object_box=np.array([object_box], dtype=np.float64),
        human_score=np.array([human_score], dtype=np.float64),
        object_score=np.array([object_score], dtype=np.float64),
        human_feat=human_feat,
        verb_feat=verb_feat,
        object_feat=object_feat,
        label=label,
        object_id=np.array([space.objects_by_hoi()[hoi_ids[0]]], dtype=np.int64),
    )


def packed(dense):
    """Hand-built 0/1 label rows, (N, C), as the (N, ceil(C / 8)) bytes a
    ``Dataset`` holds: ``np.packbits`` order, any nonzero value a set bit.
    Tests build labels densely and pack them here, never bit by bit."""
    return np.packbits(np.asarray(dense, dtype=bool), axis=-1)


def dense(data, space):
    """The (N, C) 0/1 label rows of ``data``, unpacked for ``space``."""
    return unpack_labels(data.label, space.num_hois)


def make_dataset(rows):
    """The one-row datasets of ``rows`` stacked in order."""
    return Dataset(**{f.name: np.concatenate([getattr(r, f.name) for r in rows]) for f in fields(Dataset)})


def assert_datasets_equal(a, b):
    """Every column equal in dtype, shape and value."""
    for f in fields(Dataset):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert x.dtype == y.dtype, f.name
        np.testing.assert_array_equal(x, y, err_msg=f.name)
