from dataclasses import fields, replace

import pytest

from hoicomp.composer import ComposeConfig
from hoicomp.errors import InvalidConfig, OutOfRange
from hoicomp.evaluator import ThresholdConfig
from hoicomp.experiments import (
    DEFAULT_RARE_THRESHOLD,
    Scoring,
    default_dataset_config,
    evaluate_params,
    vcl_comparison,
    zero_shot_comparison,
)
from hoicomp.network import LossWeights, NetworkConfig
from hoicomp.synthdata import class_counts, generate
from hoicomp.trainer import TrainConfig, train
from hoicomp.zeroshot import apply_split, frequency_partition, make_split, zeroshot_partition

# the engine of perfbench's --fingerprint, on a few seconds' worth of data
SMALL = {"dataset_overrides": {"n_train": 600, "n_test": 300}, "train_overrides": {"iterations": 5}}


def test_vcl_comparison_reports_rare_and_nonrare():
    rows = vcl_comparison([0], **SMALL)
    assert [row["seed"] for row in rows] == [0]
    for run in ("baseline", "vcl"):
        assert set(rows[0][run].means) == {"full", "rare", "nonrare"}, run


def test_zero_shot_comparison_reports_unseen_and_seen():
    rows = zero_shot_comparison([0], **SMALL)
    assert [row["seed"] for row in rows] == [0]
    for run in ("baseline", "vcl"):
        assert set(rows[0][run].means) == {"full", "unseen", "seen"}, run


def comparison_oracle(seed, zero_shot):
    """One seed of ``vcl_comparison`` (or, with ``zero_shot``, of
    ``zero_shot_comparison`` at its defaults) on ``SMALL``, written out:
    returns (the split or None, the baseline report, the composed report)."""
    data_cfg = default_dataset_config(seed=seed, **SMALL["dataset_overrides"])
    train_set, test_set, space = generate(data_cfg)
    base = TrainConfig(seed=seed, **SMALL["train_overrides"])
    off = replace(base, compose=replace(base.compose, mode="off"))
    on = replace(base, compose=replace(base.compose, mode="both"))
    split = None
    if zero_shot:
        n_unseen = round(0.2 * space.num_hois)
        split = make_split(class_counts(train_set, space), space, n_unseen, "rare_first",
                           tie_break_seed=seed)
        on = replace(on, compose=replace(on.compose, unseen_allowed=True, unseen_ids=split.unseen))
        train_set = apply_split(train_set, split)
        partition = zeroshot_partition(split)
    counts = class_counts(train_set, space)
    if not zero_shot:
        partition = frequency_partition(counts, rare_threshold=DEFAULT_RARE_THRESHOLD)
    reports = [evaluate_params(train(train_set, space, cfg)[0], test_set, space, counts, partition)
               for cfg in (off, on)]
    return split, *reports


@pytest.mark.parametrize("zero_shot", [False, True], ids=["vcl", "zero_shot"])
def test_comparison_equals_its_written_out_runs(zero_shot):
    compare = zero_shot_comparison if zero_shot else vcl_comparison
    rows = compare([0, 1], **SMALL)
    assert [row["seed"] for row in rows] == [0, 1]
    for row in rows:
        split, baseline, composed = comparison_oracle(row["seed"], zero_shot)
        assert row.get("split") == split
        for got, want in ((row["baseline"], baseline), (row["vcl"], composed)):
            assert got.ap.tobytes() == want.ap.tobytes()
            assert got.means.keys() == want.means.keys()


def test_comparison_trains_two_models_a_seed(trainings):
    vcl_comparison([0], **SMALL)
    assert len(trainings) == 2


# (a valid config, a field, a value it refuses, the error, its message)
BAD_FIELDS = [
    (default_dataset_config(), "class_sep", 0.0, InvalidConfig, "class_sep must be finite and > 0"),
    (default_dataset_config(), "seed", -1, InvalidConfig, "seed must be >= 0"),
    (NetworkConfig(num_hois=3), "vo_hidden", 0, InvalidConfig, "vo_hidden must be >= 1"),
    (LossWeights(), "lambda2", float("nan"), OutOfRange, "lambda2 must be finite and >= 0"),
    (ComposeConfig(), "interactions_per_minibatch", 0, InvalidConfig,
     "interactions_per_minibatch must be >= 1"),
    (TrainConfig(), "momentum", 1.0, InvalidConfig, r"momentum must lie in \[0, 1\)"),
    (TrainConfig(), "seed", -1, InvalidConfig, "seed must be >= 0"),
    (ThresholdConfig(), "fallback", 2.0, InvalidConfig, r"fallback factor must lie in \[0, 1\]"),
    (Scoring(), "rare_threshold", -1, InvalidConfig, "rare_threshold must be >= 0"),
]


@pytest.mark.parametrize("cfg, name, value, error, message", BAD_FIELDS,
                         ids=[f"{type(c).__name__}.{n}" for c, n, *_ in BAD_FIELDS])
def test_a_config_checks_itself_when_built_and_replaced(cfg, name, value, error, message):
    with pytest.raises(error, match=message):
        type(cfg)(**{f.name: getattr(cfg, f.name) for f in fields(cfg)} | {name: value})
    with pytest.raises(error, match=message):
        replace(cfg, **{name: value})
