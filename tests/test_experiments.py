from dataclasses import fields, replace

import pytest

from hoicomp.composer import ComposeConfig
from hoicomp.errors import InvalidConfig, OutOfRange
from hoicomp.evaluator import ThresholdConfig
from hoicomp.experiments import Scoring, default_dataset_config, vcl_comparison, zero_shot_comparison
from hoicomp.network import LossWeights, NetworkConfig
from hoicomp.trainer import TrainConfig

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
