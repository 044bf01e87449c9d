import weakref
from dataclasses import fields, replace

import pytest

from hoicomp import experiments
from hoicomp.composer import ComposeConfig
from hoicomp.errors import InvalidConfig
from hoicomp.evaluator import DEFAULT_RARE_THRESHOLD, Scoring
from hoicomp.experiments import (
    default_dataset_config,
    evaluate_params,
    run_rows,
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


@pytest.fixture()
def splits_applied(monkeypatch):
    """One list item per ``experiments.apply_split`` call while the test runs."""
    calls = []
    apply = experiments.apply_split
    monkeypatch.setattr(experiments, "apply_split", lambda *args: calls.append(1) or apply(*args))
    return calls


def test_zero_shot_comparison_applies_a_split_once_a_seed(splits_applied):
    # both rows share the rare threshold, so one report basis serves them
    zero_shot_comparison([0], **SMALL)
    assert len(splits_applied) == 1


def test_run_rows_works_out_a_report_basis_per_rare_threshold(splits_applied, trainings):
    train_set, test_set, space = generate(default_dataset_config(**SMALL["dataset_overrides"]))
    split = make_split(class_counts(train_set, space), space, 12, "rare_first")
    cfg = TrainConfig(**SMALL["train_overrides"])
    rows = [(cfg, Scoring()), (cfg, Scoring(rare_threshold=10)), (cfg, Scoring())]
    results = run_rows(train_set, test_set, space, rows, split=split)
    assert len(splits_applied) == 2 and len(trainings) == 1
    assert results[0].report.ap.tobytes() == results[2].report.ap.tobytes()


def test_run_rows_keeps_no_model_past_its_last_row(monkeypatch):
    # rows A B A C: A is kept for its second row, then dropped, and only
    # the last row's result holds a model
    train_set, test_set, space = generate(default_dataset_config(**SMALL["dataset_overrides"]))
    base = TrainConfig(**SMALL["train_overrides"])
    a, b, c = (replace(base, seed=seed) for seed in (1, 2, 3))
    models, alive_at_training = [], []

    def recorded(*args, **kwargs):
        alive_at_training.append([ref() is not None for ref in models])
        params, log = train(*args, **kwargs)
        models.append(weakref.ref(params))
        return params, log

    monkeypatch.setattr(experiments, "train", recorded)
    results = run_rows(train_set, test_set, space, [(cfg, Scoring()) for cfg in (a, b, a, c)])
    assert alive_at_training == [[], [True], [False, False]]
    assert [r.params is not None for r in results] == [False, False, False, True]
    assert results[-1].params is models[2]()
    assert [ref() is not None for ref in models] == [False, False, True]


# (a valid config, a field, a value it refuses, the error, its message)
BAD_FIELDS = [
    (default_dataset_config(), "class_sep", 0.0, InvalidConfig, "class_sep must be finite and > 0"),
    (default_dataset_config(), "seed", -1, InvalidConfig, "seed must be >= 0"),
    (NetworkConfig(num_hois=3), "vo_hidden", 0, InvalidConfig, "vo_hidden must be >= 1"),
    (LossWeights(), "lambda2", float("nan"), InvalidConfig, "lambda2 must be finite and >= 0"),
    (ComposeConfig(), "interactions_per_minibatch", 0, InvalidConfig,
     "interactions_per_minibatch must be >= 1"),
    (TrainConfig(), "momentum", 1.0, InvalidConfig, r"momentum must lie in \[0, 1\)"),
    (TrainConfig(), "seed", -1, InvalidConfig, "seed must be >= 0"),
    (Scoring(), "human", 1.5, InvalidConfig, r"thresholds must lie in \[0, 1\]"),
    (Scoring(), "fallback", 2.0, InvalidConfig, r"fallback factor must lie in \[0, 1\]"),
    (Scoring(), "branch_mode", "vo-only", InvalidConfig, r"branch_mode must be one of \('both'"),
    (Scoring(), "eval_mode", "known", InvalidConfig, r"mode must be one of \('default'"),
    (Scoring(), "rare_threshold", -1, InvalidConfig, "rare_threshold must be >= 0"),
]


@pytest.mark.parametrize("cfg, name, value, error, message", BAD_FIELDS,
                         ids=[f"{type(c).__name__}.{n}" for c, n, *_ in BAD_FIELDS])
def test_a_config_checks_itself_when_built_and_replaced(cfg, name, value, error, message):
    with pytest.raises(error, match=message):
        type(cfg)(**{f.name: getattr(cfg, f.name) for f in fields(cfg)} | {name: value})
    with pytest.raises(error, match=message):
        replace(cfg, **{name: value})
