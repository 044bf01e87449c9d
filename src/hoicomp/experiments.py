"""Canned experiment flows: default desk-scale config, ablations, sweeps.

The default synthetic benchmark uses 12 verbs, 10 objects, and 60
interaction classes with Zipf-1.5 frequencies over 20k training instances.
At that scale the tail classes see a few dozen instances each, so the
rare/non-rare reporting cut sits at 25 training instances (about the bottom
third of classes) rather than the threshold of 10 that suits full-scale
datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import rng as rngmod
from .evaluator import (
    EvalReport,
    ThresholdConfig,
    detections_from_model,
    evaluate,
    ground_truths_from_instances,
)
from .label_algebra import HoiLabelSpace
from .network import ModelParams, NetworkConfig
from .synthdata import Dataset, DatasetConfig, class_counts, generate, random_hoi_defs
from .trainer import TrainConfig, train
from .zeroshot import (
    ZeroShotSplit,
    apply_split,
    frequency_partition,
    make_split,
    zeroshot_partition,
)

DEFAULT_RARE_THRESHOLD = 25


# the desk-scale label space; every other dataset default is DatasetConfig's
DEFAULT_SPACE_SIZE = {"num_verbs": 12, "num_objects": 10, "num_hois": 60}


def default_dataset_config(seed: int = 0, **overrides) -> DatasetConfig:
    """Desk-scale long-tail benchmark config; the label space is drawn
    deterministically from the same seed."""
    num_verbs, num_objects, num_hois = (
        overrides.pop(key, value) for key, value in DEFAULT_SPACE_SIZE.items()
    )
    defs = overrides.pop("hoi_defs", None)
    if defs is None:
        defs = random_hoi_defs(
            num_verbs, num_objects, num_hois, rngmod.stream(seed, "space-defs")
        )
    return DatasetConfig(
        num_verbs=num_verbs,
        num_objects=num_objects,
        hoi_defs=defs,
        seed=seed,
        **overrides,
    )


def default_train_config(seed: int = 0, **overrides) -> TrainConfig:
    return TrainConfig(
        iterations=overrides.pop("iterations", 3000),
        interactions_per_minibatch=overrides.pop("interactions_per_minibatch", 8),
        seed=seed,
        **overrides,
    )


def default_thresholds() -> ThresholdConfig:
    # synthetic detector scores are uniform noise, so no confidence cut
    return ThresholdConfig(human=0.0, object=0.0, fallback=0.5)


@dataclass
class RunResult:
    """Everything one training run produces."""

    params: ModelParams
    log: list[dict]
    report: EvalReport
    counts: object
    space: HoiLabelSpace
    split: ZeroShotSplit | None = None


def evaluate_params(
    params: ModelParams,
    test_set: Dataset,
    space: HoiLabelSpace,
    counts,
    thresholds: ThresholdConfig | None = None,
    partition: dict | None = None,
    branch_mode: str = "both",
    eval_mode: str = "default",
    rare_threshold: int = DEFAULT_RARE_THRESHOLD,
) -> EvalReport:
    """Score the test split with one model and aggregate AP per partition."""
    if partition is None:
        partition = frequency_partition(counts, rare_threshold=rare_threshold)
    dets = detections_from_model(
        test_set, params, thresholds or default_thresholds(), branch_mode=branch_mode
    )
    gts = ground_truths_from_instances(test_set)
    return evaluate(dets, gts, space, mode=eval_mode, partition=partition)


def run_training(
    train_set: Dataset,
    test_set: Dataset,
    space: HoiLabelSpace,
    train_cfg: TrainConfig,
    net_cfg: NetworkConfig | None = None,
    thresholds: ThresholdConfig | None = None,
    partition: dict | None = None,
    branch_mode: str = "both",
    eval_mode: str = "default",
    rare_threshold: int = DEFAULT_RARE_THRESHOLD,
    split: ZeroShotSplit | None = None,
) -> RunResult:
    """Train once and evaluate with the fused score on the test split.

    When ``split`` is given, unseen bits are stripped from the training set
    first and the report is partitioned into unseen/seen instead of
    rare/nonrare.
    """
    effective_train = train_set
    if split is not None:
        effective_train = apply_split(train_set, split)
        partition = partition or zeroshot_partition(split)
    counts = class_counts(effective_train, space)
    if partition is None:
        partition = frequency_partition(counts, rare_threshold=rare_threshold)

    eval_fn = None
    if train_cfg.eval_every > 0 and test_set:
        def eval_fn(params):
            report = evaluate_params(
                params, test_set, space, counts,
                thresholds=thresholds, partition=partition,
                branch_mode=branch_mode, eval_mode=eval_mode,
            )
            out = {"mAP_full": 100.0 * report.map_full}
            for name in partition:
                out[f"mAP_{name}"] = 100.0 * report.means[name]
            return out

    params, log = train(effective_train, space, train_cfg, net_cfg=net_cfg, eval_fn=eval_fn)
    report = evaluate_params(
        params, test_set, space, counts,
        thresholds=thresholds, partition=partition,
        branch_mode=branch_mode, eval_mode=eval_mode,
    )
    return RunResult(
        params=params, log=log, report=report, counts=counts, space=space, split=split
    )


def with_compose_mode(cfg: TrainConfig, mode: str) -> TrainConfig:
    return replace(cfg, compose=replace(cfg.compose, mode=mode))


def vcl_comparison(
    seeds,
    dataset_overrides: dict | None = None,
    train_overrides: dict | None = None,
    net_cfg: NetworkConfig | None = None,
) -> list[dict]:
    """Composition on (mode both) versus off on the default benchmark.

    Returns one row per seed with both reports; the interesting quantities
    are the rare-class and full mAP deltas.
    """
    rows = []
    for seed in seeds:
        data_cfg = default_dataset_config(seed=seed, **(dataset_overrides or {}))
        train_set, test_set, space = generate(data_cfg)
        base_cfg = default_train_config(seed=seed, **(train_overrides or {}))
        baseline = run_training(
            train_set, test_set, space, with_compose_mode(base_cfg, "off"), net_cfg=net_cfg
        )
        composed = run_training(
            train_set, test_set, space, with_compose_mode(base_cfg, "both"), net_cfg=net_cfg
        )
        rows.append({"seed": seed, "baseline": baseline.report, "vcl": composed.report})
    return rows


def zero_shot_comparison(
    seeds,
    unseen_fraction: float = 0.2,
    strategy: str = "rare_first",
    dataset_overrides: dict | None = None,
    train_overrides: dict | None = None,
    net_cfg: NetworkConfig | None = None,
) -> list[dict]:
    """Zero-shot runs: unseen classes removed from training labels, with
    composition allowed to relabel into them (mode both) versus no
    composition at all."""
    rows = []
    for seed in seeds:
        data_cfg = default_dataset_config(seed=seed, **(dataset_overrides or {}))
        train_set, test_set, space = generate(data_cfg)
        counts = class_counts(train_set, space)
        n_unseen = max(1, int(round(unseen_fraction * space.num_hois)))
        split = make_split(counts, space, n_unseen, strategy, tie_break_seed=seed)

        base_cfg = default_train_config(seed=seed, **(train_overrides or {}))
        baseline_cfg = with_compose_mode(base_cfg, "off")
        composed_cfg = replace(
            base_cfg,
            compose=replace(
                base_cfg.compose, mode="both", unseen_allowed=True, unseen_ids=split.unseen
            ),
        )
        baseline = run_training(
            train_set, test_set, space, baseline_cfg, net_cfg=net_cfg, split=split
        )
        composed = run_training(
            train_set, test_set, space, composed_cfg, net_cfg=net_cfg, split=split
        )
        rows.append(
            {"seed": seed, "split": split, "baseline": baseline.report, "vcl": composed.report}
        )
    return rows


def branch_ablation(
    result: RunResult,
    test_set: Dataset,
    thresholds: ThresholdConfig | None = None,
    partition: dict | None = None,
) -> dict[str, EvalReport]:
    """Re-score one trained model with each branch silenced in turn."""
    reports = {}
    for mode in ("both", "vo_only", "sp_only"):
        reports[mode] = evaluate_params(
            result.params, test_set, result.space, result.counts,
            thresholds=thresholds, partition=partition, branch_mode=mode,
        )
    return reports


def lambda_sweep(
    train_set,
    test_set,
    space,
    base_cfg: TrainConfig,
    param: str,
    values,
    net_cfg: NetworkConfig | None = None,
    thresholds: ThresholdConfig | None = None,
    rare_threshold: int = DEFAULT_RARE_THRESHOLD,
) -> list[dict]:
    """Train once per loss-weight value; returns (value, report) rows."""
    if param not in ("lambda1", "lambda2"):
        raise ValueError("param must be lambda1 or lambda2")
    rows = []
    for value in values:
        cfg = replace(base_cfg, loss_weights=replace(base_cfg.loss_weights, **{param: value}))
        result = run_training(
            train_set, test_set, space, cfg, net_cfg=net_cfg,
            thresholds=thresholds, rare_threshold=rare_threshold,
        )
        rows.append({"value": value, "report": result.report})
    return rows
