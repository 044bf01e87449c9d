"""Canned experiment flows: the default desk-scale config and the training
runs the CLI and the fingerprint build on. ``run_rows`` is the one place
where runs are trained and scored: a run is a row of a ``TrainConfig`` and
an ``evaluator.Scoring``, and the comparisons below and the CLI's
``train``, ``sweep`` and ``ablate`` are lists of rows. Both configs are
checked when built, so a bad row fails before any row trains.

The default synthetic benchmark uses 12 verbs, 10 objects, and 60
interaction classes with Zipf-1.5 frequencies over 20k training instances;
``evaluator.DEFAULT_RARE_THRESHOLD`` sets its rare/non-rare cut. The desk
training defaults are ``TrainConfig``'s own (3000 iterations of 8
interactions each); nothing here restates them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import rng as rngmod
from .evaluator import (
    EvalReport,
    Scoring,
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


@dataclass
class RunResult:
    """What one row of ``run_rows`` produces: the trained model for the
    last row only, None for every other."""

    params: ModelParams | None
    log: list[dict]
    report: EvalReport
    counts: object


def report_basis(
    train_set: Dataset | None,
    space: HoiLabelSpace,
    split: ZeroShotSplit | None,
    rare_threshold: int,
):
    """The training set as trained on, its class counts and the report
    partition; ``(None, None, None)`` without a training set or split.

    With a split, unseen bits are stripped from the training set before it is
    counted and the report is partitioned into unseen/seen; without one, into
    rare/nonrare at ``rare_threshold`` training instances. The split's
    training set is ``zeroshot.apply_split``'s: a new label, every other
    column shared with ``train_set``, and rows left with no label kept, which
    count for no class and which training never draws.
    """
    if train_set is not None and split is not None:
        train_set = apply_split(train_set, split)
    counts = None if train_set is None else class_counts(train_set, space)
    if split is not None:
        partition = zeroshot_partition(split)
    elif counts is not None:
        partition = frequency_partition(counts, rare_threshold=rare_threshold)
    else:
        partition = None
    return train_set, counts, partition


def evaluate_params(
    params: ModelParams,
    test_set: Dataset,
    space: HoiLabelSpace,
    counts,
    partition: dict | None = None,
    scoring: Scoring = Scoring(),
) -> EvalReport:
    """Score the test split with one model and aggregate AP per partition.

    ``partition=None`` means rare/nonrare over ``counts`` at
    ``scoring.rare_threshold``; ``run_rows`` always passes
    ``report_basis``'s partition.
    """
    if partition is None:
        partition = frequency_partition(counts, rare_threshold=scoring.rare_threshold)
    dets = detections_from_model(test_set, params, scoring)
    gts = ground_truths_from_instances(test_set)
    return evaluate(dets, gts, space, mode=scoring.eval_mode, partition=partition)


def run_rows(
    train_set: Dataset,
    test_set: Dataset,
    space: HoiLabelSpace,
    rows: list[tuple[TrainConfig, Scoring]],
    net_cfg: NetworkConfig | None = None,
    split: ZeroShotSplit | None = None,
) -> list[RunResult]:
    """Train and score each ``(TrainConfig, Scoring)`` row, in order.

    A row trains on ``report_basis``'s training set and scores the test split
    with its ``Scoring`` over its partition; with ``eval_every`` > 0 the log
    also takes those mAPs every ``eval_every`` iterations. Each distinct
    ``TrainConfig`` is trained once: a row that repeats an earlier row's
    re-scores that row's model, and shares its log. ``report_basis`` runs
    once per distinct ``rare_threshold``.

    A model is dropped after the last row that uses it, and only the last
    row's result keeps its model, so no model outlives the rows that score
    it.
    """
    last_use = {train_cfg: k for k, (train_cfg, _) in enumerate(rows)}
    results, trained, bases = [], {}, {}
    for k, (train_cfg, scoring) in enumerate(rows):
        threshold = scoring.rare_threshold
        if threshold not in bases:
            bases[threshold] = report_basis(train_set, space, split, threshold)
        trained_on, counts, partition = bases[threshold]

        def score(params):
            return evaluate_params(params, test_set, space, counts, partition, scoring)

        if train_cfg not in trained:
            eval_fn = None
            if train_cfg.eval_every > 0 and test_set:
                def eval_fn(params):
                    report = score(params)
                    out = {"mAP_full": 100.0 * report.map_full}
                    for name in partition:
                        out[f"mAP_{name}"] = 100.0 * report.means[name]
                    return out

            trained[train_cfg] = train(trained_on, space, train_cfg, net_cfg=net_cfg,
                                       eval_fn=eval_fn)
        params, log = trained[train_cfg] if k < last_use[train_cfg] else trained.pop(train_cfg)
        results.append(RunResult(params if k == len(rows) - 1 else None, log, score(params), counts))
        del params  # so it is freed before the next row trains
    return results


def with_compose(cfg: TrainConfig, **changes) -> TrainConfig:
    """``cfg`` with ``changes`` made to its ``ComposeConfig``."""
    return replace(cfg, compose=replace(cfg.compose, **changes))


def _comparison(seeds, dataset_overrides, train_overrides, net_cfg, split_of=None) -> list[dict]:
    """One row per seed: the default benchmark generated at that seed, then
    composition off (the baseline) against on (``vcl``), both scored with
    the default ``Scoring``. ``split_of(train_set, space, seed)``, when
    given, makes the seed's unseen-class split, which both runs train
    against and the composed run may label into."""
    rows = []
    for seed in seeds:
        data_cfg = default_dataset_config(seed=seed, **(dataset_overrides or {}))
        train_set, test_set, space = generate(data_cfg)
        split = None if split_of is None else split_of(train_set, space, seed)
        base_cfg = TrainConfig(seed=seed, **(train_overrides or {}))
        composed_cfg = with_compose(base_cfg, mode="both")
        if split is not None:
            composed_cfg = with_compose(composed_cfg, unseen_allowed=True, unseen_ids=split.unseen)
        baseline, composed = run_rows(
            train_set, test_set, space,
            [(with_compose(base_cfg, mode="off"), Scoring()), (composed_cfg, Scoring())],
            net_cfg=net_cfg, split=split,
        )
        row = {"seed": seed} | ({} if split is None else {"split": split})
        rows.append(row | {"baseline": baseline.report, "vcl": composed.report})
    return rows


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
    return _comparison(seeds, dataset_overrides, train_overrides, net_cfg)


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
    composition at all. Each row also holds the seed's split."""

    def split_of(train_set, space, seed):
        n_unseen = max(1, int(round(unseen_fraction * space.num_hois)))
        counts = class_counts(train_set, space)
        return make_split(counts, space, n_unseen, strategy, tie_break_seed=seed)

    return _comparison(seeds, dataset_overrides, train_overrides, net_cfg, split_of)
