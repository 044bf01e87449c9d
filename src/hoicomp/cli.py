"""Command-line entry point.

Subcommands: gen-data, make-splits, train, eval, compose-demo, sweep,
ablate. Every flag can also be supplied through ``--config FILE`` holding
flat ``key=value`` lines (keys are the flag names with underscores);
explicit flags win over the file, the file wins over built-in defaults.
Each run echoes its fully resolved settings to a spec file, and feeding
that file back through ``--config`` replays the run byte-for-byte. A spec
holds every flag of its subcommand except ``--out``, ``--test-out``,
``--dets-out`` and ``--show-spatial`` (``OUTPUT_FLAGS``), which say where
output goes or what to print; so a replay names its own ``--out``, as in
``hoicomp --config run/spec.txt train --out rerun``. File values get the
checks that flags get: a value outside a flag's choices, or a boolean
other than 1/true/yes/on or 0/false/no/off, is an error. A setting is
checked when its config is built, so a config that exists is valid; seeds
and display counts must be >= 0. Every file read beside ``--data``
(``--test``, ``--train-data``, ``--split``, ``--detections``) holds a label
space, which must be that of ``--data``. A command builds
its configs, reads every input file and trains and scores every model
before it makes ``--out`` or writes anything, so a run that fails, on its
settings, its inputs or in training, leaves no output behind.

The eval flags build one ``evaluator.Scoring`` per invocation, which checks
every one of them, and every command that scores a model scores it with
that value over ``experiments.report_basis``'s partition. So each row of
``sweep.tsv`` or ``ablate.tsv`` is what the ``train`` run it stands for
reports with the same flags.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import rng as rngmod
from .composer import MODES, ComposeConfig, compose_batch
from .errors import HoicompError, InvalidConfig, ParseError, read_text_lines
from .evaluator import (
    EVAL_MODES,
    Scoring,
    detections_from_model,
    evaluate,
    format_report,
    format_report_table,
    ground_truths_from_instances,
    load_detections,
    save_detections,
)
from .experiments import (
    DEFAULT_SPACE_SIZE,
    RunResult,
    default_dataset_config,
    report_basis,
    run_rows,
    with_compose,
)
from .label_algebra import HoiLabelSpace
from .network import BRANCH_MODES, LossWeights, NetworkConfig, load_params, save_params
from .spatial import ascii_art, spatial_vector
from .synthdata import (
    Dataset,
    DatasetConfig,
    class_counts,
    generate,
    load_dataset,
    save_dataset,
    unpack_labels,
)
from .trainer import TrainConfig, make_minibatch, write_metrics_log
from .zeroshot import STRATEGIES, load_split, make_split, save_split


# the label-space size, then every other DatasetConfig field but the two
# gen-data derives: hoi_defs from that size and seed from --seed
_DATASET_FLAGS = tuple(DEFAULT_SPACE_SIZE) + tuple(
    f.name for f in fields(DatasetConfig)
    if f.name not in DEFAULT_SPACE_SIZE and f.name not in ("hoi_defs", "seed")
)


def _add_dataset_flags(p: argparse.ArgumentParser):
    defaults = {f.name: f.default for f in fields(DatasetConfig)} | DEFAULT_SPACE_SIZE
    for key in _DATASET_FLAGS:
        p.add_argument("--" + key.replace("_", "-"), type=type(defaults[key]), default=defaults[key])


def _add_train_flags(p: argparse.ArgumentParser):
    cfg = TrainConfig()
    net = {f.name: f.default for f in fields(NetworkConfig)}
    p.add_argument("--iterations", type=int, default=cfg.iterations)
    p.add_argument("--lr", type=float, default=cfg.lr)
    p.add_argument("--momentum", type=float, default=cfg.momentum)
    p.add_argument("--weight-decay", type=float, default=cfg.weight_decay)
    p.add_argument("--interactions", type=int, default=cfg.interactions_per_minibatch,
                   help="interactions per minibatch")
    p.add_argument("--lambda1", type=float, default=cfg.loss_weights.lambda1)
    p.add_argument("--lambda2", type=float, default=cfg.loss_weights.lambda2)
    p.add_argument("--compose", choices=MODES, default=cfg.compose.mode)
    p.add_argument("--no-balance", action="store_true",
                   help="keep every feasible composition instead of matching the real count")
    p.add_argument("--unseen-allowed", action="store_true",
                   help="let composed labels carry unseen-class bits (zero-shot training)")
    p.add_argument("--hidden", type=int, default=net["hidden"])
    p.add_argument("--vo-hidden", type=int, default=net["vo_hidden"])
    p.add_argument("--sp-hidden", type=int, default=net["sp_hidden"])


def _add_eval_flags(p: argparse.ArgumentParser):
    scoring = Scoring()
    p.add_argument("--thr-human", type=float, default=scoring.human)
    p.add_argument("--thr-object", type=float, default=scoring.object)
    p.add_argument("--thr-fallback", type=float, default=scoring.fallback)
    p.add_argument("--branch", choices=BRANCH_MODES, default=scoring.branch_mode)
    p.add_argument("--eval-mode", choices=EVAL_MODES, default=scoring.eval_mode)
    p.add_argument("--rare-threshold", type=int, default=scoring.rare_threshold)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hoicomp",
        description="Compositional interaction learning on synthetic long-tail data",
    )
    parser.add_argument(
        "--config",
        help="flat key=value file overriding flag defaults; a run's spec file replays "
             "the run, which then needs its own --out (a spec records no --out, "
             "--test-out, --dets-out or --show-spatial)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a seeded synthetic dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="train dataset file")
    p.add_argument("--test-out", default=None, help="test dataset file (default: <out>.test)")
    _add_dataset_flags(p)
    p.add_argument("--show-spatial", type=int, default=0,
                   help="print the spatial maps of the first N train instances")

    p = sub.add_parser("make-splits", help="build an unseen-class split from a dataset")
    p.add_argument("--data")
    p.add_argument("--n-unseen", type=int)
    p.add_argument("--strategy", choices=STRATEGIES, default="rare_first")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("train", help="train a model and report test mAP")
    p.add_argument("--data")
    p.add_argument("--test", default=None)
    p.add_argument("--split", default=None, help="unseen-class split file to train against")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output directory")
    _add_train_flags(p)
    # train alone writes metrics.log, the one place periodic scoring shows
    p.add_argument("--eval-every", type=int, default=TrainConfig().eval_every,
                   help="add the test mAPs to metrics.log every N iterations (0: never)")
    _add_eval_flags(p)

    p = sub.add_parser("eval", help="evaluate a checkpoint or a detections file")
    p.add_argument("--data", help="test dataset file")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--detections", default=None,
                   help="score a detections file instead, as --dets-out writes it")
    p.add_argument("--train-data", default=None, help="train dataset for the rare/nonrare cut")
    p.add_argument("--split", default=None, help="report unseen/seen instead of rare/nonrare")
    p.add_argument("--out", help="output directory")
    p.add_argument("--dets-out", action="store_true",
                   help="also write the scored pairs to detections.npz")
    _add_eval_flags(p)

    p = sub.add_parser("compose-demo", help="print surviving compositions for one batch")
    p.add_argument("--data")
    p.add_argument("--mode", choices=MODES, default="both")
    p.add_argument("--batch-size", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--limit", type=int, default=20)
    p.add_argument("--show-spatial", type=int, default=0)

    p = sub.add_parser("sweep", help="train once per loss-weight value")
    p.add_argument("--data")
    p.add_argument("--test")
    p.add_argument("--param", choices=["lambda1", "lambda2"])
    p.add_argument("--values", help="comma-separated values")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    _add_train_flags(p)
    _add_eval_flags(p)

    p = sub.add_parser("ablate", help="composition-mode and branch-mode matrix")
    p.add_argument("--data")
    p.add_argument("--test")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    _add_train_flags(p)
    _add_eval_flags(p)

    return parser


def _require(args, *names):
    for name in names:
        if getattr(args, name) is None:
            raise HoicompError(f"missing required flag --{name.replace(chr(95), chr(45))}")


def load_flat_config(path) -> dict[str, str]:
    values = {}
    for lineno, raw in enumerate(read_text_lines(path), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"bad config line (expected key=value): {line!r}", line=lineno)
        key, val = line.split("=", 1)
        values[key.strip()] = val.strip()
    return values


# the spellings a config file may give a store_true flag, in any case
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _apply_config(parser: argparse.ArgumentParser, overrides: dict[str, str]) -> set[str]:
    """Convert file values with each flag's own type, check them against its
    choices and install them as defaults; returns the keys the parser and
    its subparsers know."""
    known = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sp in action.choices.values():
                known |= _apply_config(sp, overrides)
            continue
        if action.dest in ("help", "command"):
            continue
        known.add(action.dest)
        if action.dest not in overrides:
            continue
        raw = overrides[action.dest]
        if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
            value = _BOOLEANS.get(raw.lower())
        else:
            try:
                value = raw if action.type is None else action.type(raw)
            except ValueError:
                value = None
        if value is None or (action.choices is not None and value not in action.choices):
            raise HoicompError(f"bad config value {action.dest}={raw!r}")
        parser.set_defaults(**{action.dest: value})
    return known


# flags that say where output goes or what to print; a spec leaves them
# out, so every replay names its own --out
OUTPUT_FLAGS = {"out", "test_out", "dets_out", "show_spatial"}


def _write_spec(args: argparse.Namespace, path) -> None:
    """Write ``command=...`` and then, sorted, every other flag of ``args``
    except ``--config`` and ``OUTPUT_FLAGS``; flags left unset are skipped."""
    lines = [f"command={args.command}"]
    for key, val in sorted(vars(args).items()):
        if val is None or key in OUTPUT_FLAGS or key in ("command", "config"):
            continue
        if isinstance(val, bool):
            val = "true" if val else "false"
        lines.append(f"{key}={val}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _train_config(args) -> TrainConfig:
    compose_cfg = ComposeConfig(
        mode=args.compose,
        balance=not args.no_balance,
        unseen_allowed=args.unseen_allowed,
    )
    return TrainConfig(
        lr=args.lr,
        momentum=args.momentum,
        weight_decay=args.weight_decay,
        iterations=args.iterations,
        interactions_per_minibatch=args.interactions,
        compose=compose_cfg,
        loss_weights=LossWeights(lambda1=args.lambda1, lambda2=args.lambda2),
        seed=args.seed,
    )


def _net_config(args, space, feature_dim) -> NetworkConfig:
    return NetworkConfig(
        num_hois=space.num_hois,
        feature_dim=feature_dim,
        hidden=args.hidden,
        vo_hidden=args.vo_hidden,
        sp_hidden=args.sp_hidden,
    )


def _scoring(args) -> Scoring:
    return Scoring(
        human=args.thr_human,
        object=args.thr_object,
        fallback=args.thr_fallback,
        branch_mode=args.branch,
        eval_mode=args.eval_mode,
        rare_threshold=args.rare_threshold,
    )


def _report_files(report, space, counts, out_dir: Path, stem: str = "report"):
    (out_dir / f"{stem}.txt").write_text(format_report(report), encoding="utf-8")
    (out_dir / f"{stem}.tsv").write_text(
        format_report_table(report, space, counts), encoding="utf-8"
    )


def _write_rows(path: Path, first: str, rows) -> None:
    """One ``first<TAB>map_full<TAB>map_rare<TAB>map_nonrare`` line per
    (name, ``RunResult``) row, to ``path`` and to stdout."""
    lines = [f"{first}\tmap_full\tmap_rare\tmap_nonrare"]
    for name, result in rows:
        r = result.report
        means = (r.map_full, r.map_rare, r.map_nonrare)
        lines.append("\t".join([str(name)] + [repr(100.0 * m) for m in means]))
    text = "\n".join(lines) + "\n"
    path.write_text(text, encoding="utf-8")
    print(text, end="")


def _run_rows(args, rows) -> tuple[list[RunResult], HoiLabelSpace, Dataset]:
    """Read ``--data``, ``--test`` and ``--split`` (where the command has
    it), then train and score ``rows`` of ``(TrainConfig, Scoring)``, built
    and so checked beforehand, with ``run_rows``; a split's unseen classes
    are added to every row's composition settings. Returns the results, the
    label space and the test set."""
    train_set, space = load_dataset(args.data)
    test_set = load_dataset(args.test, space=space)[0] if args.test else train_set[:0]
    split = load_split(args.split, space) if getattr(args, "split", None) else None
    if split is not None:
        rows = [(with_compose(cfg, unseen_ids=split.unseen), scoring) for cfg, scoring in rows]
    net_cfg = _net_config(args, space, train_set.human_feat.shape[1])
    return run_rows(train_set, test_set, space, rows, net_cfg=net_cfg, split=split), space, test_set


def _out_dir(args) -> Path:
    """Make ``--out`` and write the run's spec there; a command calls this
    only once every model it trains or scores is done, so a run that fails
    leaves nothing at ``--out``."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_spec(args, out_dir / "spec.txt")
    return out_dir


def _spatial_art(data, k: int) -> str:
    return ascii_art(spatial_vector(data.human_box[k : k + 1], data.object_box[k : k + 1])[0])


def _spec_path(out) -> Path:
    """Where ``gen-data`` and ``make-splits`` write the spec of ``--out``."""
    return Path(f"{out}.spec")


def _distinct_files(paths: dict[str, Path]) -> None:
    """Raise ``InvalidConfig`` when two of ``paths``, keyed by the flag that
    names each, resolve to one file, so a command never writes over a file
    it reads or has just written."""
    named = {}
    for flag, path in paths.items():
        first = named.setdefault(Path(path).resolve(), flag)
        if first != flag:
            raise InvalidConfig(f"{first} and {flag} name the same file {path}")


def _cmd_gen_data(args) -> int:
    _require(args, "out")
    if args.show_spatial < 0:
        raise InvalidConfig("show_spatial must be >= 0")
    cfg = default_dataset_config(**{key: getattr(args, key) for key in ("seed",) + _DATASET_FLAGS})
    out = Path(args.out)
    test_out = Path(args.test_out) if args.test_out else out.with_suffix(out.suffix + ".test")
    _distinct_files({"--out": out, "--test-out": test_out, "--out's spec": _spec_path(out)})
    train_set, test_set, space = generate(cfg)
    save_dataset(train_set, space, out)
    save_dataset(test_set, space, test_out)
    _write_spec(args, _spec_path(out))
    print(f"wrote {len(train_set)} train instances to {out}")
    print(f"wrote {len(test_set)} test instances to {test_out}")
    for k in range(len(train_set))[: args.show_spatial]:
        print(f"image {train_set.image_id[k]} object {space.object_names[train_set.object_id[k]]}")
        print(_spatial_art(train_set, k))
    return 0


def _cmd_make_splits(args) -> int:
    _require(args, "data", "n_unseen", "out")
    _distinct_files({"--data": args.data, "--out": args.out, "--out's spec": _spec_path(args.out)})
    data, space = load_dataset(args.data)
    counts = class_counts(data, space)
    split = make_split(counts, space, args.n_unseen, args.strategy, tie_break_seed=args.seed)
    save_split(split, args.out)
    _write_spec(args, _spec_path(args.out))
    print(f"unseen classes ({len(split.unseen)}): {sorted(split.unseen)}")
    return 0


def _cmd_train(args) -> int:
    _require(args, "data", "out")
    cfg = replace(_train_config(args), eval_every=args.eval_every)
    [result], space, test_set = _run_rows(args, [(cfg, _scoring(args))])
    out_dir = _out_dir(args)
    write_metrics_log(result.log, out_dir / "metrics.log")
    save_params(result.params, out_dir / "checkpoint.ckpt",
                meta={"seed": args.seed, "num_hois": space.num_hois})
    if test_set:
        _report_files(result.report, space, result.counts, out_dir)
    print(f"final mAP_full={100.0 * result.report.map_full:.2f}")
    return 0


def _cmd_eval(args) -> int:
    _require(args, "data", "out")
    if (args.checkpoint is None) == (args.detections is None):
        raise HoicompError("pass exactly one of --checkpoint / --detections")
    scoring = _scoring(args)
    test_set, space = load_dataset(args.data)
    train_set = (load_dataset(args.train_data, labels_only=True, space=space)[0]
                 if args.train_data else None)
    split = load_split(args.split, space) if args.split else None
    _, counts, partition = report_basis(train_set, space, split, scoring.rare_threshold)

    if args.checkpoint:
        params, _ = load_params(args.checkpoint)
        dets = detections_from_model(test_set, params, scoring)
    else:
        dets = load_detections(args.detections, space)
    gts = ground_truths_from_instances(test_set)
    report = evaluate(dets, gts, space, mode=scoring.eval_mode, partition=partition)
    out_dir = _out_dir(args)
    _report_files(report, space, counts, out_dir)
    if args.dets_out:
        save_detections(dets, space, out_dir / "detections.npz")
    print(format_report(report), end="")
    return 0


def _cmd_compose_demo(args) -> int:
    _require(args, "data")
    if min(args.limit, args.show_spatial) < 0:
        raise InvalidConfig("limit and show_spatial must be >= 0")
    data, space = load_dataset(args.data)
    cfg = TrainConfig(interactions_per_minibatch=args.batch_size, seed=args.seed)
    batch = data[make_minibatch(data, cfg, rngmod.stream(args.seed, "batch"))]
    compose_cfg = ComposeConfig(mode=args.mode, balance=False)
    composed = compose_batch(batch, space, compose_cfg, rngmod.stream(args.seed, "compose"))
    print(f"batch of {len(batch)} real instances over "
          f"{len(np.unique(batch.image_id))} images")
    labels = unpack_labels(batch.label, space.num_hois)
    for idx in range(len(batch)):
        names = [space.hoi_names[c] for c in np.flatnonzero(labels[idx])]
        print(f"  real[{idx}] image={batch.image_id[idx]} labels={names}")
        if idx < args.show_spatial:
            print(_spatial_art(batch, idx))
    print(f"{len(composed)} feasible compositions (mode={args.mode})")
    for comp in composed[: args.limit]:
        i, j = comp.verb_src, comp.object_src
        kind = "within" if batch.image_id[i] == batch.image_id[j] else "between"
        names = [space.hoi_names[c] for c in np.flatnonzero(comp.label)]
        print(f"  verb[{i}] + object[{j}] ({kind}) -> {names}")
    return 0


def _sweep_values(text: str) -> list[float]:
    """The numbers of a comma-separated ``--values``; empty items are
    skipped, and a list with no number raises ``InvalidConfig``."""
    try:
        values = [float(v) for v in text.split(",") if v]
    except ValueError:
        values = []
    if not values:
        raise InvalidConfig(f"--values {text!r} is not a comma-separated list of numbers")
    return values


def _cmd_sweep(args) -> int:
    _require(args, "data", "test", "param", "values", "out")
    values = _sweep_values(args.values)
    base_cfg, scoring = _train_config(args), _scoring(args)
    rows = [
        (replace(base_cfg, loss_weights=replace(base_cfg.loss_weights, **{args.param: value})),
         scoring)
        for value in values
    ]
    results, _, _ = _run_rows(args, rows)
    _write_rows(_out_dir(args) / "sweep.tsv", args.param, zip(values, results))
    return 0


def _cmd_ablate(args) -> int:
    _require(args, "data", "test", "out")
    base_cfg, scoring = _train_config(args), _scoring(args)
    rows = {
        f"compose_{mode}": (with_compose(base_cfg, mode=mode), scoring)
        for mode in ("off", "within", "between", "both")
    }
    # the compose-both model re-scored with each branch silenced in turn;
    # run_rows trains it once, since these rows repeat its TrainConfig
    rows |= {
        f"branch_{mode}": (rows["compose_both"][0], replace(scoring, branch_mode=mode))
        for mode in BRANCH_MODES
    }
    results, _, _ = _run_rows(args, list(rows.values()))
    _write_rows(_out_dir(args) / "ablate.tsv", "run", zip(rows, results))
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "make-splits": _cmd_make_splits,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "compose-demo": _cmd_compose_demo,
    "sweep": _cmd_sweep,
    "ablate": _cmd_ablate,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    try:
        if known.config:
            overrides = load_flat_config(known.config)
            # spec files also record ``command``, the one key that names no flag
            unknown = sorted(set(overrides) - _apply_config(parser, overrides) - {"command"})
            if unknown:
                raise HoicompError(f"unknown config key {unknown[0]!r} in {known.config}")
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (HoicompError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
