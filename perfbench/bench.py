"""Benchmark of hoicomp's training and evaluation pipeline.

Run it from the repository root through ``perfbench/run.py`` (which pins the
BLAS thread count before numpy loads)::

    python3 perfbench/run.py --workload longtail-60 --seed 3 --seconds 26 --trace 0

One run prepares the workload's dataset files from the seed in a child
process, before anything is timed, so the child's memory does not count
towards this process's peak RSS. The timed part then drives the library the
way ``hoicomp train --data --test`` does: ``load_dataset`` -> ``trainer.train``
-> ``experiments.evaluate_params`` -> ``save_params``/``write_metrics_log``.
It hands whatever ``load_dataset`` returns straight on and reads no instance
fields, so a change of the in-memory dataset layout does not break it.

With ``--trace 0`` the timed part runs once to warm the process up, then
repeats at least three times and while one more repetition fits into
``--seconds``; the end-to-end metrics are medians over those repetitions, and
training throughput is the median over blocks of steps. With
``--trace 1`` the golden config runs first (through ``cli.main`` and through
the timed part, which must write the same bytes), then one untraced
repetition, then one traced repetition, in which spans around the module
attributes that ``trainer.train`` and ``experiments.evaluate_params`` look up
give the per-layer metrics; the difference of the last two ``run_s`` is the
tracing overhead, and their outputs must be byte-identical. Every run checks
its outputs and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; results, with the environment, go
to ``.perfbench/results/`` and spans to ``.perfbench/<run>/spans.jsonl``.

Modes besides the measured runs: ``--quick`` (a scaled-down smoke run for
development and for this directory's tests, never a reported number),
``--fingerprint`` (composition gains over seeds 0-4, written to
``fingerprint.json``) and ``--record-golden`` (rewrites ``golden.json``).
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import hoicomp
from hoicomp import cli, experiments, network, synthdata, trainer, zeroshot
from hoicomp.composer import ComposeConfig
from hoicomp.errors import HoicompError

from spans import HOOK_ERRORS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench"
GOLDEN_FILE = BENCH_DIR / "golden.json"
FINGERPRINT_FILE = BENCH_DIR / "fingerprint.json"

MIN_REPEATS = 3
# training throughput is the median over blocks of this many steps, timed
# through train's eval_fn hook (which, returning {}, leaves the log as it is)
BLOCK_STEPS = 10
PREPARE_TIMEOUT_S = 120


@dataclass(frozen=True)
class Workload:
    """Dataset shape and training settings; every other setting is the
    ``hoicomp train`` default."""

    why: str
    num_verbs: int = 12
    num_objects: int = 10
    num_hois: int = 60
    n_train: int = 20000
    n_test: int = 3000
    interactions: int = 8
    iterations: int = 300
    lr: float = 0.01
    compose: str = "both"
    n_unseen: int = 0  # > 0: rare_first split, composer may write unseen labels
    quality: tuple = ()  # partition means reported as map_<name>


WORKLOADS = {
    "longtail-60": Workload(
        why="paper's long-tail setting at the desk defaults; the step is dominated "
            "by loss_and_grads and sgd_step on the spatial branch",
        iterations=300,
        quality=("full", "rare"),
    ),
    "zeroshot-b32": Workload(
        why="paper's zero-shot setting: 12 of 60 classes held out, 32 per batch, "
            "so the O(n^2) composer and batch assembly weigh most",
        interactions=32,
        iterations=100,
        n_unseen=12,
        quality=("unseen", "seen"),
    ),
    "hico-600": Workload(
        why="HICO-DET-sized label space without composition; per-class scoring "
            "and matching dominate and set peak memory",
        num_verbs=117,
        num_objects=80,
        num_hois=600,
        n_test=1000,
        iterations=100,
        # the loss sums over classes, so its gradient grows with the class
        # count: at lr 0.01 training diverged (NaN loss) on 2 of 30 seeds
        # tried, at lr 0.01 * 60 / 600 on none
        lr=0.001,
        compose="off",
    ),
}

# scaled-down sizes for --quick; numbers from such runs are never reported
QUICK = {"n_train": 600, "n_test": 300, "iterations": 10}

# the golden config: seed 0, default 60-class data, through `hoicomp train`
GOLDEN = {"seed": 0, "n_train": 2000, "n_test": 300, "iterations": 200}
QUICK_GOLDEN = {"seed": 0, "n_train": 300, "n_test": 60, "iterations": 10}

E2E_UNITS = {
    "setup_s": "s",
    "train_samples_per_s": "1/s",
    "eval_pairs_per_s": "1/s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}
# printed and stored with every run, not part of the JSON result line: the
# mAPs depend on the seed, not on speed, and failures are counted there
REPORTED_UNITS = {"failed_share": "share", "map_full": "%", "map_rare": "%",
                  "map_unseen": "%", "map_seen": "%"}

LAYER_UNITS = {
    "synthdata.load_dataset.s": "s",
    "synthdata.instances_per_s": "1/s",
    "synthdata.file_mb": "MB",
    "synthdata.generate.s": "s",
    "synthdata.save_dataset.s": "s",
    "trainer.make_minibatch.ms": "ms",
    "trainer.sgd_step.ms": "ms",
    "trainer.step.ms": "ms",
    "composer.compose_batch.ms": "ms",
    "composer.kept_per_call": "count",
    "composer.kept_ratio": "share",
    "composer.unseen_label_share": "share",
    "spatial.spatial_vector.us": "us",
    "spatial.calls_per_step": "count",
    "network.batch_assembly.ms": "ms",
    "network.loss_and_grads.ms": "ms",
    "network.forward_sp.ms": "ms",
    "network.forward_vo.ms": "ms",
    "network.params_total": "count",
    "network.sp_w1_share": "share",
    "network.save_params.s": "s",
    "network.load_params.s": "s",
    "network.ckpt_mb": "MB",
    "evaluator.detections_from_model.s": "s",
    "evaluator.detections": "count",
    "evaluator.evaluate.s": "s",
    "evaluator.ground_truths": "count",
    "trace.overhead_s": "s",
    "trace.overhead_share": "share",
}


# ---- inputs ----


@dataclass(frozen=True)
class Files:
    train: Path
    test: Path
    split: Path | None


def workload_for(name: str, quick: bool) -> Workload:
    w = WORKLOADS[name]
    return replace(w, **QUICK) if quick else w


def dataset_config(w: Workload, seed: int):
    return experiments.default_dataset_config(
        seed=seed, num_verbs=w.num_verbs, num_objects=w.num_objects,
        num_hois=w.num_hois, n_train=w.n_train, n_test=w.n_test,
    )


def train_config(w: Workload, seed: int, unseen_ids=frozenset()) -> trainer.TrainConfig:
    """The TrainConfig ``hoicomp train`` builds from its default flags plus
    ``--iterations``, ``--interactions``, ``--lr``, ``--compose`` and, for a
    split, ``--unseen-allowed``."""
    return trainer.TrainConfig(
        lr=w.lr,
        iterations=w.iterations,
        interactions_per_minibatch=w.interactions,
        compose=ComposeConfig(
            mode=w.compose,
            interactions_per_minibatch=w.interactions,
            unseen_allowed=bool(w.n_unseen),
            unseen_ids=frozenset(unseen_ids),
        ),
        seed=seed,
    )


def workload_files(data_dir: Path, w: Workload) -> Files:
    return Files(
        data_dir / "train.ds", data_dir / "test.ds",
        data_dir / "split.txt" if w.n_unseen else None,
    )


def prepare(w: Workload, seed: int, data_dir: str):
    """Write the workload's dataset (and split) files plus ``prepare.json``.

    Runs in a child process; ``prepare.json`` holds the generate/save times
    and a digest of what was generated, checked later against what loads.
    """
    files = workload_files(Path(data_dir), w)
    t0 = time.perf_counter()
    train_set, test_set, space = synthdata.generate(dataset_config(w, seed))
    t1 = time.perf_counter()
    synthdata.save_dataset(train_set, space, files.train)
    synthdata.save_dataset(test_set, space, files.test)
    t2 = time.perf_counter()
    if files.split:
        counts = synthdata.class_counts(train_set, space)
        split = zeroshot.make_split(counts, space, w.n_unseen, "rare_first", tie_break_seed=seed)
        zeroshot.save_split(split, files.split)
    facts = {
        "generate_s": t1 - t0,
        "save_s": t2 - t1,
        "file_bytes": files.train.stat().st_size + files.test.stat().st_size,
        "digest": digest((train_set, test_set, space)),
    }
    (Path(data_dir) / "prepare.json").write_text(json.dumps(facts), encoding="utf-8")


def prepare_in_child(name: str, quick: bool, seed: int, data_dir: Path) -> dict:
    """Run ``prepare`` in a child interpreter and wait for it to end."""
    code = ("import sys, bench; bench.prepare(bench.workload_for(sys.argv[1], sys.argv[2] == '1'),"
            " int(sys.argv[3]), sys.argv[4])")
    path = os.pathsep.join([str(BENCH_DIR), str(Path(hoicomp.__file__).resolve().parent.parent)])
    subprocess.run(
        [sys.executable, "-c", code, name, str(int(quick)), str(seed), str(data_dir)],
        env={**os.environ, "PYTHONPATH": path}, check=True, timeout=PREPARE_TIMEOUT_S,
    )
    return json.loads((data_dir / "prepare.json").read_text(encoding="utf-8"))


# ---- output checks ----


def digest(obj) -> str:
    """SHA-256 over a canonical walk of dataclasses, containers, arrays and
    scalars; equal digests mean equal values, bit for bit."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj):
    if isinstance(obj, np.ndarray):
        h.update(f"a{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif dataclasses.is_dataclass(obj):
        h.update(f"d{type(obj).__name__}".encode())
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, (list, tuple)):
        h.update(f"l{len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    elif isinstance(obj, (set, frozenset)):
        _feed(h, sorted(obj))
    elif isinstance(obj, dict):
        h.update(f"m{len(obj)}".encode())
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
    elif isinstance(obj, (bool, int, np.integer)):
        h.update(f"i{int(obj)}".encode())
    elif isinstance(obj, (float, np.floating)):
        h.update(f"f{float(obj).hex()}".encode())
    elif isinstance(obj, str):
        h.update(f"s{len(obj)}:{obj}".encode())
    elif obj is None:
        h.update(b"n")
    else:
        raise TypeError(f"cannot digest a {type(obj).__name__}")


def file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_hashes(out_dir: Path) -> dict:
    return {name: file_sha256(out_dir / name) for name in ("metrics.log", "checkpoint.ckpt")}


# ---- the timed part ----


@dataclass
class Repeat:
    """Timings and outputs of one pass through the timed part."""

    setup_s: float
    train_s: float
    block_s: list
    eval_s: float
    run_s: float
    hashes: dict
    quality: dict
    params: object
    loaded: tuple


def run_pipeline(w: Workload, files: Files, out_dir: Path, seed: int,
                 tracer: Tracer | None = None) -> Repeat:
    """load -> train -> evaluate -> save, as ``hoicomp train`` runs them.

    Set-up (load, split, class counts, initialisation) ends where training
    starts; initialisation is timed as ``train`` with zero iterations, which
    does everything up to the first step.
    """
    phase = tracer.span if tracer else (lambda name: contextlib.nullcontext())
    t0 = time.perf_counter()
    with phase("phase.setup"):
        train_set, space = synthdata.load_dataset(files.train)
        test_set, _ = synthdata.load_dataset(files.test)
        loaded = (train_set, test_set, space)
        split = zeroshot.load_split(files.split, space) if files.split else None
        if split is not None:
            train_set = zeroshot.apply_split(train_set, split)
        counts = synthdata.class_counts(train_set, space)
        cfg = train_config(w, seed, split.unseen if split is not None else frozenset())
        trainer.train(train_set, space, replace(cfg, iterations=0))
    marks = [time.perf_counter()]

    def mark(_params):
        marks.append(time.perf_counter())
        return {}

    t1 = marks[0]
    with phase("phase.train"):
        params, log = trainer.train(train_set, space, replace(cfg, eval_every=BLOCK_STEPS),
                                    eval_fn=mark)
    t2 = time.perf_counter()
    with phase("phase.eval"):
        partition = zeroshot.zeroshot_partition(split) if split is not None else None
        report = experiments.evaluate_params(params, test_set, space, counts, partition=partition)
    t3 = time.perf_counter()
    with phase("phase.save"):
        trainer.write_metrics_log(log, out_dir / "metrics.log")
        network.save_params(params, out_dir / "checkpoint.ckpt",
                            meta={"seed": seed, "num_hois": space.num_hois})
    t4 = time.perf_counter()
    return Repeat(
        setup_s=t1 - t0, train_s=t2 - t1, block_s=np.diff(marks).tolist(),
        eval_s=t3 - t2, run_s=t4 - t0,
        hashes=output_hashes(out_dir),
        quality={f"map_{name}": 100.0 * report.means[name] for name in w.quality},
        params=params, loaded=loaded,
    )


def check_outputs(rep: Repeat, out_dir: Path, prep: dict, tracer: Tracer | None = None) -> list[str]:
    """Names of the failed checks on one repetition's outputs."""
    failed = []
    log = trainer.read_metrics_log(out_dir / "metrics.log")
    if not all(math.isfinite(v) for row in log for v in row.values()):
        failed.append("metrics.log has a non-finite value")
    if not all(math.isfinite(v) for v in rep.quality.values()):
        failed.append(f"non-finite mAP in {rep.quality}")
    with tracer.span("phase.check") if tracer else contextlib.nullcontext():
        reloaded, _ = network.load_params(out_dir / "checkpoint.ckpt")
    if digest(reloaded) != digest(rep.params):
        failed.append("load_params(save_params(p)) differs from p")
    if digest(rep.loaded) != prep["digest"]:
        failed.append("dataset files load back different from what was generated")
    return failed


# ---- the traced run ----


def _count_composed(tr: Tracer, args, kwargs, result):
    batch, _, cfg = args[:3]
    if cfg.mode != "both":
        raise ValueError("kept_ratio is defined for compose mode 'both' only")
    n = len(batch)
    unseen = sorted(cfg.unseen_ids)
    tr.count("compose.calls")
    tr.count("compose.allowed", n * (n - 1))
    tr.count("compose.kept", len(result))
    tr.count("compose.unseen", sum(1 for c in result if unseen and c.label[unseen].any()))


def _probe_forward(tr: Tracer, args, kwargs, result):
    """Time the public forward functions on the step's own batch."""
    real, _, params = args[:3]
    with tr.span("probe.forward_spatial_human"):
        network.forward_spatial_human(real.human_feat, real.spatial, params)
    with tr.span("probe.forward_verb_object"):
        network.forward_verb_object(real.verb_feat, real.object_feat, params)


def _counter(name):
    return lambda tr, args, kwargs, result: tr.count(name, len(result))


# (owner path under hoicomp, attribute, counter hook); the span of each call
# is named "<owner path>.<attribute>"
WRAPPED = (
    ("synthdata", "load_dataset", None),
    ("trainer", "train", None),
    ("trainer", "make_minibatch", None),
    ("trainer", "compose_batch", _count_composed),
    ("trainer", "RealBatch.from_instances", None),
    ("trainer", "CompBatch.from_composited", None),
    ("trainer", "loss_and_grads", _probe_forward),
    ("trainer", "sgd_step", None),
    ("trainer", "write_metrics_log", None),
    ("network", "spatial_vector", None),
    ("network", "save_params", None),
    ("network", "load_params", None),
    ("experiments", "evaluate_params", None),
    ("experiments", "detections_from_model", _counter("detections")),
    ("experiments", "ground_truths_from_instances", _counter("ground_truths")),
    ("experiments", "evaluate", None),
    ("evaluator", "spatial_vector", None),
)


def install(tracer: Tracer):
    for module, path, hook in WRAPPED:
        *owner_path, attr = f"{module}.{path}".split(".")
        owner = functools.reduce(lambda o, a: getattr(o, a, None), owner_path, hoicomp)
        after = functools.partial(hook, tracer) if hook else None
        tracer.wrap(owner, attr, f"{module}.{path}", after=after)


def layer_metrics(tr: Tracer, w: Workload, prep: dict, params, ckpt: Path,
                  untraced_run_s: float, traced_run_s: float):
    """Per-layer metrics of one traced repetition, and the names that are
    missing because the library no longer has what they measure.

    Per-step times are summed over the training phase and divided by the
    iteration count, so a layer the workload never calls reads 0.
    """
    iters = w.iterations
    out: dict[str, float] = {}
    missing: list[str] = []
    c = tr.counters

    def put(name, needs, fn, hook=None):
        """``needs``: wrapped names the metric's spans come from; ``hook``: the
        wrapped name whose counter hook feeds it."""
        if any(n in tr.missing for n in needs + [hook]) or hook in tr.hook_failed:
            missing.append(name)
            return
        try:
            out[name] = float(fn())
        except HOOK_ERRORS + (StopIteration, ZeroDivisionError):
            missing.append(name)

    def per_step_ms(span, self_time=False):
        return 1e3 * tr.total(span, "phase.train", self_time)[0] / iters

    def step_ms():
        idxs = tr.under("phase.train")
        train = next(tr.spans[i] for i in idxs if tr.spans[i][0] == "trainer.train")
        first = next(tr.spans[i] for i in idxs if tr.spans[i][0] == "trainer.make_minibatch")
        probes = sum(tr.total(p, "phase.train")[0] for p in
                     ("probe.forward_spatial_human", "probe.forward_verb_object"))
        return 1e3 * (train[2] - first[1] - probes) / iters

    def spatial_us():
        secs, calls = map(sum, zip(*(tr.total(f"{m}.spatial_vector") for m in ("network", "evaluator"))))
        return 1e6 * secs / calls

    def share(num, den):
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    load = "synthdata.load_dataset"
    put("synthdata.load_dataset.s", [load], lambda: tr.total(load, "phase.setup")[0])
    put("synthdata.instances_per_s", [load],
        lambda: (w.n_train + w.n_test) / tr.total(load, "phase.setup")[0])
    put("synthdata.file_mb", [], lambda: prep["file_bytes"] / 1e6)
    put("synthdata.generate.s", [], lambda: prep["generate_s"])
    put("synthdata.save_dataset.s", [], lambda: prep["save_s"])
    put("trainer.make_minibatch.ms", ["trainer.make_minibatch"],
        lambda: per_step_ms("trainer.make_minibatch"))
    put("trainer.sgd_step.ms", ["trainer.sgd_step"], lambda: per_step_ms("trainer.sgd_step"))
    put("trainer.step.ms", ["trainer.train", "trainer.make_minibatch", "trainer.loss_and_grads"],
        step_ms)
    put("composer.compose_batch.ms", ["trainer.compose_batch"],
        lambda: per_step_ms("trainer.compose_batch"))
    compose = "trainer.compose_batch"
    put("composer.kept_per_call", [], lambda: share("compose.kept", "compose.calls"), compose)
    put("composer.kept_ratio", [], lambda: share("compose.kept", "compose.allowed"), compose)
    put("composer.unseen_label_share", [], lambda: share("compose.unseen", "compose.kept"),
        compose)
    put("spatial.spatial_vector.us", ["network.spatial_vector", "evaluator.spatial_vector"],
        spatial_us)
    put("spatial.calls_per_step", ["network.spatial_vector"],
        lambda: tr.total("network.spatial_vector", "phase.train")[1] / iters)
    put("network.batch_assembly.ms",
        ["trainer.RealBatch.from_instances", "trainer.CompBatch.from_composited",
         "network.spatial_vector"],
        lambda: per_step_ms("trainer.RealBatch.from_instances", self_time=True)
        + per_step_ms("trainer.CompBatch.from_composited"))
    put("network.loss_and_grads.ms", ["trainer.loss_and_grads"],
        lambda: per_step_ms("trainer.loss_and_grads"))
    put("network.forward_sp.ms", [], lambda: per_step_ms("probe.forward_spatial_human"),
        "trainer.loss_and_grads")
    put("network.forward_vo.ms", [], lambda: per_step_ms("probe.forward_verb_object"),
        "trainer.loss_and_grads")
    put("network.params_total", [], lambda: sum(a.size for a in params.blocks().values()))
    put("network.sp_w1_share", [],
        lambda: params.sp_w1.size / sum(a.size for a in params.blocks().values()))
    put("network.save_params.s", ["network.save_params"],
        lambda: tr.total("network.save_params", "phase.save")[0])
    put("network.load_params.s", ["network.load_params"],
        lambda: tr.total("network.load_params", "phase.check")[0])
    put("network.ckpt_mb", [], lambda: ckpt.stat().st_size / 1e6)
    put("evaluator.detections_from_model.s", ["experiments.detections_from_model"],
        lambda: tr.total("experiments.detections_from_model", "phase.eval")[0])
    put("evaluator.detections", [], lambda: c["detections"], "experiments.detections_from_model")
    put("evaluator.evaluate.s", ["experiments.evaluate"],
        lambda: tr.total("experiments.evaluate", "phase.eval")[0])
    put("evaluator.ground_truths", [], lambda: c["ground_truths"],
        "experiments.ground_truths_from_instances")
    put("trace.overhead_s", [], lambda: traced_run_s - untraced_run_s)
    put("trace.overhead_share", [], lambda: (traced_run_s - untraced_run_s) / untraced_run_s)
    return out, missing


# ---- golden hashes: `hoicomp train` on one small fixed config ----


def golden_check(work: Path, golden_cfg: dict) -> dict:
    """Run the golden config through ``cli.main`` and through the benchmark's
    own pipeline; return both sets of output hashes."""
    seed = golden_cfg["seed"]
    w = replace(WORKLOADS["longtail-60"], n_train=golden_cfg["n_train"],
                n_test=golden_cfg["n_test"], iterations=golden_cfg["iterations"])
    data, cli_out, lib_out = work / "data", work / "cli", work / "library"
    for d in (data, cli_out, lib_out):
        d.mkdir(parents=True, exist_ok=True)
    files = workload_files(data, w)
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [
            cli.main(["gen-data", "--out", str(files.train), "--test-out", str(files.test),
                      "--seed", str(seed), "--n-train", str(w.n_train), "--n-test", str(w.n_test)]),
            cli.main(["train", "--data", str(files.train), "--test", str(files.test),
                      "--out", str(cli_out), "--seed", str(seed),
                      "--iterations", str(w.iterations)]),
        ]
    if codes != [0, 0]:
        raise RuntimeError(f"hoicomp CLI failed on the golden config: exit codes {codes}")
    run_pipeline(w, files, lib_out, seed)
    return {"cli": output_hashes(cli_out), "library": output_hashes(lib_out)}


def record_golden() -> int:
    work = WORK_DIR / "record-golden"
    shutil.rmtree(work, ignore_errors=True)
    hashes = golden_check(work, GOLDEN)
    if hashes["cli"] != hashes["library"]:
        print("error: the benchmark's pipeline and `hoicomp train` disagree", file=sys.stderr)
        return 1
    GOLDEN_FILE.write_text(json.dumps({"config": GOLDEN, **hashes["cli"]}, indent=2) + "\n",
                           encoding="utf-8")
    print(f"wrote {GOLDEN_FILE}")
    return 0


# ---- fingerprint: composition gains over seeds 0-4 ----


def fingerprint(seeds=range(5)) -> int:
    """Mean and std over seeds of the gains the paper reports, at the
    ``experiments`` defaults; takes minutes, so it runs only on demand."""
    seeds = list(seeds)
    rows = []
    vcl = experiments.vcl_comparison(seeds)
    zs = experiments.zero_shot_comparison(seeds)
    for v, z in zip(vcl, zs):
        rows.append({
            "seed": v["seed"],
            "rare_gain": 100.0 * (v["vcl"].map_rare - v["baseline"].map_rare),
            "full_gain": 100.0 * (v["vcl"].map_full - v["baseline"].map_full),
            "unseen_gain": 100.0 * (z["vcl"].map_unseen - z["baseline"].map_unseen),
            "seen_gain": 100.0 * (z["vcl"].map_seen - z["baseline"].map_seen),
        })
    summary = {}
    for key in ("rare_gain", "full_gain", "unseen_gain", "seen_gain"):
        values = [r[key] for r in rows]
        summary[key] = {"mean": statistics.mean(values), "std": statistics.stdev(values)}
    result = {"environment": environment(), "seeds": seeds, "rows": rows, "summary": summary}
    FINGERPRINT_FILE.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    for key, s in summary.items():
        print(f"{key:<12} mean {s['mean']:+.2f}  std {s['std']:.2f}  (mAP points)")
    print(f"wrote {FINGERPRINT_FILE}")
    return 0


# ---- environment ----


def environment() -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    blas = "unknown"
    with contextlib.suppress(TypeError, KeyError):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info['name']} {info['version']}"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS", "unpinned"),
    }


# ---- one measured run ----


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    w = workload_for(name, quick)
    work = WORK_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    data_dir, out_dir = work / "data", work / "out"
    data_dir.mkdir(parents=True)
    out_dir.mkdir()
    files = workload_files(data_dir, w)
    checks: list[str] = []
    result = {
        "workload": name, "why": w.why, "quick": quick, "trace": trace,
        "environment": {**environment(), "seeds": {
            "dataset": seed, "train": seed, **({"split": seed} if w.n_unseen else {})}},
    }
    try:
        prep = prepare_in_child(name, quick, seed, data_dir)
        if trace:
            result.update(_traced(w, files, out_dir, work, seed, prep, quick, checks))
        else:
            result.update(_untraced(w, files, out_dir, seed, seconds, prep, checks))
    finally:  # only spans.jsonl stays; the result records the output hashes
        for sub in ("data", "out", "golden"):
            shutil.rmtree(work / sub, ignore_errors=True)
    result["checks_failed"] = checks
    result["correct"] = not checks
    return result


def _untraced(w, files, out_dir, seed, seconds, prep, checks) -> dict:
    # the first pass runs slower in a fresh process (up to a third slower in
    # training on the reference machine); it warms up and is left out of the
    # medians, but its outputs are the reference the others must reproduce
    warmup = run_pipeline(w, files, out_dir, seed)
    warmup.params = warmup.loaded = None
    repeats: list[Repeat] = []
    failed = 0
    took = 0.0
    start = time.perf_counter()
    while len(repeats) + failed < MIN_REPEATS or time.perf_counter() - start + took <= seconds:
        if repeats:  # only the last repetition's outputs are checked in full
            repeats[-1].params = repeats[-1].loaded = None
        t = time.perf_counter()
        try:
            rep = run_pipeline(w, files, out_dir, seed)
        except HoicompError as exc:
            failed += 1
            print(f"pipeline failed: {exc}", file=sys.stderr)
        else:
            if rep.hashes != warmup.hashes:
                checks.append("repetitions of one seed wrote different outputs")
            repeats.append(rep)
        took = time.perf_counter() - t
    peak = _peak_rss_mb()
    if not repeats:
        raise RuntimeError("every repetition of the pipeline failed")
    checks.extend(check_outputs(repeats[-1], out_dir, prep))
    med = statistics.median
    attempted = 1 + len(repeats) + failed
    metrics = {
        "setup_s": med(r.setup_s for r in repeats),
        "train_samples_per_s": BLOCK_STEPS * w.interactions / med(
            b for r in repeats for b in r.block_s),
        "eval_pairs_per_s": med(w.n_test / r.eval_s for r in repeats),
        "run_s": med(r.run_s for r in repeats),
        "peak_rss_mb": peak,
    }
    reported = {"failed_share": failed / attempted, **repeats[-1].quality}
    return {
        "attempted": attempted, "failed": failed,
        "repeats": [{"setup_s": r.setup_s, "train_s": r.train_s, "eval_s": r.eval_s,
                     "run_s": r.run_s} for r in [warmup] + repeats],
        "metrics": metrics, "reported": reported, "hashes": repeats[-1].hashes,
    }


def _traced(w, files, out_dir, work, seed, prep, quick, checks) -> dict:
    # first, so that it also warms up the code paths the untraced reference runs
    golden = golden_check(work / "golden", QUICK_GOLDEN if quick else GOLDEN)
    if golden["cli"] != golden["library"]:
        checks.append("the benchmark's pipeline and `hoicomp train` wrote different bytes")
    stored = json.loads(GOLDEN_FILE.read_text(encoding="utf-8")) if GOLDEN_FILE.exists() else {}
    golden_match = None if quick else all(stored.get(k) == v for k, v in golden["cli"].items())

    ref = run_pipeline(w, files, out_dir, seed)
    ref_params_digest = digest(ref.params)
    ref.params = ref.loaded = None
    tracer = Tracer()
    install(tracer)
    try:
        with tracer.span("repeat"):
            rep = run_pipeline(w, files, out_dir, seed, tracer=tracer)
        checks.extend(check_outputs(rep, out_dir, prep, tracer))
    finally:
        tracer.restore()
    if rep.hashes != ref.hashes or digest(rep.params) != ref_params_digest:
        checks.append("tracing changed metrics.log or checkpoint.ckpt")
    metrics, missing = layer_metrics(tracer, w, prep, rep.params, out_dir / "checkpoint.ckpt",
                                     ref.run_s, rep.run_s)
    missing_wrapped = sorted(set(tracer.missing))
    hook_failed = sorted(tracer.hook_failed)
    tracer.write(work / "spans.jsonl")
    return {
        "attempted": 2, "failed": 0, "metrics": metrics, "missing": missing,
        "missing_wrapped": missing_wrapped, "hook_failed": hook_failed,
        "golden_match": golden_match,
        "reported": {"run_s_untraced": ref.run_s, "run_s_traced": rep.run_s},
        "hashes": rep.hashes, "spans": len(tracer.spans),
    }


# ---- command line ----


def _print_result(result: dict, units: dict):
    print(f"workload {result['workload']} ({'traced' if result['trace'] else 'untraced'}"
          f"{', QUICK SMOKE RUN: not a benchmark result' if result['quick'] else ''})")
    for key, value in result["environment"].items():
        print(f"  env {key}: {value}")
    all_units = {**units, **REPORTED_UNITS, "run_s_untraced": "s", "run_s_traced": "s"}
    for key, value in {**result["metrics"], **result.get("reported", {})}.items():
        print(f"  {key:<36} {value:>16.6g} {all_units[key]}")
    for key in result.get("missing", []):
        print(f"  {key:<36} {'missing':>16} {units[key]}")
    for key in result.get("missing_wrapped", []):
        print(f"  wrapped name no longer in the library: {key}")
    for key in result.get("hook_failed", []):
        print(f"  counter hook failed on the result of: {key}")
    if "golden_match" in result:
        print(f"  golden hashes match: {result['golden_match']}")
    for failure in result["checks_failed"]:
        print(f"  CHECK FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="untraced runs repeat the timed part while one more fits in this time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="scaled-down smoke run for development; never report its numbers")
    parser.add_argument("--fingerprint", action="store_true",
                        help="record composition gains over seeds 0-4 in fingerprint.json")
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json from the current code")
    args = parser.parse_args(argv)
    if args.fingerprint:
        return fingerprint()
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        parser.error("--workload is required")

    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    units = LAYER_UNITS if args.trace else E2E_UNITS
    results_dir = WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-quick' if args.quick else ''}"
    (results_dir / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    _print_result(result, units)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }))
    return 0 if result["correct"] else 1
