"""Smoke tests of the benchmark itself, on its --quick sizes."""

import json
import shutil
import subprocess
import sys
import time

import pytest

import bench
from hoicomp import trainer
from spans import Tracer

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """A copy of the benchmark beside a link to the sources, so runs write
    their files under a temporary directory."""
    root = tmp_path_factory.mktemp("checkout")
    shutil.copytree(bench.BENCH_DIR, root / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", root)
    (root / "src").symlink_to(bench.ROOT / "src")
    return root


def run_command(cwd, *args):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


@pytest.fixture
def quick_run(monkeypatch, tmp_path, capsys):
    """An in-process quick run, for tests that patch the library."""
    monkeypatch.setattr(bench, "WORK_DIR", tmp_path)

    def run(workload, trace):
        code = bench.main(["--workload", workload, "--seed", "1", "--seconds", "0",
                           "--trace", str(trace), "--quick"])
        lines = capsys.readouterr().out.splitlines()
        return code, lines, json.loads(lines[-1])

    return run


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.LAYER_UNITS


@pytest.mark.parametrize("workload", list(bench.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(checkout, workload, trace):
    code, lines, err = run_command(checkout, "--workload", workload, "--seed", "1",
                                   "--seconds", "0", "--trace", str(trace), "--quick")
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"], (lines, err)
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    if not trace:
        printed = {line.split()[0] for line in lines[:-1] if line.startswith("  ")}
        expected = {"failed_share"} | {f"map_{p}" for p in bench.WORKLOADS[workload].quality}
        assert expected <= printed


def test_removed_wrapped_name_is_reported_missing(quick_run, monkeypatch):
    real_install = bench.install

    def install_without_sgd_step(tracer):
        saved = trainer.sgd_step
        del trainer.sgd_step  # as if a refactor had removed the name
        try:
            real_install(tracer)
        finally:
            trainer.sgd_step = saved

    monkeypatch.setattr(bench, "install", install_without_sgd_step)
    code, lines, result = quick_run("longtail-60", 1)
    assert code == 0 and result["correct"]
    assert "trainer.sgd_step.ms" not in result["metrics"]
    assert any("trainer.sgd_step.ms" in line and "missing" in line for line in lines)
    assert set(result["metrics"]) == set(bench.LAYER_UNITS) - {"trainer.sgd_step.ms"}


def test_tracer_restores_and_takes_self_time():
    class Owner:
        @staticmethod
        def work():
            time.sleep(0.002)

    def broken_hook(args, kwargs, result):
        return result.field_a_refactor_removed

    tracer = Tracer()
    original = Owner.__dict__["work"]
    tracer.wrap(Owner, "work", "owner.work", after=broken_hook)
    tracer.wrap(Owner, "gone", "owner.gone")
    with tracer.span("outer"):
        Owner.work()
        Owner.work()
    tracer.restore()
    assert Owner.__dict__["work"] is original
    assert tracer.missing == ["owner.gone"]
    assert tracer.hook_failed == {"owner.work"}
    outer_self, outer_calls = tracer.total("outer", self_time=True)
    work, calls = tracer.total("owner.work", "outer")
    assert (outer_calls, calls) == (1, 2)
    assert work >= 0.004
    assert outer_self == pytest.approx(tracer.total("outer")[0] - work)


def test_fails_without_the_sources(checkout, tmp_path):
    shutil.copytree(checkout / "perfbench", tmp_path / "perfbench")
    shutil.copy(checkout / "BENCHMARK.json", tmp_path)
    code, lines, _ = run_command(tmp_path, "--workload", "longtail-60", "--seed", "0",
                                 "--seconds", "1", "--trace", "0")
    assert code != 0 and lines == []
