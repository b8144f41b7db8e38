"""Tests of the benchmark harness itself, on the smallest inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count",)  # output bytes include the timings verify writes


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload, trace, seed=3):
        key = (workload, trace, seed)
        if key not in cache:
            cache[key] = bench.measure(workload, seed, 0, trace, tiny=True)
        return cache[key]
    return get


def test_workloads_match_spec():
    from workloads import WORKLOADS
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS) == list(WORKLOADS)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_untraced(runs, workload):
    run = runs(workload, 0)
    result, worker = run["result"], run["report"]["worker"]
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert worker["fail_share"] == result["failed"] / result["attempted"]
    assert {(n, m["unit"]) for n, m in result["metrics"].items()} == {
        (m["name"], m["unit"]) for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert worker["wrappers_untraced"] == []


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_traced_metrics_match_spec(runs, workload):
    metrics = runs(workload, 1)["result"]["metrics"]
    assert [(n, m["unit"]) for n, m in metrics.items()] == [
        (m["name"], m["unit"]) for m in SPEC["per_layer"]]


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_self_times_and_harness_add_up_to_traced_wall(runs, workload):
    run = runs(workload, 1)
    metrics = run["result"]["metrics"]
    (wall,) = run["report"]["worker"]["traced_wall_s"]
    total = sum(metrics[f"{m}.self_s"]["value"] for m in tracing.MODULES)
    assert total + metrics["trace.harness_s"]["value"] == pytest.approx(wall, rel=1e-9)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_work_counts_repeat_across_traced_runs(runs, workload):
    first = runs(workload, 1)["result"]
    again = bench.measure(workload, 3, 0, 1, tiny=True)["result"]
    counts = lambda r: {n: m["value"] for n, m in r["metrics"].items()
                        if m["unit"] in COUNT_UNITS}
    assert counts(first) == counts(again)
    assert any(v > 0 for v in counts(first).values())


def test_kernel_table_makes_no_ball_or_direct_calls(runs):
    metrics = runs("kernel_table", 1)["result"]["metrics"]
    assert metrics["estimates.ball_measure.calls"]["value"] == 0
    assert metrics["riesz.riesz_kernel_direct.calls"]["value"] == 0
    assert metrics["riesz.riesz_kernel_components.pairs"]["value"] > 0


def test_tracer_restores_every_binding():
    import dunklosc.heat
    import dunklosc.special
    original = dunklosc.heat.bessel_ratio_scaled
    tracer = tracing.Tracer()
    with tracer:
        assert dunklosc.heat.bessel_ratio_scaled is not original
        assert "cli.main" in tracing.installed_wrappers()
        dunklosc.heat.heat_kernel(dunklosc.heat.AlphaParams((0.0,)), 0.5, [0.3], [0.7])
    assert tracing.installed_wrappers() == []
    assert dunklosc.heat.bessel_ratio_scaled is original is dunklosc.special.bessel_ratio_scaled
    assert tracer.summary(0)["counts"] == {"special.bessel_ratio_scaled.elements": 2}


def test_missing_target_fails_loudly(monkeypatch):
    monkeypatch.setattr(tracing, "REQUIRED", tracing.REQUIRED + ("special.renamed_away",))
    with pytest.raises(RuntimeError, match="special.renamed_away"):
        tracing.Tracer().install()
    assert tracing.installed_wrappers() == []


def test_result_is_last_line():
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "kernel_table",
                          "--seed", "5", "--seconds", "0", "--trace", "0", "--tiny"],
                         cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    assert sorted(json.loads(lines[-1])) == ["attempted", "correct", "failed", "metrics"]
    for m in SPEC["end_to_end"]:
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                   for line in lines[:-1])


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
