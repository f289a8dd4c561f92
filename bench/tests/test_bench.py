"""Tests of the benchmark itself, on tiny versions of each workload.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT_DIR", tmp_path)
    return tmp_path


def run_tiny(name, trace, capsys):
    code = harness.main(
        ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        workload=wl.tiny(wl.WORKLOADS[name]),
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_tiny_workload_prints_every_metric(name, trace, capsys):
    code, lines, result = run_tiny(name, trace, capsys)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    printed = {line.split()[0] for line in lines[:-1] if line.startswith("  ")}
    assert set(result["metrics"]) <= printed
    quality = {"estimate": {"ghi_rmse_wm2"},
               "cli": {"ghi_rmse_wm2", "pnom_err_max_pct"}}[wl.WORKLOADS[name].kind]
    assert quality | {"failed_frac"} <= printed


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)


def test_traced_run_writes_spans_and_layer_counts(out_dir, capsys):
    _, _, result = run_tiny("estimate-season-15min", 1, capsys)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["reconcile.tukey_gate_matrix.calls"] == 2
    assert m["proxy.proxy_matrix.calls"] > 30
    assert 0.0 < m["solver.refine_active_ratio"] <= 1.0
    assert m["orientation.nnls.calls"] == 0
    trace = json.loads(next(out_dir.glob("trace-*.json")).read_text())
    assert {row[0] for row in trace["spans"]} >= {"bench.setup", "bench.op", "solver.estimate"}


TINY_ESTIMATE = wl.tiny(wl.WORKLOADS["estimate-season-15min"])


@pytest.fixture(scope="module")
def estimate_case(tmp_path_factory):
    scene = wl.setup(TINY_ESTIMATE, 5, tmp_path_factory.mktemp("est"))
    return scene, wl.read_output(TINY_ESTIMATE, scene, wl.run_op(TINY_ESTIMATE, scene))


def test_gate_passes_the_true_estimate(estimate_case):
    scene, out = estimate_case
    assert wl.check(TINY_ESTIMATE, scene, out).correct


def test_gate_rejects_scaled_estimate(estimate_case):
    scene, out = estimate_case
    bad = wl.Output(ghi=1.1 * out.ghi, converged=out.converged)
    verdict = wl.check(TINY_ESTIMATE, scene, bad)
    assert not verdict.correct
    assert "RMSE" in verdict.reasons[0]


def test_gate_rejects_daytime_nan(estimate_case):
    scene, out = estimate_case
    ghi = out.ghi.copy()
    ghi[np.flatnonzero(scene.daytime)[0]] = np.nan
    verdict = wl.check(TINY_ESTIMATE, scene, wl.Output(ghi=ghi, converged=out.converged))
    assert any("NaN" in r for r in verdict.reasons)


def scaled_ratings(scene, factor):
    return tuple(
        wl.orientation.OmegaCoefficients(oc.plant_id, oc.omega, factor * oc.estimated_pnom)
        for oc in scene.omegas
    )


def test_cli_gate_rejects_only_gross_rating_errors(estimate_case):
    scene, _ = estimate_case
    cli = wl.tiny(wl.WORKLOADS["cli-pipeline-45d"])
    verdict = wl.check(cli, scene, wl.Output(omegas=scaled_ratings(scene, 1.15)))
    assert verdict.correct and verdict.failed == 0
    assert not wl.check(cli, scene, wl.Output(omegas=scaled_ratings(scene, 3.5))).correct


def test_gate_rejects_cli_failure(estimate_case):
    scene, _ = estimate_case
    assert not wl.check(TINY_ESTIMATE, scene, wl.Output(exit_codes=(0, 2))).correct


def test_tracer_restores_originals(estimate_case):
    scene, _ = estimate_case
    modules = spans.pvghi_modules()
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    original = wl.solver.proxy_matrix
    with spans.Tracer() as tracer:
        assert wl.solver.proxy_matrix is not original
        wl.run_op(TINY_ESTIMATE, scene)
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())
    names = {row[0] for row in tracer.spans}
    assert {"solver.estimate", "proxy.proxy_matrix", "solar.angle_of_incidence"} <= names


def test_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    tracer.spans = [
        ["bench.op", 0.0, 10.0, -1],
        ["a", 1.0, 5.0, 0],
        ["b", 2.0, 3.0, 1],
        ["b", 6.0, 7.0, 0],
        ["bench.setup", 11.0, 12.0, -1],
        ["b", 11.0, 11.5, 4],
    ]
    summary = tracer.summary("bench.op")
    assert summary["a"] == {"calls": 1, "s": 4.0, "self_s": 3.0}
    assert summary["b"] == {"calls": 2, "s": 2.0, "self_s": 2.0}
    assert "bench.op" not in summary


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-pipeline-45d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
