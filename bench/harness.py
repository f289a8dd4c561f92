"""Run one benchmark workload and report its metrics.

A run sets up the one scene made from ``--seed``. Untraced runs
(``--trace 0``) give the end-to-end metrics: the imports are timed in
this process and in fresh interpreters, ``IMPORT_REPEATS`` times in all, set-up
is repeated ``SETUP_REPEATS`` times, and the medians of both are
reported. Then the timed operation repeats until ``--seconds`` would
be overrun (at least ``MIN_OPS`` times) and the median operation time
is reported. A traced run
(``--trace 1``) runs the operation untraced, then set-up and operation
under the tracer, checks that both produce the same output hashes, and
reports the per-layer metrics.

Every run checks its outputs against the workload's correctness gate,
prints a readable report, writes the full record (metrics, quality,
hashes, CPU times, provenance) under ``bench/out/`` and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import workloads as wl
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
MIN_OPS = 3

# per-layer metric -> (span names summed, summary field); SPAN_METRICS
# come from the traced operation, SETUP_SPAN_METRICS from the traced set-up
SPAN_METRICS = {
    "reconcile.tukey_gate_matrix.self_s": (("reconcile.tukey_gate_matrix",), "self_s"),
    "reconcile.tukey_gate_matrix.calls": (("reconcile.tukey_gate_matrix",), "calls"),
    "reconcile.shadow_maps.s": (
        ("reconcile.build_shadow_map", "reconcile.smooth_threshold_map",
         "reconcile.trust_weights"), "s"),
    "proxy.proxy_matrix.self_s": (("proxy.proxy_matrix",), "self_s"),
    "proxy.proxy_matrix.calls": (("proxy.proxy_matrix",), "calls"),
    "proxy.aoi_calls": (("solar.angle_of_incidence",), "calls"),
    "solver.init_ghi.self_s": (("solver.init_ghi",), "self_s"),
    "solver.refine_ghi.self_s": (("solver.refine_ghi",), "self_s"),
    "orientation.select_clear.self_s": (("orientation.select_clear",), "self_s"),
    "orientation.gmm_fits": (("orientation.fit_gmm2",), "calls"),
    "orientation.identify_omega.self_s": (("orientation.identify_omega",), "self_s"),
    "orientation.nnls.s": (("orientation.nnls",), "s"),
    "orientation.nnls.calls": (("orientation.nnls",), "calls"),
    "data.load_plant_csv.s": (("data.load_plant_csv",), "s"),
    "data.align.s": (("data.align",), "s"),
    "cli.cmd_identify.self_s": (("cli.cmd_identify",), "self_s"),
    "cli.cmd_estimate.self_s": (("cli.cmd_estimate",), "self_s"),
    "cli.cmd_evaluate.s": (("cli.cmd_evaluate",), "s"),
}
SETUP_SPAN_METRICS = {
    "solar.sun_positions.s": (("solar.sun_positions",), "s"),
    "solar.clearsky_ghi.s": (("solar.clearsky_ghi",), "s"),
    "orientation.generate_mesh.s": (("orientation.generate_mesh",), "s"),
    "synth.synthesize.s": (("synth.synthesize",), "s"),
}
DERIVED_UNITS = {
    "proxy.cells": "count",
    "reconcile.gated_frac": "ratio",
    "solver.iterations_total": "count",
    "solver.descent_loops": "count",
    "solver.refine_active_ratio": "ratio",
    "orientation.clear_frac": "ratio",
    "trace.overhead_pct": "%",
}
FIELD_UNITS = {"s": "s", "self_s": "s", "calls": "count"}


def per_layer_units() -> dict[str, str]:
    units = {
        name: FIELD_UNITS[f]
        for name, (_, f) in {**SPAN_METRICS, **SETUP_SPAN_METRICS}.items()
    }
    units.update(DERIVED_UNITS)
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, t_start: float | None = None, workload: wl.Workload | None = None) -> int:
    """Run a workload; ``workload`` overrides the named one (tests pass tiny sizes)."""
    import_s = time.perf_counter() - t_start if t_start is not None else None
    args = parse_args(argv)
    w = workload or wl.WORKLOADS[args.workload]
    workdir = OUT_DIR / f"{w.name}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    OUT_DIR.mkdir(exist_ok=True)

    if args.trace:
        record = traced_run(w, args.seed, workdir)
    else:
        record = timed_run(w, args.seed, args.seconds, workdir, import_s)
    record["provenance"] = provenance(w, args)

    verdicts = record.pop("verdicts")
    reasons = sorted({r for v in verdicts for r in v.reasons}) + record.pop("reasons")
    quality = {}  # worst value over the run's operations
    for v in verdicts:
        for name, value in v.quality.items():
            quality[name] = max(quality.get(name, value), value)
    result = {
        "correct": not reasons,
        "attempted": sum(v.attempted for v in verdicts),
        "failed": sum(v.failed for v in verdicts),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in record.pop("metrics").items()
        },
    }
    record.update(quality=quality, reasons=reasons, result=result)
    with open(OUT_DIR / f"result-{w.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    report(w, args, record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def timed_op(w, scene) -> tuple[float, float, wl.Verdict, dict]:
    """One operation: wall and CPU seconds of the call alone, then its
    gate verdict and output hashes, computed after the clock stopped."""
    t0, c0 = time.perf_counter(), time.process_time()
    result = wl.run_op(w, scene)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    out = wl.read_output(w, scene, result)
    return wall, cpu, wl.check(w, scene, out), wl.output_hashes(out)


def import_seconds() -> float:
    """Import time of the benchmark's modules in a fresh interpreter,
    measured the way ``run.py`` measures its own."""
    code = (
        "import time; t0 = time.perf_counter()\n"
        "import sys\n"
        f"sys.path[:0] = [{str(BENCH_DIR)!r}, {str(ROOT / 'src')!r}]\n"
        "import harness\n"
        "print(time.perf_counter() - t0)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


def timed_run(w, seed, seconds, workdir, import_s) -> dict:
    import_times = [] if import_s is None else [import_s]
    while len(import_times) < IMPORT_REPEATS:
        import_times.append(import_seconds())
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        scene = wl.setup(w, seed, workdir)
        setup_times.append(time.perf_counter() - t0)

    # repeat the operation while the next one is expected to end in time
    runs = []
    deadline = time.perf_counter() + seconds
    while len(runs) < MIN_OPS or (
        time.perf_counter() + statistics.median(r[0] for r in runs) <= deadline
    ):
        runs.append(timed_op(w, scene))

    walls, cpus, verdicts, hashes = zip(*runs)
    reasons = []
    if any(h != hashes[0] for h in hashes):
        reasons.append("outputs differ between repeats")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "us_per_sample": (statistics.median(walls) / w.n_steps * 1e6, "us"),
        "setup_s": (statistics.median(import_times) + statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {
        "workload": w.name, "seed": seed, "trace": 0, "n_steps": w.n_steps,
        "import_s": import_times, "setup_body_s": setup_times,
        "op_wall_s": walls, "op_cpu_s": cpus,
        "cpu_us_per_sample": statistics.median(cpus) / w.n_steps * 1e6,
        "hashes": hashes[0], "metrics": metrics,
        "verdicts": verdicts, "reasons": reasons,
    }


def traced_run(w, seed, workdir) -> dict:
    scene = wl.setup(w, seed, workdir)
    # the first untraced operation also warms caches; the second is the
    # reference the traced one is compared with
    plain = [timed_op(w, scene) for _ in range(2)]

    tracer = Tracer(observe={
        "proxy.proxy_matrix": lambda pm: pm.values.size,
        "solver.estimate": lambda r: r,
        "orientation.select_clear": lambda mask: int(mask.sum()),
    })
    with tracer:
        with tracer.span("bench.setup"):
            scene = wl.setup(w, seed, workdir)
        with tracer.span("bench.op"):
            traced = timed_op(w, scene)
    tracer.write(OUT_DIR / f"trace-{w.name}-seed{seed}.json")

    walls, cpus, verdicts, hashes = zip(*plain, traced)
    reasons = []
    if any(h != hashes[0] for h in hashes):
        reasons.append("outputs differ between untraced repeats and the traced run")
    metrics = layer_metrics(tracer, scene, w)
    metrics["trace.overhead_pct"] = 100.0 * (walls[2] - walls[1]) / walls[1]
    units = per_layer_units()
    return {
        "workload": w.name, "seed": seed, "trace": 1, "n_steps": w.n_steps,
        "op_wall_s": {"untraced": walls[:2], "traced": walls[2]},
        "op_cpu_s": {"untraced": cpus[:2], "traced": cpus[2]},
        "hashes": hashes[2], "spans": len(tracer.spans),
        "metrics": {name: (value, units[name]) for name, value in metrics.items()},
        "verdicts": verdicts, "reasons": reasons,
    }


def layer_metrics(tracer: Tracer, scene, w) -> dict[str, float]:
    phase = {"bench.setup": tracer.summary("bench.setup"), "bench.op": tracer.summary("bench.op")}
    metrics = {}
    for table, root in ((SPAN_METRICS, "bench.op"), (SETUP_SPAN_METRICS, "bench.setup")):
        for name, (spans, f) in table.items():
            metrics[name] = sum(phase[root].get(s, {}).get(f, 0) for s in spans)

    op_observed = tracer.observed_under("bench.op")
    metrics["proxy.cells"] = sum(op_observed.get("proxy.proxy_matrix", []))

    results = op_observed.get("solver.estimate", [])
    finite = sum(int(np.isfinite(r.state.errors).sum()) for r in results)
    gated = sum(int((np.isfinite(r.state.errors) & ~r.gate).sum()) for r in results)
    iterations = sum(int(r.state.iterations.sum()) for r in results)
    loops = sum(len(h) - 1 for r in results for h in r.state.objective_history)
    metrics["reconcile.gated_frac"] = gated / finite if finite else 0.0
    metrics["solver.iterations_total"] = iterations
    metrics["solver.descent_loops"] = loops
    metrics["solver.refine_active_ratio"] = iterations / (w.n_steps * loops) if loops else 0.0

    clear = sum(op_observed.get("orientation.select_clear", []))
    power = scene.synth.dataset.power_matrix()
    valid = int((scene.daytime[:, None] & np.isfinite(power)).sum())
    metrics["orientation.clear_frac"] = clear / valid
    return metrics


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def provenance(w, args) -> dict:
    return {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "solver_threads": 1,
        "src_lines": src_line_count(),
    }


def report(w, args, record) -> None:
    res = record["result"]
    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  T={w.n_steps}")
    for name, m in res["metrics"].items():
        print(f"  {name:<38s} {m['value']:>14.6g} {m['unit']}")
    failed_frac = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    print(f"  {'failed_frac':<38s} {failed_frac:>14.6g} ratio "
          f"({res['failed']} of {res['attempted']} operations)")
    units = {"ghi_rmse_wm2": "W/m2", "pnom_err_max_pct": "%"}
    for name, value in record["quality"].items():
        print(f"  {name:<38s} {value:>14.6g} {units[name]}")
    if "cpu_us_per_sample" in record:
        print(f"  {'cpu_us_per_sample':<38s} {record['cpu_us_per_sample']:>14.6g} us "
              f"(median of {len(record['op_cpu_s'])} operations)")
    for name, digest in record["hashes"].items():
        print(f"  {name:<38s} {digest}")
    print(f"  provenance {json.dumps(record['provenance'])}")
    for reason in record["reasons"]:
        print(f"  GATE FAILED: {reason}")
