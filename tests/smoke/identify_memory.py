"""Identification's and estimation's CPU time and memory at the paper's 1-min cadence.

Synthesizes 30 days at 1 min from 2015-05-01 (latitude 47.5, longitude
7.5, 300 m): the acceptance suite's four plants p1-p4 at their stated
angles, off the mesh where they fall off it, with 1 % noise, the
default cloud model and seed 1. Then it runs ``identify`` in this
process on splits (30, 15, 10) at the given mesh level, and
``estimate`` with the identified coefficients and the default solver
settings, with one BLAS thread, and prints:

- ``identify_cpu_s``: the process CPU time of ``identify``;
- ``ru_maxrss_mb``: the process's peak resident set after it;
- ``tracemalloc_peak_mb``: the traced peak of a second ``identify`` run,
  above what was allocated before it (tracing slows that run, so its
  time is not the one printed);
- ``estimate_cpu_s`` and ``estimate_tracemalloc_peak_mb``: the same two
  figures for ``estimate`` on all 43,200 steps;
- each plant's rating against its true nominal power.

    PYTHONPATH=src python tests/smoke/identify_memory.py --level 3

A developer probe, not a gate on its figures, which depend on the host;
the test suite runs it at ``--level 1`` to check that it still runs and
rates every plant.
"""

import os

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import argparse  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402

import numpy as np  # noqa: E402

from pvghi import synth  # noqa: E402
from pvghi.data import Site  # noqa: E402
from pvghi.orientation import OrientationConfig, identify  # noqa: E402
from pvghi.proxy import ProxyParams  # noqa: E402
from pvghi.solar import Orientation  # noqa: E402
from pvghi.solver import SolverConfig, estimate  # noqa: E402

# (tilt deg, azimuth deg) -> nominal power W, per plant
FIELDS = {
    "p1": (((26.57, 180.0), 8000.0),),
    "p2": (((43.65, 94.39), 4000.0), ((43.65, 265.61), 4500.0)),
    "p3": (((0.0, 0.0), 10000.0),),
    "p4": (((26.57, 180.0), 6600.0),),
}


def scene() -> synth.SyntheticDataset:
    plants = tuple(
        synth.PlantSpec(
            pid,
            tuple((Orientation(np.deg2rad(t), np.deg2rad(a)), pnom) for (t, a), pnom in fields),
            noise_rel=0.01,
        )
        for pid, fields in FIELDS.items()
    )
    site = Site(latitude=47.5, longitude=7.5, altitude=300.0)
    ts = synth.make_timestamps("2015-05-01T00:00:00", 30, 60)
    return synth.synthesize(synth.SyntheticSpec(plants=plants), site, ts, seed=1)


def traced_peak_mb(func, *args) -> float:
    """The tracemalloc peak of ``func(*args)`` above what was allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        func(*args)
        return (tracemalloc.get_traced_memory()[1] - before) / 1e6
    finally:
        tracemalloc.stop()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--level", type=int, default=3, help="mesh subdivision level (1-4)")
    level = parser.parse_args().level
    data = scene()
    cfg = OrientationConfig(subdivision=level, split_candidates=(30, 15, 10))
    params = ProxyParams()

    cpu = time.process_time()
    result = identify(data.dataset, data.ghi_clear, params, cfg)
    cpu = time.process_time() - cpu
    maxrss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    peak_mb = traced_peak_mb(identify, data.dataset, data.ghi_clear, params, cfg)

    solve = (data.dataset, result.omegas, result.mesh.orientations, params, SolverConfig(),
             data.ghi_clear)
    estimate_cpu = time.process_time()
    estimate(*solve)
    estimate_cpu = time.process_time() - estimate_cpu
    estimate_peak_mb = traced_peak_mb(estimate, *solve)

    print(f"mesh level {level}: {len(result.mesh)} planes, {data.dataset.n_steps} steps, "
          f"split {result.report.chosen_split} d")
    print(f"identify_cpu_s      {cpu:.2f}")
    print(f"tracemalloc_peak_mb {peak_mb:.1f}")
    print(f"ru_maxrss_mb        {maxrss_mb:.0f}")
    print(f"estimate_cpu_s      {estimate_cpu:.2f}")
    print(f"estimate_tracemalloc_peak_mb {estimate_peak_mb:.1f}")
    for oc in result.omegas:
        true_pnom = sum(pnom for _, pnom in FIELDS[oc.plant_id])
        print(f"rating {oc.plant_id}  {oc.estimated_pnom:.6f} W  "
              f"{100 * (oc.estimated_pnom / true_pnom - 1):+.3f} %")


if __name__ == "__main__":
    main()
