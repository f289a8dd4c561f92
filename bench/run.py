"""Benchmark entry point; run it from the repository root.

    python3 bench/run.py --workload estimate-season-15min --seed 1 --seconds 56 --trace 0

Workloads: estimate-season-15min, cli-pipeline-45d.
The process pins BLAS to one thread in its own environment before
numpy is imported, and measures the pvghi sources under ``src/`` of
the checkout it sits in; it refuses to run without them.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    for var in BLAS_VARS:
        os.environ[var] = "1"
    bench = Path(__file__).resolve().parent
    src = bench.parent / "src"
    if not (src / "pvghi" / "__init__.py").is_file():
        print(f"error: no pvghi sources at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(bench), str(src)]
    import pvghi

    if Path(pvghi.__file__).resolve().parent != src / "pvghi":
        print(f"error: pvghi imported from {pvghi.__file__}, not {src}", file=sys.stderr)
        return 2
    import harness

    return harness.main(sys.argv[1:], t_start=T_START)


if __name__ == "__main__":
    sys.exit(main())
