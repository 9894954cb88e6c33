"""Benchmark command: run one workload of irsofdm and print its metrics.

    python3 perfbench/run.py --workload desk-power --seed 0 --seconds 20 --trace 0

Run from anywhere inside a source tree that holds `src/irsofdm`; the package
is imported from that tree, never from an installed copy.  BLAS and OpenMP
thread pools are set to the number of usable cores before numpy loads.
The last line of standard output is the JSON result; see README.md.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main():
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    if not (ROOT / "src" / "irsofdm" / "cli.py").is_file():
        print(f"perfbench: no irsofdm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench  # after the thread caps, since it loads numpy

    return bench.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
