"""Benchmark entry point: one workload run in a child process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense_two_block --seed 1 --seconds 20 --trace 0

The child imports ``blockpert`` from this checkout's ``src`` directory and
runs with one BLAS thread. Its standard output is passed through; the last
line is the JSON result. ``perfbench/report.py`` runs every workload and
prints the tables.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 170

# Set in the child only: one BLAS thread whichever library numpy loaded,
# one string-hash seed so that dict and set layouts repeat across runs, and
# no transparent-huge-page requests from numpy, whose page-fault compaction
# made the time of large allocations vary by run (0.28-0.62 s for the same
# implicit sweep in one process, 0.28-0.43 s without).
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "NUMPY_MADVISE_HUGEPAGE": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "blockpert" / "__init__.py").is_file():
        print(f"error: no blockpert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **CHILD_ENV)
    command = [sys.executable, "-m", "perfbench.worker", *argv]
    try:
        return subprocess.run(command, cwd=ROOT, env=env, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: the run took longer than {TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
