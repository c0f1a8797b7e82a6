"""Implicit mode at large widths: factorization and solve time, factor fill
and bytes, and peak memory, for one or more source trees.

Usage, from the root of a checkout:

    python3 tools/implicit_scale.py src /path/to/other/checkout/src --widths 100 200 300

Each measurement runs in a process of its own, which imports ``blockpert``
from the given ``src`` directory and uses one BLAS thread. It builds the
disordered lattice of the given width (``lattice_problem(width, SEED)``),
finds its ``STATES`` lowest states with ``eigsh`` (untimed), builds the
implicit problem and computes ``H̃[0,0]`` to order 6. Trees alternate
within each of ``REPEATS`` rounds. The table gives medians over the rounds
of

- ``factorize s``: the construction of a `ShiftedSolverSet`, all LUs,
  median of ``FACTORIZE_REPEATS`` per process, made before the run;
- ``solve s``: ``H̃[0,0]`` orders 1-6 after the set-up;
- ``nnz/state`` and ``factor MB``: ``factor_nnz`` of one state and the sum
  of ``factor_bytes`` over all states, which repeat exactly;
- ``peak RSS MB``: the process's peak resident memory, inputs included.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench.run import CHILD_ENV  # noqa: E402  one BLAS thread, as the benchmark

STATES = 10
SEED = 1
# Rounds per width; each tree runs once per round.
REPEATS = 5
MAX_ORDER = 6
# Solver sets timed per process, before the run, whose peak is higher.
FACTORIZE_REPEATS = 3


def measure(width: int) -> dict:
    """One measurement in this process; ``blockpert`` is imported here."""
    import numpy as np
    import scipy.linalg
    import scipy.sparse.linalg as sla

    import blockpert
    from blockpert.diagonalization import block_diagonalize
    from blockpert.implicit import ShiftedSolverSet, build_extended_problem
    from blockpert.problems import lattice_problem

    h0, perturbations = lattice_problem(width, SEED)
    v0 = np.random.default_rng(SEED).standard_normal(h0.shape[0])
    _, vectors = sla.eigsh(h0, k=STATES, which="SA", v0=v0)
    basis, _ = scipy.linalg.qr(vectors, mode="economic")
    energies, rotation = scipy.linalg.eigh(basis.conj().T @ (h0 @ basis))
    vectors = basis @ rotation

    factorize = []
    for _ in range(FACTORIZE_REPEATS):  # each set is freed before the next
        started = time.perf_counter()
        ShiftedSolverSet(h0, vectors, energies)
        factorize.append(time.perf_counter() - started)
    problem = build_extended_problem(h0, perturbations, vectors, energies)
    result = block_diagonalize(problem)
    started = time.perf_counter()
    for order in range(1, MAX_ORDER + 1):
        result.h_tilde.get((0, 0), (order,))
    solve = time.perf_counter() - started
    solver = problem.solver
    return {
        "blockpert": blockpert.__file__,
        "sites": h0.shape[0],
        "factorize_s": statistics.median(factorize),
        "solve_s": solve,
        "factor_nnz": list(solver.factor_nnz),
        "factor_bytes": sum(solver.factor_bytes),
        "steps": sorted({record.steps for record in solver.records}),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }


def run_child(src: Path, width: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), **CHILD_ENV)
    command = [sys.executable, __file__, "--measure", str(width)]
    done = subprocess.run(command, env=env, capture_output=True, text=True, check=True)
    row = json.loads(done.stdout.strip().splitlines()[-1])
    if not Path(row["blockpert"]).resolve().is_relative_to(src):
        raise RuntimeError(f"blockpert was imported from {row['blockpert']}, not {src}")
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="*", type=Path, help="src directories to compare")
    parser.add_argument("--widths", type=int, nargs="+", default=[100, 200, 300])
    parser.add_argument("--measure", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.measure is not None:
        print(json.dumps(measure(args.measure)))
        return 0
    if not args.src:
        parser.error("give at least one src directory")
    trees = [src.resolve() for src in args.src]
    print("| width | sites | src | factorize s | solve s | nnz/state | factor MB "
          "| peak RSS MB | steps |")
    print("|---|---|---|---|---|---|---|---|---|")
    for width in args.widths:
        rows = {tree: [] for tree in trees}
        for repeat in range(REPEATS):
            for tree in trees if repeat % 2 == 0 else trees[::-1]:
                rows[tree].append(run_child(tree, width))
        for tree, runs in rows.items():
            first = runs[0]
            nnz = sorted(set(first["factor_nnz"]))
            print(
                f"| {width} | {first['sites']:,} | {tree} "
                f"| {statistics.median(r['factorize_s'] for r in runs):.3f} "
                f"| {statistics.median(r['solve_s'] for r in runs):.3f} "
                f"| {', '.join(f'{n:,}' for n in nnz)} "
                f"| {first['factor_bytes'] / 1e6:.1f} "
                f"| {statistics.median(r['peak_rss_mb'] for r in runs):.0f} "
                f"| {first['steps']} |",
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
