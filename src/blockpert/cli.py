"""Command-line front end.

Subcommands:

- ``diagonalize``: read a problem document, evaluate requested blocks and
  orders of the effective Hamiltonian, write a result document. Its
  metadata holds the product count, ``stacked`` of them formed in
  ``stacks`` batches, timings and tolerances, the basis ``width`` and
  ``dropped`` directions of each factored block, and for an implicit
  problem the fill of its factorizations and its worst solve.
- ``spectrum``: sweep parameter values on a grid and emit the eigenvalues of
  the truncated effective block as CSV.
- ``verify``: run the invariant suite (unitarity, cancellation, similarity,
  oracle equivalence) on a document and report pass/fail per invariant.
- ``bench counts``: matrix products per order for this engine and for the
  textbook expressions of the reference.

Exit codes: 0 success, 1 verification failure, 2 parse error, 3 validation
or degeneracy error, 4 solver failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from itertools import product as cartesian

import numpy as np

from blockpert.diagonalization import (
    PerturbationProblem,
    _hermitian_eigenvalues,
    block_diagonalize,
    evaluate_truncated,
)
from blockpert.documents import (
    DocumentError,
    load_problem,
    result_document,
    write_document,
)
from blockpert.implicit import DeflationError, FactorizationError, ShiftedSolverSet
from blockpert.operators import Zero, to_array
from blockpert.oracles import reference_count_benchmark
from blockpert.problems import random_two_block
from blockpert.verify import orders_with_total_up_to, run_verification

__all__ = ["main"]

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_SOLVER = 4

# Bytes of truncated blocks `spectrum` holds at once; larger grids go in chunks.
SPECTRUM_CHUNK_BYTES = 32 * 2**20


def _parse_order(text: str) -> tuple[int, ...]:
    try:
        order = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise DocumentError(f"Invalid order specification {text!r}.")
    return _non_negative(order)


def _non_negative(order: tuple[int, ...]) -> tuple[int, ...]:
    if any(n < 0 for n in order):
        raise DocumentError(f"Orders must be non-negative, got {order}.")
    return order


def _requested_orders(args, n_params: int) -> list[tuple[int, ...]]:
    orders = []
    for text in args.order or []:
        order = _parse_order(text)
        if len(order) != n_params:
            raise DocumentError(
                f"Order {order} has {len(order)} components; the problem "
                f"has {n_params} parameters."
            )
        orders.append(order)
    if args.max_order is not None:
        _non_negative((args.max_order,))
        zero_order = (0,) * n_params
        orders.append(zero_order)
        orders.extend(orders_with_total_up_to(n_params, args.max_order))
    if not orders:
        raise DocumentError("Request at least one --order or --max-order.")
    seen = []
    for order in orders:
        if order not in seen:
            seen.append(order)
    return seen


def _check_block(block: tuple[int, int], problem: PerturbationProblem):
    """Reject a block outside the problem or inside its implicit complement."""
    if not all(0 <= index < problem.n_blocks for index in block):
        raise DocumentError(
            f"Block {block} is outside the problem's {problem.n_blocks} blocks."
        )
    if set(block) <= problem.large_blocks:
        raise DocumentError(f"Block {block} is implicit and has no dense form.")


def cmd_diagonalize(args) -> int:
    problem = load_problem(args.input, tol_override=args.tol_degeneracy)[0]
    blocks = [tuple(b) for b in args.block or [(0, 0)]]
    for block in blocks:
        _check_block(block, problem)
    started = time.perf_counter()
    result = block_diagonalize(problem)
    build_time = time.perf_counter() - started
    orders = _requested_orders(args, problem.n_params)
    entries = []
    started = time.perf_counter()
    for block, order in cartesian(blocks, orders):
        value = result.h_tilde.get(block, order)
        if isinstance(value, Zero):
            entries.append((block, order, None))
        else:
            entries.append((block, order, to_array(value)))
    evaluate_time = time.perf_counter() - started
    tolerances = {}
    if problem.tolerance is not None:
        tolerances["degeneracy"] = problem.tolerance
    metadata = {
        "matmul_count": result.counter.matmul_count,
        "stacked": result.counter.stacked,
        "stacks": result.counter.stacks,
        "timings": {"build": build_time, "evaluate": evaluate_time},
        "tolerances": tolerances,
        "factored_blocks": {
            str(label): {"width": basis.width, "dropped": basis.dropped}
            for label, basis in sorted(result.context["W"].large_blocks.items())
        },
    }
    if isinstance(problem.solver, ShiftedSolverSet):
        metadata["implicit"] = _solver_report(problem.solver)
    write_document(result_document(entries, metadata), args.output)
    return EXIT_OK


def _solver_report(solver: ShiftedSolverSet) -> dict:
    """Fill of the shifted factorizations, summed over the explicit states,
    and the worst relative residual and refinement steps of the solves;
    ``None`` where no solve ran."""
    records = solver.records
    return {
        "factor_nnz": sum(solver.factor_nnz),
        "factor_bytes": sum(solver.factor_bytes),
        "max_residual": max((record.residual for record in records), default=None),
        "max_steps": max((record.steps for record in records), default=None),
    }


def _parse_grid(specs, param_names) -> list[np.ndarray]:
    """Axes from ``name=value`` or ``name=lo:hi:n[:log]`` specifications."""
    axes = [np.zeros(1) for _ in param_names]
    seen = set()
    for spec in specs or []:
        name, _, body = spec.partition("=")
        parts = body.split(":")
        if "=" not in spec or len(parts) not in (1, 3, 4):
            raise DocumentError(f"Grid {spec!r} must look like name=lo:hi:n[:log].")
        if name not in param_names:
            raise DocumentError(
                f"Unknown parameter {name!r}; have {list(param_names)}."
            )
        if name in seen:
            raise DocumentError(f"Parameter {name!r} has more than one --grid.")
        seen.add(name)
        try:
            bounds = [float(part) for part in parts[:2]]
            count = int(parts[2]) if len(parts) > 2 else 1
        except ValueError:
            raise DocumentError(f"Grid {spec!r} has a non-numeric bound or count.")
        if not np.all(np.isfinite(bounds)):
            raise DocumentError(f"Grid {spec!r} has a non-finite bound.")
        low, high = bounds[0], bounds[-1]
        log = len(parts) == 4
        if count < 1:
            raise DocumentError(f"Grid {spec!r} needs at least one point.")
        if log and parts[3] != "log":
            raise DocumentError(f"Grid {spec!r}: the fourth field must be 'log'.")
        if log and min(low, high) <= 0:
            raise DocumentError(f"Grid {spec!r}: a log grid needs positive bounds.")
        spacing = np.geomspace if log else np.linspace
        axes[param_names.index(name)] = spacing(low, high, count)
    return axes


def cmd_spectrum(args) -> int:
    problem = load_problem(args.input)[0]
    if args.block and len(args.block) > 1:
        raise DocumentError("spectrum takes one --block.")
    block = tuple(args.block[0]) if args.block else (0, 0)
    _check_block(block, problem)
    if block[0] != block[1]:
        raise DocumentError(f"spectrum needs a diagonal block, got {block}.")
    result = block_diagonalize(problem)
    param_names = list(result.h_tilde.param_names)
    axes = _parse_grid(args.grid, param_names)
    max_orders = _parse_order(args.max_order)
    if len(max_orders) == 1 and problem.n_params > 1:
        max_orders = max_orders * problem.n_params
    if len(max_orders) != problem.n_params:
        raise DocumentError("--max-order must match the number of parameters.")
    size = problem.block_sizes[block[0]]
    # Rows in the order of itertools.product: the last parameter varies fastest.
    points = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, len(axes))
    eigenvalues = np.empty((len(points), size))
    chunk = max(1, SPECTRUM_CHUNK_BYTES // (16 * size * size))
    for start in range(0, len(points), chunk):
        part = slice(start, start + chunk)
        effective = evaluate_truncated(
            result.h_tilde, block, max_orders, points[part], shape=(size, size)
        )
        eigenvalues[part] = _hermitian_eigenvalues(effective)
    header = ",".join(param_names + [f"eig_{k}" for k in range(size)])
    rows = np.hstack([points, eigenvalues])
    output = args.output or sys.stdout
    np.savetxt(output, rows, "%.17g", ",", header=header, comments="", encoding="utf-8")
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.max_order < 1:
        raise DocumentError(f"--max-order must be at least 1, got {args.max_order}.")
    problem = load_problem(args.input)[0]
    if problem.dimension > 512:
        raise DocumentError(
            "verify requires dimension <= 512 so the dense oracles stay "
            "feasible."
        )
    checks = run_verification(problem, args.max_order)
    for check in checks:
        print(check.line())
    report = {
        "checks": [
            {"name": c.name, "passed": c.passed, "detail": c.detail}
            for c in checks
        ]
    }
    if args.output:
        write_document(report, args.output)
    return EXIT_OK if all(c.passed for c in checks) else EXIT_VERIFY


def _engine_counts(offdiagonal: bool, seed: int, max_order: int = 4) -> list[int]:
    energies, perturbations, labels = random_two_block(
        2, 4, seed, offdiagonal_only=offdiagonal
    )
    problem = PerturbationProblem.from_diagonal(energies, perturbations, labels)
    result = block_diagonalize(problem)
    increments = []
    previous = 0
    for order in range(2, max_order + 1):
        result.h_tilde.get((0, 0), (order,))
        increments.append(result.counter.matmul_count - previous)
        previous = result.counter.matmul_count
    return increments


def _reference_counts(offdiagonal: bool, seed: int) -> list[int]:
    counts = []
    for order in (2, 3, 4):
        count, _ = reference_count_benchmark(
            order, seed=seed, offdiagonal_only=offdiagonal
        )
        counts.append(count)
    return counts


def cmd_bench(args) -> int:
    rows = [
        ("dense", "engine", _engine_counts(False, args.seed)),
        ("dense", "reference", _reference_counts(False, args.seed)),
        ("offdiagonal", "engine", _engine_counts(True, args.seed)),
        ("offdiagonal", "reference", _reference_counts(True, args.seed)),
    ]
    print("perturbation  implementation  order2  order3  order4")
    for structure, implementation, counts in rows:
        print(
            f"{structure:<12}  {implementation:<14}  "
            + "  ".join(f"{c:<6}" for c in counts)
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blockpert",
        description="Arbitrary-order quasi-degenerate perturbation theory.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    diag = commands.add_parser(
        "diagonalize", help="evaluate effective-Hamiltonian entries"
    )
    diag.add_argument("--input", required=True)
    diag.add_argument("--output")
    diag.add_argument(
        "--block", nargs=2, type=int, action="append", metavar=("I", "J")
    )
    diag.add_argument("--order", action="append", metavar="N1,N2,...")
    diag.add_argument("--max-order", type=int)
    diag.add_argument("--tol-degeneracy", type=float, default=None)
    diag.set_defaults(run=cmd_diagonalize)

    spectrum = commands.add_parser(
        "spectrum", help="eigenvalues of the truncated effective block on a grid"
    )
    spectrum.add_argument("--input", required=True)
    spectrum.add_argument("--output")
    spectrum.add_argument("--block", nargs=2, type=int, action="append")
    spectrum.add_argument("--max-order", required=True, metavar="N1,N2,...")
    spectrum.add_argument("--grid", action="append", metavar="name=lo:hi:n")
    spectrum.set_defaults(run=cmd_spectrum)

    verify = commands.add_parser("verify", help="run the invariant suite")
    verify.add_argument("--input", required=True)
    verify.add_argument("--output")
    verify.add_argument("--max-order", type=int, default=4)
    verify.set_defaults(run=cmd_verify)

    bench = commands.add_parser("bench", help="matrix products per order")
    bench.add_argument("scenario", choices=("counts",))
    bench.add_argument("--seed", type=int, default=0)
    bench.set_defaults(run=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except DocumentError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_PARSE
    except (DeflationError, FactorizationError, np.linalg.LinAlgError) as error:
        print(f"solver error: {error}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as error:  # RuleValidationError among them
        print(f"validation error: {error}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
