"""Command-line front end.

Subcommands:

- ``diagonalize``: read a problem document, evaluate requested blocks and
  orders of the effective Hamiltonian, write a result document.
- ``spectrum``: sweep parameter values on a grid and emit the eigenvalues of
  the truncated effective block as CSV.
- ``verify``: run the invariant suite (unitarity, cancellation, similarity,
  oracle equivalence) on a document and report pass/fail per invariant.
- ``bench``: operation-count tables for this engine and the reference, or
  phase timings of the implicit method on a generated lattice.

Exit codes: 0 success, 1 verification failure, 2 parse error, 3 validation
or degeneracy error, 4 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import product as cartesian

import numpy as np
import scipy.sparse.linalg as sla

from blockpert.diagonalization import (
    DegenerateSubspaceError,
    PerturbationProblem,
    block_diagonalize,
    evaluate_truncated,
)
from blockpert.documents import (
    DocumentError,
    load_problem,
    result_document,
)
from blockpert.implicit import DeflationError, FactorizationError, build_extended_problem
from blockpert.operators import Zero, to_array
from blockpert.oracles import reference_count_benchmark
from blockpert.problems import lattice_problem, random_two_block
from blockpert.separation import RuleValidationError
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


def _write_output(payload: dict, path: str | None):
    if path:
        with open(path, "w") as handle:
            json.dump(payload, handle, allow_nan=False)
            handle.write("\n")
    else:
        json.dump(payload, sys.stdout, allow_nan=False)
        sys.stdout.write("\n")


def cmd_diagonalize(args) -> int:
    problem, doc = load_problem(args.input, tol_override=args.tol_degeneracy)
    if args.implicit and not problem.implicit:
        raise DocumentError(
            "--implicit requires an implicit subspace definition in the "
            "document."
        )
    retention = args.retention or doc.get("options", {}).get("retention", "keep")
    if retention not in ("keep", "discard"):
        raise ValueError("retention must be 'keep' or 'discard'.")
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
    if retention == "discard":
        result.clear_intermediates()
    tolerances = {}
    if problem.eig is not None:
        tolerances["degeneracy"] = problem.eig.tolerance
    payload = result_document(
        entries,
        metadata={
            "matmul_count": result.counter.matmul_count,
            "timings": {"build": build_time, "evaluate": evaluate_time},
            "tolerances": tolerances,
        },
    )
    _write_output(payload, args.output)
    return EXIT_OK


def _parse_grid(specs, param_names) -> list[np.ndarray]:
    axes = [np.zeros(1) for _ in param_names]
    for spec in specs or []:
        if "=" not in spec:
            raise DocumentError(f"Grid {spec!r} must look like name=lo:hi:n.")
        name, body = spec.split("=", 1)
        if name not in param_names:
            raise DocumentError(
                f"Unknown parameter {name!r}; have {list(param_names)}."
            )
        index = param_names.index(name)
        parts = body.split(":")
        if len(parts) == 1:
            axes[index] = np.array([float(parts[0])])
        elif len(parts) in (3, 4):
            low, high, count = float(parts[0]), float(parts[1]), int(parts[2])
            if len(parts) == 4 and parts[3] == "log":
                axes[index] = np.geomspace(low, high, count)
            else:
                axes[index] = np.linspace(low, high, count)
        else:
            raise DocumentError(f"Grid {spec!r} must look like name=lo:hi:n.")
    return axes


def cmd_spectrum(args) -> int:
    problem, _ = load_problem(args.input)
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
        eigenvalues[part] = np.linalg.eigvalsh(effective)
    header = ",".join(param_names + [f"eig_{k}" for k in range(size)])
    rows = np.hstack([points, eigenvalues])
    output = args.output or sys.stdout
    np.savetxt(output, rows, "%.17g", ",", header=header, comments="", encoding="utf-8")
    return EXIT_OK


def cmd_verify(args) -> int:
    problem, _ = load_problem(args.input)
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
        _write_output(report, args.output)
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
    if args.scenario == "counts":
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
    # implicit-timing scenario
    width = args.size
    h0, perturbations = lattice_problem(width, seed=args.seed)
    n_low = 10
    started = time.perf_counter()
    eigenvalues, vectors = sla.eigsh(h0, k=n_low, which="SA")
    diagonalization_time = time.perf_counter() - started
    started = time.perf_counter()
    problem = build_extended_problem(h0, perturbations, vectors, eigenvalues)
    result = block_diagonalize(problem)
    factorization_time = time.perf_counter() - started
    started = time.perf_counter()
    for order in range(1, 4):
        result.h_tilde.get((0, 0), (order,))
    corrections_time = time.perf_counter() - started
    started = time.perf_counter()
    sla.eigsh(h0, k=n_low, which="SA")
    second_diagonalization = time.perf_counter() - started
    print(f"lattice {width}x{width}, {n_low} explicit states")
    print(f"sparse diagonalization  {diagonalization_time:10.4f} s")
    print(f"factorizations          {factorization_time:10.4f} s")
    print(f"corrections (orders<=3) {corrections_time:10.4f} s")
    print(f"reference: one extra sparse diagonalization {second_diagonalization:10.4f} s")
    total = factorization_time + corrections_time
    verdict = "below" if total < second_diagonalization else "NOT below"
    print(
        f"correction cost {total:.4f} s is {verdict} one sparse "
        f"diagonalization (machine-dependent)"
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
    diag.add_argument("--implicit", action="store_true")
    diag.add_argument(
        "--retention", choices=("keep", "discard"), default=None
    )
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

    bench = commands.add_parser("bench", help="operation counts and timings")
    bench.add_argument("scenario", choices=("counts", "implicit-timing"))
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--size", type=int, default=52)
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
    except (RuleValidationError, DegenerateSubspaceError) as error:
        print(f"validation error: {error}", file=sys.stderr)
        return EXIT_VALIDATION
    except (DeflationError, FactorizationError, np.linalg.LinAlgError) as error:
        print(f"solver error: {error}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as error:
        print(f"validation error: {error}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
