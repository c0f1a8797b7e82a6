"""Span recording around blockpert's public entry points.

Spans are recorded only from the benchmark's side: `Tracer.instrument`
swaps module-level names that the library looks up at call time (the
``matmul`` used by `blockpert.series` and `blockpert.diagonalization`, the
names `blockpert.cli` imports, the engine's default-solver factory and two
methods of `blockpert.implicit.ShiftedSolverSet`), and
`Tracer.block_diagonalize` wraps the ``eval`` callback of every series in
the result and the solver an implicit problem carries. Spans stay in memory; `Tracer.layers` folds them into
per-layer metrics once the traced repetition has ended.

`NullTracer` has the same interface and adds nothing, so the untimed and
timed code paths are the same calls.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

import numpy as np

import blockpert.cli as cli
import blockpert.diagonalization as diagonalization
import blockpert.series as series_module
from blockpert.diagonalization import block_diagonalize
from blockpert.implicit import ShiftedSolverSet
from blockpert.operators import CountedMatrix, One, OperationCounter, Zero

# Series named in the per-layer table; every other series of the context
# (the inputs, U', the adjoint views, U and U†) is folded into "other".
SERIES_GROUPS = {
    "W": "W",
    "V": "V",
    "A": "A",
    "U'†B": "UdB",
    "VH'_S": "VHS",
    "B": "B",
    "rhs": "rhs",
    "H_tilde": "H_tilde",
}
GROUPS = tuple(SERIES_GROUPS.values()) + ("other",)

# Per-layer metric names and units, in the order they are reported.
LAYER_METRICS = (
    [
        ("diagonalization.assemble_s", "s"),
        ("diagonalization.build_s", "s"),
        ("diagonalization.sylvester_s", "s"),
        ("diagonalization.sylvester_calls", "count"),
        ("diagonalization.evaluate_s", "s"),
        ("diagonalization.evaluate_calls", "count"),
        ("diagonalization.solve_products", "count"),
        ("cli.spectrum.points", "count"),
        ("cli.spectrum.self_s", "s"),
        ("documents.load_s", "s"),
    ]
    + [
        (f"series.{group}.{field}", unit)
        for group in GROUPS
        for field, unit in (("self_s", "s"), ("products", "count"), ("entries", "count"))
    ]
    + [
        ("operators.products", "count"),
        ("operators.matmul_s", "s"),
        ("operators.gflop", "GFLOP"),
        ("operators.gbyte", "GB"),
        ("implicit.validate_s", "s"),
        ("implicit.factorize_s", "s"),
        ("implicit.factorizations", "count"),
        ("implicit.solve_s", "s"),
        ("implicit.solves", "count"),
        ("implicit.max_rel_residual", "ratio"),
        ("implicit.eigsh_ref_s", "s"),
        ("trace.overhead_s", "s"),
        ("fail_frac", "ratio"),
    ]
)

# The original callables, captured at import so that instrumentation can
# always be undone.
_ORIGINAL_MATMUL = series_module.matmul
_ORIGINAL_MAKE_SOLVER = diagonalization.make_eigenbasis_solver
_ORIGINAL_SOLVER_INIT = ShiftedSolverSet.__init__
_ORIGINAL_SHIFTED_SOLVE = ShiftedSolverSet.solve_shifted_deflated


def _dense_shape(x):
    if isinstance(x, CountedMatrix):
        return x.array.shape
    if isinstance(x, np.ndarray):
        return x.shape
    return None


class NullTracer:
    """Untraced calls: the same interface as `Tracer`, adding nothing."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def wrap(self, name, fn):
        return fn

    def block_diagonalize(self, problem):
        return block_diagonalize(problem)

    @contextlib.contextmanager
    def instrument(self):
        yield


class Tracer:
    """In-memory span recorder for one traced repetition.

    A span is a name, a start and end time, the index of the enclosing span
    and, for products, the flop and byte counts computed from the operand
    shapes. Self time is a span's duration minus that of its direct
    children, which nest without overlapping in this single-threaded
    engine.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.flop = 0.0
        self.byte = 0.0
        self.factorizations = 0
        self.max_residual = 0.0
        self.solve_counters: list[OperationCounter] = []
        self.solve_range = (0, 0)
        self._stack: list[int] = []

    # -- span primitives -------------------------------------------------
    def open(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def close(self, index: int):
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    # -- wrapped entry points --------------------------------------------
    def matmul(self, a, b, *, lazy: bool = False):
        index = self.open("operators.matmul")
        try:
            return _ORIGINAL_MATMUL(a, b, lazy=lazy)
        finally:
            self.close(index)
            # Products with zero or one return without arithmetic; the span
            # of a real product is renamed so that the two are told apart.
            if not isinstance(a, (Zero, One)) and not isinstance(b, (Zero, One)):
                self.names[index] = "operators.product"
                shape_a, shape_b = _dense_shape(a), _dense_shape(b)
                if shape_a is not None and shape_b is not None and not lazy:
                    (m, k), n = shape_a, shape_b[1]
                    self.flop += 8.0 * m * k * n
                    self.byte += 16.0 * (m * k + k * n + m * n)

    def block_diagonalize(self, problem):
        """`block_diagonalize` with a traced solver, counter and series.

        The engine picks its solver itself: the default one comes traced
        from the factory `instrument` swaps, and a problem's own solver is
        wrapped here.
        """
        solver = None
        if problem.solver is not None:
            solver = self.wrap("diagonalization.sylvester", problem.solver)
        # The counting backend cannot hold matrix-free blocks, so implicit
        # problems are counted by the matmul wrapper alone.
        counter = None if problem.implicit else OperationCounter()
        result = self.call(
            "diagonalization.build",
            block_diagonalize,
            problem,
            solver,
            counter=counter,
        )
        for series in result.context.values():
            group = SERIES_GROUPS.get(series.name, "other")
            series.eval = self.wrap(f"series.{group}", series.eval)
        if counter is not None:
            self.solve_counters.append(counter)
        return result

    @contextlib.contextmanager
    def instrument(self):
        """Swap the library names the spans are recorded around."""
        tracer = self

        def solver_init(solvers, h0, psi, energies):
            tracer.call(
                "implicit.factorize", _ORIGINAL_SOLVER_INIT, solvers, h0, psi, energies
            )
            tracer.factorizations += solvers.factorization_count

        def shifted_solve(solvers, i, rhs_row):
            row = tracer.call(
                "implicit.solve", _ORIGINAL_SHIFTED_SOLVE, solvers, i, rhs_row
            )
            tracer.max_residual = max(
                tracer.max_residual, _relative_residual(solvers, i, rhs_row, row)
            )
            return row

        def make_solver(*args, **kwargs):
            return tracer.wrap(
                "diagonalization.sylvester", _ORIGINAL_MAKE_SOLVER(*args, **kwargs)
            )

        swaps = [
            (diagonalization, "make_eigenbasis_solver", make_solver),
            (series_module, "matmul", self.matmul),
            (diagonalization, "matmul", self.matmul),
            (cli, "load_problem", self.wrap("documents.load", cli.load_problem)),
            (cli, "block_diagonalize", self.block_diagonalize),
            (
                cli,
                "evaluate_truncated",
                self.wrap("diagonalization.evaluate", cli.evaluate_truncated),
            ),
            (ShiftedSolverSet, "__init__", solver_init),
            (ShiftedSolverSet, "solve_shifted_deflated", shifted_solve),
        ]
        saved = [(owner, name, getattr(owner, name)) for owner, name, _ in swaps]
        try:
            for owner, name, replacement in swaps:
                setattr(owner, name, replacement)
            yield
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)

    # -- aggregation -----------------------------------------------------
    def layers(self) -> dict[str, float]:
        """Per-layer metrics of the recorded spans (traced-run only)."""
        n = len(self.names)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            parent = self.parents[i]
            if parent >= 0:
                child_time[parent] += durations[i]
        self_time: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        products: dict[str, int] = defaultdict(int)
        points = 0
        for i, name in enumerate(self.names):
            if name == "operators.product":
                parent = self.parents[i]
                owner = self.names[parent] if parent >= 0 else ""
                group = owner.split(".")[1] if owner.startswith("series.") else "other"
                products[group] += 1
                name = "operators.matmul"
            elif name == "diagonalization.evaluate":
                parent = self.parents[i]
                points += parent >= 0 and self.names[parent] == "cli.spectrum"
            self_time[name] += durations[i] - child_time[i]
            calls[name] += 1

        metrics = {
            "diagonalization.assemble_s": self_time["diagonalization.assemble"],
            "diagonalization.build_s": self_time["diagonalization.build"],
            "diagonalization.sylvester_s": self_time["diagonalization.sylvester"],
            "diagonalization.sylvester_calls": calls["diagonalization.sylvester"],
            "diagonalization.evaluate_s": self_time["diagonalization.evaluate"],
            "diagonalization.evaluate_calls": calls["diagonalization.evaluate"],
            "cli.spectrum.points": points,
            "cli.spectrum.self_s": self_time["cli.spectrum"],
            "documents.load_s": self_time["documents.load"],
            "operators.products": sum(products.values()),
            "operators.matmul_s": self_time["operators.matmul"],
            "operators.gflop": self.flop / 1e9,
            "operators.gbyte": self.byte / 1e9,
            "implicit.validate_s": self_time["implicit.build"],
            "implicit.factorize_s": self_time["implicit.factorize"],
            "implicit.factorizations": self.factorizations,
            "implicit.solve_s": self_time["implicit.solve"],
            "implicit.solves": calls["implicit.solve"],
            "implicit.max_rel_residual": self.max_residual,
        }
        for group in GROUPS:
            metrics[f"series.{group}.self_s"] = self_time[f"series.{group}"]
            metrics[f"series.{group}.entries"] = calls[f"series.{group}"]
            metrics[f"series.{group}.products"] = products[group]
        lo, hi = self.solve_range
        solve_products = self.names[lo:hi].count("operators.product")
        if self.solve_counters:
            # The engine's own counter is the reference for the solve.
            counted = self.solve_counters[0].matmul_count
            if counted != solve_products:
                raise RuntimeError(
                    f"OperationCounter saw {counted} products in the solve, "
                    f"the matmul spans {solve_products}."
                )
        metrics["diagonalization.solve_products"] = solve_products
        return metrics


def _relative_residual(solvers, i, rhs_row, row) -> float:
    """``|x (H_0 - E_i) - P rhs| / |rhs|`` of one deflated shifted solve."""
    column = np.asarray(rhs_row, dtype=np.complex128).ravel().conj()
    norm = np.linalg.norm(column)
    if norm == 0.0:
        return 0.0
    psi = solvers.psi
    projected = column - psi @ (psi.conj().T @ column)
    solution = np.asarray(row).ravel().conj()
    residual = solvers.h0 @ solution - solvers.energies[i] * solution - projected
    return float(np.linalg.norm(residual) / norm)
