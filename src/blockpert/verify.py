"""Invariant suite: unitarity, cancellation, similarity, and oracle checks.

Used by the command-line ``verify`` subcommand and by tests. The checks share
no code with the engine they test. Each order of ``U``, ``U†``, ``H`` and
``H̃`` up to the total order checked becomes one full matrix, and ``(U†U)_n``
and ``(U†(HU))_n`` are Cauchy sums of plain matrix products over the orders
``m <= n``. A sum is rounded by about the machine epsilon times the largest
term it adds, so the deviation of order ``n`` may reach the check's
tolerance times that largest entry (at least 1). The gauge check, on every
problem, asks that ``U' = U - 1`` have no anti-Hermitian part on the selected
elements; with unitarity and cancellation this fixes ``U`` and ``H̃``. The
Schrieffer-Wolff check, for two whole blocks, compares with the
order-by-order ``exp(S)`` oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as cartesian

import numpy as np

from blockpert.diagonalization import DiagonalizationResult, block_diagonalize
from blockpert.operators import Zero, to_array
from blockpert.oracles import sw_reference

__all__ = ["CheckResult", "run_verification", "orders_with_total_up_to"]

UNITARITY_TOL = 1e-12
SIMILARITY_TOL = 1e-12
CANCELLATION_TOL = 1e-12
SW_TOL = 1e-10
GAUGE_TOL = 1e-12

# Tolerance and report of each numerical check, in report order.
_NUMERICAL = {
    "unitarity": (UNITARITY_TOL, "max |(U†U)_n - δ_n| = {:.3e} for orders <= {}"),
    "similarity": (SIMILARITY_TOL, "max |(U†HU)_n - H̃_n| = {:.3e}"),
    "cancellation": (CANCELLATION_TOL, "max remaining part of U†HU = {:.3e}"),
    "sw-equivalence": (SW_TOL, "max deviation from exp(S) oracle = {:.3e}"),
    "gauge-structure": (GAUGE_TOL, "max |U'_n - U'_n†| on selected elements = {:.3e}"),
}


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    value: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: {self.detail}"


def orders_with_total_up_to(n_params: int, max_total: int):
    """Multi-indices with total order between 1 and ``max_total``."""
    for order in cartesian(*(range(max_total + 1),) * n_params):
        if 0 < sum(order) <= max_total:
            yield order


def _largest(matrix) -> float:
    return float(np.max(np.abs(matrix)))


def _full_matrices(get, ranges, orders) -> dict:
    """``{order: full matrix}`` from a block getter ``get(block, order)``,
    with ``0.0`` where every block of the order is a structural zero."""
    matrices = {}
    for order in orders:
        full = 0.0
        for (i, rows), (j, cols) in cartesian(enumerate(ranges), repeat=2):
            block = get((i, j), order)
            if isinstance(block, Zero):
                continue
            if np.isscalar(full):
                full = np.zeros((ranges[-1].stop,) * 2, dtype=np.complex128)
            full[rows, cols] = to_array(block, full[rows, cols].shape)
        matrices[order] = full
    return matrices


def _cauchy(left: dict, right: dict, order) -> tuple:
    """Order ``order`` of the product of two per-order matrix series, and
    the largest entry of the terms summed into it. A scalar stands for that
    multiple of the identity."""
    total, largest = 0.0, 0.0
    for m in cartesian(*(range(n + 1) for n in order)):
        a, b = left[m], right[tuple(n - k for n, k in zip(order, m))]
        term = a * b if np.isscalar(a) or np.isscalar(b) else a @ b
        total, largest = total + term, max(largest, _largest(term))
    return total, largest


def _check(name, deviations, max_order) -> CheckResult:
    """Pass when each ``(deviation, scale)`` pair of the check has
    ``deviation <= tolerance * max(1, scale)``; report the worst deviation."""
    tolerance, detail = _NUMERICAL[name]
    worst = max((d for d, _ in deviations[name]), default=0.0)
    passed = all(d <= tolerance * max(1.0, s) for d, s in deviations[name])
    return CheckResult(name, passed, detail.format(worst, max_order), value=worst)


def run_verification(
    problem, max_order: int, result: DiagonalizationResult | None = None
) -> list[CheckResult]:
    """Run the invariant suite up to a total order on one problem."""
    if result is None:
        result = block_diagonalize(problem)
    splits = np.cumsum((0, *problem.block_sizes))
    ranges = [slice(a, b) for a, b in zip(splits, splits[1:])]
    checked = list(orders_with_total_up_to(problem.n_params, max_order))
    orders = [problem.zero_order(), *checked]
    u = _full_matrices(result.u.get, ranges, orders)
    u_adjoint = _full_matrices(result.u_adjoint.get, ranges, orders)
    h = _full_matrices(lambda block, n: problem.block(*block, n), ranges, orders)
    h_tilde = _full_matrices(result.h_tilde.get, ranges, checked)
    for series in (u, u_adjoint):  # products with an identity cost nothing
        if np.array_equal(series[orders[0]], np.eye(splits[-1])):
            series[orders[0]] = 1.0
    h_u, inner = {}, {}
    for n in orders:
        h_u[n], inner[n] = _cauchy(h, u, n)
    # Elements that the transformation must cancel, whole blocks or masked.
    remaining = np.ones((splits[-1],) * 2, dtype=bool)
    for i, rows in enumerate(ranges):
        mask = problem.rule.remaining_mask((i, i))
        remaining[rows, rows] = False if mask is None else mask

    deviations = {name: [] for name in _NUMERICAL}
    for n in checked:
        identity, largest = _cauchy(u_adjoint, u, n)
        deviations["unitarity"].append((_largest(identity), largest))
        transformed, largest = _cauchy(u_adjoint, h_u, n)
        largest = max(largest, inner[n])  # (HU)_n's terms enter through U†_0
        deviations["similarity"].append((_largest(transformed - h_tilde[n]), largest))
        deviations["cancellation"].append((_largest(transformed * remaining), largest))
        # The gauge: U' = U - 1 has no anti-Hermitian part on selected elements.
        x = np.asarray(u[n])
        defect = np.where(remaining, 0.0, x - x.conj().T)
        deviations["gauge-structure"].append((_largest(defect), _largest(x)))
    pairs = cartesian(checked, cartesian(range(problem.n_blocks), repeat=2))
    structural = all(
        isinstance(result.h_tilde.get(ij, n), Zero) for n, ij in pairs if ij[0] != ij[1]
    )
    checks = [_check(name, deviations, max_order) for name in list(_NUMERICAL)[:3]]
    zeros = "off-diagonal blocks of H̃ are structural zeros"
    checks.append(CheckResult("structural-zeros", structural, zeros))
    gauge = _check("gauge-structure", deviations, max_order)
    if problem.n_blocks != 2 or problem.rule.masks or problem.implicit:
        return checks + [gauge]

    # Two whole blocks: the exp(S) oracle. An order may deviate by the
    # tolerance times the largest entry of what it compares.
    h_ref, u_ref, _ = sw_reference(
        np.concatenate(problem.eigenvalues),
        {n: h[n] for n in checked if not np.isscalar(h[n])},
        problem.block_sizes[0],
        (max_order,) * problem.n_params,
    )
    for n in checked:
        for engine, reference in ((h_tilde[n], h_ref), (u[n], u_ref)):
            reference = reference.get(n, 0.0)
            scale = max(_largest(engine), _largest(reference))
            deviations["sw-equivalence"].append((_largest(engine - reference), scale))
    return checks + [_check("sw-equivalence", deviations, max_order), gauge]
