"""Invariant suite: unitarity, cancellation, similarity, and oracle checks.

Used by the command-line ``verify`` subcommand and by tests. All checks
reconstruct their targets independently of the recurrences under test: the
similarity check multiplies out the Cauchy triple product, and the
Schrieffer-Wolff check uses the order-by-order ``exp(S)`` oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as cartesian

import numpy as np

from blockpert.diagonalization import DiagonalizationResult, block_diagonalize
from blockpert.operators import Zero, to_array
from blockpert.oracles import sw_reference
from blockpert.series import cauchy_product

__all__ = ["CheckResult", "run_verification", "orders_with_total_up_to"]

UNITARITY_TOL = 1e-12
SIMILARITY_TOL = 1e-12
CANCELLATION_TOL = 1e-12
SW_TOL = 1e-10
GAUGE_TOL = 1e-12


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


def _block_array(series, problem, i, j, order):
    shape = (problem.block_sizes[i], problem.block_sizes[j])
    return to_array(series.get((i, j), order), shape)


def run_verification(
    problem, max_order: int, result: DiagonalizationResult | None = None
) -> list[CheckResult]:
    """Run the invariant suite up to a total order on one problem."""
    if result is None:
        result = block_diagonalize(problem)
    b = problem.n_blocks
    checks = []

    scale = max(
        1.0,
        max(
            (float(np.max(np.abs(e))) for e in problem.eigenvalues if e is not None),
            default=1.0,
        ),
    )

    # Unitarity: (U^H U)_n vanishes for every n > 0.
    identity_product = cauchy_product(result.u_adjoint, result.u, name="U†U")
    worst = 0.0
    for order in orders_with_total_up_to(problem.n_params, max_order):
        for i in range(b):
            for j in range(b):
                value = _block_array(identity_product, problem, i, j, order)
                worst = max(worst, float(np.max(np.abs(value))))
    checks.append(
        CheckResult(
            "unitarity",
            worst <= UNITARITY_TOL,
            f"max |(U†U)_n - δ_n| = {worst:.3e} for orders <= {max_order}",
            value=worst,
        )
    )

    # Similarity and cancellation from the reconstructed triple product.
    transformed = cauchy_product(
        result.u_adjoint,
        cauchy_product(result.context["H"], result.u, name="H·U"),
        name="U†HU",
    )
    similarity = 0.0
    cancellation = 0.0
    for order in orders_with_total_up_to(problem.n_params, max_order):
        for i in range(b):
            for j in range(b):
                reconstructed = _block_array(transformed, problem, i, j, order)
                effective = _block_array(result.h_tilde, problem, i, j, order)
                similarity = max(
                    similarity, float(np.max(np.abs(reconstructed - effective)))
                )
                remaining_mask = problem.rule.remaining_mask((i, j))
                if i != j:
                    cancellation = max(
                        cancellation, float(np.max(np.abs(reconstructed)))
                    )
                elif remaining_mask is not None:
                    cancellation = max(
                        cancellation,
                        float(np.max(np.abs(reconstructed * remaining_mask))),
                    )
    checks.append(
        CheckResult(
            "similarity",
            similarity <= SIMILARITY_TOL * scale,
            f"max |(U†HU)_n - H̃_n| = {similarity:.3e}",
            value=similarity,
        )
    )
    checks.append(
        CheckResult(
            "cancellation",
            cancellation <= CANCELLATION_TOL * scale,
            f"max remaining part of U†HU = {cancellation:.3e}",
            value=cancellation,
        )
    )

    # Structural cancellation: the engine never materializes remaining parts
    # of whole blocks.
    structural = True
    for order in orders_with_total_up_to(problem.n_params, max_order):
        for i in range(b):
            for j in range(b):
                if i != j and not isinstance(
                    result.h_tilde.get((i, j), order), Zero
                ):
                    structural = False
    checks.append(
        CheckResult(
            "structural-zeros",
            structural,
            "off-diagonal blocks of H̃ are structural zeros",
        )
    )

    if b == 2 and not problem.rule.masks and not problem.implicit:
        checks.extend(_two_block_checks(problem, result, max_order))
    return checks


def _two_block_checks(problem, result, max_order):
    """Gauge structure and exp(S) equivalence, two whole blocks only."""
    checks = []
    n_a = problem.block_sizes[0]
    energies = np.concatenate(problem.eigenvalues)
    perturbations = {}
    splits = (slice(0, n_a), slice(n_a, problem.dimension))
    for (i, j, order), block in problem.blocks.items():
        if not any(order):
            continue
        full = perturbations.setdefault(
            order, np.zeros((problem.dimension,) * 2, dtype=np.complex128)
        )
        full[splits[i], splits[j]] = to_array(block)
    max_orders = (max_order,) * problem.n_params
    h_ref, u_ref, _ = sw_reference(energies, perturbations, n_a, max_orders)

    worst_h = worst_u = worst_gauge = 0.0
    for order in orders_with_total_up_to(problem.n_params, max_order):
        reference_h = h_ref.get(order)
        reference_u = u_ref.get(order)
        for i in range(2):
            for j in range(2):
                engine_h = _block_array(result.h_tilde, problem, i, j, order)
                engine_u = _block_array(result.u, problem, i, j, order)
                if reference_h is not None:
                    worst_h = max(
                        worst_h,
                        float(
                            np.max(
                                np.abs(engine_h - reference_h[splits[i], splits[j]])
                            )
                        ),
                    )
                if reference_u is not None:
                    worst_u = max(
                        worst_u,
                        float(
                            np.max(
                                np.abs(engine_u - reference_u[splits[i], splits[j]])
                            )
                        ),
                    )
        diag_aa = _block_array(result.u, problem, 0, 0, order)
        diag_bb = _block_array(result.u, problem, 1, 1, order)
        off_ab = _block_array(result.u, problem, 0, 1, order)
        off_ba = _block_array(result.u, problem, 1, 0, order)
        worst_gauge = max(
            worst_gauge,
            float(np.max(np.abs(diag_aa - diag_aa.conj().T))),
            float(np.max(np.abs(diag_bb - diag_bb.conj().T))),
            float(np.max(np.abs(off_ab + off_ba.conj().T))),
        )
    checks.append(
        CheckResult(
            "sw-equivalence",
            max(worst_h, worst_u) <= SW_TOL,
            f"max deviation from exp(S) oracle = {max(worst_h, worst_u):.3e}",
            value=max(worst_h, worst_u),
        )
    )
    checks.append(
        CheckResult(
            "gauge-structure",
            worst_gauge <= GAUGE_TOL,
            f"Hermitian diagonal / antihermitian off-diagonal defect = "
            f"{worst_gauge:.3e}",
            value=worst_gauge,
        )
    )
    return checks
