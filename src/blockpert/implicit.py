"""Implicit method for large sparse operators.

Builds an equivalent two-block problem in which a small explicit subspace is
written in its eigenbasis while the large complement is kept in the original
basis, represented by projected action-only operators. The Sylvester
equation is then solved row by row with shifted linear solves: the shifted
operator is singular at each explicit eigenvalue, so every solve is deflated
through a bordered system

    [[H_0 - E_i, Psi_E], [Psi_E^H, 0]] [x; y] = [rhs; 0],

whose unique solution satisfies ``(H_0 - E_i) x = rhs`` and ``Psi_E^H x = 0``.
One factorization per explicit eigenvalue is prepared eagerly at build time
and reused for every order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as sla

from blockpert.operators import MatrixFreeOperator, to_array
from blockpert.diagonalization import (
    PerturbationProblem,
    _check_operand,
    _normalize_orders,
    _require_finite,
)
from blockpert.separation import SeparationRule

__all__ = [
    "DeflationError",
    "FactorizationError",
    "ShiftedSolverSet",
    "ExtendedContext",
    "build_extended_problem",
    "projected_operator",
]

ORTHONORMALITY_ATOL = 1e-10
EIGEN_RESIDUAL_RTOL = 1e-8
DEFLATION_ATOL = 1e-10
RESIDUAL_RTOL = 1e-8


class DeflationError(ValueError):
    """A shifted right-hand side has weight on the explicit subspace."""


class FactorizationError(RuntimeError):
    """A bordered shifted operator could not be factorized."""


def _project_out(psi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Remove the explicit-subspace component of column vectors."""
    return x - psi @ (psi.conj().T @ x)


def projected_operator(matrix, psi: np.ndarray) -> MatrixFreeOperator:
    """Action-only representation of ``P_I M P_I`` with ``P_I = 1 - Psi Psi^H``."""

    def apply(x):
        return _project_out(psi, matrix @ _project_out(psi, x))

    def apply_adjoint(x):
        return _project_out(psi, matrix.conj().T @ _project_out(psi, x))

    return MatrixFreeOperator(matrix.shape[0], apply, apply_adjoint)


class ShiftedSolverSet:
    """Deflated solvers of ``x (H_0 - E_i) = rhs`` for each explicit state.

    Each shift owns one LU factorization of the bordered matrix

        [[H_0 - E_i, psi_i], [psi_i^H, 0]]

    where the border contains only the explicit eigenvectors degenerate with
    ``E_i``: these span the kernel of the shifted operator, while components
    along the other explicit vectors vanish automatically because the
    right-hand sides are orthogonal to them. Solves project the right-hand
    side and the solution onto the implicit subspace and check the residual,
    guarding against drift into the null space.
    """

    def __init__(self, h0, psi: np.ndarray, energies: np.ndarray):
        self.psi = np.asarray(psi, dtype=np.complex128)
        self.energies = np.asarray(energies, dtype=float)
        self.dimension = self.psi.shape[0]
        self._solves = []
        self._border_sizes = []
        n = self.dimension
        use_sparse = sparse.issparse(h0)
        gap_scale = max(1.0, float(np.max(np.abs(self.energies))))
        for energy in self.energies:
            degenerate = np.abs(self.energies - energy) <= 1e-10 * gap_scale
            border = self.psi[:, degenerate]
            self._border_sizes.append(border.shape[1])
            try:
                if use_sparse:
                    bordered = sparse.bmat(
                        [
                            [h0 - energy * sparse.identity(n, dtype=np.complex128), border],
                            [border.conj().T, None],
                        ],
                        format="csc",
                        dtype=np.complex128,
                    )
                    lu = sla.splu(
                        bordered,
                        permc_spec="MMD_AT_PLUS_A",
                        diag_pivot_thresh=0.001,
                        options=dict(SymmetricMode=True),
                    )
                    self._solves.append(lu.solve)
                else:
                    n_b = border.shape[1]
                    dense = np.zeros((n + n_b, n + n_b), dtype=np.complex128)
                    dense[:n, :n] = to_array(h0) - energy * np.eye(n)
                    dense[:n, n:] = border
                    dense[n:, :n] = border.conj().T
                    factors = scipy.linalg.lu_factor(dense)
                    self._solves.append(
                        lambda b, factors=factors: scipy.linalg.lu_solve(factors, b)
                    )
            except Exception as exc:  # factorization breakdown
                raise FactorizationError(
                    f"Failed to factorize the shifted operator at E = {energy}."
                ) from exc
        self.h0 = h0

    @property
    def factorization_count(self) -> int:
        return len(self._solves)

    def solve_shifted_deflated(self, i: int, rhs_row: np.ndarray) -> np.ndarray:
        """Row vector ``x`` with ``x (H_0 - E_i) = rhs_row`` and ``x Psi = 0``."""
        rhs_row = np.asarray(rhs_row, dtype=np.complex128).ravel()
        column = rhs_row.conj()
        norm = np.linalg.norm(column)
        if norm == 0.0:
            return np.zeros_like(rhs_row)
        overlap = self.psi.conj().T @ column
        if np.linalg.norm(overlap) > DEFLATION_ATOL * max(1.0, norm):
            raise DeflationError(
                f"Right-hand side of shift {i} has explicit-subspace weight "
                f"{np.linalg.norm(overlap):.3e}."
            )
        column = _project_out(self.psi, column[:, None]).ravel()
        padded = np.concatenate(
            [column, np.zeros(self._border_sizes[i], np.complex128)]
        )
        solution = self._solves[i](padded)[: self.dimension]
        solution = _project_out(self.psi, solution[:, None]).ravel()
        residual = (self.h0 @ solution) - self.energies[i] * solution - column
        if np.linalg.norm(residual) > RESIDUAL_RTOL * norm:
            raise FactorizationError(
                f"Shifted solve at E = {self.energies[i]} has residual "
                f"{np.linalg.norm(residual):.3e} for rhs norm {norm:.3e}."
            )
        return solution.conj()


@dataclass
class ExtendedContext:
    """Bookkeeping of an implicit problem: basis, solvers, and projections."""

    psi: np.ndarray
    energies: np.ndarray
    solvers: ShiftedSolverSet

    @property
    def factorization_count(self) -> int:
        return self.solvers.factorization_count


def build_extended_problem(
    h0,
    perturbations: dict[tuple[int, ...], object],
    explicit_vectors: np.ndarray,
    eigenvalues: np.ndarray,
    *,
    param_names: tuple[str, ...] | None = None,
) -> PerturbationProblem:
    """Two-block problem with an explicit subspace and a matrix-free rest.

    Parameters
    ----------
    h0 :
        Sparse or dense Hermitian unperturbed operator.
    perturbations :
        Hermitian perturbation terms keyed by order multi-index; sparse
        inputs stay sparse inside the matrix-free blocks.
    explicit_vectors :
        Orthonormal eigenvectors of ``h0`` spanning the explicit subspace,
        as columns.
    eigenvalues :
        Eigenvalues matching ``explicit_vectors``. The caller certifies that
        these are separated from the rest of the spectrum.
    """
    psi = np.asarray(explicit_vectors, dtype=np.complex128)
    if psi.ndim != 2:
        raise ValueError("explicit_vectors must be a matrix of columns.")
    _require_finite(psi, "explicit_vectors")
    n, n_e = psi.shape
    if n_e == 0:
        raise ValueError("The explicit subspace is empty.")
    if n_e >= n:
        raise ValueError(
            "The implicit subspace is empty; use the explicit mode when all "
            "eigenvectors are available."
        )
    energies = np.asarray(eigenvalues, dtype=float).ravel()
    if len(energies) != n_e:
        raise ValueError("One eigenvalue per explicit vector is required.")
    _require_finite(energies, "eigenvalues")
    gram = psi.conj().T @ psi
    if np.max(np.abs(gram - np.eye(n_e))) > ORTHONORMALITY_ATOL:
        raise ValueError("Explicit vectors are not orthonormal.")
    _check_operand(h0, "H_0")
    eigen_residual = h0 @ psi - psi * energies[None, :]
    scale = max(1.0, float(np.max(np.abs(energies))))
    if np.max(np.abs(eigen_residual)) > EIGEN_RESIDUAL_RTOL * scale:
        raise ValueError("explicit_vectors are not eigenvectors of H_0.")

    perturbations, n_params = _normalize_orders(perturbations)
    zero_order = (0,) * n_params
    blocks: dict[tuple, object] = {
        (0, 0, zero_order): np.diag(energies).astype(np.complex128),
        (1, 1, zero_order): projected_operator(h0, psi),
    }
    for order, term in perturbations.items():
        _check_operand(term, f"Perturbation at order {order}")
        coupling = (term @ psi).conj().T  # Psi^H H_n, dense and wide
        explicit_block = coupling @ psi
        explicit_to_implicit = coupling - explicit_block @ psi.conj().T
        if np.any(explicit_block):
            blocks[(0, 0, order)] = explicit_block
        if np.any(explicit_to_implicit):
            blocks[(0, 1, order)] = explicit_to_implicit
            blocks[(1, 0, order)] = explicit_to_implicit.conj().T
        blocks[(1, 1, order)] = projected_operator(term, psi)

    solvers = ShiftedSolverSet(h0, psi, energies)
    context = ExtendedContext(psi=psi, energies=energies, solvers=solvers)

    def solve_sylvester(rhs, block, order):
        if block != (0, 1):
            raise ValueError(
                f"Implicit Sylvester solves only apply to block (0, 1), "
                f"got {block}."
            )
        rows = [solvers.solve_shifted_deflated(i, rhs[i]) for i in range(n_e)]
        return np.vstack(rows)

    return PerturbationProblem(
        eigenvalues=(energies, None),
        rule=SeparationRule((n_e, n)),
        n_params=n_params,
        blocks=blocks,
        eig=None,
        implicit=True,
        solver=solve_sylvester,
        large_blocks=frozenset({1}),
        param_names=param_names,
        implicit_context=context,
    )
