"""Implicit method for large sparse operators.

Builds an equivalent two-block problem in which a small explicit subspace is
written in its eigenbasis while the large complement is kept in the original
basis, represented by projected action-only operators. The Sylvester
equation is then solved row by row with deflated shifted solves of

    (H_0 - E_i) x = rhs,    Psi_E^H x = 0,

which are well posed on the implicit subspace although ``H_0 - E_i`` is
singular there. Each explicit state owns one sparse LU of ``H_0 - sigma_i``,
shifted a tiny distance below ``E_i`` so that it is regular. The LU is the
preconditioner of an iterative refinement on the projected system
``P (H_0 - E_i) P x = rhs`` with ``P = 1 - Psi_E Psi_E^H``: the projection
removes the near-kernel direction that the LU amplifies, and refinement
removes the shift to rounding in about two steps. The LU is real whenever
the entries of ``H_0`` are, whatever its dtype. SuperLU factorizes it in
panels of ``PANEL_SIZE`` columns, narrower than its default: the supernodes
of a sparse lattice are small, so wide panels only add work, and the panel
width changes neither the fill nor the refinement steps. The shifted
operators differ only on the diagonal, so they share one sparsity pattern,
and a fill-reducing ordering depends on the pattern alone: SuperLU orders
the first shift (``MMD_AT_PLUS_A``), and every other shift is factored in
that order, of ``H_0`` permuted once. The factorizations are made eagerly
at build time and reused for every order.

The problem states its complement once: its eigenvalues are ``None``, which
makes block 1 its large block, whose computed entries the engine keeps
factored on one basis (see `blockpert.operators`). Its ``solver`` is the
`ShiftedSolverSet` itself, which callers read for the basis, the
factorizations and the record of every solve.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as sla

from blockpert.operators import MatrixFreeOperator, _overlap, as_dense
from blockpert.diagonalization import (
    PerturbationProblem,
    _assemble,
    _check_operand,
    _require_finite,
    _require_orthonormal,
    _value_dtype,
)
from blockpert.separation import SeparationRule

__all__ = [
    "DeflationError",
    "FactorizationError",
    "ShiftedSolverSet",
    "SolveRecord",
    "build_extended_problem",
    "projected_operator",
]

EIGEN_RESIDUAL_RTOL = 1e-8
DEFLATION_ATOL = 1e-10
RESIDUAL_RTOL = 1e-8
# Each factorization is shifted below its eigenvalue by this fraction of the
# energy scale, about 5e4 times the rounding of the largest eigenvalue.
# Refinement shrinks the residual by about shift / (distance from E_i to the
# implicit spectrum) per step. On width-100 lattices, seeds 1-3, fractions
# from 1e-10 to 1e-13 took 2 steps per solve, and those from 1e-11 to 1e-13
# kept H-tilde within 2e-13 of bordered solves (1e-10: 4e-13). 1e-9 took up
# to 3 steps, and from 1e-14 on some solves stopped after 1.
SHIFT_FRACTION = 1e-11
# SuperLU's panel width, in columns, for every shifted LU. A 5-point lattice
# has small supernodes, so wider panels do wasted work. On lattices of width
# 52 to 300 (one BLAS thread, medians of 11 to 21 factorizations) a panel of
# 1 took 0.57 to 0.78 of the default panel's time, with the same fill and
# the same refinement steps; panels of 2 were 1.5-6% slower than 1 in
# paired runs, and wider ones slower still.
PANEL_SIZE = 1
# Refinement stops at this projected residual relative to the right-hand
# side, near rounding, or when a step shrinks the residual by less than
# STALL_RATIO, which also bounds the number of steps.
REFINEMENT_RTOL = 1e-13
STALL_RATIO = 0.5


class DeflationError(ValueError):
    """A shifted right-hand side has weight on the explicit subspace."""


class FactorizationError(RuntimeError):
    """A shifted operator could not be factorized, or a solve did not converge."""


def _project_out(psi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Remove the explicit-subspace component of vectors."""
    return x - psi @ _overlap(psi, x)


def projected_operator(matrix, psi: np.ndarray) -> MatrixFreeOperator:
    """Action-only representation of ``P_I M P_I`` with ``P_I = 1 - Psi Psi^H``."""

    def apply(x):
        return _project_out(psi, matrix @ _project_out(psi, x))

    def apply_adjoint(x):
        return _project_out(psi, matrix.conj().T @ _project_out(psi, x))

    dtype = np.promote_types(matrix.dtype, psi.dtype)
    return MatrixFreeOperator(matrix.shape[0], apply, apply_adjoint, dtype)


@dataclass(frozen=True)
class SolveRecord:
    """What one deflated shifted solve did.

    ``residual`` is ``|(H_0 - E_i) x - rhs| / |rhs|`` after the last
    refinement step, and ``overlap`` the norm of the right-hand side's
    explicit-subspace component, also relative to ``|rhs|``.
    """

    shift: int
    steps: int
    residual: float
    overlap: float


class ShiftedSolverSet:
    """Deflated solvers of ``x (H_0 - E_i) = rhs`` for each explicit state.

    Each explicit state ``i`` owns one sparse LU of ``H_0 - sigma_i`` with
    ``sigma_i = E_i - SHIFT_FRACTION * scale``, ``scale`` being the largest
    explicit ``|E|`` or 1. The shift stays far above the rounding of
    ``E_i``, also when other explicit eigenvalues lie close to it, and the
    explicit directions that the LU amplifies are projected out. The
    factorization is real when ``H_0`` is, and a complex right-hand side
    goes through it as two real columns. SuperLU makes it in narrow panels
    of ``PANEL_SIZE`` columns, which suit the small supernodes of a sparse
    lattice and leave the fill as the default panel does; ``factor_nnz``
    and ``factor_bytes`` report that fill and its memory per state.

    The set computes one fill-reducing column ordering, for the first
    state, and factors every other state on it. This is valid because
    every ``H_0 - sigma_i`` has the pattern of ``H_0`` plus its diagonal,
    and the ordering depends only on the pattern. The first LU's
    ``perm_c`` permutes ``H_0`` symmetrically once, and each later LU
    factors the permuted shift in its natural order; its solves gather the
    right-hand side into the permuted coordinates and the solution back.
    ``h0``, ``psi`` and ``energies`` stay in the caller's coordinates.

    A solve projects the right-hand side onto the implicit subspace and
    refines ``x <- x + P LU_i^-1 r`` on the residual ``r = P(rhs - (H_0 -
    E_i) x)`` until it is near rounding or stops shrinking; the unprojected
    residual must then be below ``RESIDUAL_RTOL``, or the solve raises
    `FactorizationError`. Both projections are needed. The explicit part of
    the raw residual, ``-(H_0 Psi - Psi E)^H x``, comes from the eigenvector
    error of ``Psi``, and the LU would amplify it by ``1 / shift``; the
    explicit part of the LU's output would do the same through ``H_0``.
    Every solve that reaches the refinement is logged in ``records``.
    Called as ``solver(rhs, block, order)``, the set is the Sylvester
    solver of the problem it was built for.
    """

    def __init__(self, h0, psi: np.ndarray, energies: np.ndarray):
        self.psi = np.asarray(psi)
        self.energies = np.asarray(energies, dtype=float)
        if self.energies.ndim != 1 or len(self.energies) == 0:
            raise ValueError("ShiftedSolverSet needs at least one explicit state.")
        if self.psi.ndim != 2 or self.psi.shape[1] != len(self.energies):
            raise ValueError(
                f"psi has shape {self.psi.shape}; it needs one column per "
                f"energy, {len(self.energies)}."
            )
        self.h0 = h0
        self.records: list[SolveRecord] = []
        matrix = sparse.csc_matrix(h0)
        self.real_factors = not np.iscomplexobj(matrix)
        identity = sparse.identity(matrix.shape[0], dtype=matrix.dtype, format="csc")
        shift = SHIFT_FRACTION * max(1.0, float(np.max(np.abs(self.energies))))

        def factorize(operator, energy, permc_spec):
            try:
                return sla.splu(
                    operator - (energy - shift) * identity,
                    permc_spec=permc_spec,
                    diag_pivot_thresh=0.001,
                    panel_size=PANEL_SIZE,
                    options=dict(SymmetricMode=True),
                )
            except RuntimeError as exc:  # exactly singular
                raise FactorizationError(
                    f"Failed to factorize the shifted operator at E = {energy}."
                ) from exc

        first = factorize(matrix, self.energies[0], "MMD_AT_PLUS_A")
        # The later factors' coordinates: a vector is gathered into them by
        # ``_gather`` and a solution scattered back by ``_scatter``.
        self._gather, self._scatter = np.argsort(first.perm_c), first.perm_c
        matrix = matrix[self._gather][:, self._gather]
        self._factors = [first] + [
            factorize(matrix, energy, "NATURAL") for energy in self.energies[1:]
        ]
        # The shifted operators' dtype: H_0's, promoted by the float64 shift.
        self._value_bytes = np.promote_types(matrix.dtype, np.float64).itemsize

    @property
    def factorization_count(self) -> int:
        return len(self._factors)

    @property
    def factor_nnz(self) -> tuple[int, ...]:
        """Non-zeros of ``L`` plus those of ``U``, one count per state."""
        return tuple(lu.nnz for lu in self._factors)

    @property
    def factor_bytes(self) -> tuple[int, ...]:
        """Bytes of the ``data``, ``indices`` and ``indptr`` of ``L`` and
        ``U`` in CSC form, one count per state.

        Counted from the fill with SuperLU's C ``int`` indices, not read
        from ``lu.L`` and ``lu.U``: scipy builds those copies on first
        access and keeps them as long as the factorization, which on the
        width-100 lattice with 10 states held 44 MB more.
        """
        index = np.dtype(np.intc).itemsize
        rows = self.psi.shape[0]
        return tuple(
            nnz * (self._value_bytes + index) + 2 * (rows + 1) * index
            for nnz in self.factor_nnz
        )

    def __call__(self, rhs, block, order):
        """The problem's Sylvester solver: ``V_01``, one row per state."""
        if block != (0, 1):
            raise ValueError(
                f"Implicit Sylvester solves only apply to block (0, 1), "
                f"got {block}."
            )
        rows = [self.solve_shifted_deflated(i, row) for i, row in enumerate(rhs)]
        return np.vstack(rows)

    def _precondition(self, i: int, column: np.ndarray) -> np.ndarray:
        """``P LU_i^-1 column``, the preconditioned refinement step."""
        if i > 0:
            column = column[self._gather]
        if self.real_factors and np.iscomplexobj(column):  # parts as two columns
            parts = self._factors[i].solve(column.view(np.float64).reshape(-1, 2))
            solved = np.ascontiguousarray(parts).view(np.complex128).ravel()
        else:
            solved = self._factors[i].solve(column)
        if i > 0:
            solved = solved[self._scatter]
        return _project_out(self.psi, solved)

    def solve_shifted_deflated(self, i: int, rhs_row: np.ndarray) -> np.ndarray:
        """Row vector ``x`` with ``x (H_0 - E_i) = rhs_row`` and ``x Psi = 0``."""
        rhs_row = np.asarray(rhs_row).ravel()
        column = rhs_row.conj()
        norm = np.linalg.norm(column)
        if norm == 0.0:
            return np.zeros_like(rhs_row)
        weights = _overlap(self.psi, column)
        overlap = np.linalg.norm(weights)
        if overlap > DEFLATION_ATOL * max(1.0, norm):
            raise DeflationError(
                f"Right-hand side of shift {i} has explicit-subspace weight "
                f"{overlap:.3e}."
            )
        column = column - self.psi @ weights
        energy = self.energies[i]
        solution = np.zeros_like(column)
        correction = column
        previous = norm
        for steps in itertools.count(1):
            solution = solution + self._precondition(i, correction)
            residual = column - (self.h0 @ solution - energy * solution)
            correction = _project_out(self.psi, residual)
            current = np.linalg.norm(correction)
            converged = current <= REFINEMENT_RTOL * norm
            if converged or not current < STALL_RATIO * previous:
                break
            previous = current
        relative = float(np.linalg.norm(residual) / norm)
        self.records.append(SolveRecord(i, steps, relative, float(overlap / norm)))
        if not relative <= RESIDUAL_RTOL:
            raise FactorizationError(
                f"Shifted solve at E = {energy} has relative residual "
                f"{relative:.3e} after {steps} refinement steps."
            )
        return solution.conj()


def build_extended_problem(
    h0,
    perturbations: dict[tuple[int, ...], object],
    explicit_vectors: np.ndarray,
    eigenvalues: np.ndarray,
    *,
    param_names: tuple[str, ...] | None = None,
) -> PerturbationProblem:
    """Two-block problem with an explicit subspace and a matrix-free rest.

    Block 1, the complement, has no eigenvalues, which makes it the
    problem's large block. The problem's ``solver`` is a
    `ShiftedSolverSet`, which holds the explicit basis ``psi``, the
    factorizations and the ``records`` of every solve.

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
    psi = np.asarray(explicit_vectors)
    if psi.ndim != 2:
        raise ValueError("explicit_vectors must be a matrix of columns.")
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
    _require_orthonormal(psi, "explicit_vectors")
    if np.shape(h0) != (n, n):
        raise ValueError(f"H_0 has shape {np.shape(h0)}, not {(n, n)}.")
    _check_operand(h0, "H_0")
    h0 = h0.real if _value_dtype(h0) == np.float64 else h0  # a real LU
    dtype = _value_dtype(*perturbations.values(), h0, psi)
    psi = as_dense(psi, dtype)
    eigen_residual = h0 @ psi - psi * energies[None, :]
    scale = max(1.0, float(np.max(np.abs(energies))))
    if np.max(np.abs(eigen_residual)) > EIGEN_RESIDUAL_RTOL * scale:
        raise ValueError("explicit_vectors are not eigenvectors of H_0.")

    def pieces(term):
        coupling = (term @ psi).conj().T  # Psi^H H_n, dense and wide
        explicit_block = coupling @ psi
        yield (0, 0), explicit_block
        yield (0, 1), coupling - explicit_block @ psi.conj().T
        yield (1, 1), projected_operator(term, psi)

    blocks, n_params = _assemble(perturbations, n, pieces, dtype)
    blocks[(1, 1, (0,) * n_params)] = projected_operator(h0, psi)
    return PerturbationProblem(
        eigenvalues=(energies, None),
        rule=SeparationRule((n_e, n)),
        n_params=n_params,
        blocks=blocks,
        solver=ShiftedSolverSet(h0, psi, energies),
        param_names=param_names,
    )
