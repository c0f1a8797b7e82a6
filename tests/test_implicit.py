import re

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as sla

from blockpert.diagonalization import PerturbationProblem, block_diagonalize
from blockpert.implicit import (
    DeflationError,
    ShiftedSolverSet,
    build_extended_problem,
    projected_operator,
)
from blockpert.operators import to_array
from blockpert.series import orders_up_to

from conftest import random_hermitian


def random_sparse_hermitian(rng, n, density=0.05, gap_slope=8.0):
    m = sparse.random(n, n, density=density, random_state=rng.integers(1 << 31))
    m = m + 1j * sparse.random(
        n, n, density=density, random_state=rng.integers(1 << 31)
    )
    m = (m + m.conj().T) / 2 + sparse.diags(np.linspace(0, gap_slope, n))
    return m.tocsr().astype(np.complex128)


@pytest.fixture
def small_toy(rng):
    """Dense 6x6 problem solvable in both explicit and implicit mode."""
    h0 = np.diag(np.arange(6.0))
    perturbations = {(1,): 0.4 * random_hermitian(rng, 6)}
    psi = np.eye(6, dtype=complex)[:, :2]
    return h0, perturbations, psi, np.array([0.0, 1.0])


def test_projected_operator_annihilates_explicit(small_toy):
    h0, perturbations, psi, energies = small_toy
    op = projected_operator(perturbations[(1,)], psi)
    action = op.matmat(psi)
    np.testing.assert_allclose(action, 0, atol=1e-10)
    # idempotence of the projector inside the operator
    probe = np.random.default_rng(0).normal(size=(6, 2))
    once = op.matmat(probe)
    np.testing.assert_allclose(op.matmat(once), op.matmat(op.matmat(probe)))


def test_shifted_solver_diagonal_closed_form():
    h0 = sparse.diags([0.0, 2.0, 3.0]).tocsc().astype(complex)
    psi = np.array([[1.0], [0.0], [0.0]], dtype=complex)
    solvers = ShiftedSolverSet(h0, psi, np.array([0.0]))
    rhs = np.array([0.0, 4.0, 9.0])
    solution = solvers.solve_shifted_deflated(0, rhs)
    np.testing.assert_allclose(solution, [0.0, 4.0 / (2.0 - 0.0), 9.0 / 3.0])
    # x (H_0 - E_0) = rhs with row-vector convention
    np.testing.assert_allclose(solution @ (h0.toarray() - 0.0 * np.eye(3)), rhs)
    np.testing.assert_allclose(
        solvers.solve_shifted_deflated(0, np.zeros(3)), np.zeros(3)
    )


def test_shifted_solver_rejects_undeflated_rhs():
    h0 = sparse.diags([0.0, 2.0, 3.0]).tocsc().astype(complex)
    psi = np.array([[1.0], [0.0], [0.0]], dtype=complex)
    solvers = ShiftedSolverSet(h0, psi, np.array([0.0]))
    with pytest.raises(DeflationError):
        solvers.solve_shifted_deflated(0, np.array([1.0, 0.0, 0.0]))


def test_shifted_solver_residual_random(rng):
    n = 200
    h0 = random_sparse_hermitian(rng, n)
    energies, vectors = sla.eigsh(h0, k=3, which="SA")
    solvers = ShiftedSolverSet(h0, vectors, energies)
    projector = np.eye(n) - vectors @ vectors.conj().T
    rhs = (rng.normal(size=n) + 1j * rng.normal(size=n)) @ projector
    for i in range(3):
        solution = solvers.solve_shifted_deflated(i, rhs)
        residual = solution @ (h0.toarray() - energies[i] * np.eye(n)) - rhs
        assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(rhs)
        assert np.linalg.norm(solution @ vectors) <= 1e-10


@pytest.mark.parametrize(
    "operand", ["H_0", "Perturbation at order (1,)", "explicit_vectors", "eigenvalues"]
)
def test_build_rejects_non_finite_inputs(small_toy, operand):
    h0, perturbations, psi, energies = small_toy
    corrupted = {
        "H_0": h0,
        "Perturbation at order (1,)": perturbations[(1,)],
        "explicit_vectors": psi,
        "eigenvalues": energies,
    }[operand]
    corrupted.flat[0] = np.nan
    with pytest.raises(ValueError, match=re.escape(f"{operand} has non-finite")):
        build_extended_problem(h0, perturbations, psi, energies)


def test_build_rejects_full_basis(small_toy):
    h0, perturbations, _, _ = small_toy
    with pytest.raises(ValueError, match="implicit subspace is empty"):
        build_extended_problem(
            h0, perturbations, np.eye(6, dtype=complex), np.arange(6.0)
        )


def test_build_rejects_non_orthonormal(small_toy):
    h0, perturbations, psi, energies = small_toy
    bad = psi.copy()
    bad[:, 0] *= 2.0
    with pytest.raises(ValueError, match="orthonormal"):
        build_extended_problem(h0, perturbations, bad, energies)


def test_build_rejects_non_eigenvectors(small_toy):
    h0, perturbations, psi, energies = small_toy
    rotation = np.linalg.qr(np.random.default_rng(1).normal(size=(6, 6)))[0]
    with pytest.raises(ValueError, match="eigenvectors"):
        build_extended_problem(h0, perturbations, rotation[:, :2], energies)


def test_implicit_matches_explicit_small(small_toy):
    """Implicit and explicit computations agree on a dense toy problem."""
    h0, perturbations, psi, energies = small_toy
    implicit_problem = build_extended_problem(h0, perturbations, psi, energies)
    implicit_result = block_diagonalize(implicit_problem)
    explicit_problem = PerturbationProblem.from_diagonal(
        np.diag(h0), perturbations, [0, 0, 1, 1, 1, 1]
    )
    explicit_result = block_diagonalize(explicit_problem)
    for order in range(4):
        np.testing.assert_allclose(
            to_array(implicit_result.h_tilde.get((0, 0), (order,)), (2, 2)),
            to_array(explicit_result.h_tilde.get((0, 0), (order,)), (2, 2)),
            atol=1e-8,
        )


def test_implicit_sparse_multivariate(rng):
    """Sparse 400-dimensional problem matches the dense computation."""
    n, n_explicit = 400, 4
    h0 = random_sparse_hermitian(rng, n)
    perturbations = {
        (1, 0): 0.5 * random_sparse_hermitian(rng, n, gap_slope=0.0),
        (0, 1): 0.3 * random_sparse_hermitian(rng, n, gap_slope=0.0),
    }
    energies, vectors = sla.eigsh(h0, k=n_explicit, which="SA")
    problem = build_extended_problem(h0, perturbations, vectors, energies)
    assert problem.implicit_context.factorization_count == n_explicit
    result = block_diagonalize(problem)

    dense_h0 = h0.toarray()
    all_energies, all_vectors = np.linalg.eigh(dense_h0)
    complement = np.linalg.qr(
        (np.eye(n) - vectors @ vectors.conj().T) @ all_vectors[:, n_explicit:]
    )[0]
    explicit_problem = PerturbationProblem.from_eigenvectors(
        dense_h0,
        {k: v.toarray() for k, v in perturbations.items()},
        [vectors, complement],
    )
    explicit_result = block_diagonalize(explicit_problem)
    for order in orders_up_to((2, 2)):
        np.testing.assert_allclose(
            to_array(
                result.h_tilde.get((0, 0), order), (n_explicit, n_explicit)
            ),
            to_array(
                explicit_result.h_tilde.get((0, 0), order),
                (n_explicit, n_explicit),
            ),
            atol=1e-8,
        )
    _assert_no_dense_leak(result, n)
    # Deflation soundness: generator rows stay in the implicit subspace.
    for order in [(1, 0), (0, 1), (1, 1)]:
        v_block = result.context["V"].get((0, 1), order)
        if not isinstance(v_block, np.ndarray):
            continue
        assert np.max(np.abs(v_block @ vectors)) <= 1e-10


def _assert_no_dense_leak(result, n):
    for name, series in result.context.items():
        for key, value in series._data.items():
            assert not (
                isinstance(value, np.ndarray) and value.shape == (n, n)
            ), f"{name}{key} materialized a dense {n}x{n} array"


def test_implicit_rejects_masks(rng, small_toy):
    h0, perturbations, psi, energies = small_toy
    problem = build_extended_problem(h0, perturbations, psi, energies)
    # No mask entry points exist for implicit problems; the rule has none.
    assert problem.rule.masks == {}
    assert problem.implicit
