import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as sla

from blockpert.diagonalization import PerturbationProblem
from blockpert.implicit import build_extended_problem
from blockpert.operators import (
    MatrixFreeOperator,
    Reference,
    add,
    adjoint,
    matmul,
    one,
    scale,
    to_array,
    zero,
)
from blockpert.problems import lattice_problem

from conftest import random_hermitian


def test_identity_and_zero_products():
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert matmul(one, a) is a
    assert matmul(a, one) is a
    assert matmul(zero, a) is zero
    assert matmul(a, zero) is zero


def test_hand_multiplication():
    a = np.array([[0, 1], [0, 0]], dtype=complex)
    b = np.array([[0, 0], [1, 0]], dtype=complex)
    np.testing.assert_array_equal(matmul(a, b), [[1, 0], [0, 0]])


def test_adjoint_examples():
    np.testing.assert_array_equal(adjoint(np.array([[1j]])), [[-1j]])
    hermitian = np.array([[1.0, 2.0 - 1j], [2.0 + 1j, 3.0]])
    np.testing.assert_array_equal(adjoint(hermitian), hermitian)
    assert adjoint(zero) is zero
    assert adjoint(one) is one


def test_adjoint_elementwise_oracle(rng):
    a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    np.testing.assert_array_equal(adjoint(a), a.conj().T)
    np.testing.assert_array_equal(adjoint(adjoint(a)), a)


def test_add_scale_examples():
    a = np.array([[1.0 + 1j]])
    assert add(a, zero) is a
    assert add(zero, a) is a
    assert scale(a, 1) is a
    np.testing.assert_array_equal(scale(np.array([[2.0]]), 0.5), [[1.0]])


def test_shape_mismatch_raises():
    with pytest.raises(ValueError, match="mismatch"):
        matmul(np.eye(2), np.eye(3))
    with pytest.raises(ValueError, match="mismatch"):
        add(np.eye(2), np.eye(3))
    # Shapes numpy would broadcast are rejected as well.
    for other in (np.ones((2, 1)), np.ones(2)):
        with pytest.raises(ValueError, match="mismatch"):
            add(np.eye(2), other)
        with pytest.raises(ValueError, match="mismatch"):
            add(other, np.eye(2))


def test_shape_mismatch_raises_beside_other_operands():
    """Operands other than two ndarrays reach the dispatching checks."""
    operator = sla.aslinearoperator(np.eye(2))
    with pytest.raises(ValueError, match=r"^Dimension mismatch in product: "):
        matmul(operator, np.eye(3))
    reference = Reference(1, False, np.eye(2))
    with pytest.raises(ValueError, match=r"^Dimension mismatch in sum: "):
        add(reference, np.eye(3))


@pytest.mark.parametrize("seed", range(3))
def test_ring_axioms(seed):
    """Associativity and distributivity on random dense operators."""
    rng = np.random.default_rng(seed)
    a, b, c = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3))
    left = matmul(matmul(a, b), c)
    right = matmul(a, matmul(b, c))
    np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        matmul(a, add(b, c)), add(matmul(a, b), matmul(a, c)), rtol=1e-12, atol=1e-12
    )
    np.testing.assert_allclose(
        adjoint(matmul(a, b)), matmul(adjoint(b), adjoint(a)), rtol=1e-12, atol=1e-12
    )


def _operand_form(problem, dtype):
    """Whether the problem is of ``dtype`` and every block is an ndarray of
    it, a reference to one or a matrix-free operator of it."""
    return problem.dtype == dtype and all(
        (isinstance(block, MatrixFreeOperator) and block.dtype == dtype)
        or (type(block) is Reference and block.source.dtype == dtype)
        or (type(block) is np.ndarray and block.dtype == dtype)
        for block in problem.blocks.values()
    )


def test_assembly_produces_the_operand_form(rng):
    """Dense and sparse inputs are converted once, when a problem is built,
    to float64 when their values are real, whatever their dtype, and to
    complex128 when one of them is not."""
    perturbation = rng.normal(size=(4, 4))
    perturbation = perturbation + perturbation.T
    complex_term = random_hermitian(rng, 4)
    for term, dtype in (
        (perturbation, np.float64),
        (perturbation.astype(complex), np.float64),
        (sparse.csr_matrix(perturbation), np.float64),
        (sparse.csr_matrix(perturbation.astype(complex)), np.float64),
        (complex_term, np.complex128),
        (sparse.csr_matrix(complex_term), np.complex128),
    ):
        problem = PerturbationProblem.from_diagonal(
            np.arange(4.0), {(1,): term}, [0, 0, 1, 1]
        )
        assert _operand_form(problem, dtype)
    # One complex term among real ones makes every block complex.
    problem = PerturbationProblem.from_diagonal(
        np.arange(4.0), {(1,): perturbation, (2,): complex_term}, [0, 0, 1, 1]
    )
    assert _operand_form(problem, np.complex128)
    vectors = np.eye(4)
    for basis, term, dtype in (
        (vectors, perturbation, np.float64),
        (vectors.astype(complex), perturbation, np.float64),
        (vectors, complex_term, np.complex128),
        (vectors * np.exp(0.3j), perturbation, np.complex128),
    ):
        problem = PerturbationProblem.from_eigenvectors(
            np.diag(np.arange(4.0)), {(1,): term}, [basis[:, :2], basis[:, 2:]]
        )
        assert _operand_form(problem, dtype)
    # The lattice's inputs are complex128 arrays of real values.
    h0, perturbations = lattice_problem(4, seed=1)
    real_inputs = h0.real.tocsr(), {o: t.real.tocsr() for o, t in perturbations.items()}
    v0 = np.random.default_rng(0).standard_normal(16)
    antisymmetric = sparse.random(16, 16, density=0.2, random_state=1)
    for (h0, terms), extra, dtype in (
        (real_inputs, {}, np.float64),
        ((h0, perturbations), {}, np.float64),
        ((h0, perturbations), {(2,): 1j * (antisymmetric - antisymmetric.T)}, np.complex128),
    ):
        energies, psi = sla.eigsh(h0, k=2, which="SA", v0=v0)
        assert psi.dtype == h0.dtype
        problem = build_extended_problem(h0, {**terms, **extra}, psi, energies)
        assert _operand_form(problem, dtype)
        assert any(isinstance(b, MatrixFreeOperator) for b in problem.blocks.values())


def test_matrix_free_operator_probes(rng):
    matrix = random_hermitian(rng, 8) + 1j * np.triu(np.ones((8, 8)))
    op = MatrixFreeOperator(8, lambda x: matrix @ x, lambda x: matrix.conj().T @ x)
    x = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
    y = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
    # linearity
    np.testing.assert_allclose(
        op.matmat(2 * x + 3 * y),
        2 * op.matmat(x) + 3 * op.matmat(y),
        atol=1e-12,
    )
    # adjoint consistency: <Ax, y> = <x, A^H y>
    lhs = np.vdot(op.matmat(x), y)
    rhs = np.vdot(x, op.H.matmat(y))
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_to_array_materializations():
    np.testing.assert_array_equal(to_array(zero, (2, 2)), np.zeros((2, 2)))
    np.testing.assert_array_equal(to_array(one, (2, 2)), np.eye(2))
    scales = np.array([[1.0], [2.0]])
    op = MatrixFreeOperator(2, lambda x: scales * x, lambda x: scales * x)
    np.testing.assert_allclose(to_array(op), np.diag([1.0, 2.0]))


def test_to_array_applies_a_wide_operator_to_the_smaller_identity(rng):
    """A 2 x 7 operator is materialized through its adjoint on a 2 x 2
    identity, so an entry beside a large block never needs one of the
    large block's size."""
    matrix = rng.normal(size=(2, 7)) + 1j * rng.normal(size=(2, 7))
    applied = []

    def record(action):
        def apply(x):
            applied.append(x.shape)
            return action @ x

        return apply

    operator = sla.LinearOperator(
        (2, 7),
        matvec=record(matrix),
        rmatvec=record(matrix.conj().T),
        matmat=record(matrix),
        rmatmat=record(matrix.conj().T),
        dtype=complex,
    )
    np.testing.assert_allclose(to_array(operator), matrix, rtol=0, atol=1e-15)
    np.testing.assert_allclose(to_array(operator.H), matrix.conj().T, rtol=0, atol=1e-15)
    assert applied == [(2, 2), (2, 2)]
