import numpy as np
import pytest

from blockpert.operators import (
    MatrixFreeOperator,
    add,
    adjoint,
    matmul,
    one,
    scale,
    to_array,
    zero,
)

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


def test_real_input_promoted():
    result = matmul(np.eye(2), np.ones((2, 2)))
    assert result.dtype == np.complex128


def test_matrix_free_operator_probes(rng):
    matrix = random_hermitian(rng, 8) + 1j * np.triu(np.ones((8, 8)))
    op = MatrixFreeOperator.from_matrix(matrix)
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
    op = MatrixFreeOperator.from_matrix(np.diag([1.0, 2.0]))
    np.testing.assert_allclose(to_array(op), np.diag([1.0, 2.0]))
