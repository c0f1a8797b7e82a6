"""Operator backends and the arithmetic contract used by all series code.

Series elements are one of:

- ``zero``, a structural absorbing element that participates in products and
  sums at no cost,
- ``one``, a structural multiplicative identity,
- a dense ``numpy.ndarray`` of dtype ``complex128``,
- a `scipy.sparse.linalg.LinearOperator`, used for matrix-free blocks.

Inputs are brought to this form once, where they enter: the problem
constructors, a custom Sylvester solver's output and the entries of a
transformed observable go through `as_dense`.
All arithmetic goes through the module-level functions `matmul`, `add`,
`scale` and `adjoint`, which dispatch on these types and convert nothing;
`to_array` materializes any element for output. `matmul` and `add` hand
two ndarrays to numpy before any dispatch: on small blocks the dispatch
would cost more than the arithmetic. Products are counted where the engine
makes them, into an `OperationCounter`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.sparse import issparse
from scipy.sparse.linalg import LinearOperator, aslinearoperator

__all__ = [
    "Zero",
    "zero",
    "One",
    "one",
    "OperationCounter",
    "CountedMatrix",
    "MatrixFreeOperator",
    "matmul",
    "add",
    "scale",
    "adjoint",
    "to_array",
    "as_dense",
]


class Zero:
    """Structural zero operator.

    Absorbing element of products and neutral element of sums. It carries no
    entries, so skipping it costs nothing. A single module-level instance
    ``zero`` is used everywhere.
    """

    __slots__ = ()

    def __repr__(self):
        return "zero"

    def __eq__(self, other):
        return isinstance(other, Zero)

    def __hash__(self):
        return hash(Zero)


class One:
    """Structural identity operator, the zeroth order of unitary series."""

    __slots__ = ()

    def __repr__(self):
        return "one"

    def __eq__(self, other):
        return isinstance(other, One)

    def __hash__(self):
        return hash(One)


zero = Zero()
one = One()


class OperationCounter:
    """Shared tally of matrix-matrix products.

    The engine's product kernel, `blockpert.series.contract`, adds the
    products of each entry it computes. A product counts when neither
    operand is ``zero`` or ``one``; elementwise operations (sums, scalar
    multiples, Sylvester denominators) never count. Not thread safe;
    evaluation contexts are single-threaded.
    """

    __slots__ = ("matmul_count",)

    def __init__(self):
        self.matmul_count = 0

    def __repr__(self):
        return f"OperationCounter(matmul_count={self.matmul_count})"


class CountedMatrix:
    """Unused; kept only because the benchmark harness still imports the name."""


class MatrixFreeOperator(LinearOperator):
    """Square action-only operator for the implicit subspace.

    Wraps a pair of callables computing ``v -> M v`` and ``v -> M^H v`` on
    dense blocks of column vectors. Compositions, sums, and adjoints built
    from it stay lazy, so no dense N x N matrix is ever materialized.
    """

    def __init__(
        self,
        dimension: int,
        apply: Callable[[np.ndarray], np.ndarray],
        apply_adjoint: Callable[[np.ndarray], np.ndarray],
    ):
        super().__init__(dtype=np.complex128, shape=(dimension, dimension))
        self._apply = apply
        self._apply_adjoint = apply_adjoint

    def _matvec(self, v):
        return self._apply(v.reshape(-1, 1)).ravel()

    def _matmat(self, X):
        return self._apply(np.asarray(X, dtype=np.complex128))

    def _rmatmat(self, X):
        return self._apply_adjoint(np.asarray(X, dtype=np.complex128))

    def _adjoint(self):
        return MatrixFreeOperator(self.shape[0], self._apply_adjoint, self._apply)

    @staticmethod
    def from_matrix(matrix) -> "MatrixFreeOperator":
        """Wrap a sparse matrix or ndarray as an action-only operator."""
        op = aslinearoperator(matrix)
        return MatrixFreeOperator(
            matrix.shape[0],
            lambda X: op.matmat(X).astype(np.complex128),
            lambda X: op.H.matmat(X).astype(np.complex128),
        )


def as_dense(array) -> np.ndarray:
    """Promote input to a 2-D complex double-precision ndarray."""
    if issparse(array):
        array = array.toarray()
    result = np.asarray(array, dtype=np.complex128)
    if result.ndim != 2:
        raise ValueError(f"Expected a 2-D operator, got shape {result.shape}.")
    return result


def matmul(a, b, *, lazy: bool = False):
    """Matrix product of two operators.

    Products involving ``zero`` return ``zero`` and products with ``one``
    return the other factor without scalar work. With ``lazy=True`` the
    result of a dense-dense product is kept as a low-rank
    `~scipy.sparse.linalg.LinearOperator` factorization, which the implicit
    method uses for blocks that must never be materialized.
    """
    if type(a) is np.ndarray and type(b) is np.ndarray and not lazy:
        return a @ b
    if isinstance(a, Zero) or isinstance(b, Zero):
        return zero
    if isinstance(a, One):
        return b
    if isinstance(b, One):
        return a
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"Dimension mismatch in product: {a.shape} @ {b.shape}.")
    a_op = isinstance(a, LinearOperator)
    b_op = isinstance(b, LinearOperator)
    if a_op and b_op:
        return a @ b  # stays lazy
    if a_op:
        return a.matmat(b)
    if b_op:
        # dense @ operator evaluated through the adjoint action
        return adjoint(b.H.matmat(a.conj().T))
    if lazy:
        return aslinearoperator(a) @ aslinearoperator(b)
    return a @ b


def add(a, b):
    """Elementwise sum; ``zero`` is the neutral element."""
    if type(a) is np.ndarray and type(b) is np.ndarray:
        if a.shape != b.shape:
            raise ValueError(f"Dimension mismatch in sum: {a.shape} + {b.shape}.")
        return a + b
    if isinstance(a, Zero):
        return b
    if isinstance(b, Zero):
        return a
    if a.shape != b.shape:
        raise ValueError(f"Dimension mismatch in sum: {a.shape} + {b.shape}.")
    if isinstance(a, LinearOperator) or isinstance(b, LinearOperator):
        return aslinearoperator(a) + aslinearoperator(b)
    return a + b


def scale(a, c: complex):
    """Scalar multiple of an operator."""
    if isinstance(a, Zero):
        return zero
    if c == 1:
        return a
    if isinstance(a, One):
        raise ValueError("Cannot scale the structural identity; wrap it densely.")
    return a * c


def adjoint(a):
    """Conjugate transpose; shape swapped, no products performed."""
    if isinstance(a, (Zero, One)):
        return a
    if isinstance(a, LinearOperator):
        return a.H
    return a.conj().T


def to_array(a, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Materialize any operator as a dense array (testing and output only)."""
    if isinstance(a, Zero):
        if shape is None:
            raise ValueError("Cannot materialize zero without a shape.")
        return np.zeros(shape, dtype=np.complex128)
    if isinstance(a, One):
        if shape is None:
            raise ValueError("Cannot materialize the identity without a shape.")
        return np.eye(*shape, dtype=np.complex128)
    if isinstance(a, LinearOperator):
        return a.matmat(np.eye(a.shape[1], dtype=np.complex128))
    return as_dense(a)

