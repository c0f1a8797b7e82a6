"""Operator backends and the arithmetic contract used by all series code.

Series elements are one of:

- ``zero``, a structural absorbing element that participates in products and
  sums at no cost,
- ``one``, a structural multiplicative identity,
- a dense ``numpy.ndarray`` (always complex double precision),
- a `scipy.sparse.linalg.LinearOperator`, used for matrix-free blocks.

All arithmetic goes through the module-level functions `matmul`, `add`,
`scale` and `adjoint`, which dispatch on these types. Products are counted
where the engine makes them, into an `OperationCounter`.
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
    ``zero`` is used everywhere; an optional shape may be attached for error
    reporting when constructing shaped zeros explicitly.
    """

    __slots__ = ("shape",)

    def __init__(self, shape: tuple[int, int] | None = None):
        self.shape = shape

    def __repr__(self):
        return "zero" if self.shape is None else f"zero{self.shape}"

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

    The engine calls `count` at each of its products. A product counts when
    neither operand is ``zero`` or ``one``; elementwise operations (sums,
    scalar multiples, Sylvester denominators) never count. Not thread safe;
    evaluation contexts are single-threaded.
    """

    __slots__ = ("matmul_count",)

    def __init__(self):
        self.matmul_count = 0

    def count(self, a, b):
        """Tally the product ``a @ b`` unless an operand is structural."""
        if not isinstance(a, (Zero, One)) and not isinstance(b, (Zero, One)):
            self.matmul_count += 1

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


def _shape_of(a) -> tuple[int, int] | None:
    if isinstance(a, (Zero, One)):
        return getattr(a, "shape", None)
    return a.shape


def _check_matmul_shapes(a, b):
    sa, sb = _shape_of(a), _shape_of(b)
    if sa is not None and sb is not None and sa[1] != sb[0]:
        raise ValueError(f"Dimension mismatch in product: {sa} @ {sb}.")


def matmul(a, b, *, lazy: bool = False):
    """Matrix product of two operators.

    Products involving ``zero`` return ``zero`` and products with ``one``
    return the other factor without scalar work. With ``lazy=True`` the result of a dense-dense product is kept
    as a low-rank `~scipy.sparse.linalg.LinearOperator` factorization, which
    the implicit method uses for blocks that must never be materialized.
    """
    if isinstance(a, Zero) or isinstance(b, Zero):
        _check_matmul_shapes(a, b)
        return zero
    if isinstance(a, One):
        return b
    if isinstance(b, One):
        return a
    _check_matmul_shapes(a, b)
    a_op = isinstance(a, LinearOperator)
    b_op = isinstance(b, LinearOperator)
    if a_op and b_op:
        return a @ b  # stays lazy
    if a_op:
        return a.matmat(as_dense(b))
    if b_op:
        # dense @ operator evaluated through the adjoint action
        return adjoint(b.H.matmat(as_dense(a).conj().T))
    if lazy:
        return aslinearoperator(as_dense(a)) @ aslinearoperator(as_dense(b))
    return as_dense(a) @ as_dense(b)


def add(a, b):
    """Elementwise sum; ``zero`` is the neutral element."""
    if isinstance(a, Zero):
        return b
    if isinstance(b, Zero):
        return a
    sa, sb = _shape_of(a), _shape_of(b)
    if sa is not None and sb is not None and sa != sb:
        raise ValueError(f"Dimension mismatch in sum: {sa} + {sb}.")
    if isinstance(a, LinearOperator) or isinstance(b, LinearOperator):
        a = a if isinstance(a, LinearOperator) else aslinearoperator(as_dense(a))
        b = b if isinstance(b, LinearOperator) else aslinearoperator(as_dense(b))
        return a + b
    return as_dense(a) + as_dense(b)


def scale(a, c: complex):
    """Scalar multiple of an operator."""
    if isinstance(a, Zero):
        return zero
    if c == 1:
        return a
    if isinstance(a, One):
        raise ValueError("Cannot scale the structural identity; wrap it densely.")
    if isinstance(a, LinearOperator):
        return c * a
    return as_dense(a) * c


def adjoint(a):
    """Conjugate transpose; shape swapped, no products performed."""
    if isinstance(a, (Zero, One)):
        return a
    if isinstance(a, LinearOperator):
        return a.H
    return as_dense(a).conj().T


def to_array(a, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Materialize any operator as a dense array (testing and output only)."""
    if isinstance(a, Zero):
        if shape is None and a.shape is None:
            raise ValueError("Cannot materialize an unshaped zero.")
        return np.zeros(shape or a.shape, dtype=np.complex128)
    if isinstance(a, One):
        if shape is None:
            raise ValueError("Cannot materialize the identity without a shape.")
        return np.eye(*shape, dtype=np.complex128)
    if isinstance(a, LinearOperator):
        return a.matmat(np.eye(a.shape[1], dtype=np.complex128))
    return as_dense(a)

