"""Operator backends and the arithmetic contract used by all series code.

Series elements are one of:

- ``zero``, a structural absorbing element that participates in products and
  sums at no cost,
- ``one``, a structural multiplicative identity,
- a dense ``numpy.ndarray`` of the problem's ``float64`` or ``complex128``,
- a `Reference` ``±y`` or ``±yᴴ`` to a stored ndarray ``y``, an entry
  that the recurrences derive from another one and that owns no buffer,
- a `FactoredOperator` ``±Q[:, :r] C Q[:, :c]ᴴ``, an entry of a large
  diagonal block, implicit or big and explicit: ``Q`` is the
  `LargeBlockBasis` that all entries of that block share in one run, and
  ``C`` a small core; or, beside that block, ``±C Q[:, :c]ᴴ`` or
  ``±Q[:, :r] C``, with one side on ``Q`` and the other explicit,
- any other `scipy.sparse.linalg.LinearOperator`, used for matrix-free
  inputs (`MatrixFreeOperator`) and for the sums and products in which
  they, or ndarrays, meet a factored entry.

Inputs are brought to this form once, where they enter: the problem
constructors, a custom Sylvester solver's output and the entries of a
transformed observable go through `as_dense`. All arithmetic goes through
the module-level functions `matmul`, `add`, `scale` and `adjoint`, which
dispatch on these types, and `to_array` materializes any element for
output. Two ndarrays go to numpy before any dispatch: on small blocks the
dispatch would cost more than the arithmetic.

One rule holds for small ndarrays, of fewer than `REFERENCE_MIN_SIZE`
elements: a small entry is a C-contiguous copy, never a reference or a
view, and a product of two that `blockpert.series.contract` asks for with
a `ProductBatch` waits in it, to be formed with the others of its sum by
one stacked numpy product. The batch joins its operands' buffers into
C-order stacks, so a stacked product rounds like ``a @ b`` where that
needs no transposed BLAS call.

A product with a reference is one numpy product on its source. A product
of two thin operands that lands on a large block,
``matmul(a, b, lazy=basis)``, becomes the core ``(Qᴴa)(bQ)``; products,
sums, multiples and adjoints of factored entries are those of their cores,
and ``scale(F, -1)`` shares ``F``'s core, as a reference shares its source.
A factored entry times a thin operand stays factored on the side that is
on ``Q``: ``x (Q_r C Q_cᴴ)`` is ``((x Q_r) C) Q_cᴴ``, whose core is
``(x Q_r) C``. The basis holds the coordinates of each memoized operand,
and a reference takes those of its source, so a held operand is read from
them instead of multiplied by ``Q``. An entry with one side on ``Q`` is
made an ndarray only where an array is needed: in a sum with one, for a
Sylvester solver, in `to_array` and in the output series. Products are
counted where the engine makes them, into an `OperationCounter`.
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
    "Reference",
    "ProductBatch",
    "LargeBlockBasis",
    "FactoredOperator",
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
    ``zero`` is used everywhere and compared with ``is``.
    """

    __slots__ = ()

    def __repr__(self):
        return "zero"


class One:
    """Structural identity operator, the zeroth order of unitary series."""

    __slots__ = ()

    def __repr__(self):
        return "one"


zero = Zero()
one = One()


class OperationCounter:
    """Shared tally of matrix-matrix products.

    The engine's product kernel, `blockpert.series.contract`, adds the
    products of each entry it computes to ``matmul_count``. A product
    counts when neither operand is ``zero`` or ``one``; elementwise
    operations (sums, scalar multiples, Sylvester denominators) never
    count. Of those products, ``stacked`` were formed inside a
    `ProductBatch`, in ``stacks`` stacked numpy products. Not thread safe;
    evaluation contexts are single-threaded.
    """

    __slots__ = ("matmul_count", "stacked", "stacks")

    def __init__(self):
        self.matmul_count = 0
        self.stacked = 0
        self.stacks = 0

    def __repr__(self):
        return (
            f"OperationCounter(matmul_count={self.matmul_count}, "
            f"stacked={self.stacked}, stacks={self.stacks})"
        )


class CountedMatrix:
    """Unused; kept only because the benchmark harness still imports the name."""


class MatrixFreeOperator(LinearOperator):
    """Square action-only operator for the implicit subspace.

    Wraps a pair of callables computing ``v -> M v`` and ``v -> M^H v`` on
    dense blocks of column vectors; ``dtype`` is that of ``M``. Its adjoint
    swaps the two callables. A product or sum with a `FactoredOperator`
    stays a scipy composition that is applied term by term, so no dense
    N x N matrix is ever materialized.
    """

    def __init__(
        self,
        dimension: int,
        apply: Callable[[np.ndarray], np.ndarray],
        apply_adjoint: Callable[[np.ndarray], np.ndarray],
        dtype=np.complex128,
    ):
        super().__init__(dtype=dtype, shape=(dimension, dimension))
        self._apply = apply
        self._apply_adjoint = apply_adjoint

    def _matmat(self, X):
        return self._apply(X)

    def _adjoint(self):
        return MatrixFreeOperator(
            self.shape[0], self._apply_adjoint, self._apply, self.dtype
        )


class Reference:
    """An entry ``sign · source``, or ``sign · sourceᴴ`` with ``adjoint``,
    that owns no buffer: ``source`` is a stored ndarray entry, which must
    stay stored, and ``sign`` is 1 or -1. The recurrences make it where
    they know the relation; the arithmetic functions and the basis resolve
    it without a copy of the source, and `to_array` materializes it.
    """

    __slots__ = ("sign", "adjoint", "source")

    def __init__(self, sign: int, adjoint: bool, source: np.ndarray):
        self.sign = sign
        self.adjoint = adjoint
        self.source = source

    @property
    def shape(self) -> tuple[int, int]:
        return self.source.shape[::-1] if self.adjoint else self.source.shape

    def toarray(self) -> np.ndarray:
        """The entry as a new array."""
        value = np.conj(self.source.T) if self.adjoint else self.source.copy()
        return np.negative(value, out=value) if self.sign < 0 else value


# An ndarray of fewer elements is small, and one rule treats it alike in the
# memo and in products:
# - A small entry is copied instead of referred to: it holds at most 1 KiB,
#   and resolving a reference costs about 1 us more in each product that
#   reads it. References made the bilayer-graphene solve (2x2 blocks, 30,969
#   products) 15-25% slower, and H-tilde[0, 0] of random_two_block(n, n) to
#   order 12 13-18% slower up to n = 12, 7.5% at n = 32 and no slower from
#   n = 64, on one BLAS thread.
# - A product of two small ndarrays waits in a `ProductBatch`, and the
#   batch is formed as one stacked product from its operands' joined
#   buffers, which the memo stores C-contiguous. 17 pairs of n x n blocks
#   summed in order, taken into a batch (with this bound lifted) against
#   `matmul` and `add` one by one, best of 7, on a 2-vCPU Xeon with one
#   BLAS thread: complex, 18 against 36 us at n = 2, 22 against 39 us at
#   n = 8, 45 against 71 us at n = 16 and 86 against 113 us at n = 24;
#   real, 52 against 73 us at n = 32. Stacks built by `np.array` took 3-6
#   us more at each size. An earlier measurement found stacking 2.2x slower
#   at n = 24 and 2.6x slower at n = 32 real; this one does not repeat that
#   loss, so the stacking bound may rise, measured on blocks of several
#   sizes and apart from the bound on references.
REFERENCE_MIN_SIZE = 64


class ProductBatch:
    """Products of small ndarrays that `matmul` was asked for and has not
    formed yet, for `blockpert.series.contract` to form together.

    Given a batch as ``lazy``, `matmul` hands two ndarrays to `take`, and
    returns the batch if it took them. A batch is false, so that
    ``if not lazy`` does not take it for a basis. Its operands are
    memoized entries, which the memo stores C-contiguous when small, so
    `products` stacks them by joining their buffers; an operand that is
    not C-contiguous makes the join raise `TypeError`.
    """

    __slots__ = ("lefts", "rights", "kind")

    def __init__(self):
        self.lefts: list[np.ndarray] = []
        self.rights: list[np.ndarray] = []
        self.kind = None

    def __bool__(self):
        return False

    def take(self, a: np.ndarray, b: np.ndarray) -> bool:
        """Hold ``a b`` if both have fewer than `REFERENCE_MIN_SIZE`
        elements, none of them empty, and the batch is empty or holds
        operands of their shapes and dtypes.

        A batch is keyed by each operand's rows and size, which fix the
        shape of a matrix, and dtype: a sum whose operands differ in shape
        fails in numpy, as one formed term by term does, and is never
        stacked under the wrong shape.
        """
        kind = (len(a), len(b), a.size, b.size, a.dtype, b.dtype)
        if kind != self.kind:
            if self.lefts or not (
                0 < a.size < REFERENCE_MIN_SIZE and 0 < b.size < REFERENCE_MIN_SIZE
            ):
                return False
            self.kind = kind
        self.lefts.append(a)
        self.rights.append(b)
        return True

    def products(self) -> np.ndarray:
        """The held products in the order taken, stacked, from one numpy
        product; empties the batch. The stacks are joined from the
        operands' buffers, C-contiguous as the memo stores them."""
        products = np.matmul(_stacked(self.lefts), _stacked(self.rights))
        self.lefts.clear()
        self.rights.clear()
        return products


def _stacked(arrays: list[np.ndarray]) -> np.ndarray:
    """``np.array(arrays)`` for C-contiguous arrays of one shape and dtype,
    from their joined buffers; read-only."""
    first = arrays[0]
    stack = np.frombuffer(b"".join(arrays), first.dtype)
    return stack.reshape(len(arrays), *first.shape)


# A new operand's directions whose residual, after its projection on the
# basis, is below this fraction of the operand's Frobenius norm are dropped.
# On the width-100 lattice (seeds 1-3, 10 states, H-tilde to order 10) the
# operands already in the span left residuals of at most 1.4e-15, and the
# smallest new direction was 1.6e-12 (seed 3; 1.1e-10 and 1.1e-9 on seeds 1
# and 2). The bound sits between the two. What it drops from an operand of
# m columns weighs at most sqrt(m) times this fraction of its norm.
DROP_RTOL = 1e-13

# The second projection leaves each new direction a part in Q of about eps
# times the residual's norm over the direction's weight. A direction weaker
# than this fraction of the strongest one is projected out of Q once more, as
# a unit vector, and the new directions are orthonormalized again. With 5 of
# 100 new directions at 1.01 times this fraction, mixed into all columns of
# an operand, Q stayed orthonormal within 7e-15 (7e-14 at 1e-3). Without the
# further pass, one mixed direction at 1e-12 of the operand's norm left Q
# orthonormal only within 2e-6. On dense_two_block the weakest kept direction
# is 0.12 of the strongest, so each extension there takes one QR.
WEAK_RTOL = 1e-2


class LargeBlockBasis:
    """Orthonormal basis ``Q`` shared by the entries of one large block.

    An entry ``a b`` is formed from thin operands, ``a`` of ``N x m``
    columns and ``b`` of ``m x N`` rows. Through `extend`, each operand
    first adds its new directions to ``Q``, found by block classical
    Gram-Schmidt run twice and the triangle of one QR. Of the ``m``
    candidate directions of an operand that is projected, those below
    `DROP_RTOL` are dropped and counted in ``dropped``; an operand already
    in the span drops all ``m`` after one projection pass.
    A `Reference` takes its source's coordinates, negated if its sign is
    -1 and those of the other side if it is an adjoint; no arrays are
    compared. ``buffer`` is exactly
    ``N x width``: each extension replaces it by a copy wider by the
    columns added, real until a complex operand arrives. Entries read it
    through this object, so they never pin an old buffer.
    """

    def __init__(self, dimension: int):
        self.dimension = dimension
        self.buffer = np.empty((dimension, 0), order="F")
        self.dropped = 0
        self._known: dict[tuple, tuple] = {}

    @property
    def width(self) -> int:
        return self.buffer.shape[1]

    def extend(self, x, rows: bool = False) -> np.ndarray:
        """Take up the new directions of ``x`` in ``Q``; the coordinates
        ``Qᴴ x`` of columns ``x``, or ``x Q`` of rows ``x``, on all of ``Q``.

        The coordinates of a read-only operand (a memoized entry, or the
        source of a reference) are remembered, so that it extends ``Q``
        once, and completed when ``Q`` has grown since.
        """
        columns = self.held(x, rows)
        if columns is None:
            sign, source, side = _source(x, rows)
            columns = self._extend(source, side)
            if not source.flags.writeable:  # unique: the memo holds it
                self._known[id(source), side] = (columns, source)
            columns = -columns if sign < 0 else columns
        return columns.conj().T if rows else columns

    def held(self, x, rows: bool = False) -> np.ndarray | None:
        """``Qᴴ X`` on all of ``Q`` for the columns ``X`` of ``x`` (with
        ``rows``, of ``xᴴ``) if the basis holds ``x`` or, for a reference,
        its source; ``None`` otherwise. A held operand's coordinates are
        completed on the columns added since, and remembered so; no other
        operand is recorded, and ``Q`` is never extended."""
        sign, source, side = _source(x, rows)
        key = (id(source), side)
        if key not in self._known:
            return None
        columns, y = self._known[key]
        if len(columns) < self.width:
            rest = _project(self.buffer[:, len(columns) :], y, side)
            columns = np.vstack([columns, rest])
            self._known[key] = (columns, y)
        return -columns if sign < 0 else columns

    def _extend(self, x, rows):
        """Extend ``Q`` by the new directions of ``x``; its coordinates.

        ``x`` is projected out of ``Q``. A residual below `DROP_RTOL` of
        its norm is dropped whole: a second pass could only shrink it.
        Otherwise the residual is projected out of ``Q`` once more, which
        removes the rounding of the first pass (Giraud, Langou and Rozložník
        2005). The SVD ``U s Vh`` of the triangle ``R`` of its QR (``mode="r"``,
        the same ``geqrf`` output as a full QR's, without building its ``Q``)
        gives the new directions ``residual Vhᴴ / s``, equal to
        ``Q_qr U`` in exact arithmetic, and their coordinates ``s Vh``.
        Weak directions (`WEAK_RTOL`) take a further pass, a QR, and their
        coordinates by projection. The QR is numpy's, so it runs in the BLAS
        and thread pool of the products (see `_dot`).
        """
        columns = x.conj().T if rows else x
        norm = np.linalg.norm(columns)
        if not np.isfinite(norm):
            raise ValueError(
                f"A {x.shape[0]}x{x.shape[1]} operand of a large block has "
                f"Frobenius norm {norm}: its entries are not finite or overflow."
            )
        q = self.buffer
        coefficients = _project(q, x, rows)
        residual = columns - q @ coefficients
        kept = 0
        if np.linalg.norm(residual) > DROP_RTOL * norm:
            correction = _overlap(q, residual)
            residual -= q @ correction
            coefficients += correction
            values, weights = np.linalg.svd(np.linalg.qr(residual, mode="r"))[1:]
            kept = int(np.count_nonzero(values > DROP_RTOL * norm))
        self.dropped += columns.shape[1] - kept
        if not kept:
            return coefficients
        new = residual @ (weights[:kept].conj().T / values[:kept])
        if values[kept - 1] < WEAK_RTOL * values[0]:
            new -= q @ _overlap(q, new)
            new = np.linalg.qr(new)[0]
            added = _project(new, x, rows)
        else:
            added = values[:kept, None] * weights[:kept]
        width = q.shape[1]
        self.buffer = np.empty((self.dimension, width + kept), new.dtype, order="F")
        self.buffer[:, :width] = q
        self.buffer[:, width:] = new
        return np.vstack([coefficients, added])


def _overlap(q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``qᴴ x`` as ``conj(qᵀ conj(x))``, with no conjugate copy of ``q``."""
    return (q.T @ x.conj()).conj()


def _source(x, rows: bool) -> tuple[int, np.ndarray, bool]:
    """``(sign, y, side)`` with ``x`` taken on ``rows`` equal to ``sign``
    times ``y`` taken on ``side``: ``x`` itself, or a reference's source,
    on the other side if the reference is an adjoint."""
    if type(x) is Reference:
        return x.sign, x.source, rows != x.adjoint
    return 1, x, rows


def _project(q: np.ndarray, x, rows: bool) -> np.ndarray:
    """``qᴴ X`` for the columns ``X`` of ``x``: ``x`` itself, or with
    ``rows`` its conjugate transpose. A reference is projected through its
    source."""
    sign, x, rows = _source(x, rows)
    projection = (x @ q).conj().T if rows else _overlap(q, x)
    return np.negative(projection, out=projection) if sign < 0 else projection


def _dot(a, b) -> np.ndarray:
    """``a @ b`` of ndarrays and references: one numpy product on their
    sources, which it takes transposed as views. An adjoint costs a
    conjugate copy of its source, and a sign a negated copy of the smaller
    factor, since negation is exact. scipy's BLAS would take both as flags,
    but it runs a thread pool of its own, and switching between the two
    stalls both."""
    sign = 1
    if type(a) is Reference:
        sign, a = a.sign, a.source.conj().T if a.adjoint else a.source
    if type(b) is Reference:
        sign, b = sign * b.sign, b.source.conj().T if b.adjoint else b.source
    if sign < 0 and a.size <= b.size:
        a = -a
    elif sign < 0:
        b = -b
    return a @ b


class FactoredOperator(LinearOperator):
    """An entry ``sign · L C Rᴴ`` on the basis ``Q`` of a large block.

    ``Q`` is the block's `LargeBlockBasis`, shared by every entry of the
    run, ``C`` the read-only core and ``sign`` 1 or -1, which negates the
    small products of the core, never the core: a negated entry shares its
    core. ``sides`` says which sides lie on the block: ``L`` is
    ``Q[:, :r]`` for the ``r`` rows of ``C`` if ``sides[0]``, and the
    identity otherwise; ``R`` is ``Q[:, :c]`` for its ``c`` columns if
    ``sides[1]``. An entry of the large diagonal block is ``Q_r C Q_cᴴ``;
    one beside it, on its row or column of blocks, ``C Q_cᴴ`` (m x N) or
    ``Q_r C`` (N x m), whose other side is not on ``Q``. ``args`` is the basis'
    current buffer and the core, the arrays the entry holds. Applied to
    columns (``_matmat``, and through the adjoint every other
    `scipy.sparse.linalg.LinearOperator` action), an entry never extends
    ``Q``, and reads a held operand's coordinates
    (`LargeBlockBasis.held`) instead of its product with ``Q``.
    """

    def __init__(
        self,
        basis: LargeBlockBasis,
        core: np.ndarray,
        sign: int = 1,
        sides: tuple[bool, bool] = (True, True),
    ):
        shape = [basis.dimension if side else k for side, k in zip(sides, core.shape)]
        super().__init__(core.dtype, tuple(shape))
        core.flags.writeable = False
        self.basis = basis
        self.core = core
        self.sign = sign
        self.sides = sides

    @property
    def args(self):
        return (self.basis.buffer, self.core)

    def _left(self):
        return self.basis.buffer[:, : self.core.shape[0]]

    def _right(self):
        return self.basis.buffer[:, : self.core.shape[1]]

    def _matmat(self, x):
        return to_array(_factored_product(self, x, None))

    def _adjoint(self):
        core = self.core.conj().T
        return FactoredOperator(self.basis, core, self.sign, self.sides[::-1])

    def toarray(self) -> np.ndarray:
        """The dense ``sign · L C Rᴴ``, a new array; ``x Q_cᴴ`` is formed as
        ``conj(conj(x) Q_cᵀ)``, with no conjugate copy of ``Q``."""
        value = self._left() @ self.core if self.sides[0] else self.core
        if self.sides[1]:
            value = value.conj() @ self._right().T
            np.conj(value, out=value)
        return np.negative(value, out=value) if self.sign < 0 else value


_THIN = (np.ndarray, Reference)


def _materialized(a):
    """``a``, with a reference or an entry with a side off its basis made an
    array."""
    if type(a) is Reference or type(a) is FactoredOperator and not all(a.sides):
        return a.toarray()
    return a


def _entry(basis, core: np.ndarray, sign: int, sides: tuple[bool, bool]):
    """``sign · core`` on ``basis`` with ``sides``, an ndarray where neither
    side lies on ``Q``; ``core`` is a new array."""
    if any(sides):
        return FactoredOperator(basis, core, sign, sides)
    return np.negative(core, out=core) if sign < 0 else core


def _factored_product(a, b, lazy):
    """``a @ b`` of a factored entry and a thin operand, or of two entries
    on one basis whose inner sides agree, on that basis: the product of the
    cores, a thin operand taken by its coordinates on ``Q`` where the inner
    side lies on ``Q``, and as it is otherwise. A thin operand on the
    large block's side of a product on that block (``lazy``) extends ``Q``.
    """
    if type(a) is type(b):
        inner = min(a.core.shape[1], b.core.shape[0])
        core = a.core[:, :inner] @ b.core[:inner]
        return _entry(a.basis, core, a.sign * b.sign, (a.sides[0], b.sides[1]))
    if type(a) is FactoredOperator:
        basis, (outer, inner) = a.basis, a.sides
        if inner:
            coordinates = basis.held(b)
            if coordinates is None:
                coordinates = _project(a._right(), b, False)
            core = a.core @ coordinates[: a.core.shape[1]]
        else:
            core = a.core @ basis.extend(b, rows=True) if lazy else _dot(a.core, b)
        return _entry(basis, core, a.sign, (outer, not inner and bool(lazy)))
    basis, (inner, outer) = b.basis, b.sides
    if inner:
        coordinates = basis.held(a, rows=True)
        if coordinates is None:
            coordinates = _dot(a, b._left())
        else:
            coordinates = coordinates[: b.core.shape[0]].conj().T
        core = coordinates @ b.core
    else:
        core = basis.extend(a) @ b.core if lazy else _dot(a, b.core)
    return _entry(basis, core, b.sign, (not inner and bool(lazy), outer))


def _padded_sum(a: FactoredOperator, b: FactoredOperator) -> np.ndarray:
    """Core of ``a + b``, each core padded with zeros and taken with its sign."""
    shape = tuple(map(max, a.core.shape, b.core.shape))
    total = np.zeros(shape, dtype=np.promote_types(a.dtype, b.dtype))
    first = total[: a.core.shape[0], : a.core.shape[1]]
    (np.negative if a.sign < 0 else np.positive)(a.core, out=first)
    second = total[: b.core.shape[0], : b.core.shape[1]]
    (np.subtract if b.sign < 0 else np.add)(second, b.core, out=second)
    return total


def as_dense(array, dtype=None, what: str = "An input") -> np.ndarray:
    """Input as a 2-D ndarray, of ``dtype`` if given. As ``float64``, a complex
    input with a non-zero imaginary part raises `ValueError`, naming ``what``."""
    if type(array) is Reference:
        return array.toarray()
    if issparse(array):
        array = array.toarray()
    if dtype == np.float64 and np.iscomplexobj(array):
        if np.any(np.imag(array)):
            raise ValueError(f"{what} is complex, but the problem is real.")
        array = np.real(array).copy()
    result = np.asarray(array, dtype=dtype)
    if result.ndim != 2:
        raise ValueError(f"Expected a 2-D operator, got shape {result.shape}.")
    return result


def matmul(a, b, *, lazy: LargeBlockBasis | ProductBatch | None = None):
    """Matrix product of two operators.

    Products involving ``zero`` return ``zero`` and products with ``one``
    return the other factor without scalar work. ``lazy`` is the basis of
    the large block the product lands on: a product of two thin operands
    (ndarrays or references) is then kept as a `FactoredOperator` on that
    basis, and otherwise formed by one numpy product. Or ``lazy`` is a
    `ProductBatch`, which is returned if it takes two ndarrays; any other
    product is formed as without ``lazy``. A factored entry times a thin
    operand, or times an entry on its basis, is factored on the outer sides
    that lie on ``Q``, and an ndarray if neither does (`_factored_product`).
    Where any other `LinearOperator` meets an operand, the product is its
    action, or a lazy composition of two operators.
    """
    if type(a) is np.ndarray and type(b) is np.ndarray:
        if type(lazy) is ProductBatch and lazy.take(a, b):
            return lazy
        if not lazy:
            return a @ b
    if type(a) in _THIN and type(b) in _THIN and not lazy:
        return _dot(a, b)
    if isinstance(a, Zero) or isinstance(b, Zero):
        return zero
    if isinstance(a, One):
        return b
    if isinstance(b, One):
        return a
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"Dimension mismatch in product: {a.shape} @ {b.shape}.")
    thin_a, thin_b = type(a) in _THIN, type(b) in _THIN
    if thin_a and thin_b:
        return FactoredOperator(lazy, lazy.extend(a) @ lazy.extend(b, rows=True))
    if type(a) is FactoredOperator:
        if thin_b or (
            type(b) is FactoredOperator
            and a.basis is b.basis
            and a.sides[1] == b.sides[0]
        ):
            return _factored_product(a, b, lazy)
    elif thin_a and type(b) is FactoredOperator:
        return _factored_product(a, b, lazy)
    a, b = _materialized(a), _materialized(b)
    a_op = isinstance(a, LinearOperator)
    b_op = isinstance(b, LinearOperator)
    if a_op and b_op:
        return a @ b  # stays lazy
    if a_op:
        return a.matmat(b)
    if b_op:
        # dense @ operator evaluated through the adjoint action
        return adjoint(b.H.matmat(a.conj().T))
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
    if (
        type(a) is type(b) is FactoredOperator
        and a.basis is b.basis
        and a.sides == b.sides
    ):
        return FactoredOperator(a.basis, _padded_sum(a, b), sides=a.sides)
    a, b = _materialized(a), _materialized(b)
    if isinstance(a, LinearOperator) or isinstance(b, LinearOperator):
        return aslinearoperator(a) + aslinearoperator(b)
    return a + b


def scale(a, c: complex):
    """Scalar multiple; by -1, a reference or a factored entry copies nothing."""
    if isinstance(a, Zero):
        return zero
    if c == 1:
        return a
    if isinstance(a, One):
        raise ValueError("Cannot scale the structural identity; wrap it densely.")
    if type(a) is FactoredOperator:
        if c == -1:
            return FactoredOperator(a.basis, a.core, -a.sign, a.sides)
        return FactoredOperator(a.basis, a.core * (c * a.sign), sides=a.sides)
    if type(a) is Reference and c == -1:
        return Reference(-a.sign, a.adjoint, a.source)
    return _materialized(a) * c


def adjoint(a):
    """Conjugate transpose; shape swapped, no products performed."""
    if isinstance(a, (Zero, One)):
        return a
    if type(a) is Reference:
        return Reference(a.sign, not a.adjoint, a.source)
    if isinstance(a, LinearOperator):
        return a.H
    return a.conj().T


def to_array(a, shape: tuple[int, int] | None = None) -> np.ndarray:
    """Materialize any operator as a dense array."""
    if isinstance(a, Zero):
        if shape is None:
            raise ValueError("Cannot materialize zero without a shape.")
        return np.zeros(shape)
    if isinstance(a, One):
        if shape is None:
            raise ValueError("Cannot materialize the identity without a shape.")
        return np.eye(*shape)
    if type(a) in (FactoredOperator, Reference):
        return a.toarray()
    if isinstance(a, LinearOperator):
        if a.shape[1] > a.shape[0]:  # applied to the smaller identity
            return a.H.matmat(np.eye(a.shape[0], dtype=a.dtype)).conj().T
        return a.matmat(np.eye(a.shape[1], dtype=a.dtype))
    return as_dense(a)

