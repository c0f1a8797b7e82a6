"""Lazy, memoized, multivariate series of operator blocks.

A `BlockSeries` maps a block index ``(i, j)`` and an order multi-index
``(n_1, ..., n_k)`` to an operator. Entries are computed on first access by a
recurrence callback and stored, so that requesting additional orders reuses
all previous work. Structural zeros propagate as the ``zero`` sentinel and
are masked in range queries instead of being materialized.

`cauchy_product` is binary: every recurrence multiplies two series, and a
product of more factors folds to the right into memoized binary products,
so ``U†OU`` computes ``OU`` once and reuses it for every entry.
"""

from __future__ import annotations

import threading
from itertools import product as cartesian
from typing import Any, Callable

import numpy as np

from blockpert.operators import OperationCounter, Zero, adjoint, add, matmul, zero

__all__ = [
    "BlockSeries",
    "RecurrenceCycleError",
    "cauchy_product",
    "series_adjoint",
    "orders_up_to",
]


class RecurrenceCycleError(RuntimeError):
    """A recurrence queried its own entry at equal order.

    ``chain`` lists the evaluations in flight, outermost first. Each
    `BlockSeries.get` the error unwinds through adds its own entry, so the
    chain holds only the evaluations of the thread that hit the cycle.
    """

    def __init__(self, entry: str):
        super().__init__(entry)
        self.entry = entry
        self.chain: list[str] = []

    def __str__(self):
        chain = " -> ".join(self.chain)
        return f"{self.entry} queried while being evaluated: {chain}"


def orders_up_to(max_orders: tuple[int, ...]):
    """Iterate multi-indices ``m <= max_orders`` componentwise, lexicographically."""
    return cartesian(*(range(n + 1) for n in max_orders))


class BlockSeries:
    """Memoized series of operator blocks with a recurrence callback.

    Parameters
    ----------
    eval :
        Callback ``(i, j, n_1, ..., n_k) -> operator`` computing an entry that
        is not yet stored. May query other series (and lower orders of series
        that depend on this one); self-reference at equal order is an error.
    shape :
        Number of block rows and columns ``(b, b)``.
    n_params :
        Number of perturbative parameters ``k``.
    data :
        Optional initial entries ``{(i, j, n_1, ..., n_k): operator}``.
    name :
        Label used in error messages and cycle reports.
    param_names :
        Optional labels of the perturbative parameters.
    large_blocks :
        Block labels whose basis is the large implicit space; products
        landing on such diagonal blocks are kept matrix-free.
    """

    def __init__(
        self,
        eval: Callable | None = None,
        shape: tuple[int, int] = (2, 2),
        n_params: int = 1,
        data: dict | None = None,
        name: str = "series",
        param_names: tuple[str, ...] | None = None,
        large_blocks: frozenset[int] = frozenset(),
    ):
        self.eval = eval
        self.shape = shape
        self.n_params = n_params
        self.name = name
        self.param_names = param_names or tuple(
            f"lambda_{i}" for i in range(n_params)
        )
        self.large_blocks = large_blocks
        self._data: dict[tuple, Any] = dict(data) if data else {}
        self._in_progress: dict[tuple, int] = {}  # key -> evaluating thread

    def __repr__(self):
        return (
            f"BlockSeries(name={self.name!r}, shape={self.shape}, "
            f"n_params={self.n_params})"
        )

    def get(self, block: tuple[int, int], order: tuple[int, ...]):
        """Memoized entry at one block and order.

        An entry that another thread is evaluating raises `RuntimeError` at
        once; waiting for it could deadlock.
        """
        key = (*block, *order)
        if key in self._data:
            return self._data[key]
        self._check_key(key)
        if self.eval is None:
            raise KeyError(f"{self.name}{key} has no stored value and no eval.")
        thread = threading.get_ident()
        if self._in_progress.get(key) == thread:
            raise RecurrenceCycleError(f"{self.name}{key}")
        if self._in_progress.setdefault(key, thread) != thread:
            raise RuntimeError(
                f"{self.name}{key} is being evaluated by another thread."
            )
        try:
            value = self.eval(*key)
            if value is None:
                value = zero
            self._data[key] = value
        except RecurrenceCycleError as error:
            error.chain.insert(0, f"{self.name}{key}")
            raise
        finally:
            del self._in_progress[key]
        return value

    def __getitem__(self, key):
        """Entry access with numpy-style indexing.

        Integer keys return the stored operator (possibly ``zero``). Slices
        over order axes return a masked object array in which structural
        zeros are masked.
        """
        if not isinstance(key, tuple):
            key = (key,)
        if len(key) != 2 + self.n_params:
            raise IndexError(
                f"{self.name} expects {2 + self.n_params} indices, got {len(key)}."
            )
        if all(isinstance(k, (int, np.integer)) for k in key):
            return self.get((int(key[0]), int(key[1])), tuple(map(int, key[2:])))
        ranges = []
        for axis, k in enumerate(key):
            limit = self.shape[axis] if axis < 2 else None
            if isinstance(k, (int, np.integer)):
                ranges.append([int(k)])
            elif isinstance(k, slice):
                if axis >= 2 and k.stop is None:
                    raise IndexError("Order slices must be bounded.")
                stop = k.stop if k.stop is not None else limit
                ranges.append(list(range(*k.indices(stop))))
            else:
                raise IndexError(f"Unsupported index {k!r}.")
        result_shape = tuple(len(r) for r in ranges)
        values = np.empty(result_shape, dtype=object)
        mask = np.zeros(result_shape, dtype=bool)
        for pos in cartesian(*(range(len(r)) for r in ranges)):
            entry_key = tuple(r[p] for r, p in zip(ranges, pos))
            value = self.get(entry_key[:2], entry_key[2:])
            if isinstance(value, Zero):
                mask[pos] = True
            else:
                values[pos] = value
        return np.ma.masked_array(values, mask=mask).squeeze()

    def stored_keys(self):
        """Keys of all memoized entries."""
        return set(self._data)

    def clear(self):
        """Drop all memoized entries (retention control)."""
        self._data.clear()

    def _check_key(self, key):
        i, j = key[:2]
        if not (0 <= i < self.shape[0] and 0 <= j < self.shape[1]):
            raise IndexError(f"Block {key[:2]} outside shape {self.shape}.")
        orders = key[2:]
        if len(orders) != self.n_params or any(n < 0 for n in orders):
            raise IndexError(f"Invalid order index {orders} for {self.name}.")


def cauchy_product(
    *factors: BlockSeries,
    name: str = "product",
    counter: OperationCounter | None = None,
) -> BlockSeries:
    """Block-contracting Cauchy product of two or more series.

    The entry ``(i, j, n)`` of ``a b`` sums ``a[i, l, m] b[l, j, n - m]`` over
    internal blocks ``l`` and orders ``m <= n``. Of each pair the factor at
    lower total order is queried first (the left one on ties), and a
    structural zero skips the other query and the product. More factors fold
    to the right, ``a (b c)``, so the inner product is a memoized series that
    every outer term reuses. Every product is tallied in ``counter``.
    """
    if len(factors) < 2:
        raise ValueError("Need at least two factors.")
    if counter is None:
        counter = OperationCounter()
    left, right = factors[0], factors[1]
    if len(factors) > 2:
        right = cauchy_product(
            *factors[1:],
            name="·".join(f.name for f in factors[1:]),
            counter=counter,
        )
    if left.shape[1] != right.shape[0]:
        raise ValueError(f"Block shape mismatch: {left.shape} @ {right.shape}.")
    if left.n_params != right.n_params:
        raise ValueError("Factors have different numbers of parameters.")
    large = left.large_blocks | right.large_blocks

    def eval(i, j, *n):
        total = sum(n)
        pairs = []
        for m in orders_up_to(n):
            p = tuple(a - b for a, b in zip(n, m))
            pairs.append((m, p, 2 * sum(m) <= total))
        lazy = i in large and j in large
        result = zero
        for l in range(left.shape[1]):
            for m, p, left_first in pairs:
                if left_first:
                    a = left.get((i, l), m)
                    b = zero if isinstance(a, Zero) else right.get((l, j), p)
                else:
                    b = right.get((l, j), p)
                    a = zero if isinstance(b, Zero) else left.get((i, l), m)
                if not (isinstance(a, Zero) or isinstance(b, Zero)):
                    counter.count(a, b)
                    result = add(result, matmul(a, b, lazy=lazy))
        return result

    return BlockSeries(
        eval=eval,
        shape=(left.shape[0], right.shape[1]),
        n_params=left.n_params,
        name=name,
        param_names=left.param_names,
        large_blocks=large,
    )


def series_adjoint(series: BlockSeries, name: str | None = None) -> BlockSeries:
    """Adjoint series; delegates to the transposed block of the original.

    No products are performed: the entry ``(i, j, n)`` is the conjugate
    transpose of the original ``(j, i, n)`` entry, so memoized values are
    reused rather than recomputed.
    """

    def eval(*key):
        i, j = key[:2]
        return adjoint(series.get((j, i), key[2:]))

    return BlockSeries(
        eval=eval,
        shape=(series.shape[1], series.shape[0]),
        n_params=series.n_params,
        name=name or series.name + "†",
        param_names=series.param_names,
        large_blocks=series.large_blocks,
    )
