"""Lazy, memoized, multivariate series of operator blocks.

A `BlockSeries` maps a block index ``(i, j)`` and an order multi-index
``(n_1, ..., n_k)`` to an operator. Entries are computed on first access by a
recurrence callback and stored, so that requesting additional orders reuses
all previous work. Structural zeros propagate as the ``zero`` sentinel and
are masked in range queries instead of being materialized.

Every product of two series entries is made by one kernel, `contract`.
`cauchy_product` multiplies two series. Every recurrence is such a binary
product, and ``U†OU`` is the nested ``U†(OU)``, so ``OU`` is a memoized
series whose entries are computed once and reused by every entry of the
outer product.

On small blocks the kernel's bookkeeping, not its arithmetic, sets the
time, so it keeps that small. The order pairs of an entry come from a plan
cached per order, shared by every block and series. A series may declare
its support, the orders at which each block can be non-zero, as the
perturbation's ``H'_S`` and ``H'_R`` do; the kernel then takes only the
pairs of the plan whose factors lie in it, and the series stores nothing
outside it. Factors are read straight from the memo dict of each series,
stored flat under ``(i, j, *order)`` keys; only a missing entry takes the
series' evaluation path, which does all that `BlockSeries.get` does on a
miss. Products are tallied once per entry. Each product is one `matmul`
call, but one of two small ndarrays
(`~blockpert.operators.REFERENCE_MIN_SIZE`) only joins the
`~blockpert.operators.ProductBatch` of its sum. The kernel forms the batch
as one stacked numpy product before the next term formed on its own, and
at the end, and adds its products in plan order like every other term; so
each sum is bitwise the one of products formed one at a time.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from itertools import product as cartesian
from types import MappingProxyType
from typing import Callable, Iterable, Mapping

import numpy as np

from blockpert.operators import (
    LargeBlockBasis,
    OperationCounter,
    ProductBatch,
    Zero,
    add,
    adjoint,
    matmul,
    one,
    to_array,
    zero,
)

__all__ = [
    "BlockSeries",
    "NonFiniteError",
    "RecurrenceCycleError",
    "cauchy_product",
    "contract",
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


class NonFiniteError(ValueError):
    """An entry overflowed or turned NaN while it was evaluated.

    ``chain`` lists the evaluations in flight, outermost first, like that
    of `RecurrenceCycleError`; the last entry is the one whose arithmetic
    failed, and ``cause`` says how.
    """

    def __init__(self, cause: str, chain: tuple[str, ...] = ()):
        super().__init__(cause)
        self.cause = cause
        self.chain = list(chain)

    def __str__(self):
        inner = f" in {self.chain[-1]}" if len(self.chain) > 1 else ""
        return f"{self.chain[0]} is not finite: {self.cause}{inner}"


class _Evaluating(threading.local):
    """Whether this thread is inside an evaluation, which then runs under
    the error state that the outermost one entered."""

    active = False


_evaluating = _Evaluating()


def _memo_value(value):
    """The form in which an entry is stored: ``zero`` for ``None``, and a
    read-only view of a writeable ndarray, so no memoized entry can be
    changed in place (the viewed array stays writeable). A read-only array,
    a `~blockpert.operators.Reference` and any other operand are stored as
    they are, so an entry that is another's array is that array."""
    if value is None:
        return zero
    if isinstance(value, np.ndarray) and value.flags.writeable:
        value = value.view()
        value.flags.writeable = False
    return value


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
        The `~blockpert.operators.LargeBlockBasis` of each factored block,
        by label: the large blocks of an implicit problem and the big
        explicit blocks. Products landing on such a diagonal block are kept
        factored on its basis, shared by every series of one run.
    support :
        Optional orders at which each block ``(i, j)`` can be non-zero; a
        block it does not list is zero at every order. An entry outside
        the support is ``zero`` without being evaluated or stored, and
        `contract` plans no product with it. ``None``, the default, means
        that any entry can be non-zero.
    """

    def __init__(
        self,
        eval: Callable | None = None,
        shape: tuple[int, int] = (2, 2),
        n_params: int = 1,
        data: dict | None = None,
        name: str = "series",
        param_names: tuple[str, ...] | None = None,
        large_blocks: dict[int, LargeBlockBasis] | None = None,
        support: Mapping[tuple[int, int], Iterable[tuple[int, ...]]] | None = None,
    ):
        self.eval = eval
        self.shape = shape
        self.n_params = n_params
        self.name = name
        self.param_names = param_names or tuple(
            f"lambda_{i}" for i in range(n_params)
        )
        self.large_blocks = large_blocks or {}
        self._data = {k: _memo_value(v) for k, v in (data or {}).items()}
        self._in_progress: dict[tuple, int] = {}  # key -> evaluating thread
        self._support = None
        if support is not None:
            self._support = MappingProxyType(
                {
                    block: frozenset(map(tuple, support.get(block, ())))
                    for block in cartesian(range(shape[0]), range(shape[1]))
                }
            )
            outside = [
                key
                for key, value in self._data.items()
                if value is not zero and key[2:] not in self._support[key[:2]]
            ]
            if outside:
                raise ValueError(f"{name} holds entries outside its support: {outside}")
        self._plans: dict[tuple, tuple] = {}  # see _plan_within

    @property
    def support(self) -> Mapping[tuple[int, int], frozenset] | None:
        """The orders at which each block can be non-zero, read-only, or
        ``None`` if any can."""
        return self._support

    def __repr__(self):
        return (
            f"BlockSeries(name={self.name!r}, shape={self.shape}, "
            f"n_params={self.n_params})"
        )

    def get(self, block: tuple[int, int], order: tuple[int, ...]):
        """Memoized entry at one block and order.

        An ndarray entry, seeded or evaluated, is read-only. An entry that
        the recurrences derive from another one may be a
        `~blockpert.operators.Reference` to it; `to_array` materializes it.
        An entry that another thread is evaluating raises `RuntimeError` at
        once; waiting for it could deadlock. Arithmetic that overflows or
        turns NaN raises `NonFiniteError`.
        """
        key = (*block, *order)
        value = self._data.get(key)
        return self._evaluate(key) if value is None else value

    def _evaluate(self, key: tuple):
        """Evaluate and store the entry ``key``, which is not stored yet.

        The miss path of `get` and of `contract`'s direct lookups. ``eval``
        is read at call time, so a wrapper installed after construction
        sees every evaluation. The outermost evaluation of a thread makes
        numpy raise on overflow and on invalid results, for it and for all
        that it starts. An entry outside the support is ``zero``, neither
        evaluated nor stored.
        """
        self._check_key(key)
        if self._support is not None and key[2:] not in self._support[key[:2]]:
            return zero
        if self.eval is None:
            raise KeyError(f"{self.name}{key} has no stored value and no eval.")
        thread = threading.get_ident()
        if self._in_progress.get(key) == thread:
            raise RecurrenceCycleError(f"{self.name}{key}")
        if self._in_progress.setdefault(key, thread) != thread:
            raise RuntimeError(
                f"{self.name}{key} is being evaluated by another thread."
            )
        outer = not _evaluating.active
        try:
            if outer:
                _evaluating.active = True
                with np.errstate(over="raise", invalid="raise"):
                    value = _memo_value(self.eval(*key))
            else:
                value = _memo_value(self.eval(*key))
            self._data[key] = value
        except (RecurrenceCycleError, NonFiniteError) as error:
            error.chain.insert(0, f"{self.name}{key}")
            raise
        except FloatingPointError as error:
            raise NonFiniteError(str(error), (f"{self.name}{key}",)) from error
        finally:
            del self._in_progress[key]
            if outer:
                _evaluating.active = False
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

    def _check_key(self, key):
        i, j = key[:2]
        if not (0 <= i < self.shape[0] and 0 <= j < self.shape[1]):
            raise IndexError(f"Block {key[:2]} outside shape {self.shape}.")
        orders = key[2:]
        if len(orders) != self.n_params or (orders and min(orders) < 0):
            raise IndexError(f"Invalid order index {orders} for {self.name}.")


@lru_cache(maxsize=None)
def _pair_plan(order: tuple[int, ...], hermitian: bool) -> tuple:
    """The pairs ``(m, n - m, left_first, half)`` that `contract` sums at
    order ``n``, ``m`` in lexicographic order.

    Cached per ``(n, hermitian)`` only: every block, series and internal
    block contracted without a support shares one plan. A plan with a
    support applied is cached apart, on its series (`_plan_within`).
    """
    total = sum(order)
    plan = []
    for m in orders_up_to(order):
        p = tuple(a - b for a, b in zip(order, m))
        if hermitian and m > p:
            continue
        plan.append((m, p, 2 * sum(m) <= total, int(hermitian and m < p)))
    return tuple(plan)


def _plan_within(left, right, row, column, order, hermitian) -> tuple:
    """`_pair_plan` without the pairs whose left factor ``row + m`` or
    right factor ``column + p`` lies outside its series' support, in the
    plan's order. Cached on a series with a support, under the order,
    ``hermitian`` and the two supports applied (``None`` for none)."""
    ms = None if left._support is None else left._support[row]
    ps = None if right._support is None else right._support[column]
    plans = (right if ms is None else left)._plans
    key = (order, hermitian, ms, ps)
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = tuple(
            pair
            for pair in _pair_plan(order, hermitian)
            if (ms is None or pair[0] in ms) and (ps is None or pair[1] in ps)
        )
    return plan


def contract(left, right, block, order, counter, *, hermitian=False):
    """Entry ``block, order = (i, j), n`` of the Cauchy product of two series.

    The engine's only product site: it sums ``left[i, l, m] right[l, j, n-m]``
    over internal blocks ``l`` (outer loop) and orders ``m <= n``, and tallies
    every product in ``counter``. Of each pair the factor at lower total
    order is queried first (the left one on ties); a structural zero skips
    the other query and the product. On a large diagonal block every
    product gets the block's basis as ``lazy=``, so it stays factored;
    elsewhere it gets the `~blockpert.operators.ProductBatch` of its sum.
    ``hermitian`` declares the pair ``(p, m)`` the adjoint of ``(m, p)``, as
    in ``X†X`` on a diagonal block: only pairs with ``m <= p`` are
    multiplied, and the ``m < p`` part is added together with its adjoint
    once.

    The pairs of an order come from a plan cached per ``(n, hermitian)``.
    Where a factor's series has a support, internal block ``l`` takes the
    pairs of that plan whose ``m`` lies in the support of ``(i, l)`` on the
    left and whose ``n - m`` lies in that of ``(l, j)`` on the right, in
    the plan's order; an empty support skips ``l``. The pairs left out
    hold a structural zero, so the sums, the query order of the others and
    the products are those of the full plan. Factors are read straight
    from each series' memo, under the key ``(i, l) + m``; a missing entry
    is evaluated and stored by the series, as `BlockSeries.get` would.
    Sums are never formed in place, since a product with ``one`` is the
    stored factor itself.
    """
    i, j = block
    basis = None
    if i == j:
        basis = left.large_blocks.get(i) or right.large_blocks.get(i)
    left_memo, right_memo = left._data.get, right._data.get
    sums = [zero, zero]  # the other pairs, and the m < p half
    batches = (ProductBatch(), ProductBatch())
    lazy = (basis, basis) if basis else batches
    products = 0
    order = tuple(order)
    plan = _pair_plan(order, hermitian)
    supported = left._support is not None or right._support is not None
    for l in range(left.shape[1]):
        row, column = (i, l), (l, j)
        if supported:
            plan = _plan_within(left, right, row, column, order, hermitian)
        for m, p, left_first, half in plan:
            if left_first:
                a = left_memo(row + m)
                if a is None:
                    a = left._evaluate(row + m)
                if a is zero:
                    continue
                b = right_memo(column + p)
                if b is None:
                    b = right._evaluate(column + p)
                if b is zero:
                    continue
            else:
                b = right_memo(column + p)
                if b is None:
                    b = right._evaluate(column + p)
                if b is zero:
                    continue
                a = left_memo(row + m)
                if a is None:
                    a = left._evaluate(row + m)
                if a is zero:
                    continue
            if a is not one and b is not one:
                products += 1
            batch = lazy[half]
            term = matmul(a, b, lazy=batch)
            if term is not batch:
                sums[half] = add(_summed(sums[half], batches[half]), term)
    result, half = map(_summed, sums, batches)
    counter.matmul_count += products
    return add(result, add(half, adjoint(half)))


def _summed(total, batch: ProductBatch):
    """``total`` plus the products held in ``batch``, added one by one in
    the order taken; empties the batch."""
    if not batch.lefts:
        return total
    products = batch.products()
    if total is not zero:
        products = np.concatenate([to_array(total)[None], products])
    if products[0].size == 1:  # add.reduce would sum these pairwise
        return np.add.accumulate(products)[-1].copy()
    return np.add.reduce(products)


def cauchy_product(
    left: BlockSeries,
    right: BlockSeries,
    *,
    name: str = "product",
    counter: OperationCounter | None = None,
) -> BlockSeries:
    """Block-contracting Cauchy product of two series.

    Each entry is made by `contract`, which tallies every product in
    ``counter``. A product of three factors is nested, ``a (b c)``.
    """
    if counter is None:
        counter = OperationCounter()
    if left.shape[1] != right.shape[0]:
        raise ValueError(f"Block shape mismatch: {left.shape} @ {right.shape}.")
    if left.n_params != right.n_params:
        raise ValueError("Factors have different numbers of parameters.")

    def eval(i, j, *n):
        return contract(left, right, (i, j), n, counter)

    return BlockSeries(
        eval=eval,
        shape=(left.shape[0], right.shape[1]),
        n_params=left.n_params,
        name=name,
        param_names=left.param_names,
        large_blocks={**left.large_blocks, **right.large_blocks},
    )
