import threading
from itertools import product as cartesian

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockpert import series as series_module
from blockpert.diagonalization import block_diagonalize
from blockpert.operators import (
    REFERENCE_MIN_SIZE,
    OperationCounter,
    Zero,
    adjoint,
    one,
    zero,
)
from blockpert.problems import bilayer_graphene_problem
from blockpert.series import (
    BlockSeries,
    NonFiniteError,
    RecurrenceCycleError,
    cauchy_product,
    contract,
    orders_up_to,
)


def scalar_series(coefficients, name="scalar"):
    """1x1-block series from a {order: complex} dictionary."""

    def eval(i, j, *n):
        value = coefficients.get(n, 0.0)
        if value == 0.0:
            return zero
        return np.array([[value]], dtype=complex)

    return BlockSeries(eval=eval, shape=(1, 1), n_params=len(next(iter(coefficients))), name=name)


def test_get_memoizes():
    calls = []

    def eval(i, j, n):
        calls.append((i, j, n))
        return np.array([[float(n)]])

    series = BlockSeries(eval=eval, shape=(1, 1), n_params=1)
    first = series.get((0, 0), (2,))
    second = series.get((0, 0), (2,))
    assert first is second
    assert calls == [(0, 0, 2)]


def test_none_becomes_zero():
    series = BlockSeries(eval=lambda *k: None, shape=(1, 1), n_params=1)
    assert series.get((0, 0), (0,)) is zero


def test_cycle_detection_names_chain():
    series = BlockSeries(
        eval=lambda i, j, n: series.get((i, j), (n,)),
        shape=(1, 1),
        n_params=1,
        name="loopy",
    )
    with pytest.raises(RecurrenceCycleError, match="loopy"):
        series.get((0, 0), (1,))


def test_cycle_report_lists_the_evaluations_in_flight():
    first = BlockSeries(
        eval=lambda i, j, n: second.get((i, j), (n,)),
        shape=(1, 1),
        n_params=1,
        name="first",
    )
    second = BlockSeries(
        eval=lambda i, j, n: first.get((i, j), (n,)),
        shape=(1, 1),
        n_params=1,
        name="second",
    )
    with pytest.raises(RecurrenceCycleError) as info:
        first.get((0, 0), (1,))
    assert str(info.value) == (
        "first(0, 0, 1) queried while being evaluated: "
        "first(0, 0, 1) -> second(0, 0, 1)"
    )
    # The failed evaluations are no longer in flight.
    with pytest.raises(RecurrenceCycleError, match="second"):
        second.get((0, 0), (1,))


def test_cycle_report_holds_only_its_own_thread():
    """A cycle in one thread does not name another thread's evaluations."""
    entered, release = threading.Event(), threading.Event()

    def wait(i, j, n):
        entered.set()
        release.wait(timeout=10)
        return zero

    other = BlockSeries(eval=wait, shape=(1, 1), n_params=1, name="other")
    loopy = BlockSeries(
        eval=lambda i, j, n: loopy.get((i, j), (n,)),
        shape=(1, 1),
        n_params=1,
        name="loopy",
    )
    waiting = threading.Thread(target=other.get, args=((0, 0), (1,)))
    waiting.start()
    try:
        assert entered.wait(timeout=10)
        with pytest.raises(RecurrenceCycleError) as info:
            loopy.get((0, 0), (1,))
    finally:
        release.set()
        waiting.join(timeout=10)
    assert not waiting.is_alive()
    assert str(info.value) == (
        "loopy(0, 0, 1) queried while being evaluated: loopy(0, 0, 1)"
    )


def test_entry_in_flight_in_another_thread_is_not_a_cycle():
    """A query of an entry another thread is evaluating fails at once with
    a plain RuntimeError, and succeeds once that thread has stored it."""
    entered, release = threading.Event(), threading.Event()

    def wait(i, j, n):
        entered.set()
        release.wait(timeout=10)
        return np.array([[1.0]])

    shared = BlockSeries(eval=wait, shape=(1, 1), n_params=1, name="shared")
    evaluating = threading.Thread(target=shared.get, args=((0, 0), (1,)))
    evaluating.start()
    try:
        assert entered.wait(timeout=10)
        with pytest.raises(RuntimeError) as info:
            shared.get((0, 0), (1,))
    finally:
        release.set()
        evaluating.join(timeout=10)
    assert not evaluating.is_alive()
    assert not isinstance(info.value, RecurrenceCycleError)
    assert str(info.value) == (
        "shared(0, 0, 1) is being evaluated by another thread."
    )
    assert shared.get((0, 0), (1,)) == 1.0


def test_indexing_validation():
    series = BlockSeries(eval=lambda *k: zero, shape=(2, 2), n_params=2)
    with pytest.raises(IndexError):
        series[0, 0, 1]  # missing one order axis
    with pytest.raises(IndexError):
        series.get((2, 0), (0, 0))
    with pytest.raises(IndexError):
        series.get((0, 0), (-1, 0))


def test_slice_returns_masked_zeros():
    data = {(0, 0, 0): np.eye(1), (0, 0, 2): 2 * np.eye(1)}
    series = BlockSeries(
        eval=lambda *k: zero, data=data, shape=(1, 1), n_params=1
    )
    window = series[0, 0, :4]
    assert window.shape == (4,)
    assert not window.mask[0] and not window.mask[2]
    assert window.mask[1] and window.mask[3]


def test_polynomial_product():
    """(1 + x)(1 - x) has zero first order and -1 second order."""
    a = scalar_series({(0,): 1.0, (1,): 1.0})
    b = scalar_series({(0,): 1.0, (1,): -1.0})
    product = cauchy_product(a, b)
    assert product.get((0, 0), (1,)) is zero or np.allclose(
        product.get((0, 0), (1,)), 0
    )
    np.testing.assert_allclose(product.get((0, 0), (2,)), [[-1.0]])


def test_single_term_product():
    a = scalar_series({(1,): 2.0})
    b = scalar_series({(1,): 3.0})
    product = cauchy_product(a, b)
    assert product.get((0, 0), (1,)) is zero
    np.testing.assert_allclose(product.get((0, 0), (2,)), [[6.0]])
    assert product.get((0, 0), (3,)) is zero


def test_product_associativity_mixed_order(rng):
    """(A B) C equals A (B C) at a mixed multivariate order."""

    def random_series(seed):
        local = np.random.default_rng(seed)
        terms = {}
        for order in [(0, 0), (1, 0), (0, 1), (1, 1)]:
            terms[order] = local.normal(size=(2, 2)) + 1j * local.normal(size=(2, 2))

        def eval(i, j, *n):
            return terms.get(n, zero) if n in terms else zero

        return BlockSeries(eval=eval, shape=(1, 1), n_params=2)

    a, b, c = (random_series(s) for s in (1, 2, 3))
    left = cauchy_product(cauchy_product(a, b), c)
    right = cauchy_product(a, cauchy_product(b, c))
    np.testing.assert_allclose(
        left.get((0, 0), (1, 1)), right.get((0, 0), (1, 1)), rtol=1e-12, atol=1e-12
    )


def test_degree_bound_with_traps():
    """C_n only depends on factor orders m <= n componentwise."""

    def trapped(i, j, *n):
        if n[0] > 2:
            raise AssertionError("queried beyond the requested order")
        return np.array([[1.0]])

    a = BlockSeries(eval=trapped, shape=(1, 1), n_params=1)
    b = BlockSeries(eval=trapped, shape=(1, 1), n_params=1)
    product = cauchy_product(a, b)
    product.get((0, 0), (2,))


def test_no_zeroth_order_product_skips_endpoints():
    """With no zeroth order terms, (A B)_n never queries A_n or B_n."""

    def factor(name):
        def eval(i, j, *n):
            if n == (0,):
                return zero
            if n == (3,):
                raise AssertionError(f"{name} queried at the full order")
            return np.array([[1.0]])

        return BlockSeries(eval=eval, shape=(1, 1), n_params=1, name=name)

    product = cauchy_product(factor("A"), factor("B"))
    value = product.get((0, 0), (3,))
    np.testing.assert_allclose(value, [[2.0]])  # decompositions (1,2) and (2,1)


def test_block_contraction():
    """The product contracts over internal block labels."""
    values = {
        ("A", 0, 1): np.array([[1.0, 2.0]]),
        ("B", 1, 0): np.array([[3.0], [4.0]]),
    }

    def eval_a(i, j, *n):
        return values.get(("A", i, j), zero) if n == (1,) else zero

    def eval_b(i, j, *n):
        return values.get(("B", i, j), zero) if n == (1,) else zero

    a = BlockSeries(eval=eval_a, shape=(2, 2), n_params=1)
    b = BlockSeries(eval=eval_b, shape=(2, 2), n_params=1)
    product = cauchy_product(a, b)
    np.testing.assert_allclose(product.get((0, 0), (2,)), [[11.0]])
    assert product.get((1, 1), (2,)) is zero or np.allclose(
        product.get((1, 1), (2,)), [[3.0, 6.0], [4.0, 8.0]]
    )


def test_shape_mismatch_in_product():
    a = BlockSeries(eval=lambda *k: zero, shape=(2, 3), n_params=1)
    b = BlockSeries(eval=lambda *k: zero, shape=(2, 2), n_params=1)
    with pytest.raises(ValueError, match="shape"):
        cauchy_product(a, b)


def _dense_polynomial_product(left, right):
    """Cauchy product of ``{order: full matrix}`` polynomials."""
    product = {}
    for m, a in left.items():
        for p, b in right.items():
            n = tuple(x + y for x, y in zip(m, p))
            product[n] = product.get(n, 0) + a @ b
    return product


@settings(max_examples=60, deadline=None)
@given(
    n_params=st.integers(1, 3),
    sizes=st.lists(st.integers(1, 2), min_size=1, max_size=3),
    n_factors=st.integers(2, 3),
    max_total=st.integers(0, 3),
    zero_fraction=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_cauchy_product_matches_dense_polynomial_product(
    n_params, sizes, n_factors, max_total, zero_fraction, seed
):
    """Nested binary products of random block series with structural zeros
    against full matrices."""
    rng = np.random.default_rng(seed)
    b = len(sizes)
    splits = np.cumsum([0] + sizes)
    dimension = splits[-1]
    max_orders = tuple(
        int(x) for x in rng.integers(0, max_total + 1, size=n_params)
    )
    orders = list(orders_up_to(max_orders))

    series, dense = [], []
    for f in range(n_factors):
        entries = {}
        full = {order: np.zeros((dimension,) * 2, complex) for order in orders}
        for (i, j), order in cartesian(cartesian(range(b), repeat=2), orders):
            if rng.random() < zero_fraction:
                continue
            shape = (sizes[i], sizes[j])
            value = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            entries[(i, j, *order)] = value
            full[order][splits[i] : splits[i + 1], splits[j] : splits[j + 1]] = value

        def eval(i, j, *n, entries=entries):
            return entries.get((i, j, *n), zero)

        series.append(BlockSeries(eval=eval, shape=(b, b), n_params=n_params, name=f"f{f}"))
        dense.append(full)

    reference = dense[0]
    for full in dense[1:]:
        reference = _dense_polynomial_product(reference, full)
    nested = series[-1]
    for factor in reversed(series[:-1]):
        nested = cauchy_product(factor, nested)

    for (i, j), order in cartesian(cartesian(range(b), repeat=2), orders):
        expected = reference[order][splits[i] : splits[i + 1], splits[j] : splits[j + 1]]
        value = nested.get((i, j), order)
        if isinstance(value, Zero):
            assert not np.any(expected)
        else:
            np.testing.assert_allclose(value, expected, rtol=1e-12, atol=1e-12)


def _reference_contract(left, right, block, order, hermitian=False):
    """`contract` as a plain loop, with the products it counts: internal
    block ``l`` outer, ``m`` lexicographic inner, the factor at lower total
    order queried first (the left one on ties), and with ``hermitian`` the
    ``m < p`` half summed apart and added with its adjoint at the end."""
    i, j = block
    total = sum(order)
    sums = [None, None]
    products = 0
    for l in range(left.shape[1]):
        for m in orders_up_to(order):
            p = tuple(a - b for a, b in zip(order, m))
            if hermitian and m > p:
                continue
            if 2 * sum(m) <= total:
                a = left.get((i, l), m)
                b = zero if a is zero else right.get((l, j), p)
            else:
                b = right.get((l, j), p)
                a = zero if b is zero else left.get((i, l), m)
            if a is zero or b is zero:
                continue
            if a is one:
                term = b
            elif b is one:
                term = a
            else:
                term = a @ b
                products += 1
            half = int(hermitian and m < p)
            sums[half] = term if sums[half] is None else sums[half] + term
    result, half = sums
    if half is not None:
        half = half + half.conj().T
        result = half if result is None else result + half
    return (zero if result is None else result), products


@pytest.mark.parametrize("hermitian", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_contract_keeps_the_summation_order_bitwise(seed, hermitian):
    """`contract` against the reference loop, byte for byte, on three blocks
    of sizes 2, 3 and 1, two parameters, structural zeros and ``one`` on the
    diagonal at order zero; with ``hermitian`` the product is ``X†X``."""
    rng = np.random.default_rng(seed)
    sizes = (2, 3, 1)
    max_orders = (3, 2)

    def random_series(name):
        entries = {}
        for i, j in cartesian(range(3), repeat=2):
            for order in orders_up_to(max_orders):
                if not any(order):
                    entries[(i, j, *order)] = one if i == j else zero
                elif rng.random() < 0.6:
                    shape = (sizes[i], sizes[j])
                    entries[(i, j, *order)] = rng.normal(size=shape) + 1j * rng.normal(
                        size=shape
                    )
        return BlockSeries(
            eval=lambda *key: entries.get(key, zero), shape=(3, 3), n_params=2, name=name
        )

    right = random_series("X")
    if hermitian:
        left = BlockSeries(
            eval=lambda i, j, *n: adjoint(right.get((j, i), n)),
            shape=(3, 3),
            n_params=2,
            name="X†",
        )
    else:
        left = random_series("Y")
    blocks = [(i, i) for i in range(3)] if hermitian else list(cartesian(range(3), repeat=2))
    for block, order in cartesian(blocks, orders_up_to(max_orders)):
        counter = OperationCounter()
        value = contract(left, right, block, order, counter, hermitian=hermitian)
        expected, products = _reference_contract(left, right, block, order, hermitian)
        assert counter.matmul_count == products
        if isinstance(expected, np.ndarray):
            assert value.tobytes() == expected.tobytes()
        else:
            assert value is expected  # zero, or one times one


@pytest.mark.parametrize("hermitian", [False, True])
@pytest.mark.parametrize("seed", range(4))
def test_batched_products_keep_the_summation_order_bitwise(seed, hermitian):
    """`contract` against the reference loop, byte for byte, where small
    products are batched: blocks of sizes 1, 8 and 2, so that a product on
    1x1 blocks has up to 13 pairs per internal block and operands of
    `REFERENCE_MIN_SIZE` elements or more (the 8x8 block) and ``one``
    come between small ones. Entries are ``float64`` or ``complex128`` at
    random, and some are adjoints of other arrays; with ``hermitian`` the
    product is ``X†X``, summed in two halves."""
    rng = np.random.default_rng(seed)
    sizes = (1, 8, 2)
    assert sizes[1] ** 2 >= REFERENCE_MIN_SIZE > sizes[0] * sizes[1]
    max_order = 12

    def random_array(shape):
        value = rng.normal(size=shape)
        if rng.random() < 0.5:
            value = value + 1j * rng.normal(size=shape)
        return adjoint(value.T.copy()) if rng.random() < 0.3 else value

    def random_series(name):
        entries = {}
        for i, j in cartesian(range(3), repeat=2):
            entries[(i, j, 0)] = one if i == j else zero
            for order in range(1, max_order + 1):
                if rng.random() < 0.9:
                    entries[(i, j, order)] = random_array((sizes[i], sizes[j]))
        return BlockSeries(
            eval=lambda *key: entries.get(key, zero), shape=(3, 3), n_params=1, name=name
        )

    right = random_series("X")
    if hermitian:
        left = BlockSeries(
            eval=lambda i, j, n: adjoint(right.get((j, i), (n,))),
            shape=(3, 3),
            n_params=1,
            name="X†",
        )
    else:
        left = random_series("Y")
    blocks = [(i, i) for i in range(3)] if hermitian else list(cartesian(range(3), repeat=2))
    dtypes = set()
    for block, order in cartesian(blocks, range(max_order + 1)):
        counter = OperationCounter()
        value = contract(left, right, block, (order,), counter, hermitian=hermitian)
        expected, products = _reference_contract(left, right, block, (order,), hermitian)
        assert counter.matmul_count == products
        if isinstance(expected, np.ndarray):
            assert value.dtype == expected.dtype
            assert value.tobytes() == expected.tobytes()
            dtypes.add(value.dtype)
        else:
            assert value is expected
    assert dtypes == {np.dtype(float), np.dtype(complex)}


class QueryLog(dict):
    """A memo dict that records every key looked up in it, as `contract`
    and `BlockSeries.get` do before they evaluate an entry."""

    def __init__(self):
        super().__init__()
        self.queried = set()

    def get(self, key, default=None):
        self.queried.add(key)
        return super().get(key, default)


def gapped_series(rng, name, sizes, max_orders):
    """A random series of three blocks and its support: ``one`` on the
    diagonal at order zero, arrays at about a third of the other orders,
    and some orders in the support yet zero; one block is zero at every
    order and has an empty support. Returns the series without a support,
    the series with it, whose memo is a `QueryLog`, and the support."""
    entries, support = {}, {}
    empty = tuple(int(k) for k in rng.integers(0, 3, 2))
    for i, j in cartesian(range(3), repeat=2):
        orders = support[i, j] = set()
        for order in orders_up_to(max_orders):
            if (i, j) == empty:
                continue
            if not any(order):
                if i == j:
                    entries[(i, j, *order)] = one
                    orders.add(order)
            elif rng.random() < 0.35:
                shape = (sizes[i], sizes[j])
                entries[(i, j, *order)] = rng.normal(size=shape) + 1j * rng.normal(size=shape)
                orders.add(order)
            elif rng.random() < 0.1:
                orders.add(order)
    assert not support[empty]

    def make(**support):
        return BlockSeries(
            eval=lambda *key: entries.get(key, zero),
            shape=(3, 3),
            n_params=len(max_orders),
            name=name,
            **support,
        )

    within = make(support=support)
    within._data = QueryLog()
    return make(), within, support


def assert_within_support(series):
    """No key outside the support of ``series`` was looked up or stored."""
    support = series.support
    for i, j, *order in series._data.queried | series.stored_keys():
        assert tuple(order) in support[i, j], (series.name, i, j, order)


@pytest.mark.parametrize("hermitian", [False, True])
@pytest.mark.parametrize("sides", ["left", "right", "both"])
@pytest.mark.parametrize("seed", range(3))
def test_contract_within_supports_keeps_the_summation_order_bitwise(seed, sides, hermitian):
    """`contract` with a support on the left factor, the right one or both,
    against the reference loop over the same series without supports:
    byte for byte, with as many products, and no lookup outside a support.
    Supports have gaps, hold orders whose entry is zero, and are empty for
    one block; with ``hermitian`` the product is ``X†X`` and the left
    support is the right one transposed."""
    rng = np.random.default_rng(seed)
    sizes = (2, 3, 1)
    max_orders = (3, 2)
    plain_right, right, support = gapped_series(rng, "X", sizes, max_orders)
    if hermitian:
        transposed = {(j, i): orders for (i, j), orders in support.items()}

        def adjoint_of(series, **kwargs):
            return BlockSeries(
                eval=lambda i, j, *n: adjoint(series.get((j, i), n)),
                shape=(3, 3),
                n_params=2,
                name="X†",
                **kwargs,
            )

        plain_left, left = adjoint_of(plain_right), adjoint_of(right, support=transposed)
        left._data = QueryLog()
    else:
        plain_left, left, _ = gapped_series(rng, "Y", sizes, max_orders)
    left = left if sides != "right" else plain_left
    right = right if sides != "left" else plain_right
    blocks = [(i, i) for i in range(3)] if hermitian else list(cartesian(range(3), repeat=2))
    for block, order in cartesian(blocks, orders_up_to(max_orders)):
        counter = OperationCounter()
        value = contract(left, right, block, order, counter, hermitian=hermitian)
        expected, products = _reference_contract(
            plain_left, plain_right, block, order, hermitian
        )
        assert counter.matmul_count == products
        if isinstance(expected, np.ndarray):
            assert value.tobytes() == expected.tobytes()
        else:
            assert value is expected
    for series in (left, right):
        if series.support is not None:
            assert_within_support(series)


def test_one_product_under_two_supports():
    """The same right factor and order, with left factors that are non-zero
    at every order but declare different supports: each product sums the
    pairs of its own support, so a plan cached under the wrong key would
    give another's sum."""
    right = scalar_series({(n,): 1.0 + n for n in range(5)}, name="X")
    for orders in ({(1,), (3,)}, {(2,)}, set()):
        left = BlockSeries(
            eval=lambda i, j, n: np.array([[2.0 + n]]),
            shape=(1, 1),
            n_params=1,
            name="Y",
            support={(0, 0): orders},
        )
        counter = OperationCounter()
        value = contract(left, right, (0, 0), (4,), counter)
        assert counter.matmul_count == len(orders)
        if orders:
            assert value[0, 0] == sum((2.0 + m) * (5.0 - m) for (m,) in orders)
        else:
            assert value is zero


def test_support_is_read_only_and_bounds_the_memo():
    """An entry outside the support is ``zero``, never evaluated or
    stored; the support lists every block, read-only; and seeded entries
    must lie inside it."""
    evaluated = []

    def eval(i, j, *n):
        evaluated.append((i, j, *n))
        return np.ones((1, 1))

    series = BlockSeries(eval, shape=(2, 2), support={(0, 1): [(1,), (2,)]})
    assert series.get((0, 1), (3,)) is zero
    assert series.get((1, 1), (1,)) is zero
    assert series.get((0, 1), (2,))[0, 0] == 1.0
    assert evaluated == [(0, 1, 2)]
    assert series.stored_keys() == {(0, 1, 2)}
    assert series.support[1, 0] == frozenset()
    assert series.support[0, 1] == {(1,), (2,)}
    with pytest.raises(TypeError):
        series.support[1, 0] = frozenset([(1,)])
    assert BlockSeries(eval, shape=(2, 2)).support is None
    with pytest.raises(ValueError, match="outside its support"):
        BlockSeries(eval, shape=(2, 2), data={(0, 0, 1): np.ones((1, 1))}, support={})


def test_overflow_in_a_batch_names_the_entry():
    """Products that overflow inside a batch raise `NonFiniteError` for the
    entry being evaluated, as products formed one at a time do."""
    factor = BlockSeries(
        eval=lambda i, j, n: np.full((2, 2), 1e200), shape=(1, 1), n_params=1, name="F"
    )
    product = cauchy_product(factor, factor, name="FF")
    with pytest.raises(NonFiniteError, match=r"^FF\(0, 0, 2\) is not finite: "):
        product.get((0, 0), (2,))
    assert (0, 0, 2) not in product.stored_keys()


def test_cycle_through_the_product_kernel():
    """A factor that queries the product at the same order is reported
    through the kernel's direct lookups as through `BlockSeries.get`."""
    factor = BlockSeries(
        eval=lambda i, j, n: product.get((i, j), (n,)),
        shape=(1, 1),
        n_params=1,
        name="factor",
    )
    product = cauchy_product(factor, scalar_series({(0,): 1.0}), name="product")
    with pytest.raises(RecurrenceCycleError) as info:
        product.get((0, 0), (1,))
    assert str(info.value) == (
        "factor(0, 0, 0) queried while being evaluated: "
        "product(0, 0, 1) -> factor(0, 0, 0) -> product(0, 0, 0)"
    )


def test_pair_plan_cache_is_per_order():
    """After the bilayer graphene solve to (6, 6, 2) the plan cache holds at
    most one plan per (order, hermitian) pair, whatever the block."""
    plans = series_module._pair_plan
    plans.cache_clear()
    result = block_diagonalize(bilayer_graphene_problem().problem())
    orders = list(orders_up_to((6, 6, 2)))
    for order in orders:
        result.h_tilde.get((0, 0), order)
    queried = plans.cache_info().currsize
    assert 0 < queried <= 2 * len(orders)
    # Asking for every (order, hermitian) pair adds exactly the missing
    # ones, so no other key was held.
    for order, hermitian in cartesian(orders, (False, True)):
        plans(order, hermitian)
    assert plans.cache_info().currsize == 2 * len(orders)
