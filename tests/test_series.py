import threading
from itertools import product as cartesian

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockpert.operators import Zero, zero
from blockpert.series import (
    BlockSeries,
    RecurrenceCycleError,
    cauchy_product,
    orders_up_to,
    series_adjoint,
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


def test_series_adjoint_delegates(rng):
    block = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))

    def eval(i, j, *n):
        return block if (i, j, n) == (0, 1, (1,)) else zero

    series = BlockSeries(eval=eval, shape=(2, 2), n_params=1, name="M")
    adj = series_adjoint(series)
    np.testing.assert_array_equal(adj.get((1, 0), (1,)), block.conj().T)
    twice = series_adjoint(adj)
    np.testing.assert_array_equal(twice.get((0, 1), (1,)), block)
    assert adj.get((0, 1), (1,)) is zero


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
    """Products of random block series with structural zeros against full
    matrices; the n-ary fold equals the nested binary products exactly."""
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
    folded = cauchy_product(*series)
    nested = series[-1]
    for factor in reversed(series[:-1]):
        nested = cauchy_product(factor, nested)

    for (i, j), order in cartesian(cartesian(range(b), repeat=2), orders):
        expected = reference[order][splits[i] : splits[i + 1], splits[j] : splits[j + 1]]
        value = folded.get((i, j), order)
        twin = nested.get((i, j), order)
        if isinstance(value, Zero):
            assert isinstance(twin, Zero)
            assert not np.any(expected)
        else:
            np.testing.assert_array_equal(value, twin)
            np.testing.assert_allclose(value, expected, rtol=1e-12, atol=1e-12)
