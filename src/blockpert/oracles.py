"""Independent reference implementations used for testing and benchmarking.

Nothing here shares recurrence code with the diagonalization engine: series
are plain dictionaries of dense arrays and all arithmetic is explicit. The
module provides

- an order-by-order ``exp(S)`` Schrieffer-Wolff construction,
- exact diagonalization of the assembled operator,
- a log-log slope estimator for convergence checks,
- closed-form low-order effective-Hamiltonian expressions for two blocks,
- the operation-count reference that evaluates the literature-style
  energy-denominator chains term by term.
"""

from __future__ import annotations

from itertools import product as cartesian
from math import factorial

import numpy as np

__all__ = [
    "sw_reference",
    "exact_spectrum",
    "convergence_slope",
    "closed_form_h_tilde",
    "reference_count_benchmark",
]


def _orders_up_to(max_orders):
    return cartesian(*(range(n + 1) for n in max_orders))


def _series_add(target: dict, other: dict, factor: complex = 1.0):
    for order, term in other.items():
        if order in target:
            target[order] = target[order] + factor * term
        else:
            target[order] = factor * term


def _series_mul(a: dict, b: dict, max_orders) -> dict:
    """Cauchy product of dense series dictionaries, truncated."""
    result: dict = {}
    for m, left in a.items():
        for p, right in b.items():
            n = tuple(x + y for x, y in zip(m, p))
            if any(x > y for x, y in zip(n, max_orders)):
                continue
            term = left @ right
            if n in result:
                result[n] = result[n] + term
            else:
                result[n] = term
    return result


def _commutator(a: dict, b: dict, max_orders) -> dict:
    result = _series_mul(a, b, max_orders)
    _series_add(result, _series_mul(b, a, max_orders), -1.0)
    return result


def sw_reference(
    h0,
    perturbations: dict[tuple[int, ...], np.ndarray],
    n_a: int,
    max_orders: tuple[int, ...],
    *,
    commutator_depth: int | None = None,
):
    """Order-by-order Schrieffer-Wolff transformation for two blocks.

    Constructs the antihermitian, block off-diagonal generator series ``S``
    by requiring that the off-diagonal block of the transformed Hamiltonian
    vanishes at every order; each order takes one Sylvester solve in the
    eigenbasis. The effective Hamiltonian is then the truncated nested
    commutator sum ``sum_j [H, S]^(j) / j!``.

    Parameters
    ----------
    h0 :
        Unperturbed operator, diagonal, with the first ``n_a`` states in the
        A block and the rest in B, and no degeneracies across the blocks.
    perturbations :
        Hermitian perturbation terms keyed by order multi-index.
    n_a :
        Dimension of the A block.
    max_orders :
        Componentwise maximum orders to construct.
    commutator_depth :
        Nested commutator truncation depth; defaults to the total order,
        which is exact because ``S`` has no zeroth-order term.

    Returns
    -------
    h_tilde, u, s : dict
        Series of the effective Hamiltonian, of ``U = exp(S)``, and of the
        generator, keyed by order multi-index.
    """
    h0 = np.asarray(h0, dtype=np.complex128)
    if h0.ndim == 2:
        h0 = np.diag(h0)
    energies = np.real(h0)
    n = len(energies)
    k = len(max_orders)
    zero_order = (0,) * k
    total_order = sum(max_orders)
    if commutator_depth is None:
        commutator_depth = total_order

    offdiag = np.zeros((n, n), dtype=bool)
    offdiag[:n_a, n_a:] = True
    offdiag[n_a:, :n_a] = True
    gaps = energies[:, None] - energies[None, :]
    if np.any(offdiag & (np.abs(gaps) < 1e-12)):
        raise ValueError("Degenerate denominators across the blocks.")
    safe_gaps = np.where(offdiag, gaps, 1.0)

    h_series = {zero_order: np.diag(h0.astype(np.complex128))}
    for order, term in perturbations.items():
        h_series[order] = np.asarray(term, dtype=np.complex128)

    s_series: dict = {}

    def transformed(max_orders, depth):
        """Nested commutator sum with the current generator."""
        result = dict(h_series)
        nested = dict(h_series)
        for j in range(1, depth + 1):
            nested = _commutator(nested, s_series, max_orders)
            _series_add(result, nested, 1.0 / factorial(j))
        return result

    # Build S order by order, by increasing total order.
    by_total: dict[int, list] = {}
    for order in _orders_up_to(max_orders):
        by_total.setdefault(sum(order), []).append(order)
    for total in range(1, total_order + 1):
        for order in by_total.get(total, []):
            partial = transformed(order, commutator_depth)
            residual = partial.get(order)
            if residual is None:
                continue
            residual = residual * offdiag
            if not np.any(residual):
                continue
            # Cancel the residual with [H_0, S_order].
            s_series[order] = np.where(offdiag, -residual / safe_gaps, 0.0)

    h_tilde = transformed(max_orders, commutator_depth)
    u = {zero_order: np.eye(n, dtype=np.complex128)}
    power = {zero_order: np.eye(n, dtype=np.complex128)}
    for j in range(1, total_order + 1):
        power = _series_mul(power, s_series, max_orders)
        _series_add(u, power, 1.0 / factorial(j))
    return h_tilde, u, s_series


def _as_dense_matrix(operator) -> np.ndarray:
    if hasattr(operator, "toarray"):
        operator = operator.toarray()
    return np.asarray(operator, dtype=np.complex128)


def exact_spectrum(h0, perturbations, values) -> np.ndarray:
    """Ascending eigenvalues of the assembled operator at parameter values."""
    if hasattr(h0, "toarray"):
        total = h0.toarray().astype(np.complex128)
    else:
        total = np.asarray(h0, dtype=np.complex128)
        if total.ndim == 1:
            total = np.diag(total)
    total = total.copy()
    values = np.asarray(values, dtype=float)
    for order, term in perturbations.items():
        order = (order,) if isinstance(order, int) else tuple(order)
        weight = float(np.prod([v**o for v, o in zip(values, order)]))
        total = total + weight * _as_dense_matrix(term)
    defect = np.max(np.abs(total - total.conj().T))
    if defect > 1e-8 * max(1.0, np.max(np.abs(total))):
        raise ValueError("Assembled operator is not Hermitian.")
    return np.linalg.eigvalsh(total)


def convergence_slope(lambdas, errors) -> float:
    """Least-squares slope of ``log(error)`` against ``log(lambda)``."""
    lambdas = np.asarray(lambdas, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(lambdas) < 4:
        raise ValueError("Need at least 4 points for a slope estimate.")
    if np.any(errors <= 0) or np.any(lambdas <= 0):
        raise ValueError("Slope fit requires positive errors and lambdas.")
    slope, _ = np.polyfit(np.log(lambdas), np.log(errors), 1)
    return float(slope)


class _EnergyDenominators:
    """Elementwise division by cross-block energy gaps (one 'solve')."""

    def __init__(self, e_a, e_b):
        self.delta = e_a[:, None] - e_b[None, :]

    def __call__(self, x):
        return x / self.delta


def closed_form_h_tilde(h1, e_a, e_b, order: int):
    """Low-order effective A-block from the closed-form expressions.

    Direct evaluation of the printed order-by-order results for two blocks
    and a first-order perturbation, with ``V_n`` obtained from one Sylvester
    solve per order. Supports orders 1 to 4.
    """
    n_a = len(e_a)
    a = h1[:n_a, :n_a]
    b = h1[n_a:, n_a:]
    h = h1[:n_a, n_a:]
    g = _EnergyDenominators(np.asarray(e_a, float), np.asarray(e_b, float))

    def dag(x):
        return x.conj().T

    if order == 1:
        return a.copy()
    v1 = g(h)
    if order == 2:
        return (h @ dag(v1) + (h @ dag(v1)).conj().T) / 2
    y2 = v1 @ b - dag(a) @ v1
    v2 = g(y2)
    if order == 3:
        # The second-order pattern repeats: half the chain plus its adjoint.
        return (h @ dag(v2) + (h @ dag(v2)).conj().T) / 2
    y3 = (
        -v1 @ dag(v1) @ h / 2
        + v2 @ b
        - (h @ dag(v1) + v1 @ dag(h)) @ v1 / 2
        - dag(a) @ v2
    )
    v3 = g(y3)
    if order == 4:
        term = h @ dag(v3) / 2 + v1 @ dag(v1) @ (h @ dag(v1) + v1 @ dag(h)) / 8
        return term + dag(term)
    raise ValueError("Closed forms are available for orders 1 to 4 only.")


def reference_count_benchmark(
    order: int,
    *,
    n_a: int = 2,
    n_b: int = 4,
    seed: int = 0,
    offdiagonal_only: bool = False,
):
    """Matrix products used by the literature-style reference at one order.

    Evaluates the effective A block as the standard sum of
    energy-denominator chains, one term family at a time: each family of
    ``n`` operator blocks takes ``n - 1`` matrix products and ``n - 1``
    Sylvester solves, and only one member of each Hermitian-conjugate pair
    is evaluated. Families share no intermediate products, which reproduces
    the cost of evaluating the printed reference expressions directly. With
    ``offdiagonal_only`` the diagonal blocks of the perturbation vanish and
    the families containing them are dropped, as they would be from the
    printed expressions.

    Returns
    -------
    count : int
        Number of matrix products performed.
    value : ndarray
        The computed order-``order`` contribution to the effective A block.
    """
    rng = np.random.default_rng(seed)
    n = n_a + n_b
    h1 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h1 = (h1 + h1.conj().T) / 2
    if offdiagonal_only:
        h1[:n_a, :n_a] = 0.0
        h1[n_a:, n_a:] = 0.0
    e_a = np.sort(rng.random(n_a))
    e_b = 2.0 + np.sort(rng.random(n_b))
    a = h1[:n_a, :n_a]
    b = h1[n_a:, n_a:]
    h = h1[:n_a, n_a:]
    g = _EnergyDenominators(e_a, e_b)
    count = 0

    def mm(x, y):
        nonlocal count
        count += 1
        return x @ y

    def dag(x):
        return x.conj().T

    def plus_hc(x):
        return x + x.conj().T

    if order == 2:
        # One family: h G(h)^H, plus its Hermitian conjugate.
        value = plus_hc(mm(h, dag(g(h)))) / 2
        return count, value
    if order == 3:
        # Two families of three blocks each, both through a diagonal block.
        value = np.zeros((n_a, n_a), dtype=np.complex128)
        if not offdiagonal_only:
            d1 = mm(h, dag(g(mm(a, g(h)))))
            d2 = mm(h, dag(g(mm(g(h), b))))
            value = plus_hc(d1) * (-0.5) + plus_hc(d2) * 0.5
        return count, value
    if order == 4:
        # Nine families of four blocks each.
        value = np.zeros((n_a, n_a), dtype=np.complex128)
        v1 = g(h)
        # Families entering through the third-order generator:
        f1 = mm(h, dag(g(mm(mm(g(h), dag(h)), g(h)))))
        value += plus_hc(f1) * (-0.25)
        f2 = mm(h, dag(g(mm(mm(g(h), dag(g(h))), h))))
        value += plus_hc(f2) * (-0.25)
        f3 = mm(h, dag(g(mm(mm(h, dag(g(h))), g(h)))))
        value += plus_hc(f3) * (-0.25)
        if not offdiagonal_only:
            f4 = mm(h, dag(g(mm(g(mm(a, g(h))), b))))
            value += plus_hc(f4) * (-0.5)
            f5 = mm(h, dag(g(mm(g(mm(g(h), b)), b))))
            value += plus_hc(f5) * 0.5
            f6 = mm(h, dag(g(mm(a, g(mm(a, g(h)))))))
            value += plus_hc(f6) * 0.5
            f7 = mm(h, dag(g(mm(a, g(mm(g(h), b))))))
            value += plus_hc(f7) * (-0.5)
        # Families from the unitarity (W) correction:
        f8 = mm(mm(mm(v1, dag(v1)), h), dag(v1))
        value += plus_hc(f8) * 0.125
        f9 = mm(mm(mm(v1, dag(v1)), v1), dag(h))
        value += plus_hc(f9) * 0.125
        return count, value
    raise ValueError("Reference counts are defined for orders 2, 3, 4.")
