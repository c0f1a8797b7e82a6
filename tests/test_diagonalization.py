import re

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from blockpert import diagonalization, series as series_module
from blockpert.diagonalization import (
    DegenerateSubspaceError,
    PerturbationProblem,
    block_diagonalize,
    evaluate_truncated,
    make_eigenbasis_solver,
    transform_observable,
)
from blockpert.operators import (
    MatrixFreeOperator,
    OperationCounter,
    Zero,
    to_array,
    zero,
)
from blockpert.problems import random_multiblock, random_two_block, transmon_problem
from blockpert.series import BlockSeries, orders_up_to
from blockpert.separation import RuleValidationError

G = 0.25


@pytest.fixture
def toy_problem():
    """Two levels, H_0 = diag(0, 1), off-diagonal coupling of strength g."""
    h1 = np.array([[0.0, G], [G, 0.0]])
    return PerturbationProblem.from_diagonal(
        np.array([0.0, 1.0]), {(1,): h1}, [0, 1]
    )


@pytest.fixture
def dense_toy_problem():
    """Two levels with diagonal and off-diagonal first-order terms."""
    h1 = np.array([[0.7, G], [G, 0.3]])
    return PerturbationProblem.from_diagonal(
        np.array([0.0, 1.0]), {(1,): h1}, [0, 1]
    )


def assemble_full(series, problem, order):
    """Dense full-space matrix of one series order."""
    splits = np.cumsum((0,) + problem.block_sizes)
    full = np.zeros((problem.dimension,) * 2, dtype=complex)
    for i in range(problem.n_blocks):
        for j in range(problem.n_blocks):
            shape = (problem.block_sizes[i], problem.block_sizes[j])
            full[splits[i] : splits[i + 1], splits[j] : splits[j + 1]] = to_array(
                series.get((i, j), order), shape
            )
    return full


def test_first_order_generator(toy_problem):
    """V_1 solves [V, H_0] = H'_R at first order."""
    result = block_diagonalize(toy_problem)
    v1 = to_array(result.context["V"].get((0, 1), (1,)), (1, 1))
    # [V, H_0]_{01} = V_{01} (E_1 - E_0) must equal the coupling.
    assert v1[0, 0] == pytest.approx(G / (1.0 - 0.0))
    v1_full = assemble_full(result.context["V"], toy_problem, (1,))
    h0 = np.diag([0.0, 1.0])
    np.testing.assert_allclose(v1_full @ h0 - h0 @ v1_full, [[0, G], [G, 0]], atol=1e-14)
    # antihermiticity
    np.testing.assert_allclose(v1_full, -v1_full.conj().T, atol=1e-15)


def test_block_diagonal_perturbation_has_zero_generator():
    h1 = np.diag([0.4, -0.2])
    problem = PerturbationProblem.from_diagonal(
        np.array([0.0, 1.0]), {(1,): h1}, [0, 1]
    )
    result = block_diagonalize(problem)
    assert result.context["V"].get((0, 1), (1,)) is zero


def test_toy_low_orders(toy_problem):
    """Frozen second and third order corrections of the two-level model."""
    result = block_diagonalize(toy_problem)
    h2 = to_array(result.h_tilde.get((0, 0), (2,)), (1, 1))
    assert h2[0, 0] == pytest.approx(-(G**2))
    # Off-diagonal perturbation: odd orders vanish structurally.
    assert result.h_tilde.get((0, 0), (3,)) is zero


def test_dense_toy_third_order(dense_toy_problem):
    """Third order matches non-degenerate perturbation theory."""
    result = block_diagonalize(dense_toy_problem)
    d_a, d_b = 0.7, 0.3
    h3 = to_array(result.h_tilde.get((0, 0), (3,)), (1, 1))
    assert h3[0, 0] == pytest.approx(G**2 * (d_b - d_a))


def test_zero_perturbation():
    problem = PerturbationProblem.from_diagonal(
        np.array([0.0, 1.0]), {(1,): np.zeros((2, 2))}, [0, 1]
    )
    result = block_diagonalize(problem)
    np.testing.assert_array_equal(
        to_array(result.h_tilde.get((0, 0), (0,))), [[0.0]]
    )
    for order in range(1, 4):
        assert result.h_tilde.get((0, 0), (order,)) is zero
        assert result.u.get((0, 1), (order,)) is zero
    assert str(result.u.get((0, 0), (0,))) == "one"


def test_w_starts_at_second_order(rng):
    energies, perturbations, labels = random_two_block(2, 3, seed=1)
    problem = PerturbationProblem.from_diagonal(energies, perturbations, labels)
    result = block_diagonalize(problem)
    w = result.context["W"]
    assert w.get((0, 0), (1,)) is zero
    # W_2 = -(U'^H U')_2 / 2 and is Hermitian.
    for order in [(2,), (3,), (4,)]:
        full = assemble_full(w, problem, order)
        np.testing.assert_allclose(full, full.conj().T, atol=1e-13)


def test_sylvester_residual(rng):
    """[V, H_0]_n equals the right-hand side elementwise."""
    energies, perturbations, labels = random_two_block(2, 3, seed=2)
    problem = PerturbationProblem.from_diagonal(energies, perturbations, labels)
    result = block_diagonalize(problem)
    h0 = np.diag(np.concatenate(problem.eigenvalues))
    for order in [(1,), (2,), (3,)]:
        result.h_tilde.get((0, 0), (sum(order) + 1,))  # force evaluation
        v_full = assemble_full(result.context["V"], problem, order)
        rhs_full = assemble_full(result.context["rhs"], problem, order)
        np.testing.assert_allclose(
            v_full @ h0 - h0 @ v_full, rhs_full, atol=1e-12
        )


def test_b_starts_at_second_order(rng):
    energies, perturbations, labels = random_two_block(2, 3, seed=3)
    problem = PerturbationProblem.from_diagonal(energies, perturbations, labels)
    result = block_diagonalize(problem)
    result.h_tilde.get((0, 0), (3,))
    for i in range(2):
        for j in range(2):
            assert result.context["B"].get((i, j), (1,)) is zero


def test_commutator_consistency(rng):
    """B + H'_R + A equals [U', H_S], and splits into Hermitian parts.

    The auxiliary series is eliminated from the recurrences, so this
    reconstructs it from its pieces and compares against the direct
    commutator with the explicitly assembled selected Hamiltonian.
    """
    energies, perturbations, labels = random_two_block(2, 3, seed=4)
    problem = PerturbationProblem.from_diagonal(energies, perturbations, labels)
    result = block_diagonalize(problem)
    result.h_tilde.get((0, 0), (4,))
    result.h_tilde.get((1, 1), (4,))

    max_order = 4
    h_s = {(0,): np.diag(np.concatenate(problem.eigenvalues)).astype(complex)}
    for order, term in perturbations.items():
        n_a = problem.block_sizes[0]
        selected = np.zeros_like(term, dtype=complex)
        selected[:n_a, :n_a] = term[:n_a, :n_a]
        selected[n_a:, n_a:] = term[n_a:, n_a:]
        h_s[order] = selected
    u_prime = {
        (n,): assemble_full(result.context["U'"], problem, (n,))
        for n in range(1, max_order + 1)
    }
    for n in range(1, max_order + 1):
        x_n = (
            assemble_full(result.context["B"], problem, (n,))
            + assemble_full(result.context["H'_R"], problem, (n,))
            + assemble_full(result.context["A"], problem, (n,))
        )
        commutator = np.zeros_like(x_n)
        for m in range(1, n + 1):
            h_part = h_s.get((n - m,))
            if h_part is None:
                continue
            commutator += u_prime[(m,)] @ h_part - h_part @ u_prime[(m,)]
        np.testing.assert_allclose(x_n, commutator, atol=1e-12)
        # The antihermitian part used by the recurrences matches.
        z_n = 0.5 * (
            assemble_full(result.context["A"], problem, (n,))
            - assemble_full(result.context["A†"], problem, (n,))
            - assemble_full(result.context["U'†B"], problem, (n,))
            + assemble_full(result.context["(U'†B)†"], problem, (n,))
        )
        np.testing.assert_allclose(z_n, 0.5 * (x_n - x_n.conj().T), atol=1e-12)


def test_no_products_with_h0():
    """Evaluating the result never multiplies by the unperturbed operator."""
    energies, perturbations, labels = random_two_block(2, 3, seed=5)
    problem = PerturbationProblem.from_diagonal(energies, perturbations, labels)

    def refuse(_x):
        raise AssertionError("H_0 block was multiplied")

    zero_order = problem.zero_order()
    for label, size in enumerate(problem.block_sizes):
        problem.blocks[(label, label, zero_order)] = MatrixFreeOperator(
            size, refuse, refuse
        )
    result = block_diagonalize(problem)
    for order in range(5):
        result.h_tilde.get((0, 0), (order,))
        result.h_tilde.get((1, 1), (order,))
        result.u.get((0, 1), (order,))


def test_memoization_economics():
    """Warm continuation costs exactly the incremental products."""
    energies, perturbations, labels = random_two_block(2, 4, seed=6)

    def run(max_order):
        problem = PerturbationProblem.from_diagonal(
            energies, perturbations, labels
        )
        counter = OperationCounter()
        result = block_diagonalize(problem, counter=counter)
        totals = []
        for order in range(max_order + 1):
            result.h_tilde.get((0, 0), (order,))
            totals.append(counter.matmul_count)
        return result, counter, totals

    result, counter, totals = run(5)
    # Re-requesting anything already computed performs no products.
    before = counter.matmul_count
    result.h_tilde.get((0, 0), (5,))
    result.h_tilde.get((0, 0), (4,))
    assert counter.matmul_count == before
    # A cold run to order 5 costs the same total. ("cold" vs incremental)
    _, _, cold_totals = run(5)
    assert cold_totals[-1] == totals[-1]


def test_operation_counts_dense_and_offdiagonal():
    """Per-order products for the effective block: 1, 3, 11 dense."""

    def counts(offdiagonal):
        energies, perturbations, labels = random_two_block(
            2, 4, seed=7, offdiagonal_only=offdiagonal
        )
        problem = PerturbationProblem.from_diagonal(
            energies, perturbations, labels
        )
        counter = OperationCounter()
        result = block_diagonalize(problem, counter=counter)
        increments = []
        previous = 0
        for order in range(5):
            result.h_tilde.get((0, 0), (order,))
            increments.append(counter.matmul_count - previous)
            previous = counter.matmul_count
        return increments

    assert counts(False) == [0, 0, 1, 3, 11]
    assert counts(True) == [0, 0, 1, 0, 9]


def test_transmon_slice_masks_odd_orders():
    model = transmon_problem()
    result = block_diagonalize(model.problem())
    window = result.h_tilde[0, 0, :3]
    assert not window.mask[0]
    assert window.mask[1]  # order one has no block-diagonal part
    assert not window.mask[2]


def test_transform_observable_identity(rng):
    energies, perturbations, labels = random_two_block(2, 3, seed=8)
    problem = PerturbationProblem.from_diagonal(energies, perturbations, labels)
    result = block_diagonalize(problem)
    identity = BlockSeries(
        data={
            (i, i, 0): np.eye(problem.block_sizes[i], dtype=complex)
            for i in range(2)
        },
        eval=lambda *k: zero,
        shape=(2, 2),
        n_params=1,
        name="identity",
    )
    transformed = transform_observable(result, identity)
    for order in range(1, 4):
        full = assemble_full(transformed, problem, (order,))
        np.testing.assert_allclose(full, 0, atol=1e-13)
    np.testing.assert_allclose(
        assemble_full(transformed, problem, (0,)), np.eye(5), atol=1e-13
    )


def test_transform_observable_reproduces_h_tilde(rng):
    energies, perturbations, labels = random_two_block(2, 3, seed=9)
    problem = PerturbationProblem.from_diagonal(energies, perturbations, labels)
    result = block_diagonalize(problem)
    transformed = transform_observable(result, result.context["H"])
    for order in range(4):
        for block in [(0, 0), (1, 1), (0, 1)]:
            shape = (
                problem.block_sizes[block[0]],
                problem.block_sizes[block[1]],
            )
            np.testing.assert_allclose(
                to_array(transformed.get(block, (order,)), shape),
                to_array(result.h_tilde.get(block, (order,)), shape),
                atol=1e-12,
            )


def test_transform_observable_block_diagonal_case():
    """With a block-diagonal perturbation the first corrections vanish."""
    h1 = np.diag([0.4, -0.2, 0.1])
    problem = PerturbationProblem.from_diagonal(
        np.array([0.0, 1.0, 2.0]), {(1,): h1}, [0, 0, 1]
    )
    result = block_diagonalize(problem)
    observable = BlockSeries(
        data={
            (0, 0, 0): np.diag([1.0, 2.0]).astype(complex),
            (1, 1, 0): np.array([[3.0]], dtype=complex),
        },
        eval=lambda *k: zero,
        shape=(2, 2),
        n_params=1,
        name="observable",
    )
    transformed = transform_observable(result, observable)
    np.testing.assert_allclose(
        to_array(transformed.get((0, 0), (0,))), np.diag([1.0, 2.0])
    )
    first = to_array(transformed.get((0, 0), (1,)), (2, 2))
    np.testing.assert_allclose(first, 0, atol=1e-14)


def test_evaluate_truncated():
    energies, perturbations, labels = random_two_block(2, 3, seed=10)
    problem = PerturbationProblem.from_diagonal(energies, perturbations, labels)
    result = block_diagonalize(problem)
    h0_block = to_array(result.h_tilde.get((0, 0), (0,)))
    np.testing.assert_allclose(
        evaluate_truncated(result.h_tilde, (0, 0), (3,), [0.0]), h0_block
    )
    h2 = to_array(result.h_tilde.get((0, 0), (2,)))
    toy = PerturbationProblem.from_diagonal(
        np.array([0.0, 1.0]), {(1,): np.array([[0.0, G], [G, 0.0]])}, [0, 1]
    )
    toy_result = block_diagonalize(toy)
    value = evaluate_truncated(toy_result.h_tilde, (0, 0), (2,), [0.1])
    assert value[0, 0] == pytest.approx(0.01 * -(G**2))


def _truncated_sum_per_point(series, block, max_orders, point, shape):
    """Reference for `evaluate_truncated`: the terms summed at one point."""
    total = np.zeros(shape, dtype=complex)
    for order in orders_up_to(max_orders):
        term = series.get(block, order)
        if not isinstance(term, Zero):
            total += np.prod([v**o for v, o in zip(point, order)]) * term
    return total


@settings(max_examples=60, deadline=None)
@given(
    n_params=st.integers(1, 3),
    max_total=st.integers(0, 4),
    stack=st.sampled_from([(), (5,), (3, 2)]),
    shape=st.tuples(st.integers(1, 3), st.integers(1, 3)),
    zero_fraction=st.sampled_from([0.0, 0.5, 0.9]),
    seed=st.integers(0, 2**32 - 1),
)
def test_evaluate_truncated_matches_per_point_sums(
    n_params, max_total, stack, shape, zero_fraction, seed
):
    """Point stacks ``(k,)``, ``(P, k)`` and ``(P, Q, k)`` of a series with
    structural zeros against a sum over orders at each point."""
    rng = np.random.default_rng(seed)
    max_orders = tuple(int(x) for x in rng.integers(0, max_total + 1, n_params))
    terms = {
        order: rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for order in orders_up_to(max_orders)
        if rng.random() >= zero_fraction
    }
    series = BlockSeries(
        eval=lambda i, j, *n: terms.get(n, zero), shape=(1, 1), n_params=n_params
    )
    points = rng.uniform(-1.5, 1.5, size=stack + (n_params,))
    batched = evaluate_truncated(series, (0, 0), max_orders, points, shape=shape)
    assert batched.shape == stack + shape
    for index in np.ndindex(stack):
        expected = _truncated_sum_per_point(
            series, (0, 0), max_orders, points[index], shape
        )
        scale_ = max(1.0, np.abs(expected).max())
        np.testing.assert_allclose(batched[index], expected, rtol=0, atol=1e-12 * scale_)


def test_evaluate_truncated_all_zero_and_empty_stacks():
    series = BlockSeries(eval=lambda *key: zero, shape=(1, 1), n_params=2)
    with pytest.raises(ValueError, match="explicit shape"):
        evaluate_truncated(series, (0, 0), (2, 1), [0.1, 0.2])
    value = evaluate_truncated(series, (0, 0), (2, 1), np.ones((4, 2)), shape=(2, 3))
    np.testing.assert_array_equal(value, np.zeros((4, 2, 3)))
    empty = np.zeros((0, 2))
    value = evaluate_truncated(series, (0, 0), (2, 1), empty, shape=(2, 3))
    assert value.shape == (0, 2, 3)
    ones = BlockSeries(eval=lambda *key: np.eye(2), shape=(1, 1), n_params=2)
    assert evaluate_truncated(ones, (0, 0), (2, 1), empty).shape == (0, 2, 2)
    with pytest.raises(ValueError, match="one parameter value"):
        evaluate_truncated(ones, (0, 0), (2, 1), np.ones((4, 3)))


def test_retention_discard_clears_intermediates():
    energies, perturbations, labels = random_two_block(2, 3, seed=11)
    problem = PerturbationProblem.from_diagonal(energies, perturbations, labels)
    result = block_diagonalize(problem)
    value = result.h_tilde.get((0, 0), (2,))
    result.clear_intermediates()
    assert not isinstance(value, Zero)
    assert result.context["V"].stored_keys() == set()
    assert result.h_tilde.stored_keys()  # outputs are kept


def test_rejects_non_hermitian_inputs():
    with pytest.raises(ValueError, match="Hermitian"):
        PerturbationProblem.from_diagonal(
            np.array([0.0, 1.0]), {(1,): np.array([[0.0, 1.0], [0.0, 0.0]])}, [0, 1]
        )


def test_rejects_degenerate_blocks():
    problem = PerturbationProblem.from_diagonal(
        np.array([1.0, 1.0]), {(1,): np.eye(2)}, [0, 1]
    )
    with pytest.raises(RuleValidationError):
        block_diagonalize(problem)


def test_rejects_non_diagonal_h0_with_indices():
    h0 = np.array([[0.0, 0.5], [0.5, 1.0]])
    with pytest.raises(ValueError, match="diagonal"):
        PerturbationProblem.from_diagonal(h0, {(1,): np.eye(2)}, [0, 1])


def test_from_diagonal_cuts_blocks_by_index(rng):
    """Interleaved labels, sparse or dense inputs: the same blocks."""
    energies = np.array([0.1, 2.0, 0.2, 2.5, 3.0])
    labels = [0, 1, 0, 1, 1]
    h1 = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    h1 = h1 + h1.conj().T
    dense = PerturbationProblem.from_diagonal(energies, {(1,): h1}, labels)
    from_sparse = PerturbationProblem.from_diagonal(
        sparse.diags(energies), {(1,): sparse.csr_matrix(h1)}, labels
    )
    groups = [[0, 2], [1, 3, 4]]
    for problem in (dense, from_sparse):
        assert problem.block_sizes == (2, 3)
        np.testing.assert_array_equal(problem.eigenvalues[1], [2.0, 2.5, 3.0])
        for i in range(2):
            for j in range(2):
                np.testing.assert_array_equal(
                    problem.block(i, j, (1,)), h1[np.ix_(groups[i], groups[j])]
                )


def test_rejects_non_diagonal_sparse_h0():
    h0 = sparse.csr_matrix(np.array([[0.0, 0.5], [0.5, 1.0]]))
    with pytest.raises(ValueError, match="diagonal"):
        PerturbationProblem.from_diagonal(h0, {(1,): np.eye(2)}, [0, 1])


@pytest.mark.parametrize(
    "build, operand",
    [
        (
            lambda: PerturbationProblem.from_diagonal(
                np.array([0.0, np.inf]), {(1,): np.eye(2)}, [0, 1]
            ),
            "H_0",
        ),
        (
            lambda: PerturbationProblem.from_diagonal(
                np.diag([0.0, np.nan]), {(1,): np.eye(2)}, [0, 1]
            ),
            "H_0",
        ),
        (
            lambda: PerturbationProblem.from_diagonal(
                np.array([0.0, 1.0]), {(1,): np.diag([np.nan, 0.0])}, [0, 1]
            ),
            "Perturbation at order (1,)",
        ),
        (
            lambda: PerturbationProblem.from_diagonal(
                np.array([0.0, 1.0]),
                {(1,): sparse.csr_matrix(np.diag([np.inf, 0.0]))},
                [0, 1],
            ),
            "Perturbation at order (1,)",
        ),
        (
            lambda: PerturbationProblem.from_eigenvectors(
                np.diag([0.0, np.inf]), {(1,): np.eye(2)}, [np.eye(2)]
            ),
            "H_0",
        ),
        (
            lambda: PerturbationProblem.from_eigenvectors(
                np.diag([0.0, 1.0]),
                {(1,): np.eye(2)},
                [np.array([[1.0], [0.0]]), np.array([[np.nan], [1.0]])],
            ),
            "Eigenvector group 1",
        ),
        (
            lambda: PerturbationProblem.from_eigenvectors(
                np.diag([0.0, 1.0]), {(1,): np.diag([0.0, np.nan])}, [np.eye(2)]
            ),
            "Perturbation at order (1,)",
        ),
    ],
)
def test_rejects_non_finite_inputs(build, operand):
    with pytest.raises(ValueError, match=re.escape(f"{operand} has non-finite")):
        build()


def test_rejects_non_orthonormal_eigenvectors():
    vectors = [np.array([[1.0], [1.0]]), np.array([[0.0], [1.0]])]
    with pytest.raises(ValueError, match="orthonormal"):
        PerturbationProblem.from_eigenvectors(
            np.diag([0.0, 1.0]), {(1,): np.eye(2)}, vectors
        )


def test_rejects_partial_basis():
    vectors = [np.array([[1.0], [0.0]])]
    with pytest.raises(ValueError, match="implicit"):
        PerturbationProblem.from_eigenvectors(
            np.diag([0.0, 1.0]), {(1,): np.eye(2)}, vectors
        )


def test_rejects_reserved_zero_order():
    with pytest.raises(ValueError, match="reserved"):
        PerturbationProblem.from_diagonal(
            np.array([0.0, 1.0]), {(0,): np.eye(2)}, [0, 1]
        )


def test_degenerate_solver_error():
    solver = make_eigenbasis_solver(
        (np.array([0.0]), np.array([1e-14])),
        rule=PerturbationProblem.from_diagonal(
            np.array([0.0, 1.0]), {(1,): np.eye(2) * 0}, [0, 1]
        ).rule,
        tolerance=1e-12,
    )
    with pytest.raises(DegenerateSubspaceError, match="\\(0, 1\\)"):
        solver(np.array([[1.0]]), (0, 1), (1,))


def test_multiblock_hermitian_pairs(rng):
    """Hermitian series come out Hermitian blockwise on a 5-block problem."""
    energies, perturbations, labels = random_multiblock(
        (1, 1, 2, 2, 3), seed=12
    )
    problem = PerturbationProblem.from_diagonal(energies, perturbations, labels)
    result = block_diagonalize(problem)
    for order in [(1,), (2,), (3,)]:
        h_full = assemble_full(result.h_tilde, problem, order)
        np.testing.assert_allclose(h_full, h_full.conj().T, atol=1e-12)
        w_full = assemble_full(result.context["W"], problem, order)
        np.testing.assert_allclose(w_full, w_full.conj().T, atol=1e-12)
        v_full = assemble_full(result.context["V"], problem, order)
        np.testing.assert_allclose(v_full, -v_full.conj().T, atol=1e-12)


def test_single_cauchy_product_by_selected_part(monkeypatch):
    """Exactly one series multiplies by entries of the selected perturbation."""
    energies, perturbations, labels = random_two_block(2, 3, seed=13)
    problem = PerturbationProblem.from_diagonal(energies, perturbations, labels)
    result = block_diagonalize(problem)
    in_flight, products = [], []

    def traced(name, eval):
        def wrapped(*key):
            in_flight.append(name)
            try:
                return eval(*key)
            finally:
                in_flight.pop()

        return wrapped

    def recording_matmul(a, b, **kwargs):
        products.append((in_flight[-1], a, b))
        return matmul(a, b, **kwargs)

    matmul = series_module.matmul
    for module in (series_module, diagonalization):
        monkeypatch.setattr(module, "matmul", recording_matmul)
    for name, series in result.context.items():
        series.eval = traced(name, series.eval)
    for order in range(1, 5):
        for block in ((0, 0), (1, 1)):
            result.h_tilde.get(block, (order,))
    selected = result.context["H'_S"]
    entries = {id(selected.get(key[:2], key[2:])) for key in selected.stored_keys()}
    consumers = {name for name, a, b in products if {id(a), id(b)} & entries}
    assert consumers == {"VH'_S"}


def test_zero_perturbation_costs_nothing():
    problem = PerturbationProblem.from_diagonal(
        np.array([0.0, 1.0]), {(1,): np.zeros((2, 2))}, [0, 1]
    )
    counter = OperationCounter()
    result = block_diagonalize(problem, counter=counter)
    for order in range(5):
        result.h_tilde.get((0, 0), (order,))
        result.h_tilde.get((1, 1), (order,))
    assert counter.matmul_count == 0
