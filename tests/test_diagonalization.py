import re
import tracemalloc
from itertools import product as cartesian

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from blockpert import diagonalization, series as series_module
from blockpert.diagonalization import (
    PerturbationProblem,
    block_diagonalize,
    evaluate_truncated,
    make_eigenbasis_solver,
    transform_observable,
)
from blockpert.implicit import build_extended_problem
from blockpert.operators import (
    MatrixFreeOperator,
    OperationCounter,
    Reference,
    Zero,
    to_array,
    zero,
)
from blockpert.problems import (
    bilayer_graphene_problem,
    lattice_problem,
    random_multiblock,
    random_two_block,
    transmon_problem,
)
from blockpert.series import BlockSeries, contract, orders_up_to
from blockpert.separation import RuleValidationError, degeneracy_tolerance

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


def test_sylvester_residual():
    """[V, H_0]_n equals the right-hand side the solver received, which is a
    read-only array of the problem's dtype: complex128 for a complex problem,
    float64 for its real part."""
    energies, perturbations, labels = random_two_block(2, 3, seed=2)
    real_part = {order: term.real for order, term in perturbations.items()}
    for terms, dtype in ((perturbations, np.complex128), (real_part, np.float64)):
        problem = PerturbationProblem.from_diagonal(energies, terms, labels)
        assert problem.dtype == dtype
        default = make_eigenbasis_solver(
            problem.eigenvalues, problem.rule, problem.tolerance
        )
        received = {}

        def solver(rhs, block, order):
            received[block, order] = rhs
            return default(rhs, block, order)

        result = block_diagonalize(problem, solver)
        result.h_tilde.get((0, 0), (4,))  # force evaluation
        e_0, e_1 = problem.eigenvalues
        for order in [(1,), (2,), (3,)]:
            rhs = received[(0, 1), order]
            assert rhs.dtype == dtype and not rhs.flags.writeable
            v = to_array(result.context["V"].get((0, 1), order))
            np.testing.assert_allclose(v * e_1 - e_0[:, None] * v, rhs, atol=1e-12)
        assert {block for block, _ in received} == {(0, 1)}


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
    # A = H'_R U' is formed inside the bracket and not stored.
    a = BlockSeries(
        lambda i, j, *n: contract(
            result.context["H'_R"], result.context["U'"], (i, j), n, OperationCounter()
        ),
        shape=(2, 2),
        name="A",
    )
    for n in range(1, max_order + 1):
        a_n = assemble_full(a, problem, (n,))
        x_n = (
            assemble_full(result.context["B"], problem, (n,))
            + assemble_full(result.context["H'_R"], problem, (n,))
            + a_n
        )
        commutator = np.zeros_like(x_n)
        for m in range(1, n + 1):
            h_part = h_s.get((n - m,))
            if h_part is None:
                continue
            commutator += u_prime[(m,)] @ h_part - h_part @ u_prime[(m,)]
        np.testing.assert_allclose(x_n, commutator, atol=1e-12)
        # The antihermitian part used by the recurrences matches.
        p_n = assemble_full(result.context["U'†B"], problem, (n,))
        z_n = 0.5 * (a_n - a_n.conj().T - p_n + p_n.conj().T)
        np.testing.assert_allclose(z_n, 0.5 * (x_n - x_n.conj().T), atol=1e-12)


def test_no_products_with_h0():
    """Evaluating the result never multiplies by the unperturbed operator.
    Only handing out ``H̃`` at order 0, which is ``H_0`` itself, applies it,
    since the output series hand out arrays on explicit blocks."""
    energies, perturbations, labels = random_two_block(2, 3, seed=5)
    problem = PerturbationProblem.from_diagonal(energies, perturbations, labels)
    applied = []

    def action(block_energies):
        def apply(x):
            applied.append(x.shape)
            return block_energies[:, None] * x

        return apply

    zero_order = problem.zero_order()
    for label, block_energies in enumerate(problem.eigenvalues):
        apply = action(block_energies)
        problem.blocks[(label, label, zero_order)] = MatrixFreeOperator(
            len(block_energies), apply, apply
        )
    result = block_diagonalize(problem)
    for order in range(5):
        result.h_tilde.get((0, 0), (order + 1,))
        result.h_tilde.get((1, 1), (order + 1,))
        result.u.get((0, 1), (order,))
    assert not applied
    for label, block_energies in enumerate(problem.eigenvalues):
        h0 = result.h_tilde.get((label, label), zero_order)
        assert type(h0) is np.ndarray
        np.testing.assert_array_equal(h0, np.diag(block_energies))


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


def _dense_two_block():
    return PerturbationProblem.from_diagonal(*random_two_block(4, 6, 0))


def _multiblock():
    return PerturbationProblem.from_diagonal(*random_multiblock((2, 3, 2, 4), 3))


def _masked_two_block():
    mask = np.ones((4, 4), dtype=bool)
    mask[0, 3] = mask[3, 0] = False
    energies, perturbations, labels = random_two_block(4, 6, 5)
    return PerturbationProblem.from_diagonal(
        energies, perturbations, labels, masks={0: mask}
    )


def _implicit_lattice():
    h0, perturbations = lattice_problem(9, seed=3)
    v0 = np.random.default_rng(3).standard_normal(h0.shape[0])
    energies, vectors = sla.eigsh(h0, k=4, which="SA", v0=v0)
    return build_extended_problem(h0, perturbations, vectors, energies)


def _graphene():
    return bilayer_graphene_problem().problem()


def _small_two_block():
    return PerturbationProblem.from_diagonal(*random_two_block(2, 4, 0))


def _small_offdiagonal():
    energies, perturbations, labels = random_two_block(2, 4, 0, offdiagonal_only=True)
    return PerturbationProblem.from_diagonal(energies, perturbations, labels)


def _small_three_block():
    return PerturbationProblem.from_diagonal(*random_multiblock((2, 2, 2), 0))


@pytest.mark.parametrize(
    "make, blocks, max_orders, products",
    [
        (_dense_two_block, [(0, 0)], (6,), 57),
        (_graphene, [(0, 0)], (6, 6, 2), 30969),
        (_multiblock, [(1, 1)], (5,), 288),
        (_masked_two_block, [(0, 0)], (5,), 63),
        (_implicit_lattice, [(0, 0)], (6,), 57),
        # What each order adds grows linearly with the order, well past the
        # paper's 1, 3, 11 at orders 2-4, so the total grows as its square.
        (
            _small_two_block,
            [(0, 0)],
            (14,),
            [0, 0, 1, 3, 11, 15, 27, 35, 47, 55, 67, 75, 87, 95, 107],
        ),
        (
            _small_offdiagonal,
            [(0, 0)],
            (14,),
            [0, 0, 1, 0, 9, 0, 19, 0, 29, 0, 39, 0, 49, 0, 59],
        ),
        (
            _small_three_block,
            [(0, 0), (1, 1), (2, 2)],
            (11,),
            [0, 0, 6, 21, 57, 87, 132, 168, 213, 249, 294, 330],
        ),
    ],
    ids=[
        "dense",
        "graphene",
        "multiblock",
        "masked",
        "implicit",
        "per-order",
        "per-order-offdiagonal",
        "per-order-three-blocks",
    ],
)
def test_product_counts_per_problem_family(make, blocks, max_orders, products):
    """Products for H̃ blocks up to ``max_orders``, pinned per family: in
    total, or as a list of what each order adds."""
    result = block_diagonalize(make())
    added = []
    for order in orders_up_to(max_orders):
        before = result.counter.matmul_count
        for block in blocks:
            result.h_tilde.get(block, order)
        added.append(result.counter.matmul_count - before)
    assert (added if isinstance(products, list) else sum(added)) == products


def test_graphene_perturbation_holds_only_its_input_orders():
    """``H``, ``H'_R`` and ``H'_S`` of bilayer graphene are non-zero at the
    input's few orders only, and ``H`` at order 0 on the diagonal: after
    H̃[0, 0] to (6, 6, 2) they hold no key outside them and ``H`` no
    ``zero``, and the products stay the pinned 30,969."""
    problem = _graphene()
    result = block_diagonalize(problem)
    for order in orders_up_to((6, 6, 2)):
        result.h_tilde.get((0, 0), order)
    inputs = {key for key, value in problem.blocks.items() if value is not zero}
    diagonal = {(i, i, (0, 0, 0)) for i in range(problem.n_blocks)}
    limits = {
        "H": inputs | diagonal,
        "H'_R": inputs - diagonal,
        "H'_S": inputs - diagonal,
    }
    for name, limit in limits.items():
        stored = {(i, j, tuple(n)) for i, j, *n in result.context[name].stored_keys()}
        assert stored and stored <= limit, name
    assert not any(value is zero for value in result.context["H"]._data.values())
    assert result.context["H'_S"].support[0, 1] == frozenset()
    assert result.context["H'_R"].support[0, 0] == frozenset()
    assert result.counter.matmul_count == 30969


def real_sparse_solver(problem):
    """The default solver, returning its real solutions as sparse matrices."""
    default = make_eigenbasis_solver(
        problem.eigenvalues, problem.rule, problem.tolerance
    )

    def solve(rhs, block, order):
        solution = default(rhs, block, order)
        assert not np.any(solution.imag)
        return sparse.csr_matrix(solution.real)

    return solve


def test_transmon_slice_masks_odd_orders():
    problem = transmon_problem().problem()
    # Its inputs are complex128 arrays of real values: a real problem.
    assert problem.dtype == np.float64
    reference = block_diagonalize(problem)
    # A custom solver may return real sparse solutions; they give the same H̃.
    for solver in (None, real_sparse_solver(problem)):
        result = block_diagonalize(problem, solver)
        window = result.h_tilde[0, 0, :3]
        assert not window.mask[0]
        assert window.mask[1]  # order one has no block-diagonal part
        assert not window.mask[2]
        for block, order in cartesian(range(problem.n_blocks), range(5)):
            size = problem.block_sizes[block]
            np.testing.assert_allclose(
                to_array(result.h_tilde.get((block, block), (order,)), (size,) * 2),
                to_array(reference.h_tilde.get((block, block), (order,)), (size,) * 2),
                rtol=0,
                atol=1e-15,
            )
        # The solutions are stored in the one operand form, in the problem's
        # dtype, and the blocks below the diagonal refer to them.
        v = result.context["V"]
        for key in v.stored_keys():
            value = v.get(key[:2], key[2:])
            if type(value) is Reference:
                assert key[0] > key[1] and value.source is v.get(key[1::-1], key[2:])
                value = value.source
            assert value is zero or (
                type(value) is np.ndarray and value.dtype == problem.dtype
            )


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


def sparse_real_h(problem):
    """The H of a real problem as a caller may pass it: sparse at order 0
    and off the diagonal, real ndarrays on the diagonal at order 1."""
    entries = {
        (i, j, order): to_array(problem.block(i, j, (order,))).real
        for i, j, order in cartesian(range(2), range(2), range(2))
        if not isinstance(problem.block(i, j, (order,)), Zero)
    }
    return BlockSeries(
        data={
            key: sparse.csr_matrix(value) if key[2] == 0 or key[0] != key[1] else value
            for key, value in entries.items()
        },
        eval=lambda *key: zero,
        shape=(2, 2),
        n_params=1,
        name="H",
    )


def test_transform_observable_reproduces_h_tilde(rng):
    energies, perturbations, labels = random_two_block(2, 3, seed=9)
    real_perturbations = {order: term.real for order, term in perturbations.items()}
    # The complex problem, then a real copy of it whose H is also given in
    # the caller's form; that form must give the same ndarrays, real ones.
    for terms in (perturbations, real_perturbations):
        problem = PerturbationProblem.from_diagonal(energies, terms, labels)
        result = block_diagonalize(problem)
        transformed = transform_observable(result, result.context["H"])
        given = None
        if terms is real_perturbations:
            given = transform_observable(result, sparse_real_h(problem))
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
                if given is None:
                    continue
                value = given.get(block, (order,))
                if order:
                    assert type(value) is np.ndarray and value.dtype == problem.dtype
                    assert problem.dtype == np.float64
                np.testing.assert_allclose(
                    to_array(value, shape),
                    to_array(transformed.get(block, (order,)), shape),
                    rtol=0,
                    atol=1e-15,
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


@pytest.mark.parametrize("kind", ["dense", "sparse"])
@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_observable_entries_are_rejected(kind, bad):
    """Dense and sparse observable entries are checked where they enter,
    as perturbation terms are, and the error names the entry."""
    problem = PerturbationProblem.from_diagonal(*random_two_block(2, 3, 0))
    result = block_diagonalize(problem)
    entry = np.eye(2)
    entry[0, 1] = bad
    observable = BlockSeries(
        data={(0, 0, 0): sparse.csr_matrix(entry) if kind == "sparse" else entry},
        eval=lambda *k: zero,
        shape=(2, 2),
        n_params=1,
        name="O",
    )
    transformed = transform_observable(result, observable)
    with pytest.raises(ValueError, match=r"^O\(0, 0, 0\) has non-finite entries\.$"):
        transformed.get((0, 0), (0,))


def test_operator_observable_entries_are_handed_out_as_arrays():
    """An observable given as `LinearOperator` blocks, on and off the
    diagonal, transforms to the arrays of the same observable given
    densely: ``U†OU``, like ``H̃``, hands out arrays on explicit blocks."""
    problem = PerturbationProblem.from_diagonal(*random_two_block(2, 3, 0))
    result = block_diagonalize(problem)
    full = np.random.default_rng(7).normal(size=(5, 5))
    full += full.T
    parts = (slice(0, 2), slice(2, 5))

    def observable(wrap):
        blocks = {
            (i, j): wrap(full[rows, cols])
            for i, rows in enumerate(parts)
            for j, cols in enumerate(parts)
        }
        return BlockSeries(
            eval=lambda i, j, *n: zero if any(n) else blocks[i, j],
            shape=(2, 2),
            n_params=1,
            name="O",
        )

    operators = transform_observable(result, observable(sla.aslinearoperator))
    arrays = transform_observable(result, observable(np.array))
    for i, j, order in cartesian(range(2), range(2), range(3)):
        entry = operators.get((i, j), (order,))
        expected = arrays.get((i, j), (order,))
        assert type(entry) is type(expected) is np.ndarray, (i, j, order)
        np.testing.assert_allclose(entry, expected, rtol=0, atol=1e-14)


def test_transform_observable_rejects_a_mismatched_observable():
    problem = PerturbationProblem.from_diagonal(*random_two_block(2, 3, 0))
    result = block_diagonalize(problem)
    shape = BlockSeries(eval=lambda *k: zero, shape=(3, 3), n_params=1)
    message = re.escape("Observable block shape (3, 3) does not match the problem's 2 blocks.")
    with pytest.raises(ValueError, match=message):
        transform_observable(result, shape)
    params = BlockSeries(eval=lambda *k: zero, shape=(2, 2), n_params=2)
    with pytest.raises(ValueError, match=r"^Observable has a different number of parameters\.$"):
        transform_observable(result, params)


def test_memoized_entries_are_read_only():
    """A memoized entry cannot be changed in place; the caller's arrays can."""
    h1 = np.array([[0.7, G], [G, 0.3]], dtype=complex)
    problem = PerturbationProblem.from_diagonal(
        np.array([0.0, 1.0]), {(1,): h1}, [0, 1]
    )
    result = block_diagonalize(problem)
    with pytest.raises(ValueError, match="read-only"):
        result.h_tilde.get((0, 0), (0,))[0, 0] = 1.0
    observed = np.array([[2.0]], dtype=complex)
    observable = BlockSeries(
        eval=lambda i, j, *n: observed if (i, j, *n) == (0, 0, 0) else None,
        shape=(2, 2),
        n_params=1,
        name="observable",
    )
    transformed = transform_observable(result, observable)
    with pytest.raises(ValueError, match="read-only"):
        transformed.get((0, 0), (0,))[0, 0] = 1.0
    assert observable.get((0, 0), (0,)) is not observed
    # Entries seeded through ``data`` are stored as read-only views as well.
    seeded = BlockSeries(data={(0, 0, 0): observed}, shape=(1, 1), n_params=1)
    with pytest.raises(ValueError, match="read-only"):
        seeded.get((0, 0), (0,))[0, 0] = 1.0
    h1[0, 0] = observed[0, 0] = 0.5


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


def test_evaluate_truncated_rejects_overflow():
    """A point whose weights or sum overflow raises a `ValueError` naming it,
    and no `RuntimeWarning` escapes."""
    terms = {(1,): np.full((1, 1), 1e300), (2,): np.eye(1)}
    series = BlockSeries(
        eval=lambda i, j, *n: terms.get(n, zero), shape=(1, 1), n_params=1
    )
    # 1e200 overflows the weight of order 2; 1e10 overflows the sum.
    for point, text in ((1e200, r"1e\+200"), (1e10, r"10000000000\.0")):
        with pytest.raises(ValueError, match=rf"not finite at 1 parameter .*{text}"):
            evaluate_truncated(series, (0, 0), (2,), [[0.5], [point]])


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_evaluate_truncated_rejects_non_finite_parameters(value):
    series = BlockSeries(eval=lambda i, j, *n: np.eye(1), shape=(1, 1), n_params=1)
    with pytest.raises(ValueError, match=r"^Parameter values must be finite\.$"):
        evaluate_truncated(series, (0, 0), (2,), [[0.5], [value]])


@pytest.mark.parametrize("name", ["u", "u_adjoint"])
def test_evaluate_truncated_materializes_the_identity(name):
    """Diagonal blocks of U and U† start with the structural ``one``."""
    energies, perturbations, labels = random_two_block(2, 3, seed=13)
    problem = PerturbationProblem.from_diagonal(energies, perturbations, labels)
    series = getattr(block_diagonalize(problem), name)
    for block, size in enumerate(problem.block_sizes):
        shape = (size, size)
        expected = sum(
            0.1**n * to_array(series.get((block, block), (n,)), shape) for n in range(4)
        )
        for given_shape in (None, shape):
            value = evaluate_truncated(
                series, (block, block), (3,), [0.1], shape=given_shape
            )
            np.testing.assert_allclose(value, expected, rtol=0, atol=1e-15)
        # The identity alone takes its shape from ``shape``.
        value = evaluate_truncated(series, (block, block), (0,), [0.1], shape=shape)
        np.testing.assert_array_equal(value, np.eye(size))
        with pytest.raises(ValueError, match="identity"):
            evaluate_truncated(series, (block, block), (0,), [0.1])


def test_identity_pair_shares_no_writeable_buffer():
    """``U†OU`` at order 0 is ``one`` times a stored entry of ``OU``, which is
    the observable's entry itself: the result is read-only, and summing
    later orders onto products with it changes neither."""
    energies, perturbations, labels = random_two_block(2, 3, seed=14)
    problem = PerturbationProblem.from_diagonal(energies, perturbations, labels)
    result = block_diagonalize(problem)
    observed = np.arange(4.0).reshape(2, 2).astype(complex)
    observable = BlockSeries(
        data={(0, 0, 0): observed}, eval=lambda *k: zero, shape=(2, 2), n_params=1
    )
    transformed = transform_observable(result, observable)
    entry = transformed.get((0, 0), (0,))
    np.testing.assert_array_equal(entry, observed)
    assert not (np.shares_memory(entry, observed) and entry.flags.writeable)
    for order in range(1, 4):
        for block in [(0, 0), (1, 1), (0, 1)]:
            transformed.get(block, (order,))
    np.testing.assert_array_equal(entry, np.arange(4.0).reshape(2, 2))
    np.testing.assert_array_equal(observed, np.arange(4.0).reshape(2, 2))
    assert observed.flags.writeable


def test_rejects_non_hermitian_inputs():
    with pytest.raises(ValueError, match="Hermitian"):
        PerturbationProblem.from_diagonal(
            np.array([0.0, 1.0]), {(1,): np.array([[0.0, 1.0], [0.0, 0.0]])}, [0, 1]
        )


@pytest.mark.parametrize("names", [("a", "b"), ("a", "a"), ("a", 1), ()])
def test_rejects_param_names_that_are_not_one_distinct_name_per_parameter(names):
    """Every constructor checks the names, not only the document loader."""
    n_params = 2 if names == ("a", "a") else 1
    order = (1,) * n_params
    energies, perturbations, labels = random_two_block(2, 4, 0, orders=(order,))
    h0 = np.diag(energies)
    vectors, explicit = np.eye(6)[:, :2], energies[:2]
    with pytest.raises(ValueError, match="distinct string"):
        PerturbationProblem.from_diagonal(
            energies, perturbations, labels, param_names=names
        )
    with pytest.raises(ValueError, match="distinct string"):
        build_extended_problem(h0, perturbations, vectors, explicit, param_names=names)
    problem = PerturbationProblem.from_diagonal(
        energies, perturbations, labels, param_names=tuple("xy"[:n_params])
    )
    assert problem.param_names == tuple("xy"[:n_params])


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
    # A dense H_0 of several check tiles, coupled only in the last one.
    energies, matrix, labels = tiled_input()
    h0 = np.diag(energies)
    h0[3, -1] = h0[-1, 3] = 1e-6
    with pytest.raises(ValueError, match="diagonal"):
        PerturbationProblem.from_diagonal(h0, {(1,): matrix}, labels)
    h0[3, -1] = h0[-1, 3] = 0.0
    problem = PerturbationProblem.from_diagonal(h0, {(1,): matrix}, labels)
    np.testing.assert_array_equal(np.concatenate(problem.eigenvalues), energies)
    with pytest.raises(ValueError, match="square"):
        PerturbationProblem.from_diagonal(h0[:, :-1], {(1,): matrix}, labels)


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


def tiled_input(seed=3):
    """Energies, a Hermitian perturbation of a few check tiles, the last
    one partial, and the labels of a two-block problem."""
    n = 2 * diagonalization.CHECK_TILE + 3
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    matrix = (matrix + matrix.conj().T) / 2
    labels = [0] * 8 + [1] * (n - 8)
    energies = np.concatenate([np.arange(8.0), 10.0 + np.arange(n - 8.0)])
    return energies, matrix, labels


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_tiled_checks_reject_a_non_finite_last_tile(value):
    """Slab and tile results are reduced in numpy: a NaN in the last tile
    would vanish under Python's ``max(1.0, nan)``."""
    energies, matrix, labels = tiled_input()
    matrix[-1, -1] = value
    with pytest.raises(ValueError, match=re.escape("order (1,) has non-finite")):
        PerturbationProblem.from_diagonal(energies, {(1,): matrix}, labels)
    with pytest.raises(ValueError, match="H_0 has non-finite"):
        PerturbationProblem.from_diagonal(np.diag(np.diag(matrix)), {(1,): np.eye(3)}, [0] * 3)


def test_tiled_hermiticity_check_keeps_the_tolerance():
    """A skew in one element of the last, partial, tile column is accepted
    just under the tolerance and rejected above it."""
    energies, matrix, labels = tiled_input()
    tolerance = diagonalization.HERMITICITY_RTOL * np.abs(matrix).max()
    matrix[3, -2] += 0.9j * tolerance
    PerturbationProblem.from_diagonal(energies, {(1,): matrix}, labels)
    matrix[3, -2] += 0.2j * tolerance
    with pytest.raises(ValueError, match="not Hermitian"):
        PerturbationProblem.from_diagonal(energies, {(1,): matrix}, labels)


def test_from_diagonal_holds_a_dense_input_once():
    """The checks read a dense input in tiles and H_0 is not stored, so
    assembly allocates little more than the permuted copy (2.84 times the
    input when both were made at full size)."""
    energies, perturbations, labels = random_two_block(50, 500, seed=1)
    tracemalloc.start()
    try:
        PerturbationProblem.from_diagonal(energies, perturbations, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * perturbations[(1,)].nbytes + 2**20  # 1 MiB: a few tiles


def test_h0_blocks_come_from_the_eigenvalues():
    """No order-0 entry of a block with eigenvalues is stored; `block`
    makes it, and a stored entry, such as the implicit complement's, wins."""
    explicit = PerturbationProblem.from_diagonal(*random_two_block(3, 5, seed=2))
    rotated = PerturbationProblem.from_eigenvectors(
        np.diag([0.0, 1.0, 2.0]), {(1,): np.ones((3, 3))}, [np.eye(3)[:, :1], np.eye(3)[:, 1:]]
    )
    h0, perturbations = lattice_problem(4, seed=1)
    # A real start vector keeps the complex128 vectors real.
    v0 = np.random.default_rng(0).standard_normal(16)
    energies, psi = sla.eigsh(h0, k=2, which="SA", v0=v0)
    implicit = build_extended_problem(h0, perturbations, psi, energies)
    dtypes = (np.complex128, np.float64, np.float64)
    for problem, dtype in zip((explicit, rotated, implicit), dtypes):
        assert problem.dtype == dtype
        for label, values in enumerate(problem.eigenvalues):
            key = (label, label, problem.zero_order())
            if values is None:
                assert problem.block(*key) is problem.blocks[key]
                continue
            assert key not in problem.blocks
            h0_block = problem.block(*key)
            assert h0_block.dtype == dtype
            np.testing.assert_array_equal(h0_block, np.diag(values))


def basis_groups(labels):
    """Unit vectors of the states of block 0 and of block 1."""
    k = labels.count(0)
    return np.eye(len(labels))[:, :k], np.eye(len(labels))[:, k:]


def from_eigenvectors(energies, perturbations, labels):
    h0, groups = np.diag(energies), basis_groups(labels)
    return PerturbationProblem.from_eigenvectors(h0, perturbations, groups)


def implicit_problem(energies, perturbations, labels):
    psi = basis_groups(labels)[0]
    energies_0 = energies[: psi.shape[1]]
    return build_extended_problem(np.diag(energies), perturbations, psi, energies_0)


@pytest.mark.parametrize(
    "build",
    [PerturbationProblem.from_diagonal, from_eigenvectors, implicit_problem],
    ids=["diagonal", "eigenvectors", "implicit"],
)
def test_lower_input_blocks_are_adjoints(build):
    """Every constructor stores a lower input block as the upper one's
    adjoint: a reference from `REFERENCE_MIN_SIZE` elements, an array
    below, and also where the term's own lower block is off by rounding."""
    energies, perturbations, labels = random_two_block(8, 16, seed=4)
    problem = build(energies, perturbations, labels)
    upper, lower = problem.blocks[(0, 1, (1,))], problem.blocks[(1, 0, (1,))]
    assert upper.size >= diagonalization.REFERENCE_MIN_SIZE
    assert type(lower) is Reference and lower.source is upper
    assert (lower.sign, lower.adjoint) == (1, True)
    assert not upper.flags.writeable
    perturbations[(1,)][10, 2] += 1e-14
    problem = build(energies, perturbations, labels)
    upper, lower = problem.blocks[(0, 1, (1,))], problem.blocks[(1, 0, (1,))]
    assert type(lower) is Reference and lower.source is upper
    np.testing.assert_array_equal(to_array(lower), upper.conj().T)
    problem = build(*random_two_block(2, 3, seed=4))
    upper, lower = problem.blocks[(0, 1, (1,))], problem.blocks[(1, 0, (1,))]
    assert upper.size < diagonalization.REFERENCE_MIN_SIZE
    assert type(lower) is np.ndarray
    np.testing.assert_array_equal(lower, upper.conj().T)


def traced_peak(build) -> int:
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_in_order_blocks_are_views_of_the_term():
    """With labels in block order, the blocks of a complex term are views of
    it and assembly allocates only check tiles; out of order, the term is
    copied once."""
    energies, perturbations, labels = random_two_block(100, 1000, seed=1)
    term = perturbations[(1,)]
    peak = traced_peak(
        lambda: PerturbationProblem.from_diagonal(energies, perturbations, labels)
    )
    assert peak < 0.1 * term.nbytes
    problem = PerturbationProblem.from_diagonal(energies, perturbations, labels)
    for key in [(0, 0, (1,)), (0, 1, (1,)), (1, 1, (1,))]:
        assert np.shares_memory(problem.blocks[key], term)
    model = transmon_problem(levels=20)
    peak = traced_peak(model.problem)
    assert model.coupling.nbytes <= peak < 1.5 * model.coupling.nbytes
    for block in model.problem().blocks.values():
        if type(block) is np.ndarray:
            assert not np.shares_memory(block, model.coupling)


def test_from_eigenvectors_rotates_each_term_once():
    """The rotated H_0 is checked through a view of its off-diagonal entries,
    and each term is rotated once (7.0 times the input with full-size
    temporaries in the check)."""
    energies, perturbations, labels = random_two_block(50, 500, seed=1)
    h0 = np.diag(energies)
    groups = [np.eye(550)[:, :50], np.eye(550)[:, 50:]]
    peak = traced_peak(
        lambda: PerturbationProblem.from_eigenvectors(h0, perturbations, groups)
    )
    assert peak < 6.5 * perturbations[(1,)].nbytes


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


def test_rejects_an_order_given_twice():
    with pytest.raises(ValueError, match=re.escape("order (1,) is given more than once")):
        PerturbationProblem.from_diagonal(
            np.array([0.0, 1.0]), {1: np.eye(2), (1,): 2 * np.eye(2)}, [0, 1]
        )


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: PerturbationProblem.from_eigenvectors(
                np.diag([0.0, 1.0, 2.0]), {(1,): np.eye(2)}, [np.eye(2)]
            ),
            "H_0 has shape (3, 3)",
        ),
        (
            lambda: PerturbationProblem.from_diagonal(
                np.array([0.0, 1.0]), {(1,): np.eye(3)}, [0, 1]
            ),
            "order (1,) is not 2 x 2",
        ),
        (
            lambda: PerturbationProblem.from_diagonal(
                np.array([0.0, 1.0 + 1e-6j]), {(1,): np.eye(2)}, [0, 1]
            ),
            "non-real diagonal",
        ),
        (
            lambda: PerturbationProblem.from_diagonal(
                np.array([0.0, 1.0]), {(1,): np.eye(2)}, [0, 1, 1]
            ),
            "length does not match",
        ),
        (
            lambda: PerturbationProblem.from_diagonal(
                np.array([0.0, 1.0]), {(1,): np.eye(2)}, [0, 2]
            ),
            "without gaps",
        ),
        (
            lambda: PerturbationProblem.from_diagonal(
                np.array([0.0, 1.0]), {(1,): np.eye(2), (0, 1): np.eye(2)}, [0, 1]
            ),
            "inconsistent lengths",
        ),
        (
            lambda: PerturbationProblem.from_diagonal(np.array([0.0, 1.0]), {}, [0, 1]),
            "At least one perturbation",
        ),
    ],
    ids=[
        "h0-size",
        "term-shape",
        "complex-h0",
        "index-length",
        "label-gap",
        "order-lengths",
        "no-terms",
    ],
)
def test_rejects_malformed_inputs(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_degenerate_solver_error():
    rule = PerturbationProblem.from_diagonal(
        np.array([0.0, 1.0]), {(1,): np.eye(2) * 0}, [0, 1]
    ).rule
    with pytest.raises(RuleValidationError, match="blocks \\(0, 1\\)"):
        make_eigenbasis_solver(
            (np.array([0.0]), np.array([1e-14])), rule=rule, tolerance=1e-12
        )


def test_custom_solver_on_degenerate_problem_is_rejected():
    """A caller's solver does not skip the degeneracy check."""
    problem = PerturbationProblem.from_diagonal(
        np.array([1.0, 1.0, 3.0]), {(1,): np.ones((3, 3))}, [0, 1, 1]
    )

    def solver(rhs, block, order):
        raise AssertionError("the solver must not be reached")

    with pytest.raises(RuleValidationError, match="blocks \\(0, 1\\)"):
        block_diagonalize(problem, solver)


def test_explicit_check_runs_once(monkeypatch):
    """Default solver or a caller's, an explicit problem is checked once."""
    calls = []
    check = diagonalization.check_rule
    monkeypatch.setattr(
        diagonalization, "check_rule", lambda *args: calls.append(check(*args))
    )
    problem = PerturbationProblem.from_diagonal(
        np.array([0.0, 1.0]), {(1,): np.ones((2, 2))}, [0, 1]
    )
    block_diagonalize(problem)
    assert len(calls) == 1
    solver = real_sparse_solver(problem)
    calls.clear()
    block_diagonalize(problem, solver)
    assert len(calls) == 1


@pytest.mark.parametrize("tolerance", [-1.0, np.nan, np.inf])
def test_rejects_bad_degeneracy_tolerance(tolerance):
    with pytest.raises(ValueError, match="Degeneracy tolerance"):
        PerturbationProblem.from_diagonal(
            np.array([1.0, 1.0, 3.0]),
            {(1,): np.ones((3, 3))},
            [0, 1, 1],
            tolerance=tolerance,
        )


def test_explicit_problems_are_not_implicit():
    diagonal = PerturbationProblem.from_diagonal(
        np.array([0.0, 1.0]), {(1,): np.ones((2, 2))}, [0, 1]
    )
    rotated = PerturbationProblem.from_eigenvectors(
        np.diag([0.0, 1.0]),
        {(1,): np.ones((2, 2))},
        [np.eye(2)[:, :1], np.eye(2)[:, 1:]],
    )
    for problem in (diagonal, rotated):
        assert not problem.implicit
        assert problem.tolerance == degeneracy_tolerance(problem.eigenvalues)


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
    """Every product that multiplies by an entry of the selected perturbation
    is ``V H'_S``: its other factor is an entry of ``V``."""
    energies, perturbations, labels = random_two_block(2, 3, seed=13)
    problem = PerturbationProblem.from_diagonal(energies, perturbations, labels)
    result = block_diagonalize(problem)
    products = []

    def recording_matmul(a, b, **kwargs):
        products.append((a, b))
        return matmul(a, b, **kwargs)

    matmul = series_module.matmul
    for module in (series_module, diagonalization):
        monkeypatch.setattr(module, "matmul", recording_matmul)
    for order in range(1, 5):
        for block in ((0, 0), (1, 1)):
            result.h_tilde.get(block, (order,))

    def entries(name):
        series = result.context[name]
        return {id(series.get(key[:2], key[2:])) for key in series.stored_keys()}

    selected, v = entries("H'_S"), entries("V")
    touching = [(a, b) for a, b in products if {id(a), id(b)} & selected]
    assert touching
    assert all(id(a) in v and id(b) in selected for a, b in touching)


def test_whole_block_masks_keep_the_two_block_costs():
    """All-True masks describe the unmasked problem, at its product count."""
    energies, perturbations, labels = random_two_block(10, 20, seed=0)
    whole = {0: np.ones((10, 10), dtype=bool), 1: np.ones((20, 20), dtype=bool)}
    results = []
    for labels_masked in ((), (0,), (0, 1)):
        masks = {label: whole[label] for label in labels_masked}
        problem = PerturbationProblem.from_diagonal(
            energies, perturbations, labels, masks=masks
        )
        result = block_diagonalize(problem)
        values = [to_array(result.h_tilde.get((0, 0), (n,))) for n in range(1, 7)]
        assert result.counter.matmul_count == 57
        results.append(values)
    for values in results[1:]:
        for value, expected in zip(values, results[0]):
            scale = np.abs(expected).max()
            assert np.abs(value - expected).max() <= 1e-12 * scale


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
