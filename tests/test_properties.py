"""Property tests over generated problems.

One strategy draws problems with 2-4 blocks, optional symmetric masks with a
selected diagonal, 1-2 parameters and a gap floor between every remaining
pair of states; degenerate states only ever share a selected pair. Half of
its problems have, beside 1-2 small blocks, one block without a mask that
holds 8-12 times their states, so the engine keeps it factored, whatever
the number of parameters, and the entries between them are large enough to
be references. Half of its problems are real: their terms are complex128
arrays whose imaginary parts are zero. Beside a term at each first order,
a problem may have terms at orders of total 2, and every term but the
first may be confined to the diagonal or the off-diagonal blocks, so the
perturbation is zero at some orders of some blocks.

A second strategy draws implicit problems: lattices of width 3-6 with 1-3
explicit states, half of them with complex128 inputs of real values and half
made complex by a term ``1j (A - Aᵀ)``.
"""

from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as sla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from blockpert import series as series_module
from blockpert.diagonalization import (
    FACTOR_RATIO,
    PerturbationProblem,
    block_diagonalize,
    make_eigenbasis_solver,
    transform_observable,
)
from blockpert.implicit import build_extended_problem, projected_operator
from blockpert.operators import One, Zero, adjoint, to_array, zero
from blockpert.problems import lattice_problem, random_two_block
from blockpert.separation import RuleValidationError
from blockpert.series import BlockSeries
from blockpert.verify import orders_with_total_up_to, run_verification

MAX_ORDER = 3


@st.composite
def problems(draw):
    """Keyword arguments of `PerturbationProblem.from_diagonal`."""
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=2))
        big = draw(st.integers(8, 12)) * sum(sizes)
        sizes.insert(draw(st.integers(0, len(sizes))), big)
    else:
        sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
        big = None
    n_params = draw(st.integers(1, 2))
    floor = draw(st.floats(0.5, 2.0))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    # Blocks sit in windows apart by more than the floor, and the states of
    # one block on a ladder of spacing `floor`, possibly sharing a rung.
    window = floor * (max(sizes) + 1)
    energies, labels, masks = [], [], {}
    for label, size in enumerate(sizes):
        rungs = np.sort(rng.integers(0, size, size))
        energies.extend(label * window + floor * rungs)
        labels.extend([label] * size)
        if 1 < size != big and draw(st.booleans()):
            mask = rng.random((size, size)) < 0.5
            mask = mask | mask.T | (rungs[:, None] == rungs[None, :])
            masks[label] = mask
    n = len(energies)
    real = draw(st.booleans())
    # A term at each first order and up to two at orders of total 2, each
    # but the first confined at random to the diagonal or the off-diagonal
    # blocks: the perturbation's support has gaps in orders and in blocks.
    orders = [tuple(int(k == axis) for axis in range(n_params)) for k in range(n_params)]
    second = [order for order in orders_with_total_up_to(n_params, 2) if sum(order) == 2]
    orders += draw(st.lists(st.sampled_from(second), max_size=2, unique=True))
    same = np.equal.outer(labels, labels)
    parts = {"whole": True, "diagonal": same, "off-diagonal": ~same}
    perturbations = {}
    for k, order in enumerate(orders):
        part = parts[draw(st.sampled_from(list(parts)))] if k else True
        term = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)) * (not real)
        perturbations[order] = 0.1 * floor * part * (term + term.conj().T) / 2
    return {
        "h0_diagonal": np.array(energies),
        "perturbations": perturbations,
        "subspace_indices": labels,
        "masks": masks,
    }


def remaining_pairs(kwargs):
    """State pairs ``(k, l)``, ``k < l``, that the rule eliminates."""
    labels = kwargs["subspace_indices"]
    starts = {label: labels.index(label) for label in set(labels)}
    pairs = []
    for k, l in combinations(range(len(labels)), 2):
        a, b = labels[k], labels[l]
        mask = kwargs["masks"].get(a)
        if a != b or (mask is not None and not mask[k - starts[a], l - starts[b]]):
            pairs.append((k, l))
    return pairs


class ProductTally:
    """`matmul` wrapper counting products of two non-structural operands.

    Only the product kernel's module is patched: a product made anywhere
    else escapes the tally, and the counts then disagree.
    """

    def __init__(self, monkeypatch):
        self.count = 0
        self.matmul = series_module.matmul
        monkeypatch.setattr(series_module, "matmul", self)

    def __call__(self, a, b, *, lazy=False):
        if not isinstance(a, (Zero, One)) and not isinstance(b, (Zero, One)):
            self.count += 1
        return self.matmul(a, b, lazy=lazy)


def query_everything(result, n_params):
    b = result.problem.n_blocks
    for order in orders_with_total_up_to(n_params, MAX_ORDER):
        for i in range(b):
            result.h_tilde.get((i, i), order)
            for j in range(b):
                result.u.get((i, j), order)


def value_dtype(terms):
    """The dtype the value rule gives terms, read whole."""
    real = not any(np.any(np.imag(to_array(term))) for term in terms)
    return np.float64 if real else np.complex128


def h_tilde_dtypes(result) -> set:
    """The dtypes of the arrays that ``H̃`` holds."""
    values = result.h_tilde._data.values()
    return {value.dtype for value in values if type(value) is np.ndarray}


@settings(max_examples=15, deadline=None)
@given(problems())
def test_generated_problems_pass_verification(kwargs):
    problem = PerturbationProblem.from_diagonal(**kwargs)
    assert problem.dtype == value_dtype(kwargs["perturbations"].values())
    result = block_diagonalize(problem)
    checks = run_verification(problem, MAX_ORDER, result)
    assert all(check.passed for check in checks), [c.line() for c in checks]
    assert h_tilde_dtypes(result) == {np.dtype(problem.dtype)}


@st.composite
def lattices(draw):
    """Arguments of `build_extended_problem`: a disordered lattice of width
    3-6, its 1-3 lowest states explicit, at least 0.05 below the rest. Its
    inputs are real; half of the draws cast them to complex128 arrays of
    real values, and half add a second-order term ``1j (A - Aᵀ)``."""
    width, n_explicit = draw(st.integers(3, 6)), draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**16))
    h0, perturbations = lattice_problem(width, seed)
    if draw(st.booleans()):
        h0, perturbations[(1,)] = h0.astype(complex), perturbations[(1,)].astype(complex)
    energies, vectors = np.linalg.eigh(h0.toarray())
    assume(energies[n_explicit] - energies[n_explicit - 1] > 0.05)
    if draw(st.booleans()):
        noise = sparse.random(width**2, width**2, density=0.2, random_state=seed)
        perturbations[(2,)] = 0.2j * (noise - noise.T)
    return h0, perturbations, vectors[:, :n_explicit], energies[:n_explicit]


@settings(max_examples=10, deadline=None)
@given(lattices())
def test_generated_lattices_pass_verification(arguments):
    """The paper's invariants hold on implicit problems, and the run's dtype
    follows the value rule."""
    h0, perturbations, vectors, energies = arguments
    problem = build_extended_problem(*arguments)
    assert problem.dtype == value_dtype([h0, vectors, *perturbations.values()])
    result = block_diagonalize(problem)
    checks = run_verification(problem, MAX_ORDER, result)
    assert all(check.passed for check in checks), [c.line() for c in checks]
    assert h_tilde_dtypes(result) == {np.dtype(problem.dtype)}


def assert_callers_receive_arrays(problem, solver, observable_blocks, data):
    """Solve ``problem`` with ``solver`` behind a spy and query ``H̃``, ``U``,
    ``U†`` and ``U†OU`` on every block to total order `MAX_ORDER`. ``O``
    has a drawn subset of ``observable_blocks`` (a dict by block), each at
    a drawn order 0 or 1. Every entry on an explicit row or column, all but
    the diagonal of a large block, is a finite ndarray, ``zero`` or ``one``,
    and no Sylvester right-hand side is a `LinearOperator`."""
    right_hand_sides = []

    def spy(rhs, block, order):
        right_hand_sides.append(rhs)
        return solver(rhs, block, order)

    result = block_diagonalize(problem, spy)
    present = {
        block: data.draw(st.integers(0, 1), label=f"order of O{block}")
        for block in observable_blocks
        if data.draw(st.booleans(), label=f"O{block} present")
    }
    observable = BlockSeries(
        lambda i, j, *n: observable_blocks[i, j]
        if present.get((i, j)) == sum(n)
        else zero,
        shape=result.h_tilde.shape,
        n_params=problem.n_params,
        name="O",
    )
    transformed = transform_observable(result, observable)
    b = problem.n_blocks
    for order in orders_with_total_up_to(problem.n_params, MAX_ORDER):
        for i, j in np.ndindex(b, b):
            if i == j and i in problem.large_blocks:
                continue
            for series in (result.h_tilde, result.u, result.u_adjoint, transformed):
                value = series.get((i, j), order)
                label = (series.name, i, j, order)
                assert type(value) in (np.ndarray, Zero, One), label
                assert type(value) is not np.ndarray or np.isfinite(value).all(), label
    assert right_hand_sides
    assert not any(isinstance(rhs, sla.LinearOperator) for rhs in right_hand_sides)


def dense_observable_blocks(problem) -> dict:
    """The blocks of a random real symmetric observable on the whole space."""
    sizes = problem.block_sizes
    full = np.random.default_rng(sum(sizes)).normal(size=(sum(sizes),) * 2)
    full += full.T
    parts = [slice(a, b) for a, b in zip(np.cumsum((0,) + sizes), np.cumsum(sizes))]
    return {
        (i, j): full[rows, columns].copy()
        for i, rows in enumerate(parts)
        for j, columns in enumerate(parts)
    }


@settings(max_examples=15, deadline=None)
@given(problems(), st.data())
def test_callers_receive_finite_arrays(kwargs, data):
    """On every drawn problem, with a block factored for its size or not,
    the output series and ``U†OU`` of a dense observable hand out ``zero``,
    ``one`` or finite ndarrays (`assert_callers_receive_arrays`)."""
    problem = PerturbationProblem.from_diagonal(**kwargs)
    solver = make_eigenbasis_solver(
        problem.eigenvalues, problem.rule, problem.tolerance
    )
    assert_callers_receive_arrays(problem, solver, dense_observable_blocks(problem), data)


@settings(max_examples=10, deadline=None)
@given(problems(), st.data())
def test_callers_receive_arrays_beside_a_big_block(kwargs, data):
    """On the draws with a block factored for its size, the entries that
    meet it stay factored inside the run, yet callers and the solver get
    arrays (`assert_callers_receive_arrays`)."""
    problem = PerturbationProblem.from_diagonal(**kwargs)
    sizes = problem.block_sizes
    assume(any(FACTOR_RATIO * (sum(sizes) - size) <= size for size in sizes))
    solver = make_eigenbasis_solver(
        problem.eigenvalues, problem.rule, problem.tolerance
    )
    assert_callers_receive_arrays(problem, solver, dense_observable_blocks(problem), data)


@settings(max_examples=10, deadline=None)
@given(lattices(), st.data())
def test_callers_receive_arrays_beside_an_implicit_block(arguments, data):
    """As above on implicit problems, with an observable whose block on the
    complement is matrix-free."""
    problem = build_extended_problem(*arguments)
    psi = problem.solver.psi
    full = np.random.default_rng(psi.shape[0]).normal(size=(psi.shape[0],) * 2)
    full += full.T
    outside = full @ psi - psi @ (psi.conj().T @ full @ psi)
    blocks = {
        (0, 0): psi.conj().T @ full @ psi,
        (0, 1): outside.conj().T,
        (1, 0): outside,
        (1, 1): projected_operator(full, psi),
    }
    assert_callers_receive_arrays(problem, problem.solver, blocks, data)


@settings(max_examples=15, deadline=None)
@given(problems(), st.data())
def test_counter_matches_matmul_calls(kwargs, data):
    problem = PerturbationProblem.from_diagonal(**kwargs)
    b, n_params = problem.n_blocks, problem.n_params
    sizes = problem.block_sizes
    block = data.draw(st.integers(0, b - 1))

    def eval_observable(i, j, *n):
        if any(n) or i != block or j != block:
            return None
        return np.eye(sizes[block], dtype=complex)

    observable = BlockSeries(eval_observable, shape=(b, b), n_params=n_params)
    with pytest.MonkeyPatch.context() as monkeypatch:
        tally = ProductTally(monkeypatch)
        result = block_diagonalize(problem)
        query_everything(result, n_params)
        transformed = transform_observable(result, observable)
        transformed.get((block, block), (0,) * (n_params - 1) + (MAX_ORDER,))
    assert tally.count > 0
    assert result.counter.matmul_count == tally.count


@settings(max_examples=15, deadline=None)
@given(problems())
def test_u_prime_adjoint_is_the_adjoint_of_u_prime(kwargs):
    """``U'† = W - V`` agrees with the conjugate transpose of ``U' = W + V``:
    bitwise on two whole blocks, where every sum has one structural zero,
    and to rounding of the block's scale otherwise."""
    problem = PerturbationProblem.from_diagonal(**kwargs)
    result = block_diagonalize(problem)
    query_everything(result, problem.n_params)
    u_prime, u_prime_adjoint = result.context["U'"], result.context["U'†"]
    two_whole = problem.n_blocks == 2 and not problem.rule.masks
    sizes = problem.block_sizes
    keys = u_prime_adjoint.stored_keys()
    assert keys
    for i, j, *n in keys:
        shape = (sizes[i], sizes[j])
        value = to_array(u_prime_adjoint.get((i, j), n), shape)
        expected = to_array(adjoint(u_prime.get((j, i), n)), shape)
        if two_whole:
            assert value.tobytes() == expected.tobytes(), (i, j, n)
        else:
            scale = np.abs(expected).max(initial=0.0)
            assert np.abs(value - expected).max() <= 1e-15 * scale, (i, j, n)


@pytest.mark.parametrize("seed", range(3))
def test_u_prime_adjoint_shares_the_diagonal_of_w(seed):
    """On two whole blocks ``V_ii`` is zero, so ``U'†_ii`` is ``W_ii``
    itself and holds no memory of its own."""
    problem = PerturbationProblem.from_diagonal(*random_two_block(3, 4, seed))
    result = block_diagonalize(problem)
    for order in range(MAX_ORDER + 2):
        result.h_tilde.get((0, 0), (order,))
    w, u_prime_adjoint = result.context["W"], result.context["U'†"]
    shared = 0
    for i, j, *n in u_prime_adjoint.stored_keys():
        if i != j or w.get((i, i), n) is zero:
            continue
        assert np.shares_memory(u_prime_adjoint.get((i, i), n), w.get((i, i), n))
        shared += 1
    assert shared > 0


def test_counter_matches_matmul_calls_implicit(monkeypatch):
    h0, perturbations = lattice_problem(5, seed=2)
    energies, vectors = sla.eigsh(h0, k=2, which="SA")
    problem = build_extended_problem(h0, perturbations, vectors, energies)
    tally = ProductTally(monkeypatch)
    result = block_diagonalize(problem)
    for order in range(MAX_ORDER + 1):
        result.h_tilde.get((0, 0), (order,))
        result.u.get((0, 0), (order,))
    assert tally.count > 0
    assert result.counter.matmul_count == tally.count


@settings(max_examples=15, deadline=None)
@given(problems(), st.data())
def test_close_remaining_pair_is_rejected(kwargs, data):
    tolerance = 1e-6
    k, l = data.draw(st.sampled_from(remaining_pairs(kwargs)))
    energies = kwargs["h0_diagonal"].copy()
    energies[l] = energies[k] + data.draw(st.floats(0.0, 0.9)) * tolerance
    problem = PerturbationProblem.from_diagonal(
        **{**kwargs, "h0_diagonal": energies}, tolerance=tolerance
    )
    with pytest.raises(RuleValidationError):
        block_diagonalize(problem)
