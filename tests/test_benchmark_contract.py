"""The library names the benchmark harness in ``perfbench/`` relies on.

The harness swaps the module-level ``matmul`` of `blockpert.series` and
`blockpert.diagonalization`, passes ``counter=`` to `block_diagonalize` and
imports names from `blockpert.operators`; a change to any of them fails here
rather than in a benchmark run.
"""

import sys
import tracemalloc
from itertools import combinations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import numpy as np
import pytest
import scipy.sparse.linalg as sla
from hypothesis import given, settings

from perfbench import worker
from perfbench.tracing import Tracer

from blockpert import series as series_module
from blockpert.diagonalization import (
    REFERENCE_MIN_SIZE,
    PerturbationProblem,
    block_diagonalize,
)
from blockpert.implicit import build_extended_problem
from blockpert.operators import (
    FactoredOperator,
    MatrixFreeOperator,
    Reference,
    one,
    zero,
)
from blockpert.problems import bilayer_graphene_problem, lattice_problem, random_two_block
from blockpert.series import orders_up_to
from blockpert.verify import orders_with_total_up_to

from test_properties import lattices, problems


def test_tier_one_runs_on_one_blas_thread():
    """``conftest.py`` pins one BLAS thread before numpy loads its library."""
    assert worker.blas_threads() in (1, None)  # None: the BLAS is not OpenBLAS


def traced_solve(problem):
    """Tracer and result after a traced solve of H-tilde[0, 0] to order 4."""
    tracer = Tracer()
    with tracer.instrument():
        result = tracer.block_diagonalize(problem)
        first = len(tracer.names)
        for order in range(5):
            result.h_tilde.get((0, 0), (order,))
        tracer.solve_range = (first, len(tracer.names))
    return tracer, result


def test_tracer_spans_agree_with_the_engine_counter():
    energies, perturbations, labels = random_two_block(2, 4, seed=0)
    problem = PerturbationProblem.from_diagonal(energies, perturbations, labels)
    tracer, result = traced_solve(problem)
    layers = tracer.layers()  # raises when the counter and the spans disagree
    assert layers["diagonalization.solve_products"] == 1 + 3 + 11
    assert result.counter.matmul_count == 1 + 3 + 11
    assert worker.memo_bytes(result.context) > 0


def test_tracer_spans_agree_with_the_engine_counter_implicit():
    """The tracer checks its spans against `OperationCounter` for explicit
    problems only; on a matrix-free problem the two must agree as well."""
    h0, perturbations = lattice_problem(9, seed=3)
    v0 = np.random.default_rng(3).standard_normal(h0.shape[0])
    energies, vectors = sla.eigsh(h0, k=4, which="SA", v0=v0)
    problem = build_extended_problem(h0, perturbations, vectors, energies)
    tracer, result = traced_solve(problem)
    layers = tracer.layers()
    assert layers["diagonalization.solve_products"] == result.counter.matmul_count
    assert result.counter.matmul_count > 0


def test_tracer_counts_batched_small_products():
    """Bilayer graphene to (2, 2, 1), 3 parameters on 2x2 blocks, where
    every product is batched: the tracer's spans agree with
    `OperationCounter`, and its flop tally is 8·m·k·n = 64 per product,
    so a batch is no basis to the tracer's ``if not lazy``."""
    problem = bilayer_graphene_problem().problem()
    assert problem.block_sizes == (2, 2)
    tracer = Tracer()
    with tracer.instrument():
        result = tracer.block_diagonalize(problem)
        first = len(tracer.names)
        for order in orders_up_to((2, 2, 1)):
            result.h_tilde.get((0, 0), order)
        tracer.solve_range = (first, len(tracer.names))
    layers = tracer.layers()  # raises when the counter and the spans disagree
    products = result.counter.matmul_count
    assert products > 100
    assert layers["diagonalization.solve_products"] == products
    assert tracer.flop == 8 * 2 * 2 * 2 * products


def test_memo_bytes_counts_factored_entries_once():
    """`worker.memo_bytes` of an implicit context is the bytes of the owners
    of its ndarray entries, plus the shared large-block basis once and the
    core of every factored entry."""
    h0, perturbations = lattice_problem(12, seed=1)
    v0 = np.random.default_rng(1).standard_normal(h0.shape[0])
    energies, vectors = sla.eigsh(h0, k=4, which="SA", v0=v0)
    result = block_diagonalize(
        build_extended_problem(h0, perturbations, vectors, energies)
    )
    for order in range(1, 8):
        result.h_tilde.get((0, 0), (order,))
    owners, factored = {}, 0
    for series in result.context.values():
        for value in series._data.values():
            if isinstance(value, FactoredOperator):
                factored += 1
                value = value.core
            if isinstance(value, np.ndarray):
                while isinstance(value.base, np.ndarray):
                    value = value.base
                owners[id(value)] = value.nbytes
    basis = result.h_tilde.large_blocks[1].buffer
    assert factored > 10 and basis.base is None and id(basis) not in owners
    assert worker.memo_bytes(result.context) == sum(owners.values()) + basis.nbytes


ORDERS_TO_SIX = tuple((order,) for order in range(1, 7))
# The orders of the graphene_spectrum workload's solve.
GRAPHENE_ORDERS = tuple(orders_up_to((6, 6, 2)))


def solved(problem, orders=ORDERS_TO_SIX):
    """The result of ``problem`` after H-tilde[0, 0] at ``orders``, by
    default 1 to 6."""
    result = block_diagonalize(problem)
    for order in orders:
        result.h_tilde.get((0, 0), order)
    return result


def dense_problem():
    return PerturbationProblem.from_diagonal(*random_two_block(10, 100, 1))


def lattice():
    h0, perturbations = lattice_problem(12, seed=1)
    v0 = np.random.default_rng(1).standard_normal(h0.shape[0])
    energies, vectors = sla.eigsh(h0, k=8, which="SA", v0=v0)
    return build_extended_problem(h0, perturbations, vectors, energies)


def graphene():
    return bilayer_graphene_problem().problem()


def stored_owners(context):
    """The distinct arrays that own the memory of the stored entries,
    found without `worker.memo_bytes`: ndarray entries, the cores of
    factored entries and each basis buffer, also inside a lazy sum of
    operators, as H̃ is on a large block where the matrix-free ``H'_S``
    is not zero; and the references. A reference owns nothing, and its
    source is a stored ndarray entry. A `MatrixFreeOperator` holds the
    problem's inputs and is not entered."""
    owners, arrays, references = {}, set(), []

    def visit(value):
        if type(value) is np.ndarray:
            while isinstance(value.base, np.ndarray):
                value = value.base
            owners[id(value)] = value
        elif type(value) is FactoredOperator:
            visit(value.core)
            visit(value.basis.buffer)
        elif isinstance(value, sla.LinearOperator) and type(value) is not MatrixFreeOperator:
            for part in value.args:  # a lazy sum, or an array it wraps
                visit(part)
        else:
            assert value in (zero, one) or type(value) is MatrixFreeOperator

    for series in context.values():
        for value in series._data.values():
            if type(value) is Reference:
                references.append(value)
                continue
            if type(value) is np.ndarray:
                arrays.add(id(value))
            visit(value)
    assert all(id(entry.source) in arrays for entry in references)
    return list(owners.values()), references


@pytest.mark.parametrize("problem", [dense_problem, lattice], ids=["dense", "lattice"])
def test_memo_stores_no_array_twice(problem):
    """No two stored owners of at least `REFERENCE_MIN_SIZE` entries are
    bit for bit ``±y`` or ``±yᴴ`` of each other: the entries that the
    recurrences derive are references, or on the factored block 1 share
    the core of their source, as ``B = -G_S`` does where ``U'†B`` is zero;
    H̃[1, 1] is queried too. `worker.memo_bytes` counts every owner once and
    no reference."""
    result = solved(problem())
    context = result.context
    negated = 0
    for order in range(1, 7):
        result.h_tilde.get((1, 1), (order,))
        b, g_s = (context[name].get((1, 1), (order,)) for name in ("B", "G_S"))
        if context["U'†B"].get((1, 1), (order,)) is zero and g_s is not zero:
            assert type(b) is FactoredOperator and b.core is g_s.core
            assert (b.sign, g_s.sign) == (-1, 1)
            negated += 1
    assert negated
    owners, references = stored_owners(context)
    assert references
    large = [x for x in owners if x.size >= REFERENCE_MIN_SIZE]
    for x, y in combinations(large, 2):
        for target in (y, y.conj().T):
            if x.shape == target.shape:
                assert not np.array_equal(x, target) and not np.array_equal(x, -target)
    assert worker.memo_bytes(result.context) == sum(x.nbytes for x in owners)


def test_reference_entries_allocate_no_buffer():
    """``V[1, 0]``, ``U'†[0, 1]`` and ``U'†[1, 0]`` refer to the stored
    ``V[0, 1]``: evaluating them allocates nothing of its size. Storing
    them may grow a memo dict by a few kB, so ``V[0, 1]`` is 30 x 300 (144
    kB), far above that, and a copy of it fails the bound."""
    result = solved(PerturbationProblem.from_diagonal(*random_two_block(30, 300, 1)))
    source = result.context["V"].get((0, 1), (7,))
    tracemalloc.start()
    try:
        entries = [
            result.context["V"].get((1, 0), (7,)),
            result.context["U'†"].get((0, 1), (7,)),
            result.context["U'†"].get((1, 0), (7,)),
        ]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < source.nbytes / 4
    signs = [(entry.sign, entry.adjoint) for entry in entries]
    assert signs == [(-1, True), (-1, False), (1, True)]
    assert all(entry.source is source for entry in entries)


@pytest.mark.parametrize(
    "problem, orders, nbytes",
    [
        (dense_problem, ORDERS_TO_SIX, 545_600),
        (lattice, ORDERS_TO_SIX, 171_520),
        (graphene, GRAPHENE_ORDERS, 131_328),
    ],
    ids=["dense", "lattice", "graphene"],
)
def test_memo_bytes_are_pinned(problem, orders, nbytes):
    """The memo of the problems above after H̃[0, 0] to order 6, and to
    (6, 6, 2) on graphene. Dense and lattice held 796,800 and 309,248
    bytes while the bracket's products ``A = H'_R U'`` and ``V H'_S`` were
    stored series, and 592,000 and 198,656 bytes while ``U'†B`` and ``B``
    beside the factored block were dense. Graphene held 133,184 bytes
    while its small entries that are views into the 4x4 input terms were
    stored as views, pinning those terms' buffers."""
    assert worker.memo_bytes(solved(problem(), orders).context) == nbytes


@pytest.mark.parametrize(
    "problem, orders, stacked, stacks",
    [
        (dense_problem, ORDERS_TO_SIX, 0, 0),
        (lattice, ORDERS_TO_SIX, 0, 0),
        (graphene, GRAPHENE_ORDERS, 30_969, 1_368),
    ],
    ids=["dense", "lattice", "graphene"],
)
def test_small_products_are_stacked(problem, orders, stacked, stacks):
    """Every product of graphene's 2x2 blocks is formed in a stack, and
    no product on the blocks of `REFERENCE_MIN_SIZE` elements or more of
    the dense and lattice problems is. A change that stops stacking small
    products, or stacks larger ones, moves these tallies."""
    counter = solved(problem(), orders).counter
    assert (counter.stacked, counter.stacks) == (stacked, stacks)


def assert_each_array_and_product_once(problem, monkeypatch, max_order=3):
    """Solve ``problem`` for H̃ on every block with eigenvalues to total
    order ``max_order``. No two stored owners of at least
    `REFERENCE_MIN_SIZE` entries are ``±y`` or ``±yᴴ`` of each other,
    `worker.memo_bytes` counts each once, and no two products multiply the
    same pair of stored operands: each product is formed once. H̃ on a
    large block, a lazy sum with the matrix-free ``H'_S`` at its orders, is
    queried too. Not queried: ``U`` and ``U†``, which still make their
    references arrays."""
    operands = []
    matmul = series_module.matmul

    def recording_matmul(a, b, **kwargs):
        if a is not one and b is not one:
            operands.append((id(a), id(b)))
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(series_module, "matmul", recording_matmul)
    result = block_diagonalize(problem)
    for order in orders_with_total_up_to(problem.n_params, max_order):
        for i in range(problem.n_blocks):
            result.h_tilde.get((i, i), order)
    assert result.counter.matmul_count == len(operands) == len(set(operands))
    owners, _ = stored_owners(result.context)
    large = [x for x in owners if x.size >= REFERENCE_MIN_SIZE]
    for x, y in combinations(large, 2):
        for target in (y, y.conj().T):
            if x.shape == target.shape and x.any():
                assert not np.array_equal(x, target) and not np.array_equal(x, -target)
    assert worker.memo_bytes(result.context) == sum(x.nbytes for x in owners)


def test_masked_problem_stores_each_array_and_product_once():
    """A masked block of 144 elements: ``U'†`` off the diagonal and on the
    masked block is a reference to ``U'ᴴ``, and ``B`` and H̃ share the
    selected part of the bracket, ``G_S``."""
    energies, perturbations, labels = random_two_block(12, 20, 3)
    mask = np.random.default_rng(0).random((12, 12)) < 0.5
    mask = mask | mask.T | np.eye(12, dtype=bool)
    problem = PerturbationProblem.from_diagonal(
        energies, perturbations, labels, masks={0: mask}
    )
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_each_array_and_product_once(problem, monkeypatch, max_order=6)


@settings(max_examples=10, deadline=None)
@given(problems())
def test_generated_problems_store_each_array_and_product_once(kwargs):
    problem = PerturbationProblem.from_diagonal(**kwargs)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_each_array_and_product_once(problem, monkeypatch)


@settings(max_examples=6, deadline=None)
@given(lattices())
def test_generated_lattices_store_each_array_and_product_once(arguments):
    problem = build_extended_problem(*arguments)
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_each_array_and_product_once(problem, monkeypatch)
