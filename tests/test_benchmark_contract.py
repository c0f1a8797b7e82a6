"""The library names the benchmark harness in ``perfbench/`` relies on.

The harness swaps the module-level ``matmul`` of `blockpert.series` and
`blockpert.diagonalization`, passes ``counter=`` to `block_diagonalize` and
imports names from `blockpert.operators`; a change to any of them fails here
rather than in a benchmark run.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import numpy as np
import scipy.sparse.linalg as sla

from perfbench import worker
from perfbench.tracing import Tracer

from blockpert.diagonalization import PerturbationProblem, block_diagonalize
from blockpert.implicit import build_extended_problem
from blockpert.operators import FactoredOperator
from blockpert.problems import lattice_problem, random_two_block


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
