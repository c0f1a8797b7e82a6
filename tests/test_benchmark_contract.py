"""The library names the benchmark harness in ``perfbench/`` relies on.

The harness swaps the module-level ``matmul`` of `blockpert.series` and
`blockpert.diagonalization`, passes ``counter=`` to `block_diagonalize` and
imports names from `blockpert.operators`; a change to any of them fails here
rather than in a benchmark run.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import worker
from perfbench.tracing import Tracer

from blockpert.diagonalization import PerturbationProblem
from blockpert.problems import random_two_block


def test_tracer_spans_agree_with_the_engine_counter():
    energies, perturbations, labels = random_two_block(2, 4, seed=0)
    problem = PerturbationProblem.from_diagonal(energies, perturbations, labels)
    tracer = Tracer()
    with tracer.instrument():
        result = tracer.block_diagonalize(problem)
        first = len(tracer.names)
        for order in range(5):
            result.h_tilde.get((0, 0), (order,))
        tracer.solve_range = (first, len(tracer.names))
    layers = tracer.layers()  # raises when the counter and the spans disagree
    assert layers["diagonalization.solve_products"] == 1 + 3 + 11
    assert result.counter.matmul_count == 1 + 3 + 11
    assert worker.memo_bytes(result.context) > 0
