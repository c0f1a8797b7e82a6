"""Property tests over generated problems.

One strategy draws problems with 2-4 blocks, optional symmetric masks with a
selected diagonal, 1-2 parameters and a gap floor between every remaining
pair of states; degenerate states only ever share a selected pair.
"""

from itertools import combinations

import numpy as np
import pytest
import scipy.sparse.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from blockpert import diagonalization, series as series_module
from blockpert.diagonalization import (
    PerturbationProblem,
    block_diagonalize,
    transform_observable,
)
from blockpert.implicit import build_extended_problem
from blockpert.operators import One, Zero
from blockpert.problems import lattice_problem
from blockpert.separation import RuleValidationError
from blockpert.series import BlockSeries
from blockpert.verify import orders_with_total_up_to, run_verification

MAX_ORDER = 3


@st.composite
def problems(draw):
    """Keyword arguments of `PerturbationProblem.from_diagonal`."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
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
        if size > 1 and draw(st.booleans()):
            mask = rng.random((size, size)) < 0.5
            mask = mask | mask.T | (rungs[:, None] == rungs[None, :])
            masks[label] = mask
    n = len(energies)
    perturbations = {}
    for k in range(n_params):
        term = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        order = tuple(int(k == axis) for axis in range(n_params))
        perturbations[order] = 0.1 * floor * (term + term.conj().T) / 2
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
    """`matmul` wrapper counting products of two non-structural operands."""

    def __init__(self, monkeypatch):
        self.count = 0
        self.matmul = series_module.matmul
        for module in (series_module, diagonalization):
            monkeypatch.setattr(module, "matmul", self)

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


@settings(max_examples=15, deadline=None)
@given(problems())
def test_generated_problems_pass_verification(kwargs):
    problem = PerturbationProblem.from_diagonal(**kwargs)
    checks = run_verification(problem, MAX_ORDER)
    assert all(check.passed for check in checks), [c.line() for c in checks]


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
