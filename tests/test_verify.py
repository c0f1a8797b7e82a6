"""The invariant suite passes correct results and fails corrupted ones.

A corrupted result is a correct one with one entry of ``U``, ``U†`` or
``H̃`` shifted, so each case shows that a check detects a wrong result.
"""

import dataclasses
import math

import numpy as np
import pytest

from blockpert import series as series_module
from blockpert import verify
from blockpert.cli import main
from blockpert.diagonalization import PerturbationProblem, block_diagonalize
from blockpert.documents import problem_document, write_document
from blockpert.operators import to_array
from blockpert.operators import zero
from blockpert.problems import (
    bilayer_graphene_problem,
    random_multiblock,
    random_two_block,
)
from blockpert.series import BlockSeries
from blockpert.verify import orders_with_total_up_to, run_verification

CHECKS = [
    "unitarity",
    "similarity",
    "cancellation",
    "structural-zeros",
    "sw-equivalence",
    "gauge-structure",
]
DELTA = 1e-9


def two_block_problem(n_a=2, n_b=3, seed=5):
    return PerturbationProblem.from_diagonal(*random_two_block(n_a, n_b, seed))


def shifted(series, shifts):
    """``series`` with ``shifts[(block, order)]`` added to those entries."""

    def eval(i, j, *n):
        value = series.get((i, j), n)
        shift = shifts.get(((i, j), n))
        return value if shift is None else to_array(value, shift.shape) + shift

    return BlockSeries(eval, series.shape, series.n_params, name=series.name)


def corrupt(result, **shifts):
    """``result`` with entries of the named output series shifted."""
    fields = {name: shifted(getattr(result, name), s) for name, s in shifts.items()}
    return dataclasses.replace(result, **fields)


def failing(problem, max_order, result):
    checks = run_verification(problem, max_order, result)
    return {c.name for c in checks if not c.passed}


def test_correct_results_pass_every_check():
    problem = two_block_problem()
    checks = run_verification(problem, 4)
    assert [c.name for c in checks] == CHECKS
    assert all(c.passed for c in checks), [c.line() for c in checks]


def test_three_parameters_pass_every_check():
    """Bilayer graphene: the exp(S) oracle runs with 3 parameters."""
    checks = run_verification(bilayer_graphene_problem().problem(), 4)
    assert [c.name for c in checks] == CHECKS
    assert all(c.passed for c in checks), [c.line() for c in checks]


@pytest.mark.parametrize(
    "problem, max_order",
    [
        (two_block_problem(10, 40, 0), 6),
        (two_block_problem(50, 200, 0), 4),
    ],
)
def test_rounding_of_large_terms_passes(problem, max_order):
    """Rounding grows with the terms summed, 8e4 at order 6 of the 10 + 40
    problem, so absolute 1e-12 bounds fail these correct results."""
    checks = run_verification(problem, max_order)
    assert all(c.passed for c in checks), [c.line() for c in checks]


def three_block_problem():
    return PerturbationProblem.from_diagonal(*random_multiblock((3, 4, 5), 1))


def masked_problem():
    """Block 0 of 6 + 8 keeps two pairs of states remaining."""
    mask = np.ones((6, 6), dtype=bool)
    mask[0, 4] = mask[4, 0] = mask[1, 5] = mask[5, 1] = False
    energies, perturbations, labels = random_two_block(6, 8, 2)
    return PerturbationProblem.from_diagonal(
        energies, perturbations, labels, masks={0: mask}
    )


@pytest.mark.parametrize("problem", [three_block_problem(), masked_problem()])
def test_the_gauge_holds_beyond_two_whole_blocks(problem):
    """The gauge check runs on every problem; only the exp(S) oracle needs
    two whole blocks."""
    checks = run_verification(problem, 5)
    assert [c.name for c in checks] == [c for c in CHECKS if c != "sw-equivalence"]
    assert all(c.passed for c in checks), [c.line() for c in checks]


def rotated(result, a, label):
    """``result`` with ``U`` replaced by ``U R``, ``U†`` by ``R† U†`` and
    ``H̃`` by ``R† H̃ R``, for ``R = exp(λ a)`` on diagonal block ``label``
    and the identity on the others. ``a`` is anti-Hermitian, so ``R`` is
    unitary and block diagonal."""
    sizes = result.problem.block_sizes

    def r(k, n, sign=1):
        """Order ``n`` of ``R`` on block ``k``, or of ``R† = exp(-λ a)``."""
        if k == label:
            return np.linalg.matrix_power(sign * a, n) / math.factorial(n)
        return np.eye(sizes[k]) if n == 0 else np.zeros((sizes[k],) * 2)

    def dense(series, i, j, n):
        return to_array(series.get((i, j), (n,)), (sizes[i], sizes[j]))

    def u(i, j, n):
        return sum(dense(result.u, i, j, m) @ r(j, n - m) for m in range(n + 1))

    def u_adjoint(i, j, n):
        return sum(
            r(i, m, -1) @ dense(result.u_adjoint, i, j, n - m) for m in range(n + 1)
        )

    def h_tilde(i, j, n):
        if i != j:
            return zero
        return sum(
            r(i, m, -1) @ dense(result.h_tilde, i, i, k) @ r(i, n - m - k)
            for m in range(n + 1)
            for k in range(n - m + 1)
        )

    fields = {
        name: BlockSeries(eval, (len(sizes),) * 2, 1, name=name)
        for name, eval in [("u", u), ("u_adjoint", u_adjoint), ("h_tilde", h_tilde)]
    }
    return dataclasses.replace(result, **fields)


def test_a_rotated_gauge_fails_only_the_gauge_check():
    """``U R`` block-diagonalizes ``H`` as well as ``U`` does: unitarity,
    similarity, cancellation and structural zeros cannot tell the two
    apart. Only the gauge fixes ``U`` and ``H̃``."""
    problem = three_block_problem()
    result = block_diagonalize(problem)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    wrong = rotated(result, 0.1 * (x - x.conj().T), 1)
    assert failing(problem, 4, result) == set()
    assert failing(problem, 4, wrong) == {"gauge-structure"}


X = np.array([[1.0, 2.0j, 0.5], [-1.0, 0.3, 1.0j]])  # block (0, 1) of 2 + 3


@pytest.mark.parametrize(
    "shifts, max_order, expected",
    [
        # U† off by a shift: U†U is no longer the identity.
        (
            {"u_adjoint": {((1, 1), (2,)): DELTA * np.ones((3, 3))}},
            2,
            {"unitarity", "similarity"},
        ),
        # H̃ off by a shift: the engine's H̃ is not U†HU, nor the exp(S) one.
        (
            {"h_tilde": {((0, 0), (2,)): DELTA * np.eye(2)}},
            2,
            {"similarity", "sw-equivalence"},
        ),
        # U rotated off-diagonally at first order, unitarily: H is not
        # block-diagonalized, and U is not the exp(S) series.
        (
            {
                "u": {((0, 1), (1,)): DELTA * X, ((1, 0), (1,)): -DELTA * X.conj().T},
                "u_adjoint": {
                    ((0, 1), (1,)): -DELTA * X,
                    ((1, 0), (1,)): DELTA * X.conj().T,
                },
            },
            1,
            {"similarity", "cancellation", "sw-equivalence"},
        ),
        # U in another gauge, U (1 + iδ P_A λ²): still unitary and similar,
        # but not the exp(S) series and not Hermitian on the diagonal.
        (
            {
                "u": {((0, 0), (2,)): 1j * DELTA * np.eye(2)},
                "u_adjoint": {((0, 0), (2,)): -1j * DELTA * np.eye(2)},
            },
            2,
            {"sw-equivalence", "gauge-structure"},
        ),
    ],
)
def test_corrupted_results_fail(shifts, max_order, expected):
    problem = two_block_problem()
    result = block_diagonalize(problem)
    assert failing(problem, max_order, result) == set()
    assert failing(problem, max_order, corrupt(result, **shifts)) == expected


def largest_entry(series, problem, order):
    sizes = problem.block_sizes
    return max(
        np.abs(to_array(series.get((i, j), order), (sizes[i], sizes[j]))).max()
        for i in range(2)
        for j in range(2)
    )


@pytest.mark.parametrize("name, check", [("h_tilde", "similarity"), ("u", "unitarity")])
def test_a_relative_shift_of_1e_9_fails_at_order_6(name, check):
    """The scaled bounds leave about 100x between rounding and a real error."""
    problem = two_block_problem(10, 40, 0)
    result = block_diagonalize(problem)
    order = (6,)
    shift = np.zeros((10, 10), dtype=complex)
    shift[0, 0] = DELTA * largest_entry(getattr(result, name), problem, order)
    wrong = corrupt(result, **{name: {((0, 0), order): shift}})
    assert check in failing(problem, 6, wrong)


def test_checks_do_not_use_the_product_kernel(monkeypatch):
    """With every entry stored, verification makes no series product."""
    problem = two_block_problem()
    result = block_diagonalize(problem)
    for order in [(0,), *orders_with_total_up_to(1, 4)]:
        for series in (result.u, result.u_adjoint, result.h_tilde):
            for block in [(0, 0), (0, 1), (1, 0), (1, 1)]:
                series.get(block, order)

    def refuse(*args, **kwargs):
        raise AssertionError("verification called series.contract")

    monkeypatch.setattr(series_module, "contract", refuse)
    checks = run_verification(problem, 4, result)
    assert [c.name for c in checks] == CHECKS
    assert all(c.passed for c in checks), [c.line() for c in checks]


def test_cli_verify_exits_1_on_a_wrong_result(tmp_path, monkeypatch, capsys):
    energies, perturbations, labels = random_two_block(2, 3, 5)
    path = tmp_path / "problem.json"
    write_document(
        problem_document(np.diag(energies), perturbations, subspace_indices=labels),
        path,
    )
    shifts = {"h_tilde": {((0, 0), (2,)): DELTA * np.eye(2)}}
    monkeypatch.setattr(
        verify,
        "block_diagonalize",
        lambda problem: corrupt(block_diagonalize(problem), **shifts),
    )
    assert main(["verify", "--input", str(path), "--max-order", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines if line.startswith("FAIL")] == [
        "FAIL similarity",
        "FAIL sw-equivalence",
    ]
