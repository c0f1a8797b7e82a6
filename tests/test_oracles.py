import numpy as np
import pytest

from blockpert.diagonalization import PerturbationProblem, block_diagonalize
from blockpert.operators import to_array
from blockpert.oracles import (
    closed_form_h_tilde,
    convergence_slope,
    exact_spectrum,
    reference_count_benchmark,
    sw_reference,
)
from blockpert.problems import bilayer_graphene_problem, random_two_block


def test_sw_zero_perturbation():
    h_tilde, u, s = sw_reference(
        np.array([0.0, 1.0]), {(1,): np.zeros((2, 2))}, 1, (3,)
    )
    np.testing.assert_array_equal(h_tilde[(0,)], np.diag([0.0, 1.0]))
    assert s == {}
    np.testing.assert_array_equal(u[(0,)], np.eye(2))
    assert all(not np.any(u.get((n,), 0)) for n in range(1, 4))


def test_sw_cross_block_degeneracy_raises():
    with pytest.raises(ValueError, match="Degenerate denominators"):
        sw_reference(np.array([0.0, 0.0]), {(1,): np.ones((2, 2))}, 1, (2,))


def test_sw_second_order_textbook():
    """Second order of the qubit model reproduces g^2 / (E_A - E_B)."""
    g = 0.3
    h1 = np.array([[0.0, g], [g, 0.0]])
    h_tilde, _, s = sw_reference(np.array([0.0, 1.0]), {(1,): h1}, 1, (2,))
    assert h_tilde[(2,)][0, 0] == pytest.approx(-(g**2))
    # The generator is block off-diagonal and antihermitian.
    s1 = s[(1,)]
    assert s1[0, 0] == s1[1, 1] == 0
    np.testing.assert_allclose(s1, -s1.conj().T)


def test_sw_orders_do_not_depend_on_the_box():
    """A smaller box computes the same orders bitwise, and none outside it."""
    model = bilayer_graphene_problem()
    basis = np.hstack([model.vectors_low, model.vectors_high])
    h0 = np.real(np.diag(basis.conj().T @ model.h0 @ basis))
    perturbations = {
        order: basis.conj().T @ term @ basis
        for order, term in model.perturbations.items()
    }
    box = (2, 2, 1)
    small = sw_reference(h0, perturbations, 2, box)
    large = sw_reference(h0, perturbations, 2, (4, 4, 4))
    for series, reference in zip(small, large):
        in_box = {o for o in reference if all(n <= m for n, m in zip(o, box))}
        assert set(series) == in_box
        for order in in_box:
            assert series[order].tobytes() == reference[order].tobytes(), order


def test_sw_unitarity(rng):
    energies, perturbations, labels = random_two_block(3, 3, seed=22)
    _, u, _ = sw_reference(energies, perturbations, 3, (5,))
    for n in range(1, 6):
        total = np.zeros((6, 6), dtype=complex)
        for m in range(n + 1):
            left = u.get((m,))
            right = u.get((n - m,))
            if left is None or right is None:
                continue
            total += left.conj().T @ right
        np.testing.assert_allclose(total, 0, atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_engine_matches_sw_oracle(seed):
    """Cross-implementation equivalence to order five."""
    energies, perturbations, labels = random_two_block(2, 4, seed=seed)
    problem = PerturbationProblem.from_diagonal(energies, perturbations, labels)
    result = block_diagonalize(problem)
    h_ref, u_ref, _ = sw_reference(energies, perturbations, 2, (5,))
    cuts = [slice(0, 2), slice(2, 6)]
    for order in range(6):
        for i in range(2):
            for j in range(2):
                shape = (problem.block_sizes[i], problem.block_sizes[j])
                engine = to_array(result.h_tilde.get((i, j), (order,)), shape)
                reference = h_ref[(order,)][cuts[i], cuts[j]]
                np.testing.assert_allclose(engine, reference, atol=1e-10)
                engine_u = to_array(result.u.get((i, j), (order,)), shape)
                reference_u = u_ref[(order,)][cuts[i], cuts[j]]
                np.testing.assert_allclose(engine_u, reference_u, atol=1e-10)


def test_exact_spectrum_trivial_cases():
    np.testing.assert_allclose(
        exact_spectrum(np.array([0.0, 1.0]), {}, []), [0.0, 1.0]
    )
    pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    np.testing.assert_allclose(
        exact_spectrum(np.zeros(2), {(1,): pauli_x}, [1.0]), [-1.0, 1.0]
    )


def test_convergence_slope_synthetic():
    lambdas = np.geomspace(0.1, 1e-3, 6)
    assert convergence_slope(lambdas, lambdas**3) == pytest.approx(3.0, abs=1e-9)
    assert convergence_slope(lambdas, 2 * lambdas**5) == pytest.approx(
        5.0, abs=1e-9
    )
    with pytest.raises(ValueError):
        convergence_slope(lambdas, np.zeros_like(lambdas))
    with pytest.raises(ValueError):
        convergence_slope(lambdas[:3], lambdas[:3])


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_closed_forms_match_engine(order):
    energies, perturbations, labels = random_two_block(2, 4, seed=31)
    problem = PerturbationProblem.from_diagonal(energies, perturbations, labels)
    result = block_diagonalize(problem)
    engine = to_array(result.h_tilde.get((0, 0), (order,)), (2, 2))
    closed = closed_form_h_tilde(
        perturbations[(1,)], energies[:2], energies[2:], order
    )
    np.testing.assert_allclose(engine, closed, atol=1e-12)


@pytest.mark.parametrize(
    "order, expected", [(2, 1), (3, 4), (4, 27)]
)
def test_reference_counts(order, expected):
    count, value = reference_count_benchmark(order, seed=99)
    assert count == expected
    # The reference evaluates the same quantity as the engine.
    rng = np.random.default_rng(99)
    h1 = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h1 = (h1 + h1.conj().T) / 2
    e_a = np.sort(rng.random(2))
    e_b = 2.0 + np.sort(rng.random(4))
    problem = PerturbationProblem.from_diagonal(
        np.concatenate([e_a, e_b]), {(1,): h1}, [0, 0, 1, 1, 1, 1]
    )
    result = block_diagonalize(problem)
    engine = to_array(result.h_tilde.get((0, 0), (order,)), (2, 2))
    np.testing.assert_allclose(value, engine, atol=1e-12)


def test_reference_counts_offdiagonal():
    counts = [
        reference_count_benchmark(order, seed=99, offdiagonal_only=True)[0]
        for order in (2, 3, 4)
    ]
    assert counts == [1, 0, 15]
