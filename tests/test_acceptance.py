"""Acceptance suite: one test per criterion, with stated tolerances.

Each test prints a single ``ACCEPTANCE`` line so that the suite doubles as a
human-readable report when run with ``pytest -v -s``.
"""

import time

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as sla

from blockpert.diagonalization import (
    PerturbationProblem,
    _hermitian_eigenvalues,
    block_diagonalize,
    evaluate_truncated,
)
from blockpert.implicit import build_extended_problem
from blockpert.operators import OperationCounter, to_array
from blockpert.oracles import (
    closed_form_h_tilde,
    convergence_slope,
    exact_spectrum,
    reference_count_benchmark,
)
from blockpert.problems import (
    bilayer_graphene_problem,
    random_multiblock,
    random_two_block,
    transmon_problem,
    transmon_chi,
)
from blockpert.series import cauchy_product, orders_up_to
from blockpert.verify import run_verification

from conftest import dense_block_diagonalize


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {detail}")
    assert passed, detail


def test_criterion_1_matrix_product_counts():
    """Per-order products: engine 1, 3, 11; reference 1, 4, 27."""
    started = time.perf_counter()
    energies, perturbations, labels = random_two_block(2, 4, seed=17)
    problem = PerturbationProblem.from_diagonal(energies, perturbations, labels)
    counter = OperationCounter()
    result = block_diagonalize(problem, counter=counter)
    engine = []
    previous = 0
    for order in (2, 3, 4):
        result.h_tilde.get((0, 0), (order,))
        engine.append(counter.matmul_count - previous)
        previous = counter.matmul_count
    reference = [
        reference_count_benchmark(order, seed=17)[0] for order in (2, 3, 4)
    ]
    elapsed = time.perf_counter() - started
    report(
        1,
        engine == [1, 3, 11] and reference == [1, 4, 27] and elapsed < 1.0,
        f"engine {engine} (want [1, 3, 11]), reference {reference} "
        f"(want [1, 4, 27]), {elapsed:.2f} s",
    )


def test_criterion_2_printed_low_order_expressions():
    """Engine matches the closed-form order 1-4 expressions, 20 seeds."""
    started = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        energies, perturbations, labels = random_two_block(2, 4, seed=100 + seed)
        problem = PerturbationProblem.from_diagonal(
            energies, perturbations, labels
        )
        result = block_diagonalize(problem)
        for order in (1, 2, 3, 4):
            engine = to_array(result.h_tilde.get((0, 0), (order,)), (2, 2))
            closed = closed_form_h_tilde(
                perturbations[(1,)], energies[:2], energies[2:], order
            )
            scale = max(1.0, float(np.max(np.abs(closed))))
            worst = max(worst, float(np.max(np.abs(engine - closed))) / scale)
    elapsed = time.perf_counter() - started
    report(
        2,
        worst <= 1e-12 and elapsed < 5.0,
        f"max relative deviation {worst:.3e} (tol 1e-12), {elapsed:.2f} s",
    )


def test_criterion_3_schrieffer_wolff_equivalence():
    """Engine equals the exp(S) oracle to order 5 with the same gauge."""
    worst_sw = 0.0
    worst_gauge = 0.0
    for seed in (1, 2, 3):
        energies, perturbations, labels = random_two_block(2, 4, seed=200 + seed)
        problem = PerturbationProblem.from_diagonal(
            energies, perturbations, labels
        )
        checks = {c.name: c for c in run_verification(problem, 5)}
        worst_sw = max(worst_sw, checks["sw-equivalence"].value)
        worst_gauge = max(worst_gauge, checks["gauge-structure"].value)
    report(
        3,
        worst_sw <= 1e-10 and worst_gauge <= 1e-12,
        f"exp(S) deviation {worst_sw:.3e} (tol 1e-10), gauge defect "
        f"{worst_gauge:.3e} (tol 1e-12)",
    )


def test_criterion_4_unitarity_and_cancellation():
    """(U^H U)_n is the identity and H̃ has no remaining part, n <= 6."""
    cases = []
    energies, perturbations, labels = random_two_block(2, 3, seed=301)
    cases.append(
        PerturbationProblem.from_diagonal(energies, perturbations, labels)
    )
    energies, perturbations, labels = random_multiblock(
        (1, 1, 1, 2, 2), seed=302
    )
    cases.append(
        PerturbationProblem.from_diagonal(energies, perturbations, labels)
    )
    worst = {"unitarity": 0.0, "cancellation": 0.0}
    passed = True
    for problem in cases:
        for check in run_verification(problem, 6):
            if check.name in worst:
                worst[check.name] = max(worst[check.name], check.value)
                passed = passed and check.passed
    report(
        4,
        passed and all(v <= 1e-12 for v in worst.values()),
        f"unitarity {worst['unitarity']:.3e}, cancellation "
        f"{worst['cancellation']:.3e} (tol 1e-12, orders <= 6, 2 and 5 blocks)",
    )


def test_criterion_5_eigenvalue_convergence():
    """Truncation error scales as lambda^(N+1) for N = 1, 2, 3."""
    energies, perturbations, labels = random_two_block(2, 4, seed=12)
    perturbations = {k: 0.5 * v for k, v in perturbations.items()}
    problem = PerturbationProblem.from_diagonal(energies, perturbations, labels)
    result = block_diagonalize(problem)
    lambdas = np.geomspace(1e-1, 1e-3, 7)
    slopes = {}
    for n_trunc in (1, 2, 3):
        errors = []
        for lam in lambdas:
            block = evaluate_truncated(result.h_tilde, (0, 0), (n_trunc,), [lam])
            approx = _hermitian_eigenvalues(block)
            exact = exact_spectrum(energies, perturbations, [lam])[:2]
            errors.append(float(np.max(np.abs(np.sort(approx) - exact))))
        slopes[n_trunc] = convergence_slope(lambdas, errors)
    passed = all(abs(slopes[n] - (n + 1)) <= 0.3 for n in slopes)
    report(
        5,
        passed,
        "slopes "
        + ", ".join(f"N={n}: {s:.2f} (want {n + 1})" for n, s in slopes.items()),
    )


def test_criterion_6_transmon_dispersive_shift():
    """Second-order qubit corrections and the resonator frequency shift."""
    started = time.perf_counter()
    model = transmon_problem(omega_t=5.0, omega_r=7.0, anharmonicity=-0.3)
    result = block_diagonalize(model.problem())
    corrections = [
        complex(to_array(result.h_tilde.get((state, state), (2,)), (1, 1))[0, 0])
        for state in range(4)
    ]
    expected_00 = 1.0 / (model.omega_t - model.omega_r)
    defect_00 = abs(corrections[0] - expected_00)
    chi_engine = (corrections[3] - corrections[1]) - (
        corrections[2] - corrections[0]
    )
    chi_closed = transmon_chi(
        model.omega_t, model.omega_r, model.anharmonicity
    )
    defect_chi = abs(chi_engine - chi_closed)
    # Cross-check the corrections against exact diagonalization at small g.
    g = 1e-3
    exact = exact_spectrum(np.diag(model.h0), {(1,): model.coupling}, [g])
    state_00 = np.argmin(np.abs(exact - np.diag(model.h0)[0].real))
    perturbative = np.diag(model.h0)[0].real + g**2 * corrections[0].real
    oracle_defect = abs(exact[state_00] - perturbative)
    elapsed = time.perf_counter() - started
    report(
        6,
        defect_00 <= 1e-12
        and defect_chi <= 1e-12
        and oracle_defect < 10 * g**3
        and elapsed < 1.0,
        f"E2(00) defect {defect_00:.3e}, chi defect {defect_chi:.3e} "
        f"(tol 1e-12), exact-oracle gap {oracle_defect:.1e}, {elapsed:.2f} s",
    )


def test_criterion_7_bilayer_graphene_coefficients():
    """Low-energy model coefficients of bilayer graphene."""
    model = bilayer_graphene_problem(t1=1.0, t2=0.4)
    result = block_diagonalize(model.problem())
    t1, t2 = model.t1, model.t2
    targets = [
        ((2, 0, 0), (0, 1), -3 * t1**2 / (4 * t2)),
        ((1, 1, 0), (0, 1), -2j * 3 * t1**2 / (4 * t2)),
        ((3, 0, 0), (0, 1), np.sqrt(3) * t1**2 / (8 * t2)),
        ((2, 0, 1), (0, 0), -3 * t1**2 / (2 * t2**2)),
    ]
    worst = 0.0
    for order, entry, expected in targets:
        value = to_array(result.h_tilde.get((0, 0), order), (2, 2))[entry]
        worst = max(worst, abs(value - expected) / abs(expected))
    report(
        7,
        worst <= 1e-10,
        f"max relative coefficient deviation {worst:.3e} (tol 1e-10)",
    )


def test_criterion_8_selective_diagonalization():
    """A 16x16 elementwise mask decouples exactly the unmasked entries."""
    rng = np.random.default_rng(88)
    n = 16
    energies = np.arange(n) + 0.4 * rng.random(n)
    h1 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h1 = (h1 + h1.conj().T) / 4
    mask = rng.random((n, n)) < 0.3
    mask = mask | mask.T | np.eye(n, dtype=bool)
    problem = PerturbationProblem.from_diagonal(
        energies, {(1,): h1}, [0] * n, masks={0: mask}
    )
    result = block_diagonalize(problem)
    transformed = cauchy_product(
        result.u_adjoint, cauchy_product(result.context["H"], result.u), name="U†HU"
    )
    worst_unmasked = 0.0
    masked_norm = 0.0
    for order in range(1, 5):
        reconstructed = to_array(transformed.get((0, 0), (order,)), (n, n))
        effective = to_array(result.h_tilde.get((0, 0), (order,)), (n, n))
        worst_unmasked = max(
            worst_unmasked,
            float(np.max(np.abs(reconstructed[~mask]))),
            float(np.max(np.abs(effective[~mask]))),
        )
        masked_norm = max(
            masked_norm, float(np.max(np.abs(effective[mask & ~np.eye(n, dtype=bool)])))
        )
    report(
        8,
        worst_unmasked <= 1e-12 and masked_norm > 1e-3,
        f"unmasked residual {worst_unmasked:.3e} (tol 1e-12), largest kept "
        f"off-diagonal entry {masked_norm:.3e}",
    )


def test_criterion_9_implicit_mode():
    """Sparse 400-dimensional implicit run matches the dense computation."""
    started = time.perf_counter()
    rng = np.random.default_rng(99)
    n, n_explicit = 400, 4

    def sparse_hermitian(slope):
        m = sparse.random(n, n, density=0.05, random_state=rng.integers(1 << 31))
        m = m + 1j * sparse.random(
            n, n, density=0.05, random_state=rng.integers(1 << 31)
        )
        m = (m + m.conj().T) / 2 + sparse.diags(np.linspace(0.0, slope, n))
        return m.tocsr().astype(np.complex128)

    h0 = sparse_hermitian(8.0)
    perturbations = {
        (1, 0): 0.5 * sparse_hermitian(0.0),
        (0, 1): 0.3 * sparse_hermitian(0.0),
    }
    energies, vectors = sla.eigsh(h0, k=n_explicit, which="SA")
    problem = build_extended_problem(h0, perturbations, vectors, energies)
    result = block_diagonalize(problem)

    dense_h0 = h0.toarray()
    all_energies, all_vectors = np.linalg.eigh(dense_h0)
    complement = np.linalg.qr(
        (np.eye(n) - vectors @ vectors.conj().T) @ all_vectors[:, n_explicit:]
    )[0]
    explicit_problem = PerturbationProblem.from_eigenvectors(
        dense_h0,
        {order: term.toarray() for order, term in perturbations.items()},
        [vectors, complement],
    )
    explicit_result = dense_block_diagonalize(explicit_problem)
    worst = 0.0
    for order in orders_up_to((2, 2)):
        implicit_block = to_array(
            result.h_tilde.get((0, 0), order), (n_explicit, n_explicit)
        )
        explicit_block = to_array(
            explicit_result.h_tilde.get((0, 0), order),
            (n_explicit, n_explicit),
        )
        worst = max(worst, float(np.max(np.abs(implicit_block - explicit_block))))
    dense_leaks = [
        f"{name}{key}"
        for name, series in result.context.items()
        for key, value in series._data.items()
        if isinstance(value, np.ndarray) and value.shape == (n, n)
    ]
    elapsed = time.perf_counter() - started
    report(
        9,
        worst <= 1e-8
        and not dense_leaks
        and problem.solver.factorization_count == n_explicit
        and elapsed < 30.0,
        f"implicit-explicit deviation {worst:.3e} (tol 1e-8), "
        f"{problem.solver.factorization_count} factorizations, "
        f"dense leaks {dense_leaks or 'none'}, {elapsed:.1f} s",
    )


def test_criterion_10_lazy_engine_economics():
    """Continuation performs only the incremental products."""
    energies, perturbations, labels = random_two_block(2, 4, seed=55)

    def totals(max_order):
        problem = PerturbationProblem.from_diagonal(
            energies, perturbations, labels
        )
        counter = OperationCounter()
        result = block_diagonalize(problem, counter=counter)
        history = []
        for order in range(max_order + 1):
            result.h_tilde.get((0, 0), (order,))
            history.append(counter.matmul_count)
        return result, counter, history

    result, counter, warm_history = totals(5)
    _, _, cold_history = totals(5)
    incremental_ok = warm_history[-1] == cold_history[-1]
    before = counter.matmul_count
    for order in range(6):
        result.h_tilde.get((0, 0), (order,))
    repeated_ok = counter.matmul_count == before
    report(
        10,
        incremental_ok and repeated_ok,
        f"warm total {warm_history[-1]} equals cold total {cold_history[-1]}; "
        f"repeated queries add {counter.matmul_count - before} products",
    )
