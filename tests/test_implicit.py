import dataclasses
import re

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as sla

from blockpert import implicit
from blockpert.diagonalization import PerturbationProblem, block_diagonalize
from blockpert.implicit import (
    DEFLATION_ATOL,
    RESIDUAL_RTOL,
    DeflationError,
    FactorizationError,
    ShiftedSolverSet,
    build_extended_problem,
    projected_operator,
)
from blockpert.operators import to_array
from blockpert.problems import lattice_problem
from blockpert.series import orders_up_to

from conftest import dense_block_diagonalize, random_hermitian


def random_sparse_hermitian(rng, n, density=0.05, gap_slope=8.0):
    m = sparse.random(n, n, density=density, random_state=rng.integers(1 << 31))
    m = m + 1j * sparse.random(
        n, n, density=density, random_state=rng.integers(1 << 31)
    )
    m = (m + m.conj().T) / 2 + sparse.diags(np.linspace(0, gap_slope, n))
    return m.tocsr().astype(np.complex128)


@pytest.fixture
def small_toy(rng):
    """Dense 6x6 problem solvable in both explicit and implicit mode."""
    h0 = np.diag(np.arange(6.0))
    perturbations = {(1,): 0.4 * random_hermitian(rng, 6)}
    psi = np.eye(6, dtype=complex)[:, :2]
    return h0, perturbations, psi, np.array([0.0, 1.0])


def test_projected_operator_annihilates_explicit(small_toy):
    h0, perturbations, psi, energies = small_toy
    op = projected_operator(perturbations[(1,)], psi)
    action = op.matmat(psi)
    np.testing.assert_allclose(action, 0, atol=1e-10)
    # idempotence of the projector inside the operator
    probe = np.random.default_rng(0).normal(size=(6, 2))
    once = op.matmat(probe)
    np.testing.assert_allclose(op.matmat(once), op.matmat(op.matmat(probe)))


def test_shifted_solver_diagonal_closed_form():
    h0 = sparse.diags([0.0, 2.0, 3.0]).tocsc().astype(complex)
    psi = np.array([[1.0], [0.0], [0.0]], dtype=complex)
    solvers = ShiftedSolverSet(h0, psi, np.array([0.0]))
    rhs = np.array([0.0, 4.0, 9.0])
    solution = solvers.solve_shifted_deflated(0, rhs)
    np.testing.assert_allclose(solution, [0.0, 4.0 / (2.0 - 0.0), 9.0 / 3.0])
    # x (H_0 - E_0) = rhs with row-vector convention
    np.testing.assert_allclose(solution @ (h0.toarray() - 0.0 * np.eye(3)), rhs)
    np.testing.assert_allclose(
        solvers.solve_shifted_deflated(0, np.zeros(3)), np.zeros(3)
    )


def test_shifted_solver_rejects_undeflated_rhs():
    h0 = sparse.diags([0.0, 2.0, 3.0]).tocsc().astype(complex)
    psi = np.array([[1.0], [0.0], [0.0]], dtype=complex)
    solvers = ShiftedSolverSet(h0, psi, np.array([0.0]))
    with pytest.raises(DeflationError):
        solvers.solve_shifted_deflated(0, np.array([1.0, 0.0, 0.0]))


def test_shifted_solver_residual_random(rng):
    n = 200
    h0 = random_sparse_hermitian(rng, n)
    energies, vectors = sla.eigsh(h0, k=3, which="SA")
    solvers = ShiftedSolverSet(h0, vectors, energies)
    projector = np.eye(n) - vectors @ vectors.conj().T
    rhs = (rng.normal(size=n) + 1j * rng.normal(size=n)) @ projector
    for i in range(3):
        solution = solvers.solve_shifted_deflated(i, rhs)
        residual = solution @ (h0.toarray() - energies[i] * np.eye(n)) - rhs
        assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(rhs)
        assert np.linalg.norm(solution @ vectors) <= 1e-10


@pytest.mark.parametrize(
    "kind, real_factors",
    [("complex128, real data", True), ("float64, dense", True), ("complex", False)],
)
def test_shifted_solver_factorizes_real_data_in_real_arithmetic(
    rng, kind, real_factors
):
    """Real entries take a real LU whatever the dtype, and make a real
    problem; a right-hand side keeps its dtype, real or complex, through the
    solve, and every solve is logged."""
    h0 = {
        "complex128, real data": lambda: lattice_problem(12, 1)[0].astype(complex),
        "float64, dense": lambda: lattice_problem(12, 1)[0].toarray(),
        "complex": lambda: random_sparse_hermitian(rng, 144),
    }[kind]()
    n = h0.shape[0]
    energies, vectors = np.linalg.eigh(to_array(h0))
    energies, vectors = energies[:3], vectors[:, :3]
    problem = build_extended_problem(h0, {(1,): h0}, vectors, energies)
    solvers = problem.solver
    assert solvers.real_factors == real_factors
    assert problem.dtype == (np.float64 if real_factors else np.complex128)
    assert all(lu.L.dtype == problem.dtype for lu in solvers._factors)
    projector = np.eye(n) - vectors @ vectors.conj().T
    for i in range(3):
        real_rhs = rng.normal(size=n) @ projector
        for rhs in (real_rhs + 1j * (rng.normal(size=n) @ projector), real_rhs):
            solution = solvers.solve_shifted_deflated(i, rhs)
            assert solution.dtype == rhs.dtype
            residual = solution @ (to_array(h0) - energies[i] * np.eye(n)) - rhs
            assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(rhs)
            assert np.linalg.norm(solution @ vectors) <= 1e-10
    assert [record.shift for record in solvers.records] == [0, 0, 1, 1, 2, 2]
    for record in solvers.records:
        assert 1 <= record.steps <= 3
        assert record.residual <= RESIDUAL_RTOL
        assert record.overlap <= DEFLATION_ATOL


@pytest.mark.parametrize("complex_h0", [False, True], ids=["real", "complex"])
def test_narrow_panel_changes_neither_fill_nor_solves(monkeypatch, complex_h0):
    """The narrow SuperLU panel gives each state the fill and factor bytes
    of the default panel, and every solve takes as many refinement steps."""
    h0, perturbations = lattice_problem(30, 2)
    if complex_h0:
        hop = sparse.diags(np.ones(h0.shape[0] - 1), 1)
        h0 = (h0 + 0.1j * (hop - hop.T)).tocsr()
    energies, vectors = sla.eigsh(h0, k=4, which="SA", v0=np.ones(h0.shape[0]))

    def run():
        problem = build_extended_problem(h0, perturbations, vectors, energies)
        result = block_diagonalize(problem)
        for order in range(1, 5):
            result.h_tilde.get((0, 0), (order,))
        return problem.solver

    narrow = run()
    monkeypatch.setattr(implicit, "PANEL_SIZE", None)  # SuperLU's default
    default = run()
    assert narrow.real_factors != complex_h0
    copies = [(lu.L, lu.U) for lu in default._factors]
    assert narrow.factor_nnz == tuple(l.nnz + u.nnz for l, u in copies)
    assert narrow.factor_bytes == tuple(
        sum(m.data.nbytes + m.indices.nbytes + m.indptr.nbytes for m in pair)
        for pair in copies
    )
    assert narrow.records
    assert [(r.shift, r.steps) for r in narrow.records] == [
        (r.shift, r.steps) for r in default.records
    ]
    assert max(r.residual for r in narrow.records) <= RESIDUAL_RTOL


@pytest.mark.parametrize("complex_h0", [False, True], ids=["real", "complex"])
def test_shared_ordering_keeps_fill_and_residuals(monkeypatch, complex_h0):
    """One fill-reducing ordering serves every state: each factor has the
    fill of the state's own ordering, and every solve meets its residual
    in the caller's coordinates."""
    h0, perturbations = lattice_problem(30, 2)
    if complex_h0:
        hop = sparse.diags(np.ones(h0.shape[0] - 1), 1)
        h0 = (h0 + 0.1j * (hop - hop.T)).tocsr()
    energies, vectors = sla.eigsh(h0, k=4, which="SA", v0=np.ones(h0.shape[0]))
    splu = sla.splu
    orderings = []

    def spy(*args, **kwargs):
        orderings.append(kwargs["permc_spec"])
        return splu(*args, **kwargs)

    solves = []

    def logged(self, i, rhs_row):
        row = solve(self, i, rhs_row)
        solves.append((i, rhs_row, row))
        return row

    solve = ShiftedSolverSet.solve_shifted_deflated
    monkeypatch.setattr(sla, "splu", spy)
    monkeypatch.setattr(ShiftedSolverSet, "solve_shifted_deflated", logged)
    problem = build_extended_problem(h0, perturbations, vectors, energies)
    result = block_diagonalize(problem)
    for order in range(1, 5):
        result.h_tilde.get((0, 0), (order,))
    solver = problem.solver
    assert orderings.count("MMD_AT_PLUS_A") == 1
    assert len(orderings) == solver.factorization_count == 4

    matrix = sparse.csc_matrix(solver.h0)
    shift = implicit.SHIFT_FRACTION * max(1.0, np.max(np.abs(solver.energies)))
    own_fill = [
        splu(
            matrix - (energy - shift) * sparse.identity(matrix.shape[0], format="csc"),
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.001,
            panel_size=implicit.PANEL_SIZE,
            options=dict(SymmetricMode=True),
        ).nnz
        for energy in solver.energies
    ]
    assert solver.factor_nnz == tuple(own_fill)

    assert len(solves) == len(solver.records) > solver.factorization_count
    psi = solver.psi
    for (i, rhs_row, row), record in zip(solves, solver.records):
        column = np.asarray(rhs_row).ravel().conj()
        projected = column - psi @ (psi.conj().T @ column)
        solution = row.conj()
        residual = matrix @ solution - solver.energies[i] * solution - projected
        relative = np.linalg.norm(residual) / np.linalg.norm(column)
        assert record.shift == i
        assert relative <= RESIDUAL_RTOL
        assert relative == pytest.approx(record.residual, rel=1e-6, abs=1e-15)


@pytest.mark.parametrize(
    "energies, psi, message",
    [
        (np.zeros(0), np.zeros((3, 0)), "at least one explicit state"),
        (np.array([0.0, 2.0]), np.eye(3)[:, :1], "one column per energy"),
    ],
    ids=["no state", "one column for two energies"],
)
def test_shifted_solver_rejects_malformed_inputs(energies, psi, message):
    h0 = sparse.diags([0.0, 2.0, 3.0]).tocsc()
    with pytest.raises(ValueError, match=message):
        ShiftedSolverSet(h0, psi, energies)


@pytest.mark.parametrize("singular", [0, 2], ids=["first state", "later state"])
def test_exactly_singular_shift_names_its_energy(singular):
    """A shifted operator with an exactly zero pivot raises for its own
    state: the first, with its own ordering, or a later one, factored on
    the first state's ordering."""
    energies = np.array([0.0, 1.0, 2.0])
    sigma = energies[singular] - implicit.SHIFT_FRACTION * 2.0
    h0 = sparse.diags([0.0, 1.0, 2.0, 5.0, sigma, 7.0]).tocsr()
    psi = np.eye(6)[:, :3]
    with pytest.raises(
        FactorizationError,
        match=re.escape(f"Failed to factorize the shifted operator at E = "
                        f"{energies[singular]}."),
    ):
        ShiftedSolverSet(h0, psi, energies)


def weakly_split_lattice():
    """Clean 20x20 lattice whose two lowest degenerate pairs are split by 1e-8."""
    h0 = lattice_problem(20, 0, disorder=0.0)[0]
    onsite = 2e-7 * np.random.default_rng(1).uniform(-1, 1, h0.shape[0])
    return (h0 + sparse.diags(onsite)).tocsr()


@pytest.mark.parametrize(
    "h0, states",
    [
        # Clean lattice: the lowest six states hold two degenerate pairs.
        (lattice_problem(20, 0, disorder=0.0)[0], slice(0, 6)),
        # The same pairs split by about 1e-8, far closer than the shift.
        (weakly_split_lattice(), slice(0, 6)),
        # Disordered lattice, explicit states inside the spectrum.
        (lattice_problem(20, 4)[0], slice(3, 6)),
    ],
    ids=["degenerate pairs", "weakly split pairs", "interior states"],
)
def test_implicit_matches_explicit_lattice(rng, h0, states):
    perturbation = sparse.diags(rng.uniform(-0.5, 0.5, h0.shape[0])).tocsr()
    energies, vectors = np.linalg.eigh(h0.toarray())
    problem = build_extended_problem(
        h0, {(1,): perturbation}, vectors[:, states], energies[states]
    )
    result = block_diagonalize(problem)
    explicit = np.zeros(len(energies), bool)
    explicit[states] = True
    explicit_result = dense_block_diagonalize(
        PerturbationProblem.from_eigenvectors(
            h0.toarray(),
            {(1,): perturbation.toarray()},
            [vectors[:, explicit], vectors[:, ~explicit]],
        )
    )
    size = int(explicit.sum())
    for order in range(5):
        np.testing.assert_allclose(
            to_array(result.h_tilde.get((0, 0), (order,)), (size, size)),
            to_array(explicit_result.h_tilde.get((0, 0), (order,)), (size, size)),
            atol=1e-10,
        )
    assert max(r.residual for r in problem.solver.records) <= 1e-12


def test_weakly_split_lattice_has_close_pairs():
    energies = np.linalg.eigvalsh(weakly_split_lattice().toarray())[:6]
    gaps = np.diff(energies)[[1, 4]]
    assert np.all((gaps > 5e-9) & (gaps < 5e-8))


def test_loose_eigenvectors_converge(rng):
    """Explicit vectors with eigen-residuals near 1e-9 still give accurate solves.

    Their error gives the raw residual an explicit part that the shifted LU
    amplifies by the inverse shift; refinement converges only because both the
    residual and the LU's output are projected.
    """
    h0 = lattice_problem(20, 4)[0]
    energies, vectors = np.linalg.eigh(h0.toarray())
    psi, _ = np.linalg.qr(vectors[:, :6] + 1e-10 * rng.normal(size=(h0.shape[0], 6)))
    rayleigh = np.real(np.einsum("ij,ij->j", psi.conj(), h0 @ psi))
    assert np.max(np.abs(h0 @ psi - psi * rayleigh)) > 1e-10
    perturbation = sparse.diags(rng.uniform(-0.5, 0.5, h0.shape[0])).tocsr()
    problem = build_extended_problem(h0, {(1,): perturbation}, psi, rayleigh)
    result = block_diagonalize(problem)
    explicit_result = block_diagonalize(
        PerturbationProblem.from_eigenvectors(
            h0.toarray(),
            {(1,): perturbation.toarray()},
            [vectors[:, :6], vectors[:, 6:]],
        )
    )
    for order in range(1, 5):
        np.testing.assert_allclose(
            np.linalg.eigvalsh(to_array(result.h_tilde.get((0, 0), (order,)), (6, 6))),
            np.linalg.eigvalsh(
                to_array(explicit_result.h_tilde.get((0, 0), (order,)), (6, 6))
            ),
            atol=1e-8,
        )
    assert max(r.residual for r in problem.solver.records) <= 1e-8


def test_split_degenerate_pair_raises(rng):
    """An implicit state degenerate with an explicit one makes the solve fail."""
    h0 = lattice_problem(20, 0, disorder=0.0)[0]
    energies, vectors = np.linalg.eigh(h0.toarray())
    assert np.isclose(energies[1], energies[2])  # states 1 and 2 form a pair
    perturbation = sparse.diags(rng.uniform(-0.5, 0.5, h0.shape[0])).tocsr()
    problem = build_extended_problem(
        h0, {(1,): perturbation}, vectors[:, :2], energies[:2]
    )
    result = block_diagonalize(problem)
    with pytest.raises(FactorizationError, match="relative residual"):
        result.h_tilde.get((0, 0), (2,))
    failed = problem.solver.records[-1]
    assert np.isfinite(failed.residual) and failed.residual > RESIDUAL_RTOL


@pytest.mark.parametrize(
    "operand", ["H_0", "Perturbation at order (1,)", "explicit_vectors", "eigenvalues"]
)
def test_build_rejects_non_finite_inputs(small_toy, operand):
    h0, perturbations, psi, energies = small_toy
    corrupted = {
        "H_0": h0,
        "Perturbation at order (1,)": perturbations[(1,)],
        "explicit_vectors": psi,
        "eigenvalues": energies,
    }[operand]
    corrupted.flat[0] = np.nan
    with pytest.raises(ValueError, match=re.escape(f"{operand} has non-finite")):
        build_extended_problem(h0, perturbations, psi, energies)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda h0, terms, psi, e: (h0[:, :5], terms, psi, e), "H_0 has shape (6, 5)"),
        (lambda h0, terms, psi, e: (h0[:5, :5], terms, psi, e), "H_0 has shape (5, 5)"),
        (
            lambda h0, terms, psi, e: (h0, {(1,): terms[(1,)][:5, :5]}, psi, e),
            "order (1,) is not 6 x 6",
        ),
        (lambda h0, terms, psi, e: (h0, terms, psi[:, 0], e), "matrix of columns"),
        (
            lambda h0, terms, psi, e: (h0, terms, psi[:, :0], e[:0]),
            "explicit subspace is empty",
        ),
        (lambda h0, terms, psi, e: (h0, terms, psi, e[:1]), "One eigenvalue per"),
    ],
    ids=[
        "h0-not-square",
        "h0-size",
        "term-shape",
        "vectors-1d",
        "no-vectors",
        "eigenvalues",
    ],
)
def test_build_rejects_malformed_inputs(small_toy, mutate, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build_extended_problem(*mutate(*small_toy))


def test_build_rejects_full_basis(small_toy):
    h0, perturbations, _, _ = small_toy
    with pytest.raises(ValueError, match="implicit subspace is empty"):
        build_extended_problem(
            h0, perturbations, np.eye(6, dtype=complex), np.arange(6.0)
        )


def test_build_rejects_non_orthonormal(small_toy):
    h0, perturbations, psi, energies = small_toy
    bad = psi.copy()
    bad[:, 0] *= 2.0
    with pytest.raises(ValueError, match="orthonormal"):
        build_extended_problem(h0, perturbations, bad, energies)


def test_build_rejects_non_eigenvectors(small_toy):
    h0, perturbations, psi, energies = small_toy
    rotation = np.linalg.qr(np.random.default_rng(1).normal(size=(6, 6)))[0]
    with pytest.raises(ValueError, match="eigenvectors"):
        build_extended_problem(h0, perturbations, rotation[:, :2], energies)


def test_implicit_matches_explicit_small(small_toy):
    """Implicit and explicit computations agree on a dense toy problem."""
    h0, perturbations, psi, energies = small_toy
    implicit_problem = build_extended_problem(h0, perturbations, psi, energies)
    implicit_result = block_diagonalize(implicit_problem)
    explicit_problem = PerturbationProblem.from_diagonal(
        np.diag(h0), perturbations, [0, 0, 1, 1, 1, 1]
    )
    explicit_result = block_diagonalize(explicit_problem)
    for order in range(4):
        np.testing.assert_allclose(
            to_array(implicit_result.h_tilde.get((0, 0), (order,)), (2, 2)),
            to_array(explicit_result.h_tilde.get((0, 0), (order,)), (2, 2)),
            atol=1e-8,
        )


def test_implicit_sparse_multivariate(rng):
    """Sparse 400-dimensional problem matches the dense computation."""
    n, n_explicit = 400, 4
    h0 = random_sparse_hermitian(rng, n)
    perturbations = {
        (1, 0): 0.5 * random_sparse_hermitian(rng, n, gap_slope=0.0),
        (0, 1): 0.3 * random_sparse_hermitian(rng, n, gap_slope=0.0),
    }
    energies, vectors = sla.eigsh(h0, k=n_explicit, which="SA")
    problem = build_extended_problem(h0, perturbations, vectors, energies)
    assert problem.solver.factorization_count == n_explicit
    result = block_diagonalize(problem)

    dense_h0 = h0.toarray()
    all_energies, all_vectors = np.linalg.eigh(dense_h0)
    complement = np.linalg.qr(
        (np.eye(n) - vectors @ vectors.conj().T) @ all_vectors[:, n_explicit:]
    )[0]
    explicit_problem = PerturbationProblem.from_eigenvectors(
        dense_h0,
        {k: v.toarray() for k, v in perturbations.items()},
        [vectors, complement],
    )
    explicit_result = block_diagonalize(explicit_problem)
    for order in orders_up_to((2, 2)):
        np.testing.assert_allclose(
            to_array(
                result.h_tilde.get((0, 0), order), (n_explicit, n_explicit)
            ),
            to_array(
                explicit_result.h_tilde.get((0, 0), order),
                (n_explicit, n_explicit),
            ),
            atol=1e-8,
        )
    _assert_no_dense_leak(result, n)
    # Deflation soundness: generator rows stay in the implicit subspace.
    for order in [(1, 0), (0, 1), (1, 1)]:
        v_block = result.context["V"].get((0, 1), order)
        if not isinstance(v_block, np.ndarray):
            continue
        assert np.max(np.abs(v_block @ vectors)) <= 1e-10


def _assert_no_dense_leak(result, n):
    for name, series in result.context.items():
        for key, value in series._data.items():
            assert not (
                isinstance(value, np.ndarray) and value.shape == (n, n)
            ), f"{name}{key} materialized a dense {n}x{n} array"


def test_implicit_rejects_masks(rng, small_toy):
    h0, perturbations, psi, energies = small_toy
    problem = build_extended_problem(h0, perturbations, psi, energies)
    # No mask entry points exist for implicit problems; the rule has none.
    assert problem.rule.masks == {}
    assert problem.implicit
    assert problem.tolerance is None


def test_implicit_problem_needs_its_solver(small_toy):
    """An implicit problem has no eigenvalues to build a default solver
    from, and its own solver refuses any block but (0, 1)."""
    problem = build_extended_problem(*small_toy)
    with pytest.raises(ValueError, match=r"^Problem carries no eigenvalues and no solver\.$"):
        block_diagonalize(dataclasses.replace(problem, solver=None))
    message = re.escape("Implicit Sylvester solves only apply to block (0, 1), got (1, 0).")
    with pytest.raises(ValueError, match=message):
        problem.solver(np.zeros((4, 2)), (1, 0), (1,))


def test_non_finite_right_hand_side_is_rejected(small_toy):
    """A NaN in a Sylvester right-hand side reaches the shifted solve,
    whose residual is then NaN: the solve raises `FactorizationError`, and
    ``V`` stores no entry for it."""
    h0, perturbations, psi, energies = small_toy
    problem = build_extended_problem(h0, perturbations, psi, energies)
    solver = problem.solver

    def poisoned(rhs, block, order):
        rhs = rhs.copy()
        rhs[1, 3] = np.nan
        return solver(rhs, block, order)

    result = block_diagonalize(problem, poisoned)
    with pytest.raises(FactorizationError, match="relative residual nan"):
        result.h_tilde.get((0, 0), (2,))
    assert (0, 1, 1) not in result.context["V"].stored_keys()
    assert solver.records[-1].shift == 1
