"""The value rule: a problem whose inputs hold only real values runs in
float64, whatever their dtype, and one complex input makes it complex128.

One real problem, the two lowest states of a small disordered lattice, is given
to each constructor: in the decoupling basis to `from_diagonal`, as
eigenvector groups to `from_eigenvectors`, as an explicit subspace to
`build_extended_problem`, and through a written document to `load_problem`.
"""

import numpy as np
import pytest
import scipy.sparse as sparse

from blockpert.diagonalization import (
    PerturbationProblem,
    block_diagonalize,
    make_eigenbasis_solver,
)
from blockpert.documents import load_problem, problem_document, write_document
from blockpert.implicit import build_extended_problem
from blockpert.operators import FactoredOperator, Reference, to_array
from blockpert.problems import lattice_problem, transmon_problem
from blockpert.verify import run_verification

N_EXPLICIT = 2
MAX_ORDER = 4


def lattice(dtype, width=4, seed=2):
    """H_0, its perturbations and its eigenbasis, with real values in ``dtype``."""
    h0, perturbations = lattice_problem(width, seed)
    h0, delta = (h0.real.astype(dtype), perturbations[(1,)].real.astype(dtype))
    energies, vectors = np.linalg.eigh(h0.toarray())
    return h0, {(1,): delta}, energies, vectors.astype(dtype)


def constructors(h0, terms, energies, vectors, path):
    """The problem of each constructor, by name; ``path`` takes the document."""
    labels = [0] * N_EXPLICIT + [1] * (len(energies) - N_EXPLICIT)
    explicit = vectors[:, :N_EXPLICIT], energies[:N_EXPLICIT]
    implicit = {"explicit_vectors": explicit[0], "eigenvalues": explicit[1]}
    write_document(problem_document(h0, terms, implicit=implicit), path)
    dense = {order: term.toarray() for order, term in terms.items()}
    rotated = {order: vectors.conj().T @ term @ vectors for order, term in dense.items()}
    groups = [vectors[:, :N_EXPLICIT], vectors[:, N_EXPLICIT:]]
    return {
        "diagonal": PerturbationProblem.from_diagonal(energies, rotated, labels),
        "eigenvectors": PerturbationProblem.from_eigenvectors(h0, dense, groups),
        "implicit": build_extended_problem(h0, terms, *explicit),
        "document": load_problem(path)[0],
    }


def test_real_values_make_a_real_run_whatever_their_dtype(tmp_path):
    """The same real problem, given as float64 and as complex128 to each of
    the four constructors: every run is real, and the eight ``H̃[0, 0]``
    agree within 1e-13 of the largest entry at every order."""
    runs = {}
    for dtype in (np.float64, np.complex128):
        path = tmp_path / f"lattice_{np.dtype(dtype)}.json"
        for name, problem in constructors(*lattice(dtype), path).items():
            assert problem.dtype == np.float64, (name, dtype)
            runs[name, dtype] = block_diagonalize(problem)
    for order in range(MAX_ORDER + 1):
        values = {
            key: to_array(run.h_tilde.get((0, 0), (order,)), (N_EXPLICIT,) * 2)
            for key, run in runs.items()
        }
        assert all(value.dtype == np.float64 for value in values.values()), order
        reference = values["diagonal", np.float64]
        scale = max(1.0, np.max(np.abs(reference)))
        for key, value in values.items():
            assert np.max(np.abs(value - reference)) <= 1e-13 * scale, (key, order)


def test_one_complex_input_makes_the_problem_complex(tmp_path):
    """A complex term among real ones, or eigenvectors with a complex
    phase, make every constructor's problem and its run complex128."""
    h0, terms, energies, vectors = lattice(np.float64)
    noise = sparse.random(len(energies), len(energies), density=0.2, random_state=3)
    terms[(2,)] = 0.1j * (noise - noise.T)
    problems = constructors(h0, terms, energies, vectors, tmp_path / "term.json")
    del terms[(2,)]
    # A phase of the eigenvectors cancels in the terms that `from_diagonal`
    # takes, but not in the inputs of the other constructors.
    phased = vectors * np.exp(0.5j)
    problems.update(
        (f"phased {name}", problem)
        for name, problem in constructors(
            h0, terms, energies, phased, tmp_path / "phase.json"
        ).items()
        if name != "diagonal"
    )
    for name, problem in problems.items():
        assert problem.dtype == np.complex128, name
        value = block_diagonalize(problem).h_tilde.get((0, 0), (2,))
        assert value.dtype == np.complex128, name


def stored_dtypes(result) -> set:
    """The dtypes of every stored entry of a run's series and of its bases."""
    dtypes = {basis.buffer.dtype for basis in result.h_tilde.large_blocks.values()}
    for series in result.context.values():
        for value in series._data.values():
            if type(value) is Reference:
                value = value.source
            if type(value) is FactoredOperator:
                value = value.core
            if hasattr(value, "dtype"):
                dtypes.add(np.dtype(value.dtype))
    return dtypes


def test_real_problems_pass_verification_in_real_arithmetic():
    """The transmon, whose inputs are complex128 arrays of real values, and
    a small implicit lattice run in float64 throughout and pass `verify`."""
    h0, terms, energies, vectors = lattice(np.complex128, width=5, seed=1)
    problems = {
        "transmon": transmon_problem().problem(),
        "lattice": build_extended_problem(
            h0, terms, vectors[:, :N_EXPLICIT], energies[:N_EXPLICIT]
        ),
    }
    for name, problem in problems.items():
        assert problem.dtype == np.float64, name
        result = block_diagonalize(problem)
        checks = run_verification(problem, MAX_ORDER, result)
        assert all(check.passed for check in checks), [c.line() for c in checks]
        assert stored_dtypes(result) == {np.dtype(np.float64)}, name
    assert problems["lattice"].solver.real_factors


def test_complex_solution_of_a_real_problem_is_rejected():
    """A caller's solver may return a real-valued complex array, but one
    with a non-zero imaginary part raises, naming the block and the order,
    instead of losing that part."""
    problem = transmon_problem().problem()
    default = make_eigenbasis_solver(
        problem.eigenvalues, problem.rule, problem.tolerance
    )
    result = block_diagonalize(
        problem, lambda rhs, block, order: default(rhs, block, order).astype(complex)
    )
    assert result.h_tilde.get((0, 0), (2,)).dtype == np.float64
    result = block_diagonalize(
        problem, lambda rhs, block, order: default(rhs, block, order) * (1 + 1e-9j)
    )
    message = r"solution of block \(0, \d\) at order \(1,\) is complex"
    with pytest.raises(ValueError, match=message):
        result.h_tilde.get((0, 0), (2,))
