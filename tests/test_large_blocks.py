"""Large-block entries stored as ``Q C Qᴴ`` on one shared basis."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from blockpert import operators
from blockpert.cli import main
from blockpert.diagonalization import (
    PerturbationProblem,
    block_diagonalize,
    transform_observable,
)
from blockpert.documents import (
    decode_matrix,
    load_problem,
    problem_document,
    write_document,
)
from blockpert.implicit import build_extended_problem, projected_operator
from blockpert.operators import (
    DROP_RTOL,
    FactoredOperator,
    LargeBlockBasis,
    MatrixFreeOperator,
    Reference,
    add,
    adjoint,
    matmul,
    one,
    scale,
    to_array,
    zero,
)
from blockpert.oracles import closed_form_h_tilde
from blockpert.problems import lattice_problem, random_multiblock, random_two_block
from blockpert.verify import run_verification
from blockpert.series import BlockSeries, NonFiniteError, orders_up_to

from conftest import dense_block_diagonalize, random_hermitian


def thin(rng, rows, columns):
    return rng.normal(size=(rows, columns)) + 1j * rng.normal(size=(rows, columns))


def test_factored_arithmetic_matches_dense(rng):
    n = 30
    basis = LargeBlockBasis(n)
    a, b, c, d = thin(rng, n, 3), thin(rng, 3, n), thin(rng, n, 2), thin(rng, 2, n)
    first = matmul(a, b, lazy=basis)
    second = matmul(c, d, lazy=basis)
    assert type(first) is FactoredOperator and type(second) is FactoredOperator
    assert basis.width == 10 and basis.dropped == 0
    q = basis.buffer
    np.testing.assert_allclose(q.conj().T @ q, np.eye(10), atol=1e-14)
    dense_first, dense_second = a @ b, c @ d
    cases = {
        "product": (first, dense_first),
        "sum": (add(first, second), dense_first + dense_second),
        "scale": (scale(first, -0.5j), -0.5j * dense_first),
        "adjoint": (adjoint(first), dense_first.conj().T),
        "factored product": (matmul(first, second), dense_first @ dense_second),
    }
    for name, (value, expected) in cases.items():
        assert type(value) is FactoredOperator, name
        np.testing.assert_allclose(to_array(value), expected, atol=1e-12, err_msg=name)
    x, y = thin(rng, n, 4), thin(rng, 4, n)
    column, row = matmul(second, x), matmul(y, second)
    np.testing.assert_allclose(to_array(column), dense_second @ x, atol=1e-12)
    np.testing.assert_allclose(to_array(row), y @ dense_second, atol=1e-12)
    np.testing.assert_allclose(second @ x, dense_second @ x, atol=1e-12)
    np.testing.assert_allclose(second.H @ x, dense_second.conj().T @ x, atol=1e-12)
    assert basis.width == 10  # applying an entry does not extend the basis
    assert matmul(first, zero) is zero and add(first, zero) is first

    # An entry beside the block keeps the block's side on Q: Q_r C (n x 4)
    # and C Q_cᴴ (4 x n). Their products with entries, with each other and
    # with small blocks, sums, multiples and adjoints are those of cores.
    dense_column, dense_row = dense_second @ x, y @ dense_second
    small = thin(rng, 4, 4)
    on_rows, on_columns, on_both = (True, False), (False, True), (True, True)
    one_sided = {
        "column": (column, dense_column, on_rows),
        "row": (row, dense_row, on_columns),
        "entry times column": (
            matmul(first, column),
            dense_first @ dense_column,
            on_rows,
        ),
        "row times entry": (matmul(row, first), dense_row @ dense_first, on_columns),
        "column times small": (matmul(column, small), dense_column @ small, on_rows),
        "small times row": (matmul(small, row), small @ dense_row, on_columns),
        "sum of columns": (
            add(column, matmul(first, x)),
            dense_column + dense_first @ x,
            on_rows,
        ),
        "sum of rows": (
            add(matmul(y, first), row),
            y @ dense_first + dense_row,
            on_columns,
        ),
        "multiple": (scale(row, -0.5j), -0.5j * dense_row, on_columns),
        "negative": (scale(column, -1), -dense_column, on_rows),
        "adjoint of a column": (adjoint(column), dense_column.conj().T, on_columns),
        "adjoint of a row": (adjoint(row), dense_row.conj().T, on_rows),
        "column times row": (matmul(column, row), dense_column @ dense_row, on_both),
    }
    for name, (value, expected, sides) in one_sided.items():
        assert type(value) is FactoredOperator and value.sides == sides, name
        assert value.shape == expected.shape, name
        np.testing.assert_allclose(to_array(value), expected, atol=1e-12, err_msg=name)
        probe = thin(rng, value.shape[1], 2)  # scipy's action, as in a lazy sum
        np.testing.assert_allclose(
            value @ probe, expected @ probe, atol=1e-12, err_msg=name
        )
    assert basis.width == 10
    # A product that leaves no side on Q, and a sum with an array, are arrays.
    z = thin(rng, n, 2)
    arrays = {
        "row times column": (matmul(row, column), dense_row @ dense_column),
        "row times thin": (matmul(row, z), dense_row @ z),
        "thin times column": (matmul(z.T, column), z.T @ dense_column),
        "sum with an array": (add(row, y), dense_row + y),
        "sum with an array on the left": (add(x, column), x + dense_column),
    }
    for name, (value, expected) in arrays.items():
        assert type(value) is np.ndarray, name
        np.testing.assert_allclose(value, expected, atol=1e-12, err_msg=name)
    assert basis.width == 10
    # On the block, a thin factor beside an entry's free side extends Q by
    # its own directions only; the entry's side is on Q already.
    wide, tall = thin(rng, n, 3), thin(rng, 4, n)
    entry = matmul(wide, matmul(small[:3], row), lazy=basis)
    assert type(entry) is FactoredOperator and entry.sides == (True, True)
    assert (basis.width, basis.dropped) == (13, 0)
    expected = wide @ small[:3] @ dense_row
    np.testing.assert_allclose(to_array(entry), expected, atol=1e-12)
    entry = matmul(column, tall, lazy=basis)
    assert type(entry) is FactoredOperator and entry.sides == (True, True)
    assert (basis.width, basis.dropped) == (17, 0)
    np.testing.assert_allclose(to_array(entry), dense_column @ tall, atol=1e-12)


def test_negated_entry_shares_its_core(rng):
    """``scale(F, -1)`` is ``F`` with the opposite sign: it shares ``F``'s
    core and allocates nothing of its size, and every operation on it
    equals, bit for bit, the same operation on an entry of the negated
    core."""
    n = 100
    basis = LargeBlockBasis(n)
    columns, rows = read_only(thin(rng, n, 30)), read_only(thin(rng, 30, n))
    entry = matmul(columns, rows, lazy=basis)
    other = matmul(thin(rng, n, 3), thin(rng, 3, n), lazy=basis)
    tracemalloc.start()
    try:
        negated = scale(entry, -1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert negated.core is entry.core and (entry.sign, negated.sign) == (1, -1)
    assert peak < entry.core.nbytes / 8
    assert scale(negated, -1).sign == 1
    x, y, small = thin(rng, n, 4), thin(rng, 4, n), thin(rng, 4, 4)
    signed = (negated, scale(other, -1))
    copies = (FactoredOperator(basis, -entry.core), FactoredOperator(basis, -other.core))
    cases = {
        "toarray": lambda f, g: to_array(f),
        "columns": lambda f, g: to_array(matmul(f, x)),
        "held columns": lambda f, g: to_array(matmul(f, columns)),
        "rows": lambda f, g: to_array(matmul(y, f)),
        "held rows": lambda f, g: to_array(matmul(rows, f)),
        "row times entry": lambda f, g: to_array(matmul(matmul(y, f), g)),
        "entry times column": lambda f, g: to_array(matmul(g, matmul(f, x))),
        "small times row": lambda f, g: to_array(matmul(small, matmul(y, f))),
        "row times column": lambda f, g: matmul(matmul(y, f), matmul(g, x)),
        "sum of rows": lambda f, g: add(matmul(y, f), matmul(y, g)).core,
        "adjoint of a row": lambda f, g: to_array(adjoint(matmul(y, f))),
        "adjoint": lambda f, g: to_array(adjoint(f)),
        "adjoint on columns": lambda f, g: adjoint(f) @ x,
        "product": lambda f, g: to_array(matmul(f, other)),
        "product on the right": lambda f, g: to_array(matmul(other, f)),
        "square": lambda f, g: to_array(matmul(f, f)),
        "sum": lambda f, g: add(f, other).core,
        "sum on the right": lambda f, g: add(other, f).core,
        "sum of two negatives": lambda f, g: add(f, g).core,
        "multiple": lambda f, g: scale(f, 0.5j).core,
    }
    for name, operation in cases.items():
        value, expected = operation(*signed), operation(*copies)
        assert value.dtype == expected.dtype and value.shape == expected.shape, name
        assert value.tobytes() == expected.tobytes(), name
    assert (adjoint(negated).sign, matmul(negated, other).sign) == (-1, -1)
    assert matmul(negated, negated).sign == 1
    # A one-sided entry negates as an entry of the block does.
    row = matmul(y, entry)
    negated_row = scale(row, -1)
    assert negated_row.core is row.core
    assert negated_row.sides == row.sides == (False, True)
    assert (row.sign, negated_row.sign, matmul(y, negated).sign) == (1, -1, -1)
    assert adjoint(negated_row).sign == -1 and scale(negated_row, -1).sign == 1


def test_operands_in_the_span_are_dropped(rng):
    n = 20
    basis = LargeBlockBasis(n)
    a, b = thin(rng, n, 3), thin(rng, 3, n)
    matmul(a, b, lazy=basis)
    # Combinations of known directions add no column.
    columns, rows = a @ thin(rng, 3, 2), thin(rng, 2, 3) @ b
    entry = matmul(columns, rows, lazy=basis)
    assert basis.width == 6 and basis.dropped == 4
    np.testing.assert_allclose(to_array(entry), columns @ rows, atol=1e-12)
    # A read-only operand extends the basis once and keeps its coordinates,
    # completed as the basis grows.
    frozen = thin(rng, n, 2)
    frozen.flags.writeable = False
    before = basis.extend(frozen)
    assert basis.width == 8
    matmul(thin(rng, n, 1), thin(rng, 1, n), lazy=basis)
    width, dropped = basis.width, basis.dropped
    after = basis.extend(frozen)
    assert (basis.width, basis.dropped) == (width, dropped) == (10, 4)
    assert after.shape == (basis.width, 2)
    np.testing.assert_array_equal(after[: len(before)], before)
    np.testing.assert_allclose(after, basis.buffer.conj().T @ frozen, atol=1e-12)


def read_only(array):
    array.flags.writeable = False
    return array


@pytest.mark.parametrize("weight, added", [(1e-12, 5), (1e-15, 4)])
def test_extension_keeps_weak_directions_orthonormal(rng, weight, added):
    """An operand of 6 columns mixes 4 strong new directions, a fifth of
    ``weight`` times its norm and a part in the span: the weak direction is
    kept at 1e-12 and dropped at 1e-15, and ``Q`` stays orthonormal."""
    n = 200
    basis = LargeBlockBasis(n)
    basis.extend(thin(rng, n, 30))
    q = basis.buffer.copy()
    fresh = thin(rng, n, 5)
    fresh -= q @ (q.conj().T @ fresh)
    fresh = np.linalg.qr(fresh)[0]
    mixing = np.linalg.qr(thin(rng, 6, 6))[0]
    x = q @ thin(rng, 30, 6) + fresh[:, :4] @ mixing[:4]
    x += weight * np.linalg.norm(x) * np.outer(fresh[:, 4], mixing[4])
    coordinates = basis.extend(x)
    assert (basis.width, basis.dropped) == (30 + added, 6 - added)
    q = basis.buffer
    assert np.max(np.abs(q.conj().T @ q - np.eye(basis.width))) <= 1e-13
    assert np.linalg.norm(q @ coordinates - x) <= 1e-12 * np.linalg.norm(x)
    rows = thin(rng, 3, n)
    coordinates = basis.extend(rows, rows=True)
    q = basis.buffer
    assert np.max(np.abs(q.conj().T @ q - np.eye(basis.width))) <= 1e-13
    assert np.linalg.norm(coordinates @ q.conj().T - rows) <= 1e-12 * np.linalg.norm(rows)


@st.composite
def extensions(draw):
    """A dimension, whether the operands are complex and extend ``Q`` as
    rows, the columns held before, the weights of the new directions
    relative to the held part, the operand's columns and a seed."""
    weights = draw(st.lists(st.sampled_from([1.0, 1e-2, 1e-12, 1e-15]), max_size=4))
    return (
        draw(st.integers(20, 60)),
        draw(st.booleans()),
        draw(st.booleans()),
        draw(st.integers(1, 8)),
        weights,
        len(weights) + draw(st.integers(0 if weights else 1, 3)),
        draw(st.integers(0, 2**16)),
    )


@settings(max_examples=40, deadline=None)
@given(extensions())
def test_extension_keeps_q_orthonormal_and_rebuilds_operands(case):
    """An operand is a held part of norm 1 plus new orthonormal directions
    at the drawn weights, each mixed into every column. ``Q`` stays
    orthonormal, the coordinates rebuild the operand, and exactly the
    directions below `DROP_RTOL` of its norm are dropped. A combination of
    held operands then takes one projection pass, drops every column and
    gets accurate coordinates."""
    n, is_complex, rows, held, weights, m, seed = case
    rng = np.random.default_rng(seed)

    def draw(r, c):
        return thin(rng, r, c) if is_complex else rng.normal(size=(r, c))

    def rebuilt(coordinates):
        q = basis.buffer
        return (coordinates @ q.conj().T).conj().T if rows else q @ coordinates

    basis = LargeBlockBasis(n)
    first = draw(n, held)
    basis.extend(first)
    q = basis.buffer.copy()
    fresh = draw(n, len(weights))
    fresh = np.linalg.qr(fresh - q @ (q.conj().T @ fresh))[0]
    x = q @ draw(held, m)
    x /= np.linalg.norm(x)
    x += (fresh * weights) @ np.linalg.qr(draw(m, m))[0][: len(weights)]
    kept = sum(weight > DROP_RTOL * np.linalg.norm(x) for weight in weights)
    coordinates = basis.extend(x.conj().T if rows else x, rows=rows)
    assert (basis.width, basis.dropped) == (held + kept, m - kept)
    q = basis.buffer
    assert np.max(np.abs(q.conj().T @ q - np.eye(basis.width))) <= 1e-13
    assert np.linalg.norm(rebuilt(coordinates) - x) <= 1e-12 * np.linalg.norm(x)

    combination = first @ draw(held, 2) + x @ draw(m, 2)
    passes = []
    overlap = operators._overlap
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            operators, "_overlap", lambda q, y: passes.append(y) or overlap(q, y)
        )
        coordinates = basis.extend(
            combination.conj().T if rows else combination, rows=rows
        )
    assert (basis.width, basis.dropped) == (held + kept, m - kept + 2)
    assert len(passes) == (0 if rows else 1)  # `_project`'s, on columns
    error = np.linalg.norm(rebuilt(coordinates) - combination)
    assert error <= 1e-12 * np.linalg.norm(combination)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_operand_is_rejected(rng, bad):
    basis = LargeBlockBasis(20)
    basis.extend(thin(rng, 20, 2))
    x = thin(rng, 20, 2)
    x[7, 1] = bad
    with pytest.raises(ValueError, match="not finite"):
        basis.extend(x)
    with pytest.raises(ValueError, match="not finite"):
        basis.extend(x.T.copy(), rows=True)
    assert (basis.width, basis.dropped) == (2, 0)


def test_overflowing_problem_fails_loudly():
    """Perturbations at 1e100 overflow by order 5; the factored block
    raises instead of storing NaN coordinates."""
    energies, perturbations, labels = random_two_block(4, 40, 0)
    perturbations = {order: 1e100 * term for order, term in perturbations.items()}
    result = block_diagonalize(
        PerturbationProblem.from_diagonal(energies, perturbations, labels)
    )
    assert set(result.context["W"].large_blocks) == {1}
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="not finite"):
        for order in range(1, 8):
            result.h_tilde.get((0, 0), (order,))


@pytest.mark.parametrize(
    "diagonalize",
    [block_diagonalize, dense_block_diagonalize],
    ids=["factored", "dense"],
)
def test_overflow_raises_at_its_order(diagonalize, tmp_path):
    """Perturbations at 1e100 overflow at order 4, with the big block
    factored or dense alike: the error names the queried entry, stores
    nothing of order 4, and the CLI exits 3 on it."""
    energies, perturbations, labels = random_two_block(4, 40, 0)
    perturbations = {order: 1e100 * term for order, term in perturbations.items()}
    problem = PerturbationProblem.from_diagonal(energies, perturbations, labels)
    result = diagonalize(problem)
    for order in range(4):
        assert np.isfinite(result.h_tilde.get((0, 0), (order,))).all()
    with pytest.raises(NonFiniteError, match=r"^H_tilde\(0, 0, 4\) is not finite: "):
        result.h_tilde.get((0, 0), (4,))
    assert (0, 0, 4) not in result.h_tilde.stored_keys()
    assert issubclass(NonFiniteError, ValueError)
    path = tmp_path / "problem.json"
    document = problem_document(
        np.diag(energies), perturbations, subspace_indices=labels
    )
    write_document(document, path)
    assert main(["diagonalize", "--input", str(path), "--max-order", "4"]) == 3


def test_nan_from_a_solver_is_caught_at_the_output():
    """A quiet NaN propagates without a floating-point error, so numpy's
    error state misses a custom solver's NaN; H̃ rejects the entry that
    holds it."""
    problem = PerturbationProblem.from_diagonal(*random_two_block(2, 3, 0))
    result = block_diagonalize(problem, lambda rhs, block, order: rhs * np.nan)
    message = r"^H_tilde\(0, 0, 2\) is not finite: it holds"
    with pytest.raises(NonFiniteError, match=message):
        result.h_tilde.get((0, 0), (2,))


@pytest.fixture
def spy_projections(monkeypatch):
    calls = []
    project = operators._project

    def spy(q, x, rows):
        calls.append(x)
        return project(q, x, rows)

    monkeypatch.setattr(operators, "_project", spy)
    return calls


def test_exact_aliases_take_no_projection(rng, spy_projections):
    """``±y`` and ``±yᴴ`` references to a held operand take its
    coordinates, negated or from the other side; a bitwise copy of one is
    projected, and a reference to an unheld operand projects its source."""
    n = 40
    basis = LargeBlockBasis(n)
    columns, rows = read_only(thin(rng, n, 3)), read_only(thin(rng, 3, n))
    matmul(columns, rows, lazy=basis)
    basis.extend(columns)  # completes its coordinates on the columns of rows
    width, dropped = basis.width, basis.dropped
    q_h = basis.buffer.conj().T
    spy_projections.clear()
    cases = {
        "-columns": (Reference(-1, False, columns), False, q_h @ -columns),
        "columnsᴴ": (Reference(1, True, columns), True, (q_h @ columns).conj().T),
        "-columnsᴴ": (Reference(-1, True, columns), True, -(q_h @ columns).conj().T),
        "-rows": (Reference(-1, False, rows), True, -rows @ q_h.conj().T),
        "rowsᴴ": (Reference(1, True, rows), False, q_h @ rows.conj().T),
    }
    for name, (operand, as_rows, expected) in cases.items():
        np.testing.assert_allclose(
            basis.extend(operand, rows=as_rows), expected, atol=1e-12, err_msg=name
        )
    assert spy_projections == []
    assert (basis.width, basis.dropped) == (width, dropped)
    copy = read_only(-columns)
    basis.extend(copy)
    assert len(spy_projections) == 1 and spy_projections[0] is copy
    assert (basis.width, basis.dropped) == (width, dropped + 3)
    fresh = read_only(thin(rng, n, 2))
    coordinates = basis.extend(Reference(-1, True, fresh), rows=True)
    assert len(spy_projections) == 2 and spy_projections[1] is fresh
    assert basis.width == width + 2
    expected = -(basis.buffer.conj().T @ fresh).conj().T
    np.testing.assert_allclose(coordinates, expected, atol=1e-12)
    np.testing.assert_array_equal(basis.held(fresh), -coordinates.conj().T)


def test_held_operands_are_applied_from_their_coordinates(rng):
    """``matmul(x, F)`` and ``matmul(F, x)`` on operands the basis holds,
    directly or through references, equal the plain products, extend
    nothing and record no other operand."""
    n = 40
    basis = LargeBlockBasis(n)
    columns, rows = read_only(thin(rng, n, 3)), read_only(thin(rng, 3, n))
    entry = matmul(columns, rows, lazy=basis)
    # The basis grows after the entry, so held coordinates are completed.
    matmul(thin(rng, n, 2), thin(rng, 2, n), lazy=basis)
    dense = to_array(entry)
    width, known = basis.width, len(basis._known)
    for operand in (rows, Reference(-1, False, rows), Reference(1, True, columns)):
        expected = to_array(operand) @ dense
        value = to_array(matmul(operand, entry))
        np.testing.assert_allclose(value, expected, atol=1e-12)
        assert basis.held(operand, rows=True) is not None
    for operand in (columns, Reference(-1, False, columns), Reference(1, True, rows)):
        expected = dense @ to_array(operand)
        value = to_array(matmul(entry, operand))
        np.testing.assert_allclose(value, expected, atol=1e-12)
        assert basis.held(operand) is not None
    stranger = read_only(thin(rng, 3, n))
    as_columns, as_rows = Reference(-1, True, stranger), Reference(1, False, stranger)
    np.testing.assert_allclose(
        to_array(matmul(entry, as_columns)), dense @ to_array(as_columns), atol=1e-12
    )
    np.testing.assert_allclose(
        to_array(matmul(as_rows, entry)), to_array(as_rows) @ dense, atol=1e-12
    )
    assert basis.held(as_columns) is None and basis.held(as_rows, rows=True) is None
    assert (basis.width, len(basis._known)) == (width, known)


def lattice_pair(width, n_explicit, seed):
    """Implicit and explicit results of one lattice, with a second-order
    term added to its perturbation, and the complement basis."""
    h0, perturbations = lattice_problem(width, seed)
    onsite = np.random.default_rng(seed).uniform(-0.3, 0.3, h0.shape[0])
    perturbations[(2,)] = sparse.diags(onsite).tocsr().astype(np.complex128)
    energies, vectors = np.linalg.eigh(h0.toarray())
    implicit = block_diagonalize(
        build_extended_problem(
            h0, perturbations, vectors[:, :n_explicit], energies[:n_explicit]
        )
    )
    explicit = dense_block_diagonalize(
        PerturbationProblem.from_eigenvectors(
            h0.toarray(),
            {order: term.toarray() for order, term in perturbations.items()},
            [vectors[:, :n_explicit], vectors[:, n_explicit:]],
        )
    )
    return implicit, explicit, vectors[:, n_explicit:]


def test_implicit_matches_explicit_to_order_10():
    """Orders 1-10 of H̃[0, 0] agree within 1e-10 of each order's largest entry."""
    implicit, explicit, _ = lattice_pair(14, 4, seed=2)
    for order in range(1, 11):
        reference = to_array(explicit.h_tilde.get((0, 0), (order,)), (4, 4))
        value = to_array(implicit.h_tilde.get((0, 0), (order,)), (4, 4))
        scale_ = np.max(np.abs(reference))
        assert np.max(np.abs(value - reference)) <= 1e-10 * scale_, order


def test_implicit_complement_block_matches_explicit():
    """H̃[1, 1] of the implicit run matches the explicit block on the
    complement basis. At order 2 the projected perturbation, a matrix-free
    input, meets a factored entry in a sum."""
    implicit, explicit, complement = lattice_pair(14, 4, seed=2)
    size = complement.shape[1]
    for order in range(5):
        operator = implicit.h_tilde.get((1, 1), (order,))
        if order == 2:
            kinds = {type(term) for term in operator.args}
            assert kinds == {MatrixFreeOperator, FactoredOperator}
        value = complement.conj().T @ (operator @ complement)
        reference = to_array(explicit.h_tilde.get((1, 1), (order,)), (size, size))
        scale_ = max(1.0, np.max(np.abs(reference)))
        assert np.max(np.abs(value - reference)) <= 1e-10 * scale_, order


def observable_series(blocks):
    """An order-0 observable with the given blocks."""
    return BlockSeries(
        eval=lambda i, j, *n: zero if any(n) else blocks[i, j],
        shape=(2, 2),
        n_params=1,
        name="O",
    )


def test_transformed_observable_matches_explicit(rng):
    """``U†OU`` of an implicit run matches the explicit one: ``(0, 0)`` at
    orders 0-3, and ``(1, 1)`` at orders 0-2 on the complement basis. The
    matrix-free observable block meets factored entries in lazy products,
    and thin blocks in its action."""
    implicit, explicit, complement = lattice_pair(10, 4, seed=1)
    psi = implicit.problem.solver.psi
    observable = random_hermitian(rng, psi.shape[0])
    outside = observable @ psi - psi @ (psi.conj().T @ observable @ psi)
    implicit_blocks = {
        (0, 0): psi.conj().T @ observable @ psi,
        (0, 1): outside.conj().T,
        (1, 0): outside,
        (1, 1): projected_operator(observable, psi),
    }
    explicit_blocks = {
        (i, j): left.conj().T @ observable @ right
        for i, left in enumerate((psi, complement))
        for j, right in enumerate((psi, complement))
    }
    value = transform_observable(implicit, observable_series(implicit_blocks))
    reference = transform_observable(explicit, observable_series(explicit_blocks))
    for block, orders, size in (((0, 0), 4, 4), ((1, 1), 3, complement.shape[1])):
        for order in range(orders):
            expected = to_array(reference.get(block, (order,)), (size, size))
            got = value.get(block, (order,))
            if block == (1, 1):
                got = complement.conj().T @ (got @ complement)
            deviation = np.max(np.abs(to_array(got) - expected))
            assert deviation <= 1e-12 * max(1.0, np.max(np.abs(expected))), order


@pytest.fixture(scope="module")
def lattice_to_order_10():
    h0, perturbations = lattice_problem(20, 1)
    energies, vectors = np.linalg.eigh(h0.toarray())
    n_explicit = 6
    problem = build_extended_problem(
        h0, perturbations, vectors[:, :n_explicit], energies[:n_explicit]
    )
    result = block_diagonalize(problem)
    for order in range(1, 11):
        result.h_tilde.get((0, 0), (order,))
    return result, n_explicit


def complement_entries(result):
    """The stored non-zero (1, 1) entries of the computed series."""
    return {
        (name, key): value
        for name in ("W", "G", "U'†B", "B", "U'", "U'†")
        for key, value in result.context[name]._data.items()
        if key[:2] == (1, 1) and value is not zero
    }


def test_large_block_entries_are_factored(lattice_to_order_10):
    result, n_explicit = lattice_to_order_10
    basis = result.h_tilde.large_blocks[1]
    entries = complement_entries(result)
    assert len(entries) > 30
    for label, value in entries.items():
        assert type(value) is FactoredOperator and value.basis is basis, label
    # Every thin factor of an entry brings at most n_explicit directions.
    factors = [
        value
        for name, block in (("U'†", (1, 0)), ("U'", (0, 1)), ("H'_R", (1, 0)), ("B", (0, 1)))
        for key, value in result.context[name]._data.items()
        if key[:2] == block and value is not zero
    ]
    assert 0 < basis.width <= n_explicit * len(factors)
    q = basis.buffer
    np.testing.assert_allclose(q.conj().T @ q, np.eye(basis.width), atol=1e-13)
    # The missing eigenvalues alone make block 1 large, also in a problem
    # built by hand, and no field can say otherwise.
    problem = result.problem
    with pytest.raises(TypeError):
        dataclasses.replace(problem, large_blocks=frozenset())
    by_hand = block_diagonalize(
        PerturbationProblem(
            eigenvalues=(problem.eigenvalues[0], None),
            rule=problem.rule,
            n_params=problem.n_params,
            blocks=problem.blocks,
            solver=problem.solver,
        )
    )
    by_hand.h_tilde.get((0, 0), (4,))
    entries = complement_entries(by_hand)
    assert entries
    for label, value in entries.items():
        assert type(value) is FactoredOperator, label


def test_adjoint_copies_only_the_core(lattice_to_order_10):
    """``adjoint`` of an entry allocates its small core, nothing of size N."""
    result, _ = lattice_to_order_10
    entry = result.context["B"].get((1, 1), (9,))
    n = entry.shape[0]
    assert entry.core.shape[0] < n
    tracemalloc.start()
    try:
        partner = adjoint(entry)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= entry.core.nbytes + 4096
    np.testing.assert_array_equal(partner.core, entry.core.conj().T)


@pytest.mark.parametrize("seed", [0, 1])
def test_big_explicit_block_is_factored(seed):
    """A block of 100 beside 10 states is stored like a large block."""
    energies, perturbations, labels = random_two_block(10, 100, seed)
    problem = PerturbationProblem.from_diagonal(energies, perturbations, labels)
    result = block_diagonalize(problem)
    assert set(result.context["W"].large_blocks) == {1}
    h1 = perturbations[(1,)]
    for order in range(1, 5):
        reference = closed_form_h_tilde(h1, energies[:10], energies[10:], order)
        value = to_array(result.h_tilde.get((0, 0), (order,)))
        assert np.max(np.abs(value - reference)) <= 1e-10 * max(
            1.0, np.max(np.abs(reference))
        ), order
    checks = run_verification(problem, 6, result)
    assert all(check.passed for check in checks), [c.line() for c in checks]
    entries = complement_entries(result)
    assert len(entries) > 20
    for label, value in entries.items():
        assert type(value) is FactoredOperator, label


def test_products_beside_the_big_block_stay_on_its_basis(monkeypatch):
    """Blocks of 100 and 1000, H̃[0, 0] to order 6: ``U'†B[0, 1]`` at
    orders 3-5 keeps its columns on the big block's basis, ``C Q_cᴴ``, and
    ``B[0, 1] = -U'†B[0, 1]`` shares its core. So no row of ``B[0, 1]`` is
    projected back onto ``Q``: the basis is extended 4 times, by the rows
    of ``V[0, 1]``, and drops no direction."""
    extensions = []
    extend = LargeBlockBasis._extend
    monkeypatch.setattr(
        LargeBlockBasis,
        "_extend",
        lambda basis, x, rows: extensions.append(x.shape) or extend(basis, x, rows),
    )
    problem = PerturbationProblem.from_diagonal(*random_two_block(100, 1000, 1))
    result = block_diagonalize(problem)
    for order in range(7):
        result.h_tilde.get((0, 0), (order,))
    for order in (3, 4, 5):
        product = result.context["U'†B"].get((0, 1), (order,))
        entry = result.context["B"].get((0, 1), (order,))
        assert type(product) is FactoredOperator and product.sides == (False, True)
        assert product.shape == (100, 1000) and product.core.shape[0] == 100
        assert type(entry) is FactoredOperator and entry.core is product.core
        assert (entry.sign, entry.sides) == (-product.sign, product.sides)
    basis = result.context["W"].large_blocks[1]
    assert len(extensions) == 4
    assert (basis.width, basis.dropped) == (400, 0)


def test_outputs_of_a_factored_block_are_arrays():
    """H̃, U and U† hand out the factored block's entries as ndarrays, also
    where a perturbation term meets a factored entry, and a transformed
    observable's products on that block are dense. Every entry equals the
    dense run's."""
    energies, perturbations, labels = random_two_block(10, 100, 3, orders=((1,), (2,)))
    problem = PerturbationProblem.from_diagonal(energies, perturbations, labels)
    factored = block_diagonalize(problem)
    dense = dense_block_diagonalize(problem)
    assert set(factored.context["W"].large_blocks) == {1}
    assert factored.h_tilde.large_blocks == factored.u.large_blocks == {}
    full = random_hermitian(np.random.default_rng(3), 110)
    parts = (slice(0, 10), slice(10, 110))
    observable = observable_series(
        {(i, j): full[a, b] for i, a in enumerate(parts) for j, b in enumerate(parts)}
    )
    observed = transform_observable(factored, observable)
    reference = transform_observable(dense, observable)
    for name, (value, expected) in {
        "H̃": (factored.h_tilde, dense.h_tilde),
        "U": (factored.u, dense.u),
        "U†": (factored.u_adjoint, dense.u_adjoint),
        "U†OU": (observed, reference),
    }.items():
        for order in range(1, 4):
            entry = value.get((1, 1), (order,))
            reference_entry = expected.get((1, 1), (order,))
            assert type(entry) is type(reference_entry), (name, order)
            if entry is not zero:
                np.testing.assert_allclose(entry, reference_entry, rtol=0, atol=1e-12)
    assert type(factored.h_tilde.get((1, 1), (3,))) is np.ndarray
    assert type(factored.u.get((1, 1), (2,))) is np.ndarray
    assert type(factored.context["W"].get((1, 1), (3,))) is FactoredOperator


def transformed_on_the_factored_block(apply):
    """``U†OU`` of ``random_two_block(5, 50, 0)``, whose block 1 is kept
    factored, for an observable whose only entry is the matrix-free
    operator of ``apply`` on that block at order 0."""
    problem = PerturbationProblem.from_diagonal(*random_two_block(5, 50, 0))
    result = block_diagonalize(problem)
    assert set(result.context["W"].large_blocks) == {1}
    operator = MatrixFreeOperator(50, apply, apply, dtype=float)
    observable = observable_series({(0, 0): zero, (0, 1): zero, (1, 0): zero, (1, 1): operator})
    return transform_observable(result, observable)


def test_operator_observable_on_a_factored_block_is_handed_out_as_an_array():
    """A matrix-free observable entry on a big explicit block comes back as
    the array of its action, like every entry off a large block."""
    matrix = random_hermitian(np.random.default_rng(5), 50).real
    transformed = transformed_on_the_factored_block(lambda x: matrix @ x)
    entry = transformed.get((1, 1), (0,))
    assert type(entry) is np.ndarray
    np.testing.assert_array_equal(entry, matrix)


def test_non_finite_operator_observable_on_a_factored_block_raises():
    """An action that returns inf is caught where the entry is handed out."""
    transformed = transformed_on_the_factored_block(lambda x: np.full(x.shape, np.inf))
    message = r"^U†OU\(1, 1, 0\) is not finite: it holds inf or NaN$"
    with pytest.raises(NonFiniteError, match=message):
        transformed.get((1, 1), (0,))


def only_arrays(result):
    """Whether every stored entry other than ``zero`` and ``one`` is an
    ndarray or a reference to one."""
    return all(
        value is zero
        or value is one
        or type(value) is np.ndarray
        or (type(value) is Reference and type(value.source) is np.ndarray)
        for series in result.context.values()
        for value in series._data.values()
    )


def masked_problem():
    """Criterion 8's problem: one block of 16 states, split by a mask."""
    rng = np.random.default_rng(88)
    n = 16
    energies = np.arange(n) + 0.4 * rng.random(n)
    h1 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    mask = rng.random((n, n)) < 0.3
    mask = mask | mask.T | np.eye(n, dtype=bool)
    return PerturbationProblem.from_diagonal(
        energies, {(1,): (h1 + h1.conj().T) / 4}, [0] * n, masks={0: mask}
    )


def masked_big_block():
    """A block of 40 beside 2 states, with a mask on the big block."""
    energies, perturbations, labels = random_two_block(2, 40, 4)
    mask = np.eye(40, dtype=bool)
    mask[:20, :20] = True
    return PerturbationProblem.from_diagonal(
        energies, perturbations, labels, masks={1: mask}
    )


@pytest.mark.parametrize(
    "problem",
    [
        lambda: PerturbationProblem.from_diagonal(*random_two_block(2, 3, 0)),
        lambda: PerturbationProblem.from_diagonal(*random_two_block(100, 600, 0)),
        masked_problem,
        masked_big_block,
    ],
    ids=["2+3", "100+600", "criterion-8-mask", "masked-big-block"],
)
def test_small_or_masked_blocks_stay_dense(problem):
    problem = problem()
    result = block_diagonalize(problem)
    assert result.context["W"].large_blocks == {}
    top = 4 if problem.dimension < 100 else 3
    for label in range(problem.n_blocks):
        for order in orders_up_to((top,) * problem.n_params):
            result.h_tilde.get((label, label), order)
            result.u.get((label, label), order)
    assert result.counter.matmul_count > 0
    assert only_arrays(result)


def test_multiblock_factors_only_its_big_block():
    """Of blocks 4, 6 and 120, the last holds 12 times the rest: it is
    factored, the run makes the dense run's products, and H̃[0, 0] agrees."""
    energies, perturbations, labels = random_multiblock((4, 6, 120), 3)
    problem = PerturbationProblem.from_diagonal(energies, perturbations, labels)
    factored = block_diagonalize(problem)
    assert set(factored.context["W"].large_blocks) == {2}
    checks = run_verification(problem, 6, factored)
    assert all(check.passed for check in checks), [c.line() for c in checks]
    assert factored.counter.matmul_count == 453
    assert type(factored.context["W"].get((2, 2), (2,))) is FactoredOperator
    dense = dense_block_diagonalize(problem)
    for order in range(1, 7):
        value = factored.h_tilde.get((0, 0), (order,))
        reference = dense.h_tilde.get((0, 0), (order,))
        scale_ = np.max(np.abs(reference))
        assert np.max(np.abs(value - reference)) <= 1e-13 * scale_, order


def test_two_parameter_big_block_is_factored():
    """A block of 100 beside 10 states is factored with two parameters too:
    the run makes the dense run's products, and H̃[0, 0] agrees over the
    order box up to (3, 3)."""
    energies, perturbations, labels = random_two_block(
        10, 100, 0, orders=((1, 0), (0, 1))
    )
    problem = PerturbationProblem.from_diagonal(energies, perturbations, labels)
    factored = block_diagonalize(problem)
    assert set(factored.context["W"].large_blocks) == {1}
    dense = dense_block_diagonalize(problem)
    for order in orders_up_to((3, 3)):
        value = factored.h_tilde.get((0, 0), order)
        reference = dense.h_tilde.get((0, 0), order)
        scale_ = np.max(np.abs(reference))
        assert np.max(np.abs(value - reference)) <= 1e-13 * scale_, order
    assert factored.counter.matmul_count == dense.counter.matmul_count
    assert type(factored.context["W"].get((1, 1), (1, 1))) is FactoredOperator
    checks = run_verification(problem, 4, factored)
    assert all(check.passed for check in checks), [c.line() for c in checks]


def test_cli_writes_the_factored_block_densely(tmp_path):
    """``diagonalize --block 1 1`` on a factored block writes dense,
    Hermitian entries equal to the library's."""
    energies, perturbations, labels = random_two_block(10, 100, 5)
    path = tmp_path / "problem.json"
    write_document(
        problem_document(np.diag(energies), perturbations, subspace_indices=labels),
        path,
    )
    output = tmp_path / "result.json"
    argv = ["diagonalize", "--input", str(path), "--block", "1", "1"]
    argv += ["--max-order", "4", "--output", str(output)]
    assert main(argv) == 0
    entries = json.loads(output.read_text())["entries"]
    result = block_diagonalize(load_problem(str(path))[0])
    assert set(result.context["W"].large_blocks) == {1}
    written = {tuple(entry["order"]): entry for entry in entries}
    for order in range(1, 5):
        body = written[(order,)]["matrix"]
        assert set(body) == {"dense"}
        matrix = decode_matrix(body)
        assert matrix.shape == (100, 100)
        np.testing.assert_allclose(matrix, matrix.conj().T, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(matrix, result.h_tilde.get((1, 1), (order,)))
