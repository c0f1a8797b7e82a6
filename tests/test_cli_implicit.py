import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse.linalg as sla

import blockpert
from blockpert.cli import main
from blockpert.diagonalization import block_diagonalize
from blockpert.documents import (
    decode_matrix,
    load_problem,
    problem_document,
    write_document,
)
from blockpert.oracles import exact_spectrum
from blockpert.problems import lattice_problem, random_two_block


@pytest.fixture
def implicit_document(tmp_path):
    h0, perturbations = lattice_problem(9, seed=3)
    energies, vectors = sla.eigsh(h0, k=3, which="SA")
    doc = problem_document(
        h0,
        perturbations,
        param_names=["dmu"],
        implicit={"explicit_vectors": vectors, "eigenvalues": energies},
    )
    path = tmp_path / "implicit.json"
    write_document(doc, path)
    return str(path), h0, perturbations


def test_cli_implicit_diagonalize(tmp_path, implicit_document):
    path, h0, perturbations = implicit_document
    problem, _ = load_problem(path)
    reference = block_diagonalize(problem).h_tilde
    for max_order in (2, 3):
        out = str(tmp_path / f"result{max_order}.json")
        code = main(
            [
                "diagonalize",
                "--input",
                path,
                "--block",
                "0",
                "0",
                "--max-order",
                str(max_order),
                "--output",
                out,
            ]
        )
        assert code == 0
        payload = json.load(open(out))
        orders = {tuple(e["order"]) for e in payload["entries"]}
        assert orders == {(n,) for n in range(max_order + 1)}
        assert payload["metadata"]["matmul_count"] > 0
        # first-order entry equals the projected perturbation
        psi = problem.solver.psi
        expected = psi.conj().T @ perturbations[(1,)] @ psi
        first = next(e for e in payload["entries"] if e["order"] == [1])
        np.testing.assert_allclose(
            decode_matrix(first["matrix"]), expected, atol=1e-12
        )
        last = next(e for e in payload["entries"] if e["order"] == [max_order])
        np.testing.assert_array_equal(
            decode_matrix(last["matrix"]),
            reference.get((0, 0), (max_order,)),
        )


def diagonalize_metadata(tmp_path, path, max_order):
    out = tmp_path / "result.json"
    argv = ["diagonalize", "--input", path, "--max-order", str(max_order)]
    assert main(argv + ["--output", str(out)]) == 0
    return json.loads(out.read_text())["metadata"]


def test_cli_reports_the_basis_and_the_solves(tmp_path, implicit_document):
    """``diagonalize`` writes the factored block's basis ``width`` and
    ``dropped`` directions, and on an implicit problem the total fill of
    its factorizations and the largest residual and refinement steps of
    its solves: those of the same run in the library."""
    path = implicit_document[0]
    metadata = diagonalize_metadata(tmp_path, path, 4)
    problem = load_problem(path)[0]
    result = block_diagonalize(problem)
    for order in range(5):
        result.h_tilde.get((0, 0), (order,))
    basis = result.h_tilde.large_blocks[1]
    assert basis.width > 0
    assert metadata["factored_blocks"] == {
        "1": {"width": basis.width, "dropped": basis.dropped}
    }
    solver, records = problem.solver, problem.solver.records
    assert len(records) >= 4
    assert metadata["implicit"] == {
        "factor_nnz": sum(solver.factor_nnz),
        "factor_bytes": sum(solver.factor_bytes),
        "max_residual": max(record.residual for record in records),
        "max_steps": max(record.steps for record in records),
    }
    assert 0 < metadata["implicit"]["max_residual"] < 1e-9


def test_cli_reports_the_basis_of_a_big_explicit_block(tmp_path):
    """A block of 100 beside 10 states is factored: its basis is reported,
    and an explicit problem has no solver report. A small problem reports
    no factored block."""
    for sizes, factored in (((10, 100), True), ((2, 3), False)):
        energies, perturbations, labels = random_two_block(*sizes, 5)
        path = tmp_path / "problem.json"
        document = problem_document(
            np.diag(energies), perturbations, subspace_indices=labels
        )
        write_document(document, path)
        metadata = diagonalize_metadata(tmp_path, str(path), 4)
        assert "implicit" not in metadata
        if not factored:
            assert metadata["factored_blocks"] == {}
            continue
        result = block_diagonalize(load_problem(str(path))[0])
        for order in range(5):
            result.h_tilde.get((0, 0), (order,))
        basis = result.context["W"].large_blocks[1]
        assert basis.width > 0
        assert metadata["factored_blocks"] == {
            "1": {"width": basis.width, "dropped": basis.dropped}
        }


def test_cli_implicit_spectrum_error_decreases(tmp_path, implicit_document):
    path, h0, perturbations = implicit_document
    value = 0.1
    exact = exact_spectrum(h0.toarray(), perturbations, [value])[:3]
    errors = {}
    for order in (1, 3):
        out = str(tmp_path / f"sweep{order}.csv")
        assert main(
            [
                "spectrum",
                "--input",
                path,
                "--max-order",
                str(order),
                "--grid",
                f"dmu={value}",
                "--output",
                out,
            ]
        ) == 0
        row = open(out).read().strip().splitlines()[1].split(",")
        approx = np.array([float(x) for x in row[1:]])
        errors[order] = np.max(np.abs(np.sort(approx) - exact))
    assert errors[3] < errors[1]


@pytest.mark.parametrize("command", ["diagonalize", "spectrum"])
def test_cli_rejects_the_implicit_block(implicit_document, command, capsys):
    path, _, _ = implicit_document
    argv = [command, "--input", path, "--max-order", "1", "--block", "1", "1"]
    assert main(argv) == 2
    assert "is implicit" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "implicit-timing"],
        ["diagonalize", "--input", "problem.json", "--implicit", "--order", "1"],
    ],
)
def test_cli_has_no_implicit_timing_or_implicit_flag(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "usage: blockpert" in capsys.readouterr().err


def test_console_entry_point():
    # The child imports the package these tests import, installed or not.
    source = os.path.dirname(os.path.dirname(blockpert.__file__))
    paths = [source, os.environ.get("PYTHONPATH", "")]
    completed = subprocess.run(
        [sys.executable, "-m", "blockpert.cli", "--help"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
    )
    assert completed.returncode == 0
    assert "diagonalize" in completed.stdout


def test_cli_verify_guards_large_problems(tmp_path):
    h0, perturbations = lattice_problem(24, seed=1)  # 576 > 512 states
    energies, vectors = sla.eigsh(h0, k=1, which="SA")
    doc = problem_document(
        h0,
        perturbations,
        param_names=["dmu"],
        implicit={"explicit_vectors": vectors, "eigenvalues": energies},
    )
    path = tmp_path / "big.json"
    write_document(doc, path)
    assert main(["verify", "--input", str(path), "--max-order", "2"]) == 2
