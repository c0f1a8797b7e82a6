import json
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as sla

from blockpert.cli import main
from blockpert.diagonalization import block_diagonalize
from blockpert.documents import (
    decode_matrix,
    load_problem,
    problem_document,
    write_document,
)
from blockpert.oracles import exact_spectrum
from blockpert.problems import lattice_problem


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
                "--implicit",
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
        psi = problem.implicit_context.psi
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


def test_cli_implicit_flag_requires_implicit_document(tmp_path):
    doc = problem_document(
        np.diag([0.0, 1.0]),
        {(1,): np.array([[0.0, 0.1], [0.1, 0.0]])},
        subspace_indices=[0, 1],
    )
    path = tmp_path / "explicit.json"
    write_document(doc, path)
    assert main(
        ["diagonalize", "--input", str(path), "--implicit", "--order", "1"]
    ) == 2


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


def test_cli_bench_implicit_timing(capsys):
    assert main(["bench", "implicit-timing", "--size", "12"]) == 0
    out = capsys.readouterr().out
    assert "factorizations" in out
    assert "sparse diagonalization" in out


def test_console_entry_point():
    completed = subprocess.run(
        [sys.executable, "-m", "blockpert.cli", "--help"],
        capture_output=True,
        text=True,
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
