import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as sla

from blockpert import cli
from blockpert.cli import main
from blockpert.documents import (
    DocumentError,
    decode_matrix,
    encode_matrix,
    load_problem,
    problem_document,
    write_document,
)
from blockpert.problems import lattice_problem, random_two_block, transmon_problem

from conftest import random_hermitian


def document_path(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    write_document(doc, path)
    return str(path)


def two_block_document(seed=0, **kwargs):
    energies, perturbations, labels = random_two_block(2, 3, seed=seed)
    return problem_document(
        np.diag(energies),
        perturbations,
        subspace_indices=labels,
        param_names=["lam"],
        **kwargs,
    )


def test_matrix_round_trip_is_bit_exact(rng):
    matrix = random_hermitian(rng, 4)
    decoded = decode_matrix(json.loads(json.dumps(encode_matrix(matrix))))
    np.testing.assert_array_equal(decoded, matrix)
    sparse_matrix = sparse.random(5, 5, density=0.3, random_state=7).tocsr()
    decoded = decode_matrix(
        json.loads(json.dumps(encode_matrix(sparse_matrix)))
    )
    np.testing.assert_array_equal(decoded.toarray(), sparse_matrix.toarray())


def test_load_problem_round_trip(tmp_path):
    path = document_path(tmp_path, two_block_document())
    problem, doc = load_problem(path)
    assert problem.n_blocks == 2
    assert problem.param_names == ("lam",)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.pop("h0"), "missing 'h0'"),
        (lambda d: d.update(format=99), "unsupported format"),
        (lambda d: d.update(subspaces={}), "subspace definition"),
        (
            lambda d: d["perturbations"][0].update(order=[0]),
            "invalid order",
        ),
    ],
)
def test_schema_violations(tmp_path, mutate, message):
    doc = two_block_document()
    mutate(doc)
    path = document_path(tmp_path, doc)
    with pytest.raises(DocumentError, match=message):
        load_problem(path)


def test_invalid_json_reports_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(DocumentError, match="invalid JSON"):
        load_problem(str(path))


def test_cli_diagonalize_round_trip(tmp_path):
    path = document_path(tmp_path, two_block_document())
    out = str(tmp_path / "result.json")
    code = main(
        [
            "diagonalize",
            "--input",
            path,
            "--block",
            "0",
            "0",
            "--order",
            "2",
            "--output",
            out,
        ]
    )
    assert code == 0
    payload = json.load(open(out))
    entry = payload["entries"][0]
    assert entry["block"] == [0, 0] and entry["order"] == [2]
    matrix = decode_matrix(entry["matrix"])
    assert matrix.shape == (2, 2)
    assert payload["metadata"]["matmul_count"] >= 1
    # Determinism: a second run produces identical payloads except timings.
    out2 = str(tmp_path / "result2.json")
    main(
        [
            "diagonalize",
            "--input",
            path,
            "--block",
            "0",
            "0",
            "--order",
            "2",
            "--output",
            out2,
        ]
    )
    payload2 = json.load(open(out2))
    assert payload["entries"] == payload2["entries"]


def test_cli_emits_explicit_zero_markers(tmp_path):
    doc = problem_document(
        np.diag([0.0, 1.0]),
        {(1,): np.zeros((2, 2))},
        subspace_indices=[0, 1],
    )
    path = document_path(tmp_path, doc)
    out = str(tmp_path / "result.json")
    assert main(
        ["diagonalize", "--input", path, "--order", "1", "--output", out]
    ) == 0
    payload = json.load(open(out))
    assert payload["entries"][0] == {"block": [0, 0], "order": [1], "zero": True}


def test_cli_exit_codes(tmp_path):
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert main(["diagonalize", "--input", str(broken), "--order", "1"]) == 2

    degenerate = problem_document(
        np.diag([1.0, 1.0]),
        {(1,): np.eye(2)},
        subspace_indices=[0, 1],
    )
    path = document_path(tmp_path, degenerate, "degenerate.json")
    assert main(["diagonalize", "--input", path, "--order", "1"]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["diagonalize", "--order", "-1"],
        ["spectrum", "--max-order", "-1", "--grid", "lam=0.1"],
        ["diagonalize", "--max-order", "-2"],
    ],
)
def test_cli_rejects_negative_orders(tmp_path, argv, capsys):
    path = document_path(tmp_path, two_block_document())
    assert main([argv[0], "--input", path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert "non-negative" in captured.err
    assert captured.out == ""


def test_cli_verify_passes_and_fails(tmp_path, capsys):
    path = document_path(tmp_path, two_block_document())
    assert main(["verify", "--input", path, "--max-order", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines)
    # Degenerate document: validation failure, not an invariant failure.
    degenerate = problem_document(
        np.diag([1.0, 1.0]), {(1,): np.eye(2)}, subspace_indices=[0, 1]
    )
    bad = document_path(tmp_path, degenerate, "degenerate.json")
    assert main(["verify", "--input", bad, "--max-order", "2"]) == 3


def test_cli_verify_transmon_multiblock(tmp_path):
    model = transmon_problem()
    doc = problem_document(
        model.h0,
        {(1,): model.coupling},
        subspace_indices=model.subspace_indices,
        param_names=["g"],
    )
    path = document_path(tmp_path, doc)
    assert main(["verify", "--input", path, "--max-order", "3"]) == 0


def test_cli_spectrum_csv(tmp_path, capsys):
    path = document_path(tmp_path, two_block_document())
    assert main(
        ["spectrum", "--input", path, "--max-order", "2", "--grid", "lam=0"]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "lam,eig_0,eig_1"
    first = [float(x) for x in lines[1].split(",")]
    # at lambda = 0 the eigenvalues are those of the unperturbed block
    problem, _ = load_problem(path)
    np.testing.assert_allclose(first[1:], problem.eigenvalues[0], atol=1e-15)


def test_cli_spectrum_convergence(tmp_path):
    """Eigenvalue error decreases with truncation order along a sweep."""
    from blockpert.oracles import exact_spectrum

    energies, perturbations, labels = random_two_block(2, 3, seed=3)
    doc = problem_document(
        np.diag(energies),
        perturbations,
        subspace_indices=labels,
        param_names=["lam"],
    )
    path = document_path(tmp_path, doc)
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
                "lam=0.05",
                "--output",
                out,
            ]
        ) == 0
        row = open(out).read().strip().splitlines()[1].split(",")
        approx = np.array([float(x) for x in row[1:]])
        exact = exact_spectrum(energies, perturbations, [0.05])[:2]
        errors[order] = np.max(np.abs(approx - exact))
    assert errors[3] < errors[1]


def test_cli_bench_counts(capsys):
    assert main(["bench", "counts"]) == 0
    out = capsys.readouterr().out
    assert "1       3       11" in out
    assert "1       4       27" in out


def test_cli_avoided_crossing_gap(tmp_path):
    """Second-order corrections keep the swept gap open."""
    h0 = np.diag([0.0, 0.05, 2.0])
    coupling = np.zeros((3, 3))
    coupling[0, 2] = coupling[2, 0] = 1.0
    coupling[1, 2] = coupling[2, 1] = -1.0
    doc = problem_document(
        h0, {(1,): coupling}, subspace_indices=[0, 0, 1], param_names=["lam"]
    )
    path = document_path(tmp_path, doc)
    out = str(tmp_path / "sweep.csv")
    assert main(
        [
            "spectrum",
            "--input",
            path,
            "--max-order",
            "2",
            "--grid",
            "lam=0.0:0.3:13",
            "--output",
            out,
        ]
    ) == 0
    rows = [line.split(",") for line in open(out).read().strip().splitlines()[1:]]
    gaps = [float(r[2]) - float(r[1]) for r in rows]
    assert min(gaps) > 0


@pytest.mark.parametrize("command", ["diagonalize", "spectrum"])
def test_cli_rejects_non_diagonal_h0_with_indices(tmp_path, command, capsys):
    h0 = np.array([[0.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, 2.0]])
    doc = problem_document(
        h0, {(1,): np.eye(3)}, subspace_indices=[0, 0, 1], param_names=["lam"]
    )
    path = document_path(tmp_path, doc)
    argv = [command, "--input", path, "--max-order", "2"]
    assert main(argv) == 3
    assert "diagonal" in capsys.readouterr().err


def test_cli_rejects_non_finite_document(tmp_path, capsys):
    h1 = np.eye(3)
    h1[2, 2] = np.nan
    doc = problem_document(
        np.diag([0.0, 1.0, 2.0]), {(1,): h1}, subspace_indices=[0, 0, 1]
    )
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))  # the reader accepts bare NaN tokens
    assert main(["diagonalize", "--input", str(path), "--order", "1"]) == 3
    assert "non-finite" in capsys.readouterr().err


def test_documents_are_written_without_nan_tokens(tmp_path):
    doc = problem_document(
        np.diag([0.0, np.nan]), {(1,): np.eye(2)}, subspace_indices=[0, 1]
    )
    with pytest.raises(ValueError, match="JSON compliant"):
        write_document(doc, tmp_path / "nan.json")


def test_load_problem_keeps_implicit_operators_sparse(tmp_path):
    """Loading an implicit document makes no dense N x N copy."""
    h0, perturbations = lattice_problem(24, seed=3)
    energies, vectors = sla.eigsh(h0, k=3, which="SA")
    doc = problem_document(
        h0,
        perturbations,
        implicit={"explicit_vectors": vectors, "eigenvalues": energies},
    )
    path = document_path(tmp_path, doc)
    tracemalloc.start()
    try:
        load_problem(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * h0.shape[0] ** 2


@pytest.mark.parametrize(
    "command, block, message",
    [
        ("spectrum", ("0", "1"), "diagonal block"),
        ("spectrum", ("5", "5"), "outside"),
        ("spectrum", ("-1", "-1"), "outside"),
        ("diagonalize", ("5", "5"), "outside"),
        ("diagonalize", ("-1", "-1"), "outside"),
        ("diagonalize", ("0", "2"), "outside"),
    ],
)
def test_cli_rejects_bad_blocks(tmp_path, command, block, message, capsys):
    path = document_path(tmp_path, two_block_document())
    argv = [command, "--input", path, "--max-order", "2", "--block", *block]
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_cli_retention_discard_writes_the_same_entries(tmp_path):
    path = document_path(tmp_path, two_block_document())
    payloads = {}
    for retention in ("keep", "discard"):
        out = str(tmp_path / f"{retention}.json")
        argv = ["diagonalize", "--input", path, "--max-order", "4", "--output", out]
        argv += ["--block", "0", "0", "--block", "1", "1", "--retention", retention]
        assert main(argv) == 0
        payloads[retention] = json.load(open(out))["entries"]
    assert payloads["discard"] == payloads["keep"]
    bogus = document_path(tmp_path, two_block_document(retention="bogus"), "bogus.json")
    assert main(["diagonalize", "--input", bogus, "--order", "1"]) == 3


def test_cli_spectrum_in_chunks_writes_the_one_chunk_csv(tmp_path, monkeypatch):
    """A grid swept in chunks of 3 points gives the CSV of a single chunk."""
    model = transmon_problem()
    shift = np.diag(np.linspace(0.0, 0.1, len(model.h0)))
    doc = problem_document(
        model.h0,
        {(1, 0): model.coupling, (0, 1): shift},
        subspace_indices=model.subspace_indices,
        param_names=["g", "d"],
    )
    path = document_path(tmp_path, doc)
    size = load_problem(path)[0].block_sizes[0]
    argv = ["spectrum", "--input", path, "--max-order", "3,2"]
    argv += ["--grid", "g=0:0.05:5", "--grid", "d=0.1:1:4:log"]
    texts = {}
    chunks = (("one", cli.SPECTRUM_CHUNK_BYTES), ("chunked", 3 * 16 * size**2))
    for name, budget in chunks:
        monkeypatch.setattr(cli, "SPECTRUM_CHUNK_BYTES", budget)
        out = str(tmp_path / f"{name}.csv")
        assert main(argv + ["--output", out]) == 0
        texts[name] = open(out).read()
    assert texts["chunked"] == texts["one"]
    assert len(texts["one"].splitlines()) == 1 + 5 * 4
