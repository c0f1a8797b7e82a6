import base64
import json
import re
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sparse
import scipy.sparse.linalg as sla

from blockpert import cli, diagonalization
from blockpert.cli import main
from blockpert.diagonalization import PerturbationProblem, block_diagonalize
from blockpert.documents import (
    DocumentError,
    decode_matrix,
    encode_matrix,
    load_problem,
    problem_document,
    write_document,
)
from blockpert.implicit import FactorizationError, ShiftedSolverSet
from blockpert.operators import to_array
from blockpert.problems import (
    bilayer_graphene_problem,
    lattice_problem,
    random_two_block,
    transmon_problem,
)

from conftest import random_hermitian


def document_path(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    write_document(doc, path)
    return str(path)


def sparse_entry(rows, cols):
    """A sparse 5x5 perturbation with one entry per index pair."""
    vals = [[1.0, 0.0]] * len(rows)
    return {"sparse": {"shape": [5, 5], "rows": rows, "cols": cols, "vals": vals}}


def compact_data(values) -> str:
    """The ``data`` text of a compact matrix body holding ``values``."""
    return base64.b64encode(np.asarray(values, dtype="<c16").tobytes()).decode()


def implicit_subspace(eigenvalues):
    vectors = encode_matrix(np.eye(5)[:, :1])
    return {"implicit": {"explicit_vectors": vectors, "eigenvalues": eigenvalues}}


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


def bits(matrix) -> np.ndarray:
    """The bytes of a dense or sparse matrix, for bitwise comparison."""
    dense = matrix.toarray() if sparse.issparse(matrix) else matrix
    return np.ascontiguousarray(dense).view(np.uint8)


@pytest.mark.parametrize(
    "matrix",
    [
        np.asfortranarray(np.arange(6.0).reshape(2, 3) * (1 - 2j)),
        np.array([[1.5, -2.0], [0.0, 3.25]]),
        np.array([[-0.0, complex(0.0, -0.0)], [5e-324, complex(-5e-324, 2.2e-308)]]),
        np.array([[1e308, -1e308], [complex(1e308, -1e308), complex(-1e308, 1e308)]]),
        np.zeros((0, 3)),
        sparse.random(6, 4, density=0.4, random_state=3, dtype=complex).tocsr(),
        sparse.coo_matrix(([-0.0, 5e-324, -1e308], ([0, 2, 1], [1, 0, 2])), shape=(3, 3)),
    ],
    ids=["fortran", "real", "signed-zero-subnormal", "extreme", "empty", "sparse", "sparse-edge"],
)
def test_compact_encoding_round_trips_bitwise(matrix):
    spec = encode_matrix(matrix)
    assert "data" in next(iter(spec.values()))
    decoded = decode_matrix(json.loads(json.dumps(spec, allow_nan=False)))
    assert sparse.issparse(decoded) == sparse.issparse(matrix)
    assert decoded.dtype == np.complex128 and decoded.shape == matrix.shape
    np.testing.assert_array_equal(bits(decoded), bits(matrix.astype(np.complex128)))


def test_decoded_dense_matrices_own_writeable_memory():
    decoded = decode_matrix(encode_matrix(np.eye(3)))
    assert decoded.dtype == np.complex128 and decoded.flags.c_contiguous
    assert decoded.flags.owndata and decoded.flags.writeable
    decoded[0, 0] = 2.0


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_pair_decoder_keeps_signed_zeros(kind):
    pairs = [[-0.0, 1.0], [1.0, -0.0], [-0.0, -0.0]]
    expected = np.array([complex(-0.0, 1.0), complex(1.0, -0.0), complex(-0.0, -0.0)])
    if kind == "dense":
        spec = {"dense": {"shape": [1, 3], "entries": pairs}}
    else:
        spec = {"sparse": {"shape": [1, 3], "rows": [0, 0, 0], "cols": [0, 1, 2], "vals": pairs}}
    decoded = decode_matrix(spec)
    values = decoded.tocoo().data if kind == "sparse" else decoded.ravel()
    np.testing.assert_array_equal(bits(values), bits(expected))


# Written by hand in the pair form that every older document uses.
PAIR_DOCUMENT = {
    "format": 1,
    "param_names": ["lam"],
    "h0": {
        "sparse": {
            "shape": [3, 3],
            "rows": [0, 1, 2],
            "cols": [0, 1, 2],
            "vals": [[0.0, 0.0], [1.0, 0.0], [2.5, 0.0]],
        }
    },
    "perturbations": [
        {
            "order": [1],
            "matrix": {
                "dense": {
                    "shape": [3, 3],
                    "entries": [
                        [0.0, 0.0], [0.1, 0.2], [-0.3, 0.0],
                        [0.1, -0.2], [0.0, 0.0], [0.05, 0.0],
                        [-0.3, -0.0], [0.05, 0.0], [0.0, 0.0],
                    ],
                }
            },
        }
    ],
    "subspaces": {"indices": [0, 1, 1]},
}


def test_pair_documents_and_their_compact_rewrite_agree(tmp_path):
    compact = json.loads(json.dumps(PAIR_DOCUMENT))
    compact["h0"] = encode_matrix(decode_matrix(compact["h0"]))
    for item in compact["perturbations"]:
        item["matrix"] = encode_matrix(decode_matrix(item["matrix"]))
    assert "data" in compact["h0"]["sparse"] and "vals" not in compact["h0"]["sparse"]
    pairs_path = document_path(tmp_path, PAIR_DOCUMENT, "pairs.json")
    compact_path = document_path(tmp_path, compact, "compact.json")
    (old, _), (new, _) = load_problem(pairs_path), load_problem(compact_path)
    assert old.blocks.keys() == new.blocks.keys() and old.tolerance == new.tolerance
    for key, block in old.blocks.items():
        assert type(block) is type(new.blocks[key])
        np.testing.assert_array_equal(bits(block), bits(new.blocks[key]))
    for eigenvalues, other in zip(old.eigenvalues, new.eigenvalues):
        np.testing.assert_array_equal(bits(eigenvalues), bits(other))
    for path in (pairs_path, compact_path):
        argv = ["spectrum", "--input", path, "--max-order", "4", "--grid", "lam=0:0.2:6"]
        assert main([*argv, "--output", f"{path}.csv"]) == 0
    with open(f"{pairs_path}.csv", "rb") as old_csv, open(f"{compact_path}.csv", "rb") as new_csv:
        assert old_csv.read() == new_csv.read()


def test_load_problem_round_trip(tmp_path):
    path = document_path(tmp_path, two_block_document())
    problem, doc = load_problem(path)
    assert problem.n_blocks == 2
    assert problem.param_names == ("lam",)


def graphene_document(**kwargs):
    model = bilayer_graphene_problem()
    return problem_document(
        model.h0,
        model.perturbations,
        param_names=("k_x", "k_y", "m"),
        subspace_eigenvectors=[model.vectors_low, model.vectors_high],
        **kwargs,
    )


def masked_graphene():
    """Graphene with its high-energy pair split by a mask, and the
    arguments of the document and of the direct call."""
    model = bilayer_graphene_problem()
    masks, tolerance = {1: np.eye(2, dtype=bool)}, 1e-6
    doc = graphene_document(fully_diagonalize=masks, tol_degeneracy=tolerance)
    problem = PerturbationProblem.from_eigenvectors(
        model.h0,
        model.perturbations,
        [model.vectors_low, model.vectors_high],
        masks=masks,
        tolerance=tolerance,
    )
    return doc, problem


def masked_two_block():
    """Blocks of 2 and 3 states, the second split by a mask."""
    energies, perturbations, labels = random_two_block(2, 3, seed=1)
    mask = np.eye(3, dtype=bool)
    mask[0, 1] = mask[1, 0] = True
    masks, tolerance = {1: mask}, 1e-7
    doc = problem_document(
        np.diag(energies),
        perturbations,
        subspace_indices=labels,
        fully_diagonalize=masks,
        tol_degeneracy=tolerance,
    )
    problem = PerturbationProblem.from_diagonal(
        energies, perturbations, labels, masks=masks, tolerance=tolerance
    )
    return doc, problem


@pytest.mark.parametrize("case", [masked_graphene, masked_two_block])
def test_masked_documents_load_the_direct_problem(tmp_path, case):
    """A document with a mask and a degeneracy tolerance loads the problem
    that the direct constructor builds: same blocks, masks and tolerance."""
    doc, direct = case()
    loaded, _ = load_problem(document_path(tmp_path, doc))
    assert loaded.tolerance == direct.tolerance
    assert loaded.rule.masks.keys() == direct.rule.masks.keys() == {1}
    np.testing.assert_array_equal(loaded.rule.masks[1], direct.rule.masks[1])
    assert loaded.blocks.keys() == direct.blocks.keys()
    for key, block in direct.blocks.items():
        np.testing.assert_array_equal(to_array(loaded.blocks[key]), to_array(block))
    for eigenvalues, other in zip(loaded.eigenvalues, direct.eigenvalues):
        np.testing.assert_array_equal(eigenvalues, other)


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
        (
            lambda d: d.update(options={"tol_degeneracy": [1e-9]}),
            "tol_degeneracy must be a number",
        ),
        pytest.param(
            lambda d: d["perturbations"][0].update(matrix=sparse_entry([0, True], [0, 1])),
            re.escape("perturbations[0].sparse.rows must be a list of integers."),
            id="boolean-index",
        ),
        pytest.param(
            lambda d: d["perturbations"][0].update(matrix=sparse_entry([0, 1.0], [0, 1])),
            re.escape("perturbations[0].sparse.rows must be a list of integers."),
            id="float-index",
        ),
        pytest.param(
            lambda d: d["perturbations"].append(d["perturbations"][0]),
            re.escape("perturbations[0] and perturbations[1] both have order [1]"),
            id="repeated-order",
        ),
        pytest.param(
            lambda d: d["perturbations"][0].update(matrix={"entries": []}),
            re.escape("perturbations[0]: must contain 'dense' or 'sparse'."),
            id="no-matrix-kind",
        ),
        pytest.param(
            lambda d: d["h0"]["dense"].update(shape=[5]),
            re.escape("h0.dense: shape must have two non-negative entries."),
            id="one-axis-shape",
        ),
        pytest.param(
            lambda d: d["h0"]["dense"].update(shape=[5, -1]),
            re.escape("h0.dense: shape must have two non-negative entries."),
            id="negative-shape",
        ),
        pytest.param(
            lambda d: d["perturbations"][0].update(matrix=sparse_entry([0, 1], [0])),
            re.escape("perturbations[0].sparse: rows and cols lengths differ."),
            id="rows-and-cols",
        ),
        pytest.param(
            lambda d: d.update(perturbations=[]),
            "at least one perturbation is required",
            id="no-perturbations",
        ),
        pytest.param(
            lambda d: d.update(fully_diagonalize={"0": [[True, False], [True]]}),
            re.escape("bad mask for block 0."),
            id="ragged-mask",
        ),
        pytest.param(
            lambda d: d.update(
                subspaces=implicit_subspace([0.0]), fully_diagonalize={"0": [[True]]}
            ),
            re.escape("fully_diagonalize is not supported in implicit mode."),
            id="implicit-mask",
        ),
        pytest.param(
            lambda d: d.update(subspaces={"labels": [0, 0, 1, 1, 1]}),
            re.escape("unknown subspace definition."),
            id="unknown-subspace",
        ),
    ],
)
def test_schema_violations(tmp_path, mutate, message):
    doc = two_block_document()
    mutate(doc)
    path = document_path(tmp_path, doc)
    with pytest.raises(DocumentError, match=message):
        load_problem(path)


def test_unreadable_documents(tmp_path):
    """A missing file and a document that is not a JSON object are parse
    errors that name the path."""
    missing = tmp_path / "absent.json"
    with pytest.raises(DocumentError, match=rf"^Cannot read {re.escape(str(missing))}: "):
        load_problem(missing)
    listed = tmp_path / "list.json"
    listed.write_text("[1]\n")
    message = rf"^{re.escape(str(listed))}: document must be a JSON object\.$"
    with pytest.raises(DocumentError, match=message):
        load_problem(listed)


@pytest.mark.parametrize(
    "mutate, field",
    [
        (lambda d: d.update(perturbations=[5]), "perturbations[0]"),
        (lambda d: d["perturbations"][0].update(order=["a"]), "perturbations[0].order"),
        (lambda d: d.update(h0={"dense": 5}), "h0.dense"),
        (lambda d: d.update(fully_diagonalize=[1]), "fully_diagonalize"),
        (lambda d: d.update(subspaces={"implicit": {}}), "explicit_vectors"),
        (lambda d: d.update(param_names=5), "param_names"),
        (lambda d: d.update(param_names=["a", "b"]), "param_names"),
        (lambda d: d.update(options=[1]), "options"),
        (lambda d: d.update(options={"tol_degeneracy": True}), "tol_degeneracy"),
        (
            lambda d: d["perturbations"][0].update(matrix=sparse_entry([7], [0])),
            "perturbations[0].sparse.rows",
        ),
        (
            lambda d: d["perturbations"][0].update(matrix=sparse_entry([-1], [0])),
            "perturbations[0].sparse.rows",
        ),
        (
            lambda d: d["perturbations"][0].update(matrix=sparse_entry([0], [5])),
            "perturbations[0].sparse.cols",
        ),
        (
            lambda d: d["perturbations"][0].update(matrix=sparse_entry([0], [2**70])),
            "perturbations[0].sparse.cols",
        ),
        (lambda d: d["h0"]["dense"].update(data=5), "h0.dense.data"),
        (
            lambda d: d["h0"]["dense"].update(data="!" + d["h0"]["dense"]["data"]),
            "h0.dense.data",
        ),
        (lambda d: d["h0"]["dense"].update(data="AAAAé"), "h0.dense.data"),
        (
            lambda d: d["h0"]["dense"].update(data=compact_data([1.0])),
            "h0.dense.data: 16 bytes, expected 400",
        ),
        (
            lambda d: d["h0"]["dense"].update(entries=[[0.0, 0.0]] * 25),
            "h0.dense: give 'data' or 'entries'",
        ),
        (
            lambda d: d["perturbations"][0].update(
                matrix={"sparse": {"shape": [5, 5], "rows": [0], "cols": [0], "data": ""}}
            ),
            "perturbations[0].sparse.data: 0 bytes, expected 16",
        ),
        (
            lambda d: d.update(subspaces=implicit_subspace(["a"])),
            "subspaces.implicit.eigenvalues",
        ),
        (
            lambda d: d.update(subspaces=implicit_subspace([True])),
            "subspaces.implicit.eigenvalues",
        ),
    ],
)
def test_malformed_documents_exit_2(tmp_path, mutate, field, capsys):
    """A malformed field is a parse error that names it, never a traceback."""
    doc = two_block_document()
    mutate(doc)
    path = document_path(tmp_path, doc)
    assert main(["diagonalize", "--input", path, "--order", "1"]) == 2
    captured = capsys.readouterr()
    assert field in captured.err
    assert captured.out == ""


def test_options_that_nothing_reads_are_ignored(tmp_path):
    """Documents of older versions may carry options that are no longer read."""
    doc = two_block_document()
    doc["options"] = {"obsolete": "discard"}
    problem, _ = load_problem(document_path(tmp_path, doc))
    assert problem.n_blocks == 2


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
    metadata = payload["metadata"]
    assert metadata["matmul_count"] >= 1
    assert 1 <= metadata["stacks"] <= metadata["stacked"] <= metadata["matmul_count"]
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


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
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

    # A failed implicit solve is a solver error.
    h0, perturbations = lattice_problem(4, seed=1)
    energies, vectors = sla.eigsh(h0, k=2, which="SA")
    implicit = {"explicit_vectors": vectors, "eigenvalues": energies}
    doc = problem_document(h0, perturbations, param_names=["dmu"], implicit=implicit)
    path = document_path(tmp_path, doc, "implicit.json")

    def fail(self, i, rhs_row):
        raise FactorizationError("did not converge")

    monkeypatch.setattr(ShiftedSolverSet, "solve_shifted_deflated", fail)
    capsys.readouterr()
    argv = ["spectrum", "--input", path, "--max-order", "2", "--grid", "dmu=0:0.1:3"]
    assert main(argv) == 4
    assert "solver error: did not converge" in capsys.readouterr().err


@pytest.mark.parametrize("tolerance", ["-1", "nan"])
def test_cli_rejects_bad_degeneracy_tolerance(tmp_path, tolerance, capsys):
    doc = problem_document(
        np.diag([1.0, 1.0, 3.0]), {(1,): np.ones((3, 3))}, subspace_indices=[0, 1, 1]
    )
    path = document_path(tmp_path, doc)
    argv = ["diagonalize", "--input", path, "--order", "2", "--tol-degeneracy"]
    assert main([*argv, tolerance]) == 3
    assert "Degeneracy tolerance" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--max-order", "0"], "at least 1"),
        (["verify", "--max-order", "-1"], "at least 1"),
        (["diagonalize", "--order", "1,a"], "Invalid order specification '1,a'."),
        (["diagonalize"], "Request at least one --order or --max-order."),
    ],
)
def test_cli_rejects_inputs_that_run_nothing_or_crash(tmp_path, argv, message, capsys):
    path = document_path(tmp_path, two_block_document())
    argv = [argv[0], "--input", path, *argv[1:]]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "grid, message",
    [
        ("lam=0:1:x", "non-numeric"),
        ("lam=a:1:3", "non-numeric"),
        ("lam=x", "non-numeric"),
        ("lam=0:1:-1", "at least one point"),
        ("lam=0:1:0", "at least one point"),
        ("lam=0:1:3:lin", "must be 'log'"),
        ("lam=0:1:3:log", "positive bounds"),
        ("lam=-1:1:3:log", "positive bounds"),
        ("lam=0:1", "name=lo:hi:n"),
        ("lam=nan:0.1:3", "'lam=nan:0.1:3' has a non-finite bound"),
        ("lam=0:inf:3", "'lam=0:inf:3' has a non-finite bound"),
        ("lam=-inf", "'lam=-inf' has a non-finite bound"),
        ("mu=0.1", "Unknown parameter 'mu'; have ['lam']."),
    ],
)
def test_cli_spectrum_rejects_bad_grids(tmp_path, grid, message, capsys):
    path = document_path(tmp_path, two_block_document())
    argv = ["spectrum", "--input", path, "--max-order", "2", "--grid", grid]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--block", "0", "0", "--block", "1", "1"], "one --block"),
        (["--grid", "lam=0.1", "--grid", "lam=0.2"], "more than one --grid"),
    ],
)
def test_cli_spectrum_rejects_repeated_arguments(tmp_path, extra, message, capsys):
    path = document_path(tmp_path, two_block_document())
    argv = ["spectrum", "--input", path, "--max-order", "2", *extra]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
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


def test_cli_spectrum_frees_the_document_before_the_solve(tmp_path, monkeypatch):
    """`spectrum` keeps only the problem: the parsed document, which holds
    the text of every matrix, is freed before the solve starts."""

    class Document(dict):
        pass

    documents = []

    def load(*args, **kwargs):
        problem, doc = load_problem(*args, **kwargs)
        doc = Document(doc)
        documents.append(weakref.ref(doc))
        return problem, doc

    def diagonalize(problem):
        assert documents and documents[0]() is None
        return block_diagonalize(problem)

    monkeypatch.setattr(cli, "load_problem", load)
    monkeypatch.setattr(cli, "block_diagonalize", diagonalize)
    path = document_path(tmp_path, two_block_document())
    argv = ["spectrum", "--input", path, "--max-order", "2", "--grid", "lam=0"]
    assert main(argv + ["--output", str(tmp_path / "out.csv")]) == 0


def test_cli_spectrum_broadcasts_one_order_to_every_parameter(tmp_path, capsys):
    """On the three-parameter graphene document ``--max-order 2`` is
    ``2,2,2``, and an order of two components is a parse error."""
    path = document_path(tmp_path, graphene_document())
    argv = ["spectrum", "--input", path, "--grid", "k_x=0:0.1:3", "--grid", "m=0.05"]
    texts = {}
    for orders in ("2", "2,2,2"):
        out = str(tmp_path / f"{orders}.csv")
        assert main([*argv, "--max-order", orders, "--output", out]) == 0
        texts[orders] = open(out).read()
    assert texts["2"] == texts["2,2,2"]
    assert texts["2"].splitlines()[0] == "k_x,k_y,m,eig_0,eig_1"
    assert len(texts["2"].splitlines()) == 1 + 3
    capsys.readouterr()
    assert main([*argv, "--max-order", "2,2"]) == 2
    captured = capsys.readouterr()
    assert "must match the number of parameters" in captured.err
    assert captured.out == ""


def test_non_hermitian_truncated_block_is_rejected(tmp_path, monkeypatch, capsys):
    """A truncated block that is not Hermitian raises `ValueError` from
    the library and exits 3 from ``spectrum``, naming the defect."""
    original = diagonalization.evaluate_truncated

    def skewed(*args, **kwargs):
        blocks = original(*args, **kwargs)
        blocks[..., 0, 1] += 1e-3
        return blocks

    monkeypatch.setattr(diagonalization, "evaluate_truncated", skewed)
    monkeypatch.setattr(cli, "evaluate_truncated", skewed)
    path = document_path(tmp_path, two_block_document())
    result = block_diagonalize(load_problem(path)[0])
    with pytest.raises(ValueError, match="not Hermitian"):
        diagonalization._hermitian_eigenvalues(
            diagonalization.evaluate_truncated(result.h_tilde, (0, 0), (2,), [0.1])
        )
    argv = ["spectrum", "--input", path, "--max-order", "2", "--grid", "lam=0:0.1:3"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "not Hermitian (defect" in captured.err
    assert captured.out == ""


def test_cli_spectrum_rejects_overflowing_points(tmp_path, capsys):
    path = document_path(tmp_path, two_block_document())
    argv = ["spectrum", "--input", path, "--max-order", "3", "--grid", "lam=1e200"]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert "not finite" in captured.err and "1e+200" in captured.err
    assert captured.out == ""


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
    """All four rows: the engine's products at orders 2-4 against the
    textbook expressions', for a dense and an off-diagonal perturbation."""
    assert main(["bench", "counts"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["perturbation", "implementation", "order2", "order3", "order4"],
        ["dense", "engine", "1", "3", "11"],
        ["dense", "reference", "1", "4", "27"],
        ["offdiagonal", "engine", "1", "0", "9"],
        ["offdiagonal", "reference", "1", "0", "15"],
    ]


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


def test_cli_rejects_non_finite_compact_body(tmp_path, capsys):
    """NaN bytes pass the JSON parser inside base64; the problem check stops them."""
    h1 = np.eye(3)
    h1[2, 2] = np.nan
    doc = problem_document(
        np.diag([0.0, 1.0, 2.0]), {(1,): np.eye(3)}, subspace_indices=[0, 0, 1]
    )
    doc["perturbations"][0]["matrix"] = {"dense": {"shape": [3, 3], "data": compact_data(h1)}}
    path = document_path(tmp_path, doc)
    assert main(["diagonalize", "--input", path, "--order", "1"]) == 3
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


def traced_peak(call, *args, **kwargs) -> int:
    """The tracemalloc peak of one call, in bytes."""
    tracemalloc.start()
    try:
        call(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_documents_hold_few_copies_of_a_dense_term(tmp_path):
    """Writing encodes each matrix from a byte view of it, and loading decodes
    its text once and drops it from the document. With the 4.84 MB term of
    ``random_two_block(50, 500, 1)`` the peaks were 3.01x (writing) and
    3.68x (loading), and are now about 2.68x: the base64 bytes and their
    ``str``, and the document's text and its parse."""
    energies, perturbations, labels = random_two_block(50, 500, 1)
    term = perturbations[(1,)].nbytes
    arguments = (sparse.diags(energies), perturbations)
    peak = traced_peak(problem_document, *arguments, subspace_indices=labels)
    assert peak < 2.8 * term
    path = document_path(tmp_path, problem_document(*arguments, subspace_indices=labels))
    assert traced_peak(load_problem, path) < 2.8 * term
    problem, doc = load_problem(path)
    assert "data" not in doc["perturbations"][0]["matrix"]["dense"]
    block = problem.blocks[(0, 1, (1,))]
    assert not block.flags.writeable and not block.flags.owndata


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
