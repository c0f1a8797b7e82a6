"""Problem and result documents: a versioned JSON schema for the CLI.

A problem document carries the unperturbed operator (dense or sparse
coordinate encoding), the perturbations keyed by order multi-index, the
subspace definition (one of per-state indices, eigenvector groups, or an
implicit explicit-subspace description), optional elementwise masks, and
tolerances. Complex scalars are encoded as ``[re, im]`` pairs; floats keep
full precision through JSON's repr round-trip.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np
import scipy.sparse as sparse

from blockpert.diagonalization import PerturbationProblem
from blockpert.implicit import build_extended_problem

__all__ = [
    "DocumentError",
    "encode_matrix",
    "decode_matrix",
    "load_problem",
    "problem_document",
    "write_document",
    "result_document",
]

FORMAT_VERSION = 1


class DocumentError(ValueError):
    """A document failed to parse or violated the schema."""


def _complex_pairs(array: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in array.ravel()]


def encode_matrix(matrix) -> dict:
    """Encode a dense or sparse operator for the document format."""
    if sparse.issparse(matrix):
        coo = matrix.tocoo()
        return {
            "sparse": {
                "shape": list(coo.shape),
                "rows": [int(r) for r in coo.row],
                "cols": [int(c) for c in coo.col],
                "vals": _complex_pairs(coo.data.astype(np.complex128)),
            }
        }
    dense = np.asarray(matrix, dtype=np.complex128)
    return {
        "dense": {
            "shape": list(dense.shape),
            "entries": _complex_pairs(dense),
        }
    }


def _pairs_to_complex(pairs, where: str) -> np.ndarray:
    try:
        values = np.asarray(pairs, dtype=float)
        if values.ndim != 2 or values.shape[1] != 2:
            raise ValueError
    except (TypeError, ValueError):
        raise DocumentError(f"{where}: entries must be [re, im] pairs.")
    return values[:, 0] + 1j * values[:, 1]


def decode_matrix(spec: dict, where: str = "matrix"):
    """Decode a matrix; sparse encodings produce sparse operators."""
    if not isinstance(spec, dict):
        raise DocumentError(f"{where}: expected an object.")
    if "dense" in spec:
        body = spec["dense"]
        shape = tuple(body.get("shape", ()))
        if len(shape) != 2:
            raise DocumentError(f"{where}.dense: shape must have two entries.")
        entries = _pairs_to_complex(body.get("entries", []), f"{where}.dense")
        if len(entries) != shape[0] * shape[1]:
            raise DocumentError(
                f"{where}.dense: {len(entries)} entries for shape {shape}."
            )
        return entries.reshape(shape)
    if "sparse" in spec:
        body = spec["sparse"]
        shape = tuple(body.get("shape", ()))
        if len(shape) != 2:
            raise DocumentError(f"{where}.sparse: shape must have two entries.")
        vals = _pairs_to_complex(body.get("vals", []), f"{where}.sparse")
        rows = body.get("rows", [])
        cols = body.get("cols", [])
        if not (len(rows) == len(cols) == len(vals)):
            raise DocumentError(f"{where}.sparse: rows/cols/vals lengths differ.")
        return sparse.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()
    raise DocumentError(f"{where}: must contain 'dense' or 'sparse'.")


def problem_document(
    h0,
    perturbations: dict[tuple[int, ...], Any],
    *,
    param_names=None,
    subspace_indices=None,
    subspace_eigenvectors=None,
    implicit: dict | None = None,
    fully_diagonalize: dict[int, np.ndarray] | None = None,
    tol_degeneracy: float | None = None,
    retention: str = "keep",
) -> dict:
    """Assemble a problem document from in-memory operators."""
    orders = sorted(perturbations)
    n_params = len(orders[0]) if orders else 1
    doc: dict[str, Any] = {
        "format": FORMAT_VERSION,
        "param_names": list(param_names or (f"lambda_{i}" for i in range(n_params))),
        "h0": encode_matrix(h0),
        "perturbations": [
            {"order": list(order), "matrix": encode_matrix(perturbations[order])}
            for order in orders
        ],
    }
    subspaces: dict[str, Any] = {}
    if subspace_indices is not None:
        subspaces["indices"] = [int(i) for i in subspace_indices]
    if subspace_eigenvectors is not None:
        subspaces["eigenvectors"] = [encode_matrix(v) for v in subspace_eigenvectors]
    if implicit is not None:
        subspaces["implicit"] = {
            "explicit_vectors": encode_matrix(implicit["explicit_vectors"]),
            "eigenvalues": [float(e) for e in implicit["eigenvalues"]],
        }
    if len(subspaces) != 1:
        raise DocumentError(
            "Exactly one of indices, eigenvectors, or implicit is required."
        )
    doc["subspaces"] = subspaces
    if fully_diagonalize:
        doc["fully_diagonalize"] = {
            str(label): np.asarray(mask, dtype=bool).tolist()
            for label, mask in fully_diagonalize.items()
        }
    doc["options"] = {"retention": retention}
    if tol_degeneracy is not None:
        doc["options"]["tol_degeneracy"] = float(tol_degeneracy)
    return doc


def write_document(doc: dict, path):
    with open(path, "w") as handle:
        json.dump(doc, handle, allow_nan=False)
        handle.write("\n")


def _read_json(path) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise DocumentError(f"Cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON.")


def load_problem(path, tol_override: float | None = None) -> tuple[PerturbationProblem, dict]:
    """Parse a problem document and construct the perturbation problem."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise DocumentError(f"{path}: document must be a JSON object.")
    if doc.get("format") != FORMAT_VERSION:
        raise DocumentError(
            f"{path}: unsupported format {doc.get('format')!r}; "
            f"expected {FORMAT_VERSION}."
        )
    try:
        h0 = decode_matrix(doc["h0"], "h0")
    except KeyError:
        raise DocumentError(f"{path}: missing 'h0'.")
    perturbations = {}
    for k, item in enumerate(doc.get("perturbations", [])):
        where = f"perturbations[{k}]"
        if "order" not in item or "matrix" not in item:
            raise DocumentError(f"{path}: {where} needs 'order' and 'matrix'.")
        order = tuple(int(n) for n in item["order"])
        if any(n < 0 for n in order) or not any(order):
            raise DocumentError(f"{path}: {where} has invalid order {order}.")
        perturbations[order] = decode_matrix(item["matrix"], where)
    if not perturbations:
        raise DocumentError(f"{path}: at least one perturbation is required.")
    param_names = doc.get("param_names")
    if param_names is not None:
        param_names = tuple(str(p) for p in param_names)
    options = doc.get("options", {})
    tol = tol_override if tol_override is not None else options.get("tol_degeneracy")
    subspaces = doc.get("subspaces", {})
    if len(subspaces) != 1:
        raise DocumentError(
            f"{path}: exactly one subspace definition is required, "
            f"got {sorted(subspaces)}."
        )
    masks = None
    if "fully_diagonalize" in doc:
        masks = {}
        for label, mask in doc["fully_diagonalize"].items():
            try:
                masks[int(label)] = np.asarray(mask, dtype=bool)
            except (TypeError, ValueError):
                raise DocumentError(f"{path}: bad mask for block {label}.")
    if "indices" in subspaces:
        problem = PerturbationProblem.from_diagonal(
            h0,
            perturbations,
            subspaces["indices"],
            masks=masks,
            tolerance=tol,
            param_names=param_names,
        )
    elif "eigenvectors" in subspaces:
        vectors = [
            decode_matrix(v, f"subspaces.eigenvectors[{k}]")
            for k, v in enumerate(subspaces["eigenvectors"])
        ]
        problem = PerturbationProblem.from_eigenvectors(
            h0,
            perturbations,
            vectors,
            masks=masks,
            tolerance=tol,
            param_names=param_names,
        )
    elif "implicit" in subspaces:
        if masks:
            raise DocumentError(
                f"{path}: fully_diagonalize is not supported in implicit mode."
            )
        body = subspaces["implicit"]
        vectors = decode_matrix(body["explicit_vectors"], "subspaces.implicit")
        if sparse.issparse(vectors):
            vectors = vectors.toarray()
        problem = build_extended_problem(
            h0,
            perturbations,
            vectors,
            np.asarray(body.get("eigenvalues", []), dtype=float),
            param_names=param_names,
        )
    else:
        raise DocumentError(f"{path}: unknown subspace definition.")
    return problem, doc


def result_document(entries, metadata: dict) -> dict:
    """Assemble a result document from evaluated entries.

    ``entries`` is a list of ``(block, order, operator-or-None)`` with
    ``None`` marking a structural zero, emitted as an explicit marker.
    """
    payload = []
    for block, order, value in entries:
        item: dict[str, Any] = {"block": list(block), "order": list(order)}
        if value is None:
            item["zero"] = True
        else:
            item["matrix"] = encode_matrix(value)
        payload.append(item)
    return {"format": FORMAT_VERSION, "entries": payload, "metadata": metadata}
