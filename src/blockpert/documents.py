"""Problem and result documents: a versioned JSON schema for the CLI.

A problem document carries the unperturbed operator (dense or sparse
coordinate encoding), the perturbations keyed by order multi-index, the
subspace definition (one of per-state indices, eigenvector groups, or an
implicit explicit-subspace description), optional elementwise masks, and
tolerances.

A matrix body stores its complex values in ``data``: base64 of their
little-endian ``complex128`` bytes, row-major for a dense matrix and one per
``rows``/``cols`` index for a sparse one. A matrix with a NaN or infinite
entry is written as a list of ``[re, im]`` pairs instead (``entries`` dense,
``vals`` sparse), so that strict JSON writing refuses it; the reader accepts
either form, so documents of pairs still load.
"""

from __future__ import annotations

import binascii
import contextlib
import json
import math
import sys
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


def _encode_values(values, pairs_key: str) -> dict:
    """``{"data": base64}`` of ``values`` as row-major little-endian
    ``complex128`` bytes, or ``{pairs_key: [[re, im], ...]}`` when one is not
    finite: base64 would carry NaN past the strict JSON writer."""
    values = np.ascontiguousarray(values, dtype="<c16")
    if not np.isfinite(values).all():
        return {pairs_key: [[float(z.real), float(z.imag)] for z in values.ravel()]}
    return {"data": binascii.b2a_base64(values.view("B"), newline=False).decode()}


def encode_matrix(matrix) -> dict:
    """Encode a dense or sparse operator for the document format."""
    if sparse.issparse(matrix):
        coo = matrix.tocoo()
        return {
            "sparse": {
                "shape": list(coo.shape),
                "rows": [int(r) for r in coo.row],
                "cols": [int(c) for c in coo.col],
                **_encode_values(coo.data, "vals"),
            }
        }
    dense = np.asarray(matrix, dtype=np.complex128)
    return {"dense": {"shape": list(dense.shape), **_encode_values(dense, "entries")}}


def _decode_values(body: dict, pairs_key: str, shape: tuple, where: str, take) -> np.ndarray:
    """The complex values of a matrix body as an array of ``shape``, from its
    base64 ``data`` (popped with ``take``) or its ``pairs_key`` pairs."""
    count = math.prod(shape)
    if "data" not in body:
        where = f"{where}.{pairs_key}"
        try:
            pairs = np.asarray(body.get(pairs_key, []), dtype=float)
            if pairs.ndim != 2 or pairs.shape[1] != 2:
                raise ValueError
        except (TypeError, ValueError):
            raise DocumentError(f"{where} must be a list of [re, im] pairs.")
        if len(pairs) != count:
            raise DocumentError(f"{where}: {len(pairs)} pairs, expected {count}.")
        # A view keeps the sign of zero parts, which ``re + 1j * im`` loses.
        return np.ascontiguousarray(pairs).view(np.complex128).reshape(shape)
    if pairs_key in body:
        raise DocumentError(f"{where}: give 'data' or '{pairs_key}', not both.")
    data = body.pop("data") if take else body["data"]
    if not isinstance(data, str):
        raise DocumentError(f"{where}.data must be a base64 string.")
    try:
        raw = binascii.a2b_base64(data, strict_mode=True)
    except ValueError:  # binascii.Error, or text that is not ASCII
        raise DocumentError(f"{where}.data: invalid base64.")
    if len(raw) != 16 * count:
        raise DocumentError(
            f"{where}.data: {len(raw)} bytes, expected {16 * count} "
            f"for {count} complex128 values."
        )
    return np.frombuffer(raw, "<c16").reshape(shape)


def _typed(value, kind: type, where: str):
    """``value`` if it is a JSON list or object, else a `DocumentError`."""
    if not isinstance(value, kind):
        article = "a list" if kind is list else "an object"
        raise DocumentError(f"{where} must be {article}.")
    return value


def _integers(value, where: str) -> tuple[int, ...]:
    """A JSON list of integers; booleans and floats are rejected.

    The type check runs in C: ``type(True)`` is ``bool``, not ``int``.
    """
    items = _typed(value, list, where)
    if not set(map(type, items)) <= {int}:
        raise DocumentError(f"{where} must be a list of integers.")
    return tuple(items)


def _reals(value, where: str) -> np.ndarray:
    """A JSON list of numbers; booleans and strings are rejected."""
    items = _typed(value, list, where)
    if not set(map(type, items)) <= {int, float}:
        raise DocumentError(f"{where} must be a list of numbers.")
    return np.asarray(items, dtype=float)


def _indices(value, size: int, where: str) -> np.ndarray:
    """A JSON list of integers in ``[0, size)``, checked as one array."""
    try:
        indices = np.array(_integers(value, where), dtype=np.int64)
        valid = indices.size == 0 or (indices.min() >= 0 and indices.max() < size)
    except OverflowError:  # beyond int64, so beyond any shape
        valid = False
    if not valid:
        raise DocumentError(f"{where}: indices must lie in [0, {size}).")
    return indices


def decode_matrix(spec: dict, where: str = "matrix"):
    """Decode a matrix: a sparse operator, or an array that owns its memory."""
    matrix = _decode(spec, where)
    return matrix if sparse.issparse(matrix) else matrix.copy()


def _decode(spec: dict, where: str, take: bool = False):
    """`decode_matrix`, dense as a read-only view; ``take`` drops the text."""
    _typed(spec, dict, where)
    kind = next((k for k in ("dense", "sparse") if k in spec), None)
    if kind is None:
        raise DocumentError(f"{where}: must contain 'dense' or 'sparse'.")
    where = f"{where}.{kind}"
    body = _typed(spec[kind], dict, where)
    shape = _integers(body.get("shape", []), f"{where}.shape")
    if len(shape) != 2 or min(shape) < 0:
        raise DocumentError(f"{where}: shape must have two non-negative entries.")
    if kind == "dense":
        return _decode_values(body, "entries", shape, where, take)
    rows = _indices(body.get("rows", []), shape[0], f"{where}.rows")
    cols = _indices(body.get("cols", []), shape[1], f"{where}.cols")
    if len(rows) != len(cols):
        raise DocumentError(f"{where}: rows and cols lengths differ.")
    vals = _decode_values(body, "vals", rows.shape, where, take)
    return sparse.coo_matrix((vals, (rows, cols)), shape=shape).tocsr()


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
    if tol_degeneracy is not None:
        doc["options"] = {"tol_degeneracy": float(tol_degeneracy)}
    return doc


def write_document(doc: dict, path=None):
    """Write ``doc`` as strict JSON and a newline to ``path``, or to standard
    output when no path is given. NaN or infinity raises `ValueError`."""
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as handle:
        json.dump(doc, handle, allow_nan=False)
        handle.write("\n")


def _read_json(path) -> dict:
    try:
        with open(path, "rb") as handle:  # decoded once, and parsed as one str
            return json.loads(handle.read().decode("utf-8"))
    except OSError as exc:
        raise DocumentError(f"Cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON.")


def load_problem(path, tol_override: float | None = None) -> tuple[PerturbationProblem, dict]:
    """A document's perturbation problem, and the document without base64 text."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise DocumentError(f"{path}: document must be a JSON object.")
    if doc.get("format") != FORMAT_VERSION:
        raise DocumentError(
            f"{path}: unsupported format {doc.get('format')!r}; "
            f"expected {FORMAT_VERSION}."
        )
    try:
        h0 = _decode(doc["h0"], "h0", take=True)
    except KeyError:
        raise DocumentError(f"{path}: missing 'h0'.")
    perturbations, positions = {}, {}
    items = _typed(doc.get("perturbations", []), list, f"{path}: perturbations")
    for k, item in enumerate(items):
        where = f"perturbations[{k}]"
        if not isinstance(item, dict) or "order" not in item or "matrix" not in item:
            raise DocumentError(f"{path}: {where} needs 'order' and 'matrix'.")
        order = _integers(item["order"], f"{path}: {where}.order")
        if any(n < 0 for n in order) or not any(order):
            raise DocumentError(f"{path}: {where} has invalid order {order}.")
        if order in positions:
            raise DocumentError(
                f"{path}: perturbations[{positions[order]}] and {where} both "
                f"have order {list(order)}."
            )
        positions[order] = k
        perturbations[order] = _decode(item["matrix"], where, take=True)
    if not perturbations:
        raise DocumentError(f"{path}: at least one perturbation is required.")
    param_names = doc.get("param_names")
    if param_names is not None:
        n_params = len(next(iter(perturbations)))
        if not (
            isinstance(param_names, list)
            and all(isinstance(name, str) for name in param_names)
            and len(set(param_names)) == len(param_names) == n_params
        ):
            raise DocumentError(
                f"{path}: param_names must be {n_params} distinct string(s), "
                "one per parameter."
            )
        param_names = tuple(param_names)
    options = _typed(doc.get("options", {}), dict, f"{path}: options")
    tol = tol_override if tol_override is not None else options.get("tol_degeneracy")
    if tol is not None and (isinstance(tol, bool) or not isinstance(tol, (int, float))):
        raise DocumentError(f"{path}: options.tol_degeneracy must be a number.")
    subspaces = _typed(doc.get("subspaces", {}), dict, f"{path}: subspaces")
    if len(subspaces) != 1:
        raise DocumentError(
            f"{path}: exactly one subspace definition is required, "
            f"got {sorted(subspaces)}."
        )
    masks = None
    if "fully_diagonalize" in doc:
        masks = {}
        where = f"{path}: fully_diagonalize"
        for label, mask in _typed(doc["fully_diagonalize"], dict, where).items():
            try:
                masks[int(label)] = np.asarray(mask, dtype=bool)
            except (TypeError, ValueError):
                raise DocumentError(f"{path}: bad mask for block {label}.")
    if "indices" in subspaces:
        problem = PerturbationProblem.from_diagonal(
            h0,
            perturbations,
            _integers(subspaces["indices"], f"{path}: subspaces.indices"),
            masks=masks,
            tolerance=tol,
            param_names=param_names,
        )
    elif "eigenvectors" in subspaces:
        where = f"{path}: subspaces.eigenvectors"
        vectors = [
            _decode(v, f"subspaces.eigenvectors[{k}]", take=True)
            for k, v in enumerate(_typed(subspaces["eigenvectors"], list, where))
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
        where = "subspaces.implicit"
        body = _typed(subspaces["implicit"], dict, f"{path}: {where}")
        vectors = body.get("explicit_vectors")
        vectors = _decode(vectors, f"{where}.explicit_vectors", take=True)
        if sparse.issparse(vectors):
            vectors = vectors.toarray()
        energies = _reals(body.get("eigenvalues", []), f"{path}: {where}.eigenvalues")
        problem = build_extended_problem(
            h0, perturbations, vectors, energies, param_names=param_names
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
