"""Construction of the unitary series and the effective Hamiltonian.

Given a perturbation problem with unperturbed operator ``H_0`` (diagonal in
the decoupling basis) and Hermitian perturbations keyed by order
multi-index, this module wires a set of mutually recursive block series that
produce the transformed Hamiltonian ``H_tilde = U^H H U`` with vanishing
remaining part, together with ``U = 1 + W + V`` and its adjoint.

The recurrences avoid any product with ``H_0`` and use a single Cauchy
product by the selected part of the perturbation. ``W = -(U'^H U') / 2``
from unitarity is made by the shared product kernel
`blockpert.series.contract` with its Hermitian half-product option. With
``A = H'_R U'``, ``M = A - U'^H B`` and the commutator
``[V, H'_S] = V H'_S + (V H'_S)^H``, one bracket
``G = (M + M^H)/2 - [V, H'_S]`` gives the rest:

- ``H_tilde = H'_S + G_S``,
- ``B = -(U'^H B + G_S)``,
- ``V`` from the Sylvester equation ``[V, H_0] = RHS`` with
  ``RHS = (H + G)_R``. When there are exactly two whole blocks,
  ``M_01 = M_10^H``, so ``RHS = (H + M - [V, H'_S])_R`` holds too; this
  form needs no adjoint-partner products. The right-hand side is handed to
  the solver and not stored, nor are ``A`` and ``V H'_S``, which only the
  bracket reads. ``G`` is stored on the diagonal blocks, read by ``B`` and
  ``H_tilde``.

In the eigenbasis the Sylvester solution is elementwise,
``V_kl = RHS_kl / (E_l - E_k)`` on remaining elements, and ``V_S = 0``.

Since ``W`` is Hermitian, ``U'^H`` is the stored ``W`` on a diagonal block
where ``V`` is zero. Entries that the recurrences derive from another stored
entry are `~blockpert.operators.Reference`s to it, not copies: ``W_ji = W_ij^H`` and
``V_ji = -V_ij^H`` below the diagonal, ``U'^H_ij = U'_ji^H`` elsewhere,
``B = -U'^H B`` where nothing is selected, and ``B = -G_S`` where
``U'^H B`` is zero, as a factored entry that shares ``G_S``'s core on a
factored block. Small entries, below `~blockpert.operators.REFERENCE_MIN_SIZE`
elements, are copied. The output series ``H_tilde``, ``U`` and ``U^H`` hand
out arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import scipy.sparse as sparse
from scipy.sparse.linalg import LinearOperator

from blockpert.operators import (
    REFERENCE_MIN_SIZE,
    LargeBlockBasis,
    One,
    OperationCounter,
    Reference,
    Zero,
    add,
    adjoint,
    as_dense,
    matmul,  # not called here; the benchmark tracer swaps this name
    one,
    scale,
    to_array,
    zero,
)
from blockpert.separation import (
    SeparationRule,
    check_rule,
    degeneracy_tolerance,
    remain,
    require_tolerance,
    select,
)
from blockpert.series import (
    BlockSeries,
    NonFiniteError,
    _memo_value,
    cauchy_product,
    contract,
    orders_up_to,
)

__all__ = [
    "PerturbationProblem",
    "DiagonalizationResult",
    "block_diagonalize",
    "make_eigenbasis_solver",
    "transform_observable",
    "evaluate_truncated",
]

HERMITICITY_RTOL = 1e-10
ORTHONORMALITY_ATOL = 1e-10

# An explicit diagonal block without a mask is kept factored, like a large
# block, when it holds at least this many times the states of all other
# blocks together. H-tilde[0, 0] of random_two_block(m, N, 1), dense
# against factored, two runs each on a 2-vCPU Xeon with one BLAS thread:
# - N/m = 10, 100+1000 to order 6: 0.98-1.02 against 0.58 s;
# - N/m = 8, 125+1000: 1.02-1.04 against 0.75-0.82 s to order 6, and
#   7.1-7.3 against 4.5-5.1 s to order 10;
# - N/m = 5, 200+1000 to order 6: 1.27-1.62 against 1.57-1.81 s, no gain;
# - below, a loss: 300+1000 to order 6, 1.9-2.1 against 3.2-3.3 s, and
#   100+400 to order 8, 0.32-0.39 against 0.40-0.50 s.
# Two parameters, whole order box, three runs each: 20+1000 to (3, 3),
# 1.37-1.39 against 0.12 s; 125+1000 to (3, 3), 2.56-2.66 against 2.57-2.65 s.
FACTOR_RATIO = 8

# Dense inputs of more rows than this are checked in tiles of this many rows
# and columns (`_max_abs`, `_hermitian_defect`) instead of through temporaries
# of their own size. `_check_operand` on a random Hermitian 1100 x 1100
# complex matrix took 9.5 ms whole, and 5.6, 5.6 and 6.0 ms in tiles of 64,
# 128 and 256 (2704 x 2704: 97 ms against 35, 32 and 34 ms), on a 2-vCPU
# Xeon with one BLAS thread.
CHECK_TILE = 128

SylvesterSolver = Callable[[Any, tuple[int, int], tuple[int, ...]], Any]


def _max_abs(matrix) -> float:
    """Largest entry magnitude of a dense or sparse operator.

    NaN or infinite exactly when some entry is not finite. An ndarray of
    more than ``CHECK_TILE**2`` entries is read in slabs of about that many
    along its first axis, so no temporary has its size.
    """
    entries = matrix.tocoo().data if sparse.issparse(matrix) else np.asarray(matrix)
    if entries.size <= CHECK_TILE**2:
        return float(np.abs(entries).max(initial=0.0))
    step = max(1, CHECK_TILE**2 * len(entries) // entries.size)
    slabs = [np.abs(entries[a : a + step]).max() for a in range(0, len(entries), step)]
    return float(np.max(slabs))  # np.max, unlike max(), keeps a NaN


def _hermitian_defect(matrix) -> float:
    """``max |M - Mᴴ|`` of a dense or sparse operator. A square ndarray of
    more than `CHECK_TILE` rows is compared one pair of mirrored square
    tiles at a time, so no temporary has its size."""
    if not (
        type(matrix) is np.ndarray
        and matrix.ndim == 2
        and CHECK_TILE < len(matrix) == matrix.shape[1]
    ):
        return _max_abs(matrix - matrix.conj().T)
    tiles = [slice(a, a + CHECK_TILE) for a in range(0, len(matrix), CHECK_TILE)]
    defects = [
        np.abs(matrix[rows, cols] - matrix[cols, rows].conj().T).max()
        for k, rows in enumerate(tiles)
        for cols in tiles[k:]
    ]
    return float(np.max(defects))  # np.max, unlike max(), keeps a NaN


def _value_dtype(*operands) -> type:
    """A problem's dtype: ``float64`` if no dense or sparse input has a non-zero
    imaginary part, else ``complex128``. Read in slabs up to the first that has."""
    for x in operands:
        entries = np.atleast_1d(x.tocoo().data if sparse.issparse(x) else x)
        step = max(1, CHECK_TILE**2 * len(entries) // max(1, entries.size))
        if np.iscomplexobj(entries) and any(
            entries[a : a + step].imag.any() for a in range(0, len(entries), step)
        ):
            return np.complex128
    return np.float64


def _require_finite(matrix, what: str):
    if not math.isfinite(_max_abs(matrix)):
        raise ValueError(f"{what} has non-finite entries.")


def _require_orthonormal(vectors: np.ndarray, what: str):
    """Reject columns that are not finite or not orthonormal."""
    _require_finite(vectors, what)
    gram = vectors.conj().T @ vectors
    if np.max(np.abs(gram - np.eye(gram.shape[0])), initial=0.0) > ORTHONORMALITY_ATOL:
        raise ValueError(f"{what} are not orthonormal.")


def _check_operand(matrix, what: str):
    """Reject a dense or sparse input that is non-finite or not Hermitian."""
    top = _max_abs(matrix)
    if not math.isfinite(top):
        raise ValueError(f"{what} has non-finite entries.")
    if _hermitian_defect(matrix) > HERMITICITY_RTOL * max(1.0, top):
        raise ValueError(
            f"{what} is not Hermitian; inputs are rejected rather than "
            "symmetrized."
        )


@dataclass
class PerturbationProblem:
    """Inputs of a block diagonalization in the decoupling basis.

    Blocks of the unperturbed operator and of every perturbation are stored
    per (block row, block column, order); exact zero blocks are dropped so
    that structural sparsity propagates through the series. Use the
    ``from_*`` constructors rather than filling fields by hand.

    ``eigenvalues`` holds the energies of each block, or ``None`` for the
    matrix-free complement of an implicit problem. Such a block is one of
    the `large_blocks`, and makes the problem `implicit`. ``tolerance`` is
    the gap below which two eigenvalues count as degenerate; the explicit
    constructors default it to `~blockpert.separation.degeneracy_tolerance`,
    and implicit problems, which carry their own ``solver``, have none.
    """

    eigenvalues: tuple[np.ndarray | None, ...]
    rule: SeparationRule
    n_params: int
    blocks: dict[tuple, Any]
    tolerance: float | None = None
    solver: SylvesterSolver | None = None
    param_names: tuple[str, ...] | None = None

    @property
    def large_blocks(self) -> frozenset[int]:
        """Labels of the blocks without eigenvalues, whose entries the
        engine keeps factored on one basis per block. Big explicit blocks
        are kept factored too (`FACTOR_RATIO`) but are not listed here:
        they have a dense form."""
        return frozenset(i for i, e in enumerate(self.eigenvalues) if e is None)

    @property
    def implicit(self) -> bool:
        return bool(self.large_blocks)

    @property
    def dtype(self) -> type:
        """``complex128`` if a stored block is complex, else ``float64``."""
        complex_block = any(map(np.iscomplexobj, self.blocks.values()))
        return np.complex128 if complex_block else np.float64

    @property
    def n_blocks(self) -> int:
        return self.rule.n_blocks

    @property
    def block_sizes(self) -> tuple[int, ...]:
        return self.rule.block_sizes

    @property
    def dimension(self) -> int:
        return sum(self.rule.block_sizes)

    def zero_order(self) -> tuple[int, ...]:
        return (0,) * self.n_params

    def block(self, i: int, j: int, order: tuple[int, ...]):
        """The entry of ``H`` at one block and order. ``blocks`` holds no
        order-0 entry of a block with eigenvalues: that is their diagonal,
        a new array on each call. A stored entry takes precedence."""
        value = self.blocks.get((i, j, order), zero)
        if value is zero and i == j and not any(order):
            energies = self.eigenvalues[i]
            if energies is not None:
                return np.diag(energies).astype(self.dtype, copy=False)
        return value

    @staticmethod
    def from_diagonal(
        h0_diagonal,
        perturbations: dict[tuple[int, ...], Any],
        subspace_indices,
        *,
        masks: dict[int, np.ndarray] | None = None,
        tolerance: float | None = None,
        param_names: tuple[str, ...] | None = None,
    ) -> "PerturbationProblem":
        """Problem from a diagonal ``H_0`` and per-state block labels.

        ``H_0`` is given by its diagonal or as a diagonal matrix, dense or
        sparse. A dense term is copied only to put it in block order or in
        the problem's dtype, and a sparse one is densified block by block.
        """
        h0 = h0_diagonal
        h0 = h0.tocsr() if sparse.issparse(h0) else np.asarray(h0)
        _require_finite(h0, "H_0")
        if h0.ndim == 2:
            h0 = _diagonal(
                h0,
                1e-12,
                "H_0 must be numerically diagonal in the decoupling basis; "
                "pre-diagonalize or pass subspace eigenvectors.",
            )
        if np.max(np.abs(np.imag(h0)), initial=0.0) > 1e-12:
            raise ValueError("H_0 has non-real diagonal entries.")
        energies = np.real(h0).astype(float)
        indices = np.asarray(subspace_indices, dtype=int)
        if len(indices) != len(energies):
            raise ValueError("subspace_indices length does not match H_0.")
        labels = sorted(set(indices.tolist()))
        if labels != list(range(len(labels))):
            raise ValueError("Block labels must be 0..b-1 without gaps.")
        permutation = np.argsort(indices, kind="stable")
        in_order = np.all(indices[:-1] <= indices[1:])
        return _explicit_problem(
            energies[permutation],
            perturbations,
            tuple(int(np.sum(indices == label)) for label in labels),
            lambda term: term if in_order else term[np.ix_(permutation, permutation)],
            _value_dtype(*perturbations.values()),
            masks,
            tolerance,
            param_names,
        )

    @staticmethod
    def from_eigenvectors(
        h0,
        perturbations: dict[tuple[int, ...], Any],
        subspace_eigenvectors,
        *,
        masks: dict[int, np.ndarray] | None = None,
        tolerance: float | None = None,
        param_names: tuple[str, ...] | None = None,
    ) -> "PerturbationProblem":
        """Problem from orthonormal eigenvector groups of ``H_0``.

        The eigenvector groups span the subspaces to decouple; jointly they
        must form an orthonormal basis in which ``H_0`` is diagonal.
        """
        groups = [as_dense(v) for v in subspace_eigenvectors]
        for k, group in enumerate(groups):
            _require_finite(group, f"Eigenvector group {k}")
        basis = np.hstack(groups)
        if basis.shape[1] != basis.shape[0]:
            raise ValueError(
                "Eigenvector groups must jointly span the full space; for a "
                "partial basis use the implicit mode."
            )
        _require_orthonormal(basis, "Subspace eigenvectors")
        h0 = h0.tocsr() if sparse.issparse(h0) else as_dense(h0)
        if h0.shape != basis.shape:
            raise ValueError(f"H_0 has shape {h0.shape}, the basis {basis.shape}.")
        _check_operand(h0, "H_0")
        dtype = _value_dtype(*perturbations.values(), h0, basis)
        basis = as_dense(basis, dtype)
        adjoint_basis = basis.conj().T
        energies = _diagonal(
            adjoint_basis @ h0 @ basis,
            1e-8,
            "H_0 is not diagonal in the provided basis; the eigenbasis "
            "Sylvester solver requires a diagonalizing basis.",
        ).real.astype(float)
        return _explicit_problem(
            energies,
            perturbations,
            tuple(g.shape[1] for g in groups),
            lambda term: adjoint_basis @ term @ basis,
            dtype,
            masks,
            tolerance,
            param_names,
        )


def _diagonal(h0, rtol: float, message: str) -> np.ndarray:
    """The diagonal of a square dense or sparse ``h0``, or `ValueError` with
    ``message`` where an entry off it exceeds ``rtol · max(1, max |h0|)``."""
    if h0.ndim != 2 or h0.shape[0] != h0.shape[1]:
        raise ValueError(f"H_0 must be square, got shape {h0.shape}.")
    diagonal = h0.diagonal()
    if sparse.issparse(h0):
        offdiag = h0 - sparse.diags(diagonal)
    else:
        # The entries off the diagonal: n - 1 runs of n in the flat array.
        offdiag = np.ravel(h0)[1:].reshape(len(h0) - 1, len(h0) + 1)[:, : len(h0)]
    if _max_abs(offdiag) > rtol * max(1.0, _max_abs(h0)):
        raise ValueError(message)
    return diagonal


def _normalize_orders(perturbations: dict):
    normalized, n_params = {}, None
    for order, term in perturbations.items():
        if isinstance(order, (int, np.integer)):
            order = (int(order),)
        order = tuple(int(o) for o in order)
        if n_params is None:
            n_params = len(order)
        if len(order) != n_params:
            raise ValueError("Perturbation orders have inconsistent lengths.")
        if not any(order):
            raise ValueError("Order 0 is reserved for H_0.")
        if order in normalized:
            raise ValueError(f"Perturbation order {order} is given more than once.")
        normalized[order] = term
    if n_params is None:
        raise ValueError("At least one perturbation term is required.")
    return normalized, n_params


def _assemble(perturbations: dict, n: int, pieces, dtype) -> tuple[dict, int]:
    """The blocks of the perturbation terms, and the parameter count. Each
    term, as CSR or an ndarray, real where ``dtype`` is, must be ``n x n``,
    finite and Hermitian; ``pieces(term)`` cuts it into ``((i, j), block)``
    with ``i <= j``, and all-zero arrays are dropped. As the recurrences take
    ``H`` as exactly Hermitian, a lower block is the read-only upper one's
    `_reference` adjoint."""
    perturbations, n_params = _normalize_orders(perturbations)
    blocks: dict[tuple, Any] = {}
    for order, term in perturbations.items():
        if np.shape(term) != (n, n):
            raise ValueError(f"Perturbation at order {order} is not {n} x {n}.")
        term = term.tocsr() if sparse.issparse(term) else as_dense(term, dtype)
        term = term.real if dtype == np.float64 and np.iscomplexobj(term) else term
        _check_operand(term, f"Perturbation at order {order}")
        for (i, j), piece in pieces(term):
            if type(piece) is np.ndarray and not np.any(piece):
                continue
            blocks[(i, j, order)] = piece
            if i != j:
                piece.flags.writeable = False
                blocks[(j, i, order)] = _reference(piece, dagger=True)
    return blocks, n_params


def _explicit_problem(
    energies, perturbations, block_sizes, rotate, dtype, masks, tolerance, param_names
):
    """Problem of ``dtype`` from the energies of ``H_0`` in the decoupling basis,
    to which ``rotate`` takes a term; a block is a slice of the rotated term."""
    rule = SeparationRule(tuple(block_sizes), masks or {})
    splits = np.cumsum((0,) + rule.block_sizes)
    ranges = list(enumerate(slice(a, b) for a, b in zip(splits, splits[1:])))
    eigenvalues = tuple(energies[rows] for _, rows in ranges)
    if tolerance is None:
        tolerance = degeneracy_tolerance(eigenvalues)
    tolerance = require_tolerance(tolerance)

    def pieces(term):
        term = rotate(term)
        for i, rows in ranges:
            for j, cols in ranges[i:]:
                yield (i, j), as_dense(term[rows, cols], dtype)

    blocks, n_params = _assemble(perturbations, len(energies), pieces, dtype)
    return PerturbationProblem(
        eigenvalues=eigenvalues,
        rule=rule,
        n_params=n_params,
        blocks=blocks,
        tolerance=tolerance,
        param_names=param_names,
    )


def make_eigenbasis_solver(
    eigenvalues, rule: SeparationRule, tolerance: float
) -> SylvesterSolver:
    """Elementwise Sylvester solver in the eigenbasis of ``H_0``.

    Returns the solution of ``[V, H_0] = RHS`` restricted to remaining
    elements: ``V_kl = RHS_kl / (E_l - E_k)``, with ``V_S = 0`` enforced
    structurally. Divisions are elementwise and perform no matrix products.
    Raises `RuleValidationError` when built if a remaining pair is degenerate
    within ``tolerance``, so no solve divides by a vanishing denominator.
    """
    check_rule(rule, eigenvalues, tolerance)

    def solve(rhs, block, order):
        i, j = block
        denominators = eigenvalues[j][None, :] - eigenvalues[i][:, None]
        remaining = rule.remaining_mask(block)
        if remaining is None:
            return rhs / denominators
        safe = np.where(remaining, denominators, 1.0)
        return np.where(remaining, rhs / safe, 0.0)

    return solve


@dataclass
class DiagonalizationResult:
    """The three output series and their shared evaluation context.

    ``h_tilde``, ``u``, and ``u_adjoint`` share the memoized intermediate
    series stored in ``context``, so querying any of them reuses all
    products computed so far. ``counter`` tallies those products.
    """

    h_tilde: BlockSeries
    u: BlockSeries
    u_adjoint: BlockSeries
    problem: PerturbationProblem
    context: dict[str, BlockSeries]
    counter: OperationCounter


def block_diagonalize(
    problem: PerturbationProblem,
    solver: SylvesterSolver | None = None,
    *,
    counter: OperationCounter | None = None,
) -> DiagonalizationResult:
    """Set up the lazily evaluated block diagonalization of a problem.

    This only defines the computation; querying entries of the returned
    series triggers the recurrences. The default solver divides by energy
    denominators in the eigenbasis; implicit problems carry their own
    solver. A custom ``solver(rhs, block, order)`` receives the remaining
    part of the right-hand side as a read-only ndarray of the problem's
    `~PerturbationProblem.dtype`, and returns the solution block as a dense
    or sparse matrix, which is converted to that dtype. A complex solution
    of a real problem raises `ValueError`. Every product is tallied in
    ``counter``, a new one unless given, which the result exposes as
    ``result.counter``.

    An explicit problem is checked once, whichever solver it uses, and
    raises `~blockpert.separation.RuleValidationError` if a remaining pair
    of states is degenerate within ``problem.tolerance``: the default
    solver's factory makes that check, and a caller's ``solver`` gets it
    here. Implicit problems are not checked; their solver owns the gap.
    """
    if solver is None:
        solver = problem.solver
    if solver is None:
        if problem.implicit:
            raise ValueError("Problem carries no eigenvalues and no solver.")
        solver = make_eigenbasis_solver(
            problem.eigenvalues, problem.rule, problem.tolerance
        )
    elif not problem.implicit:
        check_rule(problem.rule, problem.eigenvalues, problem.tolerance)
    if counter is None:
        counter = OperationCounter()
    context = _build_series(problem, solver, counter)
    return DiagonalizationResult(
        h_tilde=context["H_tilde"],
        u=context["U"],
        u_adjoint=context["U†"],
        problem=problem,
        context=context,
        counter=counter,
    )


def _reference(a, sign: int = 1, dagger: bool = False):
    """``sign · a``, or ``sign · aᴴ`` with ``dagger``, of a stored entry
    ``a``, as a `~blockpert.operators.Reference` to its array where that
    holds at least `REFERENCE_MIN_SIZE` elements or ``a`` is a reference
    (chains collapse to the final source); by `scale` otherwise."""
    if type(a) is Reference:
        return Reference(sign * a.sign, dagger != a.adjoint, a.source)
    if type(a) is np.ndarray and a.size >= REFERENCE_MIN_SIZE:
        return Reference(sign, dagger, a)
    return scale(adjoint(a) if dagger else a, sign)


def _factored_blocks(problem: PerturbationProblem) -> frozenset[int]:
    """The blocks whose entries the engine keeps factored: the large
    blocks and each explicit block without a mask that holds at least
    `FACTOR_RATIO` times the states of all other blocks together."""
    sizes = problem.block_sizes
    return problem.large_blocks | {
        label
        for label, size in enumerate(sizes)
        if label not in problem.rule.masks
        and FACTOR_RATIO * (sum(sizes) - size) <= size
    }


def _build_series(
    problem: PerturbationProblem,
    solver: SylvesterSolver,
    counter: OperationCounter,
) -> dict[str, BlockSeries]:
    rule = problem.rule
    b = rule.n_blocks
    n_params = problem.n_params
    dtype = problem.dtype
    two_block = b == 2 and not rule.masks
    # One basis per factored block and run; its entries are factored on it.
    large = {
        label: LargeBlockBasis(rule.block_sizes[label])
        for label in _factored_blocks(problem)
    }
    # A big explicit block is factored inside the run only: H-tilde, U and
    # U-dagger hand out its entries as ndarrays, like those of any explicit
    # block, and products with them, as in transform_observable, are dense.
    explicit = large.keys() - problem.large_blocks
    outer = {label: basis for label, basis in large.items() if label not in explicit}

    def make(name, eval, large_blocks=large, support=None):
        return BlockSeries(
            eval=eval,
            shape=(b, b),
            n_params=n_params,
            name=name,
            param_names=problem.param_names,
            large_blocks=large_blocks,
            support=support,
        )

    def make_output(name, eval):
        def dense(i, j, *n):
            value = eval(i, j, *n)
            if type(value) is Reference or (
                i == j and i in explicit and isinstance(value, LinearOperator)
            ):
                value = to_array(value)
            # Sparse products and LU solves run in scipy's compiled code,
            # which numpy's error state does not see.
            if type(value) is np.ndarray and not np.isfinite(value).all():
                raise NonFiniteError("it holds inf or NaN")
            return value

        return make(name, dense, outer)

    # H is non-zero at the input's orders and at order 0 on the diagonal, H'
    # at those orders n != 0, and H'_S and H'_R only where the rule keeps such
    # a part. None of the three is evaluated outside these supports.
    orders = {(i, i): {problem.zero_order()} for i in range(b)}
    for (i, j, order), value in problem.blocks.items():
        if not isinstance(value, Zero):
            orders.setdefault((i, j), set()).add(order)
    perturbation = {k: {n for n in v if any(n)} for k, v in orders.items()}
    H = make("H", lambda i, j, *n: problem.block(i, j, n), support=orders)
    Hp_S = make(
        "H'_S",
        lambda i, j, *n: select(H.get((i, j), n), rule, (i, j)),
        support={k: v for k, v in perturbation.items() if rule.has_selected_part(k)},
    )
    Hp_R = make(
        "H'_R",
        lambda i, j, *n: remain(H.get((i, j), n), rule, (i, j)),
        support={k: v for k, v in perturbation.items() if rule.has_remaining_part(k)},
    )

    # The callbacks close over series made below; none runs before all exist.
    def eval_W(i, j, *n):
        if not any(n):
            return zero
        if two_block and i != j:
            # With two whole blocks the Hermitian part of U' is block
            # diagonal, so these entries vanish identically.
            return zero
        if i > j:
            return _reference(W.get((j, i), n), dagger=True)
        return scale(contract(Up_adj, Up, (i, j), n, counter, hermitian=i == j), -0.5)

    def eval_V(i, j, *n):
        if not any(n):
            return zero
        if i > j:
            return _reference(V.get((j, i), n), -1, dagger=True)
        if not rule.has_remaining_part((i, j)):
            return zero
        # Two whole blocks have M_01 = M_10†: no adjoint-partner products.
        g = G.get((i, j), n) if i == j else bracket(i, j, n, not two_block)
        rhs = remain(add(H.get((i, j), n), g), rule, (i, j))
        if isinstance(rhs, Zero):
            return zero
        solution = solver(_memo_value(rhs), (i, j), tuple(n))
        return as_dense(solution, dtype, f"The solution of block {(i, j)} at order {n}")

    def eval_Up(i, j, *n):
        if not any(n):
            return zero
        return add(W.get((i, j), n), V.get((i, j), n))

    def eval_Up_adjoint(i, j, *n):
        # U'†_ij = U'_jiᴴ: the Hermitian W itself where V is zero, else a reference.
        if not any(n):
            return zero
        if i == j and V.get((i, j), n) is zero:
            return W.get((i, j), n)
        return _reference(Up.get((j, i), n), dagger=True)

    def bracket(i, j, n, hermitian=True):
        """``G_ij``, or ``M_ij - [V, H'_S]_ij`` when not ``hermitian``."""

        def m(k, l):
            a = contract(Hp_R, Up, (k, l), n, counter)
            return add(a, scale(UdB.get((k, l), n), -1))

        mixed = m(i, j)
        if hermitian:
            mixed = scale(add(mixed, adjoint(mixed if i == j else m(j, i))), 0.5)
        vhs = contract(V, Hp_S, (i, j), n, counter)
        partner = vhs if i == j else contract(V, Hp_S, (j, i), n, counter)
        return add(mixed, scale(add(vhs, adjoint(partner)), -1))

    def eval_B(i, j, *n):
        if not any(n):
            return zero
        product = UdB.get((i, j), n)
        if not rule.has_selected_part((i, j)):
            return _reference(product, -1)
        if product is not zero:
            return scale(add(product, G_S.get((i, i), n)), -1)
        return _reference(G_S.get((i, i), n), -1)  # -G_S

    def eval_H_tilde(i, j, *n):
        if not any(n):
            return H.get((i, j), n)
        if not rule.has_selected_part((i, j)):
            # The remaining part cancels by construction and is never
            # evaluated as a numeric residual.
            return zero
        return add(Hp_S.get((i, j), n), G_S.get((i, j), n))

    def identity_plus(part):
        """``1 + part``: ``U`` from ``U'`` and ``U†`` from ``U'†``."""

        def eval(i, j, *n):
            return part.get((i, j), n) if any(n) else (one if i == j else zero)

        return eval

    W = make("W", eval_W)
    V = make("V", eval_V)
    Up = make("U'", eval_Up)
    Up_adj = make("U'†", eval_Up_adjoint)
    G = make("G", lambda i, j, *n: bracket(i, j, n))
    G_S = make("G_S", lambda i, j, *n: select(G.get((i, j), n), rule, (i, j)))
    B = make("B", eval_B)
    UdB = cauchy_product(Up_adj, B, name="U'†B", counter=counter)
    H_tilde = make_output("H_tilde", eval_H_tilde)
    U = make_output("U", identity_plus(Up))
    U_adj = make_output("U†", identity_plus(Up_adj))
    series = (H, Hp_S, Hp_R, W, V, Up, Up_adj, G, G_S, UdB, B, H_tilde, U, U_adj)
    return {s.name: s for s in series}


def transform_observable(
    result: DiagonalizationResult, observable: BlockSeries
) -> BlockSeries:
    """Transformed observable ``U^H O U`` as a lazily evaluated series.

    Shares the memoized ``U`` entries of the diagonalization, so repeated
    transformations reuse the unitary's products, and tallies its products
    in ``result.counter``. Dense or sparse entries of ``observable`` are
    converted to ndarrays of their own dtype when first used.
    """
    if observable.shape != (result.problem.n_blocks,) * 2:
        raise ValueError(
            f"Observable block shape {observable.shape} does not match the "
            f"problem's {result.problem.n_blocks} blocks."
        )
    if observable.n_params != result.problem.n_params:
        raise ValueError("Observable has a different number of parameters.")

    def eval_operand(i, j, *n):
        value = observable.get((i, j), n)
        structural = isinstance(value, (Zero, One, LinearOperator))
        return value if structural else as_dense(value)

    operand = BlockSeries(
        eval_operand, observable.shape, observable.n_params, name=observable.name
    )
    counter = result.counter
    inner = cauchy_product(
        operand, result.u, name=f"{observable.name}·U", counter=counter
    )
    return cauchy_product(result.u_adjoint, inner, name="U†OU", counter=counter)


def evaluate_truncated(
    series: BlockSeries,
    block: tuple[int, int],
    max_orders: tuple[int, ...],
    values,
    shape: tuple[int, int] | None = None,
) -> np.ndarray:
    """Sum of series terms up to ``max_orders`` at parameter points.

    Points ``values`` of shape ``(..., k)`` give dense blocks of shape
    ``(..., rows, cols)``: the non-zero terms are stacked once and contracted
    with the weights of all points in one product. Structural ``one`` terms
    are materialized with the block's shape, taken from ``shape`` or from
    the other terms; ``shape`` is needed only when no term carries it.
    Raises `ValueError`, naming the points, where the weights or the sum
    overflow.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim == 0 or values.shape[-1] != series.n_params:
        raise ValueError("Need one parameter value per perturbation parameter.")
    if not np.isfinite(values).all():
        raise ValueError("Parameter values must be finite.")
    entries = np.ma.ravel(series[(*block, *(slice(n + 1) for n in max_orders))])
    present = ~np.ma.getmaskarray(entries)
    if not present.any():
        if shape is None:
            raise ValueError("All terms are structurally zero; pass an explicit shape.")
        return np.zeros(values.shape[:-1] + tuple(shape))
    orders = np.array(list(orders_up_to(max_orders)))[present]
    terms = entries.compressed()
    if shape is None:
        shape = next((t.shape for t in terms if not isinstance(t, One)), None)
    terms = np.stack([to_array(term, shape) for term in terms])
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.prod(values[..., None, :] ** orders, axis=-1)
        total = np.tensordot(weights, terms, axes=1)
    bad = values[~(np.isfinite(weights).all(-1) & np.isfinite(total).all((-2, -1)))]
    if len(bad):
        raise ValueError(
            f"The truncated series is not finite at {len(bad)} parameter "
            f"point(s), starting with {bad[:3].tolist()}."
        )
    return total


def eigenvalues_of_truncation(
    result: DiagonalizationResult,
    block: int,
    max_orders: tuple[int, ...],
    values,
) -> np.ndarray:
    """Ascending eigenvalues ``(..., size)`` of the truncated block at ``(..., k)``."""
    size = result.problem.block_sizes[block]
    effective = evaluate_truncated(
        result.h_tilde, (block, block), max_orders, values, shape=(size, size)
    )
    return _hermitian_eigenvalues(effective)


def _hermitian_eigenvalues(blocks: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of truncated blocks ``(..., size, size)``;
    `ValueError`, naming the defect, where they are not Hermitian."""
    asymmetry = _max_abs(blocks - blocks.conj().swapaxes(-1, -2))
    defect = asymmetry / max(1.0, _max_abs(blocks))
    if not defect <= 1e-8:
        raise ValueError(f"The truncated block is not Hermitian (defect {defect:.3g}).")
    return np.linalg.eigvalsh(blocks)
