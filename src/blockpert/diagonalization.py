"""Construction of the unitary series and the effective Hamiltonian.

Given a perturbation problem with unperturbed operator ``H_0`` (diagonal in
the decoupling basis) and Hermitian perturbations keyed by order
multi-index, this module wires a set of mutually recursive block series that
produce the transformed Hamiltonian ``H_tilde = U^H H U`` with vanishing
remaining part, together with ``U = 1 + W + V`` and its adjoint.

The recurrences avoid any product with ``H_0`` and use a single Cauchy
product by the selected part of the perturbation:

- ``W = -(U'^H U') / 2`` from unitarity,
- ``A = H'_R U'``, the term reused by several series,
- ``B`` with remaining part ``-(U'^H B)_R`` and selected part
  ``[-(U'^H B - h.c.)/2 - (A + h.c.)/2 + (V H'_S + h.c.)]_S``,
- ``V`` from the Sylvester equation ``[V, H_0] = RHS`` with
  ``RHS = (B + H' + A - [V, H'_S])_R`` when there are exactly two
  whole blocks, and the equivalent Hermitian form
  ``RHS = (H'_R + (A + h.c.)/2 - (U'^H B + h.c.)/2 - [V, H'_S])_R``
  otherwise,
- ``H_tilde = H_S + [A - U'^H B - 2 V H'_S + h.c.]_S / 2``.

In the eigenbasis the Sylvester solution is elementwise,
``V_kl = RHS_kl / (E_l - E_k)`` on remaining elements, and ``V_S = 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product as cartesian
from typing import Any, Callable

import numpy as np
import scipy.sparse as sparse

from blockpert.operators import (
    OperationCounter,
    Zero,
    add,
    adjoint,
    as_dense,
    matmul,
    one,
    scale,
    to_array,
    zero,
)
from blockpert.separation import (
    EigenstructureInfo,
    SeparationRule,
    check_rule,
    remain,
    select,
)
from blockpert.series import BlockSeries, cauchy_product, orders_up_to, series_adjoint

__all__ = [
    "PerturbationProblem",
    "DiagonalizationResult",
    "DegenerateSubspaceError",
    "block_diagonalize",
    "make_eigenbasis_solver",
    "transform_observable",
    "evaluate_truncated",
]

HERMITICITY_RTOL = 1e-10

SylvesterSolver = Callable[[Any, tuple[int, int], tuple[int, ...]], Any]


class DegenerateSubspaceError(ValueError):
    """A Sylvester denominator between remaining states vanished."""

    def __init__(self, block, pairs, tolerance):
        self.block = block
        self.pairs = pairs
        listing = ", ".join(str(p) for p in pairs[:10])
        super().__init__(
            f"Degenerate denominators in block {block} at state pairs "
            f"[{listing}] (tolerance {tolerance:.3e})."
        )


def _max_abs(matrix) -> float:
    """Largest entry magnitude of a dense or sparse operator.

    NaN or infinite exactly when some entry is not finite.
    """
    entries = matrix.tocoo().data if sparse.issparse(matrix) else np.asarray(matrix)
    return float(np.abs(entries).max(initial=0.0))


def _require_finite(matrix, what: str):
    if not math.isfinite(_max_abs(matrix)):
        raise ValueError(f"{what} has non-finite entries.")


def _check_operand(matrix, what: str):
    """Reject a dense or sparse input that is non-finite or not Hermitian."""
    top = _max_abs(matrix)
    if not math.isfinite(top):
        raise ValueError(f"{what} has non-finite entries.")
    if _max_abs(matrix - matrix.conj().T) > HERMITICITY_RTOL * max(1.0, top):
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
    """

    eigenvalues: tuple[np.ndarray | None, ...]
    rule: SeparationRule
    n_params: int
    blocks: dict[tuple, Any]
    eig: EigenstructureInfo | None
    implicit: bool = False
    solver: SylvesterSolver | None = None
    large_blocks: frozenset[int] = frozenset()
    param_names: tuple[str, ...] | None = None
    implicit_context: Any = None

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
        return self.blocks.get((i, j, order), zero)

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
        sparse. Operators are put in block order by indexing, and sparse ones
        are densified block by block only.
        """
        h0 = h0_diagonal
        h0 = h0.tocsr() if sparse.issparse(h0) else np.asarray(h0)
        _require_finite(h0, "H_0")
        if h0.ndim == 2:
            diagonal = h0.diagonal()
            if sparse.issparse(h0):
                offdiag = h0 - sparse.diags(diagonal)
            else:
                offdiag = h0 - np.diag(diagonal)
            if _max_abs(offdiag) > 1e-12 * max(1.0, _max_abs(h0)):
                raise ValueError(
                    "H_0 must be numerically diagonal in the decoupling basis; "
                    "pre-diagonalize or pass subspace eigenvectors."
                )
            h0 = diagonal
        energies = np.real_if_close(h0)
        if np.max(np.abs(np.imag(energies)), initial=0.0) > 1e-12:
            raise ValueError("H_0 has non-real diagonal entries.")
        energies = np.real(energies).astype(float)
        indices = np.asarray(subspace_indices, dtype=int)
        if len(indices) != len(energies):
            raise ValueError("subspace_indices length does not match H_0.")
        labels = sorted(set(indices.tolist()))
        if labels != list(range(len(labels))):
            raise ValueError("Block labels must be 0..b-1 without gaps.")
        permutation = np.argsort(indices, kind="stable")
        return _assemble_explicit(
            energies[permutation],
            perturbations,
            tuple(int(np.sum(indices == label)) for label in labels),
            lambda term: term[np.ix_(permutation, permutation)],
            masks or {},
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
        n = basis.shape[0]
        if basis.shape[1] != n:
            raise ValueError(
                "Eigenvector groups must jointly span the full space; for a "
                "partial basis use the implicit mode."
            )
        gram = basis.conj().T @ basis
        if np.max(np.abs(gram - np.eye(n))) > 1e-10:
            raise ValueError("Subspace eigenvectors are not orthonormal.")
        h0 = h0.tocsr() if sparse.issparse(h0) else as_dense(h0)
        _check_operand(h0, "H_0")
        rotated_h0 = basis.conj().T @ h0 @ basis
        scale_ = max(1.0, float(np.max(np.abs(rotated_h0))))
        offdiag = rotated_h0 - np.diag(np.diag(rotated_h0))
        if np.max(np.abs(offdiag), initial=0.0) > 1e-8 * scale_:
            raise ValueError(
                "H_0 is not diagonal in the provided basis; the eigenbasis "
                "Sylvester solver requires a diagonalizing basis."
            )
        return _assemble_explicit(
            np.real(np.diag(rotated_h0)).astype(float),
            perturbations,
            tuple(g.shape[1] for g in groups),
            lambda term: basis.conj().T @ term @ basis,
            masks or {},
            tolerance,
            param_names,
        )


def _normalize_orders(perturbations: dict, n_params: int | None = None):
    normalized = {}
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
        normalized[order] = term
    if n_params is None:
        raise ValueError("At least one perturbation term is required.")
    return normalized, n_params


def _assemble_explicit(
    energies, perturbations, block_sizes, rotate, masks, tolerance, param_names
):
    """Problem from the energies of ``H_0`` in the decoupling basis.

    ``rotate`` takes an operator to that basis, in which the states of each
    block are contiguous.
    """
    perturbations, n_params = _normalize_orders(perturbations)
    rule = SeparationRule(tuple(block_sizes), dict(masks))
    splits = np.cumsum((0,) + rule.block_sizes)
    ranges = [slice(a, b) for a, b in zip(splits, splits[1:])]
    eigenvalues = tuple(energies[rows] for rows in ranges)
    eig = EigenstructureInfo(eigenvalues, tolerance)
    zero_order = (0,) * n_params
    blocks: dict[tuple, Any] = {
        (i, i, zero_order): np.diag(e).astype(np.complex128)
        for i, e in enumerate(eigenvalues)
    }
    n = len(energies)
    for order, term in perturbations.items():
        if sparse.issparse(term):
            term = term.tocsr().astype(np.complex128)
        else:
            term = as_dense(term)
        if term.shape != (n, n):
            raise ValueError(f"Perturbation at order {order} has wrong shape.")
        _check_operand(term, f"Perturbation at order {order}")
        rotated = rotate(term)
        densify = sparse.issparse(rotated)
        for (i, rows), (j, cols) in cartesian(enumerate(ranges), repeat=2):
            piece = rotated[rows, cols]
            if densify:
                piece = piece.toarray()
            if np.any(piece):
                blocks[(i, j, order)] = piece
    return PerturbationProblem(
        eigenvalues=eigenvalues,
        rule=rule,
        n_params=n_params,
        blocks=blocks,
        eig=eig,
        param_names=param_names,
    )


def make_eigenbasis_solver(
    eigenvalues, rule: SeparationRule, tolerance: float
) -> SylvesterSolver:
    """Elementwise Sylvester solver in the eigenbasis of ``H_0``.

    Returns the solution of ``[V, H_0] = RHS`` restricted to remaining
    elements: ``V_kl = RHS_kl / (E_l - E_k)``, with ``V_S = 0`` enforced
    structurally. Divisions are elementwise and perform no matrix products.
    """

    def solve(rhs, block, order):
        i, j = block
        e_row, e_col = eigenvalues[i], eigenvalues[j]
        denominators = e_col[None, :] - e_row[:, None]
        remaining = rule.remaining_mask(block)
        if remaining is None:
            remaining = np.ones(denominators.shape, dtype=bool)
        bad = remaining & (np.abs(denominators) <= tolerance)
        if bad.any():
            pairs = [tuple(map(int, p)) for p in np.argwhere(bad)]
            raise DegenerateSubspaceError(block, pairs, tolerance)
        safe = np.where(remaining, denominators, 1.0)
        return np.where(remaining, as_dense(rhs) / safe, 0.0)

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

    def clear_intermediates(self):
        """Drop memoized intermediates, keeping the three output series."""
        outputs = {"H_tilde", "U", "U†"}
        for name, series in self.context.items():
            if name not in outputs:
                series.clear()


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
    solver. Every product is tallied in ``counter``, a new one unless
    given, which the result exposes as ``result.counter``.
    """
    if solver is None:
        solver = problem.solver
    if solver is None:
        if problem.eig is None:
            raise ValueError("Problem carries no eigenvalues and no solver.")
        solver = make_eigenbasis_solver(
            problem.eigenvalues, problem.rule, problem.eig.tolerance
        )
    if problem.eig is not None:
        check_rule(problem.rule, problem.eig)
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


def _build_series(
    problem: PerturbationProblem,
    solver: SylvesterSolver,
    counter: OperationCounter,
) -> dict[str, BlockSeries]:
    rule = problem.rule
    b = rule.n_blocks
    n_params = problem.n_params
    zero_order = problem.zero_order()
    two_block = b == 2 and not rule.masks
    large = problem.large_blocks

    def make(name, eval):
        return BlockSeries(
            eval=eval,
            shape=(b, b),
            n_params=n_params,
            name=name,
            param_names=problem.param_names,
            large_blocks=large,
        )

    def eval_H(i, j, *n):
        return problem.block(i, j, n)

    H = make("H", eval_H)

    def eval_Hp_S(i, j, *n):
        if not any(n) or not rule.has_selected_part((i, j)):
            return zero
        return select(H.get((i, j), n), rule, (i, j))

    def eval_Hp_R(i, j, *n):
        if not any(n) or not rule.has_remaining_part((i, j)):
            return zero
        return remain(H.get((i, j), n), rule, (i, j))

    Hp_S = make("H'_S", eval_Hp_S)
    Hp_R = make("H'_R", eval_Hp_R)

    # Forward declarations closed over by the recurrence callbacks.
    context: dict[str, BlockSeries] = {}

    def eval_W(i, j, *n):
        if not any(n):
            return zero
        if two_block and i != j:
            # With two whole blocks the Hermitian part of U' is block
            # diagonal, so these entries vanish identically.
            return zero
        if i > j:
            return adjoint(context["W"].get((j, i), n))
        lazy = i in large and j in large
        Up, Up_adj = context["U'"], context["U'†"]
        total = zero
        for m in orders_up_to(n):
            p = tuple(a - b_ for a, b_ in zip(n, m))
            if not any(m) or not any(p):
                continue
            if i == j and m > p:
                continue  # the (p, m) partner is restored as the adjoint
            term = zero
            for l in range(b):
                left = Up_adj.get((i, l), m)
                if isinstance(left, Zero):
                    continue
                right = Up.get((l, j), p)
                if isinstance(right, Zero):
                    continue
                counter.count(left, right)
                term = add(term, matmul(left, right, lazy=lazy))
            if i == j and m < p:
                term = add(term, adjoint(term))
            total = add(total, term)
        return scale(total, -0.5)

    def eval_V(i, j, *n):
        if not any(n):
            return zero
        if i > j:
            return scale(adjoint(context["V"].get((j, i), n)), -1)
        if not rule.has_remaining_part((i, j)):
            return zero
        rhs = context["rhs"].get((i, j), n)
        if isinstance(rhs, Zero):
            return zero
        return solver(rhs, (i, j), tuple(n))

    def eval_Up(i, j, *n):
        if not any(n):
            return zero
        return add(context["W"].get((i, j), n), context["V"].get((i, j), n))

    def eval_B(i, j, *n):
        if not any(n):
            return zero
        result = zero
        if rule.has_remaining_part((i, j)):
            result = add(
                result,
                remain(scale(context["U'†B"].get((i, j), n), -1), rule, (i, j)),
            )
        if rule.has_selected_part((i, j)):
            p = context["U'†B"].get((i, j), n)
            p_adj = context["(U'†B)†"].get((i, j), n)
            a = context["A"].get((i, j), n)
            a_adj = context["A†"].get((i, j), n)
            t = context["VH'_S"].get((i, j), n)
            t_adj = context["(VH'_S)†"].get((i, j), n)
            bracket = add(
                scale(add(p, scale(p_adj, -1)), -0.5),
                scale(add(a, a_adj), -0.5),
            )
            bracket = add(bracket, add(t, t_adj))
            result = add(result, select(bracket, rule, (i, j)))
        return result

    def eval_rhs(i, j, *n):
        if not any(n) or not rule.has_remaining_part((i, j)):
            return zero
        t = context["VH'_S"].get((i, j), n)
        t_adj = context["(VH'_S)†"].get((i, j), n)
        commutator = add(t, t_adj)
        if two_block:
            # [W, H_S] has no remaining part here, which removes the
            # adjoint-partner products from the right-hand side.
            total = add(context["B"].get((i, j), n), H.get((i, j), n))
            total = add(total, context["A"].get((i, j), n))
            total = add(total, scale(commutator, -1))
        else:
            a_pair = add(
                context["A"].get((i, j), n), context["A†"].get((i, j), n)
            )
            p_pair = add(
                context["U'†B"].get((i, j), n),
                context["(U'†B)†"].get((i, j), n),
            )
            total = add(
                context["H'_R"].get((i, j), n),
                scale(a_pair, 0.5),
            )
            total = add(total, scale(p_pair, -0.5))
            total = add(total, scale(commutator, -1))
        return remain(total, rule, (i, j))

    def eval_H_tilde(i, j, *n):
        if not any(n):
            return H.get((i, j), n)
        if not rule.has_selected_part((i, j)):
            # The remaining part cancels by construction and is never
            # evaluated as a numeric residual.
            return zero
        m_val = add(
            context["A"].get((i, j), n),
            scale(context["U'†B"].get((i, j), n), -1),
        )
        m_val = add(m_val, scale(context["VH'_S"].get((i, j), n), -2))
        sym = scale(add(m_val, adjoint(m_val)), 0.5)
        return add(Hp_S.get((i, j), n), select(sym, rule, (i, j)))

    def eval_U(i, j, *n):
        if not any(n):
            return one if i == j else zero
        return context["U'"].get((i, j), n)

    def eval_U_adjoint(i, j, *n):
        if not any(n):
            return one if i == j else zero
        return context["U'†"].get((i, j), n)

    context["H"] = H
    context["H'_S"] = Hp_S
    context["H'_R"] = Hp_R
    context["W"] = make("W", eval_W)
    context["V"] = make("V", eval_V)
    context["U'"] = make("U'", eval_Up)
    context["U'†"] = series_adjoint(context["U'"], name="U'†")
    context["A"] = cauchy_product(Hp_R, context["U'"], name="A", counter=counter)
    context["A†"] = series_adjoint(context["A"], name="A†")
    context["U'†B"] = None  # placeholder until B exists
    context["B"] = make("B", eval_B)
    context["U'†B"] = cauchy_product(
        context["U'†"], context["B"], name="U'†B", counter=counter
    )
    context["(U'†B)†"] = series_adjoint(context["U'†B"], name="(U'†B)†")
    context["VH'_S"] = cauchy_product(
        context["V"], Hp_S, name="VH'_S", counter=counter
    )
    context["(VH'_S)†"] = series_adjoint(context["VH'_S"], name="(VH'_S)†")
    context["rhs"] = make("rhs", eval_rhs)
    context["H_tilde"] = make("H_tilde", eval_H_tilde)
    context["U"] = make("U", eval_U)
    context["U†"] = make("U†", eval_U_adjoint)
    return context


def transform_observable(
    result: DiagonalizationResult, observable: BlockSeries
) -> BlockSeries:
    """Transformed observable ``U^H O U`` as a lazily evaluated series.

    Shares the memoized ``U`` entries of the diagonalization, so repeated
    transformations reuse the unitary's products, and tallies its products
    in ``result.counter``.
    """
    if observable.shape != (result.problem.n_blocks,) * 2:
        raise ValueError(
            f"Observable block shape {observable.shape} does not match the "
            f"problem's {result.problem.n_blocks} blocks."
        )
    if observable.n_params != result.problem.n_params:
        raise ValueError("Observable has a different number of parameters.")
    return cauchy_product(
        result.u_adjoint, observable, result.u, name="U†OU", counter=result.counter
    )


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
    with the weights of all points in one product. ``shape`` is only needed
    when every term is structurally zero.
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
        return np.zeros(values.shape[:-1] + tuple(shape), dtype=np.complex128)
    orders = np.array(list(orders_up_to(max_orders)))[present]
    terms = np.stack([to_array(term) for term in entries.compressed()])
    weights = np.prod(values[..., None, :] ** orders, axis=-1)
    return np.tensordot(weights, terms, axes=1)


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
    asymmetry = _max_abs(effective - effective.conj().swapaxes(-1, -2))
    defect = asymmetry / max(1.0, _max_abs(effective))
    if not defect <= 1e-8:
        raise RuntimeError(f"Truncated block is not Hermitian (defect {defect}).")
    return np.linalg.eigvalsh(effective)
