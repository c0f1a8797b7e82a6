"""Selected/remaining splits of block operators and their validation.

A separation rule fixes, for every block of a block operator, which matrix
elements are *selected* (kept in the effective Hamiltonian) and which are
*remaining* (eliminated by the unitary). Off-diagonal blocks are always fully
remaining. A diagonal block is either selected as a whole, or split
elementwise by a symmetric boolean mask whose diagonal is selected.

The split satisfies, exactly and by construction:

- select(A) + remain(A) = A,
- both parts are idempotent projections,
- both parts commute with the adjoint.

Remaining elements must connect non-degenerate eigenstates of the
unperturbed operator; `validate_rule` enforces this before any Sylvester
solve is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from blockpert.operators import Zero, zero

__all__ = [
    "SeparationRule",
    "EigenstructureInfo",
    "RuleViolation",
    "RuleValidationError",
    "select",
    "remain",
    "validate_rule",
    "degeneracy_tolerance",
]


def degeneracy_tolerance(eigenvalues) -> float:
    """Default tolerance below which two eigenvalues count as degenerate."""
    scale = max((float(np.max(np.abs(e))) for e in eigenvalues if len(e)), default=0.0)
    return max(1e-10 * scale, 1e-12)


@dataclass(frozen=True)
class SeparationRule:
    """Definition of the selected/remaining split.

    Parameters
    ----------
    block_sizes :
        Dimension of each diagonal block.
    masks :
        Elementwise masks for the diagonal blocks that are split further,
        keyed by block label; ``True`` marks a selected element. Blocks
        without a mask are selected as a whole. Masks must be symmetric with
        an all-``True`` diagonal and may only be attached to diagonal blocks.
    """

    block_sizes: tuple[int, ...]
    masks: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        if not self.block_sizes or any(s < 1 for s in self.block_sizes):
            raise ValueError("Block sizes must be positive.")
        for label, mask in self.masks.items():
            if not 0 <= label < self.n_blocks:
                raise ValueError(f"Mask label {label} is not a diagonal block.")
            mask = np.asarray(mask, dtype=bool)
            expected = (self.block_sizes[label],) * 2
            if mask.shape != expected:
                raise ValueError(
                    f"Mask for block {label} has shape {mask.shape}, "
                    f"expected {expected}."
                )
            if not np.array_equal(mask, mask.T):
                raise ValueError(f"Mask for block {label} is not symmetric.")
            if not mask.diagonal().all():
                raise ValueError(
                    f"Mask for block {label} must select the diagonal."
                )
            self.masks[label] = mask

    @property
    def n_blocks(self) -> int:
        return len(self.block_sizes)

    def has_selected_part(self, block: tuple[int, int]) -> bool:
        """Whether the selected projection of this block can be nonzero."""
        i, j = block
        return i == j

    def has_remaining_part(self, block: tuple[int, int]) -> bool:
        """Whether the remaining projection of this block can be nonzero."""
        i, j = block
        return i != j or i in self.masks

    def remaining_mask(self, block: tuple[int, int]) -> np.ndarray | None:
        """Boolean array of remaining elements, or None for a full block."""
        i, j = block
        if i != j:
            return None
        return ~self.masks[i] if i in self.masks else None


@dataclass(frozen=True)
class EigenstructureInfo:
    """Eigenvalues of the unperturbed operator, grouped by block.

    The tolerance decides which eigenvalue pairs count as degenerate; it
    defaults to ``1e-10 * max |E|`` with an absolute floor of ``1e-12``.
    """

    eigenvalues: tuple[np.ndarray, ...]
    tolerance: float | None = None

    def __post_init__(self):
        values = tuple(np.asarray(e, dtype=float) for e in self.eigenvalues)
        object.__setattr__(self, "eigenvalues", values)
        if self.tolerance is None:
            object.__setattr__(
                self, "tolerance", degeneracy_tolerance(values)
            )


def _apply_mask(op, mask: np.ndarray):
    return np.asarray(op, dtype=np.complex128) * mask


def select(op, rule: SeparationRule, block: tuple[int, int]):
    """Selected part of one block of an operator."""
    i, j = block
    if isinstance(op, Zero) or i != j:
        return zero
    if i in rule.masks:
        return _apply_mask(op, rule.masks[i])
    return op


def remain(op, rule: SeparationRule, block: tuple[int, int]):
    """Remaining part of one block of an operator, ``A - select(A)``."""
    i, j = block
    if isinstance(op, Zero) or not rule.has_remaining_part(block):
        return zero
    if i != j:
        return op
    return _apply_mask(op, ~rule.masks[i])


@dataclass(frozen=True)
class RuleViolation:
    """A remaining element pair with a degenerate energy denominator."""

    blocks: tuple[int, int]
    states: tuple[int, int]
    gap: float

    def __str__(self):
        return (
            f"blocks {self.blocks}, states {self.states}: "
            f"|E_i - E_j| = {self.gap:.3e}"
        )


class RuleValidationError(ValueError):
    """Raised when remaining elements connect degenerate eigenstates."""

    def __init__(self, violations: list[RuleViolation], tolerance: float):
        self.violations = violations
        self.tolerance = tolerance
        listing = "; ".join(str(v) for v in violations[:10])
        extra = "" if len(violations) <= 10 else f" (+{len(violations) - 10} more)"
        super().__init__(
            f"{len(violations)} remaining element pair(s) below the degeneracy "
            f"tolerance {tolerance:.3e}: {listing}{extra}"
        )


def validate_rule(rule: SeparationRule, eig: EigenstructureInfo):
    """Check that all remaining elements have nonzero energy denominators.

    Returns the list of violations (empty when the rule is valid); callers
    that must not proceed use `RuleValidationError` via ``raise_on_error``.
    """
    if len(eig.eigenvalues) != rule.n_blocks:
        raise ValueError("Eigenvalue groups do not match the number of blocks.")
    for label, energies in zip(range(rule.n_blocks), eig.eigenvalues):
        if len(energies) != rule.block_sizes[label]:
            raise ValueError(
                f"Block {label} has {rule.block_sizes[label]} states but "
                f"{len(energies)} eigenvalues."
            )
    violations = []
    for i in range(rule.n_blocks):
        for j in range(i, rule.n_blocks):
            gaps = np.abs(
                eig.eigenvalues[i][:, None] - eig.eigenvalues[j][None, :]
            )
            if i == j:
                mask = rule.remaining_mask((i, j))
                if mask is None:
                    continue
                remaining = mask
            else:
                remaining = np.ones_like(gaps, dtype=bool)
            bad = remaining & (gaps <= eig.tolerance)
            for row, col in zip(*np.nonzero(bad)):
                violations.append(
                    RuleViolation((i, j), (int(row), int(col)), float(gaps[row, col]))
                )
    return violations


def check_rule(rule: SeparationRule, eig: EigenstructureInfo):
    """Validate a rule and raise `RuleValidationError` on any violation."""
    violations = validate_rule(rule, eig)
    if violations:
        raise RuleValidationError(violations, eig.tolerance)
