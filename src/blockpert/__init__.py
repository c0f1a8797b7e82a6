"""Arbitrary-order quasi-degenerate perturbation theory.

Builds the unitary series and the effective (block- or selectively
diagonalized) Hamiltonian of a perturbed Hermitian operator using lazily
evaluated, memoized block-operator series, with an implicit matrix-free mode
for large sparse problems and built-in verification oracles.
"""

from blockpert.diagonalization import (
    DegenerateSubspaceError,
    DiagonalizationResult,
    PerturbationProblem,
    block_diagonalize,
    evaluate_truncated,
    make_eigenbasis_solver,
    transform_observable,
)
from blockpert.operators import (
    MatrixFreeOperator,
    OperationCounter,
    add,
    adjoint,
    matmul,
    one,
    scale,
    to_array,
    zero,
)
from blockpert.separation import (
    EigenstructureInfo,
    RuleValidationError,
    SeparationRule,
    remain,
    select,
    validate_rule,
)
from blockpert.series import BlockSeries, cauchy_product, series_adjoint

__all__ = [
    "BlockSeries",
    "DegenerateSubspaceError",
    "DiagonalizationResult",
    "EigenstructureInfo",
    "MatrixFreeOperator",
    "OperationCounter",
    "PerturbationProblem",
    "RuleValidationError",
    "SeparationRule",
    "add",
    "adjoint",
    "block_diagonalize",
    "cauchy_product",
    "evaluate_truncated",
    "make_eigenbasis_solver",
    "matmul",
    "one",
    "remain",
    "scale",
    "select",
    "series_adjoint",
    "to_array",
    "transform_observable",
    "validate_rule",
    "zero",
]

__version__ = "0.1.0"
