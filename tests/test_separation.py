import numpy as np
import pytest

from blockpert.operators import to_array, zero
from blockpert.separation import (
    RuleValidationError,
    SeparationRule,
    check_rule,
    degeneracy_tolerance,
    remain,
    select,
    validate_rule,
)

from conftest import random_hermitian


def test_whole_block_select():
    rule = SeparationRule((2, 2))
    op = np.arange(4.0).reshape(2, 2)
    assert select(op, rule, (0, 0)) is op
    assert select(op, rule, (0, 1)) is zero
    assert remain(op, rule, (0, 0)) is zero
    assert remain(op, rule, (0, 1)) is op


def test_mask_select():
    mask = np.eye(2, dtype=bool)
    rule = SeparationRule((2,), {0: mask})
    op = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(select(op, rule, (0, 0)), [[1, 0], [0, 4]])
    np.testing.assert_array_equal(remain(op, rule, (0, 0)), [[0, 2], [3, 0]])


@pytest.mark.parametrize("masked", [False, True])
def test_split_axioms_exact(rng, masked):
    """Parts add to the whole, are idempotent, and commute with adjoint."""
    if masked:
        mask = np.array(
            [[1, 0, 1], [0, 1, 0], [1, 0, 1]], dtype=bool
        )
        rule = SeparationRule((3,), {0: mask})
        blocks = [(0, 0)]
    else:
        rule = SeparationRule((3, 3))
        blocks = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for block in blocks:
        op = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        recombined = to_array(select(op, rule, block), (3, 3)) + to_array(
            remain(op, rule, block), (3, 3)
        )
        np.testing.assert_array_equal(recombined, op)
        selected = select(op, rule, block)
        np.testing.assert_array_equal(
            to_array(select(selected, rule, block), (3, 3)),
            to_array(selected, (3, 3)),
        )
        remaining = remain(op, rule, block)
        np.testing.assert_array_equal(
            to_array(remain(remaining, rule, block), (3, 3)),
            to_array(remaining, (3, 3)),
        )
        # adjoint commutes with the split on the transposed block
        transposed = (block[1], block[0])
        np.testing.assert_array_equal(
            to_array(remain(op.conj().T, rule, transposed), (3, 3)),
            to_array(remain(op, rule, block), (3, 3)).conj().T,
        )


def test_selected_times_remaining_can_have_selected_part():
    """In mask mode (A_S B_R)_S is generally nonzero, unlike whole blocks."""
    # Not a block mask under any permutation: (0,1) and (1,2) selected,
    # (0,2) remaining.
    mask = np.array([[1, 1, 0], [1, 1, 1], [0, 1, 1]], dtype=bool)
    rule = SeparationRule((3,), {0: mask})
    rng = np.random.default_rng(5)
    a = random_hermitian(rng, 3)
    b = random_hermitian(rng, 3)
    product = to_array(select(a, rule, (0, 0)), (3, 3)) @ to_array(
        remain(b, rule, (0, 0)), (3, 3)
    )
    assert np.max(np.abs(to_array(select(product, rule, (0, 0)), (3, 3)))) > 1e-10


def test_mask_requirements():
    with pytest.raises(ValueError, match="symmetric"):
        SeparationRule((2,), {0: np.array([[True, True], [False, True]])})
    with pytest.raises(ValueError, match="diagonal"):
        SeparationRule((2,), {0: np.array([[True, False], [False, False]])})
    with pytest.raises(ValueError, match="not a diagonal block"):
        SeparationRule((2,), {1: np.eye(2, dtype=bool)})
    with pytest.raises(ValueError, match="shape"):
        SeparationRule((2,), {0: np.eye(3, dtype=bool)})


def test_validate_rule_accepts_gapped_blocks():
    rule = SeparationRule((1, 1))
    assert validate_rule(rule, (np.array([0.0]), np.array([1.0])), 1e-12) == []


def test_validate_rule_rejects_degenerate_blocks():
    rule = SeparationRule((1, 1))
    eigenvalues = (np.array([1.0]), np.array([1.0]))
    violations = validate_rule(rule, eigenvalues, 1e-12)
    assert [v.states for v in violations] == [(0, 0)]
    assert violations[0].blocks == (0, 1)
    with pytest.raises(RuleValidationError, match="blocks \\(0, 1\\)"):
        check_rule(rule, eigenvalues, 1e-12)


def test_validate_rule_rejects_degenerate_mask_pair():
    """A mask separating two degenerate states inside a block is invalid."""
    mask = np.array(
        [[True, False, True], [False, True, True], [True, True, True]]
    )
    rule = SeparationRule((3,), {0: mask})
    violations = validate_rule(rule, (np.array([2.0, 2.0, 3.0]),), 1e-12)
    assert any(v.states == (0, 1) for v in violations)


def test_tolerance_default_scales():
    assert degeneracy_tolerance((np.array([0.0, 1e6]),)) == pytest.approx(1e-4)
    assert degeneracy_tolerance((np.array([0.0, 1e-3]),)) == 1e-12


@pytest.mark.parametrize("tolerance", [-1.0, np.nan, np.inf])
def test_validate_rule_rejects_bad_tolerance(tolerance):
    rule = SeparationRule((1, 1))
    with pytest.raises(ValueError, match="Degeneracy tolerance"):
        validate_rule(rule, (np.array([1.0]), np.array([1.0])), tolerance)


def test_whole_block_masks_are_dropped():
    """A mask selecting its whole block is no split; the caller's dict is kept."""
    split = np.array([[True, False], [False, True]])
    masks = {0: np.ones((2, 2), dtype=int), 1: split}
    rule = SeparationRule((2, 2), masks)
    assert list(rule.masks) == [1]
    assert rule.masks[1].dtype == bool
    assert not rule.has_remaining_part((0, 0))
    assert masks[0].dtype == int and masks[1] is split
