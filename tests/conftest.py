import numpy as np
import pytest

from blockpert import diagonalization


def random_hermitian(rng, n):
    matrix = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (matrix + matrix.conj().T) / 2


def dense_block_diagonalize(problem):
    """`block_diagonalize` with every explicit block kept dense, whatever
    its size: the reference against which factored runs are checked."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(diagonalization, "FACTOR_RATIO", np.inf)
        return diagonalization.block_diagonalize(problem)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
