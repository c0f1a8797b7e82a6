import os

# One BLAS thread for the whole suite, set before numpy is first imported:
# beside a busy core, OpenBLAS's default two threads made a 4 s run take
# 35-79 s. `test_benchmark_contract.py` checks that it takes effect.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from blockpert import diagonalization  # noqa: E402


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
