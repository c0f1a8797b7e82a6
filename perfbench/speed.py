"""The host-speed probe that the end-to-end timings are divided by.

On a shared virtual machine this process runs at a speed that drifts by up
to 1.8 times over spells of seconds to minutes, with thread time equal to
wall time, so the drift is not stolen time that could be subtracted. A run
of 20-30 s cannot average such spells out: over ten runs of the same
code, the quartiles of the run medians lay 30-50% of their median apart. Fixed work that does not call blockpert,
timed just before and just after a timed region, slows down with it. In
one process over 100 s the medians of 13 s windows of graphene solves
moved 1.64 times in wall time, 1.05 times once divided by the
Python-and-numpy probe; a BLAS probe followed the Python solves less well
(1.27 times), and a Python probe the BLAS-bound dense solves, so each
workload names the probe kernels that do its kind of work.

`slowness(kernels)` is the time the kernels take divided by their time at
the reference speed, ``REFERENCE_S``: about their time on a 2-vCPU Intel
Xeon virtual machine in its fast spells. A timing divided by the
geometric mean of the slowness before and after it is in seconds at the
reference speed.
"""

from __future__ import annotations

import math
import time

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as sla

_rng = np.random.default_rng(0)
_SMALL = np.linalg.qr(_rng.standard_normal((2, 2)) + 1j * _rng.standard_normal((2, 2)))[0]
_DENSE = _rng.standard_normal((700, 700)) + 1j * _rng.standard_normal((700, 700))
_PATH = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(60, 60))
_SHIFTED = (sparse.kronsum(_PATH, _PATH) + 0.1j * sparse.identity(3600)).tocsc()


def _python():
    """Dict and tuple bookkeeping, like the memo of a series."""
    table = {}
    for i in range(30000):
        table[(i & 127, i >> 7)] = table.get((i & 127, 0), 0) + i
    return table


def _numpy():
    """Products of 2×2 blocks: per-call dispatch, no flops to speak of."""
    x = _SMALL
    for _ in range(3000):
        x = _SMALL @ x
    return x


def _blas():
    """One complex 700×700 product on one BLAS thread.

    Its operands are 8 MB each, beyond the caches like the dense
    workload's blocks; a 500×500 product followed the dense set-up and
    solve less well.
    """
    return _DENSE @ _DENSE


def _sparse_lu():
    """A complex sparse LU of a shifted 60×60 grid Laplacian."""
    return sla.splu(_SHIFTED)


KERNELS = {"python": _python, "numpy": _numpy, "blas": _blas, "sparse_lu": _sparse_lu}
REFERENCE_S = {"python": 0.010, "numpy": 0.006, "blas": 0.048, "sparse_lu": 0.015}


def slowness(kernels) -> float:
    """Time of the named kernels over their time at the reference speed."""
    elapsed = 0.0
    for name in kernels:
        started = time.perf_counter()
        KERNELS[name]()
        elapsed += time.perf_counter() - started
    return elapsed / sum(REFERENCE_S[name] for name in kernels)


def between(before: float, after: float) -> float:
    """The slowness of a region from the probes just before and after it."""
    return math.sqrt(before * after)
