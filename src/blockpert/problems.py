"""Built-in model builders used by the CLI, benchmarks, and tests.

These construct concrete perturbation problems: a transmon coupled to a
resonator (truncated bosonic ladder), the four-band bilayer-graphene model
expanded around the corner of the Brillouin zone, random block problems, and
a square tight-binding lattice with interpolating disorder for benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from blockpert.diagonalization import PerturbationProblem

__all__ = [
    "transmon_problem",
    "transmon_chi",
    "bilayer_graphene_problem",
    "graphene_alpha_coefficients",
    "random_two_block",
    "random_multiblock",
    "lattice_problem",
]


def _ladder(levels: int) -> np.ndarray:
    """Bosonic annihilation operator truncated to ``levels`` states."""
    a = np.zeros((levels, levels), dtype=np.complex128)
    for n in range(1, levels):
        a[n - 1, n] = np.sqrt(n)
    return a


@dataclass
class TransmonModel:
    """Truncated transmon-resonator pair with the coupling as perturbation."""

    h0: np.ndarray
    coupling: np.ndarray
    subspace_indices: list[int]
    omega_t: float
    omega_r: float
    anharmonicity: float

    def problem(self) -> PerturbationProblem:
        return PerturbationProblem.from_diagonal(
            np.diag(self.h0),
            {(1,): self.coupling},
            self.subspace_indices,
            param_names=("g",),
        )


def transmon_problem(
    omega_t: float = 5.0,
    omega_r: float = 7.0,
    anharmonicity: float = -0.3,
    levels: int = 3,
) -> TransmonModel:
    """Transmon-resonator model truncated to ``levels`` states per mode.

    The unperturbed part is diagonal in the occupation basis; the coupling
    term enters at first order in the coupling strength and changes both
    occupation numbers by one, including the counter-rotating processes.
    The four lowest occupation states are assigned to their own blocks and
    everything else to a shared remainder block.
    """
    identity = np.eye(levels)
    a_t = np.kron(_ladder(levels), identity)
    a_r = np.kron(identity, _ladder(levels))
    n_t = a_t.conj().T @ a_t
    n_r = a_r.conj().T @ a_r
    h0 = (
        -omega_t * (n_t - identity_like(n_t) / 2)
        + anharmonicity / 2 * (a_t.conj().T @ a_t.conj().T @ a_t @ a_t)
        + omega_r * (n_r + identity_like(n_r) / 2)
    )
    coupling = -(a_t.conj().T - a_t) @ (a_r.conj().T - a_r)
    indices = []
    special = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}
    for occ_t in range(levels):
        for occ_r in range(levels):
            indices.append(special.get((occ_t, occ_r), 4))
    return TransmonModel(
        h0=h0,
        coupling=coupling,
        subspace_indices=indices,
        omega_t=omega_t,
        omega_r=omega_r,
        anharmonicity=anharmonicity,
    )


def identity_like(matrix: np.ndarray) -> np.ndarray:
    return np.eye(matrix.shape[0], dtype=matrix.dtype)


def transmon_chi(omega_t: float, omega_r: float, anharmonicity: float, g: float = 1.0):
    """Closed-form dispersive shift from the four second-order corrections."""
    alpha = anharmonicity
    return (
        -2 * g**2 / (alpha + omega_r - omega_t)
        + 2 * g**2 / (-alpha + omega_r + omega_t)
        - 2 * g**2 / (omega_r + omega_t)
        + 2 * g**2 / (omega_r - omega_t)
    )


def graphene_alpha_coefficients() -> dict[tuple[int, int], complex]:
    """Taylor coefficients of the hopping phase sum around the zone corner.

    The nearest-neighbor phase factor ``1 + exp(i k a_1) + exp(i k a_2)``
    with lattice vectors ``a_1 = (1/2, sqrt(3)/2)`` and ``a_2 = (-1/2,
    sqrt(3)/2)`` vanishes at ``K = (4 pi / 3, 0)``; these are its expansion
    coefficients in the momentum deviation, up to third order.
    """
    s = np.sqrt(3)
    return {
        (1, 0): -s / 2,
        (0, 1): -1j * s / 2,
        (2, 0): 1 / 8,
        (1, 1): -3j / 4,
        (0, 2): 3 / 8,
        (3, 0): s / 48,
        (2, 1): 1j * s / 16,
        (1, 2): 3 * s / 16,
        (0, 3): 1j * s / 16,
    }


@dataclass
class GrapheneModel:
    """Bilayer-graphene low-energy inputs in the decoupling basis."""

    h0: np.ndarray
    perturbations: dict[tuple[int, int, int], np.ndarray]
    vectors_low: np.ndarray
    vectors_high: np.ndarray
    t1: float
    t2: float

    def problem(self) -> PerturbationProblem:
        return PerturbationProblem.from_eigenvectors(
            self.h0,
            self.perturbations,
            [self.vectors_low, self.vectors_high],
            param_names=("k_x", "k_y", "m"),
        )


def bilayer_graphene_problem(t1: float = 1.0, t2: float = 0.4) -> GrapheneModel:
    """AB-stacked bilayer graphene near the zone corner.

    Four orbitals per momentum; the interlayer hopping splits two orbitals
    away in energy, and the momentum components and the layer-asymmetric
    onsite term are the three perturbative parameters. Momentum enters via
    the intra-layer hopping phase expanded to third order.
    """
    phase_upper = np.zeros((4, 4), dtype=np.complex128)
    phase_upper[0, 1] = 1.0
    phase_upper[2, 3] = 1.0
    h0 = np.zeros((4, 4), dtype=np.complex128)
    h0[1, 2] = h0[2, 1] = t2
    mass = np.diag([1.0, 1.0, -1.0, -1.0]).astype(np.complex128)
    perturbations: dict[tuple[int, int, int], np.ndarray] = {
        (0, 0, 1): mass
    }
    for (nx, ny), coeff in graphene_alpha_coefficients().items():
        term = t1 * (coeff * phase_upper + np.conj(coeff) * phase_upper.conj().T)
        perturbations[(nx, ny, 0)] = term
    sqrt2 = np.sqrt(2)
    vectors_low = np.zeros((4, 2), dtype=np.complex128)
    vectors_low[0, 0] = 1.0
    vectors_low[3, 1] = 1.0
    vectors_high = np.zeros((4, 2), dtype=np.complex128)
    vectors_high[1, 0] = vectors_high[2, 0] = 1 / sqrt2
    vectors_high[1, 1] = 1 / sqrt2
    vectors_high[2, 1] = -1 / sqrt2
    return GrapheneModel(
        h0=h0,
        perturbations=perturbations,
        vectors_low=vectors_low,
        vectors_high=vectors_high,
        t1=t1,
        t2=t2,
    )


def _random_hermitian(rng, n: int) -> np.ndarray:
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


def random_two_block(
    n_a: int,
    n_b: int,
    seed: int,
    *,
    orders=((1,),),
    gap: float = 1.0,
    offdiagonal_only: bool = False,
):
    """Random two-block problem with a spectral gap between the blocks.

    Returns the diagonal of ``H_0``, the perturbation dictionary, and the
    block labels, ready for `PerturbationProblem.from_diagonal`.
    """
    rng = np.random.default_rng(seed)
    energies = np.concatenate(
        [np.sort(rng.random(n_a)), 1.0 + gap + np.sort(rng.random(n_b))]
    )
    perturbations = {}
    for order in orders:
        term = _random_hermitian(rng, n_a + n_b)
        if offdiagonal_only:
            term[:n_a, :n_a] = 0.0
            term[n_a:, n_a:] = 0.0
        perturbations[tuple(order)] = term
    return energies, perturbations, [0] * n_a + [1] * n_b


def random_multiblock(block_sizes, seed: int, *, orders=((1,),), gap: float = 1.0):
    """Random problem with one gapped cluster of states per block."""
    rng = np.random.default_rng(seed)
    energies = np.concatenate(
        [
            label * (1.0 + gap) + np.sort(rng.random(size_))
            for label, size_ in enumerate(block_sizes)
        ]
    )
    indices = sum(([label] * size_ for label, size_ in enumerate(block_sizes)), [])
    perturbations = {
        tuple(order): _random_hermitian(rng, len(energies)) for order in orders
    }
    return energies, perturbations, indices


def lattice_problem(width: int, seed: int = 0, *, hopping: float = 1.0,
                    disorder: float = 0.5):
    """Square-lattice tight-binding benchmark with interpolating disorder.

    Nearest-neighbor hopping on a ``width x width`` lattice with a seeded
    random onsite potential; the perturbation interpolates towards a second
    disorder realization. Both operators are sparse, real and symmetric, of
    dtype ``float64``.
    """
    rng = np.random.default_rng(seed)
    n = width * width
    onsite = disorder * (2 * rng.random(n) - 1)
    onsite_other = disorder * (2 * rng.random(n) - 1)
    rows, cols = [], []
    for x in range(width):
        for y in range(width):
            site = x * width + y
            if x + 1 < width:
                rows.append(site)
                cols.append(site + width)
            if y + 1 < width:
                rows.append(site)
                cols.append(site + 1)
    data = -hopping * np.ones(len(rows))
    hop = sparse.coo_matrix((data, (rows, cols)), shape=(n, n))
    h0 = (hop + hop.T + sparse.diags(onsite)).tocsr()
    delta = sparse.diags(onsite_other - onsite).tocsr()
    return h0, {(1,): delta}
