"""The three benchmark workloads and their correctness gates.

Each workload generates its inputs, its reference results and the problem
document of its sweep from the seed in its constructor, before anything is
timed, and then offers three timed phases to the runner:

- ``setup(tracer)``: from inputs in memory to a ready `DiagonalizationResult`;
- the solve, run by the runner: every requested ``H̃`` entry of ``block``
  at ``orders``;
- ``sweep(tracer)``: one in-process ``blockpert spectrum`` command on the
  written document, from start to the CSV being written.

``check_entries`` and ``check_sweep`` are the gates. They run outside the
timed regions and return one verdict per operation.

``probe`` names the kernels of the host-speed probe (`perfbench.speed`)
that do the workload's kind of work: BLAS products for the dense problem,
Python bookkeeping and 2×2 products for graphene, a sparse LU and BLAS
products for the implicit problem.
"""

from __future__ import annotations

import csv
import json
import os
import time

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as sla

import blockpert.cli as cli
from blockpert import oracles
from blockpert.diagonalization import PerturbationProblem
from blockpert.documents import load_problem, problem_document
from blockpert.implicit import build_extended_problem
from blockpert.operators import to_array
from blockpert.oracles import closed_form_h_tilde
from blockpert.problems import (
    bilayer_graphene_problem,
    lattice_problem,
    random_two_block,
)
from blockpert.series import orders_up_to

from perfbench.tracing import NullTracer

HERMITICITY_RTOL = 1e-12


def _hermitian(matrix: np.ndarray) -> bool:
    scale = max(1.0, float(np.max(np.abs(matrix), initial=0.0)))
    return float(np.max(np.abs(matrix - matrix.conj().T), initial=0.0)) <= (
        HERMITICITY_RTOL * scale
    )


def _dense(value, size: int) -> np.ndarray:
    return to_array(value, (size, size))


def _truncated_eigenvalues(terms, lambdas) -> np.ndarray:
    """Eigenvalues of Σₙ λⁿ Hₙ for each λ, one row per λ."""
    weights = np.asarray(lambdas)[:, None] ** np.arange(len(terms))[None, :]
    return np.linalg.eigvalsh(np.einsum("pn,nij->pij", weights, np.array(terms)))


def _explicit_states(h0, count: int, seed: int):
    """The ``count`` lowest states of a sparse H₀ from ``eigsh``.

    The start vector is seeded, because the eigsh time and its vectors
    depend on it. eigsh returns close pairs orthonormal only to about
    1e-10, the limit `build_extended_problem` accepts; one Rayleigh-Ritz
    step in their span makes them orthonormal to rounding.
    """
    v0 = np.random.default_rng(seed).standard_normal(h0.shape[0])
    _, vectors = sla.eigsh(h0, k=count, which="SA", v0=v0)
    basis, _ = scipy.linalg.qr(vectors, mode="economic")
    energies, rotation = scipy.linalg.eigh(basis.conj().T @ (h0 @ basis))
    return energies, basis @ rotation, v0


class _SpectrumSweep:
    """The sweep every workload shares: ``blockpert spectrum`` to a CSV.

    Subclasses call `_write_sweep` from their constructor and define
    ``sweep_reference(values)``, the eigenvalues the CSV rows selected by
    ``sweep_rows`` must hold, and ``sweep_atol``.
    """

    block = (0, 0)
    setup_repeats = 1
    sweep_rows = slice(None)

    def _write_sweep(self, workdir, document, max_orders, axes):
        self.document_path = os.path.join(workdir, f"{self.name}.json")
        self.csv_path = os.path.join(workdir, f"{self.name}.csv")
        # The text `documents.write_document` writes, from the C encoder.
        with open(self.document_path, "w") as handle:
            handle.write(json.dumps(document) + "\n")
        self.param_names = list(document["param_names"])
        self.points = np.array(np.meshgrid(*axes, indexing="ij")).reshape(len(axes), -1).T
        self.argv = ["spectrum", "--input", self.document_path, "--output", self.csv_path]
        self.argv += ["--max-order", ",".join(map(str, max_orders))]
        for name, axis in zip(self.param_names, axes):
            low, high = float(axis[0]), float(axis[-1])
            spec = f"{low!r}" if len(axis) == 1 else f"{low!r}:{high!r}:{len(axis)}"
            self.argv += ["--grid", f"{name}={spec}"]

    def sweep(self, tracer):
        if os.path.exists(self.csv_path):
            os.remove(self.csv_path)
        return tracer.call("cli.spectrum", cli.main, self.argv)

    def check_sweep(self, output, values) -> bool:
        """Exit code 0, a header and one row per grid point, the reference
        eigenvalues in every row."""
        if output != 0 or not os.path.exists(self.csv_path):
            return False
        with open(self.csv_path, newline="") as handle:
            rows = list(csv.reader(handle))
        header = self.param_names + [f"eig_{k}" for k in range(self.size)]
        if rows[:1] != [header] or len(rows) != 1 + len(self.points):
            return False
        table = np.array(rows[1:], dtype=float)
        n_params = len(self.param_names)
        if np.max(np.abs(table[:, :n_params] - self.points)) > 1e-15:
            return False
        checked = table[self.sweep_rows, n_params:]
        return bool(np.max(np.abs(checked - self.sweep_reference(values))) <= self.sweep_atol)


class DenseTwoBlock(_SpectrumSweep):
    """One parameter, blocks of 100 and 1000: BLAS-bound products."""

    name = "dense_two_block"
    probe = ("blas",)
    # The sweep grid is the one-parameter example of the README.
    sweep_points = 21
    sweep_atol = 1e-10

    def __init__(self, seed: int, *, workdir, n_a=100, n_b=1000, max_order=6):
        self.energies, self.perturbations, self.labels = random_two_block(
            n_a, n_b, seed
        )
        self.size = n_a
        self.orders = [(n,) for n in range(1, max_order + 1)]
        h1 = self.perturbations[(1,)]
        e_a, e_b = self.energies[:n_a], self.energies[n_a:]
        self.h_tilde_0 = np.diag(e_a).astype(np.complex128)
        self.closed_forms = {
            n: closed_form_h_tilde(h1, e_a, e_b, n) for n in range(1, min(max_order, 4) + 1)
        }
        self.lambdas = np.linspace(0.0, 0.01, self.sweep_points)
        document = problem_document(
            sparse.diags(self.energies),
            self.perturbations,
            param_names=("lam",),
            subspace_indices=self.labels,
        )
        self._write_sweep(workdir, document, (max_order,), [self.lambdas])

    def setup(self, tracer):
        problem = tracer.call(
            "diagonalization.assemble",
            PerturbationProblem.from_diagonal,
            self.energies,
            self.perturbations,
            self.labels,
        )
        return tracer.block_diagonalize(problem)

    def check_entries(self, values) -> list[bool]:
        verdicts = []
        for (n,), value in zip(self.orders, values):
            matrix = _dense(value, self.size)
            ok = _hermitian(matrix)
            if n in self.closed_forms:
                reference = self.closed_forms[n]
                scale = max(1.0, float(np.max(np.abs(reference))))
                ok = ok and float(np.max(np.abs(matrix - reference))) <= 1e-10 * scale
            verdicts.append(ok)
        return verdicts

    def sweep_reference(self, values):
        """The truncated sums of this repetition's gated entries."""
        terms = [self.h_tilde_0] + [_dense(value, self.size) for value in values]
        return _truncated_eigenvalues(terms, self.lambdas)


class ImplicitLattice(_SpectrumSweep):
    """Sparse N = width² lattice, 10 explicit states, matrix-free rest."""

    name = "implicit_lattice"
    probe = ("sparse_lu", "blas")
    # At λ = 0.002 the low orders are judged against eigsh; at 0.005 the
    # terms of orders 5 and 6 stand above the floor of the comparison.
    gate_lambdas = (0.002, 0.005)
    # Orders past the requested ones that bound the tail, from a separate
    # untimed solve, and the comparison's rounding floor.
    tail_orders = 3
    gate_atol = 1e-11
    # The CLI loader turns the sparse H₀ and δ into dense arrays (3.2 GB at
    # width 100), so the sweep runs on the lattice of width 52, the default
    # size of `blockpert bench implicit-timing`, over the README's 21 points.
    # Every fifth row is checked against eigsh.
    sweep_width = 52
    sweep_points = 21
    sweep_rows = slice(None, None, 5)
    sweep_atol = 1e-9

    def __init__(self, seed: int, *, workdir, width=100, n_explicit=10, max_order=6,
                 sweep_width=None):
        self.h0, self.perturbations = lattice_problem(width, seed)
        started = time.perf_counter()
        self.energies, self.vectors, v0 = _explicit_states(self.h0, n_explicit, seed)
        self.eigsh_s = time.perf_counter() - started
        self.size = n_explicit
        self.orders = [(n,) for n in range(1, max_order + 1)]
        self.references = {
            lam: np.sort(
                sla.eigsh(
                    self.h0 + lam * self.perturbations[(1,)],
                    k=n_explicit, which="SA", v0=v0,
                )[0]
            )
            for lam in self.gate_lambdas
        }
        tail = self.setup(NullTracer()).h_tilde
        self.tail_norms = [
            np.linalg.norm(_dense(tail.get(self.block, (n,)), self.size), 2)
            for n in range(max_order + 1, max_order + self.tail_orders + 1)
        ]
        del tail

        h0, perturbations = lattice_problem(sweep_width or self.sweep_width, seed)
        energies, vectors, v0 = _explicit_states(h0, n_explicit, seed)
        self.lambdas = np.linspace(0.0, self.gate_lambdas[0], self.sweep_points)
        self.sweep_eigenvalues = np.array([
            np.sort(sla.eigsh(h0 + lam * perturbations[(1,)], k=n_explicit,
                              which="SA", v0=v0)[0])
            for lam in self.lambdas[self.sweep_rows]
        ])
        document = problem_document(
            h0,
            perturbations,
            param_names=("lam",),
            implicit={"explicit_vectors": vectors, "eigenvalues": energies},
        )
        self._write_sweep(workdir, document, (max_order,), [self.lambdas])

    def setup(self, tracer):
        problem = tracer.call(
            "implicit.build",
            build_extended_problem,
            self.h0,
            self.perturbations,
            self.vectors,
            self.energies,
        )
        return tracer.block_diagonalize(problem)

    def check_entries(self, values) -> list[bool]:
        """Partial sums against eigsh at each gate λ, within the omitted terms.

        By Weyl's inequality the eigenvalues of the sum through order n are
        off by at most the norm of the terms it omits. Their norms are those
        of the entries judged, then of the orders in ``tail_norms``, then a
        geometric rest. The bound is doubled and a rounding floor added. An
        entry passes if it is Hermitian and passes at every gate λ.
        """
        terms = [np.diag(self.energies).astype(np.complex128)]
        terms += [_dense(value, self.size) for value in values]
        verdicts = [_hermitian(term) for term in terms[1:]]
        raw = [np.linalg.norm(term, 2) for term in terms] + self.tail_norms
        for lam, reference in self.references.items():
            norms = [lam**n * norm for n, norm in enumerate(raw)]
            rho = min(0.5, norms[-1] / norms[-2]) if norms[-2] > 0 else 0.5
            beyond = norms[-1] * rho / (1 - rho)
            partial = terms[0].copy()
            for n in range(1, len(terms)):
                partial += lam**n * terms[n]
                error = np.max(np.abs(np.linalg.eigvalsh(partial) - reference))
                tolerance = 2 * (sum(norms[n + 1 :]) + beyond) + self.gate_atol
                verdicts[n - 1] = verdicts[n - 1] and bool(error <= tolerance)
        return verdicts

    def sweep_reference(self, values):
        return self.sweep_eigenvalues


class GrapheneSpectrum(_SpectrumSweep):
    """Bilayer graphene, 3 parameters, 2+2 blocks, through documents and CLI."""

    name = "graphene_spectrum"
    probe = ("python", "numpy")
    # Set-up takes about 2 ms, so a repetition holds ten of them.
    setup_repeats = 10
    sweep_atol = 1e-9

    def __init__(self, seed: int, *, workdir, max_orders=(6, 6, 2), grid=20):
        model = bilayer_graphene_problem()
        document = problem_document(
            model.h0,
            model.perturbations,
            param_names=("k_x", "k_y", "m"),
            subspace_eigenvectors=[model.vectors_low, model.vectors_high],
        )
        self.max_orders = tuple(max_orders)
        self.orders = list(orders_up_to(self.max_orders))
        self.size = 2
        # The seed moves the grid window and the mass, never the grid size,
        # so the cost does not depend on it.
        rng = np.random.default_rng(seed)
        center_x, center_y = (float(c) for c in rng.uniform(-0.05, 0.05, size=2))
        mass = float(rng.uniform(0.02, 0.08))
        half = 0.15
        axes = [
            np.linspace(center_x - half, center_x + half, grid),
            np.linspace(center_y - half, center_y + half, grid),
            np.array([mass]),
        ]
        self._write_sweep(workdir, document, self.max_orders, axes)

        # H̃[0,0] from the truncated exp(S) series, in the eigenbasis of H₀.
        basis = np.hstack([model.vectors_low, model.vectors_high])
        h0 = np.real(np.diag(basis.conj().T @ model.h0 @ basis))
        rotated = {
            order: basis.conj().T @ term @ basis
            for order, term in model.perturbations.items()
        }
        h_tilde, _, _ = oracles.sw_reference(h0, rotated, 2, self.max_orders)
        zero = np.zeros((2, 2), dtype=np.complex128)
        self.oracle = {
            order: h_tilde[order][:2, :2] if order in h_tilde else zero
            for order in self.orders
        }
        # Entries of equal total order share one scale for the tolerance.
        self.scales: dict[int, float] = {}
        for order, matrix in self.oracle.items():
            total = sum(order)
            self.scales[total] = max(
                self.scales.get(total, 1.0), float(np.max(np.abs(matrix)))
            )

    def setup(self, tracer):
        problem, _ = tracer.call("documents.load", load_problem, self.document_path)
        return tracer.block_diagonalize(problem)

    def check_entries(self, values) -> list[bool]:
        verdicts = []
        for order, value in zip(self.orders, values):
            matrix = _dense(value, self.size)
            error = float(np.max(np.abs(matrix - self.oracle[order])))
            verdicts.append(error <= 1e-11 * self.scales[sum(order)])
        return verdicts

    def sweep_reference(self, values):
        """The oracle series summed at every grid point."""
        weights = np.prod(
            self.points[:, None, :] ** np.array(self.orders)[None, :, :], axis=2
        )
        stack = np.array([self.oracle[order] for order in self.orders])
        return np.linalg.eigvalsh(np.einsum("po,oij->pij", weights, stack))


WORKLOADS = {
    workload.name: workload
    for workload in (DenseTwoBlock, GrapheneSpectrum, ImplicitLattice)
}
