"""Dense reference implementations the tests check the package against.

Kronecker-product Paulis and rotations, a dense Hamiltonian with
eigendecomposition evolution, the COO-assembled sparse Hamiltonian, the
dense generalized W states, and the collective ladder operators in both
the W basis and the full 2^N space.  None of these runs in the package:
they are independent oracles for its matrix-free kernels.  The Pauli
matrices are written out here, not taken from the package, so the
oracles do not inherit the convention of the code they check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scipy.sparse import csr_matrix

from ghznet.couplings import MAX_DENSE_QUBITS, CouplingGraph, _bit_arrays, to_sparse
from ghznet.dense import StateVector, single_qubit_rotation
from ghznet.symmetric import (
    WBasisState,
    binomial_row,
    embed,
    popcounts,
    raising_coefficients,
)

HERMITIAN_ATOL = 1e-12

# the standard computational-basis Paulis: z|0> = +|0>, x y = i z
PAULIS = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


@dataclass(frozen=True)
class DenseOperator:
    """Square complex matrix with an optional Hermiticity guarantee."""

    dim: int
    matrix: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (self.dim, self.dim):
            raise ValueError(f"matrix shape {mat.shape} != ({self.dim}, {self.dim})")
        if self.hermitian:
            defect = np.max(np.abs(mat - mat.conj().T))
            if defect > HERMITIAN_ATOL:
                raise ValueError(f"hermitian flag set but max|M - M^dag| = {defect:g}")
        object.__setattr__(self, "matrix", mat)

    def apply(self, state: StateVector) -> StateVector:
        if state.dim != self.dim:
            raise ValueError(f"dimension mismatch: state {state.dim}, operator {self.dim}")
        return StateVector(state.n_qubits, self.matrix @ state.amplitudes)

    def __matmul__(self, other: "DenseOperator") -> "DenseOperator":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return DenseOperator(self.dim, self.matrix @ other.matrix)


def _embed_single(n: int, k: int, u: np.ndarray) -> np.ndarray:
    """Kron-expand a 2x2 matrix acting on qubit k (1-based) into 2^n x 2^n."""
    out = np.array([[1.0 + 0.0j]])
    for q in range(1, n + 1):
        out = np.kron(out, u if q == k else np.eye(2, dtype=complex))
    return out


def pauli_on(n: int, k: int, axis: str) -> DenseOperator:
    """Pauli operator on qubit ``k``, identity elsewhere.

    ``sigma_z|0> = +|0>`` and ``sigma_z|1> = -|1>``; the triple obeys
    ``sigma_x sigma_y = i sigma_z`` and cyclic permutations.
    """
    if not 1 <= k <= n:
        raise ValueError(f"qubit index {k} out of range 1..{n}")
    return DenseOperator(1 << n, _embed_single(n, k, PAULIS[axis]), hermitian=True)


def rotation_matrix(axis: str, angle: float) -> np.ndarray:
    """exp(-i (angle/2) sigma_axis) as the 2x2 array expression
    :func:`ghznet.dense.single_qubit_rotation` used first; its bytes are
    the ones the package's scalar-built matrix must reproduce."""
    identity = np.eye(2, dtype=complex)
    return np.cos(angle / 2) * identity - 1j * np.sin(angle / 2) * PAULIS[axis]


def rotation_on(n: int, k: int, axis: str, angle: float) -> DenseOperator:
    """Dense single-qubit rotation operator."""
    return DenseOperator(1 << n, _embed_single(n, k, single_qubit_rotation(axis, angle)))


def evolve(state: StateVector, h: DenseOperator, t: float) -> StateVector:
    """Return exp(-i h t)|state> via eigendecomposition of the Hermitian h."""
    if not h.hermitian:
        raise ValueError("evolve requires an operator constructed as Hermitian")
    if h.dim != state.dim:
        raise ValueError(f"dimension mismatch: state {state.dim}, operator {h.dim}")
    w, v = np.linalg.eigh(h.matrix)
    phases = np.exp(-1j * w * t)
    out = v @ (phases * (v.conj().T @ state.amplitudes))
    return StateVector(state.n_qubits, out)


class CapacityError(ValueError):
    """Graph too large for the requested dense representation."""


def to_dense(graph: CouplingGraph) -> DenseOperator:
    """Dense Hermitian exchange Hamiltonian; capped at the dense-engine size."""
    if graph.n_qubits > MAX_DENSE_QUBITS:
        raise CapacityError(
            f"dense Hamiltonian limited to {MAX_DENSE_QUBITS} qubits, "
            f"got {graph.n_qubits}"
        )
    return DenseOperator(1 << graph.n_qubits, to_sparse(graph).toarray(), hermitian=True)


def to_sparse_coo(graph: CouplingGraph) -> csr_matrix:
    """Sparse float64 CSR matrix of the exchange Hamiltonian.

    The Hamiltonian is real symmetric in the computational basis for any
    graph: the ZZ part is diagonal, and each XY bond (l, k) couples every
    pair of indices related by swapping an excitation between qubits l and
    k with matrix element g_lk.
    """
    n = graph.n_qubits
    dim = 1 << n
    idx = np.arange(dim, dtype=np.int64)
    bits = _bit_arrays(n)

    diag = np.zeros(dim)
    for (l, k), gz in graph.zz.items():
        diag += 0.5 * gz * (2 * bits[l - 1] - 1) * (2 * bits[k - 1] - 1)

    rows = [idx]
    cols = [idx]
    vals = [diag]
    for (l, k), g in graph.xy.items():
        sel = idx[(bits[l - 1] == 1) & (bits[k - 1] == 0)]
        partner = sel - (1 << (n - l)) + (1 << (n - k))
        coupling = np.full(len(sel), g)
        rows += [sel, partner]
        cols += [partner, sel]
        vals += [coupling, coupling]

    mat = csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )
    mat.sum_duplicates()
    return mat


def w_state_dense(n: int, j: int) -> StateVector:
    """Dense |W_j>: amplitude 1/sqrt(C(n,j)) on every index with popcount j."""
    if not 0 <= j <= n:
        raise ValueError(f"excitation count {j} out of range 0..{n}")
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense W state limited to n <= {MAX_DENSE_QUBITS}")
    idx = np.arange(1 << n)
    pop = popcounts(n)
    amps = np.zeros(1 << n, dtype=complex)
    sel = idx[pop == j]
    amps[sel] = 1.0 / np.sqrt(len(sel))
    return StateVector(n, amps)


def ladder_apply(state: WBasisState, which: str) -> WBasisState:
    """Apply Sigma_+, Sigma_- or Sigma_z; result is generally unnormalized."""
    n = state.n_qubits
    c = state.coeffs
    out = np.zeros_like(c)
    if which == "plus":
        a = raising_coefficients(n)
        out[1:] = a * c[:-1]
    elif which == "minus":
        j = np.arange(1, n + 1, dtype=float)
        b = np.sqrt(j * (n - j + 1))
        out[:-1] = b * c[1:]
    elif which == "z":
        j = np.arange(n + 1, dtype=float)
        out = (2 * j - n) * c
    else:
        raise ValueError(f"which must be plus, minus or z, got {which!r}")
    return WBasisState(n, out)


def project(state: StateVector) -> tuple[WBasisState, float]:
    """W-basis coefficients <W_j|psi> and the norm outside the symmetric subspace."""
    n = state.n_qubits
    pop = popcounts(n)
    sums = np.zeros(n + 1, dtype=complex)
    np.add.at(sums, pop, state.amplitudes)
    coeffs = sums / np.sqrt(binomial_row(n))
    w = WBasisState(n, coeffs)
    residual = state.amplitudes - embed(w).amplitudes
    return w, float(np.linalg.norm(residual))


def collective_ladder_dense(n: int, which: str) -> np.ndarray:
    """Dense Sigma_+/Sigma_-/Sigma_z built from single-qubit Paulis."""
    dim = 1 << n
    out = np.zeros((dim, dim), dtype=complex)
    for k in range(1, n + 1):
        sx = pauli_on(n, k, "x").matrix
        sy = pauli_on(n, k, "y").matrix
        sz = pauli_on(n, k, "z").matrix
        if which == "plus":
            out += 0.5 * (sx - 1j * sy)
        elif which == "minus":
            out += 0.5 * (sx + 1j * sy)
        elif which == "z":
            out -= sz
        else:
            raise ValueError(f"which must be plus, minus or z, got {which!r}")
    return out


def not_all_dense(n: int) -> np.ndarray:
    """X tensor ... tensor X (global bit flip)."""
    out = np.array([[1.0 + 0.0j]])
    for _ in range(n):
        out = np.kron(out, PAULIS["x"])
    return out
