"""Symmetric-subspace engine over the generalized W states.

The N+1 states ``|W_j>`` (equal-weight superpositions of all bitstrings
with exactly j excited qubits) span the subspace preserved by the uniform
fully connected exchange Hamiltonian and by collective rotations.  States
here are coefficient vectors of length N+1, so the engine scales linearly
in N instead of exponentially.

Ladder actions used throughout::

    Sigma_+ |W_j> = sqrt((N-j)(j+1)) |W_{j+1}>
    Sigma_- |W_j> = sqrt(j(N-j+1))   |W_{j-1}>
    Sigma_z |W_j> = (2j - N)         |W_j>

with the collective ladder operators written in the one Pauli convention
of :mod:`ghznet.dense` (standard z = diag(+1, -1) per qubit) as
``Sigma_+ = sum_k (X_k - i Y_k)/2``, ``Sigma_- = sum_k (X_k + i Y_k)/2``
and ``Sigma_z = -sum_k Z_k``, so ``Sigma_+`` raises the excitation count
j (the number of qubits in ``|1>``).  Collective rotations are generated
by ``sum_k X_k``, ``sum_k Y_k`` and ``sum_k Z_k``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .dense import MAX_DENSE_QUBITS, StateVector, pauli_on


def binomial_row(n: int) -> np.ndarray:
    """C(n, j) for j = 0..n as floats, via cumulative ratios (no factorials)."""
    out = np.empty(n + 1)
    out[0] = 1.0
    for j in range(n):
        out[j + 1] = out[j] * (n - j) / (j + 1)
    return out


@dataclass(frozen=True)
class WBasisState:
    """Coefficients over the N+1 generalized W states, index j = excitation count."""

    n_qubits: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.n_qubits + 1,):
            raise ValueError(
                f"coefficient vector has shape {c.shape}, expected ({self.n_qubits + 1},)"
            )
        object.__setattr__(self, "coeffs", c)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


@dataclass(frozen=True)
class EigenvalueTable:
    """Exchange-Hamiltonian eigenvalues on the W ladder for given couplings."""

    n_qubits: int
    g: float
    gz: float
    lam: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float)
        if lam.shape != (self.n_qubits + 1,):
            raise ValueError("eigenvalue table has wrong length")
        object.__setattr__(self, "lam", lam)


def analytic_eigenvalues(n: int, g: float, gz: float) -> EigenvalueTable:
    """lambda_j = j(N-j)(g - gz) + C(N,2) gz/2 for j = 0..N.

    The ground/ceiling value lambda_0 = lambda_N = C(N,2) gz/2 is the
    eigenenergy shared by |0...0> and |1...1>; the symmetry
    lambda_j = lambda_{N-j} is exact as computed.
    """
    if n < 2:
        raise ValueError("need at least 2 qubits")
    j = np.arange(n + 1, dtype=float)
    pairs = 0.5 * n * (n - 1)
    lam = j * (n - j) * (g - gz) + pairs * (gz / 2.0)
    return EigenvalueTable(n, g, gz, lam)


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


def popcounts(n: int) -> np.ndarray:
    """Popcount of every index 0..2^n - 1."""
    idx = np.arange(1 << n, dtype=np.int64)
    pop = np.zeros(1 << n, dtype=np.int64)
    for b in range(n):
        pop += (idx >> b) & 1
    return pop


def raising_coefficients(n: int) -> np.ndarray:
    """sqrt((N-j)(j+1)) for j = 0..N-1: matrix elements <W_{j+1}|Sigma_+|W_j>."""
    j = np.arange(n, dtype=float)
    return np.sqrt((n - j) * (j + 1))


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


def entangle_phases(state: WBasisState, table: EigenvalueTable, t: float) -> WBasisState:
    """Free evolution in the W basis: coeff_j -> exp(-i lambda_j t) coeff_j."""
    if table.n_qubits != state.n_qubits:
        raise ValueError("qubit count mismatch between state and eigenvalue table")
    return WBasisState(state.n_qubits, np.exp(-1j * table.lam * t) * state.coeffs)


def _x_generator_spectrum(n: int):
    """Eigen-decomposition of the tridiagonal collective x generator."""
    a = raising_coefficients(n)
    w, v = eigh_tridiagonal(np.zeros(n + 1), a)
    return w, v


def collective_rotation(state: WBasisState, axis: str, angle: float) -> WBasisState:
    """exp(-i (angle/2) Sigma_axis) restricted to the symmetric subspace.

    Agrees with applying the same single-qubit rotation (rotation
    convention) to every qubit of the embedded dense state.
    """
    n = state.n_qubits
    c = state.coeffs
    if axis == "z":
        # standard z per qubit sums to N - 2j on |W_j>
        j = np.arange(n + 1, dtype=float)
        return WBasisState(n, np.exp(-1j * (angle / 2) * (n - 2 * j)) * c)
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be x, y or z, got {axis!r}")
    w, v = _x_generator_spectrum(n)
    if axis == "y":
        # y generator = D^dag X D with D = diag(i^-j)
        d = np.power(1j, -np.arange(n + 1))
        c = d * c
    out = v @ (np.exp(-1j * (angle / 2) * w) * (v.T @ c))
    if axis == "y":
        out = d.conjugate() * out
    return WBasisState(n, out)


def embed(state: WBasisState) -> StateVector:
    """Dense reconstruction sum_j coeff_j |W_j>."""
    n = state.n_qubits
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"embedding limited to n <= {MAX_DENSE_QUBITS}")
    pop = popcounts(n)
    weights = state.coeffs / np.sqrt(binomial_row(n))
    return StateVector(n, weights[pop].astype(complex))


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


def ghz_w_target(n: int) -> WBasisState:
    """The GHZ state in the W basis: 1/sqrt(2) at j = 0 and j = N."""
    c = np.zeros(n + 1, dtype=complex)
    c[0] = c[n] = 1.0 / np.sqrt(2.0)
    return WBasisState(n, c)


# ---------------------------------------------------------------------------
# dense collective operators, used to cross-check the ladder algebra


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
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    for _ in range(n):
        out = np.kron(out, x)
    return out
