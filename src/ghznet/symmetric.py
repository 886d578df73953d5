"""Symmetric-subspace engine over the generalized W states.

The N+1 states ``|W_j>`` (equal-weight superpositions of all bitstrings
with exactly j excited qubits) span the subspace preserved by the uniform
fully connected exchange Hamiltonian and by collective rotations.  States
here are coefficient vectors of length N+1, so memory is O(N) at any
qubit count.  Free evolution is diagonal, a collective z rotation is
diagonal, and a collective x or y rotation by angle a is a Chebyshev
expansion (:mod:`ghznet.chebyshev`) of about N|a|/2 products with the
tridiagonal x generator, O(N) each.  Only :func:`embed`, the dense
reconstruction (``|W_j>`` is the embedded unit vector e_j), caps N at 14.

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

import math
from dataclasses import dataclass

import numpy as np

from .chebyshev import chebyshev_propagate
from .couplings import check_dense_qubit_count, check_qubit_count, check_real
from .dense import StateVector


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
        object.__setattr__(self, "n_qubits", check_qubit_count(self.n_qubits, minimum=1))
        c = np.asarray(self.coeffs, dtype=complex)
        if c.shape != (self.n_qubits + 1,):
            raise ValueError(
                f"coefficient vector has shape {c.shape}, expected ({self.n_qubits + 1},)"
            )
        object.__setattr__(self, "coeffs", c)

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))


def analytic_eigenvalues(n: int, g: float, gz: float) -> np.ndarray:
    """lambda_j = j(N-j)(g - gz) + C(N,2) gz/2 for j = 0..N.

    The ground/ceiling value lambda_0 = lambda_N = C(N,2) gz/2 is the
    eigenenergy shared by |0...0> and |1...1>; the symmetry
    lambda_j = lambda_{N-j} is exact as computed.
    """
    n, g, gz = check_qubit_count(n), check_real(g, "g"), check_real(gz, "gz")
    with np.errstate(over="ignore", invalid="ignore"):
        lam = _eigenvalue(np.arange(n + 1, dtype=float), n, g, gz)
    if not np.isfinite(lam).all():
        raise ValueError(f"eigenvalues at N = {n}, g = {g}, gz = {gz} are not finite")
    return lam


def _eigenvalue(j, n: int, g: float, gz: float):
    """lambda_j for a float j or an array of them; at j = 0.0 this is
    lambda_0 with the bits of ``analytic_eigenvalues(n, g, gz)[0]``
    (the 0.0 * (g - gz) term keeps the sign of a zero), without building
    the other N eigenvalues."""
    return j * (n - j) * (g - gz) + 0.5 * n * (n - 1) * (gz / 2.0)


def popcounts(n: int) -> np.ndarray:
    """Popcount of every index 0..2^n - 1, as int64."""
    return np.bitwise_count(np.arange(1 << n, dtype=np.int64)).astype(np.int64)


def raising_coefficients(n: int) -> np.ndarray:
    """sqrt((N-j)(j+1)) for j = 0..N-1: matrix elements <W_{j+1}|Sigma_+|W_j>."""
    j = np.arange(n, dtype=float)
    return np.sqrt((n - j) * (j + 1))


def entangle_phases(state: WBasisState, lam: np.ndarray, t: float) -> WBasisState:
    """Free evolution in the W basis: coeff_j -> exp(-i lambda_j t) coeff_j,
    with ``lam`` the N+1 eigenvalues of :func:`analytic_eigenvalues`."""
    t = check_real(t, "t")
    if len(lam) != state.n_qubits + 1:
        raise ValueError(
            f"{len(lam)} eigenvalues for a {state.n_qubits}-qubit W-basis state"
        )
    return WBasisState(state.n_qubits, np.exp(-1j * lam * t) * state.coeffs)


# i^-j for j mod 4, exact (a complex power of 1j drifts at large j)
_I_POWERS = np.array([1, -1j, -1, 1j])


def _x_generator(n: int):
    """Matrix-free sum_k X_k / N on each real row of W coefficients;
    sum_k X_k = Sigma_+ + Sigma_- has spectrum exactly [-N, N]."""
    a = raising_coefficients(n) / n

    def matvec(v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)
        out[:, 1:] = a * v[:, :-1]
        out[:, :-1] += a * v[:, 1:]
        return out

    return matvec


def collective_rotation(state: WBasisState, axis: str, angle: float) -> WBasisState:
    """exp(-i (angle/2) Sigma_axis) restricted to the symmetric subspace.

    Agrees with applying the same single-qubit rotation (rotation
    convention) to every qubit of the embedded dense state.  An x or y
    rotation is a Chebyshev expansion of about N|a|/2 tridiagonal
    products, with a the angle reduced to [-2 pi, 2 pi] (Sigma_axis has
    integer eigenvalues, so the rotation has period 4 pi; an angle
    already in that range is kept as it is); z is diagonal.  A non-finite
    angle raises ``ValueError``.
    """
    n = state.n_qubits
    c = state.coeffs
    angle = check_real(angle, "angle")
    if axis == "z":
        # standard z per qubit sums to N - 2j on |W_j>
        j = np.arange(n + 1, dtype=float)
        return WBasisState(n, np.exp(-1j * (angle / 2) * (n - 2 * j)) * c)
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be x, y or z, got {axis!r}")
    if axis == "y":
        # y generator = D^dag X D with D = diag(i^-j)
        d = _I_POWERS[np.arange(n + 1) % 4]
        c = d * c
    half = math.remainder(angle, 4 * math.pi) / 2
    out = chebyshev_propagate(_x_generator(n), 0.0, n, c, half)
    if axis == "y":
        out = d.conjugate() * out
    return WBasisState(n, out)


def uniform_superposition(n: int) -> WBasisState:
    """The collective y pi/2 rotation of |W_0> = |0...0>, in closed form:
    c_j = sqrt(C(N,j)) / 2^(N/2), from log-gamma (finite at any N)."""
    from scipy.special import gammaln

    n = check_qubit_count(n, minimum=1)
    j = np.arange(n + 1, dtype=float)
    log_c = 0.5 * (gammaln(n + 1) - gammaln(j + 1) - gammaln(n - j + 1))
    # sum_j C(N,j) = 2^N, so normalizing supplies the 2^(-N/2)
    c = np.exp(log_c - log_c.max())
    return WBasisState(n, c / np.linalg.norm(c))


def embed(state: WBasisState) -> StateVector:
    """Dense reconstruction sum_j coeff_j |W_j>."""
    n = check_dense_qubit_count(state.n_qubits)
    pop = popcounts(n)
    weights = state.coeffs / np.sqrt(binomial_row(n))
    return StateVector(n, weights[pop].astype(complex))


def ghz_w_target(n: int) -> WBasisState:
    """The GHZ state in the W basis: 1/sqrt(2) at j = 0 and j = N."""
    n = check_qubit_count(n)
    c = np.zeros(n + 1, dtype=complex)
    c[0] = c[n] = 1.0 / np.sqrt(2.0)
    return WBasisState(n, c)

