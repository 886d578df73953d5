"""Dense 2^N statevector engine: operators, exact Hermitian evolution, metrics.

Basis conventions
-----------------
Computational basis states are indexed as binary integers with qubit 1 in
the most significant position, so ``|x_1 x_2 ... x_N>`` sits at index
``sum_k x_k 2^(N-k)``.

One Pauli convention is used throughout: the standard computational-basis
triple returned by :func:`rotation_generator` (``z`` diagonal ``(+1, -1)``,
``sigma_x sigma_y = i sigma_z`` cyclically), so that a y-rotation by pi/2
maps ``|0>`` to ``(|0> + |1>)/sqrt(2)``.  :func:`pauli_on` embeds the same
matrices on one qubit of an N-qubit register.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_DENSE_QUBITS = 14

NORM_ATOL = 1e-12
HERMITIAN_ATOL = 1e-12
PHASE_OVERLAP_ATOL = 1e-6

_PAULIS = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


class NoGlobalPhaseError(ValueError):
    """Two states are not equal up to a global phase."""


@dataclass(frozen=True)
class StateVector:
    """Dense complex amplitude vector over ``n_qubits`` qubits."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"amplitude vector has length {amps.shape}, "
                f"expected {1 << self.n_qubits}"
            )
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


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


@dataclass(frozen=True)
class GlobalPhase:
    """A unit-modulus complex scalar relating two phase-equivalent states."""

    phase: complex

    def __post_init__(self):
        if abs(abs(self.phase) - 1.0) > NORM_ATOL:
            raise ValueError(f"|phase| = {abs(self.phase):.15g}, expected 1")


def basis_state(n: int, bits: str) -> StateVector:
    """Computational basis state ``|bits>`` with qubit 1 as the leading bit."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(bits) != n or any(b not in "01" for b in bits):
        raise ValueError(f"bits {bits!r} is not a length-{n} bitstring")
    amps = np.zeros(1 << n, dtype=complex)
    amps[int(bits, 2)] = 1.0
    return StateVector(n, amps)


def all_zeros(n: int) -> StateVector:
    return basis_state(n, "0" * n)


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
    return DenseOperator(1 << n, _embed_single(n, k, rotation_generator(axis)), hermitian=True)


def rotation_generator(axis: str) -> np.ndarray:
    """2x2 rotation generator (standard computational-basis Pauli)."""
    if axis not in _PAULIS:
        raise ValueError(f"axis must be x, y or z, got {axis!r}")
    return _PAULIS[axis]


def single_qubit_rotation(axis: str, angle: float) -> np.ndarray:
    """2x2 unitary exp(-i (angle/2) sigma_axis)."""
    g = rotation_generator(axis)
    return np.cos(angle / 2) * np.eye(2, dtype=complex) - 1j * np.sin(angle / 2) * g


def apply_single_qubit(state: StateVector, k: int, u: np.ndarray) -> StateVector:
    """Apply a 2x2 unitary to qubit ``k`` via tensor reshaping (no big kron)."""
    n = state.n_qubits
    if not 1 <= k <= n:
        raise ValueError(f"qubit index {k} out of range 1..{n}")
    psi = state.amplitudes.reshape([2] * n)
    psi = np.tensordot(u, psi, axes=([1], [k - 1]))
    psi = np.moveaxis(psi, 0, k - 1)
    return StateVector(n, np.ascontiguousarray(psi).reshape(-1))


def apply_rotation(state: StateVector, k: int, axis: str, angle: float) -> StateVector:
    return apply_single_qubit(state, k, single_qubit_rotation(axis, angle))


def apply_collective_rotation(state: StateVector, axis: str, angle: float) -> StateVector:
    """Same rotation on every qubit."""
    u = single_qubit_rotation(axis, angle)
    for k in range(1, state.n_qubits + 1):
        state = apply_single_qubit(state, k, u)
    return state


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


def fidelity_frobenius(psi: StateVector, target: StateVector, align_phase: bool) -> float:
    """Frobenius-distance fidelity 1 - ||psi' - target||_2.

    With ``align_phase`` the state is first multiplied by the unit phase
    making ``<target|psi>`` real and nonnegative, which maximizes the result
    over global phases.
    """
    if psi.dim != target.dim:
        raise ValueError(f"dimension mismatch: {psi.dim} vs {target.dim}")
    a = psi.amplitudes
    if align_phase:
        ov = np.vdot(target.amplitudes, a)
        if abs(ov) > 0:
            a = a * (ov.conjugate() / abs(ov))
    return 1.0 - float(np.linalg.norm(a - target.amplitudes))


def global_phase_between(a: StateVector, b: StateVector) -> GlobalPhase:
    """Unit phase phi such that a ~= phi * b; raises if not phase-equivalent."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    ov = np.vdot(b.amplitudes, a.amplitudes)
    if abs(ov) < 1.0 - PHASE_OVERLAP_ATOL:
        raise NoGlobalPhaseError(
            f"states are not equal up to a global phase (|<b|a>| = {abs(ov):.9f})"
        )
    return GlobalPhase(ov / abs(ov))
