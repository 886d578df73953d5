"""Dense 2^N statevector engine: states, single-qubit rotations, metrics.

Basis conventions
-----------------
Computational basis states are indexed as binary integers with qubit 1 in
the most significant position, so ``|x_1 x_2 ... x_N>`` sits at index
``sum_k x_k 2^(N-k)``.

One Pauli convention is used throughout: the standard computational-basis
triple in this module's private table (``z`` diagonal ``(+1, -1)``,
``sigma_x sigma_y = i sigma_z`` cyclically), so that a y-rotation by pi/2
maps ``|0>`` to ``(|0> + |1>)/sqrt(2)``.  Every rotation of a 2^N state
goes through :func:`rotate_amplitudes`, one 2x2 product on one qubit; the
free evolution e^{-iHt} lives in :class:`ghznet.protocol.HamiltonianPropagator`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .couplings import MAX_DENSE_QUBITS, check_dense_qubit_count, check_integer_count

NORM_ATOL = 1e-12
PHASE_OVERLAP_ATOL = 1e-6

_IDENTITY = np.eye(2, dtype=complex)
_PAULIS = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}
# per axis, the (identity, generator) entry pairs in row-major order, as
# Python complex scalars
_ENTRY_PAIRS = {
    axis: tuple(zip(_IDENTITY.ravel().tolist(), g.ravel().tolist()))
    for axis, g in _PAULIS.items()
}


class NoGlobalPhaseError(ValueError):
    """Two states are not equal up to a global phase."""


@dataclass(frozen=True)
class StateVector:
    """Dense complex amplitude vector over ``n_qubits`` qubits."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        check_integer_count(self.n_qubits)
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
class GlobalPhase:
    """A unit-modulus complex scalar relating two phase-equivalent states."""

    phase: complex

    def __post_init__(self):
        # written so that a NaN phase fails it too
        if not abs(abs(self.phase) - 1.0) <= NORM_ATOL:
            raise ValueError(f"|phase| = {abs(self.phase):.15g}, expected 1")


def basis_state(n: int, bits: str) -> StateVector:
    """Computational basis state ``|bits>`` with qubit 1 as the leading bit."""
    check_dense_qubit_count(n)
    if len(bits) != n or any(b not in "01" for b in bits):
        raise ValueError(f"bits {bits!r} is not a length-{n} bitstring")
    amps = np.zeros(1 << n, dtype=complex)
    amps[int(bits, 2)] = 1.0
    return StateVector(n, amps)


def all_zeros(n: int) -> StateVector:
    check_dense_qubit_count(n)
    return basis_state(n, "0" * n)


def single_qubit_rotation(axis: str, angle: float) -> np.ndarray:
    """2x2 unitary exp(-i (angle/2) sigma_axis).

    Each entry is ``cos(angle/2) I - i sin(angle/2) sigma`` formed on
    Python complex scalars, whose product and difference are the ones
    numpy applies elementwise to the 2x2 arrays, so the bytes equal those
    of that array expression at a fraction of its cost.  The cosine is
    made complex first, as numpy promotes it, rather than left to
    Python's mixed float-complex rules.
    """
    if axis not in _ENTRY_PAIRS:
        raise ValueError(f"axis must be x, y or z, got {axis!r}")
    c = complex(np.cos(angle / 2))
    z = 1j * np.sin(angle / 2)
    (i0, g0), (i1, g1), (i2, g2), (i3, g3) = _ENTRY_PAIRS[axis]
    entries = [c * i0 - z * g0, c * i1 - z * g1, c * i2 - z * g2, c * i3 - z * g3]
    return np.array(entries, dtype=complex).reshape(2, 2)


def rotate_amplitudes(amplitudes: np.ndarray, n: int, k: int, u: np.ndarray) -> np.ndarray:
    """Apply a 2x2 matrix to qubit ``k`` of a raw 2^n amplitude vector.

    Qubit k's index is brought to the front as a ``(2, 2^(n-1))`` block
    and left-multiplied by ``u`` in one ``np.dot`` -- the operands
    ``np.tensordot`` would pass, so the result is bit-identical to it at
    a fraction of the bookkeeping.  No bounds check: callers validate k.
    """
    lead, trail = 1 << (k - 1), 1 << (n - k)
    if lead == 1:
        # qubit 1 is already in front: the same block, as a plain view
        return np.dot(u, amplitudes.reshape(2, trail)).reshape(-1)
    block = amplitudes.reshape(lead, 2, trail).transpose(1, 0, 2).reshape(2, -1)
    out = np.dot(u, block)
    return out.reshape(2, lead, trail).transpose(1, 0, 2).reshape(-1)


def apply_rotation(state: StateVector, k: int, axis: str, angle: float) -> StateVector:
    n = state.n_qubits
    if not 1 <= k <= n:
        raise ValueError(f"qubit index {k} out of range 1..{n}")
    u = single_qubit_rotation(axis, angle)
    return StateVector(n, rotate_amplitudes(state.amplitudes, n, k, u))


def apply_collective_rotation(state: StateVector, axis: str, angle: float) -> StateVector:
    """Same rotation on every qubit, qubits in ascending order."""
    n = state.n_qubits
    u = single_qubit_rotation(axis, angle)
    amps = state.amplitudes
    for k in range(1, n + 1):
        amps = rotate_amplitudes(amps, n, k, u)
    return StateVector(n, amps)


def fidelity_frobenius(psi: StateVector, target: StateVector, align_phase: bool) -> float:
    """Frobenius-distance fidelity 1 - ||psi' - target||_2.

    With ``align_phase`` the state is first multiplied by the unit phase
    making ``<target|psi>`` real and nonnegative, which maximizes the result
    over global phases.
    """
    if psi.dim != target.dim:
        raise ValueError(f"dimension mismatch: {psi.dim} vs {target.dim}")
    return fidelity_frobenius_raw(psi.amplitudes, target.amplitudes, align_phase)


def fidelity_frobenius_raw(a: np.ndarray, target: np.ndarray, align_phase: bool) -> float:
    """:func:`fidelity_frobenius` on raw amplitude vectors of equal length."""
    if align_phase:
        a = phase_aligned(a, target)
    # np.linalg.norm's own complex path, without its dispatch
    d = a - target
    re, im = d.real, d.imag
    return 1.0 - math.sqrt(re.dot(re) + im.dot(im))


def phase_aligned(a: np.ndarray, target: np.ndarray) -> np.ndarray:
    """``a`` times the unit phase making ``<target|a>`` real and nonnegative."""
    ov = np.vdot(target, a)
    r = abs(ov)
    return a * (ov.conjugate() / r) if r > 0 else a


def global_phase_between_raw(a: np.ndarray, b: np.ndarray) -> GlobalPhase:
    """Unit phase phi with a ~= phi * b, for raw vectors of equal length;
    :class:`NoGlobalPhaseError` if there is none (a NaN state included)."""
    ov = np.vdot(b, a)
    if not abs(ov) >= 1.0 - PHASE_OVERLAP_ATOL:
        raise NoGlobalPhaseError(
            f"states are not equal up to a global phase (|<b|a>| = {abs(ov):.9f})"
        )
    return GlobalPhase(ov / abs(ov))
