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
The raw-array kernels also take a ``(K, 2^N)`` block of states and give
each row the bytes it gets alone, so the optimizer evaluates many
parameter points in one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .couplings import check_dense_qubit_count, check_integer

NORM_ATOL = 1e-12
PHASE_OVERLAP_ATOL = 1e-6

_IDENTITY = np.eye(2, dtype=complex)
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
        object.__setattr__(self, "n_qubits", check_dense_qubit_count(self.n_qubits))
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
    n = check_dense_qubit_count(n)
    if len(bits) != n or any(b not in "01" for b in bits):
        raise ValueError(f"bits {bits!r} is not a length-{n} bitstring")
    amps = np.zeros(1 << n, dtype=complex)
    amps[int(bits, 2)] = 1.0
    return StateVector(n, amps)


def all_zeros(n: int) -> StateVector:
    n = check_dense_qubit_count(n)
    return basis_state(n, "0" * n)


def single_qubit_rotation(axis: str, angle) -> np.ndarray:
    """2x2 unitary exp(-i (angle/2) sigma_axis); for an array of angles,
    one matrix per angle, of shape ``angle.shape + (2, 2)``.

    ``cos(angle/2) I - i sin(angle/2) sigma``, with the cosines and sines
    broadcast against the 2x2 tables: every entry is formed elementwise,
    so a stacked matrix has the bytes of the one built for its angle alone.
    """
    if axis not in _PAULIS:
        raise ValueError(f"axis must be x, y or z, got {axis!r}")
    half = np.asarray(angle / 2)[..., None, None]
    return np.cos(half) * _IDENTITY - 1j * np.sin(half) * _PAULIS[axis]


def rotate_amplitudes(amplitudes: np.ndarray, n: int, k: int, u: np.ndarray) -> np.ndarray:
    """Apply a 2x2 matrix to qubit ``k`` of a raw 2^n amplitude vector, or
    to each row of a ``(K, 2^n)`` block.

    Qubit k's index is brought to the front of each row as a ``(2,
    2^(n-1))`` block and left-multiplied by ``u``, which is one ``(2, 2)``
    matrix for every row or a ``(K, 2, 2)`` stack, one per row.  Each
    block's product is the one ``np.dot`` -- and so ``np.tensordot`` --
    forms, so the result is bit-identical to them, and a row of a block
    comes out as it would alone.  No bounds check: callers validate k.
    """
    lead, trail = 1 << (k - 1), 1 << (n - k)
    # a view when qubit k is already in front (lead = 1), a copy otherwise
    block = amplitudes.reshape(-1, lead, 2, trail).swapaxes(1, 2).reshape(-1, 2, lead * trail)
    out = u @ block
    return out.reshape(-1, 2, lead, trail).swapaxes(1, 2).reshape(amplitudes.shape)


def apply_rotation(state: StateVector, k: int, axis: str, angle: float) -> StateVector:
    n = state.n_qubits
    k = check_integer(k, "qubit index")
    if not 1 <= k <= n:
        raise ValueError(f"qubit index {k} out of range 1..{n}")
    u = single_qubit_rotation(axis, angle)
    return StateVector(n, rotate_amplitudes(state.amplitudes, n, k, u))


def rotate_pulses(amplitudes: np.ndarray, n: int, qubits: list, us: list) -> np.ndarray:
    """Rotate a raw 2^n amplitude vector, or each row of a ``(K, 2^n)``
    block, by pulses in order: pulse i by the 2x2 matrix ``us[i]``, or by
    the ``(K, 2, 2)`` stack ``us[i]``, one matrix per row, on the 1-based
    qubit ``qubits[i]``, or on qubits 1..n in ascending order when it is
    None.  No bounds check: callers validate the qubits."""
    for q, u in zip(qubits, us):
        for k in range(1, n + 1) if q is None else (q,):
            amplitudes = rotate_amplitudes(amplitudes, n, k, u)
    return amplitudes


def apply_collective_rotation(state: StateVector, axis: str, angle: float) -> StateVector:
    """Same rotation on every qubit, qubits in ascending order."""
    n = state.n_qubits
    u = single_qubit_rotation(axis, angle)
    return StateVector(n, rotate_pulses(state.amplitudes, n, [None], [u]))


def fidelity_frobenius(psi: StateVector, target: StateVector, align_phase: bool) -> float:
    """Frobenius-distance fidelity 1 - ||psi' - target||_2.

    With ``align_phase`` the state is first multiplied by the unit phase
    making ``<target|psi>`` real and nonnegative, which maximizes the result
    over global phases.
    """
    if psi.dim != target.dim:
        raise ValueError(f"dimension mismatch: {psi.dim} vs {target.dim}")
    return fidelity_frobenius_raw(psi.amplitudes, target.amplitudes, align_phase)


def fidelity_frobenius_raw(a: np.ndarray, target: np.ndarray, align_phase: bool):
    """:func:`fidelity_frobenius` on raw amplitude vectors of equal length,
    as a float; for a ``(K, d)`` block ``a``, the array of its K rows'
    fidelities, each equal to the row's own."""
    if align_phase:
        a = phase_aligned(a, target)
    # np.linalg.norm's own complex path, without its dispatch: per row, one
    # dot of the strided real view and one of the imaginary view (a
    # contiguous copy would take another BLAS kernel and other bits)
    d = (a - target).reshape(-1, 1, target.shape[0])
    re, im = d.real, d.imag
    sq = re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2)
    fid = 1.0 - np.sqrt(sq.reshape(a.shape[:-1]))
    return float(fid) if a.ndim == 1 else fid


def phase_aligned(a: np.ndarray, target: np.ndarray) -> np.ndarray:
    """``a`` times the unit phase making ``<target|a>`` real and nonnegative;
    each row of a ``(K, d)`` block times its own phase.  A state with no
    such phase (zero or NaN overlap) is returned unchanged."""
    # np.vdot's conjugated dot, with its bits, one per row
    ov = target.conj() @ a[..., None]
    # each modulus as Python's abs rounds it (the array abs rounds
    # otherwise); an overflowing one raises, as abs does
    with np.errstate(over="raise"):
        r = np.hypot(ov.real, ov.imag)
    # the complex division multiplies by 1/r, which overflows for r <= 2**-1024
    if (r > 2.0**-1024).all():
        return a * (ov.conjugate() / r)
    # such a row's overlap is scaled by an exact power of two and its
    # modulus taken again, so its phase has unit modulus; other rows keep
    # their bits
    tiny = (r > 0) & (r <= 2.0**-1024)
    ov[tiny] *= 2.0**100
    r[tiny] = np.hypot(ov.real[tiny], ov.imag[tiny])
    live = r > 0
    # a row without a phase stays as it is, and divides by nothing
    phase = np.divide(ov.conjugate(), r, out=np.zeros_like(ov), where=live)
    return np.multiply(a, phase, out=a.copy(), where=live)


def global_phase_between_raw(a: np.ndarray, b: np.ndarray) -> GlobalPhase:
    """Unit phase phi with a ~= phi * b, for raw vectors of equal length;
    :class:`NoGlobalPhaseError` if there is none (a NaN state included)."""
    ov = np.vdot(b, a)
    if not abs(ov) >= 1.0 - PHASE_OVERLAP_ATOL:
        raise NoGlobalPhaseError(
            f"states are not equal up to a global phase (|<b|a>| = {abs(ov):.9f})"
        )
    return GlobalPhase(ov / abs(ov))
