"""Pulse-sequence compiler and executor for single-step GHZ generation.

Every protocol has one shape: the collective y pi/2 :data:`PREPARATION`,
free evolution under the exchange network for t = pi / (2|g - gz|), then
an ordered tuple of final :class:`Pulse` rotations, each on one qubit or
(``qubit=None``) the same on every qubit.  Odd qubit counts finish with a
collective x pi/2; even counts repeat the collective y pi/2 and add a z
rotation by theta(N) = (pi/2)(2 + (-1)^(N/2)) on qubit 1.  When the ZZ
coupling exceeds the XY coupling (gz > g) the even family needs an extra
z pi/2 on two qubits, which also flips the overall sign of the expected
global phase.  Correcting imperfect couplings changes only t and some
final angles, never the shape.

Both engines read the plan directly: the dense engine simulates the full
2^N statevector, applying the final pulses with :func:`rotate_pulses`; the
symmetric engine runs the plan in the (N+1)-dimensional W basis up to its
first single-qubit pulse.  To return a state (N <= 14) it embeds that and
applies the rest with :func:`rotate_pulses` too; to verify a plan
at any N it requires the rest to be z rotations, which are diagonal on
|0...0> and |1...1>, and applies their inverse to the GHZ target instead.

The dense engine's free evolution e^{-iHt} has two paths, chosen by qubit
count alone (see :class:`HamiltonianPropagator`).  Up to N = 6, which
covers every optimizer problem, H is diagonalized once and every apply is
a pair of matrix products; above, e^{-iHt} is expanded in Chebyshev
polynomials of the real sparse H at a few hundred terms per apply, each
one sparse product for the real prepared state and two for a complex
one.  Diagonalizing costs O(8^N), and no caller applies a propagator
above N = 6 more than once, so it would never pay for itself there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .chebyshev import PropagationError, chebyshev_propagate
from .couplings import (
    MAX_DENSE_QUBITS,
    CouplingGraph,
    _exchange_pattern,
    check_dense_qubit_count,
    check_qubit_count,
    ideal,
    to_sparse,
)
from .dense import (
    GlobalPhase,
    StateVector,
    all_zeros,
    apply_collective_rotation,
    fidelity_frobenius_raw,
    global_phase_between_raw,
    rotate_amplitudes,
    single_qubit_rotation,
)
from .symmetric import (
    WBasisState,
    _eigenvalue,
    analytic_eigenvalues,
    collective_rotation,
    embed,
    entangle_phases,
    ghz_w_target,
    uniform_superposition,
)

# largest qubit count diagonalized: up to here one complex eigh is
# cheaper than a single Chebyshev apply
EIGH_MAX_QUBITS = 6
# longest Chebyshev expansion attempted, in units of r|t| (the scaled
# spectrum's radius times the time); only near-degenerate couplings
# g -> gz, whose entangling time diverges, come close
MAX_CHEBYSHEV_ORDER = 10_000


class DegenerateCouplingError(ValueError):
    """g = gz: the uniform superposition is stationary and never entangles."""


class EngineCapabilityError(ValueError):
    """The requested engine cannot run this plan/graph combination."""


@dataclass(frozen=True)
class GhzTarget:
    """The N-qubit cat state (|0...0> + |1...1>)/sqrt(2)."""

    n_qubits: int
    state: StateVector


def ghz_target(n: int) -> GhzTarget:
    check_qubit_count(n)
    check_dense_qubit_count(n)
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return GhzTarget(n, StateVector(n, amps))


def entangling_time(g: float, gz: float) -> float:
    """t = pi / (2|g - gz|), the time printing the GHZ branch phases."""
    # an infinite 2|g - gz| (finite couplings can overflow) would give t = 0
    width = 2.0 * abs(g - gz)
    if not math.isfinite(width):
        raise ValueError(f"g, gz and 2|g - gz| must be finite, got g = {g}, gz = {gz}")
    if g == gz:
        raise DegenerateCouplingError(
            f"g = gz = {g}: isotropic coupling cannot entangle the uniform state"
        )
    t = np.pi / width
    if math.isinf(t):
        raise DegenerateCouplingError(
            f"|g - gz| = {abs(g - gz)} is too small: the entangling time overflows"
        )
    return t


def theta(n: int) -> float:
    """Final z angle on qubit 1 for even N: (pi/2)(2 + (-1)^(N/2))."""
    if n % 2 != 0:
        raise ValueError(f"theta is defined for even qubit counts, got {n}")
    return (np.pi / 2.0) * (2 + (-1) ** (n // 2))


@dataclass(frozen=True)
class Pulse:
    """exp(-i (angle/2) sigma_axis) on ``qubit`` (1-based), or on every
    qubit when ``qubit`` is None."""

    axis: str
    angle: float
    qubit: int | None = None


# the collective pulse that turns |0...0> into the uniform superposition
PREPARATION = Pulse("y", np.pi / 2)


@dataclass(frozen=True)
class ProtocolPlan:
    """:data:`PREPARATION`, free evolution, final pulses; and the global
    phase the sequence is expected to leave on the GHZ state."""

    n_qubits: int
    entangle_duration: float
    finals: tuple[Pulse, ...]
    expected_phase: GlobalPhase

    def __post_init__(self):
        for p in self.finals:
            if p.axis not in ("x", "y", "z"):
                raise ValueError(f"pulse axis must be x, y or z, got {p.axis!r}")
            if p.qubit is not None and not 1 <= p.qubit <= self.n_qubits:
                raise ValueError(f"pulse qubit {p.qubit} out of range 1..{self.n_qubits}")

    @property
    def parity(self) -> str:
        return "odd" if self.n_qubits % 2 else "even"

    def per_qubit(self) -> ProtocolPlan:
        """The same plan with each collective pulse split into one pulse per
        qubit, qubits in ascending order."""
        qubits = range(1, self.n_qubits + 1)
        finals = tuple(
            Pulse(p.axis, p.angle, q)
            for p in self.finals
            for q in (qubits if p.qubit is None else (p.qubit,))
        )
        return replace(self, finals=finals)

    def to_dict(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "parity": self.parity,
            "initial": {"axis": PREPARATION.axis, "angle": PREPARATION.angle},
            "entangle_duration": self.entangle_duration,
            "finals": [
                {"qubit": p.qubit, "axis": p.axis, "angle": p.angle}
                for p in self.per_qubit().finals
            ],
            "expected_phase": {
                "real": self.expected_phase.phase.real,
                "imag": self.expected_phase.phase.imag,
            },
        }


def compile_plan(n: int, g: float, gz: float) -> ProtocolPlan:
    """Compile the GHZ pulse sequence for n uniformly coupled qubits.

    The expected global phase carries e^{-i lambda_0 t} from the entangling
    pulse times a family factor: e^{i (-1)^((N-3)/2) pi/4} for odd N and
    e^{i (N/2 - 1) pi} for even N with g > gz.  For even N with g < gz the
    compiled correction (z pi/2 on two qubits) leaves the total expected
    phase at -e^{-i lambda_0 t}.
    """
    check_qubit_count(n)
    t = entangling_time(g, gz)
    branch_phase = np.exp(-1j * _eigenvalue(0.0, n, g, gz) * t)
    if n % 2 == 1:
        finals = [Pulse("x", np.pi / 2)]
        family = np.exp(1j * (-1) ** ((n - 3) // 2) * np.pi / 4)
        phase = branch_phase * family
    else:
        finals = [Pulse("y", np.pi / 2), Pulse("z", theta(n), 1)]
        if g < gz:
            correction_qubits = (1, 2) if n == 2 else (2, 3)
            finals.extend(Pulse("z", np.pi / 2, q) for q in correction_qubits)
            phase = -branch_phase
        else:
            phase = branch_phase * np.exp(1j * (n // 2 - 1) * np.pi)
    return ProtocolPlan(
        n_qubits=n,
        entangle_duration=t,
        finals=tuple(finals),
        expected_phase=GlobalPhase(phase),
    )


class HamiltonianPropagator:
    """Reusable e^{-iHt} applier for one coupling graph.

    Two paths, chosen by qubit count:

    * factorized (N <= ``EIGH_MAX_QUBITS``) -- the full complex
      eigendecomposition of H, built with the propagator, after which each
      apply is two dense products.  The prepared state's eigenbasis
      coefficients are cached too, so :meth:`propagate_prepared` is one;
    * matrix-free (above) -- H is stored as real CSR shifted and scaled to
      [-1, 1] by its Gershgorin bounds (centre c, radius r), written into
      the arrays :func:`~ghznet.couplings.to_sparse` returned (same
      positions, zeros kept; no second matrix is built), and each apply
      is a :func:`~ghznet.chebyshev.chebyshev_propagate` expansion, one
      real sparse matrix-vector product per term and per nonzero part of
      the state: one for the real :meth:`propagate_prepared` start, two
      for a complex state.

    The expansion length grows as r|t|; beyond ``MAX_CHEBYSHEV_ORDER``
    (near-degenerate couplings) a matrix-free apply raises
    :class:`PropagationError`, as it does if it changes the norm.
    """

    def __init__(self, graph: CouplingGraph):
        self.n_qubits = graph.n_qubits
        h = to_sparse(graph)
        if graph.n_qubits <= EIGH_MAX_QUBITS:
            # complex eigh of the complex matrix, as the N <= 6 results
            # depend on its exact rounding (the real solver gives other bits)
            eigvals, self._eigvecs = np.linalg.eigh(h.toarray().astype(complex))
            # -1j * eigvals, the first factor of every apply's phase product
            self._rates = -1j * eigvals
            self._prepared_coeffs = self._eigvecs.conj().T @ _prepared(self.n_qubits)
            return
        self._rates = None
        diag = h.diagonal()
        off = np.asarray(abs(h).sum(axis=1)).ravel() - np.abs(diag)
        lower, upper = np.min(diag - off), np.max(diag + off)
        self._centre = 0.5 * (upper + lower)
        # r = 0 means H = c I; any positive scale then expands exactly
        self._radius = 0.5 * (upper - lower) or 1.0
        # (H - c I) / r in H's own arrays, rounded as scipy rounds it (it
        # divides by multiplying by 1/r); entries that come out zero stay
        # stored, which changes no bit of a product
        inv_radius = 1 / self._radius
        h.data *= inv_radius
        h.data[_exchange_pattern(self.n_qubits).diagonal] = (diag - self._centre) * inv_radius
        self._scaled = h

    @property
    def factorized(self) -> bool:
        """True when applies go through the eigendecomposition."""
        return self._rates is not None

    def propagate(self, amplitudes: np.ndarray, t: float) -> np.ndarray:
        if self._rates is None:
            return self._chebyshev(amplitudes, t)
        phases = np.exp(self._rates * t)
        return self._eigvecs @ (phases * (self._eigvecs.conj().T @ amplitudes))

    def propagate_prepared(self, t: float) -> np.ndarray:
        """e^{-iHt} applied to :data:`PREPARATION` |0...0>."""
        if self._rates is None:
            return self.propagate(_prepared(self.n_qubits), t)
        return self._eigvecs @ (np.exp(self._rates * t) * self._prepared_coeffs)

    def _chebyshev(self, amplitudes: np.ndarray, t: float) -> np.ndarray:
        rt = self._radius * t
        if not abs(rt) <= MAX_CHEBYSHEV_ORDER:
            raise PropagationError(
                f"e^(-iHt) at N = {self.n_qubits} needs a Chebyshev expansion of "
                f"order ~{abs(rt):.3g} > {MAX_CHEBYSHEV_ORDER} (near-degenerate "
                "couplings give a diverging entangling time)"
            )
        h = self._scaled

        def matvec(v: np.ndarray) -> np.ndarray:
            # one single-vector product per row: scipy's multi-vector CSR
            # kernel is slower than two single-vector ones
            return np.array([h @ row for row in v])

        return chebyshev_propagate(matvec, self._centre, self._radius, amplitudes, t)


def _prepared(n: int) -> np.ndarray:
    """Amplitudes of :data:`PREPARATION` applied to |0...0>."""
    # not rotate_pulses: perfbench's dense.rotation layer records this call,
    # and tests/test_bench_contract.py checks that it is reached
    psi = apply_collective_rotation(all_zeros(n), PREPARATION.axis, PREPARATION.angle)
    return psi.amplitudes


def rotate_pulses(
    amplitudes: np.ndarray, n: int, pulses: tuple[Pulse, ...], us: list[np.ndarray]
) -> np.ndarray:
    """Rotate a raw 2^n amplitude vector by ``pulses`` in order, pulse i by
    the 2x2 matrix ``us[i]``; a collective pulse rotates qubits 1..n in
    ascending order.  :class:`ProtocolPlan` checks the qubits."""
    for p, u in zip(pulses, us):
        for k in range(1, n + 1) if p.qubit is None else (p.qubit,):
            amplitudes = rotate_amplitudes(amplitudes, n, k, u)
    return amplitudes


def _run_w_basis(
    plan: ProtocolPlan, g: float, gz: float
) -> tuple[WBasisState, tuple[Pulse, ...]]:
    """Run the plan in the W basis up to its first single-qubit pulse.

    Returns the state and the final pulses left unapplied.
    """
    n = plan.n_qubits
    # PREPARATION |0...0>, in closed form
    w = uniform_superposition(n)
    w = entangle_phases(w, analytic_eigenvalues(n, g, gz), plan.entangle_duration)
    finals = plan.finals
    while finals and finals[0].qubit is None:
        w = collective_rotation(w, finals[0].axis, finals[0].angle)
        finals = finals[1:]
    return w, finals


def execute_symmetric(plan: ProtocolPlan, g: float, gz: float) -> WBasisState:
    """Run a fully collective plan in the W basis (any qubit count).

    Raises :class:`EngineCapabilityError` when the plan contains a
    single-qubit final pulse.
    """
    w, rest = _run_w_basis(plan, g, gz)
    if rest:
        raise EngineCapabilityError(
            "plan contains single-qubit final pulses; the pure W-basis "
            "engine only handles identical rotations on every qubit"
        )
    return w


def execute(
    plan: ProtocolPlan,
    graph: CouplingGraph,
    engine: str = "dense",
) -> StateVector:
    """Apply the compiled sequence to |0...0> and return the final state.

    The symmetric engine requires an ideal (uniform) graph; it runs the
    plan in the W basis up to the first single-qubit pulse and finishes
    the rest on the embedded dense state.  Both need N <= 14;
    :func:`execute_symmetric` runs collective-only plans at any N.
    """
    n = plan.n_qubits
    if graph.n_qubits != n:
        raise ValueError(f"plan is for {n} qubits but graph has {graph.n_qubits}")
    if n > MAX_DENSE_QUBITS:
        raise EngineCapabilityError(
            f"execute returns a dense state, limited to {MAX_DENSE_QUBITS} qubits, got {n}"
        )
    if engine == "dense":
        amps = HamiltonianPropagator(graph).propagate_prepared(plan.entangle_duration)
        pulses = plan.finals
    elif engine == "symmetric":
        if not graph.is_ideal():
            raise EngineCapabilityError(
                "symmetric engine requires uniform couplings on every pair"
            )
        w, pulses = _run_w_basis(plan, graph.g_ref, graph.gz_ref)
        amps = embed(w).amplitudes
    else:
        raise ValueError(f"engine must be 'dense' or 'symmetric', got {engine!r}")
    us = [single_qubit_rotation(p.axis, p.angle) for p in pulses]
    return StateVector(n, rotate_pulses(amps, n, pulses, us))


def verify(
    n: int, g: float, gz: float, engine: str = "dense"
) -> tuple[float, GlobalPhase]:
    """Compile and run the ideal protocol; return (aligned fidelity, phase).

    The phase is the measured global phase of the output relative to the
    GHZ target; for a correct run it equals the plan's expected phase.
    The dense engine is limited to N <= 14; the symmetric engine runs both
    parities in the W basis, with 1 - F growing as N^2 (2e-8 at N = 30001).
    """
    return _verify_plan(compile_plan(n, g, gz), g, gz, engine)


def _verify_plan(
    plan: ProtocolPlan, g: float, gz: float, engine: str
) -> tuple[float, GlobalPhase]:
    """:func:`verify` for an already compiled plan of the (g, gz) network."""
    n = plan.n_qubits
    if engine == "symmetric":
        w, rest = _run_w_basis(plan, g, gz)
        psi, target = w.coeffs, _pulled_back_ghz(n, rest)
    else:
        psi = execute(plan, ideal(n, g, gz), engine=engine).amplitudes
        target = ghz_target(n).state.amplitudes
    fid = fidelity_frobenius_raw(psi, target, align_phase=True)
    return fid, global_phase_between_raw(psi, target)


def _pulled_back_ghz(n: int, pulses: tuple[Pulse, ...]) -> np.ndarray:
    """W coefficients of U^dag |GHZ> for the product U of z pulses.

    A z rotation by a on one qubit multiplies |0...0> by e^{-ia/2} and
    |1...1> by e^{+ia/2}, so U^dag |GHZ> stays in span{W_0, W_N}, and the
    fidelity and phase of U psi against |GHZ> are those of psi against it.
    """
    if any(p.axis != "z" for p in pulses):
        raise EngineCapabilityError(
            "the symmetric engine verifies a plan in the W basis only when "
            "every pulse from the first single-qubit one on is a z rotation"
        )
    half = sum(p.angle * (n if p.qubit is None else 1) for p in pulses) / 2
    c = ghz_w_target(n).coeffs
    c[0] *= np.exp(1j * half)
    c[n] *= np.exp(-1j * half)
    return c
