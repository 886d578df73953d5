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
2^N statevector pulse by pulse; the symmetric engine runs the plan in the
(N+1)-dimensional W basis up to its first single-qubit pulse and hands
the rest to the dense engine.

The dense engine's free evolution e^{-iHt} has two paths, chosen by qubit
count alone (see :class:`HamiltonianPropagator`).  Up to N = 6, which
covers every optimizer problem, H is diagonalized once and every apply is
a pair of matrix products; above, e^{-iHt} is expanded in Chebyshev
polynomials of the real sparse H at a few hundred sparse products per
apply.  Diagonalizing costs O(8^N), and no caller applies a propagator
above N = 6 more than once, so it would never pay for itself there.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import identity
from scipy.special import jv

from .couplings import CouplingGraph, ideal, to_sparse
from .dense import (
    MAX_DENSE_QUBITS,
    GlobalPhase,
    StateVector,
    all_zeros,
    apply_collective_rotation,
    apply_rotation,
    fidelity_frobenius,
    global_phase_between,
)
from .symmetric import (
    WBasisState,
    analytic_eigenvalues,
    collective_rotation,
    embed,
    entangle_phases,
)

# largest qubit count diagonalized: up to here one complex eigh is
# cheaper than a single Chebyshev apply
EIGH_MAX_QUBITS = 6
# longest Chebyshev expansion attempted, in units of r|t| (the scaled
# spectrum's radius times the time); only near-degenerate couplings
# g -> gz, whose entangling time diverges, come close
MAX_CHEBYSHEV_ORDER = 10_000
# Bessel coefficients below this (past order r|t|) end the expansion
CHEBYSHEV_TAIL = 1e-17
# allowed drift of the norm across one Chebyshev propagation
CHEBYSHEV_NORM_ATOL = 1e-10


class DegenerateCouplingError(ValueError):
    """g = gz: the uniform superposition is stationary and never entangles."""


class EngineCapabilityError(ValueError):
    """The requested engine cannot run this plan/graph combination."""


class PropagationError(ArithmeticError):
    """e^{-iHt} cannot be applied to the required accuracy at bounded cost."""


@dataclass(frozen=True)
class GhzTarget:
    """The N-qubit cat state (|0...0> + |1...1>)/sqrt(2)."""

    n_qubits: int
    state: StateVector


def ghz_target(n: int) -> GhzTarget:
    if n < 2:
        raise ValueError("need at least 2 qubits")
    amps = np.zeros(1 << n, dtype=complex)
    amps[0] = amps[-1] = 1.0 / np.sqrt(2.0)
    return GhzTarget(n, StateVector(n, amps))


def entangling_time(g: float, gz: float) -> float:
    """t = pi / (2|g - gz|), the time printing the GHZ branch phases."""
    if g == gz:
        raise DegenerateCouplingError(
            f"g = gz = {g}: isotropic coupling cannot entangle the uniform state"
        )
    return np.pi / (2.0 * abs(g - gz))


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


def ground_energy(n: int, gz: float) -> float:
    """Eigenenergy of |0...0> and |1...1>: C(N,2) gz / 2."""
    return 0.5 * n * (n - 1) * (gz / 2.0)


def compile_plan(n: int, g: float, gz: float) -> ProtocolPlan:
    """Compile the GHZ pulse sequence for n uniformly coupled qubits.

    The expected global phase carries e^{-i lambda_0 t} from the entangling
    pulse times a family factor: e^{i (-1)^((N-3)/2) pi/4} for odd N and
    e^{i (N/2 - 1) pi} for even N with g > gz.  For even N with g < gz the
    compiled correction (z pi/2 on two qubits) leaves the total expected
    phase at -e^{-i lambda_0 t}.
    """
    if n < 2:
        raise ValueError("need at least 2 qubits")
    t = entangling_time(g, gz)
    branch_phase = np.exp(-1j * ground_energy(n, gz) * t)
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
      apply is two dense products;
    * matrix-free (above) -- H is stored as real CSR shifted and scaled to
      [-1, 1] by its Gershgorin bounds (centre c, radius r), and
      e^{-iHt} psi = e^{-ict} sum_k (2 - delta_k0) (-i)^k J_k(rt) T_k(H~) psi
      (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967 (1984)).  psi is
      carried as a real (2, dim) array of its real and imaginary parts, so
      each term is two real sparse matrix-vector products.

    The expansion length grows as r|t|; beyond ``MAX_CHEBYSHEV_ORDER``
    (near-degenerate couplings) a matrix-free apply raises
    :class:`PropagationError`, as it does if it changes the norm by more
    than ``CHEBYSHEV_NORM_ATOL``.
    """

    def __init__(self, graph: CouplingGraph):
        self.n_qubits = graph.n_qubits
        h = to_sparse(graph)
        if graph.n_qubits <= EIGH_MAX_QUBITS:
            # complex eigh of the complex matrix, as the N <= 6 results
            # depend on its exact rounding (the real solver gives other bits)
            self._eigvals, self._eigvecs = np.linalg.eigh(h.toarray().astype(complex))
            return
        self._eigvals = None
        diag = h.diagonal()
        off = np.asarray(abs(h).sum(axis=1)).ravel() - np.abs(diag)
        lower, upper = np.min(diag - off), np.max(diag + off)
        self._centre = 0.5 * (upper + lower)
        # r = 0 means H = c I; any positive scale then expands exactly
        self._radius = 0.5 * (upper - lower) or 1.0
        self._scaled = (h - self._centre * identity(h.shape[0], format="csr")) / self._radius

    @property
    def factorized(self) -> bool:
        """True when applies go through the eigendecomposition."""
        return self._eigvals is not None

    def propagate(self, amplitudes: np.ndarray, t: float) -> np.ndarray:
        if self._eigvals is None:
            return self._chebyshev(amplitudes, t)
        phases = np.exp(-1j * self._eigvals * t)
        return self._eigvecs @ (phases * (self._eigvecs.conj().T @ amplitudes))

    def _chebyshev(self, amplitudes: np.ndarray, t: float) -> np.ndarray:
        rt = self._radius * t
        if not abs(rt) <= MAX_CHEBYSHEV_ORDER:
            raise PropagationError(
                f"e^(-iHt) at N = {self.n_qubits} needs a Chebyshev expansion of "
                f"order ~{abs(rt):.3g} > {MAX_CHEBYSHEV_ORDER} (near-degenerate "
                "couplings give a diverging entangling time)"
            )
        coef = _chebyshev_coefficients(rt)
        # (-i)^k = (-1)^(k//2) on even k and -i (-1)^(k//2) on odd k:
        # collect the two parities as real blocks, combine at the end
        coef[1:] *= 2.0
        coef[2::4] *= -1.0
        coef[3::4] *= -1.0
        h = self._scaled

        def apply(v: np.ndarray) -> np.ndarray:
            # one single-vector product per row: scipy's multi-vector CSR
            # kernel is slower than two single-vector ones
            return np.array([h @ v[0], h @ v[1]])

        prev = np.array([amplitudes.real, amplitudes.imag])
        sums = [coef[0] * prev, np.zeros_like(prev)]
        cur = apply(prev)
        for k in range(1, len(coef)):
            if k > 1:
                nxt = apply(cur)
                nxt *= 2.0
                nxt -= prev
                prev, cur = cur, nxt
            sums[k % 2] += coef[k] * cur
        even, odd = sums
        out = (even[0] + odd[1]) + 1j * (even[1] - odd[0])
        out *= np.exp(-1j * self._centre * t)
        norm_in = np.linalg.norm(amplitudes)
        drift = abs(np.linalg.norm(out) - norm_in)
        if not drift <= CHEBYSHEV_NORM_ATOL * norm_in:
            raise PropagationError(
                f"Chebyshev propagation changed the norm by {drift:.2e} "
                f"(N = {self.n_qubits}, t = {t:g})"
            )
        return out


def _chebyshev_coefficients(x: float) -> np.ndarray:
    """J_k(x) for k = 0, 1, ... up to the first k > |x| with |J_k| < tail."""
    span = 2.0 * abs(x) + 32.0
    while True:
        k = np.arange(int(span))
        j = jv(k, x)
        small = np.flatnonzero((k > abs(x)) & (np.abs(j) < CHEBYSHEV_TAIL))
        if small.size:
            return j[: small[0]]
        span *= 2.0


def _run_w_basis(
    plan: ProtocolPlan, g: float, gz: float
) -> tuple[WBasisState, tuple[Pulse, ...]]:
    """Run the plan in the W basis up to its first single-qubit pulse.

    Returns the state and the final pulses left unapplied.
    """
    n = plan.n_qubits
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    w = collective_rotation(WBasisState(n, coeffs), PREPARATION.axis, PREPARATION.angle)
    w = entangle_phases(w, analytic_eigenvalues(n, g, gz), plan.entangle_duration)
    finals = plan.finals
    while finals and finals[0].qubit is None:
        w = collective_rotation(w, finals[0].axis, finals[0].angle)
        finals = finals[1:]
    return w, finals


def _apply_pulses(psi: StateVector, pulses: tuple[Pulse, ...]) -> StateVector:
    for p in pulses:
        if p.qubit is None:
            psi = apply_collective_rotation(psi, p.axis, p.angle)
        else:
            psi = apply_rotation(psi, p.qubit, p.axis, p.angle)
    return psi


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
    propagator: HamiltonianPropagator | None = None,
) -> StateVector:
    """Apply the compiled sequence to |0...0> and return the final state.

    The symmetric engine requires an ideal (uniform) graph; it runs the
    plan in the W basis up to the first single-qubit pulse and finishes
    the rest with the dense engine.
    """
    n = plan.n_qubits
    if graph.n_qubits != n:
        raise ValueError(
            f"plan is for {n} qubits but graph has {graph.n_qubits}"
        )
    if engine == "dense":
        if n > MAX_DENSE_QUBITS:
            raise EngineCapabilityError(
                f"dense engine limited to {MAX_DENSE_QUBITS} qubits, got {n}"
            )
        if propagator is None:
            propagator = HamiltonianPropagator(graph)
        psi = _apply_pulses(all_zeros(n), (PREPARATION,))
        psi = StateVector(
            n, propagator.propagate(psi.amplitudes, plan.entangle_duration)
        )
        return _apply_pulses(psi, plan.finals)
    if engine == "symmetric":
        if not graph.is_ideal():
            raise EngineCapabilityError(
                "symmetric engine requires uniform couplings on every pair"
            )
        if n > MAX_DENSE_QUBITS:
            raise EngineCapabilityError(
                f"returning a dense state requires n <= {MAX_DENSE_QUBITS}; "
                "use execute_symmetric for larger collective-only runs"
            )
        w, rest = _run_w_basis(plan, graph.g_ref, graph.gz_ref)
        return _apply_pulses(embed(w), rest)
    raise ValueError(f"engine must be 'dense' or 'symmetric', got {engine!r}")


def verify(
    n: int, g: float, gz: float, engine: str = "dense"
) -> tuple[float, GlobalPhase]:
    """Compile and run the ideal protocol; return (aligned fidelity, phase).

    The phase is the measured global phase of the output relative to the
    GHZ target; for a correct run it equals the plan's expected phase.
    """
    plan = compile_plan(n, g, gz)
    psi = execute(plan, ideal(n, g, gz), engine=engine)
    target = ghz_target(n).state
    fid = fidelity_frobenius(psi, target, align_phase=True)
    measured = global_phase_between(psi, target)
    return fid, measured
