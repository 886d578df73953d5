"""Pulse-sequence compiler and executor for single-step GHZ generation.

A plan is: collective y pi/2 preparation, free evolution under the exchange
network for t = pi / (2|g - gz|), then final rotations.  Odd qubit counts
finish with an x pi/2 on every qubit; even counts repeat the y pi/2 on
every qubit and add a z rotation by theta(N) = (pi/2)(2 + (-1)^(N/2)) on
qubit 1.  When the ZZ coupling exceeds the XY coupling (gz > g) the even
family needs an extra z pi/2 on two qubits, which also flips the overall
sign of the expected global phase.

Executors: the dense engine simulates the full 2^N statevector; the
symmetric engine runs collective pulses in the (N+1)-dimensional W basis
and only falls back to a dense tail for non-collective final rotations.

The dense engine's free evolution e^{-iHt} has two paths (see
:class:`HamiltonianPropagator`).  The factorized path diagonalizes H once
and makes every later apply a pair of matrix products; the matrix-free
path expands e^{-iHt} in Chebyshev polynomials of the real sparse H and
costs a few hundred sparse products per apply.  Factorizing costs O(8^N),
so it is done eagerly only where it is cheaper than one expansion
(N <= 6, which covers every optimizer problem), lazily for a propagator
that is applied a second time up to N = 10, and never above.
"""

from __future__ import annotations

from dataclasses import dataclass

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

# largest qubit count factorized when the propagator is built: up to here
# one complex eigh is cheaper than a single Chebyshev apply
EAGER_EIGH_MAX_QUBITS = 6
# largest qubit count factorized at all, on a propagator's second apply;
# at N = 10 the eigh pays for itself after about 140 applies
EIGH_MAX_QUBITS = 10
# longest Chebyshev expansion attempted, in units of r|t| (the scaled
# spectrum's radius times the time); only near-degenerate couplings
# g -> gz, whose entangling time diverges, come close
MAX_CHEBYSHEV_ORDER = 10_000
# Bessel coefficients below this (past order r|t|) end the expansion
CHEBYSHEV_TAIL = 1e-17
# allowed drift of the norm across one Chebyshev propagation
CHEBYSHEV_NORM_ATOL = 1e-10

Rotation = tuple[int, str, float]  # (qubit index, axis, angle)


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
class ProtocolPlan:
    """Compiled pulse sequence with its expected global phase."""

    n_qubits: int
    initial: tuple[str, float]
    entangle_duration: float
    finals: tuple[Rotation, ...]
    expected_phase: GlobalPhase
    parity: str

    def to_dict(self) -> dict:
        return {
            "n_qubits": self.n_qubits,
            "parity": self.parity,
            "initial": {"axis": self.initial[0], "angle": self.initial[1]},
            "entangle_duration": self.entangle_duration,
            "finals": [
                {"qubit": q, "axis": a, "angle": ang} for q, a, ang in self.finals
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
    finals: list[Rotation]
    if n % 2 == 1:
        parity = "odd"
        finals = [(k, "x", np.pi / 2) for k in range(1, n + 1)]
        family = np.exp(1j * (-1) ** ((n - 3) // 2) * np.pi / 4)
        phase = branch_phase * family
    else:
        parity = "even"
        finals = [(k, "y", np.pi / 2) for k in range(1, n + 1)]
        finals.append((1, "z", theta(n)))
        if g < gz:
            correction_qubits = (1, 2) if n == 2 else (2, 3)
            finals.extend((q, "z", np.pi / 2) for q in correction_qubits)
            phase = -branch_phase
        else:
            phase = branch_phase * np.exp(1j * (n // 2 - 1) * np.pi)
    return ProtocolPlan(
        n_qubits=n,
        initial=("y", np.pi / 2),
        entangle_duration=t,
        finals=tuple(finals),
        expected_phase=GlobalPhase(phase),
        parity=parity,
    )


class HamiltonianPropagator:
    """Reusable e^{-iHt} applier for one coupling graph.

    Two paths, chosen by qubit count and by how often the propagator is
    applied:

    * factorized -- the full complex eigendecomposition of H, after which
      each apply is two dense products.  It is built eagerly for
      N <= ``EAGER_EIGH_MAX_QUBITS``, where it beats even a single
      matrix-free apply, and lazily on the second ``propagate`` call for
      N <= ``EIGH_MAX_QUBITS``, since reuse (an optimization loop) soon
      repays its O(8^N) cost;
    * matrix-free -- H is stored as real CSR shifted and scaled to
      [-1, 1] by its Gershgorin bounds (centre c, radius r), and
      e^{-iHt} psi = e^{-ict} sum_k (2 - delta_k0) (-i)^k J_k(rt) T_k(H~) psi
      (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967 (1984)).  psi is
      carried as a real (2, dim) array of its real and imaginary parts, so
      each term is two real sparse matrix-vector products.

    The expansion length grows as r|t|.  Beyond ``MAX_CHEBYSHEV_ORDER`` the
    propagator factorizes instead when N <= ``EIGH_MAX_QUBITS`` and raises
    :class:`PropagationError` otherwise; it raises the same error if a
    matrix-free apply changes the norm by more than ``CHEBYSHEV_NORM_ATOL``.
    """

    def __init__(self, graph: CouplingGraph):
        self.n_qubits = graph.n_qubits
        h = to_sparse(graph)
        self._h = h if graph.n_qubits <= EIGH_MAX_QUBITS else None
        self._eigvals = None
        self._eigvecs = None
        self._scaled = None
        self._applied = False
        if graph.n_qubits <= EAGER_EIGH_MAX_QUBITS:
            self._factorize()
            return
        diag = h.diagonal()
        off = np.asarray(abs(h).sum(axis=1)).ravel() - np.abs(diag)
        lower, upper = np.min(diag - off), np.max(diag + off)
        self._centre = 0.5 * (upper + lower)
        # r = 0 means H = c I; any positive scale then expands exactly
        self._radius = 0.5 * (upper - lower) or 1.0
        self._scaled = (h - self._centre * identity(h.shape[0], format="csr")) / self._radius

    @property
    def factorized(self) -> bool:
        """True once applies go through the eigendecomposition."""
        return self._eigvals is not None

    def _factorize(self) -> None:
        # complex eigh of the complex matrix, as the N <= 6 results depend
        # on its exact rounding (the real solver gives different bits)
        w, v = np.linalg.eigh(self._h.toarray().astype(complex))
        self._eigvals = w
        self._eigvecs = v
        self._h = self._scaled = None

    def propagate(self, amplitudes: np.ndarray, t: float) -> np.ndarray:
        if self._eigvals is None:
            if self.n_qubits <= EIGH_MAX_QUBITS and (
                self._applied or not self._radius * abs(t) <= MAX_CHEBYSHEV_ORDER
            ):
                self._factorize()
            else:
                self._applied = True
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


def _split_collective(
    finals: tuple[Rotation, ...], n: int
) -> tuple[list[tuple[str, float]], tuple[Rotation, ...]]:
    """Leading blocks of n identical per-qubit rotations, plus the remainder."""
    groups: list[tuple[str, float]] = []
    i = 0
    while i + n <= len(finals):
        chunk = finals[i : i + n]
        axes = {a for _, a, _ in chunk}
        angles = {ang for _, _, ang in chunk}
        qubits = sorted(q for q, _, _ in chunk)
        if len(axes) == 1 and len(angles) == 1 and qubits == list(range(1, n + 1)):
            groups.append((axes.pop(), angles.pop()))
            i += n
        else:
            break
    return groups, finals[i:]


def execute_symmetric(plan: ProtocolPlan, g: float, gz: float) -> WBasisState:
    """Run a fully collective plan in the W basis (any qubit count).

    Raises :class:`EngineCapabilityError` when the plan contains
    non-collective final rotations.
    """
    n = plan.n_qubits
    groups, remainder = _split_collective(plan.finals, n)
    if remainder:
        raise EngineCapabilityError(
            "plan contains non-collective final rotations; the pure W-basis "
            "engine only handles identical rotations on every qubit"
        )
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    w = WBasisState(n, coeffs)
    w = collective_rotation(w, plan.initial[0], plan.initial[1])
    w = entangle_phases(w, analytic_eigenvalues(n, g, gz), plan.entangle_duration)
    for axis, angle in groups:
        w = collective_rotation(w, axis, angle)
    return w


def execute(
    plan: ProtocolPlan,
    graph: CouplingGraph,
    engine: str = "dense",
    propagator: HamiltonianPropagator | None = None,
) -> StateVector:
    """Apply the compiled sequence to |0...0> and return the final state.

    The symmetric engine requires an ideal (uniform) graph; it runs the
    collective part in the W basis and finishes any per-qubit tail with
    the dense engine.
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
        psi = all_zeros(n)
        psi = apply_collective_rotation(psi, plan.initial[0], plan.initial[1])
        psi = StateVector(
            n, propagator.propagate(psi.amplitudes, plan.entangle_duration)
        )
        for q, axis, angle in plan.finals:
            psi = apply_rotation(psi, q, axis, angle)
        return psi
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
        groups, remainder = _split_collective(plan.finals, n)
        collective_plan = ProtocolPlan(
            n_qubits=n,
            initial=plan.initial,
            entangle_duration=plan.entangle_duration,
            finals=tuple(
                (q, axis, angle)
                for axis, angle in groups
                for q in range(1, n + 1)
            ),
            expected_phase=plan.expected_phase,
            parity=plan.parity,
        )
        w = execute_symmetric(collective_plan, graph.g_ref, graph.gz_ref)
        psi = embed(w)
        for q, axis, angle in remainder:
            psi = apply_rotation(psi, q, axis, angle)
        return psi
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
