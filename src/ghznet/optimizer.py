"""Fidelity correction for imperfect couplings.

When the pairwise couplings deviate from uniformity the compiled pulse
sequence no longer lands exactly on the GHZ state.  This module optimizes
the entangling time together with final rotation angles (at most N+1
free parameters; :data:`~ghznet.protocol.PREPARATION` is always kept
fixed) by derivative-free simplex descent with deterministic multistarts.
The ideal parameter point is always seeded as start 0, so the optimized
fidelity can never fall below the uncorrected one.

A problem is the uncorrected plan plus ``free``, the indices of its final
pulses whose angles the search sets; every other pulse, including the
strong-ZZ correction, keeps its compiled value.  Three families:

* odd: the per-qubit plan, free = every final x pulse;
* even restricted: the compiled plan, free = the qubit-1 z pulse only
  (the collective y pulse stays at pi/2);
* even full: the per-qubit plan, free = the N final y pulses (the qubit-1
  z pulse stays at its compiled value).

A problem is built once per graph and holds everything an evaluation
does not change: the graph's propagator with the prepared state already
in its eigenbasis, the 2x2 matrix of each final pulse at its compiled
angle, the GHZ target amplitudes and the conjugated expected phase.  One
evaluation propagates the prepared state for the trial time, swaps in
the free pulses' matrices at the trial angles, rotates the raw amplitudes
with :func:`~ghznet.protocol.rotate_pulses`, strips the expected phase
and takes the phase-aligned Frobenius distance to the target -- the
floating-point operations, in order, of running ``plan_for``'s plan
through :func:`~ghznet.protocol.execute` and
:func:`~ghznet.dense.fidelity_frobenius`, so the results agree bit for
bit.

The search is :func:`minimize`, bounded Nelder-Mead (Nelder and Mead,
Comput. J. 7, 308 (1965)) ported from scipy 1.17.1 so that importing the
package does not load ``scipy.optimize``; it returns scipy's results bit
for bit.

A three-qubit correction is reported as one row, built by
:func:`correction_row` and formatted by :func:`row_cells`: every row of
:func:`sweep`'s CSV, and the row ``ghznet optimize`` writes above its state.
"""

from __future__ import annotations

import csv
import functools
from dataclasses import dataclass

import numpy as np

from .couplings import CouplingGraph, perturbed_n3
from .dense import StateVector, fidelity_frobenius_raw, single_qubit_rotation
from .protocol import (
    HamiltonianPropagator,
    ProtocolPlan,
    Pulse,
    compile_plan,
    ghz_target,
    rotate_pulses,
)

SWEEP_COLUMNS = ("eta13", "t_ratio", "alpha1", "alpha2", "alpha3", "F_opt", "F_uncorrected")


class OptimizationProblem:
    """A pulse-parameter search space over one coupling graph.

    A parameter vector is the entangling time followed by the angles of
    the final pulses ``plan.finals[i]`` for ``i`` in ``free``;
    ``ideal_params`` is the point that reproduces ``plan`` unchanged.
    The time may range over [0.5, 1.5] times the compiled one and each
    angle over [0, ``angle_upper``].  Build one with :func:`problem_odd`,
    :func:`problem_even_restricted` or :func:`problem_even_full`.
    """

    def __init__(
        self, graph: CouplingGraph, plan: ProtocolPlan, free: tuple[int, ...],
        angle_upper: float,
    ):
        t_ideal = plan.entangle_duration
        self.graph = graph
        self.plan = plan
        self.free = free
        self.ideal_params = np.array([t_ideal] + [plan.finals[i].angle for i in free])
        self.lower = np.concatenate([[0.5 * t_ideal], np.zeros(len(free))])
        self.upper = np.concatenate([[1.5 * t_ideal], np.full(len(free), angle_upper)])
        # (lower, upper) of each parameter as Python floats, for objective
        self._box = tuple(zip(self.lower.tolist(), self.upper.tolist()))
        self._propagator = HamiltonianPropagator(graph)
        # the 2x2 matrix of each pulse in plan.finals at its compiled angle
        self._matrices = [single_qubit_rotation(p.axis, p.angle) for p in plan.finals]
        self._target = ghz_target(plan.n_qubits).state.amplitudes
        self._phase_conj = plan.expected_phase.phase.conjugate()

    @property
    def n_qubits(self) -> int:
        return self.graph.n_qubits

    def plan_for(self, params: np.ndarray) -> ProtocolPlan:
        """Pulse sequence realizing the given parameter vector."""
        finals = list(self.plan.finals)
        for i, angle in zip(self.free, params[1:]):
            finals[i] = Pulse(finals[i].axis, float(angle), finals[i].qubit)
        return ProtocolPlan(
            self.plan.n_qubits, float(params[0]), tuple(finals),
            self.plan.expected_phase,
        )

    def run(self, params: np.ndarray) -> StateVector:
        """Execute the plan and strip the expected global phase."""
        return StateVector(self.n_qubits, self._state(params.tolist()))

    def _state(self, values: list[float]) -> np.ndarray:
        """Amplitudes of :meth:`run` for the parameters as Python floats,
        without building a plan or a state."""
        t, *angles = values
        finals = self.plan.finals
        us = list(self._matrices)
        for i, angle in zip(self.free, angles):
            us[i] = single_qubit_rotation(finals[i].axis, angle)
        amps = self._propagator.propagate_prepared(t)
        amps = rotate_pulses(amps, self.n_qubits, finals, us)
        return amps * self._phase_conj


@dataclass(frozen=True)
class OptimizerConfig:
    tolerance: float = 1e-10
    max_evals: int = 20000
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        # no evaluation means no start-0 result to fall back on
        if self.max_evals < 1:
            raise ValueError(f"max_evals must be >= 1, got {self.max_evals}")
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        # "not >= 0", so that NaN is refused too
        if not self.tolerance >= 0:
            raise ValueError(f"tolerance must be >= 0, got {self.tolerance}")
        # default_rng refuses it too, but only once sweep is under way,
        # which would record bad input as failed rows
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class OptimizationResult:
    """The best start's point; ``objective_evaluations`` counts all starts."""

    t_opt: float
    angles_opt: np.ndarray
    fidelity: float
    objective_evaluations: int
    converged: bool


def _compiled(graph: CouplingGraph, parity: str) -> ProtocolPlan:
    plan = compile_plan(graph.n_qubits, graph.g_ref, graph.gz_ref)
    if plan.parity != parity:
        raise ValueError(f"{parity}-family problem requires an {parity} qubit count")
    return plan


def problem_odd(graph: CouplingGraph) -> OptimizationProblem:
    """Entangling time + final x angle on each qubit (odd-family sequence)."""
    plan = _compiled(graph, "odd").per_qubit()
    return OptimizationProblem(graph, plan, tuple(range(graph.n_qubits)), np.pi)


def problem_even_restricted(graph: CouplingGraph) -> OptimizationProblem:
    """Entangling time + qubit-1 z angle only (even-family sequence).

    The z angle may exceed pi at the ideal point (e.g. 3*pi/2 for four
    qubits), so its bound is a full turn.
    """
    # compiled even finals: collective y pi/2, then the qubit-1 z pulse
    return OptimizationProblem(graph, _compiled(graph, "even"), (1,), 2 * np.pi)


def problem_even_full(graph: CouplingGraph) -> OptimizationProblem:
    """Entangling time + per-qubit angle for the second collective y pulse."""
    plan = _compiled(graph, "even").per_qubit()
    return OptimizationProblem(graph, plan, tuple(range(graph.n_qubits)), np.pi)


def objective(problem: OptimizationProblem, params: np.ndarray) -> float:
    """1 - phase-aligned Frobenius fidelity against the GHZ target."""
    params = np.asarray(params, dtype=float)
    if params.shape != problem.ideal_params.shape:
        raise ValueError(
            f"expected {problem.ideal_params.shape[0]} parameters, got {params.shape}"
        )
    values = params.tolist()
    # "not inside the box", so that NaN (never inside) is refused too
    if not all(lo <= v <= hi for v, (lo, hi) in zip(values, problem._box)):
        raise ValueError("parameters outside the problem bounds")
    return 1.0 - fidelity_frobenius_raw(
        problem._state(values), problem._target, align_phase=True
    )


@dataclass(frozen=True)
class MinimizeResult:
    """One Nelder-Mead run: the best vertex, its value, the evaluations
    spent, and whether it stopped on the tolerances rather than the budget."""

    x: np.ndarray
    fun: float
    nfev: int
    success: bool


class _BudgetSpent(Exception):
    """An evaluation was asked for after ``maxfev`` of them."""


def _clip(x: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """``np.clip`` of a 1-D array without its dispatch: the same bytes,
    NaN and both signed zeros included."""
    return np.minimum(np.maximum(x, lower), upper)


def minimize(fun, x0, lower, upper, xatol, fatol, maxfev) -> MinimizeResult:
    """Bounded Nelder-Mead from ``x0`` within [``lower``, ``upper``].

    A port of scipy 1.17.1's ``_minimize_neldermead`` with ``bounds`` and
    ``maxfev``, reduced to the non-adaptive method and the default initial
    simplex.  It keeps scipy's floating-point operations, on the same
    values and in the same order (the twice-sorted first simplex, the
    row-by-row centroid, a clip after every trial point), so the result
    matches ``scipy.optimize.minimize(method="Nelder-Mead")`` bit for bit,
    including which of two tied vertices ``np.argsort`` puts first.  Only
    bookkeeping differs: the sorts call the ``argsort`` and ``take``
    methods that ``np.argsort`` and ``np.take`` forward to, the loop's
    clips are :func:`_clip`, the f-convergence test runs on Python floats,
    the integer coefficients are floats, and the reflection factor rho = 1
    is left out of the products, where it is exact.
    """
    # float coefficients, and n_float below: numpy multiplies and divides by
    # a Python int more slowly, and each int here converts to the same float64
    chi, psi, sigma = 2.0, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025

    x0 = np.clip(x0, lower, upper)
    n = len(x0)
    n_float = float(n)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        y[k] = (1 + nonzdelt) * y[k] if y[k] != 0 else zdelt
        sim[k + 1] = y
    # a vertex pushed past the upper bound is reflected into the box, so
    # that clipping cannot make the simplex degenerate
    sim = np.where(sim > upper, 2 * upper - sim, sim)
    # np.clip, not _clip: on a 2-D simplex with n = 1 they disagree on the
    # sign of a zero
    sim = np.clip(sim, lower, upper)

    nfev = 0

    def func(x):
        nonlocal nfev
        if nfev >= maxfev:
            raise _BudgetSpent
        nfev += 1
        return fun(x.copy())

    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = func(sim[k])
    except _BudgetSpent:
        pass
    # scipy sorts the first simplex twice; both sorts stay, so that tied
    # values end up in scipy's order without relying on a stable argsort
    for _ in range(2):
        ind = fsim.argsort()
        sim = sim.take(ind, 0)
        fsim = fsim.take(ind, 0)

    while nfev < maxfev:
        try:
            # the cheap test on Python floats first; like np.max(...) <= fatol
            # it is False on NaN
            f0, *fs = fsim.tolist()
            if (all(abs(f0 - f) <= fatol for f in fs)
                    and np.max(np.abs(sim[1:] - sim[0])) <= xatol):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n_float
            # reflection, (1 + rho) * xbar - rho * sim[-1] with rho = 1
            xr = _clip(2.0 * xbar - sim[-1], lower, upper)
            fxr = func(xr)
            if fxr < fsim[0]:
                xe = _clip((1 + chi) * xbar - chi * sim[-1], lower, upper)
                fxe = func(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:
                    # outside contraction
                    xc = _clip((1 + psi) * xbar - psi * sim[-1], lower, upper)
                    fxc = func(xc)
                    shrink = not fxc <= fxr
                    if not shrink:
                        sim[-1], fsim[-1] = xc, fxc
                else:
                    # inside contraction
                    xcc = _clip((1 - psi) * xbar + psi * sim[-1], lower, upper)
                    fxcc = func(xcc)
                    shrink = not fxcc < fsim[-1]
                    if not shrink:
                        sim[-1], fsim[-1] = xcc, fxcc
                if shrink:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        sim[j] = _clip(sim[j], lower, upper)
                        fsim[j] = func(sim[j])
        except _BudgetSpent:
            pass
        ind = fsim.argsort()
        sim = sim.take(ind, 0)
        fsim = fsim.take(ind, 0)

    return MinimizeResult(x=sim[0], fun=np.min(fsim), nfev=nfev, success=nfev < maxfev)


def optimize(
    problem: OptimizationProblem, config: OptimizerConfig = OptimizerConfig()
) -> OptimizationResult:
    """Multistart Nelder-Mead over the problem's parameter box.

    Start 0 is the ideal (uncorrected) parameter point; the remaining
    starts are drawn around it from a seeded generator (0.1 rad in
    angles, 5% in time) and clipped to the bounds.  Ties are broken by
    lowest start index, making the result deterministic for a fixed seed.
    """
    rng = np.random.default_rng(config.seed)
    starts = [problem.ideal_params.copy()]
    t_ideal = problem.ideal_params[0]
    for _ in range(config.restarts - 1):
        step = rng.uniform(-1.0, 1.0, size=problem.ideal_params.shape)
        step[0] *= 0.05 * t_ideal
        step[1:] *= 0.1
        starts.append(
            np.clip(problem.ideal_params + step, problem.lower, problem.upper)
        )

    # Nelder-Mead with bounds clips trial points, so they are always in-box.
    # objective and minimize are read from the module on each call, where
    # perfbench's tracer replaces them with recording wrappers
    fun = functools.partial(objective, problem)
    best = None
    evals = 0
    for x0 in starts:
        res = minimize(
            fun, x0, problem.lower, problem.upper,
            xatol=1e-8, fatol=config.tolerance, maxfev=config.max_evals,
        )
        evals += res.nfev
        if best is None or res.fun < best.fun:
            best = res
    return OptimizationResult(
        t_opt=float(best.x[0]),
        angles_opt=np.array(best.x[1:], dtype=float),
        fidelity=1.0 - float(best.fun),
        objective_evaluations=evals,
        converged=bool(best.success),
    )


def optimize_restricted_n4(
    graph: CouplingGraph, config: OptimizerConfig = OptimizerConfig()
) -> OptimizationResult:
    """Two-parameter correction for four qubits: time + qubit-1 z angle."""
    if graph.n_qubits != 4:
        raise ValueError("restricted problem is defined for 4 qubits")
    return optimize(problem_even_restricted(graph), config)


def uncorrected_fidelity(problem: OptimizationProblem) -> float:
    """Fidelity of the compiled sequence at the ideal parameter point."""
    return 1.0 - objective(problem, problem.ideal_params)


def correction_row(
    eta13: float, problem: OptimizationProblem, result: OptimizationResult
) -> dict:
    """The three-qubit correction of ``problem`` as one row of the sweep.

    The row holds the time ratio t_opt / (pi / (2 g12 (1 - kappa))), the
    three final x angles in units of pi/2, the optimized and the
    uncorrected fidelity, and whether the best start converged.
    """
    t_ref = problem.plan.entangle_duration
    values = (
        eta13, result.t_opt / t_ref, *(result.angles_opt / (np.pi / 2)),
        result.fidelity, uncorrected_fidelity(problem),
    )
    return dict(zip(SWEEP_COLUMNS, values), converged=result.converged, error="")


def row_cells(row: dict) -> list[str]:
    """CSV cells of a row in ``SWEEP_COLUMNS`` order; a failed row reads "error"."""
    if row.get("error"):
        return [f"{row['eta13']:.6f}"] + ["error"] * 6
    return [f"{row['eta13']:.6f}"] + [f"{row[c]:.10f}" for c in SWEEP_COLUMNS[1:]]


def sweep(
    eta13_values,
    g12: float = 1.0,
    eta23: float = 0.02,
    kappa: float = 0.05,
    config: OptimizerConfig = OptimizerConfig(),
    zz_mode: str = "proportional",
) -> list[dict]:
    """Optimize the three-qubit correction over a grid of eta13 deficits.

    Each row is a :func:`correction_row`.  Every problem is built before
    the first optimization, so bad input (a deficit outside [0, 1),
    g = gz) raises ``ValueError`` and no row is returned; a row whose
    optimization fails is marked with ``error`` instead of being dropped.
    """
    etas = [float(eta13) for eta13 in eta13_values]
    graphs = (perturbed_n3(g12, eta23, eta13, kappa, zz_mode=zz_mode) for eta13 in etas)
    problems = [problem_odd(graph) for graph in graphs]
    rows = []
    for eta13, problem in zip(etas, problems):
        try:
            row = correction_row(eta13, problem, optimize(problem, config))
        # failed rows are reported, not dropped; any other error is a bug
        except (ValueError, ArithmeticError) as exc:
            row = {
                "eta13": eta13, **dict.fromkeys(SWEEP_COLUMNS[1:], np.nan),
                "converged": False, "error": f"{type(exc).__name__}: {exc}",
            }
        rows.append(row)
    return rows


def write_sweep_csv(rows: list[dict], path) -> None:
    """Fixed-schema CSV: eta13,t_ratio,alpha1,alpha2,alpha3,F_opt,F_uncorrected."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        writer.writerows(row_cells(row) for row in rows)
