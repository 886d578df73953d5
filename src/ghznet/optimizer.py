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
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .couplings import CouplingGraph, perturbed_n3
from .dense import StateVector, fidelity_frobenius
from .protocol import (
    HamiltonianPropagator,
    ProtocolPlan,
    Pulse,
    compile_plan,
    entangling_time,
    execute,
    ghz_target,
)

SWEEP_COLUMNS = ("eta13", "t_ratio", "alpha1", "alpha2", "alpha3", "F_opt", "F_uncorrected")


@dataclass(frozen=True)
class OptimizationProblem:
    """A pulse-parameter search space over one coupling graph.

    A parameter vector is the entangling time followed by the angles of
    the final pulses ``plan.finals[i]`` for ``i`` in ``free``;
    ``ideal_params`` is the point that reproduces ``plan`` unchanged.
    """

    graph: CouplingGraph
    plan: ProtocolPlan
    free: tuple[int, ...]
    ideal_params: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    _propagator: HamiltonianPropagator = field(repr=False, compare=False)

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
        plan = self.plan_for(params)
        psi = execute(plan, self.graph, engine="dense", propagator=self._propagator)
        return StateVector(
            psi.n_qubits, psi.amplitudes * plan.expected_phase.phase.conjugate()
        )


@dataclass(frozen=True)
class OptimizerConfig:
    tolerance: float = 1e-10
    max_evals: int = 20000
    restarts: int = 8
    seed: int = 0


@dataclass(frozen=True)
class OptimizationResult:
    t_opt: float
    angles_opt: np.ndarray
    fidelity: float
    objective_evaluations: int
    converged: bool


def _make_problem(
    graph: CouplingGraph, plan: ProtocolPlan, free: tuple[int, ...],
    angle_upper: float,
) -> OptimizationProblem:
    t_ideal = plan.entangle_duration
    ideal_params = np.array([t_ideal] + [plan.finals[i].angle for i in free])
    lower = np.concatenate([[0.5 * t_ideal], np.zeros(len(free))])
    upper = np.concatenate([[1.5 * t_ideal], np.full(len(free), angle_upper)])
    return OptimizationProblem(
        graph=graph,
        plan=plan,
        free=free,
        ideal_params=ideal_params,
        lower=lower,
        upper=upper,
        _propagator=HamiltonianPropagator(graph),
    )


def _compiled(graph: CouplingGraph, parity: str) -> ProtocolPlan:
    plan = compile_plan(graph.n_qubits, graph.g_ref, graph.gz_ref)
    if plan.parity != parity:
        raise ValueError(f"{parity}-family problem requires an {parity} qubit count")
    return plan


def problem_odd(graph: CouplingGraph) -> OptimizationProblem:
    """Entangling time + final x angle on each qubit (odd-family sequence)."""
    plan = _compiled(graph, "odd").per_qubit()
    return _make_problem(graph, plan, tuple(range(graph.n_qubits)), np.pi)


def problem_even_restricted(graph: CouplingGraph) -> OptimizationProblem:
    """Entangling time + qubit-1 z angle only (even-family sequence).

    The z angle may exceed pi at the ideal point (e.g. 3*pi/2 for four
    qubits), so its bound is a full turn.
    """
    # compiled even finals: collective y pi/2, then the qubit-1 z pulse
    return _make_problem(graph, _compiled(graph, "even"), (1,), 2 * np.pi)


def problem_even_full(graph: CouplingGraph) -> OptimizationProblem:
    """Entangling time + per-qubit angle for the second collective y pulse."""
    plan = _compiled(graph, "even").per_qubit()
    return _make_problem(graph, plan, tuple(range(graph.n_qubits)), np.pi)


def objective(problem: OptimizationProblem, params: np.ndarray) -> float:
    """1 - phase-aligned Frobenius fidelity against the GHZ target."""
    params = np.asarray(params, dtype=float)
    if params.shape != problem.ideal_params.shape:
        raise ValueError(
            f"expected {problem.ideal_params.shape[0]} parameters, got {params.shape}"
        )
    if np.any(params < problem.lower) or np.any(params > problem.upper):
        raise ValueError("parameters outside the problem bounds")
    psi = problem.run(params)
    target = ghz_target(problem.n_qubits).state
    return 1.0 - fidelity_frobenius(psi, target, align_phase=True)


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
    for _ in range(max(config.restarts - 1, 0)):
        step = rng.uniform(-1.0, 1.0, size=problem.ideal_params.shape)
        step[0] *= 0.05 * t_ideal
        step[1:] *= 0.1
        starts.append(
            np.clip(problem.ideal_params + step, problem.lower, problem.upper)
        )

    evals = 0

    def fun(p: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        # Nelder-Mead with bounds clips trial points, so p is always in-box
        return objective(problem, p)

    best = None
    for x0 in starts:
        res = minimize(
            fun,
            x0,
            method="Nelder-Mead",
            bounds=list(zip(problem.lower, problem.upper)),
            options={
                "fatol": config.tolerance,
                "xatol": 1e-8,
                "maxfev": config.max_evals,
            },
        )
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


def sweep(
    eta13_values,
    g12: float = 1.0,
    eta23: float = 0.02,
    kappa: float = 0.05,
    config: OptimizerConfig = OptimizerConfig(),
    zz_mode: str = "proportional",
) -> list[dict]:
    """Optimize the three-qubit correction over a grid of eta13 deficits.

    Each row reports the time ratio t_opt / (pi / (2 g12 (1 - kappa))),
    the three final x angles in units of pi/2, the optimized fidelity and
    the uncorrected fidelity.  A row whose optimization fails is marked
    with ``error`` instead of being dropped.
    """
    rows = []
    for eta13 in eta13_values:
        row: dict = {"eta13": float(eta13)}
        try:
            graph = perturbed_n3(g12, eta23, float(eta13), kappa, zz_mode=zz_mode)
            problem = problem_odd(graph)
            result = optimize(problem, config)
            t_ref = entangling_time(graph.g_ref, graph.gz_ref)
            row.update(
                t_ratio=result.t_opt / t_ref,
                alpha1=result.angles_opt[0] / (np.pi / 2),
                alpha2=result.angles_opt[1] / (np.pi / 2),
                alpha3=result.angles_opt[2] / (np.pi / 2),
                F_opt=result.fidelity,
                F_uncorrected=uncorrected_fidelity(problem),
                converged=result.converged,
                error="",
            )
        # failed rows are reported, not dropped; any other error is a bug
        except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
            row.update(
                t_ratio=np.nan, alpha1=np.nan, alpha2=np.nan, alpha3=np.nan,
                F_opt=np.nan, F_uncorrected=np.nan, converged=False,
                error=f"{type(exc).__name__}: {exc}",
            )
        rows.append(row)
    return rows


def write_sweep_csv(rows: list[dict], path) -> None:
    """Fixed-schema CSV: eta13,t_ratio,alpha1,alpha2,alpha3,F_opt,F_uncorrected."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            if row.get("error"):
                writer.writerow([f"{row['eta13']:.6f}"] + ["error"] * 6)
            else:
                writer.writerow(
                    [f"{row['eta13']:.6f}"]
                    + [f"{row[c]:.10f}" for c in SWEEP_COLUMNS[1:]]
                )
