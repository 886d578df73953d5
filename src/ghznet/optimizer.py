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
in its eigenbasis, the qubit of each final pulse and its 2x2 matrix at
the compiled angle, the GHZ target amplitudes and the conjugated
expected phase.  Every objective value and every :meth:`run` state comes
from one per-block function, :func:`_objectives` and its states half
:func:`_states`: a ``(K, p)`` block of parameter rows, each row owned by
one of several problems that differ only in their graph.  It checks the
box, builds the free pulses' matrices at the trial angles (one call per
axis), propagates each row with its owner's eigen-factors (a lone
problem's serve every row, several problems' are gathered from stacks
built once per search; above ``EIGH_MAX_QUBITS`` each row runs its
owner's propagator), rotates the raw amplitudes with
:func:`~ghznet.dense.rotate_pulses`, strips the expected phase and takes
each row's phase-aligned Frobenius distance to the target.  Every kernel
keeps one product per row, so each row goes through the floating-point
operations, in order, of running the plan at its time and angles through
:func:`~ghznet.protocol.execute` and
:func:`~ghznet.dense.fidelity_frobenius`, and the results agree bit for
bit; :func:`objective` and :meth:`run` are the one-row case.

The search is bounded Nelder-Mead (Nelder and Mead, Comput. J. 7, 308
(1965)) ported from scipy 1.17.1 so that importing the package does not
load ``scipy.optimize``.  :func:`_lockstep` takes an ``(S, n)`` array of
starts and one box, tolerances and budget, and runs the S searches as
array operations on one ``(S, n + 1, n)`` simplex array, each stage
evaluating the trial points of all S in one batched call; each search
ends where it ends alone.  :func:`optimize_many` stacks the
:func:`_start_points` of several problems that differ only in their graph
(the 11 of the default :func:`sweep` give S = 88) for one lockstep, each
stage one :func:`_objectives` call; :func:`optimize` is its one-problem
case and :func:`minimize` runs a one-row start array.  With two or more
variables every result is scipy's bit for bit, and each problem's
:func:`optimize_many` result is its own :func:`optimize`.

A three-qubit correction is reported as one row, built by
:func:`correction_row` and formatted by :func:`row_cells`: every row of
:func:`sweep`'s CSV, and the row ``ghznet optimize`` writes above its state.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .couplings import MAX_COUNT, CouplingGraph, check_integer, check_real, perturbed_n3
from .dense import StateVector, fidelity_frobenius_raw, rotate_pulses, single_qubit_rotation
from .protocol import (
    HamiltonianPropagator, ProtocolPlan, apply_factors, compile_plan, ghz_target,
)

SWEEP_COLUMNS = ("eta13", "t_ratio", "alpha1", "alpha2", "alpha3", "F_opt", "F_uncorrected")


class OptimizationProblem:
    """A pulse-parameter search space over one coupling graph.

    A parameter vector is the entangling time followed by the angles of
    the final pulses ``plan.finals[i]`` for ``i`` in ``free``;
    ``ideal_params`` is the point that reproduces ``plan`` unchanged.
    The time may range over [0.5, 1.5] times the compiled one and each
    angle over [0, ``angle_upper``].  Build one with :func:`problem_odd`,
    :func:`problem_even_restricted` or :func:`problem_even_full`.  The
    constructor refuses, with ``ValueError``, a plan and graph with
    different qubit counts, ``free`` indices that are not distinct
    integers indexing ``plan.finals``, a non-finite ``angle_upper``, and a
    box that does not hold the ideal point.
    """

    def __init__(
        self, graph: CouplingGraph, plan: ProtocolPlan, free: tuple[int, ...],
        angle_upper: float,
    ):
        if graph.n_qubits != plan.n_qubits:
            raise ValueError(
                f"plan is for {plan.n_qubits} qubits but graph has {graph.n_qubits}"
            )
        free = tuple(check_integer(i, "free pulse index") for i in free)
        if len(set(free)) != len(free) or not all(0 <= i < len(plan.finals) for i in free):
            raise ValueError(
                f"free must be distinct indices 0..{len(plan.finals) - 1}, got {free}"
            )
        angle_upper = check_real(angle_upper, "angle_upper")
        t_ideal = plan.entangle_duration
        self.graph = graph
        self.plan = plan
        self.free = free
        self.ideal_params = np.array([t_ideal] + [plan.finals[i].angle for i in free])
        self.lower = np.concatenate([[0.5 * t_ideal], np.zeros(len(free))])
        self.upper = np.concatenate([[1.5 * t_ideal], np.full(len(free), angle_upper)])
        if not ((self.lower <= self.ideal_params) & (self.ideal_params <= self.upper)).all():
            raise ValueError(
                f"ideal parameters {self.ideal_params.tolist()} outside the box "
                f"[{self.lower.tolist()}, {self.upper.tolist()}]"
            )
        self._propagator = HamiltonianPropagator(graph)
        # the 2x2 matrix of each pulse in plan.finals at its compiled angle
        self._matrices = [single_qubit_rotation(p.axis, p.angle) for p in plan.finals]
        self._qubits = [p.qubit for p in plan.finals]
        # the free pulses' parameter columns, grouped by axis
        self._free_columns = {}
        for col, i in enumerate(free, 1):
            self._free_columns.setdefault(plan.finals[i].axis, []).append(col)
        self._target = ghz_target(plan.n_qubits).state.amplitudes
        self._phase_conj = plan.expected_phase.phase.conjugate()

    @property
    def n_qubits(self) -> int:
        return self.graph.n_qubits

    def run(self, params: np.ndarray) -> StateVector:
        """Execute the plan and strip the expected global phase."""
        return StateVector(self.n_qubits, _states(*_one_row(self, params))[0])


@dataclass(frozen=True)
class OptimizerConfig:
    tolerance: float = 1e-10
    max_evals: int = 20000
    restarts: int = 8
    seed: int = 0

    def __post_init__(self):
        # no evaluation means no start-0 result to fall back on; both counts
        # size int64 counters and arrays.  default_rng takes any seed >= 0
        # and refuses a negative one, but only once sweep is under way,
        # which would record bad input as failed rows
        bounds = {"max_evals": (1, MAX_COUNT), "restarts": (1, MAX_COUNT), "seed": (0, None)}
        for name, (low, high) in bounds.items():
            object.__setattr__(self, name, check_integer(getattr(self, name), name, low, high))
        object.__setattr__(self, "tolerance", check_real(self.tolerance, "tolerance"))
        if self.tolerance < 0:
            raise ValueError(f"tolerance must be >= 0, got {self.tolerance}")


@dataclass(frozen=True)
class MinimizeResult:
    """One Nelder-Mead run: the best vertex, its value, the evaluations
    spent, and whether it stopped on the tolerances rather than the budget."""

    x: np.ndarray
    fun: float
    nfev: int
    success: bool


@dataclass(frozen=True)
class OptimizationResult:
    """The best start's point; ``objective_evaluations`` counts all starts,
    and ``starts`` holds each start's own result, in start order."""

    t_opt: float
    angles_opt: np.ndarray
    fidelity: float
    objective_evaluations: int
    converged: bool
    starts: tuple[MinimizeResult, ...]


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


def _one_row(problem: OptimizationProblem, params) -> tuple:
    """The :func:`_states` arguments of ``params`` alone, a one-row block of
    ``problem``, refused unless it holds exactly one value per parameter."""
    params = np.asarray(params, dtype=float)
    if params.shape != problem.ideal_params.shape:
        raise ValueError(
            f"expected {problem.ideal_params.shape[0]} parameters, got {params.shape}"
        )
    return [problem], _factors([problem]), params[None], np.zeros(1, dtype=int)


def objective(problem: OptimizationProblem, params: np.ndarray) -> float:
    """1 - phase-aligned Frobenius fidelity against the GHZ target."""
    return float(_objectives(*_one_row(problem, params))[0])


def _factors(problems: list[OptimizationProblem]):
    """What :func:`_states` propagates the rows of ``problems`` with: a lone
    problem's eigen-factors, the ``(P, d, d)``, ``(P, d)`` and ``(P, d)``
    stacks of several problems' (built once per search, not per block), or
    None above ``EIGH_MAX_QUBITS``, where each problem's propagator runs."""
    if not problems[0]._propagator.factorized:
        return None
    if len(problems) == 1:
        return problems[0]._propagator.factors
    return tuple(np.stack(f) for f in zip(*(p._propagator.factors for p in problems)))


def _states(problems, factors, rows: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """The :meth:`~OptimizationProblem.run` amplitudes of each row of a
    ``(K, p)`` block, row i under ``problems[owner[i]]``, in one batched
    evaluation, with ``factors`` from :func:`_factors`; each row's
    amplitudes are those it has alone.

    The problems share everything but the graph (:func:`optimize_many`
    checks it), so only the propagation differs from row to row: a lone
    problem's factors serve every row, several problems' are gathered
    row by row from their stacks, and above ``EIGH_MAX_QUBITS`` each row
    runs its own problem's propagator."""
    first = problems[0]
    # "not inside the box", so that NaN (never inside) is refused too
    if not ((first.lower <= rows) & (rows <= first.upper)).all():
        raise ValueError("parameters outside the problem bounds")
    us = list(first._matrices)
    # one call per axis builds that axis's free matrices for every row
    for axis, cols in first._free_columns.items():
        matrices = single_qubit_rotation(axis, rows[:, cols])
        for j, col in enumerate(cols):
            us[first.free[col - 1]] = matrices[:, j]
    t = rows[:, 0]
    if factors is None:
        amps = np.array([
            problems[k]._propagator.propagate(time)
            for k, time in zip(owner.tolist(), t.tolist())
        ])
    elif len(problems) == 1:
        amps = apply_factors(*factors, t)
    else:
        amps = apply_factors(*(stack[owner] for stack in factors), t)
    amps = rotate_pulses(amps, first.n_qubits, first._qubits, us)
    return amps * first._phase_conj


def _objectives(problems, factors, rows: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """:func:`objective` of each row of a ``(K, p)`` block under its own
    problem, in one batched evaluation of :func:`_states`; each value
    equals the row's own.  Every objective value comes from here."""
    return 1.0 - fidelity_frobenius_raw(
        _states(problems, factors, rows, owner), problems[0]._target, align_phase=True
    )


def _clip(x: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The 1-D ``np.clip`` of each row of ``x`` without its dispatch: the
    same bytes, NaN and both signed zeros included."""
    return np.minimum(np.maximum(x, lower), upper)


def _lockstep(x0, lower, upper, xatol, fatol, maxfev, evaluate) -> list[MinimizeResult]:
    """Bounded Nelder-Mead from each row of the ``(S, n)`` start array
    ``x0``, all S searches together; their results, in row order.

    The searches share the box [``lower``, ``upper``], the tolerances and
    the budget of ``maxfev`` evaluations each.  Their simplices are one
    ``(S, n + 1, n)`` array, with ``(S, n + 1)`` values and ``(S,)``
    evaluation counts, and a finished search leaves the arrays.  Each
    stage stacks the trial points of every search that needs it for one
    ``evaluate(rows, searches)`` call, which returns their values:
    ``searches[i]`` is the search of ``rows[i]`` (its row in ``x0``), in
    ascending order.  The stages are the first simplices, then each round
    the reflections, the expansions and contractions, and the shrunk
    vertices.  No search reads another's values, so each result equals
    its S = 1 run.

    The steps port scipy 1.17.1's ``_minimize_neldermead`` with ``bounds``
    and ``maxfev`` (non-adaptive, default initial simplex), with scipy's
    floating-point operations on the same values in the same order, so
    that with n >= 2 variables the result is scipy's bit for bit, ties in
    ``np.argsort`` included.  This needs: the starts clipped by
    :func:`_clip`, which gives each row the bytes of its own 1-D
    ``np.clip`` (with n = 1, ``np.clip`` of the 2-D array keeps -0.0
    against a +0.0 bound); the twice-sorted first simplex, clipped by
    ``np.clip`` on the 3-D array with 1-D bounds (the bytes of each
    simplex's own 2-D clip); :func:`_clip` on every trial point; the
    centroid summed vertex by vertex; scipy's stop at the first evaluation
    past ``maxfev`` in every stage (a reflection that spends the budget
    and beats the best vertex stores nothing; a shrink with c evaluations
    left moves vertices 1..min(n, c + 1) and evaluates the first
    min(n, c)); and a convergence test that NaN fails.  Every second
    trial point is ``a * xbar - (a - 1) * worst``; for the inside
    contraction, a = 0.5, that is scipy's ``0.5 * xbar + 0.5 * worst``
    bit for bit, as x - (-y) is x + y.

    With n = 1 the result can differ from scipy's in the sign of a zero,
    and so in later steps: scipy's ``Bounds`` hands ``np.clip`` a stride-0
    bound, which keeps -0.0 against a +0.0 bound (and the reverse) where
    :func:`_clip` returns the bound.  On a box away from zero they agree.
    """
    lower, upper = np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)
    # float coefficients, and n_float below: numpy multiplies and divides by
    # a Python int more slowly, and each int here converts to the same float64
    chi, psi, sigma = 2.0, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025

    def values(rows, searches):
        return np.asarray(evaluate(rows, searches), dtype=float)

    x0 = _clip(np.asarray(x0, dtype=float), lower, upper)
    count, n = x0.shape
    n_float = float(n)
    diag = np.arange(n)
    sim = np.repeat(x0[:, None], n + 1, axis=1)
    sim[:, diag + 1, diag] = np.where(x0 != 0, (1 + nonzdelt) * x0, zdelt)
    # a vertex pushed past the upper bound is reflected into the box, so
    # that clipping cannot make the simplex degenerate
    sim = np.where(sim > upper, 2 * upper - sim, sim)
    sim = np.clip(sim, lower, upper)

    fsim = np.full((count, n + 1), np.inf)
    first = min(n + 1, maxfev)
    if first:
        fsim[:, :first] = values(
            sim[:, :first].reshape(-1, n), np.repeat(np.arange(count), first)
        ).reshape(count, first)
    nfev = np.full(count, first)
    at = np.arange(count)[:, None]
    # both of scipy's sorts stay, so that tied values end up in scipy's
    # order without relying on a stable argsort
    for _ in range(2):
        ind = fsim.argsort(axis=1)
        sim, fsim = sim[at, ind], fsim[at, ind]

    results = [None] * count
    search_of = np.arange(count)
    vertex = np.arange(1, n + 1)
    while True:
        # fsim is sorted, NaN last, so its widest gap is the last minus the
        # first; an infinite value minus another is NaN, with no warning
        with np.errstate(invalid="ignore"):
            flat = fsim[:, -1] - fsim[:, 0] <= fatol
        done = nfev >= maxfev
        if flat.any():
            done |= flat & (np.abs(sim[:, 1:] - sim[:, :1]).max((1, 2)) <= xatol)
        if done.any():
            for i in np.flatnonzero(done):
                results[search_of[i]] = MinimizeResult(
                    x=sim[i, 0], fun=np.min(fsim[i]), nfev=int(nfev[i]),
                    success=bool(nfev[i] < maxfev),
                )
            live = ~done
            if not live.any():
                return results
            search_of, sim, fsim, nfev = search_of[live], sim[live], fsim[live], nfev[live]
            at = at[:len(search_of)]

        xbar = np.add.reduce(sim[:, :-1], 1) / n_float
        worst, fworst = sim[:, -1], fsim[:, -1]
        # reflection, (1 + rho) * xbar - rho * worst with rho = 1
        xr = _clip(2.0 * xbar - worst, lower, upper)
        fxr = values(xr, search_of)
        nfev += 1
        better = fxr < fsim[:, 0]
        good = ~better & (fxr < fsim[:, -2])
        # the point and value that replace the worst vertex, and where
        new_x, new_f, replace = xr, fxr, good
        # the rest expand or contract, if they have budget left
        second = ~good & (nfev < maxfev)
        if second.any():
            outside = fxr < fworst
            # a = 1 + chi (expansion), 1 + psi (outside) or 1 - psi (inside)
            a = np.where(better, 1 + chi, np.where(outside, 1 + psi, 1 - psi))[:, None]
            xt = _clip(a * xbar - (a - 1.0) * worst, lower, upper)
            fxt = fxr.copy()
            fxt[second] = values(xt[second], search_of[second])
            nfev += second
            accept = second & np.where(
                better, fxt < fxr, np.where(outside, fxt <= fxr, fxt < fworst)
            )
            new_x = np.where(accept[:, None], xt, xr)
            new_f = np.where(accept, fxt, fxr)
            # an expansion that fails keeps the reflection
            replace = good | accept | (second & better)
        sim[:, -1] = np.where(replace[:, None], new_x, worst)
        fsim[:, -1] = np.where(replace, new_f, fworst)

        # a contraction that fails shrinks the simplex towards its best vertex
        shrink = second & ~replace
        if shrink.any():
            left = (maxfev - nfev)[:, None]
            moved = _clip(sim[:, :1] + sigma * (sim[:, 1:] - sim[:, :1]), lower, upper)
            moves = shrink[:, None] & (vertex <= left + 1)
            sim[:, 1:] = np.where(moves[..., None], moved, sim[:, 1:])
            evaluated = shrink[:, None] & (vertex <= left)
            if evaluated.any():
                counts = evaluated.sum(1)
                fsim[:, 1:][evaluated] = values(
                    sim[:, 1:][evaluated], np.repeat(search_of, counts)
                )
                nfev += counts

        ind = fsim.argsort(axis=1)
        sim, fsim = sim[at, ind], fsim[at, ind]


def minimize(fun, x0, lower, upper, xatol, fatol, maxfev) -> MinimizeResult:
    """Bounded Nelder-Mead from ``x0`` within [``lower``, ``upper``]: the
    one-search :func:`_lockstep`, with ``fun`` called once per trial point
    on a row of its own.  For two or more variables its result equals
    scipy's bit for bit (one variable: see :func:`_lockstep`).  ``maxfev``
    is a count in 1..``MAX_COUNT``, as :class:`OptimizerConfig`'s
    ``max_evals`` is."""
    maxfev = check_integer(maxfev, "maxfev", 1, MAX_COUNT)
    (result,) = _lockstep(
        [x0], lower, upper, xatol, fatol, maxfev, lambda rows, _: [fun(x) for x in rows]
    )
    return result


def _start_points(problem: OptimizationProblem, config: OptimizerConfig) -> np.ndarray:
    """The ``(restarts, p)`` start array: the ideal point, then ``restarts -
    1`` points drawn around it in one call to the seeded generator (0.1 rad
    in angles, 5% in time), clipped to the box."""
    rng = np.random.default_rng(config.seed)
    ideal = problem.ideal_params
    step = rng.uniform(-1.0, 1.0, size=(config.restarts - 1, ideal.shape[0]))
    step[:, 0] *= 0.05 * ideal[0]
    step[:, 1:] *= 0.1
    return np.vstack([ideal, _clip(ideal + step, problem.lower, problem.upper)])


def optimize(
    problem: OptimizationProblem, config: OptimizerConfig = OptimizerConfig()
) -> OptimizationResult:
    """Multistart Nelder-Mead over the problem's parameter box, all starts
    in one :func:`_lockstep`: the one-problem :func:`optimize_many`.

    The starts are the rows of :func:`_start_points`' ``(restarts, p)``
    array: row 0 is the ideal (uncorrected) parameter point, the rest are
    drawn around it from a seeded generator.  Each start has its own budget of
    ``max_evals``, and its result, kept in ``starts``, equals
    :func:`minimize` of :func:`objective` from that start.  Ties are
    broken by lowest start index, making the result deterministic for a
    fixed seed.
    """
    return optimize_many([problem], config)[0]


def optimize_many(
    problems: list[OptimizationProblem], config: OptimizerConfig = OptimizerConfig()
) -> list[OptimizationResult]:
    """:func:`optimize` of each problem, every start of every problem in one
    :func:`_lockstep`, so that each stage is one batched evaluation.

    The problems must share ``plan``, ``free`` and the box, so that only
    their graphs differ (as :func:`sweep`'s do); anything else, or no
    problem, raises ``ValueError`` before any evaluation.  Problem i's
    starts are rows ``i * restarts`` to ``(i + 1) * restarts - 1`` of the
    stacked start array, and its result equals ``optimize(problems[i],
    config)`` in every field, as every search and every row's value
    equals its own.
    """
    problems = list(problems)
    if not problems:
        raise ValueError("optimize_many needs at least one problem")
    first = problems[0]
    for problem in problems[1:]:
        if not (
            problem.plan == first.plan and problem.free == first.free
            and np.array_equal(problem.lower, first.lower)
            and np.array_equal(problem.upper, first.upper)
        ):
            raise ValueError(
                "problems optimized together must share their plan, free pulses "
                "and box; only the graph may differ"
            )
    restarts = config.restarts
    factors = _factors(problems)
    # Nelder-Mead with bounds clips trial points, so they are always in-box
    results = _lockstep(
        np.vstack([_start_points(problem, config) for problem in problems]),
        first.lower, first.upper, 1e-8, config.tolerance, config.max_evals,
        lambda rows, searches: _objectives(problems, factors, rows, searches // restarts),
    )
    out = []
    for k in range(len(problems)):
        starts = results[k * restarts:(k + 1) * restarts]
        # min keeps the first of equal values: the lowest start index wins ties
        best = min(starts, key=lambda res: res.fun)
        out.append(OptimizationResult(
            t_opt=float(best.x[0]),
            angles_opt=np.array(best.x[1:], dtype=float),
            fidelity=1.0 - float(best.fun),
            objective_evaluations=sum(res.nfev for res in starts),
            converged=bool(best.success),
            starts=tuple(starts),
        ))
    return out


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
    the first optimization, so bad input (an empty grid, a deficit outside
    [0, 1), g = gz) raises ``ValueError`` and no row is returned.  The
    problems are optimized together by :func:`optimize_many`; if that
    raises ``ValueError`` or ``ArithmeticError``, each runs alone through
    :func:`optimize`, and a row whose optimization fails is marked with
    ``error`` instead of being dropped.
    """
    etas = [check_real(eta13, "eta13") for eta13 in eta13_values]
    # an empty grid would write a header-only CSV
    if not etas:
        raise ValueError("eta13 grid is empty: a sweep needs at least one deficit")
    graphs = (perturbed_n3(g12, eta23, eta13, kappa, zz_mode=zz_mode) for eta13 in etas)
    problems = [problem_odd(graph) for graph in graphs]
    try:
        results = optimize_many(problems, config)
    except (ValueError, ArithmeticError):
        # one failing problem fails the joint run: run each problem alone,
        # so that only the failing ones lose their rows
        results = None
    rows = []
    for k, (eta13, problem) in enumerate(zip(etas, problems)):
        try:
            result = optimize(problem, config) if results is None else results[k]
            row = correction_row(eta13, problem, result)
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
