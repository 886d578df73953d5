"""Optimizer tests: fixed points, dominance, determinism, sweep output."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghznet import optimizer
from ghznet.chebyshev import PropagationError
from ghznet.couplings import ideal, perturbed_general, perturbed_n3
from ghznet.optimizer import (
    OptimizerConfig,
    SWEEP_COLUMNS,
    objective,
    optimize,
    optimize_restricted_n4,
    problem_even_full,
    problem_even_restricted,
    problem_odd,
    sweep,
    uncorrected_fidelity,
    write_sweep_csv,
)
from ghznet.dense import StateVector, fidelity_frobenius
from ghznet.protocol import entangling_time, execute, ghz_target, theta

FAST = OptimizerConfig(restarts=3)


def random_n4_graph(rng):
    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    mult = {p: rng.uniform(0.9, 1.0) for p in pairs}
    return perturbed_general(4, 1.0, 0.05, mult)


class TestProblems:
    def test_parameter_count_ceiling(self):
        g3 = perturbed_n3(1.0, 0.02, 0.06, 0.05)
        assert problem_odd(g3).ideal_params.shape == (4,)
        g4 = random_n4_graph(np.random.default_rng(0))
        assert problem_even_restricted(g4).ideal_params.shape == (2,)
        assert problem_even_full(g4).ideal_params.shape == (5,)

    def test_parity_validation(self):
        with pytest.raises(ValueError):
            problem_odd(ideal(4, 1, 0.05))
        with pytest.raises(ValueError):
            problem_even_restricted(ideal(3, 1, 0.05))

    @pytest.mark.parametrize("n", [4, 6])
    def test_strong_zz_correction_stays_fixed(self, n):
        # gz > g compiles two extra z pi/2 pulses; neither family frees
        # them, and both must keep them at the ideal point
        graph = ideal(n, 0.5, 1.0)
        restricted = problem_even_restricted(graph)
        full = problem_even_full(graph)
        assert restricted.ideal_params.shape == (2,)
        assert full.ideal_params.shape == (n + 1,)
        assert uncorrected_fidelity(restricted) >= 1 - 1e-10
        assert uncorrected_fidelity(full) >= 1 - 1e-10

    def test_plan_for_sets_only_free_angles(self):
        prob = problem_even_full(ideal(4, 1, 0.05))
        params = prob.ideal_params.copy()
        params[0] *= 1.1
        params[2] = 1.0
        plan = prob.plan_for(params)
        assert plan.entangle_duration == params[0]
        assert [p.angle for p in plan.finals] == [np.pi / 2, 1.0, np.pi / 2, np.pi / 2, theta(4)]
        assert [p.qubit for p in plan.finals] == [1, 2, 3, 4, 1]
        assert prob.plan_for(prob.ideal_params) == prob.plan

    def test_restricted_ideal_point(self):
        prob = problem_even_restricted(ideal(4, 1, 0.05))
        assert prob.ideal_params[0] == pytest.approx(entangling_time(1, 0.05))
        assert prob.ideal_params[1] == pytest.approx(theta(4))


class TestObjective:
    def test_zero_at_exact_protocol(self):
        prob = problem_odd(ideal(3, 1, 0.05))
        assert objective(prob, prob.ideal_params) <= 1e-10

    def test_uncorrected_value(self):
        prob = problem_odd(perturbed_n3(1.0, 0.02, 0.06, 0.05))
        assert objective(prob, prob.ideal_params) == pytest.approx(1 - 0.9628, abs=5e-4)

    def test_out_of_bounds_rejected(self):
        prob = problem_odd(ideal(3, 1, 0.05))
        bad = prob.ideal_params.copy()
        bad[0] *= 3.0
        with pytest.raises(ValueError):
            objective(prob, bad)

    def test_wrong_length_rejected(self):
        prob = problem_odd(ideal(3, 1, 0.05))
        with pytest.raises(ValueError):
            objective(prob, prob.ideal_params[:-1])


def _families():
    g4 = random_n4_graph(np.random.default_rng(11))
    strong_zz = ideal(4, 0.5, 1.0)
    return {
        "odd-3": problem_odd(perturbed_n3(1.0, 0.02, 0.06, 0.05)),
        "restricted-4": problem_even_restricted(g4),
        "full-4": problem_even_full(g4),
        "restricted-4-strong-zz": problem_even_restricted(strong_zz),
        "full-4-strong-zz": problem_even_full(strong_zz),
    }


FAMILIES = _families()


def _reference_objective(problem, params):
    """1 - fidelity of the plan run through execute on a fresh propagator."""
    plan = problem.plan_for(params)
    psi = execute(plan, problem.graph)
    psi = StateVector(psi.n_qubits, psi.amplitudes * plan.expected_phase.phase.conjugate())
    target = ghz_target(problem.n_qubits).state
    return 1.0 - fidelity_frobenius(psi, target, align_phase=True)


class TestObjectiveBits:
    @pytest.mark.parametrize("name", sorted(FAMILIES))
    @settings(max_examples=25, deadline=None)
    @given(fractions=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5))
    def test_equals_plan_execution(self, name, fractions):
        problem = FAMILIES[name]
        size = problem.ideal_params.shape[0]
        span = problem.upper - problem.lower
        params = np.clip(
            problem.lower + np.array(fractions[:size]) * span, problem.lower, problem.upper
        )
        assert objective(problem, params) == _reference_objective(problem, params)
        assert np.array_equal(
            problem.run(params).amplitudes,
            execute(problem.plan_for(params), problem.graph).amplitudes
            * problem.plan.expected_phase.phase.conjugate(),
        )

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_ideal_point_equals_plan_execution(self, name):
        problem = FAMILIES[name]
        expected = _reference_objective(problem, problem.ideal_params)
        assert objective(problem, problem.ideal_params) == expected

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_bad_parameters_rejected(self, name):
        problem = FAMILIES[name]
        for bad in (problem.lower - 1e-9, problem.upper + 1e-9):
            with pytest.raises(ValueError):
                objective(problem, bad)
        for params in (problem.ideal_params[:-1], np.append(problem.ideal_params, 0.0)):
            with pytest.raises(ValueError):
                objective(problem, params)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_nan_parameter_rejected(self, name):
        # NaN compares False both ways, so it is never inside the box
        problem = FAMILIES[name]
        for k in range(problem.ideal_params.shape[0]):
            params = problem.ideal_params.copy()
            params[k] = np.nan
            with pytest.raises(ValueError):
                objective(problem, params)


class TestOptimize:
    def test_ideal_graph_fixed_point(self):
        prob = problem_odd(ideal(3, 1, 0.05))
        res = optimize(prob, FAST)
        assert abs(res.t_opt - entangling_time(1, 0.05)) <= 1e-6
        assert np.max(np.abs(res.angles_opt - np.pi / 2)) <= 1e-6
        assert res.fidelity == pytest.approx(1.0, abs=1e-6)

    def test_dominates_uncorrected(self):
        prob = problem_odd(perturbed_n3(1.0, 0.05, 0.08, 0.05))
        res = optimize(prob, FAST)
        assert res.fidelity >= uncorrected_fidelity(prob)

    @settings(max_examples=5, deadline=None)
    @given(
        eta23=st.floats(0.0, 0.2),
        eta13=st.floats(0.0, 0.2),
        kappa=st.floats(-0.5, 0.5),
        zz_mode=st.sampled_from(["proportional", "uniform"]),
    )
    def test_never_below_uncorrected(self, eta23, eta13, kappa, zz_mode):
        prob = problem_odd(perturbed_n3(1.0, eta23, eta13, kappa, zz_mode=zz_mode))
        res = optimize(prob, OptimizerConfig(restarts=2, max_evals=300))
        assert res.fidelity >= uncorrected_fidelity(prob)

    @pytest.mark.parametrize("max_evals", [0, -1])
    def test_no_evaluation_budget_rejected(self, max_evals):
        # without one evaluation start 0 is never scored, and the result
        # could fall below the uncorrected fidelity
        with pytest.raises(ValueError, match="max_evals"):
            OptimizerConfig(max_evals=max_evals)

    def test_deterministic_for_fixed_seed(self):
        prob = problem_odd(perturbed_n3(1.0, 0.02, 0.06, 0.05))
        a = optimize(prob, OptimizerConfig(restarts=4, seed=3))
        b = optimize(prob, OptimizerConfig(restarts=4, seed=3))
        assert a.t_opt == b.t_opt
        assert np.array_equal(a.angles_opt, b.angles_opt)
        assert a.fidelity == b.fidelity
        assert a.objective_evaluations == b.objective_evaluations

    def test_restricted_n4_ideal_point(self):
        res = optimize_restricted_n4(ideal(4, 1, 0.05), FAST)
        assert abs(res.t_opt - entangling_time(1, 0.05)) <= 1e-6
        assert abs(res.angles_opt[0] - theta(4)) <= 1e-6
        assert res.fidelity == pytest.approx(1.0, abs=1e-6)

    def test_restricted_n4_wrong_size(self):
        with pytest.raises(ValueError):
            optimize_restricted_n4(ideal(3, 1, 0.05), FAST)


class TestSweep:
    def test_rows_and_dominance(self):
        rows = sweep([0.0, 0.05], config=FAST)
        assert [r["eta13"] for r in rows] == [0.0, 0.05]
        for r in rows:
            assert r["error"] == ""
            assert r["F_opt"] >= r["F_uncorrected"]

    def test_failed_row_is_marked_not_dropped(self, monkeypatch):
        real_optimize = optimizer.optimize

        def fails_without_deficit(problem, config):
            graph = problem.graph
            if graph.xy[(1, 3)] == graph.g_ref:
                raise PropagationError("no convergence")
            return real_optimize(problem, config)

        monkeypatch.setattr(optimizer, "optimize", fails_without_deficit)
        rows = sweep([0.0, 0.02], config=FAST)
        assert rows[0]["error"].startswith("PropagationError")
        assert np.isnan(rows[0]["F_opt"])
        assert rows[1]["error"] == ""

    @pytest.mark.parametrize(
        "etas, kappa", [([0.02, -0.5], 0.05), ([0.02, 1.2], 0.05), ([0.02], 1.0)]
    )
    def test_bad_input_rejected_before_any_optimization(self, etas, kappa, monkeypatch):
        calls = []
        monkeypatch.setattr(optimizer, "optimize", lambda *args: calls.append(args))
        with pytest.raises(ValueError):
            sweep(etas, kappa=kappa, config=FAST)
        assert calls == []

    def test_unexpected_error_propagates(self, monkeypatch):
        def broken(problem, config):
            raise TypeError("a bug, not a failed optimization")

        monkeypatch.setattr(optimizer, "optimize", broken)
        with pytest.raises(TypeError):
            sweep([0.02], config=FAST)

    def test_csv_schema(self, tmp_path):
        rows = sweep([0.0], config=FAST)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 2
        assert len(lines[1].split(",")) == len(SWEEP_COLUMNS)
