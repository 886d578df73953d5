"""Optimizer tests: fixed points, dominance, determinism, sweep output."""

import numpy as np
import pytest

from ghznet import optimizer
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
from ghznet.protocol import entangling_time, theta

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

    def test_failed_row_is_marked_not_dropped(self):
        # a negative deficit is rejected by the graph constructor
        rows = sweep([-0.5, 0.02], config=FAST)
        assert rows[0]["error"] != "" and np.isnan(rows[0]["F_opt"])
        assert rows[1]["error"] == ""

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
