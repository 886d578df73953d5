"""Optimizer tests: fixed points, dominance, determinism, sweep output, and
the in-package Nelder-Mead against scipy's."""

import functools
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize as scipy_minimize

from ghznet import optimizer
from ghznet.chebyshev import PropagationError
from ghznet.couplings import ideal, perturbed_general, perturbed_n3
from ghznet.optimizer import (
    OptimizationProblem,
    OptimizerConfig,
    SWEEP_COLUMNS,
    objective,
    optimize,
    optimize_restricted_n4,
    problem_even_full,
    problem_even_restricted,
    problem_odd,
    row_cells,
    sweep,
    uncorrected_fidelity,
    write_sweep_csv,
)
from ghznet.dense import (
    GlobalPhase,
    StateVector,
    fidelity_frobenius,
    fidelity_frobenius_raw,
    rotate_amplitudes,
    single_qubit_rotation,
)
from ghznet.protocol import (
    HamiltonianPropagator,
    apply_factors,
    compile_plan,
    entangling_time,
    execute,
    ghz_target,
    theta,
)
from reference import plan_for

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
        plan = plan_for(prob, params)
        assert plan.entangle_duration == params[0]
        assert [p.angle for p in plan.finals] == [np.pi / 2, 1.0, np.pi / 2, np.pi / 2, theta(4)]
        assert [p.qubit for p in plan.finals] == [1, 2, 3, 4, 1]
        assert plan_for(prob, prob.ideal_params) == prob.plan

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

    def test_run_refuses_a_wrong_length(self):
        # a short vector used to run with the compiled angles in place of
        # the missing ones, and a long one with its extra entries ignored
        prob = problem_odd(ideal(3, 1, 0.05))
        for params in (prob.ideal_params[:-1], np.append(prob.ideal_params, 0.0)):
            with pytest.raises(ValueError, match="parameters"):
                prob.run(params)


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
    plan = plan_for(problem, params)
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
            execute(plan_for(problem, params), problem.graph).amplitudes
            * problem.plan.expected_phase.phase.conjugate(),
        )

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    @settings(max_examples=25, deadline=None)
    @given(fractions=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5))
    def test_run_keeps_the_norm(self, name, fractions):
        problem = FAMILIES[name]
        size = problem.ideal_params.shape[0]
        params = problem.lower + np.array(fractions[:size]) * (problem.upper - problem.lower)
        params = np.clip(params, problem.lower, problem.upper)
        assert abs(problem.run(params).norm() - 1.0) <= 1e-12

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


class TestMinimizeBits:
    """``optimizer.minimize`` ports scipy's bounded Nelder-Mead bit for bit."""

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    @settings(max_examples=6, deadline=None)
    @given(
        fractions=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
        maxfev=st.sampled_from([20000, 37]),
        rough=st.booleans(),
    )
    def test_equals_scipy(self, name, fractions, maxfev, rough):
        problem = FAMILIES[name]
        size = problem.ideal_params.shape[0]
        span = problem.upper - problem.lower
        x0 = np.clip(
            problem.lower + np.array(fractions[:size]) * span, problem.lower, problem.upper
        )
        fun = functools.partial(objective, problem)
        if rough:
            # a coarse objective ties vertices and forces shrink steps
            def fun(params):
                return round(objective(problem, params), 3)

        ours = optimizer.minimize(
            fun, x0, problem.lower, problem.upper, xatol=1e-8, fatol=1e-10, maxfev=maxfev
        )
        ref = scipy_minimize(
            fun, x0, method="Nelder-Mead", bounds=list(zip(problem.lower, problem.upper)),
            options={"xatol": 1e-8, "fatol": 1e-10, "maxfev": maxfev},
        )
        assert ours.x.tobytes() == ref.x.tobytes()
        assert ours.fun == ref.fun
        assert ours.nfev == ref.nfev
        assert ours.success == ref.success

    def test_import_does_not_load_scipy_optimize(self):
        src = Path(optimizer.__file__).resolve().parents[1]
        code = "import sys, ghznet, ghznet.cli; sys.exit('scipy.optimize' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(src)}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_import_sweep_verify_and_eigs_load_no_scipy(self, tmp_path):
        # scipy loads only for to_sparse, N >= 7 propagation and the
        # symmetric engine; each step here runs in one fresh process
        src = Path(optimizer.__file__).resolve().parents[1]
        code = """if True:
            import sys

            def check(step):
                loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
                assert not loaded, f"{step} loaded {loaded[:5]}"

            import ghznet, ghznet.cli
            check("import")
            assert ghznet.cli.main(["sweep", "--out", "sweep.csv"]) == 0
            check("sweep")
            ghznet.protocol.verify(4, 1.0, 0.05)
            check("verify")
            assert ghznet.cli.main(["eigs", "--n", "6"]) == 0
            check("eigs")
        """
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("maxfev", [10**20, 0, -3, 2.5, True])
    def test_bad_maxfev_refused(self, maxfev):
        def fun(x):
            return round(float(x @ x), 2)

        with pytest.raises(ValueError, match="maxfev"):
            optimizer.minimize(
                fun, np.full(3, 0.9), np.full(3, -1.0), np.full(3, 2.0), 1e-4, 1e-8, maxfev
            )


# FAMILIES plus a problem above EIGH_MAX_QUBITS, whose rows each run one
# Chebyshev expansion
BATCH_FAMILIES = {**FAMILIES, "odd-7": problem_odd(ideal(7, 1, 0.05))}


def _alone(block_function, problem, rows):
    """The optimizer's per-block ``block_function`` (``_objectives`` or
    ``_states``) on a block of rows that all belong to ``problem``."""
    owner = np.zeros(len(rows), dtype=int)
    return block_function([problem], optimizer._factors([problem]), rows, owner)


class TestBatchedObjective:
    """One batched evaluation of K rows gives each row's own value."""

    @pytest.mark.parametrize("name", sorted(BATCH_FAMILIES))
    @pytest.mark.parametrize("k", [1, 2, 8, 40])
    @settings(max_examples=4, deadline=None)
    @given(data=st.data(), near=st.booleans())
    def test_each_row_equals_objective(self, name, k, data, near):
        problem = BATCH_FAMILIES[name]
        size = problem.ideal_params.shape[0]
        span = problem.upper - problem.lower
        fractions = np.array(
            data.draw(st.lists(st.floats(0.0, 1.0), min_size=k * size, max_size=k * size))
        ).reshape(k, size)
        if near:
            # within 1e-4 of the box's width of the ideal point
            rows = problem.ideal_params + (fractions - 0.5) * 2e-4 * span
        else:
            rows = problem.lower + fractions * span
        rows = np.clip(rows, problem.lower, problem.upper)
        values = _alone(optimizer._objectives, problem, rows)
        assert values.tolist() == [objective(problem, row) for row in rows]
        states = _alone(optimizer._states, problem, rows)
        for row, state in zip(rows, states):
            assert state.tobytes() == problem.run(row).amplitudes.tobytes()

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "below", "above"])
    def test_one_bad_row_refuses_the_batch(self, name, bad):
        problem = FAMILIES[name]
        rows = np.tile(problem.ideal_params, (5, 1))
        row = rows[3]
        if bad == "below":
            row[0] = np.nextafter(problem.lower[0], -np.inf)
        elif bad == "above":
            row[-1] = np.nextafter(problem.upper[-1], np.inf)
        else:
            row[-1] = bad
        with pytest.raises(ValueError, match="bounds") as single:
            objective(problem, row)
        with pytest.raises(ValueError, match="bounds") as batched:
            _alone(optimizer._objectives, problem, rows)
        assert str(batched.value) == str(single.value)


def _sweep_problems(etas=np.linspace(0.0, 0.10, 11)):
    """The default ``ghznet sweep``'s problems: one plan, free set and box."""
    return [problem_odd(perturbed_n3(1.0, 0.02, eta, 0.05)) for eta in etas]


# problem sets that optimize_many runs together, and the most rows per
# problem in a mixed block (the odd-7 rows each run a Chebyshev expansion)
JOINT_SETS = {
    "sweep-11": (_sweep_problems(), 11),
    "full-4-two-graphs": (
        [problem_even_full(random_n4_graph(np.random.default_rng(s))) for s in (11, 12)], 11
    ),
    "odd-7-two-graphs": (
        [
            problem_odd(ideal(7, 1.0, 0.05)),
            problem_odd(perturbed_general(7, 1.0, 0.05, {
                (i, j): 1.0 - 0.01 * ((i * j) % 5) for i in range(1, 8) for j in range(i + 1, 8)
            })),
        ],
        2,
    ),
}


class TestJointObjectives:
    """One evaluation of a block mixed across problems gives each row the
    value it has under its own problem alone."""

    RESTARTS = 3

    def _evaluate(self, problems, rows, searches):
        """The values ``optimize_many`` gets for a block of these rows."""
        factors = optimizer._factors(problems)
        return optimizer._objectives(problems, factors, rows, searches // self.RESTARTS)

    def _rows(self, problems, counts, rng, near):
        """Rows for problem k, ``counts[k]`` of them, and their search
        indices, shuffled together."""
        owner = np.repeat(np.arange(len(problems)), counts)
        problem = problems[0]
        span = problem.upper - problem.lower
        fractions = rng.uniform(0.0, 1.0, size=(len(owner), span.shape[0]))
        if near:
            # within 1e-4 of the box's width of the problems' shared ideal point
            rows = problem.ideal_params + (fractions - 0.5) * 2e-4 * span
        else:
            rows = problem.lower + fractions * span
        rows = np.clip(rows, problem.lower, problem.upper)
        searches = owner * self.RESTARTS + rng.integers(0, self.RESTARTS, len(owner))
        order = rng.permutation(len(owner))
        return rows[order], searches[order]

    @pytest.mark.parametrize("name", sorted(JOINT_SETS))
    @settings(max_examples=6, deadline=None)
    @given(data=st.data(), seed=st.integers(0, 2**32 - 1), near=st.booleans())
    def test_each_row_equals_objective(self, name, data, seed, near):
        problems, most = JOINT_SETS[name]
        counts = data.draw(
            st.lists(st.integers(1, most), min_size=len(problems), max_size=len(problems))
        )
        rows, searches = self._rows(problems, counts, np.random.default_rng(seed), near)
        values = self._evaluate(problems, rows, searches)
        want = [
            objective(problems[k], row)
            for k, row in zip((searches // self.RESTARTS).tolist(), rows)
        ]
        assert np.asarray(values).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("name", sorted(JOINT_SETS))
    def test_block_of_one_problem(self, name):
        problems, most = JOINT_SETS[name]
        for k, problem in enumerate(problems):
            counts = [most if j == k else 0 for j in range(len(problems))]
            rows, searches = self._rows(problems, counts, np.random.default_rng(k), False)
            want = [objective(problem, row) for row in rows]
            values = self._evaluate(problems, rows, searches)
            assert np.asarray(values).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("name", sorted(JOINT_SETS))
    def test_one_problem_at_both_ends_of_the_block(self, name):
        # the first and last rows share a problem, the middle one does not
        problems, _ = JOINT_SETS[name]
        rows, searches = self._rows(problems[:2], [2, 1], np.random.default_rng(7), False)
        # sorted by problem, [0, 0, 1], then reordered to [0, 1, 0]
        order = np.argsort(searches // self.RESTARTS, kind="stable")[[0, 2, 1]]
        rows, searches = rows[order], searches[order]
        assert searches[0] // self.RESTARTS == searches[-1] // self.RESTARTS
        values = self._evaluate(problems, rows, searches)
        want = [
            objective(problems[k], row)
            for k, row in zip((searches // self.RESTARTS).tolist(), rows)
        ]
        assert np.asarray(values).tobytes() == np.array(want).tobytes()

    def test_one_bad_row_refuses_the_block(self):
        problems, _ = JOINT_SETS["sweep-11"]
        rows, searches = self._rows(problems, [2] * 11, np.random.default_rng(0), True)
        rows[5, 0] = np.nan
        with pytest.raises(ValueError, match="bounds"):
            self._evaluate(problems, rows, searches)


class TestLockstepBits:
    """Nelder-Mead searches driven together, one batched call per round,
    end where each one alone ends: where scipy does."""

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    @pytest.mark.parametrize("maxfev", [1, 3, 37, 20000])
    @pytest.mark.parametrize("kind", ["rough", "nan"])
    def test_every_start_equals_scipy(self, name, maxfev, kind):
        problem = FAMILIES[name]
        cut = problem.lower[0] + 0.6 * (problem.upper[0] - problem.lower[0])
        nan_rows = []

        def values(rows):
            out = _alone(optimizer._objectives, problem, rows)
            if kind == "rough":
                # a coarse objective ties vertices and forces shrink steps
                return [round(v, 3) for v in out.tolist()]
            # NaN values never pass the convergence test or win a comparison
            nan_rows.append(np.count_nonzero(rows[:, 0] > cut))
            return np.where(rows[:, 0] > cut, np.nan, out)

        def fun(params):
            return values(np.asarray(params)[None])[0]

        x0s = optimizer._start_points(problem, OptimizerConfig(restarts=5, seed=maxfev))
        # one start on the NaN region's edge: its first simplex has a NaN vertex
        x0s[-1][0] = cut
        results = optimizer._lockstep(
            x0s, problem.lower, problem.upper, 1e-8, 1e-10, maxfev, lambda rows, _: values(rows)
        )
        if kind == "nan" and maxfev > 3:
            assert sum(nan_rows) > 0
        bounds = list(zip(problem.lower, problem.upper))
        for x0, ours in zip(x0s, results):
            ref = scipy_minimize(
                fun, x0, method="Nelder-Mead", bounds=bounds,
                options={"xatol": 1e-8, "fatol": 1e-10, "maxfev": maxfev},
            )
            assert ours.x.tobytes() == ref.x.tobytes()
            assert ours.fun == ref.fun or (np.isnan(ours.fun) and np.isnan(ref.fun))
            assert ours.nfev == ref.nfev
            assert ours.success == ref.success


class TestLockstepIndependence:
    """A search's result does not depend on the other searches of its
    lockstep: each equals its own one-search run, byte for byte."""

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 5),
        count=st.integers(1, 9),
        maxfev=st.sampled_from([1, 2, 3, 5, 37]),
        kind=st.sampled_from(["rough", "nan"]),
    )
    def test_each_search_equals_its_own_run(self, data, n, count, maxfev, kind):
        def vector(values):
            return np.array(data.draw(st.lists(values, min_size=n, max_size=n)))

        lower = vector(st.sampled_from([0.0, -0.0, -1.0, 0.5]))
        # a zero width pins a coordinate; -0.0 + 0.0 gives a +0.0 upper bound
        upper = lower + vector(st.sampled_from([0.0, 0.5, 3.0]))
        centre = vector(st.floats(-1.0, 4.0))
        x0s = np.stack(
            [vector(st.sampled_from([0.0, -0.0]) | st.floats(-1.5, 4.0)) for _ in range(count)]
        )

        def values(rows):
            out = []
            for x in rows:
                value = float(np.sum((x - centre) ** 2 + np.cos(3 * x)))
                if kind == "rough":
                    # a coarse objective ties vertices and forces shrink steps
                    out.append(round(value, 1))
                else:
                    out.append(np.nan if x[0] > centre[0] else value)
            return out

        def search(x0s):
            return optimizer._lockstep(
                x0s, lower, upper, 1e-8, 1e-10, maxfev, lambda rows, _: values(rows)
            )

        together = search(x0s)
        for x0, ours in zip(x0s, together):
            (alone,) = search(x0[None])
            assert ours.x.tobytes() == alone.x.tobytes()
            assert np.float64(ours.fun).tobytes() == np.float64(alone.fun).tobytes()
            assert ours.nfev == alone.nfev
            assert ours.success == alone.success


class TestBatchKernels:
    """The dense kernels on a one-row block give the bytes of the 1-D call."""

    @pytest.mark.parametrize("n", range(2, 15))
    def test_rotation_and_fidelity(self, n):
        rng = np.random.default_rng(n)
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi /= np.linalg.norm(psi)
        target = ghz_target(n).state.amplitudes
        for k in range(1, n + 1):
            u = single_qubit_rotation("xyz"[k % 3], rng.uniform(0, 2 * np.pi))
            alone = rotate_amplitudes(psi, n, k, u)
            assert rotate_amplitudes(psi[None], n, k, u).tobytes() == alone.tobytes()
            assert rotate_amplitudes(psi[None], n, k, u[None]).tobytes() == alone.tobytes()
        for align in (True, False):
            alone = fidelity_frobenius_raw(psi, target, align_phase=align)
            batch = fidelity_frobenius_raw(psi[None], target, align_phase=align)
            assert batch.shape == (1,)
            assert batch.tobytes() == np.float64(alone).tobytes()

    @pytest.mark.parametrize("n", range(2, 10))
    def test_propagation_rows(self, n):
        prop = HamiltonianPropagator(ideal(n, 1.0, 0.05))
        times = np.array([0.3, entangling_time(1.0, 0.05), 2.9])
        block = prop.propagate(times)
        assert block.shape == (3, 1 << n)
        for t, row in zip(times.tolist(), block):
            assert row.tobytes() == prop.propagate(t).tobytes()


    @pytest.mark.parametrize("n", range(2, 7))
    def test_stacked_factors_give_each_row_its_own_propagation(self, n):
        rng = np.random.default_rng(n)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        props = [
            HamiltonianPropagator(
                perturbed_general(n, 1.0, 0.05, {p: rng.uniform(0.9, 1.0) for p in pairs})
            )
            for _ in range(3)
        ]
        stacks = [np.stack(f) for f in zip(*(prop.factors for prop in props))]
        owner = rng.integers(0, len(props), 20)
        times = rng.uniform(0.1, 3.0, 20)
        block = apply_factors(*(stack[owner] for stack in stacks), times)
        for k, t, row in zip(owner.tolist(), times.tolist(), block):
            assert row.tobytes() == props[k].propagate(t).tobytes()


class TestBoundsCheck:
    """``objective``'s box test refuses NaN, +-inf and the next float past
    either edge, and accepts the edges and -0.0 at a zero lower bound."""

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_rejected(self, name, bad):
        # NaN: TestObjectiveBits.test_nan_parameter_rejected
        problem = FAMILIES[name]
        for k in range(problem.ideal_params.shape[0]):
            params = problem.ideal_params.copy()
            params[k] = bad
            with pytest.raises(ValueError, match="bounds"):
                objective(problem, params)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_just_outside_rejected_edges_accepted(self, name):
        problem = FAMILIES[name]
        for k in range(problem.ideal_params.shape[0]):
            for edge, outside in (
                (problem.lower[k], np.nextafter(problem.lower[k], -np.inf)),
                (problem.upper[k], np.nextafter(problem.upper[k], np.inf)),
            ):
                params = problem.ideal_params.copy()
                params[k] = outside
                with pytest.raises(ValueError, match="bounds"):
                    objective(problem, params)
                params[k] = edge
                assert np.isfinite(objective(problem, params))

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_negative_zero_at_zero_lower_bound_accepted(self, name):
        problem = FAMILIES[name]
        params = problem.ideal_params.copy()
        params[1:] = 0.0
        want = objective(problem, params)
        params[1:] = -0.0
        assert objective(problem, params) == want

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_wrong_shape_rejected(self, name):
        problem = FAMILIES[name]
        x = problem.ideal_params
        for params in (x.reshape(1, -1), x.reshape(-1, 1), x[0], np.stack([x, x]), []):
            with pytest.raises(ValueError, match="parameters"):
                objective(problem, params)

    def test_list_accepted(self):
        problem = FAMILIES["odd-3"]
        x = problem.ideal_params
        assert objective(problem, x.tolist()) == objective(problem, x)


CLIP_VALUES = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 5e-324, -5e-324, np.nan, np.inf, -np.inf]


class TestMinimizeBookkeeping:
    """The loop's cheaper clip and convergence test behave as scipy's."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6))
    def test_clip_equals_np_clip(self, data, n):
        def row(values):
            return np.array(data.draw(st.lists(values, min_size=n, max_size=n)))

        lower = row(st.sampled_from([0.0, -0.0, -1.0, 0.5]))
        upper = np.maximum(lower, row(st.sampled_from([0.0, -0.0, 1.0, 2.0])))
        values = st.sampled_from(CLIP_VALUES) | st.floats()
        sim = np.stack([row(values) for _ in range(n + 1)])
        # a fresh trial point and a simplex row
        for x in (sim[-1].copy(), sim[-1]):
            want = np.clip(x, lower, upper)
            assert optimizer._clip(x, lower, upper).tobytes() == want.tobytes()
        # a (K, n) block, as the lockstep clips every search's trial point at once
        block = np.stack([row(values) for _ in range(data.draw(st.integers(1, 9)))])
        want = np.stack([np.clip(x, lower, upper) for x in block])
        assert optimizer._clip(block, lower, upper).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "lower, upper, start",
        [(-1.0, 0.0, -0.0), (0.0, 1.0, -0.0), (-0.0, 1.0, 0.0), (-1.0, -0.0, 0.0)],
    )
    def test_starts_are_clipped_as_one_row_each(self, lower, upper, start):
        # with n = 1, np.clip of an (S, 1) block keeps -0.0 against a +0.0
        # bound (and the reverse), where each row's own clip returns the bound
        lower, upper = np.array([lower]), np.array([upper])
        x0s = np.array([[start], [0.5], [start]])
        want = np.stack([np.clip(x0, lower, upper) for x0 in x0s])
        seen = []

        def values(rows):
            seen.append(np.array(rows))
            return [0.0] * len(rows)

        # with one evaluation each, the first call holds exactly the starts
        optimizer.minimize(lambda x: values([x])[0], x0s[0], lower, upper, 1e-8, 1e-10, 1)
        assert seen[0].tobytes() == want[:1].tobytes()
        seen.clear()
        optimizer._lockstep(x0s, lower, upper, 1e-8, 1e-10, 1, lambda rows, _: values(rows))
        assert seen[0].tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        x0=st.floats(0.5, 3.5),
        centre=st.floats(0.0, 4.0),
        maxfev=st.sampled_from([1, 2, 3, 5, 37, 2000]),
        rough=st.booleans(),
    )
    def test_one_variable_equals_scipy_away_from_zero(self, x0, centre, maxfev, rough):
        # with one variable the port and scipy can part on the sign of a
        # zero at a bound (see _lockstep); a box away from zero has none
        def fun(x):
            value = float((x[0] - centre) ** 2 + np.cos(3 * x[0]))
            return round(value, 1) if rough else value

        lower, upper = np.array([0.5]), np.array([3.5])
        ours = optimizer.minimize(
            fun, [x0], lower, upper, xatol=1e-8, fatol=1e-10, maxfev=maxfev
        )
        ref = scipy_minimize(
            fun, [x0], method="Nelder-Mead", bounds=[(0.5, 3.5)],
            options={"xatol": 1e-8, "fatol": 1e-10, "maxfev": maxfev},
        )
        assert ours.x.tobytes() == ref.x.tobytes()
        assert ours.fun == ref.fun
        assert ours.nfev == ref.nfev
        assert ours.success == ref.success

    @pytest.mark.parametrize("where", [0.2, 0.5, 0.8])
    def test_nan_objective_equals_scipy(self, where):
        # NaN values never pass the convergence test and never win a comparison
        problem = FAMILIES["odd-3"]
        cut = problem.lower[0] + where * (problem.upper[0] - problem.lower[0])

        def fun(params):
            return np.nan if params[0] > cut else objective(problem, params)

        bounds = list(zip(problem.lower, problem.upper))
        for maxfev in (50, 400):
            ours = optimizer.minimize(
                fun, problem.ideal_params, problem.lower, problem.upper,
                xatol=1e-8, fatol=1e-10, maxfev=maxfev,
            )
            ref = scipy_minimize(
                fun, problem.ideal_params, method="Nelder-Mead", bounds=bounds,
                options={"xatol": 1e-8, "fatol": 1e-10, "maxfev": maxfev},
            )
            assert ours.x.tobytes() == ref.x.tobytes()
            assert ours.fun == ref.fun or (np.isnan(ours.fun) and np.isnan(ref.fun))
            assert ours.nfev == ref.nfev
            assert ours.success == ref.success


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

    @pytest.mark.parametrize("max_evals", [0, -1, 10.5, np.float64(5.0), True, "3"])
    def test_no_evaluation_budget_rejected(self, max_evals):
        # without one evaluation start 0 is never scored, and the result
        # could fall below the uncorrected fidelity
        with pytest.raises(ValueError, match="max_evals"):
            OptimizerConfig(max_evals=max_evals)

    @pytest.mark.parametrize("restarts", [0, -4, 2.5, True, "3"])
    def test_no_start_rejected(self, restarts):
        with pytest.raises(ValueError, match="restarts"):
            OptimizerConfig(restarts=restarts)

    @pytest.mark.parametrize("tolerance", [-1.0, np.nan, np.inf, True, "1e-10"])
    def test_bad_tolerance_rejected(self, tolerance):
        with pytest.raises(ValueError, match="tolerance"):
            OptimizerConfig(tolerance=tolerance)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            OptimizerConfig(seed=-1)

    @pytest.mark.parametrize("seed", [1.5, np.float64(0.0), True, "0"])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            OptimizerConfig(seed=seed)

    @settings(max_examples=25, deadline=None)
    @given(
        key=st.sampled_from(["max_evals", "restarts", "seed"]),
        m=st.integers(-3, 3),
        e=st.integers(60, 66),
        d=st.integers(-1, 1),
    )
    def test_counts_near_the_int64_edge(self, key, m, e, d):
        # the counts size int64 counters and arrays; default_rng takes any
        # seed >= 0, so only the seed stays unbounded above
        value = (m << e) + d
        low, high = (0, None) if key == "seed" else (1, 2**63 - 1)
        if low <= value and (high is None or value <= high):
            assert getattr(OptimizerConfig(**{key: value}), key) == value
        else:
            with pytest.raises(ValueError, match=key):
                OptimizerConfig(**{key: value})

    def test_config_stores_python_numbers(self):
        config = OptimizerConfig(np.float64(1e-9), np.int64(300), np.int32(2), np.uint8(1))
        assert config == OptimizerConfig(1e-9, 300, 2, 1)
        assert [type(v) for v in vars(config).values()] == [float, int, int, int]

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


def _same_result(ours, alone):
    """Two ``OptimizationResult``s agree in every field, every start's too."""
    assert ours.t_opt == alone.t_opt
    assert ours.angles_opt.tobytes() == alone.angles_opt.tobytes()
    assert ours.fidelity == alone.fidelity
    assert ours.objective_evaluations == alone.objective_evaluations
    assert ours.converged == alone.converged
    assert len(ours.starts) == len(alone.starts)
    for mine, own in zip(ours.starts, alone.starts):
        assert mine.x.tobytes() == own.x.tobytes()
        assert np.float64(mine.fun).tobytes() == np.float64(own.fun).tobytes()
        assert mine.nfev == own.nfev
        assert mine.success == own.success


class TestOptimizeMany:
    """Every start of every problem in one lockstep: each problem's result
    is its own ``optimize``."""

    @pytest.mark.parametrize("max_evals", [1, 60, 400])
    def test_sweep_problems_equal_their_own_runs(self, max_evals):
        problems = _sweep_problems()
        config = OptimizerConfig(max_evals=max_evals, restarts=4, seed=5)
        together = optimizer.optimize_many(problems, config)
        assert len(together) == len(problems)
        for problem, ours in zip(problems, together):
            _same_result(ours, optimize(problem, config))

    @pytest.mark.parametrize(
        "problems",
        [
            _sweep_problems([0.05, 0.10]),
            [problem_even_full(random_n4_graph(np.random.default_rng(s))) for s in (3, 4)],
        ],
        ids=["odd-3", "full-4"],
    )
    def test_two_at_the_default_config(self, problems):
        together = optimizer.optimize_many(problems)
        for problem, ours in zip(problems, together):
            _same_result(ours, optimize(problem))

    def _refused(self, problems, monkeypatch):
        calls = []
        monkeypatch.setattr(optimizer, "_lockstep", lambda *args: calls.append(args))
        with pytest.raises(ValueError):
            optimizer.optimize_many(problems, FAST)
        assert calls == []

    def test_refuses_no_problem(self, monkeypatch):
        self._refused([], monkeypatch)

    def test_refuses_different_qubit_counts(self, monkeypatch):
        self._refused([problem_odd(ideal(3, 1, 0.05)), problem_odd(ideal(5, 1, 0.05))], monkeypatch)

    def test_refuses_different_plans(self, monkeypatch):
        # another ZZ coupling: another entangling time, and so another box
        self._refused(
            _sweep_problems([0.02]) + [problem_odd(perturbed_n3(1.0, 0.02, 0.02, 0.06))],
            monkeypatch,
        )
        # the same pulses, free set and box, another expected phase
        graph = perturbed_n3(1.0, 0.02, 0.06, 0.05)
        plan = compile_plan(3, 1.0, 0.05).per_qubit()
        turned = replace(plan, expected_phase=GlobalPhase(1j * plan.expected_phase.phase))
        problems = [OptimizationProblem(graph, p, (0, 1, 2), np.pi) for p in (plan, turned)]
        assert np.array_equal(problems[0].upper, problems[1].upper)
        self._refused(problems, monkeypatch)

    def test_refuses_different_free_pulses(self, monkeypatch):
        graph = perturbed_n3(1.0, 0.02, 0.06, 0.05)
        plan = compile_plan(3, 1.0, 0.05).per_qubit()
        problems = [OptimizationProblem(graph, plan, free, np.pi) for free in ((0, 1), (1, 2))]
        assert np.array_equal(problems[0].upper, problems[1].upper)
        self._refused(problems, monkeypatch)

    def test_refuses_different_boxes(self, monkeypatch):
        graph = perturbed_n3(1.0, 0.02, 0.06, 0.05)
        plan = compile_plan(3, 1.0, 0.05).per_qubit()
        free = (0, 1, 2)
        problems = [OptimizationProblem(graph, plan, free, top) for top in (np.pi, 3.5)]
        self._refused(problems, monkeypatch)


def _row_bytes(row):
    """A sweep row's values as bytes, so that -0.0 and NaN payloads count."""
    return [np.float64(row[c]).tobytes() for c in SWEEP_COLUMNS] + [
        row["converged"], row["error"]
    ]


class TestSweep:
    def test_rows_and_dominance(self):
        rows = sweep([0.0, 0.05], config=FAST)
        assert [r["eta13"] for r in rows] == [0.0, 0.05]
        for r in rows:
            assert r["error"] == ""
            assert r["F_opt"] >= r["F_uncorrected"]

    def test_failed_row_is_marked_not_dropped(self, monkeypatch):
        clean = sweep([0.0, 0.02], config=FAST)
        real_optimize_many = optimizer.optimize_many
        runs = []

        def fails_without_deficit(problems, config):
            runs.append(len(problems))
            if any(p.graph.xy[(1, 3)] == p.graph.g_ref for p in problems):
                raise PropagationError("no convergence")
            return real_optimize_many(problems, config)

        monkeypatch.setattr(optimizer, "optimize_many", fails_without_deficit)
        rows = sweep([0.0, 0.02], config=FAST)
        # the joint run fails, then each problem runs alone
        assert runs == [2, 1, 1]
        assert rows[0]["error"].startswith("PropagationError")
        assert np.isnan(rows[0]["F_opt"])
        assert rows[1]["error"] == ""
        # the clean row is, byte for byte, the one a sweep with no failure writes
        assert row_cells(rows[1]) == row_cells(clean[1])
        assert _row_bytes(rows[1]) == _row_bytes(clean[1])

    @pytest.mark.parametrize(
        "etas, kappa", [([0.02, -0.5], 0.05), ([0.02, 1.2], 0.05), ([0.02], 1.0)]
    )
    def test_bad_input_rejected_before_any_optimization(self, etas, kappa, monkeypatch):
        calls = []
        for name in ("optimize", "optimize_many"):
            monkeypatch.setattr(optimizer, name, lambda *args: calls.append(args))
        with pytest.raises(ValueError):
            sweep(etas, kappa=kappa, config=FAST)
        assert calls == []

    def test_unexpected_error_propagates(self, monkeypatch):
        def broken(problems, config):
            raise TypeError("a bug, not a failed optimization")

        monkeypatch.setattr(optimizer, "optimize_many", broken)
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
