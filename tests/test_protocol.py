"""Protocol compiler/executor tests: timing, families, phases, engines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghznet import protocol
from ghznet.couplings import ideal, perturbed_general, perturbed_n3, to_dense
from ghznet.dense import (
    StateVector,
    all_zeros,
    apply_collective_rotation,
    evolve,
    fidelity_frobenius,
)
from ghznet.protocol import (
    DegenerateCouplingError,
    EngineCapabilityError,
    HamiltonianPropagator,
    PropagationError,
    compile_plan,
    entangling_time,
    execute,
    execute_symmetric,
    ghz_target,
    ground_energy,
    theta,
    verify,
)
from ghznet.symmetric import ghz_w_target, project


class TestTiming:
    def test_direct_formula(self):
        assert entangling_time(1, 0) == pytest.approx(np.pi / 2)
        assert entangling_time(1, 0.05) == pytest.approx(np.pi / 1.9)

    def test_sign_insensitive(self):
        assert entangling_time(0.2, 1.0) == pytest.approx(entangling_time(1.0, 0.2))

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateCouplingError):
            entangling_time(0.7, 0.7)


class TestTheta:
    def test_values(self):
        assert theta(2) == pytest.approx(np.pi / 2)
        assert theta(4) == pytest.approx(3 * np.pi / 2)
        assert theta(6) == pytest.approx(np.pi / 2)

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            theta(3)


class TestCompile:
    def test_odd_family_shape(self):
        plan = compile_plan(3, 1, 0)
        assert plan.parity == "odd"
        assert plan.initial == ("y", np.pi / 2)
        assert plan.finals == tuple((k, "x", np.pi / 2) for k in (1, 2, 3))
        assert plan.expected_phase.phase == pytest.approx(np.exp(1j * np.pi / 4))

    def test_even_family_shape(self):
        plan = compile_plan(4, 1, 0)
        assert plan.parity == "even"
        assert plan.finals[:4] == tuple((k, "y", np.pi / 2) for k in (1, 2, 3, 4))
        assert plan.finals[4] == (1, "z", theta(4))
        assert plan.expected_phase.phase == pytest.approx(np.exp(1j * np.pi))

    def test_phase_includes_ground_energy(self):
        plan = compile_plan(5, 1, 0.2)
        lam0_t = ground_energy(5, 0.2) * plan.entangle_duration
        expect = np.exp(-1j * lam0_t) * np.exp(-1j * np.pi / 4)  # (-1)^((5-3)/2) = -1
        assert plan.expected_phase.phase == pytest.approx(expect)

    def test_strong_zz_even_correction(self):
        plan = compile_plan(4, 0.5, 1.0)
        assert plan.finals[-2:] == ((2, "z", np.pi / 2), (3, "z", np.pi / 2))
        plan2 = compile_plan(2, 0.5, 1.0)
        assert plan2.finals[-2:] == ((1, "z", np.pi / 2), (2, "z", np.pi / 2))

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateCouplingError):
            compile_plan(4, 1.0, 1.0)

    def test_to_dict_round_trip_fields(self):
        d = compile_plan(4, 1, 0.05).to_dict()
        assert d["parity"] == "even"
        assert len(d["finals"]) == 5
        assert abs(d["expected_phase"]["real"] ** 2 + d["expected_phase"]["imag"] ** 2 - 1) < 1e-12


class TestGhzTarget:
    def test_bell_state(self):
        t = ghz_target(2)
        assert np.allclose(t.state.amplitudes, [1 / np.sqrt(2), 0, 0, 1 / np.sqrt(2)])

    def test_corner_amplitudes(self):
        t = ghz_target(3)
        assert t.state.amplitudes[0] == pytest.approx(1 / np.sqrt(2))
        assert t.state.amplitudes[7] == pytest.approx(1 / np.sqrt(2))

    def test_w_basis_projection(self):
        w, residual = project(ghz_target(6).state)
        assert np.allclose(w.coeffs, ghz_w_target(6).coeffs)
        assert residual <= 1e-12


class TestExecuteAndVerify:
    def test_small_ideal_runs(self):
        for n in (2, 3, 4, 5):
            fid, measured = verify(n, 1, 0)
            assert fid >= 1 - 1e-10
            expect = compile_plan(n, 1, 0).expected_phase.phase
            assert abs(measured.phase - expect) <= 1e-8

    def test_perturbed_graph_degrades_fidelity(self):
        plan = compile_plan(3, 1.0, 0.05)
        graph = perturbed_n3(1.0, 0.02, 0.06, 0.05)
        psi = execute(plan, graph)
        fid = fidelity_frobenius(psi, ghz_target(3).state, align_phase=True)
        assert 0.9 < fid < 1 - 1e-6

    def test_engine_equivalence_small(self):
        for n in (3, 4, 6, 7):
            plan = compile_plan(n, 1, 0.05)
            graph = ideal(n, 1, 0.05)
            a = execute(plan, graph, engine="dense")
            b = execute(plan, graph, engine="symmetric")
            assert np.linalg.norm(a.amplitudes - b.amplitudes) <= 1e-10

    def test_symmetric_engine_rejects_perturbed_graph(self):
        plan = compile_plan(3, 1.0, 0.05)
        graph = perturbed_n3(1.0, 0.02, 0.06, 0.05)
        with pytest.raises(EngineCapabilityError):
            execute(plan, graph, engine="symmetric")

    def test_pure_symmetric_rejects_per_qubit_finals(self):
        plan = compile_plan(4, 1, 0)  # even family has the qubit-1 z rotation
        with pytest.raises(EngineCapabilityError):
            execute_symmetric(plan, 1, 0)

    def test_pure_symmetric_large_odd(self):
        plan = compile_plan(101, 1, 0.05)
        w = execute_symmetric(plan, 1, 0.05)
        target = ghz_w_target(101).coeffs
        overlap = np.vdot(target, w.coeffs)
        aligned = w.coeffs * (overlap.conjugate() / abs(overlap))
        assert 1 - np.linalg.norm(aligned - target) >= 1 - 1e-8

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError):
            execute(compile_plan(3, 1, 0), ideal(4, 1, 0))

    def test_propagator_reuse_matches_fresh(self):
        plan = compile_plan(3, 1, 0.05)
        graph = perturbed_n3(1.0, 0.02, 0.06, 0.05)
        prop = HamiltonianPropagator(graph)
        a = execute(plan, graph, propagator=prop)
        b = execute(plan, graph)
        assert np.array_equal(a.amplitudes, b.amplitudes)


class TestDegeneracyGuard:
    def test_uniform_state_is_stationary(self):
        n, g = 4, 0.7
        graph = ideal(n, g, g)
        prop = HamiltonianPropagator(graph)
        psi = apply_collective_rotation(all_zeros(n), "y", np.pi / 2)
        for t in (0.3, 1.7, 12.9):
            evolved = prop.propagate(psi.amplitudes, t)
            assert abs(abs(np.vdot(psi.amplitudes, evolved)) - 1) <= 1e-12


def _random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return psi / np.linalg.norm(psi)


class TestChebyshevPropagation:
    @settings(max_examples=6, deadline=None)
    @given(
        n=st.integers(7, 9),
        gz=st.floats(-1.0, 1.0),
        t=st.floats(-20.0, 20.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_eigendecomposition(self, n, gz, t, seed):
        rng = np.random.default_rng(seed)
        pairs = [(l, k) for l in range(1, n + 1) for k in range(l + 1, n + 1)]
        graph = perturbed_general(n, 1.0, gz, {p: rng.uniform(0.5, 1.5) for p in pairs})
        psi = _random_state(rng, n)
        prop = HamiltonianPropagator(graph)
        got = prop.propagate(psi, t)
        assert not prop.factorized
        want = evolve(StateVector(n, psi), to_dense(graph), t).amplitudes
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_reuse_switches_to_factorized(self):
        n = 8
        graph = ideal(n, 1.0, 0.05)
        psi = _random_state(np.random.default_rng(8), n)
        t = entangling_time(1.0, 0.05)
        prop = HamiltonianPropagator(graph)
        first = prop.propagate(psi, t)
        assert not prop.factorized
        for _ in range(2):
            again = prop.propagate(psi, t)
            assert prop.factorized
            assert np.max(np.abs(again - first)) <= 1e-12

    def test_small_graphs_factorize_eagerly(self):
        assert HamiltonianPropagator(ideal(6, 1.0, 0.05)).factorized
        assert not HamiltonianPropagator(ideal(7, 1.0, 0.05)).factorized

    @pytest.mark.parametrize("n", [8, 12])
    def test_uniform_state_is_stationary(self, n):
        g = 0.7
        graph = ideal(n, g, g)
        psi = apply_collective_rotation(all_zeros(n), "y", np.pi / 2).amplitudes
        for t in (0.1, 1.0, 7.3, 100.0):
            # a fresh propagator, so every time runs the Chebyshev path
            evolved = HamiltonianPropagator(graph).propagate(psi, t)
            assert abs(abs(np.vdot(psi, evolved)) - 1) <= 1e-12

    def test_near_degenerate_refused_above_factorizable_size(self):
        t = entangling_time(1.0, 0.9999999)
        prop8 = HamiltonianPropagator(ideal(8, 1.0, 0.9999999))
        prop8.propagate(_random_state(np.random.default_rng(0), 8), t)
        assert prop8.factorized
        prop12 = HamiltonianPropagator(ideal(12, 1.0, 0.9999999))
        with pytest.raises(PropagationError):
            prop12.propagate(_random_state(np.random.default_rng(0), 12), t)

    def test_norm_drift_is_a_numerical_error(self, monkeypatch):
        # a truncated expansion no longer preserves the norm
        monkeypatch.setattr(protocol, "CHEBYSHEV_TAIL", 1e-3)
        prop = HamiltonianPropagator(ideal(7, 1.0, 0.05))
        with pytest.raises(PropagationError):
            prop.propagate(_random_state(np.random.default_rng(1), 7), 1.0)
