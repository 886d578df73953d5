"""Protocol compiler/executor tests: timing, families, phases, engines."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.sparse import identity

from ghznet import chebyshev, protocol
from ghznet.couplings import ideal, perturbed_general, perturbed_n3
from ghznet.dense import (
    StateVector,
    all_zeros,
    apply_collective_rotation,
    fidelity_frobenius,
)
from ghznet.protocol import (
    PREPARATION,
    DegenerateCouplingError,
    EngineCapabilityError,
    HamiltonianPropagator,
    PropagationError,
    ProtocolPlan,
    Pulse,
    _prepared,
    _pulled_back_ghz,
    compile_plan,
    entangling_time,
    execute,
    execute_symmetric,
    ghz_target,
    theta,
    verify,
)
from ghznet.symmetric import _x_generator, ghz_w_target
from reference import evolve, project, to_dense, to_sparse_coo


class TestTiming:
    def test_direct_formula(self):
        assert entangling_time(1, 0) == pytest.approx(np.pi / 2)
        assert entangling_time(1, 0.05) == pytest.approx(np.pi / 1.9)

    def test_sign_insensitive(self):
        assert entangling_time(0.2, 1.0) == pytest.approx(entangling_time(1.0, 0.2))

    def test_degenerate_rejected(self):
        # |g - gz| = 1e-310 is not 0, but t overflows to inf
        for g, gz in [(0.7, 0.7), (1e-310, 0.0)]:
            with pytest.raises(DegenerateCouplingError):
                entangling_time(g, gz)


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
        assert PREPARATION == Pulse("y", np.pi / 2)
        assert plan.finals == (Pulse("x", np.pi / 2),)
        assert plan.per_qubit().finals == tuple(Pulse("x", np.pi / 2, k) for k in (1, 2, 3))
        assert plan.expected_phase.phase == pytest.approx(np.exp(1j * np.pi / 4))

    def test_even_family_shape(self):
        plan = compile_plan(4, 1, 0)
        assert plan.parity == "even"
        assert plan.finals == (Pulse("y", np.pi / 2), Pulse("z", theta(4), 1))
        finals = plan.per_qubit().finals
        assert finals[:4] == tuple(Pulse("y", np.pi / 2, k) for k in (1, 2, 3, 4))
        assert finals[4] == Pulse("z", theta(4), 1)
        assert plan.expected_phase.phase == pytest.approx(np.exp(1j * np.pi))

    def test_phase_includes_ground_energy(self):
        plan = compile_plan(5, 1, 0.2)
        lam0_t = 10 * 0.2 / 2 * plan.entangle_duration  # C(5, 2) gz / 2
        expect = np.exp(-1j * lam0_t) * np.exp(-1j * np.pi / 4)  # (-1)^((5-3)/2) = -1
        assert plan.expected_phase.phase == pytest.approx(expect)

    def test_strong_zz_even_correction(self):
        plan = compile_plan(4, 0.5, 1.0)
        assert plan.finals[-2:] == (Pulse("z", np.pi / 2, 2), Pulse("z", np.pi / 2, 3))
        plan2 = compile_plan(2, 0.5, 1.0)
        assert plan2.finals[-2:] == (Pulse("z", np.pi / 2, 1), Pulse("z", np.pi / 2, 2))

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateCouplingError):
            compile_plan(4, 1.0, 1.0)

    def test_overflowing_ground_energy_rejected(self):
        # lambda_0 = C(15, 2) gz / 2 overflows, so the expected phase would be NaN
        with pytest.raises(ValueError, match=r"lambda_0 t overflows at N = 15, g = 1e\+308"):
            compile_plan(15, 1e308, 5e307)

    def test_count_beyond_the_float_range_rejected(self):
        # C(N,2) of N = 10^400 has no float value; the error names the input
        with pytest.raises(ValueError, match=r"lambda_0 t overflows at N = 1000"):
            compile_plan(10**400, 1.0, 0.05)

    def test_per_qubit_keeps_single_qubit_pulses_in_order(self):
        plan = compile_plan(2, 0.5, 1.0)
        assert plan.per_qubit().finals == (
            Pulse("y", np.pi / 2, 1),
            Pulse("y", np.pi / 2, 2),
            Pulse("z", theta(2), 1),
            Pulse("z", np.pi / 2, 1),
            Pulse("z", np.pi / 2, 2),
        )
        assert plan.per_qubit().per_qubit() == plan.per_qubit()

    # qubit 0, qubit n + 1, an unknown axis (collective and on one qubit)
    @pytest.mark.parametrize(
        "pulse",
        [Pulse("x", 0.3, 0), Pulse("x", 0.3, 4), Pulse("w", 0.3), Pulse("w", 0.3, 1)],
    )
    def test_plan_rejects_bad_final_pulse(self, pulse):
        plan = compile_plan(3, 1.0, 0.05)
        with pytest.raises(ValueError):
            replace(plan, finals=plan.finals + (pulse,))

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

    @pytest.mark.parametrize("n", [3, 4])
    def test_collective_and_per_qubit_plans_agree(self, n):
        # one collective pulse and its per-qubit split are the same unitary
        plan = compile_plan(n, 1, 0.05)
        graph = ideal(n, 1, 0.05)
        a = execute(plan, graph)
        b = execute(plan.per_qubit(), graph)
        c = execute(plan.per_qubit(), graph, engine="symmetric")
        assert np.array_equal(a.amplitudes, b.amplitudes)
        assert np.linalg.norm(a.amplitudes - c.amplitudes) <= 1e-10

    def test_symmetric_engine_runs_collective_pulses_after_entangling(self):
        # two collective finals then a single-qubit one: the W-basis part
        # must take both collective pulses, the dense tail the last one
        n = 4
        plan = ProtocolPlan(
            n, 0.7, (Pulse("x", 0.3), Pulse("z", 1.1), Pulse("y", 0.4, 2)),
            compile_plan(n, 1, 0.05).expected_phase,
        )
        graph = ideal(n, 1, 0.05)
        a = execute(plan, graph, engine="dense")
        b = execute(plan, graph, engine="symmetric")
        assert np.linalg.norm(a.amplitudes - b.amplitudes) <= 1e-10
        with pytest.raises(EngineCapabilityError):
            execute_symmetric(plan, 1, 0.05)

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

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(2, 10),
        g=st.floats(-1.0, 1.0),
        gz=st.floats(-1.0, 1.0),
    )
    def test_engines_verify_alike(self, n, g, gz):
        # even N finishes with z pulses, which the W-basis run pulls back
        # onto the target
        assume(abs(g - gz) >= 0.05)
        fid_d, phase_d = verify(n, g, gz, engine="dense")
        fid_s, phase_s = verify(n, g, gz, engine="symmetric")
        assert abs(fid_d - fid_s) <= 1e-12
        assert abs(phase_d.phase - phase_s.phase) <= 1e-10

    def test_symmetric_verify_refuses_non_z_single_qubit_pulse(self):
        n = 4
        plan = ProtocolPlan(
            n, 0.7, (Pulse("x", 0.3), Pulse("z", 0.2, 1), Pulse("y", 0.4, 2)),
            compile_plan(n, 1, 0.05).expected_phase,
        )
        # what a W-basis run leaves after the leading collective pulse
        with pytest.raises(EngineCapabilityError):
            _pulled_back_ghz(n, plan.finals[1:])

    def test_dense_verify_refuses_beyond_the_cap_before_building_the_graph(self, monkeypatch):
        # ideal(2000, ...) would list ~2e6 pairs and build a CouplingGraph of
        # them just to be refused by execute; fail here instead of allocating
        def small_ideal(n, g, gz):
            assert n <= 14, f"built a {n}-qubit graph the dense engine refuses"
            return ideal(n, g, gz)

        monkeypatch.setattr(protocol, "ideal", small_ideal)
        with pytest.raises(EngineCapabilityError, match="limited to 14 qubits, got 2000"):
            verify(2000, 1.0, 0.05)
        assert verify(4, 1.0, 0.05)[0] == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [3, 15])
    def test_unknown_engine_named_before_the_dense_cap(self, n):
        plan = compile_plan(n, 1.0, 0.05)
        with pytest.raises(ValueError, match="engine must be 'dense' or 'symmetric', got 'bogus'"):
            execute(plan, ideal(n, 1.0, 0.05), engine="bogus")
        with pytest.raises(ValueError, match="engine must be 'dense' or 'symmetric', got 'bogus'"):
            verify(n, 1.0, 0.05, engine="bogus")

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError):
            execute(compile_plan(3, 1, 0), ideal(4, 1, 0))


class TestDegeneracyGuard:
    def test_uniform_state_is_stationary(self):
        n, g = 4, 0.7
        graph = ideal(n, g, g)
        prop = HamiltonianPropagator(graph)
        psi = apply_collective_rotation(all_zeros(n), "y", np.pi / 2)
        for t in (0.3, 1.7, 12.9):
            evolved = prop.propagate(t)
            assert abs(abs(np.vdot(psi.amplitudes, evolved)) - 1) <= 1e-12


def _random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return psi / np.linalg.norm(psi)


def _random_graph(rng: np.random.Generator, n: int, gz: float):
    pairs = [(l, k) for l in range(1, n + 1) for k in range(l + 1, n + 1)]
    return perturbed_general(n, 1.0, gz, {p: rng.uniform(0.5, 1.5) for p in pairs})


def _dense_matvec(prop: HamiltonianPropagator):
    """The per-row product with the propagator's scaled H that its own
    matrix-free apply uses, for starting a Chebyshev expansion from any
    state."""
    h = prop._scaled
    return lambda v: np.array([h @ row for row in v])


def _two_row_propagate(matvec, centre, radius, amplitudes, t):
    """chebyshev_propagate as it was when every start carried a real and
    an imaginary row: the reference a one-row result must equal bit for
    bit (norm check left out)."""
    coef = chebyshev._chebyshev_coefficients(radius * t)
    coef[1:] *= 2.0
    coef[2::4] *= -1.0
    coef[3::4] *= -1.0
    prev = np.array([amplitudes.real, amplitudes.imag])
    sums = [coef[0] * prev, np.zeros_like(prev)]
    cur = matvec(prev)
    for k in range(1, len(coef)):
        if k > 1:
            nxt = matvec(cur)
            nxt *= 2.0
            nxt -= prev
            prev, cur = cur, nxt
        sums[k % 2] += coef[k] * cur
    even, odd = sums
    out = (even[0] + odd[1]) + 1j * (even[1] - odd[0])
    out *= np.exp(-1j * centre * t)
    return out


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
        graph = _random_graph(rng, n, gz)
        prop = HamiltonianPropagator(graph)
        got = prop.propagate(t)
        assert not prop.factorized
        want = evolve(StateVector(n, _prepared(n)), to_dense(graph), t).amplitudes
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_reuse_stays_matrix_free(self):
        n = 8
        graph = ideal(n, 1.0, 0.05)
        t = entangling_time(1.0, 0.05)
        prop = HamiltonianPropagator(graph)
        first = prop.propagate(t)
        for _ in range(2):
            again = prop.propagate(t)
            assert not prop.factorized
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
            evolved = HamiltonianPropagator(graph).propagate(t)
            assert abs(abs(np.vdot(psi, evolved)) - 1) <= 1e-12

    def test_near_degenerate_refused_above_factorizable_size(self):
        t = entangling_time(1.0, 0.9999999)
        prop6 = HamiltonianPropagator(ideal(6, 1.0, 0.9999999))
        assert prop6.factorized
        out = prop6.propagate(t)
        assert np.all(np.isfinite(out))
        for n in (7, 12):
            prop = HamiltonianPropagator(ideal(n, 1.0, 0.9999999))
            with pytest.raises(PropagationError):
                prop.propagate(t)

    def test_norm_drift_is_a_numerical_error(self, monkeypatch):
        # a truncated expansion no longer preserves the norm of a complex
        # start, which runs the two-row recurrence
        monkeypatch.setattr(chebyshev, "CHEBYSHEV_TAIL", 1e-3)
        prop = HamiltonianPropagator(ideal(7, 1.0, 0.05))
        psi = _random_state(np.random.default_rng(1), 7)
        with pytest.raises(PropagationError):
            chebyshev.chebyshev_propagate(
                _dense_matvec(prop), prop._centre, prop._radius, psi, 1.0
            )

    def test_norm_drift_of_a_real_start_is_a_numerical_error(self, monkeypatch):
        # the prepared state is real, so this runs the one-row recurrence
        assert not _prepared(7).imag.any()
        monkeypatch.setattr(chebyshev, "CHEBYSHEV_TAIL", 1e-3)
        prop = HamiltonianPropagator(ideal(7, 1.0, 0.05))
        with pytest.raises(PropagationError):
            prop.propagate(1.0)


class TestPropagateTimes:
    """Both paths take a time, a list or an array of times alike, and
    refuse a time that is not finite."""

    @pytest.mark.parametrize("n", [4, 7])
    def test_list_and_array_times_match_single_times(self, n):
        prop = HamiltonianPropagator(ideal(n, 1.0, 0.05))
        times = [0.3, 1.7]
        alone = [prop.propagate(t) for t in times]
        got = prop.propagate(times)
        assert got.shape == (2, 1 << n)
        for row, want in zip(got, alone):
            assert row.tobytes() == want.tobytes()
        grid = prop.propagate(np.array([[0.3], [1.7]]))
        assert grid.shape == (2, 1, 1 << n)
        assert grid[:, 0].tobytes() == got.tobytes()

    @pytest.mark.parametrize("n", [4, 7])
    def test_no_times_give_an_empty_block(self, n):
        prop = HamiltonianPropagator(ideal(n, 1.0, 0.05))
        assert prop.propagate(np.empty(0)).shape == (0, 1 << n)

    @pytest.mark.parametrize("n", [4, 7])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_refused(self, n, bad):
        prop = HamiltonianPropagator(ideal(n, 1.0, 0.05))
        for t in (bad, [0.3, bad]):
            with pytest.raises(ValueError, match="finite"):
                prop.propagate(t)


class TestScaledHamiltonian:
    """The matrix-free path writes (H - cI)/r into H's own arrays; every
    product is bit for bit the one scipy's sparse arithmetic gives."""

    @pytest.mark.parametrize("n", range(7, 13))
    @pytest.mark.parametrize("kind", ["ideal-gz0", "ideal", "random-gz0"])
    def test_product_equals_sparse_arithmetic(self, n, kind):
        rng = np.random.default_rng(n)
        graph = {
            "ideal-gz0": ideal(n, 1.0, 0.0),
            "ideal": ideal(n, 0.5, 1.0),
            "random-gz0": _random_graph(rng, n, 0.0),
        }[kind]
        prop = HamiltonianPropagator(graph)
        h = to_sparse_coo(graph)
        shifted = h - prop._centre * identity(h.shape[0], format="csr")
        x = rng.normal(size=1 << n)
        got, want = prop._scaled @ x, (shifted / prop._radius) @ x
        assert got.tobytes() == want.tobytes()


class TestRealStart:
    """A real start runs one real row per term; its result is bit for bit
    the one the real-and-imaginary recurrence gives."""

    @settings(max_examples=6, deadline=None)
    @given(
        n=st.integers(7, 9),
        gz=st.floats(-1.0, 1.0),
        t=st.floats(-20.0, 20.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dense_equals_two_row_loop(self, n, gz, t, seed):
        rng = np.random.default_rng(seed)
        prop = HamiltonianPropagator(_random_graph(rng, n, gz))
        h = prop._scaled

        def matvec(v):
            return np.array([h @ v[0], h @ v[1]])

        want = _two_row_propagate(matvec, prop._centre, prop._radius, _prepared(n), t)
        assert np.array_equal(prop.propagate(t), want)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 64),
        t=st.floats(-2 * np.pi, 2 * np.pi),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_w_basis_equals_two_row_loop(self, n, t, seed):
        c = np.random.default_rng(seed).normal(size=n + 1) + 0j
        generator = _x_generator(n)
        rows = set()

        def matvec(v):
            rows.add(len(v))
            return generator(v)

        got = chebyshev.chebyshev_propagate(matvec, 0.0, n, c, t)
        assert rows == {1}
        assert np.array_equal(got, _two_row_propagate(generator, 0.0, n, c, t))

    def test_complex_start_keeps_two_rows(self):
        n = 5
        generator = _x_generator(n)
        rows = set()

        def matvec(v):
            rows.add(len(v))
            return generator(v)

        c = np.arange(n + 1) * (1 + 1e-3j)
        chebyshev.chebyshev_propagate(matvec, 0.0, n, c, 0.7)
        assert rows == {2}

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(7, 9),
        gz=st.floats(-1.0, 1.0),
        t=st.floats(-20.0, 20.0),
        real=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_norm_is_preserved(self, n, gz, t, real, seed):
        rng = np.random.default_rng(seed)
        prop = HamiltonianPropagator(_random_graph(rng, n, gz))
        psi = rng.normal(size=1 << n) + (0j if real else 1j * rng.normal(size=1 << n))
        norm = np.linalg.norm(psi)
        out = chebyshev.chebyshev_propagate(
            _dense_matvec(prop), prop._centre, prop._radius, psi, t
        )
        assert abs(np.linalg.norm(out) - norm) <= 1e-12 * norm
