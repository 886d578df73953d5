"""W-basis engine tests: ladder algebra, eigenvalues, rotations, embeddings."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from ghznet import chebyshev
from ghznet.chebyshev import PropagationError
from ghznet.couplings import ideal
from ghznet.dense import StateVector, apply_collective_rotation, all_zeros
from ghznet.symmetric import (
    WBasisState,
    analytic_eigenvalues,
    binomial_row,
    collective_rotation,
    embed,
    entangle_phases,
    ghz_w_target,
    popcounts,
    raising_coefficients,
    uniform_superposition,
)
from reference import (
    collective_ladder_dense,
    ladder_apply,
    not_all_dense,
    project,
    to_dense,
    w_state_dense,
)


def w_unit(n, j):
    c = np.zeros(n + 1, dtype=complex)
    c[j] = 1.0
    return WBasisState(n, c)


def reference_rotation(state, axis, angle):
    """exp(-i (angle/2) Sigma_axis) from the full eigendecomposition of the
    tridiagonal x generator (O(N^2) memory): the oracle for the
    matrix-free rotations."""
    n = state.n_qubits
    c = state.coeffs
    j = np.arange(n + 1)
    if axis == "z":
        return np.exp(-1j * (angle / 2) * (n - 2 * j)) * c
    w, v = eigh_tridiagonal(np.zeros(n + 1), raising_coefficients(n))
    # y generator = D^dag X D with D = diag(i^-j)
    d = np.power(1j, -j) if axis == "y" else np.ones(n + 1)
    return d.conjugate() * (v @ (np.exp(-1j * (angle / 2) * w) * (v.T @ (d * c))))


def random_w_state(rng, n):
    c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    return WBasisState(n, c / np.linalg.norm(c))


class TestWStates:
    def test_single_excitation_n3(self):
        psi = w_state_dense(3, 1)
        expect = np.zeros(8)
        expect[[1, 2, 4]] = 1 / np.sqrt(3)  # |001>, |010>, |100>
        assert np.allclose(psi.amplitudes, expect)

    def test_zero_excitations_is_ground(self):
        assert np.allclose(w_state_dense(5, 0).amplitudes, all_zeros(5).amplitudes)

    def test_counts_and_amplitude(self):
        psi = w_state_dense(4, 2)
        nz = np.flatnonzero(psi.amplitudes)
        assert len(nz) == 6
        assert np.allclose(psi.amplitudes[nz], 1 / np.sqrt(6))

    def test_orthonormality(self):
        for n in (2, 5, 8):
            vecs = np.array([w_state_dense(n, j).amplitudes for j in range(n + 1)])
            gram = vecs.conj() @ vecs.T
            assert np.max(np.abs(gram - np.eye(n + 1))) <= 1e-12

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            w_state_dense(3, 4)

    @pytest.mark.parametrize("n", range(2, 15))
    def test_embedded_unit_vector_is_bit_identical(self, n):
        # cmd_eigs and the demos build the dense |W_j> this way
        for j in range(n + 1):
            got = embed(WBasisState(n, np.eye(n + 1)[j])).amplitudes
            assert got.tobytes() == w_state_dense(n, j).amplitudes.tobytes()


class TestBinomials:
    def test_small_rows(self):
        assert np.allclose(binomial_row(4), [1, 4, 6, 4, 1])

    def test_large_row_relative_accuracy(self):
        row = binomial_row(300)
        # middle coefficient via log-gamma, independent of the cumulative ratios
        from scipy.special import gammaln

        expect = np.exp(gammaln(301) - 2 * gammaln(151))
        assert abs(row[150] / expect - 1) <= 1e-12


@pytest.mark.parametrize("n", range(1, 15))
def test_popcounts_count_the_set_bits(n):
    pop = popcounts(n)
    assert pop.dtype == np.int64
    assert pop.tolist() == [bin(i).count("1") for i in range(2**n)]


class TestEigenvalues:
    def test_ground_energy(self):
        for n, gz in [(3, 0.4), (7, -0.2), (10, 0.0)]:
            lam = analytic_eigenvalues(n, 1.0, gz)
            assert lam[0] == pytest.approx(n * (n - 1) / 2 * gz / 2)

    def test_n3_xx_only(self):
        assert np.allclose(analytic_eigenvalues(3, 1, 0), [0, 2, 2, 0])

    def test_n4_mixed(self):
        lam = analytic_eigenvalues(4, 1, 0.1)
        assert lam[1] == pytest.approx(3 * 0.9 + 6 * 0.05)

    def test_mirror_symmetry_exact(self):
        lam = analytic_eigenvalues(9, 0.37, -0.83)
        assert np.array_equal(lam, lam[::-1])

    def test_w_states_are_eigenvectors(self):
        rng = np.random.default_rng(11)
        for n in (2, 4, 6):
            g, gz = rng.normal(), rng.normal()
            h = to_dense(ideal(n, g, gz)).matrix
            lam = analytic_eigenvalues(n, g, gz)
            for j in range(n + 1):
                w = w_state_dense(n, j).amplitudes
                assert np.linalg.norm(h @ w - lam[j] * w) <= 1e-10


class TestLadder:
    def test_raising_annihilates_top(self):
        out = ladder_apply(w_unit(4, 4), "plus")
        assert np.allclose(out.coeffs, 0)

    def test_lowering_annihilates_bottom(self):
        out = ladder_apply(w_unit(4, 0), "minus")
        assert np.allclose(out.coeffs, 0)

    def test_z_eigenvalues(self):
        for n, j in [(3, 1), (6, 4)]:
            out = ladder_apply(w_unit(n, j), "z")
            assert out.coeffs[j] == pytest.approx(2 * j - n)

    def test_lowering_w1_n3(self):
        out = ladder_apply(w_unit(3, 1), "minus")
        assert out.coeffs[0] == pytest.approx(np.sqrt(3))

    def test_matches_dense_collective_operators(self):
        n = 4
        for which in ("plus", "minus", "z"):
            dense_op = collective_ladder_dense(n, which)
            for j in range(n + 1):
                lhs = dense_op @ w_state_dense(n, j).amplitudes
                rhs = embed(ladder_apply(w_unit(n, j), which)).amplitudes
                assert np.linalg.norm(lhs - rhs) <= 1e-12

    def test_raising_coefficients_formula(self):
        n = 6
        j = np.arange(n)
        assert np.allclose(raising_coefficients(n), np.sqrt((n - j) * (j + 1)))


class TestEntanglePhases:
    def test_zero_time_identity(self):
        lam = analytic_eigenvalues(4, 1, 0.1)
        w = WBasisState(4, np.full(5, 1 / np.sqrt(5), dtype=complex))
        out = entangle_phases(w, lam, 0.0)
        assert np.allclose(out.coeffs, w.coeffs)

    def test_ghz_time_phase_pattern(self):
        # at t = pi/(2(g - gz)) with g > gz each coefficient picks up
        # e^{-i lambda_0 t} (-i)^{j(N-j)}
        n, g, gz = 5, 1.0, 0.2
        t = np.pi / (2 * (g - gz))
        lam = analytic_eigenvalues(n, g, gz)
        c = np.sqrt(binomial_row(n)).astype(complex) / 2 ** (n / 2)
        out = entangle_phases(WBasisState(n, c), lam, t)
        j = np.arange(n + 1)
        expect = np.exp(-1j * lam[0] * t) * (-1j) ** (j * (n - j)) * c
        assert np.max(np.abs(out.coeffs - expect)) <= 1e-12

    def test_isotropic_point_is_stationary(self):
        n, g = 4, 0.7
        lam = analytic_eigenvalues(n, g, g)
        c = np.sqrt(binomial_row(n)).astype(complex) / 2 ** (n / 2)
        out = entangle_phases(WBasisState(n, c), lam, 2.31)
        overlap = np.vdot(c, out.coeffs)
        assert abs(abs(overlap) - 1) <= 1e-12

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_refused(self, t):
        w = WBasisState(4, np.full(5, 1 / np.sqrt(5), dtype=complex))
        with pytest.raises(ValueError, match="t must be a finite real number"):
            entangle_phases(w, analytic_eigenvalues(4, 1, 0.1), t)

    def test_eigenvalue_count_mismatch_rejected(self):
        w = WBasisState(4, np.full(5, 1 / np.sqrt(5), dtype=complex))
        with pytest.raises(ValueError):
            entangle_phases(w, analytic_eigenvalues(5, 1, 0.1), 1.0)


class TestCollectiveRotation:
    def test_y_half_pi_prepares_uniform(self):
        n = 5
        out = collective_rotation(w_unit(n, 0), "y", np.pi / 2)
        expect = np.sqrt(binomial_row(n)) / 2 ** (n / 2)
        assert np.max(np.abs(out.coeffs - expect)) <= 1e-12

    def test_zero_angle_identity(self):
        w = WBasisState(3, np.array([0.5, 0.5, 0.5, 0.5], dtype=complex))
        for axis in "xyz":
            assert np.allclose(collective_rotation(w, axis, 0.0).coeffs, w.coeffs)

    def test_agrees_with_dense_engine(self):
        rng = np.random.default_rng(23)
        for n in (2, 3, 6):
            c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
            c /= np.linalg.norm(c)
            w = WBasisState(n, c)
            for axis in "xyz":
                angle = rng.uniform(0, 2 * np.pi)
                sym = embed(collective_rotation(w, axis, angle))
                dense = apply_collective_rotation(embed(w), axis, angle)
                assert np.linalg.norm(sym.amplitudes - dense.amplitudes) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 64),
        axis=st.sampled_from("xyz"),
        angle=st.floats(-4 * np.pi, 4 * np.pi),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_eigendecomposition(self, n, axis, angle, seed):
        w = random_w_state(np.random.default_rng(seed), n)
        got = collective_rotation(w, axis, angle).coeffs
        assert np.max(np.abs(got - reference_rotation(w, axis, angle))) <= 1e-12

    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_matches_eigendecomposition_n3001(self, axis):
        w = random_w_state(np.random.default_rng(3001), 3001)
        got = collective_rotation(w, axis, np.pi / 2).coeffs
        assert np.max(np.abs(got - reference_rotation(w, axis, np.pi / 2))) <= 1e-12

    def test_norm_drift_is_a_numerical_error(self, monkeypatch):
        # the W-basis rotation runs the same checked expansion as the dense
        # engine; truncated, it no longer preserves the norm
        monkeypatch.setattr(chebyshev, "CHEBYSHEV_TAIL", 1e-3)
        w = random_w_state(np.random.default_rng(2), 50)
        with pytest.raises(PropagationError):
            collective_rotation(w, "x", np.pi / 2)

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    @pytest.mark.parametrize("angle", [np.inf, -np.inf, np.nan])
    def test_non_finite_angle_refused(self, axis, angle):
        with pytest.raises(ValueError, match="angle must be a finite real number"):
            collective_rotation(random_w_state(np.random.default_rng(5), 5), axis, angle)

    @pytest.mark.parametrize("axis", ["x", "y"])
    @pytest.mark.parametrize(
        "n, angle",
        # 1e300 would need an expansion of ~N * 1e300 / 2 terms unreduced
        [(5, 1e300), (5, -1e300), (11, np.pi / 2 + 4 * np.pi * 1000), (3, 0.3 - 4 * np.pi * 7)],
    )
    def test_angle_reduced_modulo_4pi(self, n, axis, angle):
        # Sigma_axis has integer eigenvalues, so the rotation has period 4 pi
        w = random_w_state(np.random.default_rng(n), n)
        reduced = math.remainder(angle, 4 * math.pi)
        assert abs(reduced) <= 2 * math.pi
        got = collective_rotation(w, axis, angle).coeffs
        assert got.tobytes() == collective_rotation(w, axis, reduced).coeffs.tobytes()
        assert np.max(np.abs(got - reference_rotation(w, axis, reduced))) <= 1e-12

    def test_large_n_unitary(self):
        n = 2000
        c = np.zeros(n + 1, dtype=complex)
        c[0] = 1.0
        out = collective_rotation(WBasisState(n, c), "y", np.pi / 2)
        assert abs(out.norm() - 1) <= 1e-9


class TestUniformSuperposition:
    @pytest.mark.parametrize("n", [1, 2, 5, 64, 1024, 1025, 3001])
    def test_equals_y_half_pi_of_ground(self, n):
        want = reference_rotation(w_unit(n, 0), "y", np.pi / 2)
        assert np.max(np.abs(uniform_superposition(n).coeffs - want)) <= 1e-12

    def test_finite_and_normalized_at_1e5(self):
        # binomial_row overflows from N = 1025 on; log-gamma does not
        c = uniform_superposition(100_000).coeffs
        assert np.all(np.isfinite(c))
        assert abs(np.linalg.norm(c) - 1) <= 1e-12


class TestEmbedProject:
    def test_round_trip(self):
        rng = np.random.default_rng(31)
        n = 5
        c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        c /= np.linalg.norm(c)
        w = WBasisState(n, c)
        back, residual = project(embed(w))
        assert np.max(np.abs(back.coeffs - c)) <= 1e-12
        assert residual <= 1e-12

    def test_ghz_projection(self):
        n = 6
        amps = np.zeros(1 << n, dtype=complex)
        amps[0] = amps[-1] = 1 / np.sqrt(2)
        w, residual = project(StateVector(n, amps))
        assert np.max(np.abs(w.coeffs - ghz_w_target(n).coeffs)) <= 1e-12
        assert residual <= 1e-12

    def test_nonsymmetric_residual(self):
        amps = np.zeros(8, dtype=complex)
        amps[2] = 1.0  # |010>
        w, residual = project(StateVector(3, amps))
        assert w.coeffs[1] == pytest.approx(1 / np.sqrt(3))
        assert residual == pytest.approx(np.sqrt(2 / 3))


class TestCommutants:
    def test_hamiltonian_commutes_with_sigma_z_and_flip(self):
        for n in (2, 4, 6):
            h = to_dense(ideal(n, 0.8, -0.3)).matrix
            sz = collective_ladder_dense(n, "z")
            flip = not_all_dense(n)
            assert np.max(np.abs(h @ sz - sz @ h)) <= 1e-12
            assert np.max(np.abs(h @ flip - flip @ h)) <= 1e-12
