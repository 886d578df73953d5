"""Dense-engine unit tests: basis indexing, Pauli algebra, evolution, metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghznet.dense import (
    GlobalPhase,
    NoGlobalPhaseError,
    StateVector,
    all_zeros,
    apply_collective_rotation,
    apply_rotation,
    basis_state,
    fidelity_frobenius,
    fidelity_frobenius_raw,
    global_phase_between_raw,
    rotate_amplitudes,
    single_qubit_rotation,
)
from reference import DenseOperator, evolve, pauli_on, rotation_matrix, rotation_on

# angles where signed zeros and exact cos/sin values decide the bytes
SPECIAL_ANGLES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-300, -1e-300] + [
    k * np.pi / 2 for k in range(-8, 9)
]


def random_state(n, rng):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return StateVector(n, v / np.linalg.norm(v))


class TestBasisState:
    def test_single_qubit_ground(self):
        psi = basis_state(1, "0")
        assert np.allclose(psi.amplitudes, [1, 0])

    def test_all_zeros_index(self):
        psi = basis_state(3, "000")
        assert psi.amplitudes[0] == 1 and np.count_nonzero(psi.amplitudes) == 1

    def test_qubit_one_is_most_significant(self):
        psi = basis_state(3, "101")
        assert psi.amplitudes[5] == 1 and np.count_nonzero(psi.amplitudes) == 1

    def test_bad_bitstring_rejected(self):
        with pytest.raises(ValueError):
            basis_state(3, "01")
        with pytest.raises(ValueError):
            basis_state(2, "0x")

    def test_wrong_length_amplitudes_rejected(self):
        with pytest.raises(ValueError):
            StateVector(2, np.zeros(3, dtype=complex))


class TestPauliOn:
    def test_z_on_ground_gives_plus(self):
        z = pauli_on(1, 1, "z")
        out = z.apply(basis_state(1, "0"))
        assert np.allclose(out.amplitudes, [1, 0])

    def test_x_flips_first_qubit(self):
        x = pauli_on(2, 1, "x")
        out = x.apply(basis_state(2, "00"))
        assert np.allclose(out.amplitudes, basis_state(2, "10").amplitudes)

    def test_involution(self):
        z = pauli_on(3, 2, "z")
        assert np.allclose((z @ z).matrix, np.eye(8))

    def test_cyclic_algebra_same_qubit(self):
        for n, k in [(1, 1), (3, 2)]:
            sx = pauli_on(n, k, "x").matrix
            sy = pauli_on(n, k, "y").matrix
            sz = pauli_on(n, k, "z").matrix
            assert np.max(np.abs(sx @ sy - 1j * sz)) <= 1e-14
            assert np.max(np.abs(sy @ sz - 1j * sx)) <= 1e-14
            assert np.max(np.abs(sz @ sx - 1j * sy)) <= 1e-14

    def test_distinct_qubits_commute(self):
        a = pauli_on(3, 1, "x").matrix
        b = pauli_on(3, 3, "y").matrix
        assert np.max(np.abs(a @ b - b @ a)) <= 1e-14

    def test_out_of_range_qubit(self):
        with pytest.raises(ValueError):
            pauli_on(2, 3, "x")


class TestRotations:
    def test_y_half_pi_makes_plus_state(self):
        u = single_qubit_rotation("y", np.pi / 2)
        out = u @ np.array([1, 0], dtype=complex)
        assert np.allclose(out, [1 / np.sqrt(2), 1 / np.sqrt(2)])

    def test_apply_matches_dense_operator(self):
        rng = np.random.default_rng(7)
        psi = random_state(4, rng)
        for k in (1, 3, 4):
            via_apply = apply_rotation(psi, k, "x", 0.7)
            via_matrix = rotation_on(4, k, "x", 0.7).apply(psi)
            assert np.allclose(via_apply.amplitudes, via_matrix.amplitudes, atol=1e-14)

    def test_collective_rotation_norm_preserved(self):
        rng = np.random.default_rng(3)
        psi = random_state(5, rng)
        out = apply_collective_rotation(psi, "y", 1.2)
        assert abs(out.norm() - 1) <= 1e-12

    def test_single_qubit_unitary_application(self):
        rng = np.random.default_rng(5)
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        psi = random_state(3, rng)
        out = rotate_amplitudes(psi.amplitudes, 3, 2, u)
        assert abs(np.linalg.norm(out) - 1) <= 1e-12


def _tensordot_kernel(state, k, u):
    """The qubit-rotation kernel as first written, kept as a bit reference."""
    n = state.n_qubits
    psi = state.amplitudes.reshape([2] * n)
    psi = np.tensordot(u, psi, axes=([1], [k - 1]))
    psi = np.moveaxis(psi, 0, k - 1)
    return np.ascontiguousarray(psi).reshape(-1)


class TestRotationKernel:
    @settings(max_examples=40, deadline=None)
    @given(
        axis=st.sampled_from("xyz"),
        angle=st.floats(-4 * np.pi, 4 * np.pi),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bit_identical_to_tensordot(self, axis, angle, seed):
        rng = np.random.default_rng(seed)
        u = single_qubit_rotation(axis, angle)
        for n in range(1, 9):
            psi = random_state(n, rng)
            for k in range(1, n + 1):
                got = rotate_amplitudes(psi.amplitudes, n, k, u)
                assert np.array_equal(got, _tensordot_kernel(psi, k, u))

    def test_qubit_out_of_range(self):
        psi = random_state(3, np.random.default_rng(0))
        for k in (0, 4):
            with pytest.raises(ValueError, match="out of range"):
                apply_rotation(psi, k, "x", 0.3)


class TestRotationMatrix:
    """The scalar-built 2x2 matrix has the bytes of the array expression."""

    @settings(max_examples=300, deadline=None)
    @given(
        angle=st.one_of(
            st.sampled_from(SPECIAL_ANGLES),
            st.floats(-1e6, 1e6),
            st.floats(-1e-300, 1e-300),
            st.integers(-4000, 4000).map(lambda k: k * np.pi / 2),
        ),
    )
    def test_bytes_equal_array_expression(self, angle):
        for axis in "xyz":
            for a in (angle, np.float64(angle)):
                got = single_qubit_rotation(axis, a)
                want = rotation_matrix(axis, a)
                assert got.dtype == want.dtype and got.shape == want.shape == (2, 2)
                assert got.tobytes() == want.tobytes(), (axis, a)

    def test_bad_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            single_qubit_rotation("w", 0.3)


class TestFidelityNorm:
    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_equals_numpy_norm(self, n, seed):
        rng = np.random.default_rng(seed)
        a, target = random_state(n, rng).amplitudes, random_state(n, rng).amplitudes
        want = 1.0 - float(np.linalg.norm(a - target))
        assert fidelity_frobenius_raw(a, target, align_phase=False) == want
        assert fidelity_frobenius_raw(target, target, align_phase=False) == 1.0


class TestEvolve:
    def test_identity_at_zero_time(self):
        rng = np.random.default_rng(0)
        psi = random_state(2, rng)
        h = pauli_on(2, 1, "z")
        out = evolve(psi, h, 0.0)
        assert np.allclose(out.amplitudes, psi.amplitudes)

    def test_norm_preserved(self):
        rng = np.random.default_rng(1)
        psi = random_state(3, rng)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = DenseOperator(8, m + m.conj().T, hermitian=True)
        out = evolve(psi, h, 1.7)
        assert abs(out.norm() - 1) <= 1e-12

    def test_inner_products_preserved(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = DenseOperator(8, m + m.conj().T, hermitian=True)
        u, v = random_state(3, rng), random_state(3, rng)
        before = np.vdot(u.amplitudes, v.amplitudes)
        after = np.vdot(evolve(u, h, 0.9).amplitudes, evolve(v, h, 0.9).amplitudes)
        assert abs(before - after) <= 1e-10

    def test_non_hermitian_rejected(self):
        h = DenseOperator(2, np.array([[0, 1], [0, 0]], dtype=complex))
        with pytest.raises(ValueError):
            evolve(basis_state(1, "0"), h, 1.0)

    def test_hermitian_flag_validated(self):
        with pytest.raises(ValueError):
            DenseOperator(2, np.array([[0, 1], [0, 0]], dtype=complex), hermitian=True)


class TestFidelity:
    def test_identical_states(self):
        psi = basis_state(2, "01")
        assert fidelity_frobenius(psi, psi, False) == pytest.approx(1.0)
        assert fidelity_frobenius(psi, psi, True) == pytest.approx(1.0)

    def test_alignment_never_hurts(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a, b = random_state(3, rng), random_state(3, rng)
            assert fidelity_frobenius(a, b, True) >= fidelity_frobenius(a, b, False) - 1e-14

    def test_alignment_removes_global_phase(self):
        psi = basis_state(2, "11")
        rotated = StateVector(2, np.exp(0.3j) * psi.amplitudes)
        assert fidelity_frobenius(rotated, psi, True) == pytest.approx(1.0)
        assert fidelity_frobenius(rotated, psi, False) < 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity_frobenius(basis_state(1, "0"), basis_state(2, "00"), False)


class TestGlobalPhase:
    def test_identical_states_phase_one(self):
        psi = all_zeros(2).amplitudes
        assert global_phase_between_raw(psi, psi).phase == pytest.approx(1.0)

    def test_imaginary_unit_recovered(self):
        psi = all_zeros(2).amplitudes
        assert global_phase_between_raw(1j * psi, psi).phase == pytest.approx(1j)

    def test_non_equivalent_states_raise(self):
        zero, one = basis_state(1, "0").amplitudes, basis_state(1, "1").amplitudes
        # a NaN state too: a numerical failure, not a NaN phase
        for a in (zero, np.full(2, np.nan + 0j)):
            with pytest.raises(NoGlobalPhaseError):
                global_phase_between_raw(a, one)

    def test_unit_modulus_enforced(self):
        for phase in (0.5 + 0.0j, complex(np.nan, 0.0), complex(np.nan, np.nan)):
            with pytest.raises(ValueError, match="expected 1"):
                GlobalPhase(phase)
