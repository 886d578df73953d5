"""Coupling-graph tests: constructors, dense/sparse builders, star-delta."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghznet.couplings import (
    MAX_DENSE_QUBITS,
    CouplingGraph,
    _exchange_pattern,
    ideal,
    perturbed_general,
    perturbed_n3,
    star_to_delta,
    to_sparse,
)
from ghznet.chebyshev import PropagationError
from ghznet.dense import StateVector, all_zeros, basis_state
from ghznet.protocol import compile_plan, entangling_time, ghz_target, verify
from ghznet.symmetric import (
    WBasisState,
    analytic_eigenvalues,
    ghz_w_target,
    popcounts,
    uniform_superposition,
)
from reference import CapacityError, pauli_on, qubit_bits, to_dense, to_sparse_coo


def pairwise_hamiltonian(graph):
    """Independent oracle: H built term by term from single-qubit Paulis."""
    n = graph.n_qubits
    h = np.zeros((1 << n, 1 << n), dtype=complex)
    for (l, k), g in graph.xy.items():
        for axis in ("x", "y"):
            h += 0.5 * g * (pauli_on(n, l, axis).matrix @ pauli_on(n, k, axis).matrix)
    for (l, k), gz in graph.zz.items():
        h += 0.5 * gz * (pauli_on(n, l, "z").matrix @ pauli_on(n, k, "z").matrix)
    return h


class TestConstructors:
    def test_ideal_pair_counts(self):
        for n, npairs in [(2, 1), (3, 3), (4, 6)]:
            g = ideal(n, 1.0, 0.1)
            assert len(g.xy) == npairs and len(g.zz) == npairs
            assert g.is_ideal()

    def test_perturbed_n3_zero_errors_is_ideal(self):
        g = perturbed_n3(1.0, 0.0, 0.0, 0.0)
        assert g.xy == ideal(3, 1.0, 0.0).xy
        assert g.zz == ideal(3, 1.0, 0.0).zz

    def test_perturbed_n3_bond_values(self):
        g = perturbed_n3(1.0, 0.02, 0.06, 0.05)
        assert g.xy[(1, 2)] == pytest.approx(1.0)
        assert g.xy[(2, 3)] == pytest.approx(0.98)
        assert g.xy[(1, 3)] == pytest.approx(0.94)
        # default ZZ keeps each bond's anisotropy ratio fixed
        for p in g.xy:
            assert g.zz[p] == pytest.approx(0.05 * g.xy[p])

    def test_perturbed_n3_uniform_zz_mode(self):
        g = perturbed_n3(1.0, 0.02, 0.06, 0.05, zz_mode="uniform")
        assert all(v == pytest.approx(0.05) for v in g.zz.values())

    def test_perturbed_n3_validation(self):
        with pytest.raises(ValueError):
            perturbed_n3(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            perturbed_n3(1.0, -0.1, 0.0, 0.0)

    @pytest.mark.parametrize("deficit", [1.0, 1.5])
    def test_perturbed_n3_deficit_below_one(self, deficit):
        # a deficit of 1 or more leaves a zero or negative XY bond
        with pytest.raises(ValueError, match="eta"):
            perturbed_n3(1.0, deficit, 0.0, 0.0)
        with pytest.raises(ValueError, match="eta"):
            perturbed_n3(1.0, 0.0, deficit, 0.0)
        assert perturbed_n3(1.0, 0.999, 0.999, 0.0).xy[(2, 3)] > 0

    def test_perturbed_general_matches_n3_uniform(self):
        mult = {(1, 2): 1.0, (2, 3): 0.98, (1, 3): 0.94}
        a = perturbed_general(3, 1.0, 0.05, mult)
        b = perturbed_n3(1.0, 0.02, 0.06, 0.05, zz_mode="uniform")
        for p in mult:
            assert a.xy[p] == pytest.approx(b.xy[p])
            assert a.zz[p] == pytest.approx(b.zz[p])

    def test_perturbed_general_missing_pair(self):
        with pytest.raises(ValueError):
            perturbed_general(3, 1.0, 0.0, {(1, 2): 1.0})

    def test_incomplete_graph_rejected(self):
        with pytest.raises(ValueError):
            CouplingGraph(3, {(1, 2): 1.0}, {(1, 2): 0.0}, 1.0, 0.0)

    def test_perturbed_general_extra_pair_rejected(self):
        mult = {(1, 2): 1.0, (1, 3): 1.0, (2, 3): 1.0, (3, 4): 0.5}
        with pytest.raises(ValueError, match="outside"):
            perturbed_general(3, 1.0, 0.0, mult)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_couplings_rejected(self, bad):
        good = ideal(3, 1.0, 0.05)
        xy_bad = {**good.xy, (1, 3): bad}
        for build in (
            lambda: ideal(3, bad, 0.0),
            lambda: ideal(3, 1.0, bad),
            lambda: CouplingGraph(3, xy_bad, good.zz, 1.0, 0.05),
            lambda: CouplingGraph(3, good.xy, xy_bad, 1.0, 0.05),
            lambda: CouplingGraph(3, good.xy, good.zz, bad, 0.05),
            lambda: CouplingGraph(3, good.xy, good.zz, 1.0, bad),
        ):
            with pytest.raises(ValueError, match="finite"):
                build()

    def test_non_finite_coupling_is_input_error_in_verify(self):
        # a ValueError for the input, not a PropagationError or LinAlgError
        # from the numerics, on either engine
        for g, gz in [
            (math.nan, 0.0), (1.0, math.nan), (math.inf, 0.0), (1.0, -math.inf),
            (math.inf, math.inf), (1e308, -1e308), (0.0, 1e308), (-1e308, 1e-300),
        ]:
            for engine in ("dense", "symmetric"):
                with pytest.raises(ValueError, match="finite") as exc:
                    verify(3, g, gz, engine=engine)
                assert not isinstance(exc.value, (PropagationError, np.linalg.LinAlgError))
            for call in (lambda: compile_plan(3, g, gz), lambda: entangling_time(g, gz)):
                with pytest.raises(ValueError, match="finite"):
                    call()

    @pytest.mark.parametrize("n", [True, 3.0, 2.7, np.float64(3), "3"])
    def test_qubit_count_must_be_integer(self, n):
        for build in (
            lambda: CouplingGraph(n, {}, {}, 1.0, 0.0),
            lambda: ideal(n, 1.0, 0.0),
            lambda: perturbed_general(n, 1.0, 0.0, {}),
            lambda: star_to_delta(1.0, n),
            lambda: analytic_eigenvalues(n, 1.0, 0.0),
            lambda: ghz_w_target(n),
            lambda: StateVector(n, np.zeros(8)),
            lambda: WBasisState(n, np.zeros(4)),
            lambda: basis_state(n, "000"),
            lambda: all_zeros(n),
        ):
            with pytest.raises(ValueError, match="integer"):
                build()

    def test_dense_builders_refuse_counts_above_the_cap(self):
        # only the first count above the cap: a larger one would allocate
        # for real wherever the cap is missing
        n = MAX_DENSE_QUBITS + 1
        for build in (
            lambda: basis_state(n, "0" * n),
            lambda: all_zeros(n),
            lambda: ghz_target(n),
            lambda: to_sparse(ideal(n, 1.0, 0.05)),
            lambda: verify(n, 1.0, 0.05),
        ):
            with pytest.raises(ValueError, match="dense"):
                build()

    @pytest.mark.parametrize("n", [True, 3.0, 2.7, np.float64(3), 5.0])
    def test_qubit_count_must_be_integer_in_protocol(self, n):
        for build in (
            lambda: compile_plan(n, 1.0, 0.05),
            lambda: ghz_target(n),
            lambda: verify(n, 1.0, 0.05),
            lambda: verify(n, 1.0, 0.05, engine="symmetric"),
            lambda: uniform_superposition(n),
        ):
            with pytest.raises(ValueError, match="integer"):
                build()

    def test_numpy_integer_qubit_count_accepted(self):
        assert ideal(np.int64(3), 1.0, 0.0).n_qubits == 3
        assert compile_plan(np.int64(3), 1.0, 0.0).n_qubits == 3
        assert ghz_target(np.int64(3)).n_qubits == 3


class TestDenseBuilder:
    def test_matches_pairwise_oracle(self):
        graphs = [
            ideal(2, 1.0, 0.0),
            ideal(4, 0.7, -0.2),
            perturbed_n3(1.0, 0.02, 0.06, 0.05),
            perturbed_general(4, 1.0, 0.05, {
                (1, 2): 0.95, (1, 3): 1.0, (1, 4): 0.9,
                (2, 3): 1.0, (2, 4): 0.97, (3, 4): 1.0,
            }),
        ]
        for g in graphs:
            assert np.max(np.abs(to_dense(g).matrix - pairwise_hamiltonian(g))) <= 1e-13

    def test_ground_state_energy(self):
        for n, gz in [(3, 0.4), (5, -0.1)]:
            h = to_dense(ideal(n, 1.0, gz)).matrix
            assert h[0, 0] == pytest.approx(n * (n - 1) / 2 * gz / 2)

    def test_hermitian(self):
        h = to_dense(perturbed_n3(1.0, 0.1, 0.03, 0.02)).matrix
        assert np.max(np.abs(h - h.conj().T)) == 0.0

    def test_linearity_in_couplings(self):
        rng = np.random.default_rng(4)
        n = 3
        pairs = list(ideal(n, 1, 0).xy)
        def rand_graph():
            xy = {p: rng.normal() for p in pairs}
            zz = {p: rng.normal() for p in pairs}
            return CouplingGraph(n, xy, zz, 1.0, 0.0)
        a, b = rand_graph(), rand_graph()
        summed = CouplingGraph(
            n,
            {p: a.xy[p] + b.xy[p] for p in pairs},
            {p: a.zz[p] + b.zz[p] for p in pairs},
            1.0, 0.0,
        )
        lhs = to_dense(a).matrix + to_dense(b).matrix
        assert np.max(np.abs(lhs - to_dense(summed).matrix)) <= 1e-13

    def test_sparse_dense_agree(self):
        g = perturbed_n3(1.0, 0.05, 0.02, 0.03)
        assert np.max(np.abs(to_sparse(g).toarray() - to_dense(g).matrix)) == 0.0

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            to_dense(ideal(15, 1.0, 0.0))

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(2, 8),
        gz=st.floats(-2.0, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_sparse_conserves_excitation_number(self, n, gz, seed):
        rng = np.random.default_rng(seed)
        pairs = [(l, k) for l in range(1, n + 1) for k in range(l + 1, n + 1)]
        graph = perturbed_general(n, 1.0, gz, {p: rng.uniform(0.01, 2.0) for p in pairs})
        h = to_sparse(graph).toarray()
        pop = popcounts(n)
        assert np.all(h[pop[:, None] != pop[None, :]] == 0.0)


def assert_same_csr(got, want):
    """Equal bytes and dtypes of all three CSR arrays, both canonical."""
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.has_canonical_format == want.has_canonical_format
    assert got.has_canonical_format


class TestSparsePattern:
    """to_sparse fills a cached per-N pattern; the COO assembly it replaced
    is the bitwise oracle."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 10), data=st.data())
    def test_equals_coo_oracle(self, n, data):
        pairs = [(l, k) for l in range(1, n + 1) for k in range(l + 1, n + 1)]
        value = st.sampled_from([0.0, -1.0, 1.0]) | st.floats(-3.0, 3.0)

        def pair_map():
            order = data.draw(st.permutations(pairs))
            return {p: data.draw(value) for p in order}

        graph = CouplingGraph(n, pair_map(), pair_map(), 1.0, 0.0)
        assert_same_csr(to_sparse(graph), to_sparse_coo(graph))

    @pytest.mark.parametrize("n", [11, 12, 13, 14])
    @pytest.mark.parametrize("g, gz", [(1.0, 0.05), (0.5, 1.0), (1.0, 0.0)])
    def test_ideal_large_equals_coo_oracle(self, n, g, gz):
        graph = ideal(n, g, gz)
        assert_same_csr(to_sparse(graph), to_sparse_coo(graph))

    @pytest.mark.parametrize("n", range(2, MAX_DENSE_QUBITS + 1))
    def test_signs_are_the_qubit_bits_as_plus_minus_one(self, n):
        signs = _exchange_pattern(n).signs
        assert signs.dtype == np.int8
        assert not signs.flags.writeable
        want = 2 * np.array(qubit_bits(n)) - 1
        assert np.array_equal(signs, want)

    def test_returned_matrix_is_the_callers_own(self):
        n = 6
        mat = to_sparse(ideal(n, 1.0, 0.0))
        mat.eliminate_zeros()
        mat.indices[:] = 0
        mat.data[:] = 7.0
        assert_same_csr(to_sparse(ideal(n, 1.0, 0.0)), to_sparse_coo(ideal(n, 1.0, 0.0)))
        a, b = to_sparse(ideal(n, 1.0, 0.05)), to_sparse(ideal(n, 0.5, 1.0))
        for name in ("indptr", "indices", "data"):
            assert not np.shares_memory(getattr(a, name), getattr(b, name)), name


class TestStarToDelta:
    def test_examples(self):
        assert star_to_delta(3.0, 3) == pytest.approx(1.0)
        assert star_to_delta(1.0, 4) == pytest.approx(0.25)

    def test_randomized(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            c = rng.uniform(0.1, 10)
            n = int(rng.integers(2, 50))
            assert star_to_delta(c, n) == pytest.approx(c / n)

    def test_validation(self):
        with pytest.raises(ValueError):
            star_to_delta(-1.0, 3)
        with pytest.raises(ValueError):
            star_to_delta(1.0, 1)

    @pytest.mark.parametrize("c_star", [math.nan, math.inf])
    def test_non_finite_capacitance_rejected(self, c_star):
        with pytest.raises(ValueError):
            star_to_delta(c_star, 3)

