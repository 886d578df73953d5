"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Reference state vectors are tabulated with qubit 1 in the least significant
bit position, so they are bit-reversed before comparison with this
package's most-significant-first indexing.
"""

import time

import numpy as np
import pytest

from ghznet.couplings import ideal, perturbed_general, perturbed_n3, to_sparse
from ghznet.dense import apply_collective_rotation, apply_rotation, all_zeros
from ghznet.optimizer import (
    OptimizerConfig,
    optimize,
    optimize_restricted_n4,
    problem_even_full,
    problem_odd,
    sweep,
    uncorrected_fidelity,
)
from ghznet.protocol import (
    DegenerateCouplingError,
    HamiltonianPropagator,
    compile_plan,
    execute,
    execute_symmetric,
    ghz_target,
    theta,
    verify,
)
from ghznet.symmetric import (
    analytic_eigenvalues,
    binomial_row,
    ghz_w_target,
)
from reference import collective_ladder_dense, project, w_state_dense

# Printed three-qubit reference states (least-significant qubit-1 ordering).
OPTIMIZED_STATE = np.array([
    0.707099, 0.000692, -0.001956, 0.002566,
    0.002566, -0.001956, 0.000692, 0.707099,
], dtype=complex)
UNCORRECTED_STATE = np.array([
    0.706616,
    0.000697 + 0.015431j,
    -0.002792 + 0.010929j,
    0.002988 + 0.017844j,
    0.002988 + 0.017844j,
    -0.002792 + 0.010929j,
    0.000697 + 0.015431j,
    0.706616,
])


def bit_reversed(vec, n):
    perm = [int(format(i, f"0{n}b")[::-1], 2) for i in range(1 << n)]
    return vec[perm]


def aligned_to_ghz(psi):
    target = ghz_target(psi.n_qubits).state.amplitudes
    ov = np.vdot(target, psi.amplitudes)
    return psi.amplitudes * (ov.conjugate() / abs(ov))


def report(num, name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"[acceptance {num}] {name}: {status}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures)


def test_criterion_1_eigenvalue_oracle():
    start = time.monotonic()
    failures = []
    rng = np.random.default_rng(2026)
    pairs = [(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(20)]
    for n in range(2, 11):
        w_vecs = [w_state_dense(n, j).amplitudes for j in range(n + 1)]
        for g, gz in pairs:
            h = to_sparse(ideal(n, g, gz))
            lam = analytic_eigenvalues(n, g, gz)
            for j, w in enumerate(w_vecs):
                hw = h @ w
                lam_num = np.real(np.vdot(w, hw))
                if abs(lam_num - lam[j]) > 1e-10:
                    failures.append(f"N={n} j={j}: |num - analytic| = {abs(lam_num - lam[j]):.2e}")
                if np.linalg.norm(hw - lam[j] * w) > 1e-10:
                    failures.append(f"N={n} j={j}: eigen-residual too large")
    elapsed = time.monotonic() - start
    if elapsed > 60:
        failures.append(f"runtime {elapsed:.1f}s > 60s")
    report(1, "eigenvalue oracle equivalence", failures)


def test_criterion_2_protocol_exactness():
    start = time.monotonic()
    failures = []
    for n in range(2, 15):
        for g, gz in [(1, 0), (1, 0.05), (1, -0.05)]:
            fid, measured = verify(n, g, gz)
            expected = compile_plan(n, g, gz).expected_phase.phase
            if fid < 1 - 1e-10:
                failures.append(f"N={n} (g,gz)=({g},{gz}): fidelity {fid}")
            if abs(measured.phase - expected) > 1e-8:
                failures.append(f"N={n} (g,gz)=({g},{gz}): phase off by {abs(measured.phase - expected):.2e}")
    # strong-ZZ even runs must show no relative sign between the GHZ branches
    for n in range(2, 15, 2):
        g, gz = 0.5, 1.0
        psi = execute(compile_plan(n, g, gz), ideal(n, g, gz))
        ratio = psi.amplitudes[-1] / psi.amplitudes[0]
        if abs(ratio - 1) > 1e-8:
            failures.append(f"N={n} g<gz: branch ratio {ratio}")
    elapsed = time.monotonic() - start
    if elapsed > 120:
        failures.append(f"runtime {elapsed:.1f}s > 120s")
    report(2, "protocol exactness and phases", failures)


def test_criterion_3_three_qubit_regression():
    start = time.monotonic()
    failures = []
    graph = perturbed_n3(1.0, 0.02, 0.06, 0.05)
    problem = problem_odd(graph)

    f_unc = uncorrected_fidelity(problem)
    if abs(f_unc - 0.9628) > 5e-4:
        failures.append(f"uncorrected fidelity {f_unc:.6f} not 0.9628 +- 0.0005")
    unc = aligned_to_ghz(problem.run(problem.ideal_params))
    d_unc = np.max(np.abs(unc - bit_reversed(UNCORRECTED_STATE, 3)))
    if d_unc > 5e-6:
        failures.append(f"uncorrected components off by {d_unc:.2e} > 5e-6")

    res = optimize(problem)
    if abs(res.fidelity - 0.9953) > 1e-3:
        failures.append(f"optimized fidelity {res.fidelity:.6f} not 0.9953 +- 0.001")
    t_ratio = res.t_opt / (np.pi / (2 * 1.0 * (1 - 0.05)))
    if abs(t_ratio - 1.0505) > 3e-3:
        failures.append(f"t ratio {t_ratio:.5f} not 1.0505 +- 0.003")
    alphas = res.angles_opt / (np.pi / 2)
    for got, want in zip(alphas, (0.9785, 0.9713, 0.9825)):
        if abs(got - want) > 5e-3:
            failures.append(f"alpha {got:.5f} not {want} +- 0.005")
    opt = aligned_to_ghz(problem.run(np.concatenate([[res.t_opt], res.angles_opt])))
    d_opt = np.max(np.abs(opt - bit_reversed(OPTIMIZED_STATE, 3)))
    if d_opt > 5e-4:
        failures.append(f"optimized components off by {d_opt:.2e} > 5e-4")
    elapsed = time.monotonic() - start
    if elapsed > 30:
        failures.append(f"runtime {elapsed:.1f}s > 30s")
    report(3, "three-qubit number regression", failures)


def test_criterion_4_sweep_property():
    failures = []
    grid = np.round(np.linspace(0.0, 0.10, 11), 10)
    rows = sweep(grid)
    for row in rows:
        if row["error"]:
            failures.append(f"eta13={row['eta13']}: {row['error']}")
            continue
        if row["F_opt"] < row["F_uncorrected"]:
            failures.append(f"eta13={row['eta13']}: F_opt below uncorrected")
        if row["F_opt"] < 0.99:
            failures.append(f"eta13={row['eta13']}: F_opt {row['F_opt']:.5f} < 0.99")
    report(4, "deficit-sweep dominance", failures)


def test_criterion_5_restricted_four_qubit():
    failures = []
    rng = np.random.default_rng(17)
    pairs = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    for trial in range(10):
        mult = {p: rng.uniform(0.9, 1.0) for p in pairs}
        graph = perturbed_general(4, 1.0, 0.05, mult)
        restricted = optimize_restricted_n4(graph)
        full = optimize(problem_even_full(graph))
        gap = abs(restricted.fidelity - full.fidelity)
        if gap > 1e-3:
            failures.append(f"trial {trial}: fidelity gap {gap:.2e} > 1e-3")
        if restricted.fidelity < uncorrected_fidelity(problem_even_full(graph)):
            failures.append(f"trial {trial}: restricted below uncorrected")
    report(5, "restricted four-qubit optimization", failures)


def test_criterion_6_ladder_identity_suites():
    failures = []
    # operator lemmas, dense, N <= 6 and all powers j <= N
    for n in range(2, 7):
        sp = collective_ladder_dense(n, "plus")
        sm = collective_ladder_dense(n, "minus")
        sz = collective_ladder_dense(n, "z")
        for j in range(1, n + 1):
            spj = np.linalg.matrix_power(sp, j)
            smj = np.linalg.matrix_power(sm, j)
            spj1 = np.linalg.matrix_power(sp, j - 1)
            if np.max(np.abs(sz @ spj - (spj @ sz + 2 * j * spj))) > 1e-12:
                failures.append(f"raising lemma N={n} j={j}")
            if np.max(np.abs(sz @ smj - (smj @ sz - 2 * j * smj))) > 1e-12:
                failures.append(f"lowering lemma N={n} j={j}")
            lhs = sm @ spj
            rhs = spj @ sm - j * spj1 @ sz - j * (j - 1) * spj1
            if np.max(np.abs(lhs - rhs)) > 1e-12:
                failures.append(f"mixed lemma N={n} j={j}")
        # ladder coefficients on the W states
        for j in range(n + 1):
            w = w_state_dense(n, j).amplitudes
            up = sp @ w
            want = np.sqrt((n - j) * (j + 1)) * (
                w_state_dense(n, j + 1).amplitudes if j < n else 0 * w
            )
            if np.linalg.norm(up - want) > 1e-12:
                failures.append(f"raising coefficient N={n} j={j}")
        # pairwise Hamiltonian equals its collective-operator decomposition
        g, gz = 0.9, -0.4
        h = to_sparse(ideal(n, g, gz)).toarray()
        eye = np.eye(1 << n)
        hg = sp @ sm + sm @ sp - n * eye
        hgz = sz @ sz - n * eye
        if np.max(np.abs(h - 0.25 * (2 * g * hg + gz * hgz))) > 1e-12:
            failures.append(f"decomposition N={n}")
    # odd-family expansion of the rotated GHZ state
    for n in (3, 5, 7, 9):
        psi = apply_collective_rotation(ghz_target(n).state, "x", -np.pi / 2)
        w, residual = project(psi)
        j = np.arange(n + 1)
        pred = (
            (1j) ** j * (1 + (-1.0) ** j * (1j) ** n)
            / (np.sqrt(2) * 2 ** (n / 2))
            * np.sqrt(binomial_row(n))
        )
        if residual > 1e-12 or np.max(np.abs(w.coeffs - pred)) > 1e-12:
            failures.append(f"odd expansion N={n}")
    # even-family expansion; the half-angle z-rotation convention contributes
    # a global factor e^{i theta/2}
    for n in (2, 4, 6, 8):
        th = theta(n)
        psi = apply_rotation(ghz_target(n).state, 1, "z", -th)
        psi = apply_collective_rotation(psi, "y", -np.pi / 2)
        w, residual = project(psi)
        j = np.arange(n + 1)
        pred = (
            np.exp(1j * th / 2)
            * ((-1.0) ** j + np.exp(-1j * th))
            / (np.sqrt(2) * 2 ** (n / 2))
            * np.sqrt(binomial_row(n))
        )
        if residual > 1e-12 or np.max(np.abs(w.coeffs - pred)) > 1e-12:
            failures.append(f"even expansion N={n}")
    # scalar phase identities behind both families
    for n in range(3, 15, 2):
        j = np.arange(n + 1)
        lhs = (1j) ** (j * (n - j))
        rhs = (
            np.exp(1j * (-1) ** ((n - 3) // 2) * np.pi / 4)
            * (1j) ** j * (1 + (-1.0) ** j * (1j) ** n) / np.sqrt(2)
        )
        if np.max(np.abs(lhs - rhs)) > 1e-12:
            failures.append(f"odd phase identity N={n}")
    for n in range(2, 15, 2):
        j = np.arange(n + 1)
        th = theta(n)
        lhs = (-1j) ** (j * (n - j))
        rhs = (
            np.exp(1j * np.pi * (n // 2 - 1)) * np.exp(1j * th / 2)
            * ((-1.0) ** j + np.exp(-1j * th)) / np.sqrt(2)
        )
        if np.max(np.abs(lhs - rhs)) > 1e-12:
            failures.append(f"even phase identity N={n}")
    report(6, "ladder and expansion identities", failures)


def test_criterion_7_engine_equivalence():
    failures = []
    for n in range(2, 11):
        plan = compile_plan(n, 1, 0.05)
        graph = ideal(n, 1, 0.05)
        dense = execute(plan, graph, engine="dense")
        sym = execute(plan, graph, engine="symmetric")
        diff = np.linalg.norm(dense.amplitudes - sym.amplitudes)
        if diff > 1e-10:
            failures.append(f"N={n}: engines differ by {diff:.2e}")
    # thousand-qubit collective run (nearest odd size, the family the
    # all-collective engine can finish)
    n = 1001
    start = time.monotonic()
    w = execute_symmetric(compile_plan(n, 1, 0.05), 1, 0.05)
    target = ghz_w_target(n).coeffs
    ov = np.vdot(target, w.coeffs)
    fid = 1 - np.linalg.norm(w.coeffs * (ov.conjugate() / abs(ov)) - target)
    elapsed = time.monotonic() - start
    if fid < 1 - 1e-8:
        failures.append(f"N={n} symmetric fidelity {fid}")
    if elapsed > 5:
        failures.append(f"N={n} runtime {elapsed:.1f}s > 5s")
    report(7, "engine equivalence and scalability", failures)


def test_criterion_8_degeneracy_guard():
    failures = []
    with pytest.raises(DegenerateCouplingError):
        compile_plan(4, 0.7, 0.7)
    n, g = 4, 0.7
    prop = HamiltonianPropagator(ideal(n, g, g))
    uniform = apply_collective_rotation(all_zeros(n), "y", np.pi / 2)
    for t in (0.1, 1.0, 7.3, 100.0):
        evolved = prop.propagate(t)
        if abs(abs(np.vdot(uniform.amplitudes, evolved)) - 1) > 1e-12:
            failures.append(f"t={t}: uniform state not stationary")
    report(8, "isotropic-coupling degeneracy guard", failures)
