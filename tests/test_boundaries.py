"""Property tests at the library boundary: bad input is a ValueError.

A qubit count that is not an integer in range, or a coupling that is not
a finite real number or whose difference or doubled difference
overflows, must raise ``ValueError`` (or a subclass) from the call that
receives it -- never a ``TypeError`` or ``OverflowError`` from deeper
down, and never a ``RuntimeWarning`` (the suite turns warnings into
errors).  Counts stay small where a missing check would allocate: dense
entry points see at most ``MAX_DENSE_QUBITS + 1``, graph builders (which
list all C(N,2) pairs) at most that too, W-basis ones at most 10^4; only
``compile_plan``, ``theta`` and ``star_to_delta``, which allocate nothing
per qubit, see counts beyond the float range.

``COUNT_PROBES`` and ``COUPLING_PROBES`` list every entry point the
property tests probe, and ``test_every_entry_point_is_probed`` fails when
a public callable taking a qubit count or a coupling is missing from them.
"""

import inspect
import json
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ghznet
from ghznet.couplings import (
    MAX_DENSE_QUBITS,
    CouplingGraph,
    ideal,
    perturbed_general,
    perturbed_n3,
    star_to_delta,
)
from ghznet.dense import GlobalPhase, StateVector, all_zeros, basis_state
from ghznet.optimizer import OptimizationProblem, OptimizerConfig, problem_odd, sweep
from ghznet.protocol import (
    ProtocolPlan,
    Pulse,
    compile_plan,
    entangling_time,
    execute_symmetric,
    ghz_target,
    theta,
    verify,
)
from ghznet.symmetric import (
    WBasisState,
    analytic_eigenvalues,
    embed,
    ghz_w_target,
    uniform_superposition,
)

EXAMPLES = settings(max_examples=30, deadline=None)
BIG = sys.float_info.max

# counts refused by every entry point: floats (NaN and +-inf among them,
# 3.0 too), numpy floats, bools, strings, zero and negatives
BAD_COUNTS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, 3.0]),
    st.floats(allow_nan=True).map(np.float64),
    st.booleans(),
    st.text(max_size=3),
    st.integers(max_value=0),
)
# ... and by those whose minimum is 2 qubits
BAD_PROTOCOL_COUNTS = st.one_of(BAD_COUNTS, st.just(1))
# ... and by those that hold a dense 2^N state
BAD_DENSE_COUNTS = st.one_of(BAD_COUNTS, st.just(MAX_DENSE_QUBITS + 1))

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def non_finite_couplings(draw):
    """(g, gz) with at least one of them NaN or infinite."""
    bad, other = draw(NON_FINITE), draw(st.one_of(FINITE, NON_FINITE))
    return (bad, other) if draw(st.booleans()) else (other, bad)


@st.composite
def overflowing_couplings(draw):
    """Finite (g, gz) with 2|g - gz| above the float limit; for some of
    them g - gz overflows too."""
    a = draw(st.floats(min_value=BIG / 2 * (1 + 1e-15), max_value=BIG))
    b = draw(st.floats(min_value=0.0, max_value=BIG))
    sign = draw(st.sampled_from([1.0, -1.0]))
    g, gz = sign * a, -sign * b
    return (g, gz) if draw(st.booleans()) else (gz, g)


BAD_COUPLINGS = st.one_of(non_finite_couplings(), overflowing_couplings())


def _raises_value_error(call):
    with pytest.raises(ValueError):
        call()


@EXAMPLES
@given(n=BAD_DENSE_COUNTS)
def test_dense_builders_refuse_bad_counts(n):
    _raises_value_error(lambda: basis_state(n, "000"))
    _raises_value_error(lambda: all_zeros(n))
    _raises_value_error(lambda: StateVector(n, np.zeros(8)))


@EXAMPLES
@given(n=BAD_PROTOCOL_COUNTS)
def test_protocol_builders_refuse_bad_counts(n):
    _raises_value_error(lambda: ghz_target(n))
    _raises_value_error(lambda: ghz_w_target(n))
    _raises_value_error(lambda: analytic_eigenvalues(n, 1.0, 0.05))
    _raises_value_error(lambda: compile_plan(n, 1.0, 0.05))
    _raises_value_error(lambda: ideal(n, 1.0, 0.05))
    _raises_value_error(lambda: star_to_delta(1.0, n))
    for engine in ("dense", "symmetric"):
        _raises_value_error(lambda: verify(n, 1.0, 0.05, engine=engine))


@EXAMPLES
@given(n=BAD_COUNTS)
def test_w_basis_states_refuse_bad_counts(n):
    _raises_value_error(lambda: WBasisState(n, np.zeros(4)))
    _raises_value_error(lambda: uniform_superposition(n))


@EXAMPLES
@given(n=st.integers(2, 10**4), couplings=BAD_COUPLINGS)
def test_bad_couplings_refused(n, couplings):
    g, gz = couplings
    _raises_value_error(lambda: entangling_time(g, gz))
    _raises_value_error(lambda: compile_plan(n, g, gz))


@EXAMPLES
@given(n=st.integers(2, 5), couplings=BAD_COUPLINGS)
def test_bad_couplings_refused_by_verify(n, couplings):
    g, gz = couplings
    for engine in ("dense", "symmetric"):
        _raises_value_error(lambda: verify(n, g, gz, engine=engine))


@EXAMPLES
@given(n=st.integers(2, 10**4), couplings=non_finite_couplings())
def test_non_finite_couplings_refused_by_graph_and_spectrum(n, couplings):
    g, gz = couplings
    _raises_value_error(lambda: analytic_eigenvalues(n, g, gz))
    _raises_value_error(lambda: ideal(min(n, 6), g, gz))


@EXAMPLES
@given(n=st.integers(2, 10**4), g=FINITE, gz=FINITE)
def test_finite_couplings_compile_or_refuse(n, g, gz):
    # any finite pair gives a usable plan or a ValueError, and the
    # spectrum is finite or refused; a NaN phase or t of 0 or inf is neither
    try:
        plan = compile_plan(n, g, gz)
    except ValueError:
        pass
    else:
        assert 0 < plan.entangle_duration < math.inf
        assert abs(abs(plan.expected_phase.phase) - 1) <= 1e-12
    try:
        lam = analytic_eigenvalues(n, g, gz)
    except ValueError:
        pass
    else:
        assert np.isfinite(lam).all()


# ---------------------------------------------------------------- every entry point

# parameter names that carry a qubit count or a coupling
COUNT_PARAMS = {"n", "n_qubits"}
COUPLING_PARAMS = {"g", "gz", "g12", "g_ref", "gz_ref", "c_star"}

# (entry point, fewest qubits it takes, whether it holds a dense 2^N
# state, call with a count); the other arguments are valid
COUNT_PROBES = [
    ("StateVector", 1, True, lambda n: StateVector(n, np.zeros(8))),
    ("WBasisState", 1, False, lambda n: WBasisState(n, np.zeros(4))),
    ("uniform_superposition", 1, False, uniform_superposition),
    ("basis_state", 1, True, lambda n: basis_state(n, "000")),
    ("all_zeros", 1, True, all_zeros),
    ("ghz_target", 2, True, ghz_target),
    ("ghz_w_target", 2, False, ghz_w_target),
    ("ProtocolPlan", 2, False, lambda n: ProtocolPlan(n, 1.0, (), GlobalPhase(1.0))),
    ("CouplingGraph", 2, False, lambda n: CouplingGraph(n, {}, {}, 1.0, 0.05)),
    ("ideal", 2, False, lambda n: ideal(n, 1.0, 0.05)),
    ("perturbed_general", 2, False, lambda n: perturbed_general(n, 1.0, 0.05, {})),
    ("analytic_eigenvalues", 2, False, lambda n: analytic_eigenvalues(n, 1.0, 0.05)),
    ("compile_plan", 2, False, lambda n: compile_plan(n, 1.0, 0.05)),
    ("theta", 2, False, theta),
    ("star_to_delta", 2, False, lambda n: star_to_delta(1.0, n)),
    ("verify", 2, True, lambda n: verify(n, 1.0, 0.05)),
    ("verify", 2, False, lambda n: verify(n, 1.0, 0.05, engine="symmetric")),
]

PAIR = (1, 2)
PLAN3 = compile_plan(3, 1.0, 0.05)
FAST = OptimizerConfig(restarts=1, max_evals=1)

# (entry point, the parameter the value goes to, call with the value)
COUPLING_PROBES = [
    ("CouplingGraph", "xy", lambda x: CouplingGraph(2, {PAIR: x}, {PAIR: 0.0}, 1.0, 0.0)),
    ("CouplingGraph", "zz", lambda x: CouplingGraph(2, {PAIR: 1.0}, {PAIR: x}, 1.0, 0.0)),
    ("CouplingGraph", "g_ref", lambda x: CouplingGraph(2, {PAIR: 1.0}, {PAIR: 0.0}, x, 0.0)),
    ("CouplingGraph", "gz_ref", lambda x: CouplingGraph(2, {PAIR: 1.0}, {PAIR: 0.0}, 1.0, x)),
    ("ideal", "g", lambda x: ideal(3, x, 0.05)),
    ("ideal", "gz", lambda x: ideal(3, 1.0, x)),
    ("perturbed_n3", "g12", lambda x: perturbed_n3(x, 0.02, 0.06, 0.05)),
    ("perturbed_n3", "eta23", lambda x: perturbed_n3(1.0, x, 0.06, 0.05)),
    ("perturbed_n3", "eta13", lambda x: perturbed_n3(1.0, 0.02, x, 0.05)),
    ("perturbed_n3", "kappa", lambda x: perturbed_n3(1.0, 0.02, 0.06, x)),
    ("perturbed_general", "g_ref", lambda x: perturbed_general(2, x, 0.05, {PAIR: 1.0})),
    ("perturbed_general", "gz_ref", lambda x: perturbed_general(2, 1.0, x, {PAIR: 1.0})),
    ("perturbed_general", "xy_multipliers", lambda x: perturbed_general(2, 1.0, 0.05, {PAIR: x})),
    ("star_to_delta", "c_star", lambda x: star_to_delta(x, 3)),
    ("analytic_eigenvalues", "g", lambda x: analytic_eigenvalues(3, x, 0.05)),
    ("analytic_eigenvalues", "gz", lambda x: analytic_eigenvalues(3, 1.0, x)),
    ("entangling_time", "g", lambda x: entangling_time(x, 0.05)),
    ("entangling_time", "gz", lambda x: entangling_time(1.0, x)),
    ("compile_plan", "g", lambda x: compile_plan(3, x, 0.05)),
    ("compile_plan", "gz", lambda x: compile_plan(3, 1.0, x)),
    ("execute_symmetric", "g", lambda x: execute_symmetric(PLAN3, x, 0.05)),
    ("execute_symmetric", "gz", lambda x: execute_symmetric(PLAN3, 1.0, x)),
    ("verify", "g", lambda x: verify(3, x, 0.05)),
    ("verify", "gz", lambda x: verify(3, 1.0, x)),
    ("verify", "g", lambda x: verify(3, x, 0.05, engine="symmetric")),
    ("verify", "gz", lambda x: verify(3, 1.0, x, engine="symmetric")),
    ("sweep", "eta13_values", lambda x: sweep([x], config=FAST)),
    ("sweep", "g12", lambda x: sweep([0.0], g12=x, config=FAST)),
    ("sweep", "eta23", lambda x: sweep([0.0], eta23=x, config=FAST)),
    ("sweep", "kappa", lambda x: sweep([0.0], kappa=x, config=FAST)),
]

# public callables that take a count or a coupling but need no probe
EXEMPT = {
    "GhzTarget": "built only by ghz_target, which checks the count first",
}


def _refused(call):
    """``call()`` raises ValueError and emits no warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            call()


def test_every_entry_point_is_probed():
    counted = {name for name, *_ in COUNT_PROBES}
    coupled = {(name, param) for name, param, _ in COUPLING_PROBES}
    found = 0
    for name in ghznet.__all__:
        obj = getattr(ghznet, name)
        try:
            params = set(inspect.signature(obj).parameters)
        except (TypeError, ValueError):  # exceptions and other builtins
            continue
        if not params & (COUNT_PARAMS | COUPLING_PARAMS):
            continue
        found += 1
        if name in EXEMPT:
            continue
        if params & COUNT_PARAMS:
            assert name in counted, f"{name} takes a qubit count but has no COUNT_PROBES entry"
        for param in params & COUPLING_PARAMS:
            assert (name, param) in coupled, f"{name}({param}=...) has no COUPLING_PROBES entry"
    assert found == 20  # a new entry point: probe it, then raise this count


def _bad_counts(minimum: int, dense: bool):
    """Counts below ``minimum``, non-integers and, for a dense state, the
    first count above the cap."""
    bad = st.one_of(
        BAD_COUNTS,
        st.integers(max_value=minimum - 1),
        st.sampled_from([np.int64(minimum - 1), np.int64(-3), np.float64(3.0), 3 + 0j]),
        st.just(Fraction(3)),
    )
    return st.one_of(bad, st.just(MAX_DENSE_QUBITS + 1)) if dense else bad


@pytest.mark.parametrize(
    "minimum, dense, call",
    [probe[1:] for probe in COUNT_PROBES],
    ids=[f"{name}-{i}" for i, (name, *_) in enumerate(COUNT_PROBES)],
)
@EXAMPLES
@given(data=st.data())
def test_every_count_entry_point_refuses_bad_counts(minimum, dense, call, data):
    n = data.draw(_bad_counts(minimum, dense))
    _refused(lambda: call(n))


# not a finite real number: NaN, +-inf (Python and numpy), ints and
# fractions beyond the float range, bools, None, complex, strings
BAD_REALS = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from([math.nan, math.inf, -math.inf]).map(np.float64),
    st.sampled_from([math.nan, math.inf, -math.inf]).map(np.float32),
    st.sampled_from([10**400, -(10**400), Fraction(10**400), True, False, None, 1j]),
    st.text(max_size=4),
)


@pytest.mark.parametrize(
    "call",
    [probe[2] for probe in COUPLING_PROBES],
    ids=[f"{name}-{param}-{i}" for i, (name, param, _) in enumerate(COUPLING_PROBES)],
)
@EXAMPLES
@given(x=BAD_REALS)
def test_every_coupling_entry_point_refuses_bad_couplings(call, x):
    _refused(lambda: call(x))


@EXAMPLES
@given(n=st.integers(2, 10**4), couplings=BAD_COUPLINGS)
def test_numpy_couplings_that_overflow_refused_without_warning(n, couplings):
    g, gz = map(np.float64, couplings)
    _refused(lambda: entangling_time(g, gz))
    _refused(lambda: compile_plan(np.int64(n), g, gz))


def test_numpy_probes_from_review_refused_without_warning():
    _refused(lambda: entangling_time(np.float64(0.0), np.float64(1e308)))
    _refused(lambda: entangling_time(np.float64(1e-310), np.float64(0.0)))
    _refused(lambda: compile_plan(np.int64(15), 1e308, 5e307))
    _refused(lambda: problem_odd(perturbed_n3(np.float64(1e308), 0.02, 0.06, 0.05)))
    _refused(lambda: compile_plan(3, 10**400, 0))
    _refused(lambda: ideal(3, 10**400, 0))


def test_embed_refuses_states_above_the_dense_cap():
    n = MAX_DENSE_QUBITS + 1
    _refused(lambda: embed(WBasisState(n, np.zeros(n + 1))))


@EXAMPLES
@given(n=st.integers(2, 10**400))
def test_huge_counts_compile_or_name_the_overflow(n):
    # compile_plan and theta allocate nothing per qubit; lambda_0 t
    # overflows long before the count leaves the float range
    try:
        plan = compile_plan(n, 1.0, 0.05)
    except ValueError as exc:
        assert f"N = {n}, g = 1.0, gz = 0.05" in str(exc)
    else:
        assert plan.n_qubits == n
        assert 0 < plan.entangle_duration < math.inf
    if n % 2:
        _refused(lambda: theta(n))
    else:
        assert theta(n) in (math.pi / 2, 3 * math.pi / 2)


def test_star_to_delta_refuses_a_count_beyond_the_float_range():
    # C / n converts n to a float
    _refused(lambda: star_to_delta(1.0, 10**400))
    assert star_to_delta(1.0, 10**300) == 1e-300


# ------------------------------------------------------- numpy input, Python output


@EXAMPLES
@given(n=st.integers(2, 10**4), g=FINITE, gz=FINITE)
def test_numpy_inputs_compile_to_the_python_plan(n, g, gz):
    try:
        want = compile_plan(n, g, gz).to_dict()
    except ValueError:
        _refused(lambda: compile_plan(np.int64(n), np.float64(g), np.float64(gz)))
        return
    got = compile_plan(np.int64(n), np.float64(g), np.float64(gz)).to_dict()
    assert got == want
    assert json.dumps(got) == json.dumps(want)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(2, 6), g=st.floats(-1.0, 1.0), gz=st.floats(-1.0, 1.0))
def test_numpy_inputs_verify_to_the_python_bits(n, g, gz):
    assume(abs(g - gz) >= 0.05)
    for engine in ("dense", "symmetric"):
        fid, phase = verify(n, g, gz, engine=engine)
        fid_np, phase_np = verify(np.int64(n), np.float64(g), np.float64(gz), engine=engine)
        assert (fid_np, phase_np.phase) == (fid, phase.phase)


def test_narrow_numpy_and_exact_reals_accepted_without_warning():
    # a float32 compared with the float range would overflow in the cast
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        graph = ideal(3, np.float32(1.0), np.float16(0.05))
        assert graph.xy[PAIR] == 1.0 and graph.zz[PAIR] == float(np.float16(0.05))
        assert star_to_delta(Fraction(3), np.uint8(3)) == 1.0
        assert entangling_time(np.int64(-(2**63)), 0) == math.pi / 2**64


def test_checked_values_are_stored_as_python_numbers():
    n = np.int64(3)
    graph = perturbed_n3(np.float64(1.0), 0.02, np.float64(0.06), 0.05)
    stored = [
        StateVector(n, np.zeros(8)).n_qubits,
        WBasisState(n, np.zeros(4)).n_qubits,
        ghz_target(n).n_qubits,
        ideal(n, 1.0, 0.05).n_qubits,
        compile_plan(n, 1.0, 0.05).n_qubits,
        ProtocolPlan(n, 1.0, (), GlobalPhase(1.0)).n_qubits,
    ]
    assert all(type(v) is int for v in stored)
    values = [*graph.xy.values(), *graph.zz.values(), graph.g_ref, graph.gz_ref]
    assert all(type(v) is float for v in values)


# ------------------------------------------------------- plans and sweeps

PHASE = GlobalPhase(1.0)


@pytest.mark.parametrize(
    "duration", [math.nan, math.inf, "1.0", None, True, pytest.param(10**400, id="10**400")]
)
def test_plans_refuse_bad_durations(duration):
    finals = compile_plan(3, 1.0, 0.05).finals
    _refused(lambda: ProtocolPlan(3, duration, finals, PHASE))


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf, "a", None, True, 1j])
def test_plans_refuse_bad_pulse_angles(angle):
    for qubit in (None, 2):
        _refused(lambda: ProtocolPlan(3, 1.0, (Pulse("x", angle, qubit),), PHASE))


@pytest.mark.parametrize("qubit", ["2", 2.0, np.float64(2.0), True, Fraction(2)])
def test_plans_refuse_non_integer_pulse_qubits(qubit):
    _refused(lambda: ProtocolPlan(3, 1.0, (Pulse("z", 1.0, qubit),), PHASE))


@pytest.mark.parametrize("phase", [1.0, 1j, None, "1", np.complex128(1.0)])
def test_plans_refuse_a_phase_that_is_not_a_global_phase(phase):
    # such a plan used to run, and then fail in to_dict
    _refused(lambda: ProtocolPlan(3, 1.0, (), phase))


def test_plans_store_python_numbers():
    pulse = Pulse("z", np.float64(0.5), np.int64(2))
    plan = ProtocolPlan(3, np.float64(1.0), (pulse, Pulse("x", np.float32(1.0))), PHASE)
    assert type(plan.entangle_duration) is float
    assert [(type(p.angle), type(p.qubit)) for p in plan.finals] == [
        (float, int), (float, type(None)),
    ]
    assert plan == ProtocolPlan(3, 1.0, (Pulse("z", 0.5, 2), Pulse("x", 1.0)), PHASE)


def test_sweep_refuses_an_empty_grid():
    _refused(lambda: sweep([]))
    _refused(lambda: sweep(np.array([]), g12="x"))


@pytest.mark.parametrize("column, value", [(0, math.nan), (1, 10.0), (3, -math.inf)])
def test_problem_run_refuses_a_point_outside_the_box(column, value):
    # run used to return an all-NaN or out-of-box state where objective refused
    problem = problem_odd(perturbed_n3(1.0, 0.02, 0.06, 0.05))
    params = problem.ideal_params.copy()
    params[column] = value
    with pytest.raises(ValueError, match="outside the problem bounds"):
        problem.run(params)


PLAN_3 = compile_plan(3, 1.0, 0.05).per_qubit()


@pytest.mark.parametrize(
    "plan, free, angle_upper, message",
    [
        (
            compile_plan(4, 1.0, 0.05).per_qubit(), (0,), math.pi,
            "plan is for 4 qubits but graph has 3",
        ),
        (PLAN_3, (3,), math.pi, "distinct indices"),
        (PLAN_3, (5,), math.pi, "distinct indices"),
        (PLAN_3, (-1,), math.pi, "distinct indices"),
        (PLAN_3, (0, 0), math.pi, "distinct indices"),
        (PLAN_3, (1.0,), math.pi, "integer"),
        (PLAN_3, (True,), math.pi, "integer"),
        (PLAN_3, (0,), math.nan, "angle_upper"),
        (PLAN_3, (0,), math.inf, "angle_upper"),
        (PLAN_3, (0,), -1.0, "outside the box"),
        (PLAN_3, (0, 1), 1.0, "outside the box"),
    ],
    ids=[
        "counts", "index-past-end", "index-5", "index-negative", "index-twice",
        "index-float", "index-bool", "upper-nan", "upper-inf", "upper-negative",
        "upper-below-ideal",
    ],
)
def test_problems_refuse_bad_inputs(plan, free, angle_upper, message):
    # each used to be accepted, or to fail later with another error
    graph = perturbed_n3(1.0, 0.02, 0.06, 0.05)
    with pytest.raises(ValueError, match=message):
        OptimizationProblem(graph, plan, free, angle_upper)
