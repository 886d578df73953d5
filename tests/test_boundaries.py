"""Property tests at the library boundary: bad input is a ValueError.

A qubit count that is not an integer in range, or a coupling that is not
finite or whose difference or doubled difference overflows, must raise
``ValueError`` (or a subclass) from the call that receives it -- never a
``TypeError`` or ``OverflowError`` from deeper down, and never a
``RuntimeWarning`` (the suite turns warnings into errors).  Counts stay
small where a missing check would allocate: dense entry points see at
most ``MAX_DENSE_QUBITS + 1``, W-basis ones at most 10^4.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghznet.couplings import MAX_DENSE_QUBITS, ideal, star_to_delta
from ghznet.dense import StateVector, all_zeros, basis_state
from ghznet.protocol import compile_plan, entangling_time, ghz_target, verify
from ghznet.symmetric import (
    WBasisState,
    analytic_eigenvalues,
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
