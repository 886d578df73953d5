"""Chebyshev propagation: e^{-iHt} psi from products with a real operator.

The one propagation rule of both engines.  For a real symmetric H whose
spectrum lies in [c - r, c + r], with H~ = (H - c)/r,

    e^{-iHt} psi = e^{-ict} sum_k (2 - delta_k0) (-i)^k J_k(rt) T_k(H~) psi

(Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967 (1984)).  T_k(H~) is real,
so psi is carried as real rows, its real part and, unless it is zero, its
imaginary part: each term is one real product with H~ per row.  The
expansion ends at the first order past r|t| whose Bessel coefficient is
negligible, and the result is refused if it changed the norm.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# Bessel coefficients below this (past order r|t|) end the expansion
CHEBYSHEV_TAIL = 1e-17
# allowed drift of the norm across one Chebyshev propagation
CHEBYSHEV_NORM_ATOL = 1e-10


class PropagationError(ArithmeticError):
    """e^{-iHt} cannot be applied to the required accuracy at bounded cost."""


def chebyshev_propagate(
    matvec: Callable[[np.ndarray], np.ndarray],
    centre: float,
    radius: float,
    amplitudes: np.ndarray,
    t: float,
) -> np.ndarray:
    """e^{-iHt} applied to the complex vector ``amplitudes``.

    ``matvec`` maps a real (m, dim) array to (H - centre)/radius applied
    to each row; m is 1 when ``amplitudes`` is real, else 2.  The spectrum
    of H must lie in [centre - radius, centre + radius].  The cost is
    about radius*|t| calls of ``matvec``; callers bound it.  Raises
    :class:`PropagationError` when the result's norm differs from the
    input's by more than ``CHEBYSHEV_NORM_ATOL`` (relative).
    """
    coef = _chebyshev_coefficients(radius * t)
    # (-i)^k = (-1)^(k//2) on even k and -i (-1)^(k//2) on odd k:
    # collect the two parities as real blocks, combine at the end
    coef[1:] *= 2.0
    coef[2::4] *= -1.0
    coef[3::4] *= -1.0
    real = not amplitudes.imag.any()
    prev = np.array([amplitudes.real] if real else [amplitudes.real, amplitudes.imag])
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
    if real:
        out = even[0] + 1j * -odd[0]
    else:
        out = (even[0] + odd[1]) + 1j * (even[1] - odd[0])
    out *= np.exp(-1j * centre * t)
    norm_in = np.linalg.norm(amplitudes)
    drift = abs(np.linalg.norm(out) - norm_in)
    if not drift <= CHEBYSHEV_NORM_ATOL * norm_in:
        raise PropagationError(
            f"Chebyshev propagation changed the norm by {drift:.2e} "
            f"(dimension {len(amplitudes)}, t = {t:g})"
        )
    return out


def _chebyshev_coefficients(x: float) -> np.ndarray:
    """J_k(x) for k = 0, 1, ... up to the first k > |x| with |J_k| < tail."""
    from scipy.special import jv

    span = 2.0 * abs(x) + 32.0
    while True:
        k = np.arange(int(span))
        j = jv(k, x)
        small = np.flatnonzero((k > abs(x)) & (np.abs(j) < CHEBYSHEV_TAIL))
        if small.size:
            return j[: small[0]]
        span *= 2.0
