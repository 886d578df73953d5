"""Coupling graphs for fully connected exchange networks.

A :class:`CouplingGraph` stores per-pair XY and ZZ coupling strengths for
the complete graph on N qubits, together with the reference values used by
the protocol compiler.  The pairwise interaction is

    H = (1/2) sum_{l<k} [ g_lk (X_l X_k + Y_l Y_k) + gz_lk Z_l Z_k ]

Constructors cover the ideal uniform network, the three-qubit single-bond
error model (one reference bond g12, fractional deficits eta on the other
two bonds, ZZ at a fixed ratio kappa of XY), and a general per-pair
multiplier model used for the four-qubit study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral, Real
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix

PairMap = dict[tuple[int, int], float]

# largest qubit count held as a dense 2^N state or matrix
MAX_DENSE_QUBITS = 14


def check_integer(x: int, name: str) -> int:
    """``x`` as an int, if it is an integer (not a bool)."""
    if isinstance(x, bool) or not isinstance(x, Integral):
        raise ValueError(f"{name} must be an integer, got {x!r}")
    return int(x)


def check_qubit_count(n: int, minimum: int = 2) -> int:
    """``n`` as an int, if it is an integer (not a bool) >= ``minimum``."""
    n = check_integer(n, "qubit count")
    if n < minimum:
        raise ValueError(f"need at least {minimum} qubits, got {n}")
    return n


def check_dense_qubit_count(n: int, minimum: int = 1) -> int:
    """:func:`check_qubit_count`, and at most ``MAX_DENSE_QUBITS``."""
    n = check_qubit_count(n, minimum)
    if n > MAX_DENSE_QUBITS:
        raise ValueError(f"dense states need 1..{MAX_DENSE_QUBITS} qubits, got {n}")
    return n


def check_real(x: float, name: str) -> float:
    """``x`` as a Python float, if it is a real number (not a bool) in the float range."""
    try:
        if isinstance(x, Real) and not isinstance(x, bool) and math.isfinite(x):
            return float(x)
    except OverflowError:  # an int or a fraction beyond the float range
        pass
    raise ValueError(f"{name} must be a finite real number, got {x!r}")


def _all_pairs(n: int) -> list[tuple[int, int]]:
    """Pairs (l, k), l < k, of n qubits, for an n :func:`check_qubit_count` returned."""
    return [(l, k) for l in range(1, n + 1) for k in range(l + 1, n + 1)]


@dataclass(frozen=True)
class CouplingGraph:
    """Per-pair XY and ZZ couplings on the complete graph of ``n_qubits``."""

    n_qubits: int
    xy: PairMap
    zz: PairMap
    g_ref: float
    gz_ref: float

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", check_qubit_count(self.n_qubits))
        pairs = set(_all_pairs(self.n_qubits))
        for name, m in (("xy", self.xy), ("zz", self.zz)):
            if set(m) != pairs:
                raise ValueError(
                    f"{name} map must cover exactly the {len(pairs)} pairs (l, k) with l < k: "
                    f"missing {sorted(pairs - set(m))}, outside {sorted(set(m) - pairs)}"
                )
            object.__setattr__(self, name, {p: check_real(v, name) for p, v in m.items()})
        for name in ("g_ref", "gz_ref"):
            object.__setattr__(self, name, check_real(getattr(self, name), name))

    def is_ideal(self) -> bool:
        """True when every pair sits exactly at the reference couplings."""
        return all(
            self.xy[p] == self.g_ref and self.zz[p] == self.gz_ref
            for p in _all_pairs(self.n_qubits)
        )


def ideal(n: int, g: float, gz: float) -> CouplingGraph:
    """Uniform couplings g (XY) and gz (ZZ) on all C(n,2) pairs."""
    pairs = _all_pairs(check_qubit_count(n))
    return CouplingGraph(n, {p: g for p in pairs}, {p: gz for p in pairs}, g, gz)


def perturbed_n3(
    g12: float,
    eta23: float,
    eta13: float,
    kappa: float,
    zz_mode: str = "proportional",
) -> CouplingGraph:
    """Three-qubit network with bond (1,2) as reference and weakened other bonds.

    XY couplings: g12 on (1,2), g12(1 - eta23) on (2,3), g12(1 - eta13) on
    (1,3); each deficit lies in [0, 1), so every bond stays positive.  The
    ZZ couplings sit at ratio kappa of the XY couplings:
    ``zz_mode="proportional"`` scales each bond's own XY value (each pair
    keeps the same anisotropy ratio), while ``zz_mode="uniform"`` puts
    kappa*g12 on every pair.
    """
    names = ("g12", "eta23", "eta13", "kappa")
    g12, eta23, eta13, kappa = map(check_real, (g12, eta23, eta13, kappa), names)
    if g12 <= 0:
        raise ValueError(f"reference coupling must be positive, got {g12}")
    if not (0 <= eta23 < 1 and 0 <= eta13 < 1):
        raise ValueError(f"coupling deficits eta must lie in [0, 1), got {eta23}, {eta13}")
    xy = {(1, 2): g12, (2, 3): g12 * (1.0 - eta23), (1, 3): g12 * (1.0 - eta13)}
    if zz_mode == "proportional":
        zz = {p: kappa * v for p, v in xy.items()}
    elif zz_mode == "uniform":
        zz = {p: kappa * g12 for p in xy}
    else:
        raise ValueError(f"zz_mode must be 'proportional' or 'uniform', got {zz_mode!r}")
    return CouplingGraph(3, xy, zz, g12, kappa * g12)


def perturbed_general(
    n: int,
    g_ref: float,
    gz_ref: float,
    xy_multipliers: PairMap,
) -> CouplingGraph:
    """XY couplings g_ref * multiplier per pair; ZZ uniform at gz_ref."""
    g_ref = check_real(g_ref, "g_ref")
    zz = {p: gz_ref for p in _all_pairs(check_qubit_count(n))}
    multipliers = {p: check_real(m, f"multiplier {p}") for p, m in xy_multipliers.items()}
    for p, m in multipliers.items():
        if not 0 < m <= 2:
            raise ValueError(f"multiplier {m} for pair {p} outside (0, 2]")
    # CouplingGraph refuses multipliers for pairs missing or outside the graph
    xy = {p: g_ref * m for p, m in multipliers.items()}
    return CouplingGraph(n, xy, zz, g_ref, gz_ref)


class _ExchangePattern(NamedTuple):
    """Canonical CSR positions of the exchange Hamiltonian on n qubits."""

    indptr: np.ndarray  # int32, one per row plus one
    indices: np.ndarray  # int32 column of each entry
    slot: np.ndarray  # each entry's pair in _all_pairs(n) order; len(pairs) on the diagonal
    diagonal: np.ndarray  # position of each row's diagonal entry
    signs: np.ndarray  # int8 (n, 2^n): row k-1 is +1 where qubit k is set, else -1


# one pattern per qubit count 2..14, the range a dense state covers
@lru_cache(maxsize=13)
def _exchange_pattern(n: int) -> _ExchangePattern:
    """Nonzero positions of H for every coupling graph on n qubits.

    Every pair (l, k) moves an excitation between qubits l < k: from a row
    with qubit l set and k clear to the column d = 2^(n-l) - 2^(n-k) below
    it (a down move), and back from that column's row to d above (an up
    move).  The d are distinct, so rows list their down moves by d
    descending, then the diagonal, then their up moves by d ascending, and
    come out in ascending column order with nothing to sort.  Qubit k is
    bit n - k of an index (qubit 1 the most significant); ``signs`` holds
    it as +1 (set) or -1 (clear), for the masks here and the ZZ diagonal
    of :func:`to_sparse`.  The arrays are read-only: :func:`to_sparse`
    copies what it hands out.
    """
    pairs = _all_pairs(n)
    npairs = len(pairs)
    shifts = np.arange(n - 1, -1, -1)[:, None]
    signs = (2 * ((np.arange(1 << n) >> shifts) & 1) - 1).astype(np.int8)
    d = np.array([(1 << (n - l)) - (1 << (n - k)) for l, k in pairs])
    up = np.argsort(d)
    down = up[::-1]
    # the kinds of entry in row order: down moves by d descending, the
    # diagonal, up moves by d ascending; present[j, i] marks kind j in row i
    present = np.empty((2 * npairs + 1, 1 << n), dtype=bool)
    for j, p in enumerate(down):
        l, k = pairs[p]
        np.greater(signs[l - 1], signs[k - 1], out=present[j])
    present[npairs] = True
    for j, p in enumerate(up, npairs + 1):
        l, k = pairs[p]
        np.less(signs[l - 1], signs[k - 1], out=present[j])
    counts = present.sum(axis=0)
    indptr = np.zeros((1 << n) + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    rows = np.repeat(np.arange(1 << n, dtype=np.int32), counts)
    kind = np.flatnonzero(present.T) - len(present) * rows
    offset = np.concatenate([-d[down], [0], d[up]]).astype(np.int32)
    slot = np.concatenate([down, [npairs], up]).astype(np.min_scalar_type(npairs))
    pattern = _ExchangePattern(
        indptr=indptr,
        indices=rows + offset[kind],
        slot=slot[kind],
        diagonal=np.flatnonzero(kind == npairs),
        signs=signs,
    )
    for a in pattern:
        a.setflags(write=False)
    return pattern


def to_sparse(graph: CouplingGraph) -> csr_matrix:
    """Sparse float64 CSR matrix of the exchange Hamiltonian.

    The Hamiltonian is real symmetric in the computational basis for any
    graph: the ZZ part is diagonal, and each XY bond (l, k) couples every
    pair of indices related by swapping an excitation between qubits l and
    k with matrix element g_lk.

    The matrix is in canonical format and keeps explicit zeros (a zero
    coupling still has its entries).  Its positions depend on N alone and
    are built once per N and cached, with the int8 qubit signs of its ZZ
    diagonal: 0.2 MB for all of N = 2..10, then 0.3, 0.8, 1.8 and 4.2 MB
    at N = 11, 12, 13 and 14, 7.5 MB for all of N = 2..14.  The matrix
    owns its arrays, so a caller may modify it.
    """
    n = check_dense_qubit_count(graph.n_qubits)
    dim = 1 << n
    pattern = _exchange_pattern(n)
    signs = pattern.signs
    diag = np.zeros(dim)
    for (l, k), gz in graph.zz.items():
        diag += 0.5 * gz * signs[l - 1] * signs[k - 1]

    values = np.array([graph.xy[p] for p in _all_pairs(n)] + [0.0], dtype=float)
    data = values[pattern.slot]
    data[pattern.diagonal] = diag
    return csr_matrix(
        (data, pattern.indices.copy(), pattern.indptr.copy()), shape=(dim, dim)
    )


def star_to_delta(c_star: float, n: int) -> float:
    """Complete-graph pair capacitance equivalent to a common-island star: C/n."""
    c_star = check_real(c_star, "capacitance")
    if c_star <= 0:
        raise ValueError(f"capacitance must be positive and finite, got {c_star}")
    n = check_qubit_count(n)
    try:
        return c_star / n
    except OverflowError:  # the division converts n to a float
        raise ValueError(f"qubit count beyond the float range ({n.bit_length()} bits)") from None

