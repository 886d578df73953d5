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
from numbers import Integral
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix

PairMap = dict[tuple[int, int], float]

# largest qubit count held as a dense 2^N state or matrix
MAX_DENSE_QUBITS = 14


def check_integer_count(n: int) -> None:
    """Refuse a qubit count that is not an integer (a bool or a float included)."""
    if isinstance(n, bool) or not isinstance(n, Integral):
        raise ValueError(f"qubit count must be an integer, got {n!r}")


def check_qubit_count(n: int) -> None:
    """Refuse a qubit count that is not an integer >= 2."""
    check_integer_count(n)
    if n < 2:
        raise ValueError(f"need at least 2 qubits, got {n}")


def check_dense_qubit_count(n: int) -> None:
    """Refuse a qubit count that is not an integer in 1..MAX_DENSE_QUBITS."""
    check_integer_count(n)
    if not 1 <= n <= MAX_DENSE_QUBITS:
        raise ValueError(f"dense states need 1..{MAX_DENSE_QUBITS} qubits, got {n}")


def _all_pairs(n: int) -> list[tuple[int, int]]:
    """Pairs (l, k), l < k, of n qubits; n must be an integer >= 2."""
    check_qubit_count(n)
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
        pairs = set(_all_pairs(self.n_qubits))
        for name, m in (("xy", self.xy), ("zz", self.zz)):
            if set(m) != pairs:
                raise ValueError(
                    f"{name} map must cover exactly the {len(pairs)} pairs (l, k) with l < k"
                )
        values = (*self.xy.values(), *self.zz.values(), self.g_ref, self.gz_ref)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("couplings and reference values must be finite")

    def is_ideal(self) -> bool:
        """True when every pair sits exactly at the reference couplings."""
        return all(
            self.xy[p] == self.g_ref and self.zz[p] == self.gz_ref
            for p in _all_pairs(self.n_qubits)
        )


def ideal(n: int, g: float, gz: float) -> CouplingGraph:
    """Uniform couplings g (XY) and gz (ZZ) on all C(n,2) pairs."""
    pairs = _all_pairs(n)
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
    pairs = _all_pairs(n)
    missing = [p for p in pairs if p not in xy_multipliers]
    if missing:
        raise ValueError(f"missing XY multipliers for pairs {missing}")
    extra = sorted(set(xy_multipliers) - set(pairs))
    if extra:
        raise ValueError(f"XY multipliers for pairs {extra} outside the {n}-qubit graph")
    for p, m in xy_multipliers.items():
        if not 0 < m <= 2:
            raise ValueError(f"multiplier {m} for pair {p} outside (0, 2]")
    xy = {p: g_ref * xy_multipliers[p] for p in pairs}
    zz = {p: gz_ref for p in pairs}
    return CouplingGraph(n, xy, zz, g_ref, gz_ref)


def _bit_arrays(n: int) -> list[np.ndarray]:
    """bits[k-1][i] = bit of qubit k (1-based, most significant first) in index i."""
    idx = np.arange(1 << n, dtype=np.int64)
    return [(idx >> (n - k)) & 1 for k in range(1, n + 1)]


class _ExchangePattern(NamedTuple):
    """Canonical CSR positions of the exchange Hamiltonian on n qubits."""

    indptr: np.ndarray  # int32, one per row plus one
    indices: np.ndarray  # int32 column of each entry
    slot: np.ndarray  # each entry's pair in _all_pairs(n) order; len(pairs) on the diagonal
    diagonal: np.ndarray  # position of each row's diagonal entry


# one pattern per qubit count 2..14, the range a dense state covers
@lru_cache(maxsize=13)
def _exchange_pattern(n: int) -> _ExchangePattern:
    """Nonzero positions of H for every coupling graph on n qubits.

    Every pair (l, k) moves an excitation between qubits l < k: from a row
    with qubit l set and k clear to the column d = 2^(n-l) - 2^(n-k) below
    it (a down move), and back from that column's row to d above (an up
    move).  The d are distinct, so rows list their down moves by d
    descending, then the diagonal, then their up moves by d ascending, and
    come out in ascending column order with nothing to sort.  The arrays
    are read-only: :func:`to_sparse` copies what it hands out.
    """
    pairs = _all_pairs(n)
    npairs = len(pairs)
    is_set = [b == 1 for b in _bit_arrays(n)]
    d = np.array([(1 << (n - l)) - (1 << (n - k)) for l, k in pairs])
    up = np.argsort(d)
    down = up[::-1]
    # the kinds of entry in row order: down moves by d descending, the
    # diagonal, up moves by d ascending; present[j, i] marks kind j in row i
    present = np.empty((2 * npairs + 1, 1 << n), dtype=bool)
    for j, p in enumerate(down):
        l, k = pairs[p]
        np.greater(is_set[l - 1], is_set[k - 1], out=present[j])
    present[npairs] = True
    for j, p in enumerate(up, npairs + 1):
        l, k = pairs[p]
        np.less(is_set[l - 1], is_set[k - 1], out=present[j])
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
    are built once per N and cached: 0.2 MB for all of N = 2..10, then
    0.3, 0.7, 1.7 and 4.0 MB at N = 11, 12, 13 and 14, 7.0 MB for all of
    N = 2..14.  The matrix owns its arrays, so a caller may modify it.
    """
    n = graph.n_qubits
    check_dense_qubit_count(n)
    dim = 1 << n
    # +1 where the qubit is set, -1 where it is clear; made in place, as
    # holding the bits and the signs at once raises the peak memory
    signs = _bit_arrays(n)
    for s in signs:
        s *= 2
        s -= 1

    diag = np.zeros(dim)
    for (l, k), gz in graph.zz.items():
        diag += 0.5 * gz * signs[l - 1] * signs[k - 1]

    pattern = _exchange_pattern(n)
    values = np.array([graph.xy[p] for p in _all_pairs(n)] + [0.0], dtype=float)
    data = values[pattern.slot]
    data[pattern.diagonal] = diag
    return csr_matrix(
        (data, pattern.indices.copy(), pattern.indptr.copy()), shape=(dim, dim)
    )


def star_to_delta(c_star: float, n: int) -> float:
    """Complete-graph pair capacitance equivalent to a common-island star: C/n."""
    if not (math.isfinite(c_star) and c_star > 0):
        raise ValueError(f"capacitance must be positive and finite, got {c_star}")
    check_qubit_count(n)
    return c_star / n

