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

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

PairMap = dict[tuple[int, int], float]


def _all_pairs(n: int) -> list[tuple[int, int]]:
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
        if self.n_qubits < 2:
            raise ValueError(f"need at least 2 qubits, got {self.n_qubits}")
        pairs = set(_all_pairs(self.n_qubits))
        for name, m in (("xy", self.xy), ("zz", self.zz)):
            if set(m) != pairs:
                raise ValueError(
                    f"{name} map must cover exactly the {len(pairs)} pairs (l, k) with l < k"
                )

    def is_ideal(self) -> bool:
        """True when every pair sits exactly at the reference couplings."""
        # a zero difference, not ==, so that an infinite coupling is never ideal
        return all(
            abs(self.xy[p] - self.g_ref) <= 0 and abs(self.zz[p] - self.gz_ref) <= 0
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


def to_sparse(graph: CouplingGraph) -> csr_matrix:
    """Sparse float64 CSR matrix of the exchange Hamiltonian.

    The Hamiltonian is real symmetric in the computational basis for any
    graph: the ZZ part is diagonal, and each XY bond (l, k) couples every
    pair of indices related by swapping an excitation between qubits l and
    k with matrix element g_lk.
    """
    n = graph.n_qubits
    dim = 1 << n
    idx = np.arange(dim, dtype=np.int64)
    bits = _bit_arrays(n)

    diag = np.zeros(dim)
    for (l, k), gz in graph.zz.items():
        diag += 0.5 * gz * (2 * bits[l - 1] - 1) * (2 * bits[k - 1] - 1)

    rows = [idx]
    cols = [idx]
    vals = [diag]
    for (l, k), g in graph.xy.items():
        sel = idx[(bits[l - 1] == 1) & (bits[k - 1] == 0)]
        partner = sel - (1 << (n - l)) + (1 << (n - k))
        coupling = np.full(len(sel), g)
        rows += [sel, partner]
        cols += [partner, sel]
        vals += [coupling, coupling]

    mat = csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )
    mat.sum_duplicates()
    return mat


def star_to_delta(c_star: float, n: int) -> float:
    """Complete-graph pair capacitance equivalent to a common-island star: C/n."""
    if c_star <= 0:
        raise ValueError(f"capacitance must be positive, got {c_star}")
    if n < 2:
        raise ValueError(f"need at least 2 qubits, got {n}")
    return c_star / n


def graph_to_dict(graph: CouplingGraph) -> dict:
    """JSON-friendly form with pair keys 'l-k'."""
    return {
        "n_qubits": graph.n_qubits,
        "g_ref": graph.g_ref,
        "gz_ref": graph.gz_ref,
        "xy": {f"{l}-{k}": v for (l, k), v in sorted(graph.xy.items())},
        "zz": {f"{l}-{k}": v for (l, k), v in sorted(graph.zz.items())},
    }


def graph_from_dict(data: dict) -> CouplingGraph:
    def parse(m: dict) -> PairMap:
        out: PairMap = {}
        for key, v in m.items():
            l, k = (int(s) for s in key.split("-"))
            out[(l, k)] = float(v)
        return out

    return CouplingGraph(
        n_qubits=int(data["n_qubits"]),
        xy=parse(data["xy"]),
        zz=parse(data["zz"]),
        g_ref=float(data["g_ref"]),
        gz_ref=float(data["gz_ref"]),
    )
