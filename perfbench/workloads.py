"""The benchmark's workloads: fixed operation lists with output checks.

Each operation is a call into ghznet's public API, timed on its own; its
check runs afterwards, untimed.  A check returns one ``(ok, infidelity)``
item per result the operation produces (the sweep produces eleven rows),
so a failing row is counted, never dropped.  Tolerances are those of the
acceptance suite.

* ``correct`` -- optimizer-bound: the default ``ghznet sweep`` through the
  CLI (eleven three-qubit corrections, fixed inputs) plus restricted and
  full four-qubit corrections on graphs drawn from the seed.
* ``verify`` -- propagation-bound: the exact protocol for n = 2..14 and the
  strong-ZZ even runs.  Each operation builds one propagator and applies
  it once.
* ``scale`` -- symmetric-engine-bound: W-basis runs at N = 1001..3001 and
  the ``embed`` path of ``execute(engine="symmetric")``.

The seed draws the four-qubit graphs of ``correct``.  ``verify`` and
``scale`` have fixed inputs; running their operations in a fixed order
keeps their peak memory the same from run to run.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from ghznet import cli, couplings, dense, optimizer, protocol, symmetric

EXPECTED_SWEEP = Path(__file__).with_name("expected_sweep.csv")
SWEEP_ROWS = 11
N4_TRIALS = 2
N4_PAIRS = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
VERIFY_COUPLINGS = [(1.0, 0.0), (1.0, 0.05), (1.0, -0.05)]
SCALE_SIZES = (1001, 2001, 3001)

# Exact protocols resolve infidelity only down to their check tolerance;
# a passing result counts at that floor, so the mean moves only with the
# corrected (inexact) results.
VERIFY_FIDELITY_TOL = 1e-10
SCALE_FIDELITY_TOL = 1e-8

CheckItem = tuple[bool, "float | None"]


@dataclass(frozen=True)
class Op:
    label: str
    size: int  # results the operation produces, each checked on its own
    run: Callable[[], object]
    check: Callable[[object], list[CheckItem]]


@dataclass(frozen=True)
class Workload:
    ops: list[Op]
    warmup: Callable[[], object]


def _aligned_fidelity(state: np.ndarray, target: np.ndarray) -> float:
    ov = np.vdot(target, state)
    return 1.0 - float(np.linalg.norm(state * (ov.conjugate() / abs(ov)) - target))


def _floored(fid: float, tol: float) -> CheckItem:
    return fid >= 1 - tol, max(1.0 - fid, tol)


# --------------------------------------------------------------------- correct


def _sweep_op(out_dir: Path) -> Op:
    csv_path = out_dir / "sweep.csv"
    expected = EXPECTED_SWEEP.read_bytes().splitlines(keepends=True)

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["sweep", "--out", str(csv_path)])
        return code, csv_path.read_bytes()

    def check(out) -> list[CheckItem]:
        code, data = out
        got = data.splitlines(keepends=True)
        if code != 0 or len(got) != len(expected) or got[0] != expected[0]:
            return [(False, None)] * SWEEP_ROWS
        items = []
        for line, want in zip(got[1:], expected[1:]):
            f_opt, f_unc = (float(v) for v in line.decode().split(",")[5:7])
            ok = line == want and f_opt >= f_unc and f_opt >= 0.99
            items.append((ok, 1.0 - f_opt))
        return items

    return Op("sweep", SWEEP_ROWS, run, check)


def _n4_op(trial: int, graph) -> Op:
    def run():
        restricted = optimizer.optimize_restricted_n4(graph)
        full = optimizer.optimize(optimizer.problem_even_full(graph))
        return restricted, full

    def check(out) -> list[CheckItem]:
        restricted, full = out
        f_unc = optimizer.uncorrected_fidelity(optimizer.problem_even_full(graph))
        ok = abs(restricted.fidelity - full.fidelity) <= 1e-3 and restricted.fidelity >= f_unc
        # the four-qubit infidelity depends on the drawn graph, not only on
        # the optimizer, so it is checked but left out of the mean
        return [(ok, None)]

    return Op(f"n4-trial-{trial}", 1, run, check)


def _correct(seed: int, out_dir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    graphs = [
        couplings.perturbed_general(
            4, 1.0, 0.05, {p: rng.uniform(0.9, 1.0) for p in N4_PAIRS}
        )
        for _ in range(N4_TRIALS)
    ]
    ops = [_sweep_op(out_dir)] + [_n4_op(k, g) for k, g in enumerate(graphs)]

    def warmup():
        return optimizer.uncorrected_fidelity(optimizer.problem_even_full(graphs[0]))

    return Workload(ops, warmup)


# ---------------------------------------------------------------------- verify


def _verify_op(n: int, g: float, gz: float) -> Op:
    def check(out) -> list[CheckItem]:
        fid, measured = out
        expected = protocol.compile_plan(n, g, gz).expected_phase.phase
        ok, infid = _floored(fid, VERIFY_FIDELITY_TOL)
        return [(ok and abs(measured.phase - expected) <= 1e-8, infid)]

    return Op(f"verify-{n}-{g}-{gz}", 1, lambda: protocol.verify(n, g, gz), check)


def _strong_zz_op(n: int) -> Op:
    g, gz = 0.5, 1.0

    def run():
        return protocol.execute(protocol.compile_plan(n, g, gz), couplings.ideal(n, g, gz))

    def check(psi) -> list[CheckItem]:
        ratio = psi.amplitudes[-1] / psi.amplitudes[0]
        return [(abs(ratio - 1) <= 1e-8, None)]

    return Op(f"strong-zz-{n}", 1, run, check)


def _verify(seed: int, out_dir: Path) -> Workload:
    ops = [_verify_op(n, g, gz) for n in range(2, 15) for g, gz in VERIFY_COUPLINGS]
    ops += [_strong_zz_op(n) for n in range(2, 15, 2)]
    return Workload(ops, lambda: protocol.verify(4, 1.0, 0.05))


# ----------------------------------------------------------------------- scale


def _w_basis_op(n: int) -> Op:
    def run():
        return protocol.execute_symmetric(protocol.compile_plan(n, 1.0, 0.05), 1.0, 0.05)

    def check(w) -> list[CheckItem]:
        fid = _aligned_fidelity(w.coeffs, symmetric.ghz_w_target(n).coeffs)
        return [_floored(fid, SCALE_FIDELITY_TOL)]

    return Op(f"w-basis-{n}", 1, run, check)


def _embed_op(n: int) -> Op:
    def run():
        return protocol.execute(
            protocol.compile_plan(n, 1.0, 0.05), couplings.ideal(n, 1.0, 0.05),
            engine="symmetric",
        )

    def check(psi) -> list[CheckItem]:
        target = protocol.ghz_target(n).state
        return [_floored(dense.fidelity_frobenius(psi, target, align_phase=True), SCALE_FIDELITY_TOL)]

    return Op(f"embed-{n}", 1, run, check)


def _scale(seed: int, out_dir: Path) -> Workload:
    ops = [_w_basis_op(n) for n in SCALE_SIZES] + [_embed_op(n) for n in range(2, 15)]
    return Workload(ops, _embed_op(4).run)


BUILDERS = {"correct": _correct, "verify": _verify, "scale": _scale}


def build(name: str, seed: int, out_dir: Path) -> Workload:
    """Inputs of workload ``name`` drawn from ``seed``; files go to ``out_dir``."""
    return BUILDERS[name](seed, out_dir)
