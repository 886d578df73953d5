"""Byte-for-byte outputs against files kept in ``tests/golden/``.

The protocol files were written by the code before the pulse-plan
rewrite (the N = 8 and N = 10 files before the propagation paths were
reduced to two, the N = 12 and N = 14 files before a real start was
propagated on one row, the N = 2, 3, 7 and 1001 files before the pulse
loop moved into ``ghznet.dense``); the sweep CSV and the four-qubit optimizer
results were written by the code before the objective was rebuilt on raw
arrays, and the two seed-9 sweeps before the multistart drew all its
starts in one call; ``execute_bits.txt`` holds the sha256 of every ideal
``execute`` state for N = 2..9 on both engines, written before ``execute``
rotated raw arrays; ``execute_bits_large.txt`` holds the same for the
dense engine at N = 10..14, written before the Hamiltonian was filled
into a cached per-N sparsity pattern; the eigenvalue table was written
before ``ghznet optimize`` shared the sweep's row builder.  A change that
keeps behaviour keeps every byte of them.
"""

import hashlib
from pathlib import Path

import pytest

from ghznet.cli import EXIT_NUMERICAL, EXIT_OK, main
from ghznet.couplings import ideal, perturbed_general
from ghznet.optimizer import optimize, optimize_restricted_n4, problem_even_full
from ghznet.protocol import compile_plan, execute

GOLDEN = Path(__file__).with_name("golden")

# a fixed unequal four-qubit network for the even-family optimizer goldens
N4_MULTIPLIERS = {
    (1, 2): 0.97, (1, 3): 0.93, (1, 4): 0.99,
    (2, 3): 0.91, (2, 4): 0.95, (3, 4): 0.98,
}


@pytest.mark.parametrize(
    "argv, name",
    [
        (["--n", "4", "--g", "1", "--gz", "0.05"], "protocol_n4_g1_gz0.05.txt"),
        (["--n", "4", "--g", "0.5", "--gz", "1"], "protocol_n4_g0.5_gz1.txt"),
        (
            ["--n", "5", "--g", "1", "--gz", "0.05", "--engine", "symmetric"],
            "protocol_n5_g1_gz0.05_symmetric.txt",
        ),
        # N > 6: the Chebyshev path
        (["--n", "8", "--g", "1", "--gz", "0.05"], "protocol_n8_g1_gz0.05.txt"),
        (["--n", "10", "--g", "1", "--gz", "-0.05"], "protocol_n10_g1_gz-0.05.txt"),
        # the largest dense runs: odd, and the strong-ZZ even family
        (["--n", "14", "--g", "1", "--gz", "0.05"], "protocol_n14_g1_gz0.05.txt"),
        (["--n", "12", "--g", "0.5", "--gz", "1"], "protocol_n12_g0.5_gz1.txt"),
        # N = 2, 3 and 7 on both engines, at the default couplings and in
        # the strong-ZZ family, and the symmetric engine far past the cap
        *[
            ([*argv, *engine], f"protocol_n{n}_{tag}{suffix}.txt")
            for n in (2, 3, 7)
            for argv, tag in (
                (["--n", str(n)], "g1_gz0"),
                (["--n", str(n), "--g", "0.5", "--gz", "1"], "g0.5_gz1"),
            )
            for engine, suffix in (([], ""), (["--engine", "symmetric"], "_symmetric"))
        ],
        (["--n", "1001", "--engine", "symmetric"], "protocol_n1001_g1_gz0_symmetric.txt"),
    ],
)
def test_protocol_stdout(argv, name, capsys):
    assert main(["protocol", *argv]) == EXIT_OK
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


def test_eigs_csv(tmp_path, capsys):
    out = tmp_path / "eigs.csv"
    assert main(["eigs", "--n", "6", "--g", "1", "--gz", "0.2", "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / "eigs_n6_g1_gz0.2.csv").read_bytes()


def test_optimize_default_csv(tmp_path, capsys):
    out = tmp_path / "optimize.csv"
    assert main(["optimize", "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / "optimize_default.csv").read_bytes()


def test_sweep_default_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / "sweep_default.csv").read_bytes()


@pytest.mark.parametrize(
    "steps, extra, name, code, flagged",
    [
        (4, [], "sweep_eta13_0.3x4_r3_s9.csv", EXIT_OK, 0),
        # 50 evaluations stop every row's best start before it converges
        (7, ["--max-evals", "50"], "sweep_eta13_0.3x7_r3_s9_e50.csv", EXIT_NUMERICAL, 7),
    ],
)
def test_sweep_seed_9_csv(steps, extra, name, code, flagged, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    grid = ["--eta13-stop", "0.3", "--eta13-steps", str(steps)]
    argv = ["sweep", *grid, "--restarts", "3", "--seed", "9", *extra, "--out", str(out)]
    assert main(argv) == code
    assert capsys.readouterr().out.endswith(f" ({steps} rows, {flagged} flagged)\n")
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def n4_results_text() -> str:
    """Exact reprs of both even-family corrections of the fixed network."""
    graph = perturbed_general(4, 1.0, 0.05, N4_MULTIPLIERS)
    lines = []
    for name, result in [
        ("restricted", optimize_restricted_n4(graph)),
        ("full", optimize(problem_even_full(graph))),
    ]:
        lines += [
            f"{name} t_opt {result.t_opt!r}",
            f"{name} angles_opt {result.angles_opt.tolist()!r}",
            f"{name} fidelity {result.fidelity!r}",
            f"{name} objective_evaluations {result.objective_evaluations!r}",
        ]
    return "\n".join(lines) + "\n"


def test_benchmark_sweep_golden_is_this_golden():
    # the benchmark checks its sweep against its own copy of this file;
    # the two must not drift apart
    bench = GOLDEN.parent.parent / "perfbench" / "expected_sweep.csv"
    assert bench.read_bytes() == (GOLDEN / "sweep_default.csv").read_bytes()


def test_n4_optimizer_results():
    assert n4_results_text().encode() == (GOLDEN / "optimize_n4.txt").read_bytes()


# (g, gz): odd/even weak ZZ, the strong-ZZ even family, negative ZZ
EXECUTE_COUPLINGS = [(1.0, 0.05), (0.5, 1.0), (1.0, -0.05)]


def execute_bits_text() -> str:
    """sha256 of the raw amplitude bytes of every ideal run, N = 2..9."""
    lines = []
    for n in range(2, 10):
        for g, gz in EXECUTE_COUPLINGS:
            plan = compile_plan(n, g, gz)
            for engine in ("dense", "symmetric"):
                amps = execute(plan, ideal(n, g, gz), engine=engine).amplitudes
                digest = hashlib.sha256(amps.tobytes()).hexdigest()
                lines.append(f"{n} {g!r} {gz!r} {engine} {digest}")
    return "\n".join(lines) + "\n"


def test_execute_bits():
    assert execute_bits_text().encode() == (GOLDEN / "execute_bits.txt").read_bytes()


def execute_bits_large_text() -> str:
    """sha256 of the raw amplitude bytes of every ideal dense run, N = 10..14."""
    lines = []
    for n in range(10, 15):
        for g, gz in EXECUTE_COUPLINGS:
            amps = execute(compile_plan(n, g, gz), ideal(n, g, gz)).amplitudes
            digest = hashlib.sha256(amps.tobytes()).hexdigest()
            lines.append(f"{n} {g!r} {gz!r} dense {digest}")
    return "\n".join(lines) + "\n"


def test_execute_bits_large():
    assert (
        execute_bits_large_text().encode()
        == (GOLDEN / "execute_bits_large.txt").read_bytes()
    )
