"""Command-line front end.

Subcommands::

    eigs        eigenvalue table of the uniform exchange network (CSV)
    protocol    compile + run the GHZ sequence, report fidelity and phase
    optimize    correct pulse parameters for an imperfect 3-qubit network
    sweep       optimization sweep over a grid of coupling deficits (CSV)
    star2delta  pair coupling of the complete graph equivalent to a star

Parameters come from a JSON config file (``--config``); command-line flags
override file values.  Every config key of a command has a ``--kebab-case``
flag (``--n`` for ``n_qubits``).  Unknown config keys and non-finite
numbers are rejected.  Exit codes: 0 success, 1 input error, 2 numerical
failure.  A count beyond int64 (``--max-evals``, ``--restarts``,
``--eta13-steps``) and a size whose arrays cannot be allocated are input
errors.

Couplings are dimensionless rates.  ``--report-mhz G`` additionally prints
pulse times in nanoseconds, treating the XY coupling as an angular
frequency 2*pi*G MHz (a coupling of g/2pi = 10 MHz gives a ~25 ns
entangling pulse).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields

import numpy as np

from .couplings import MAX_COUNT, check_integer, dense_hamiltonian, ideal, perturbed_n3, star_to_delta
from .dense import NoGlobalPhaseError, StateVector, phase_aligned
from .optimizer import (
    OptimizerConfig,
    SWEEP_COLUMNS,
    correction_row,
    optimize,
    problem_odd,
    row_cells,
    sweep,
    write_sweep_csv,
)
from .protocol import _verify_plan, compile_plan, ghz_target
from .symmetric import WBasisState, analytic_eigenvalues, embed

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NUMERICAL = 2

# the optimize and sweep keys that OptimizerConfig holds, typed by its defaults
_OPTIMIZER_KEYS = {f.name: (type(f.default), f.default) for f in fields(OptimizerConfig)}
# per-command config schema: key -> (type, default)
SCHEMAS: dict[str, dict[str, tuple[type, object]]] = {
    "eigs": {
        "n_qubits": (int, 3),
        "g": (float, 1.0),
        "gz": (float, 0.0),
        "out": (str, "eigs.csv"),
    },
    "protocol": {
        "n_qubits": (int, 3),
        "g": (float, 1.0),
        "gz": (float, 0.0),
        "engine": (str, "dense"),
        "report_mhz": (float, 0.0),
    },
    "optimize": {
        "g12": (float, 1.0),
        "eta23": (float, 0.02),
        "eta13": (float, 0.06),
        "kappa": (float, 0.05),
        "zz_mode": (str, "proportional"),
        **_OPTIMIZER_KEYS,
        "out": (str, "optimize.csv"),
    },
    "sweep": {
        "g12": (float, 1.0),
        "eta23": (float, 0.02),
        "kappa": (float, 0.05),
        "zz_mode": (str, "proportional"),
        "eta13_start": (float, 0.0),
        "eta13_stop": (float, 0.10),
        "eta13_steps": (int, 11),
        **_OPTIMIZER_KEYS,
        "out": (str, "sweep.csv"),
    },
    "star2delta": {
        "c_star": (float, 1.0),
        "n_qubits": (int, 2),
    },
}
# keys a command also takes positionally, in order: ghznet star2delta 3.0 3
POSITIONALS = {"star2delta": ("c_star", "n_qubits")}


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


def load_config(command: str, path: str | None, overrides: dict) -> dict:
    """Merge defaults, config-file values, and flag overrides for a command.

    Unknown keys in the file or the overrides are rejected; values are
    coerced to the schema's types, and booleans for numeric keys, NaN or
    infinite floats and non-integral numbers for integer keys are rejected.
    The result serializes back to JSON and reparses to itself.
    """
    schema = SCHEMAS[command]
    values = {key: default for key, (_, default) in schema.items()}
    layers = []
    if path is not None:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        layers.append(data)
    layers.append(overrides)
    for layer in layers:
        for key, raw in layer.items():
            if key not in schema:
                raise ConfigError(f"unknown config key {key!r} for command {command!r}")
            typ = schema[key][0]
            # float(True) is 1.0: a boolean is not a number
            if typ in (int, float) and isinstance(raw, bool):
                raise ConfigError(f"config key {key!r}: {raw!r} is not a number")
            # int(3.7) truncates: not a count
            if typ is int and isinstance(raw, float) and not raw.is_integer():
                raise ConfigError(f"config key {key!r}: {raw!r} is not an integer")
            try:
                values[key] = typ(raw)
            except (TypeError, ValueError, OverflowError) as exc:  # float(10**400) overflows
                raise ConfigError(f"config key {key!r}: {exc}") from exc
            if typ is float and not math.isfinite(values[key]):
                raise ConfigError(f"config key {key!r}: {raw!r} is not finite")
    return values


def _state_lines(psi: StateVector) -> list[str]:
    """State-vector report rows: index,bitstring,real,imag at 6 decimals."""
    n = psi.n_qubits
    return [
        f"{i},{i:0{n}b},{a.real:.6f},{a.imag:.6f}"
        for i, a in enumerate(psi.amplitudes)
    ]


def cmd_eigs(cfg: dict) -> int:
    n, g, gz = cfg["n_qubits"], cfg["g"], cfg["gz"]
    lam = analytic_eigenvalues(n, g, gz)
    h = dense_hamiltonian(ideal(n, g, gz)) if n <= 10 else None
    lines = ["j,lambda_analytic,lambda_numeric,abs_diff"]
    for j in range(n + 1):
        if h is None:
            lines.append(f"{j},{lam[j]:.12g},,")
        else:
            # the Rayleigh quotient of H on the dense |W_j>
            w = embed(WBasisState(n, np.eye(n + 1)[j])).amplitudes
            numeric = float(np.real(np.vdot(w, h @ w)))
            diff = abs(lam[j] - numeric)
            lines.append(f"{j},{lam[j]:.12g},{numeric:.12g},{diff:.3e}")
    with open(cfg["out"], "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {cfg['out']} ({n + 1} eigenvalues)")
    return EXIT_OK


def cmd_protocol(cfg: dict) -> int:
    n, g, gz = cfg["n_qubits"], cfg["g"], cfg["gz"]
    if cfg["report_mhz"] < 0:
        raise ConfigError(f"report_mhz must be >= 0 (0 = off), got {cfg['report_mhz']}")
    plan = compile_plan(n, g, gz)
    # run first, so a rejected engine or a failed run prints no plan
    fid, measured = _verify_plan(plan, g, gz, cfg["engine"])
    print(json.dumps(plan.to_dict(), indent=2))
    expected = plan.expected_phase.phase
    print(f"fidelity {fid:.6f}")
    for name, z in (("expected", expected), ("measured", measured.phase)):
        # rounded, +0.0 turns a -0.0 of rounding noise into +0.000000
        re, im = (round(float(x), 6) + 0.0 for x in (z.real, z.imag))
        print(f"{name} phase {re:+.6f}{im:+.6f}i")
    if cfg["report_mhz"] > 0:
        t_ns = plan.entangle_duration * 1e3 / (2 * np.pi * cfg["report_mhz"])
        print(f"entangling pulse {t_ns:.3f} ns at g/2pi = {cfg['report_mhz']:g} MHz")
    if not fid >= 1 - 1e-8:
        print("fidelity below the exactness threshold", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _optimizer_config(cfg: dict) -> OptimizerConfig:
    return OptimizerConfig(**{key: cfg[key] for key in _OPTIMIZER_KEYS})


def cmd_optimize(cfg: dict) -> int:
    graph = perturbed_n3(
        cfg["g12"], cfg["eta23"], cfg["eta13"], cfg["kappa"], zz_mode=cfg["zz_mode"]
    )
    problem = problem_odd(graph)
    result = optimize(problem, _optimizer_config(cfg))
    row = correction_row(cfg["eta13"], problem, result)
    psi = problem.run(np.concatenate([[result.t_opt], result.angles_opt]))
    # align residual global phase the same way the objective does
    amps = phase_aligned(psi.amplitudes, ghz_target(3).state.amplitudes)
    lines = [",".join(SWEEP_COLUMNS), ",".join(row_cells(row)), ""]
    lines += ["index,bitstring,real,imag", *_state_lines(StateVector(3, amps))]
    with open(cfg["out"], "w") as fh:
        fh.write("\n".join(lines) + "\n")
    f_opt, f_unc = row["F_opt"], row["F_uncorrected"]
    print(f"wrote {cfg['out']}: F_opt {f_opt:.6f}, F_uncorrected {f_unc:.6f}")
    return EXIT_OK if result.converged else EXIT_NUMERICAL


def cmd_sweep(cfg: dict) -> int:
    # np.linspace would name neither the key nor the rule
    steps = check_integer(cfg["eta13_steps"], "eta13_steps", 1, MAX_COUNT)
    grid = np.linspace(cfg["eta13_start"], cfg["eta13_stop"], steps)
    rows = sweep(
        grid,
        g12=cfg["g12"],
        eta23=cfg["eta23"],
        kappa=cfg["kappa"],
        config=_optimizer_config(cfg),
        zz_mode=cfg["zz_mode"],
    )
    write_sweep_csv(rows, cfg["out"])
    flagged = sum(1 for r in rows if r.get("error") or not r.get("converged", False))
    print(f"wrote {cfg['out']} ({len(rows)} rows, {flagged} flagged)")
    return EXIT_NUMERICAL if flagged else EXIT_OK


def cmd_star2delta(cfg: dict) -> int:
    value = star_to_delta(cfg["c_star"], cfg["n_qubits"])
    print(f"{value:.10g}")
    return EXIT_OK


_COMMANDS = {
    "eigs": cmd_eigs,
    "protocol": cmd_protocol,
    "optimize": cmd_optimize,
    "sweep": cmd_sweep,
    "star2delta": cmd_star2delta,
}


def _flag(key: str) -> str:
    return "--n" if key == "n_qubits" else "--" + key.replace("_", "-")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghznet",
        description="GHZ-state pulse protocols on fully connected qubit networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # absent flags stay out of the namespace, so it holds only overrides
    for name, schema in SCHEMAS.items():
        p = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", help="JSON config file", default=argparse.SUPPRESS)
        for key, (typ, default) in schema.items():
            p.add_argument(
                _flag(key), dest=key, type=typ, default=argparse.SUPPRESS,
                help=f"default {default}",
            )
        for key in POSITIONALS.get(name, ()):
            # untyped: load_config coerces it to the schema type
            p.add_argument(key, nargs="?", default=argparse.SUPPRESS)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        overrides = vars(parser.parse_args(argv))
    except SystemExit as exc:
        # argparse reports usage errors with its own code; normalize
        return EXIT_OK if exc.code == 0 else EXIT_INPUT
    command = overrides.pop("command")
    path = overrides.pop("config", None)
    try:
        cfg = load_config(command, path, overrides)
        return _COMMANDS[command](cfg)
    # before the ValueError clause: NoGlobalPhaseError and LinAlgError are
    # ValueErrors, but they mean the numerics failed, not the input
    except (NoGlobalPhaseError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    # MemoryError: a count whose arrays cannot be allocated
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
