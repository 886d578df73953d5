"""Byte-compare the results of this checkout with those of a git revision.

Usage (from anywhere in the repository)::

    python3 tools/same_bytes.py --against <rev>

``<rev>``'s ``src/`` is extracted with ``git archive`` into a temporary
directory.  A fixed, seeded corpus of cases then runs in one child process
per tree, with BLAS on one thread.  Each case calls public ``ghznet`` names
only and gives the SHA-256 digest of its results' bytes:

* ``cli``: each ``ghznet`` invocation in ``INVOCATIONS``, run in-process
  by ``ghznet.cli.main`` in a fresh empty working directory: its exit
  code, stdout, stderr and every file it wrote;
* ``objective`` and ``run`` at the ideal point and at seeded in-box rows
  of each problem family, a seven-qubit one (matrix-free propagation)
  included;
* ``optimize_many`` over the default sweep's 11 problems, at the default
  configuration and at a short seeded one;
* ``optimize`` on the restricted and the full problem of two four-qubit
  graphs, for ``restarts`` 1, 3 and 8 and ``max_evals`` 1, 3, 37, 200 and
  the default 20000;
* ``minimize`` searches of 1 to 5 variables, with budgets of 1 to 200
  evaluations, on smooth, rounded and NaN-returning objectives, from
  seeded and signed-zero starts, in an open box, a box of zero width in
  one variable and a box of zero width in all;
* ``to_sparse`` arrays and ``HamiltonianPropagator.propagate`` states of
  seeded graphs of 2 to 14 qubits, and ``HamiltonianPropagator.factors``
  (the eigendecomposition) of seeded graphs of 2 to 6 qubits and of a
  four-qubit graph with a -0.0 XY coupling;
* ``execute_symmetric`` at 1001 qubits.

The digests are compared case by case.  One line is printed per group of
cases: identical, the first case that differs, or the cases that only
one tree (or neither) could run, which are "not comparable".  The exit
code is 1 unless every case is identical.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_CANNOT_RUN = "cannot run: "

_SEED_9 = ["--eta13-stop", "0.3", "--restarts", "3", "--seed", "9"]
INVOCATIONS: list[list[str]] = [
    ["sweep"],
    ["sweep", *_SEED_9, "--eta13-steps", "4"],
    ["sweep", *_SEED_9, "--eta13-steps", "7", "--max-evals", "50"],
    ["optimize"],
    ["optimize", "--max-evals", "3"],
    *[
        ["protocol", "--n", str(n), *couplings, "--engine", engine]
        for n in (2, 3, 4, 5, 7, 10, 14)
        for couplings in ([], ["--g", "0.5", "--gz", "1"])
        for engine in ("dense", "symmetric")
    ],
    ["protocol", "--n", "1001", "--engine", "symmetric"],
    ["eigs", "--n", "6", "--gz", "0.2"],
    ["protocol", "--n", "15", "--engine", "bogus"],
    # every command, the analytic-only eigenvalue table, and both failure codes
    ["star2delta", "3.0", "3"],
    ["star2delta", "--c-star", "-1"],
    ["eigs", "--n", "11"],
    ["protocol", "--n", "3", "--g", "1", "--gz", "1"],
    ["protocol", "--n", "7", "--g", "1", "--gz", "0.999999999"],
    ["sweep", "--eta13-start", "-0.5"],
    # the count bounds: beyond int64 is an input error, a seed is unbounded
    ["sweep", "--max-evals", str(10**20)],
    ["optimize", "--restarts", str(10**399)],
    ["sweep", "--eta13-steps", str(10**399)],
    ["optimize", "--seed", str(10**32)],
    ["protocol", "--n", "1"],
]


@contextlib.contextmanager
def revision_src(rev: str):
    """``rev``'s ``src/``, extracted with ``git archive`` into a temporary
    directory that is removed on exit."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        capture_output=True, check=True,
    ).stdout
    with tempfile.TemporaryDirectory() as tree:
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        yield Path(tree) / "src"


def _encode(value) -> bytes:
    """Bytes of a value that tell apart every type, dtype, shape, length and bit."""
    if isinstance(value, (list, tuple)):
        return b"[" + b",".join(_encode(v) for v in value) + b"]"
    if isinstance(value, (str, bytes)):
        raw = value.encode() if isinstance(value, str) else value
        return f"{type(value).__name__}{len(raw)}:".encode() + raw
    arr = np.asarray(value)
    return f"{arr.dtype.str}{arr.shape}".encode() + arr.tobytes()


def cli_record(argv: list[str]) -> list:
    """``[exit code, stdout, stderr, [[path, bytes] of each file written]]``
    of ``ghznet argv``, run in-process in a fresh empty working directory."""
    from ghznet.cli import main

    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    # catch_warnings: each case sees a warning again, as a fresh process would
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(cwd)
        files = [
            [str(p.relative_to(tmp)), p.read_bytes()]
            for p in sorted(Path(tmp).rglob("*")) if p.is_file()
        ]
    return [code, out.getvalue().encode(), err.getvalue().encode(), files]


def _search(s) -> list:
    """Every field of a ``MinimizeResult``."""
    return [s.x, s.fun, s.nfev, s.success]


def _result(res) -> list:
    """Every field of an ``OptimizationResult``, each start's included."""
    return [
        res.t_opt, res.angles_opt, res.fidelity, res.objective_evaluations,
        res.converged, [_search(s) for s in res.starts],
    ]


def corpus() -> list[tuple[str, object]]:
    """``(name, thunk)`` of every case, in order; a thunk returns the value
    whose bytes are digested.  Runs in the child, on its tree's ``ghznet``."""
    from ghznet import couplings, protocol
    from ghznet import optimizer as opt

    cases = [
        (f"cli/{' '.join(argv)}", functools.partial(cli_record, argv)) for argv in INVOCATIONS
    ]

    def graph(n, seed):
        rng = np.random.default_rng(seed)
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        return couplings.perturbed_general(n, 1.0, 0.05, {p: rng.uniform(0.9, 1.0) for p in pairs})

    builders = {
        "odd-3": lambda: opt.problem_odd(couplings.perturbed_n3(1.0, 0.02, 0.06, 0.05)),
        "odd-5": lambda: opt.problem_odd(graph(5, 5)),
        "odd-7": lambda: opt.problem_odd(graph(7, 7)),
        "restricted-4": lambda: opt.problem_even_restricted(graph(4, 0)),
        "full-4": lambda: opt.problem_even_full(graph(4, 0)),
        "restricted-4-strong-zz": lambda: opt.problem_even_restricted(couplings.ideal(4, 0.5, 1.0)),
        "full-4-strong-zz": lambda: opt.problem_even_full(couplings.ideal(4, 0.5, 1.0)),
        "full-6": lambda: opt.problem_even_full(graph(6, 6)),
    }
    problem = functools.cache(lambda name: builders[name]())

    def row(name, k):
        p = problem(name)
        if k == 0:
            return p.ideal_params
        fractions = np.random.default_rng([k, len(p.ideal_params)]).uniform(size=p.lower.shape)
        return np.clip(p.lower + fractions * (p.upper - p.lower), p.lower, p.upper)

    for fn in ("objective", "run"):
        for name in builders:
            for k in range(6):
                def case(fn=fn, name=name, k=k):
                    if fn == "objective":
                        return opt.objective(problem(name), row(name, k))
                    return problem(name).run(row(name, k)).amplitudes
                cases.append((f"{fn}/{name}/row-{k}", case))

    @functools.cache
    def sweep_results(config):
        etas = np.linspace(0.0, 0.10, 11)
        problems = [opt.problem_odd(couplings.perturbed_n3(1.0, 0.02, e, 0.05)) for e in etas]
        return opt.optimize_many(problems, config)

    for label, config in (
        ("default", opt.OptimizerConfig()),
        ("restarts-3-max_evals-37-seed-9", opt.OptimizerConfig(max_evals=37, restarts=3, seed=9)),
    ):
        for i in range(11):
            cases.append((
                f"optimize_many/{label}/problem-{i}",
                lambda config=config, i=i: _result(sweep_results(config)[i]),
            ))

    four = {
        f"{family.__name__}-g{seed}": (family, seed)
        for seed in (0, 1) for family in (opt.problem_even_restricted, opt.problem_even_full)
    }
    for name, (family, seed) in four.items():
        for restarts in (1, 3, 8):
            for max_evals in (1, 3, 37, 200, 20000):
                def case(family=family, seed=seed, restarts=restarts, max_evals=max_evals):
                    config = opt.OptimizerConfig(restarts=restarts, max_evals=max_evals)
                    return _result(opt.optimize(family(graph(4, seed)), config))
                cases.append((f"optimize/{name}/restarts-{restarts}/max_evals-{max_evals}", case))

    def smooth(x):
        return float(np.sum((x - 0.3) ** 2) + 0.1 * np.sum(np.sin(3 * x)))

    objectives = {
        "smooth": smooth,
        "rounded": lambda x: round(smooth(x), 2),  # plateaus and tied vertices
        "nan": lambda x: math.nan if x[-1] > 0.6 else smooth(x),
    }
    for n in range(1, 6):
        starts = {
            "seeded": np.random.default_rng([n, 7]).uniform(-1.0, 2.0, n),
            "signed-zero": np.array([(-0.0, 0.0)[i % 2] for i in range(n)]),
        }
        wide = (np.full(n, -1.0), np.full(n, 2.0))
        flat = tuple(np.where(np.arange(n) == 0, 0.0, bound) for bound in wide)
        boxes = {"open": wide, "flat-0": flat, "point": (np.full(n, 0.5),) * 2}
        for maxfev, (fname, fun), (sname, x0), (bname, box) in itertools.product(
            (1, 2, 3, 5, 37, 200), objectives.items(), starts.items(), boxes.items()
        ):
            cases.append((
                f"minimize/n-{n}/maxfev-{maxfev}/{fname}/{sname}/{bname}",
                lambda fun=fun, x0=x0, box=box, maxfev=maxfev:
                    _search(opt.minimize(fun, x0, *box, 1e-4, 1e-8, maxfev)),
            ))

    for n in range(2, 15):
        def case(n=n):
            h = couplings.to_sparse(graph(n, n))
            return [h.shape, h.data, h.indices, h.indptr]
        cases.append((f"to_sparse/n-{n}", case))
    def xy_negative_zero():
        uniform = couplings.ideal(4, 1.0, 0.05)
        return couplings.CouplingGraph(4, {**uniform.xy, (1, 2): -0.0}, uniform.zz, 1.0, 0.05)

    # the factorized propagator's eigendecomposition, which pins its eigh input
    factor_graphs = {f"n-{n}": functools.partial(graph, n, n) for n in range(2, 7)}
    factor_graphs["n-4-xy-negative-zero"] = xy_negative_zero
    for label, make in factor_graphs.items():
        cases.append((
            f"factors/{label}",
            lambda make=make: list(protocol.HamiltonianPropagator(make()).factors),
        ))
    for n in range(2, 15):
        def case(n=n):
            propagator = protocol.HamiltonianPropagator(graph(n, n))
            return [propagator.propagate(0.9), propagator.propagate([0.0, 0.9, 2.1])]
        cases.append((f"propagate/n-{n}", case))

    for g, gz in ((1.0, 0.0), (0.5, 1.0), (1.0, 0.05)):
        def case(g=g, gz=gz):
            return protocol.execute_symmetric(protocol.compile_plan(1001, g, gz), g, gz).coeffs
        cases.append((f"execute_symmetric/n-1001/g-{g}/gz-{gz}", case))
    return cases


def run_corpus() -> dict[str, str]:
    """Each case's digest, or why it could not run."""
    out = {}
    for name, case in corpus():
        try:
            out[name] = hashlib.sha256(_encode(case())).hexdigest()
        except Exception as exc:  # a case one tree cannot run is reported, not fatal
            out[name] = f"{_CANNOT_RUN}{type(exc).__name__}: {exc}"
    return out


def digests(src: Path) -> dict[str, str]:
    """:func:`run_corpus` in a child process on the ``ghznet`` of ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--digests"],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def _ran(digests_of_tree: dict[str, str], name: str) -> bool:
    return not digests_of_tree.get(name, _CANNOT_RUN).startswith(_CANNOT_RUN)


def compare(a: dict[str, str], b: dict[str, str], out=print) -> int:
    """Report each group of cases of two :func:`digests`; return how many
    cases are not identical."""
    groups: dict[str, list[str]] = {}
    for name in [*a, *(n for n in b if n not in a)]:
        groups.setdefault(name.split("/")[0], []).append(name)
    failing = 0
    for group, names in groups.items():
        unrun = [n for n in names if not (_ran(a, n) and _ran(b, n))]
        differ = [n for n in names if n not in unrun and a[n] != b[n]]
        failing += len(unrun) + len(differ)
        if differ:
            out(f"differs          {group}: {len(differ)} of {len(names)} cases, first {differ[0]}")
        if unrun:
            first = unrun[0]
            why = b.get(first, "no such case") if _ran(a, first) else a.get(first, "no such case")
            out(f"not comparable   {group}: {len(unrun)} of {len(names)} cases, first {first} ({why})")
        if not differ and not unrun:
            out(f"identical        {group}: {len(names)} cases")
    return failing


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--against", metavar="REV", help="git revision to compare with")
    mode.add_argument("--digests", action="store_true", help="print this tree's digests as JSON")
    args = p.parse_args(argv)
    if args.digests:
        print(json.dumps(run_corpus()))
        return 0
    with revision_src(args.against) as src:
        theirs = digests(src)
    ours = digests(SRC)
    failing = compare(theirs, ours)
    total = len(theirs.keys() | ours.keys())
    print(f"{total - failing} of {total} cases identical")
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
