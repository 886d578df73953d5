"""Byte-compare the ``ghznet`` command line of this checkout with a git revision.

Usage (from anywhere in the repository)::

    python3 tools/cli_bytes.py --against <rev>

``<rev>``'s ``src/`` is extracted with ``git archive`` into a temporary
directory.  Every invocation in ``INVOCATIONS`` then runs on that tree and
on this checkout's ``src/``, each run in a fresh empty working directory,
with BLAS on one thread.  Stdout, stderr, the exit code and every file the
run wrote are compared.  One line is printed per invocation, and the exit
code is 1 if any invocation differs.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# the package's console entry point, run from the tree on PYTHONPATH
_ENTRY = "import sys; from ghznet.cli import main; sys.exit(main(sys.argv[1:]))"

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
]


def run(src: Path, argv: list[str]) -> dict[str, object]:
    """Exit code, stdout, stderr and written files of ``ghznet argv`` on ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(
            [sys.executable, "-c", _ENTRY, *argv], cwd=cwd, env=env, capture_output=True
        )
        written = {
            str(p.relative_to(cwd)): p.read_bytes()
            for p in sorted(Path(cwd).rglob("*"))
            if p.is_file()
        }
    return {
        "exit code": proc.returncode,
        "stdout": proc.stdout,
        "stderr": proc.stderr,
        "files": written,
    }


def differences(a: dict[str, object], b: dict[str, object]) -> list[str]:
    """Names of the parts of two :func:`run` outcomes that differ."""
    return [key for key in a if a[key] != b[key]]


def compare(src_a: Path, src_b: Path, invocations: list[list[str]], out=print) -> int:
    """Run every invocation on both trees; report each; return how many differ."""
    differing = 0
    for argv in invocations:
        diff = differences(run(src_a, argv), run(src_b, argv))
        differing += bool(diff)
        verdict = "differs: " + ", ".join(diff) if diff else "identical"
        out(f"{verdict:<12} ghznet {' '.join(argv)}")
    return differing


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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--against", required=True, metavar="REV", help="git revision to compare with")
    args = p.parse_args(argv)
    with revision_src(args.against) as src:
        differing = compare(src, SRC, INVOCATIONS)
    total = len(INVOCATIONS)
    print(f"{total - differing} of {total} invocations identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
