"""Developer tools under ``tools/``: a smoke run of each."""

import importlib.util
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from ghznet import cli

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


same_bytes = load_tool("same_bytes")


def fresh_process_record(argv: list[str]) -> list:
    """``same_bytes.cli_record``'s record of ``ghznet argv``, run by the
    console entry point in a fresh process and a fresh empty directory."""
    entry = "import sys; from ghznet.cli import main; sys.exit(main(sys.argv[1:]))"
    env = {**os.environ, "PYTHONPATH": str(same_bytes.SRC), "OPENBLAS_NUM_THREADS": "1"}
    with tempfile.TemporaryDirectory() as cwd:
        proc = subprocess.run(
            [sys.executable, "-c", entry, *argv], cwd=cwd, env=env, capture_output=True
        )
        files = [
            [str(p.relative_to(cwd)), p.read_bytes()]
            for p in sorted(Path(cwd).rglob("*")) if p.is_file()
        ]
    return [proc.returncode, proc.stdout, proc.stderr, files]


@pytest.mark.parametrize(
    "argv",
    [
        ["eigs", "--n", "3"],  # writes eigs.csv
        ["star2delta", "3.0", "3"],
        ["protocol", "--n", "15", "--engine", "bogus"],  # exit 1
        ["protocol", "--n", "7", "--g", "1", "--gz", "0.999999999"],  # exit 2
    ],
    ids=" ".join,
)
def test_cli_record_matches_a_fresh_process(argv):
    assert same_bytes.cli_record(argv) == fresh_process_record(argv)


def test_cli_record_tells_runs_apart():
    record = same_bytes.cli_record(["star2delta", "3.0", "3"])
    assert record == [0, b"1\n", b"", []]
    other = same_bytes.cli_record(["star2delta", "3.0", "4"])
    assert [part for part in range(4) if record[part] != other[part]] == [1]


def test_every_command_is_invoked():
    assert set(cli.SCHEMAS) <= {argv[0] for argv in same_bytes.INVOCATIONS}


def test_same_bytes_finds_this_tree_identical_to_itself():
    ours = same_bytes.digests(same_bytes.SRC)
    names = list(ours)
    assert len(names) > 700
    assert not [n for n in names if ours[n].startswith("cannot run")]
    lines = []
    assert same_bytes.compare(ours, ours, out=lines.append) == 0
    assert [line.split()[:2] for line in lines] == [
        ["identical", "cli:"], ["identical", "objective:"], ["identical", "run:"],
        ["identical", "optimize_many:"], ["identical", "optimize:"],
        ["identical", "minimize:"], ["identical", "to_sparse:"],
        ["identical", "propagate:"], ["identical", "execute_symmetric:"],
    ]
    # the bytes digested tell apart a signed zero, a dtype, a shape, a
    # length and a type
    encode = same_bytes._encode
    assert len({encode(0.0), encode(-0.0), encode([0.0]), encode(0), encode(False)}) == 5
    assert len({encode(b""), encode(b"\x00"), encode(""), encode("\x00")}) == 4
    assert encode([b"a", b"b"]) != encode([b"a,b"])
    # a case whose digest changed is told apart, and the first one named
    cli_cases = [n for n in names if n.startswith("cli/")]
    assert len(cli_cases) == len(same_bytes.INVOCATIONS)
    changed = {**ours, cli_cases[3]: "0" * 64, cli_cases[2]: "1" * 64}
    lines = []
    assert same_bytes.compare(ours, changed, out=lines.append) == 2
    assert lines[0] == f"differs          cli: 2 of {len(cli_cases)} cases, first {cli_cases[2]}"
    # a case one tree cannot run is not comparable, and not identical
    objective = [n for n in names if n.startswith("objective/")]
    unrun = {**ours, objective[0]: "cannot run: AttributeError: gone"}
    del unrun[objective[1]]
    lines = []
    assert same_bytes.compare(ours, unrun, out=lines.append) == 2
    assert lines[1] == (
        f"not comparable   objective: 2 of 48 cases, first {objective[0]} "
        "(cannot run: AttributeError: gone)"
    )
