"""Developer tools under ``tools/``: a smoke run of each."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_bytes_finds_this_tree_identical_to_itself():
    cli_bytes = load_tool("cli_bytes")
    src, argv = cli_bytes.SRC, ["star2delta", "3.0", "3"]
    lines = []
    assert cli_bytes.compare(src, src, [argv], out=lines.append) == 0
    assert lines == ["identical    ghznet star2delta 3.0 3"]
    # a run that prints another value is told apart
    outcome = cli_bytes.run(src, argv)
    assert outcome == {"exit code": 0, "stdout": b"1\n", "stderr": b"", "files": {}}
    other = cli_bytes.run(src, ["star2delta", "3.0", "4"])
    assert cli_bytes.differences(outcome, other) == ["stdout"]
