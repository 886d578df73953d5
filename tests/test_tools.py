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


def test_kernel_bytes_finds_this_tree_identical_to_itself(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))  # kernel_bytes imports cli_bytes
    kernel_bytes = load_tool("kernel_bytes")
    ours = kernel_bytes.digests(kernel_bytes.SRC)
    names = list(ours)
    assert len(names) > 100
    assert not [n for n in names if ours[n].startswith("cannot run")]
    lines = []
    assert kernel_bytes.compare(ours, ours, out=lines.append) == 0
    assert [line.split()[:2] for line in lines] == [
        ["identical", "objective:"], ["identical", "run:"],
        ["identical", "optimize_many:"], ["identical", "optimize:"],
    ]
    # the bytes digested tell apart a signed zero, a dtype and a shape
    encode = kernel_bytes._encode
    assert len({encode(0.0), encode(-0.0), encode([0.0]), encode(0), encode(False)}) == 5
    # a case whose digest changed is told apart, and the first one named
    changed = {**ours, names[-1]: "0" * 64, names[-2]: "1" * 64}
    lines = []
    assert kernel_bytes.compare(ours, changed, out=lines.append) == 2
    assert lines[-1] == f"differs          optimize: 2 of 60 cases, first {names[-2]}"
    # a case one tree cannot run is not comparable, and not identical
    unrun = {**ours, names[0]: "cannot run: AttributeError: gone"}
    del unrun[names[1]]
    lines = []
    assert kernel_bytes.compare(ours, unrun, out=lines.append) == 2
    assert lines[0] == (
        f"not comparable   objective: 2 of 48 cases, first {names[0]} "
        "(cannot run: AttributeError: gone)"
    )
