"""Byte-for-byte CLI outputs against files kept in ``tests/golden/``.

The files were written by the code before the pulse-plan rewrite; a change
that keeps behaviour keeps every byte of them.
"""

from pathlib import Path

import pytest

from ghznet.cli import EXIT_OK, main

GOLDEN = Path(__file__).with_name("golden")


@pytest.mark.parametrize(
    "argv, name",
    [
        (["--n", "4", "--g", "1", "--gz", "0.05"], "protocol_n4_g1_gz0.05.txt"),
        (["--n", "4", "--g", "0.5", "--gz", "1"], "protocol_n4_g0.5_gz1.txt"),
        (
            ["--n", "5", "--g", "1", "--gz", "0.05", "--engine", "symmetric"],
            "protocol_n5_g1_gz0.05_symmetric.txt",
        ),
    ],
)
def test_protocol_stdout(argv, name, capsys):
    assert main(["protocol", *argv]) == EXIT_OK
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()


def test_optimize_default_csv(tmp_path, capsys):
    out = tmp_path / "optimize.csv"
    assert main(["optimize", "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == (GOLDEN / "optimize_default.csv").read_bytes()
