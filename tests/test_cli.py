"""End-to-end CLI tests: configs, subcommands, file outputs, exit codes."""

import contextlib
import io
import json
import os
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghznet import cli, protocol
from ghznet.cli import (
    ConfigError,
    EXIT_INPUT,
    EXIT_NUMERICAL,
    EXIT_OK,
    SCHEMAS,
    _build_parser,
    load_config,
    main,
)


class TestConfig:
    def test_defaults(self):
        cfg = load_config("eigs", None, {})
        assert cfg["n_qubits"] == 3 and cfg["g"] == 1.0

    def test_file_and_override_precedence(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"n_qubits": 5, "g": 2.0}))
        cfg = load_config("eigs", str(path), {"g": 3.0})
        assert cfg["n_qubits"] == 5
        assert cfg["g"] == 3.0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"bogus": 1}))
        with pytest.raises(ConfigError):
            load_config("eigs", str(path), {})

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf", float("nan"), float("inf")])
    def test_non_finite_float_rejected(self, raw):
        with pytest.raises(ConfigError):
            load_config("protocol", None, {"g": raw})

    def test_non_finite_float_in_file_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"gz": NaN}')
        with pytest.raises(ConfigError):
            load_config("protocol", str(path), {})

    @pytest.mark.parametrize("raw", [3.7, True])
    def test_non_integral_count_rejected(self, raw, tmp_path):
        with pytest.raises(ConfigError):
            load_config("sweep", None, {"restarts": raw})
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"n_qubits": raw}))
        with pytest.raises(ConfigError):
            load_config("protocol", str(path), {})
        assert main(["protocol", "--config", str(path)]) == EXIT_INPUT

    def test_boolean_float_rejected(self, tmp_path, capsys):
        # float(True) would silently run with g = 1
        with pytest.raises(ConfigError):
            load_config("protocol", None, {"g": True})
        path = tmp_path / "run.json"
        path.write_text('{"g": true}')
        assert main(["protocol", "--config", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().out == ""

    def test_integer_beyond_the_float_range_is_input_error(self, tmp_path, capsys):
        # float(10**400) overflows: bad input, not a numerical failure
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"g": 10**400}))
        assert main(["protocol", "--config", str(path)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: config key 'g': ")

    def test_integral_float_count_accepted(self):
        assert load_config("protocol", None, {"n_qubits": 5.0})["n_qubits"] == 5

    def test_round_trip(self, tmp_path):
        cfg = load_config("sweep", None, {"seed": 7})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert load_config("sweep", str(path), {}) == cfg


FLOAT_KEYS = [
    (command, key)
    for command, schema in SCHEMAS.items()
    for key, (typ, _) in schema.items()
    if typ is float
]


@pytest.mark.parametrize("command, key", FLOAT_KEYS)
@settings(max_examples=25, deadline=None)
@given(value=st.builds(
    lambda m, e: m << e, st.integers(), st.one_of(st.integers(0, 64), st.integers(960, 1100))
))
def test_any_integer_for_a_float_key_loads_or_is_a_config_error(command, key, value):
    # m * 2**e often crosses the float range's end (about 2**1024), and
    # shrinks far faster than an integer drawn from a 1100-bit range
    try:
        want = float(value)
    except OverflowError:
        with pytest.raises(ConfigError):
            load_config(command, None, {key: value})
    else:
        assert load_config(command, None, {key: value})[key] == want


class TestCommands:
    def test_eigs_writes_table(self, tmp_path):
        out = tmp_path / "eigs.csv"
        assert main(["eigs", "--n", "3", "--gz", "0", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "j,lambda_analytic,lambda_numeric,abs_diff"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[1] for r in rows] == ["0", "2", "2", "0"]
        assert all(float(r[3]) <= 1e-10 for r in rows)

    def test_eigs_large_n_analytic_only(self, tmp_path):
        out = tmp_path / "eigs.csv"
        assert main(["eigs", "--n", "100", "--gz", "0.1", "--out", str(out)]) == EXIT_OK
        first = out.read_text().strip().split("\n")[1].split(",")
        assert float(first[1]) == pytest.approx(100 * 99 / 2 * 0.05)
        assert first[2] == ""

    def test_protocol_ok(self, capsys):
        assert main(["protocol", "--n", "4", "--g", "1", "--gz", "0.05"]) == EXIT_OK
        text = capsys.readouterr().out
        assert "fidelity 1.000000" in text

    @pytest.mark.parametrize(
        "n, g, gz",
        [("15", "1", "0.05"), ("1000", "1", "0.05"), ("1001", "1", "0.05"), ("1000", "0.5", "1")],
    )
    def test_protocol_symmetric_beyond_dense(self, n, g, gz, capsys):
        argv = ["protocol", "--n", n, "--g", g, "--gz", gz, "--engine", "symmetric"]
        assert main(argv) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert "fidelity 1.000000" in lines
        expected = [l.removeprefix("expected ") for l in lines if l.startswith("expected phase")]
        measured = [l.removeprefix("measured ") for l in lines if l.startswith("measured phase")]
        assert len(expected) == 1 and measured == expected

    @pytest.mark.parametrize("g, gz", [("1", "0.05"), ("0.5", "1"), ("1", "-0.05"), ("1", "0")])
    @pytest.mark.parametrize("n", [str(n) for n in range(2, 11)])
    def test_protocol_engines_print_alike(self, n, g, gz, capsys):
        # the engines agree to rounding, so no printed digit, nor the sign
        # of a printed zero, may tell them apart
        outs = []
        for engine in ("dense", "symmetric"):
            argv = ["protocol", "--n", n, "--g", g, "--gz", gz, "--engine", engine]
            assert main(argv) == EXIT_OK
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_protocol_report_mhz(self, capsys):
        main(["protocol", "--n", "3", "--g", "1", "--gz", "0", "--report-mhz", "10"])
        assert "25.000 ns" in capsys.readouterr().out

    def test_protocol_negative_report_mhz_is_input_error(self, capsys):
        argv = ["protocol", "--n", "3", "--g", "1", "--gz", "0", "--report-mhz", "-5"]
        assert main(argv) == EXIT_INPUT
        assert capsys.readouterr().out == ""
        assert main(argv[:-2] + ["--report-mhz", "0"]) == EXIT_OK
        assert "entangling pulse" not in capsys.readouterr().out

    def test_protocol_degenerate_is_input_error(self, capsys):
        assert main(["protocol", "--n", "3", "--g", "1", "--gz", "1"]) == EXIT_INPUT

    @pytest.mark.parametrize("n", ["7", "8", "12"])
    def test_protocol_near_degenerate_is_numerical_failure(self, n, capsys):
        # above N = 6 the run is refused before an unaffordable Chebyshev
        # expansion starts
        start = time.monotonic()
        assert main(["protocol", "--n", n, "--g", "1", "--gz", "0.9999999"]) == EXIT_NUMERICAL
        assert time.monotonic() - start < 10

    @pytest.mark.parametrize("n", ["4", "6"])
    def test_protocol_lost_phase_is_numerical_failure(self, n, capsys):
        # g ~ gz: the diagonalized run loses the GHZ phase (NoGlobalPhaseError)
        argv = ["protocol", "--n", n, "--g", "1", "--gz", "1.0000000000001"]
        assert main(argv) == EXIT_NUMERICAL
        assert capsys.readouterr().out == ""

    def test_optimize_writes_result_and_state(self, tmp_path):
        out = tmp_path / "opt.csv"
        code = main(["optimize", "--out", str(out), "--seed", "0"])
        assert code == EXIT_OK
        text = out.read_text()
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        values = dict(zip(header, map(float, lines[1].split(","))))
        assert values["F_opt"] == pytest.approx(0.9953, abs=1e-3)
        assert "index,bitstring,real,imag" in text
        # 8 state rows for 3 qubits, 6 decimal places
        state_rows = lines[lines.index("index,bitstring,real,imag") + 1 :]
        assert len(state_rows) == 8
        assert state_rows[0].split(",")[1] == "000"

    @pytest.mark.parametrize(
        "argv",
        [
            ["--max-evals", "0"],
            ["--eta13", "1.5"],
            ["--eta23", "1"],
            ["--restarts", "-4"],
            ["--tolerance", "-1", "--max-evals", "300", "--restarts", "1"],
        ],
    )
    def test_optimize_bad_input_is_input_error(self, argv, tmp_path, capsys):
        out = tmp_path / "opt.csv"
        assert main(["optimize", *argv, "--out", str(out)]) == EXIT_INPUT
        assert not out.exists()

    def test_optimize_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"restarts": 2, "eta13": 0.03}))
        main(["optimize", "--config", str(cfg), "--out", str(a)])
        main(["optimize", "--config", str(cfg), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--eta23", "1.5", "--eta13-steps", "2"],
            ["--eta13-stop", "1.2"],
            # g = gz
            ["--kappa", "1", "--eta13-steps", "2"],
            # an empty grid
            ["--eta13-steps", "0"],
            ["--eta13-steps", "-1"],
            ["--restarts", "0", "--eta13-steps", "2"],
            ["--seed", "-1", "--eta13-steps", "2"],
        ],
    )
    def test_sweep_bad_input_is_input_error(self, argv, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *argv, "--out", str(out)]) == EXIT_INPUT
        assert not out.exists()
        assert capsys.readouterr().out == ""

    def test_sweep_negative_step_count_names_its_key(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--eta13-steps", "-1", "--out", str(out)]) == EXIT_INPUT
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "eta13_steps" in captured.err

    def test_sweep_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"eta13_steps": 3, "eta13_stop": 0.02, "restarts": 2}))
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "eta13,t_ratio,alpha1,alpha2,alpha3,F_opt,F_uncorrected"
        assert len(lines) == 4

    def test_star2delta(self, capsys):
        assert main(["star2delta", "3.0", "3"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "1"
        assert main(["star2delta", "2.5", "5"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.5"

    def test_star2delta_non_integer_n_is_input_error(self, capsys):
        assert main(["star2delta", "3.0", "3.7"]) == EXIT_INPUT

    def test_star2delta_flags(self, capsys):
        assert main(["star2delta", "--c-star", "2.5", "--n", "5"]) == EXIT_OK
        assert capsys.readouterr().out.strip() == "0.5"

    def test_star2delta_nonpositive(self, capsys):
        assert main(["star2delta", "--", "-1.0", "3"]) == EXIT_INPUT

    def test_star2delta_count_beyond_the_float_range_is_input_error(self, capsys):
        assert main(["star2delta", "1", str(10**400)]) == EXIT_INPUT
        assert capsys.readouterr().err.startswith("error: qubit count beyond the float range")

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", "7", "--g", "nan"],
            ["--n", "3", "--gz", "inf"],
            # 2|g - gz| overflows (t = 0); lambda_0 overflows (a NaN phase)
            ["--n", "3", "--g", "0", "--gz", "1e308"],
            ["--n", "15", "--g", "1e308", "--gz", "5e307", "--engine", "symmetric"],
        ],
    )
    def test_protocol_non_finite_coupling_is_input_error(self, argv, capsys):
        assert main(["protocol", *argv]) == EXIT_INPUT
        assert capsys.readouterr().out == ""

    def test_protocol_compiles_its_plan_once(self, monkeypatch, capsys):
        calls, compile_plan = [], protocol.compile_plan

        def counted(*args):
            calls.append(args)
            return compile_plan(*args)

        monkeypatch.setattr(protocol, "compile_plan", counted)
        monkeypatch.setattr(cli, "compile_plan", counted)
        assert main(["protocol", "--n", "3"]) == EXIT_OK
        assert calls == [(3, 1.0, 0.0)]

    def test_protocol_unknown_engine_is_input_error(self, capsys):
        assert main(["protocol", "--n", "3", "--engine", "sparse"]) == EXIT_INPUT
        assert capsys.readouterr().out == ""

    def test_protocol_unknown_engine_named_beyond_the_dense_cap(self, capsys):
        assert main(["protocol", "--n", "15", "--engine", "bogus"]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: engine must be 'dense' or 'symmetric', got 'bogus'\n"

    def test_flag_prefix_is_not_a_key(self, capsys):
        # --g is a prefix of --g12 but no key of sweep
        assert main(["sweep", "--g", "1"]) == EXIT_INPUT

    def test_every_config_key_has_a_flag(self):
        parser = _build_parser()
        for command, schema in SCHEMAS.items():
            for key, (_, default) in schema.items():
                flag = "--n" if key == "n_qubits" else "--" + key.replace("_", "-")
                args = parser.parse_args([command, flag, str(default)])
                assert getattr(args, key) == default

    def test_optimize_row_is_the_sweep_row(self, tmp_path, capsys):
        opt, swp = tmp_path / "opt.csv", tmp_path / "sweep.csv"
        argv = ["--eta13", "0.03", "--restarts", "2", "--out", str(opt)]
        assert main(["optimize", *argv]) == EXIT_OK
        grid = ["--eta13-start", "0.03", "--eta13-stop", "0.03", "--eta13-steps", "1"]
        assert main(["sweep", *grid, "--restarts", "2", "--out", str(swp)]) == EXIT_OK
        # optimize ends its lines with \n, the sweep CSV with \r\n
        sweep_lines = swp.read_bytes().split(b"\r\n")
        assert opt.read_bytes().split(b"\n")[:2] == sweep_lines[:2]
        assert sweep_lines[2:] == [b""]

    def test_optimize_flags_match_config(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"restarts": 2, "eta13": 0.03}))
        assert main(["optimize", "--eta13", "0.03", "--restarts", "2", "--out", str(a)]) == EXIT_OK
        assert main(["optimize", "--config", str(cfg), "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_command_is_input_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_INPUT

    def test_unknown_config_key_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nope": 1}))
        assert main(["eigs", "--config", str(cfg)]) == EXIT_INPUT


# -------------------------------------------------------------- generated argv

# values for every numeric flag: edge numbers, then strings that parse as none
EDGE_VALUES = [
    "0", "1", "-1", "-3", "15", "nan", "inf", "-inf", "1e308", "-1e308", "5e307",
    "5e-324", "1e-310", "0.05", "0.5", "2.5", "3.0",
]
JUNK = st.text(alphabet="abe.-+x ,", max_size=4)
VALUE = st.one_of(st.sampled_from(EDGE_VALUES), JUNK, st.floats(-2.0, 2.0).map(repr))


def _count(largest: int):
    """A qubit-count value: an integer up to ``largest`` (so no run is
    large), an edge value or junk."""
    return st.one_of(st.integers(-2, largest).map(str), st.sampled_from(EDGE_VALUES), JUNK)


@st.composite
def _flags(draw, **values):
    """``--key=value`` for a drawn subset of the keyword strategies."""
    argv = []
    for key, strategy in values.items():
        if draw(st.booleans()):
            flag = "--n" if key == "n_qubits" else "--" + key.replace("_", "-")
            argv.append(f"{flag}={draw(strategy)}")
    return argv


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(["eigs", "protocol", "star2delta", "optimize", "sweep"]))
    if command == "eigs":
        return ["eigs", *draw(_flags(n_qubits=_count(8), g=VALUE, gz=VALUE))]
    if command == "protocol":
        engine = draw(st.sampled_from(["dense", "symmetric", "qutrit"]))
        n = _count(1001 if engine == "symmetric" else 6)
        flags = draw(_flags(n_qubits=n, g=VALUE, gz=VALUE, report_mhz=VALUE))
        return ["protocol", f"--engine={engine}", *flags]
    if command == "star2delta":
        if draw(st.booleans()):
            return ["star2delta", draw(VALUE), draw(_count(20))]
        return ["star2delta", *draw(_flags(c_star=VALUE, n_qubits=_count(20)))]
    couplings = {"g12": VALUE, "eta23": VALUE, "kappa": VALUE, "zz_mode": st.just("uniform")}
    pinned = ["--restarts=1", "--max-evals=50"]
    if command == "optimize":
        return ["optimize", *pinned, *draw(_flags(eta13=VALUE, **couplings))]
    grid = draw(_flags(eta13_start=VALUE, eta13_stop=VALUE))
    return ["sweep", *pinned, "--eta13-steps=2", *grid, *draw(_flags(**couplings))]


@settings(max_examples=60, deadline=None)
@given(argv=cli_argv())
def test_generated_argv_exits_cleanly(argv):
    # a fresh directory per example: hypothesis cannot share tmp_path, and
    # the commands write their default outputs into the working directory
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as d:
        os.chdir(d)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
                io.StringIO()
            ):
                code = main(argv)
            written = os.listdir(d)
        finally:
            os.chdir(cwd)
    assert code in (EXIT_OK, EXIT_INPUT, EXIT_NUMERICAL)
    if code == EXIT_INPUT:
        assert written == [], f"exit 1 left {written}"
