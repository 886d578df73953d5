"""End-to-end CLI tests: configs, subcommands, file outputs, exit codes."""

import json
import time

import pytest

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

    def test_integral_float_count_accepted(self):
        assert load_config("protocol", None, {"n_qubits": 5.0})["n_qubits"] == 5

    def test_round_trip(self, tmp_path):
        cfg = load_config("sweep", None, {"seed": 7})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert load_config("sweep", str(path), {}) == cfg


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
            ["--restarts", "0", "--eta13-steps", "2"],
            ["--seed", "-1", "--eta13-steps", "2"],
        ],
    )
    def test_sweep_bad_input_is_input_error(self, argv, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *argv, "--out", str(out)]) == EXIT_INPUT
        assert not out.exists()
        assert capsys.readouterr().out == ""

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

    def test_protocol_unknown_engine_is_input_error(self, capsys):
        assert main(["protocol", "--n", "3", "--engine", "sparse"]) == EXIT_INPUT
        assert capsys.readouterr().out == ""

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
