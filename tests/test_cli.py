"""End-to-end CLI tests: configs, subcommands, file outputs, exit codes."""

import json
import time

import pytest

from ghznet.cli import (
    ConfigError,
    EXIT_INPUT,
    EXIT_NUMERICAL,
    EXIT_OK,
    dump_config,
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

    def test_round_trip(self, tmp_path):
        cfg = load_config("sweep", None, {"seed": 7})
        path = tmp_path / "cfg.json"
        path.write_text(dump_config(cfg))
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

    def test_protocol_report_mhz(self, capsys):
        main(["protocol", "--n", "3", "--g", "1", "--gz", "0", "--report-mhz", "10"])
        assert "25.000 ns" in capsys.readouterr().out

    def test_protocol_degenerate_is_input_error(self, capsys):
        assert main(["protocol", "--n", "3", "--g", "1", "--gz", "1"]) == EXIT_INPUT

    @pytest.mark.parametrize("n", ["8", "12"])
    def test_protocol_near_degenerate_is_numerical_failure(self, n, capsys):
        # N = 8 factorizes and misses the exactness threshold; N = 12 is
        # refused before an unaffordable Chebyshev expansion starts
        start = time.monotonic()
        assert main(["protocol", "--n", n, "--g", "1", "--gz", "0.9999999"]) == EXIT_NUMERICAL
        assert time.monotonic() - start < 10

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

    def test_optimize_byte_stable(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"restarts": 2, "eta13": 0.03}))
        main(["optimize", "--config", str(cfg), "--out", str(a)])
        main(["optimize", "--config", str(cfg), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

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

    def test_star2delta_nonpositive(self, capsys):
        assert main(["star2delta", "--", "-1.0", "3"]) == EXIT_INPUT

    def test_unknown_command_is_input_error(self, capsys):
        assert main(["frobnicate"]) == EXIT_INPUT

    def test_unknown_config_key_is_input_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nope": 1}))
        assert main(["eigs", "--config", str(cfg)]) == EXIT_INPUT
