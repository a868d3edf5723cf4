"""Configuration parsing, command orchestration, file stability, exit codes."""

import json
import math

import numpy as np
import pytest

from qfdr.cli import main
from qfdr.config import ConfigError, build_config, parse_document
from qfdr.io import read_csv_table, read_samples, render_csv
from qfdr.stats import bootstrap_q, estimate_from_samples
from qfdr.qubit import ThermalSpec


class TestParseDocument:
    def test_key_value_pairs_with_comments(self):
        text = "command = analytic\n# comment\n\nn_steps = 5\nbeta = 3.413\n"
        values = parse_document(text)
        assert values["command"] == ("analytic", 1)
        assert values["n_steps"] == ("5", 4)
        assert values["beta"] == ("3.413", 5)

    def test_malformed_line_reports_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_document("command = analytic\nnonsense\n")

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_document("= 3\n")


class TestBuildConfig:
    def test_defaults_applied(self):
        config = build_config({}, {"command": "analytic", "n_steps": "5", "beta": 3.413})
        assert config.runs == 8000
        assert config.resamples == 200
        assert config.spam_bright == 0.004 and config.spam_dark == 0.004
        assert config.n_steps == [5]
        assert config.format == "csv"

    def test_negative_beta_rejected_by_name(self):
        with pytest.raises(ConfigError, match="beta"):
            build_config({}, {"command": "analytic", "beta": -1.0})

    def test_unknown_key_named_with_line(self):
        with pytest.raises(ConfigError, match=r"wavelength: unknown key \(line 2\)"):
            build_config(parse_document("command = analytic\nwavelength = 729\n"))

    def test_out_of_range_value_named_with_line(self):
        document = parse_document("command = simulate\nruns = 0\n")
        with pytest.raises(ConfigError, match=r"runs: .*\(line 2\)"):
            build_config(document)

    def test_flags_override_file(self):
        document = parse_document("command = analytic\nbeta = 1.0\n")
        config = build_config(document, {"beta": 2.5})
        assert config.beta == 2.5

    def test_batch_job_list(self):
        document = parse_document(
            "command = simulate\nn_steps = 2,3,4,5,6,7\nbeta = 3.413\nruns = 8000\n"
        )
        config = build_config(document)
        assert config.n_steps == [2, 3, 4, 5, 6, 7]

    def test_command_required(self):
        with pytest.raises(ConfigError, match="command"):
            build_config({}, {})


class TestAnalyticCommand:
    def test_two_step_row(self, tmp_path):
        out = tmp_path / "analytic.csv"
        code = main(["analytic", "--n-steps", "2", "--beta", "3.413", "--output", str(out)])
        assert code == 0
        _, rows = read_csv_table(out)
        assert len(rows) == 1
        np.testing.assert_allclose(float(rows[0]["nq_rescaled"]), 0.457, atol=5e-4)

    def test_batch_rows(self, tmp_path):
        out = tmp_path / "analytic.csv"
        code = main(["analytic", "--n-steps", "2,3,4", "--output", str(out)])
        assert code == 0
        _, rows = read_csv_table(out)
        assert [int(r["n_steps"]) for r in rows] == [2, 3, 4]

    def test_json_mirrors_csv(self, tmp_path):
        csv_path = tmp_path / "a.csv"
        json_path = tmp_path / "a.json"
        assert main(["analytic", "--n-steps", "3", "--output", str(csv_path)]) == 0
        assert main(["analytic", "--n-steps", "3", "--format", "json",
                     "--output", str(json_path)]) == 0
        fieldnames, rows = read_csv_table(csv_path)
        records = json.loads(json_path.read_text())
        assert list(records[0].keys()) == fieldnames
        assert float(rows[0]["q_value"]) == records[0]["q_value"]


class TestSimulateCommand:
    def test_samples_file_round_trip(self, tmp_path):
        out = tmp_path / "samples.csv"
        code = main(["simulate", "--n-steps", "2", "--runs", "500", "--seed", "9",
                     "--output", str(out)])
        assert code == 0
        samples = read_samples(out)
        assert samples.runs == 500
        assert samples.seed == 9
        assert samples.spec.n_steps == 2
        assert samples.spec.thermal.beta == 3.413

    def test_six_job_batch(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "command = simulate\nn_steps = 2,3,4,5,6,7\nbeta = 3.413\n"
            f"runs = 200\nseed = 3\noutput = {tmp_path}/batch.csv\n"
        )
        assert main(["--config", str(config)]) == 0
        produced = sorted(p.name for p in tmp_path.glob("batch_n*.csv"))
        assert produced == [f"batch_n{n}.csv" for n in range(2, 8)]

    def test_simulate_then_analytic_consistency(self, tmp_path):
        out = tmp_path / "samples.csv"
        assert main(["simulate", "--n-steps", "2", "--runs", "8000", "--seed", "21",
                     "--output", str(out)]) == 0
        samples = read_samples(out)
        estimate = estimate_from_samples(samples)
        report = bootstrap_q(ThermalSpec.from_beta(3.413), 2, 8000, resamples=200, seed=21)
        analytic = 0.16145321042972788  # exact closed-form q at (N=2, beta=3.413)
        assert abs(estimate.q_value - analytic) <= 5 * report.sigma_q

    def test_spam_header_round_trip(self, tmp_path):
        out = tmp_path / "spam.csv"
        assert main(["simulate", "--n-steps", "2", "--runs", "100", "--seed", "1",
                     "--spam", "--output", str(out)]) == 0
        samples = read_samples(out)
        assert samples.spam is not None
        assert samples.spam.p_bright_given_0 == 0.004


class TestSweepCommand:
    def test_layers_present(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--output", str(out)]) == 0
        _, rows = read_csv_table(out)
        provenances = {r["provenance"] for r in rows}
        assert provenances == {"coherent_theory", "incoherent_sim", "spam_bound", "experiment"}
        experiment = [r for r in rows if r["provenance"] == "experiment"]
        assert len(experiment) == 6

    def test_exclude_experiment(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--no-include-experiment", "--output", str(out)]) == 0
        _, rows = read_csv_table(out)
        assert all(r["provenance"] != "experiment" for r in rows)


class TestCertifyCommand:
    def test_all_points_certified(self, tmp_path):
        out = tmp_path / "certify.csv"
        code = main(["certify", "--output", str(out)])
        assert code == 0
        _, rows = read_csv_table(out)
        assert len(rows) == 6
        for row in rows:
            assert float(row["delta_inc_sigma"]) >= 10.0
            assert float(row["delta_spam_sigma"]) >= 12.0
            assert row["pass"] == "true"

    def test_foreign_beta_rejected_with_exit_2(self, tmp_path, capsys):
        """The bundled points were measured at beta = 3.413; certifying them
        against boundaries at another temperature is refused."""
        out = tmp_path / "certify.csv"
        assert main(["certify", "--beta", "1", "--output", str(out)]) == 2
        assert "beta = 3.413" in capsys.readouterr().err
        assert not out.exists()
        assert main(["certify", "--output", str(out)]) == 0
        assert main(["certify", "--beta", "3.413", "--output", str(out)]) == 0

    def test_unreachable_threshold_fails_with_exit_3(self, tmp_path):
        out = tmp_path / "certify.csv"
        code = main(["certify", "--threshold", "25.0", "--output", str(out)])
        assert code == 3
        _, rows = read_csv_table(out)  # the table is still written
        assert any(row["pass"] == "false" for row in rows)


class TestTemperatureProfileCommand:
    def test_monotone_column_with_zero_start(self, tmp_path):
        out = tmp_path / "profile.csv"
        assert main(["temperature-profile", "--n-steps", "5", "--output", str(out)]) == 0
        _, rows = read_csv_table(out)
        values = [float(r["nq_rescaled"]) for r in rows]
        betas = [float(r["beta"]) for r in rows]
        assert betas[0] == 0.0 and values[0] == 0.0
        assert values == sorted(values)


class TestCalibrateCommand:
    def test_round_trip_accuracy(self, tmp_path):
        out = tmp_path / "calibrate.csv"
        assert main(["calibrate", "--seed", "11", "--shots", "5000",
                     "--output", str(out)]) == 0
        _, rows = read_csv_table(out)
        assert len(rows) == 1
        assert abs(float(rows[0]["error"])) < 0.02
        np.testing.assert_allclose(float(rows[0]["true_duration"]), math.pi / 2.0, rtol=1e-12)


class TestDeterminismAndStability:
    def test_repeated_runs_are_byte_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for out in (first, second):
            assert main(["simulate", "--n-steps", "3", "--runs", "400", "--seed", "77",
                         "--output", str(out)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        serial = tmp_path / "serial.csv"
        threaded = tmp_path / "threaded.csv"
        assert main(["simulate", "--n-steps", "3", "--runs", "400", "--seed", "77",
                     "--workers", "1", "--output", str(serial)]) == 0
        assert main(["simulate", "--n-steps", "3", "--runs", "400", "--seed", "77",
                     "--workers", "5", "--output", str(threaded)]) == 0
        assert serial.read_bytes() == threaded.read_bytes()

    def test_sweep_is_reproducible(self, tmp_path):
        first = tmp_path / "s1.csv"
        second = tmp_path / "s2.csv"
        for out in (first, second):
            assert main(["sweep", "--output", str(out)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_csv_round_trip_identity(self, tmp_path):
        out = tmp_path / "certify.csv"
        assert main(["certify", "--output", str(out)]) == 0
        fieldnames, rows = read_csv_table(out)
        assert render_csv(fieldnames, rows) == out.read_text()


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        assert main(["analytic", "--beta", "-1"]) == 2

    def test_unknown_key_in_file_is_2(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("command = analytic\nwavelength = 729\n")
        assert main(["--config", str(config)]) == 2

    def test_missing_config_file_is_4(self, tmp_path):
        assert main(["--config", str(tmp_path / "missing.cfg")]) == 4

    def test_unwritable_output_is_4(self, tmp_path):
        blocker = tmp_path / "file.txt"
        blocker.write_text("x")
        target = blocker / "sub.csv"  # path through a regular file
        assert main(["analytic", "--output", str(target)]) == 4

    def test_output_dir_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QFDR_OUTPUT_DIR", str(tmp_path))
        assert main(["analytic", "--n-steps", "2"]) == 0
        assert (tmp_path / "analytic.csv").exists()
