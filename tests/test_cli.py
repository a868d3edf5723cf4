"""Configuration parsing, command orchestration, file stability, exit codes."""

import hashlib
import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.random import Generator, Philox

from qfdr import cli
from qfdr.analytics import incoherent_region_sweep, quantum_correction, spam_bound_curve
from qfdr.cli import load_config, main
from qfdr.config import (COMMAND_KEYS, COMMANDS, FORMATS, MAX_INCOHERENT_STEPS,
                         MAX_SIMULATE_STEPS, ConfigError, RunConfig, build_config,
                         parse_document)
from qfdr.io import format_value, read_csv_table, read_samples, render_csv
from qfdr.protocol import COHERENT, KINDS, MAX_GAP, ProtocolSpec, SpamModel
from qfdr.reference import EXPERIMENT_BETA, EXPERIMENT_READOUT_ERROR, load_reference_points
from qfdr.stats import bootstrap_q, estimate_from_samples
from qfdr.qubit import ThermalSpec, flip_probability

# a valid value for every key but command
VALID_VALUES = {
    "kind": st.sampled_from(KINDS),
    "n_steps": st.lists(st.integers(1, 500), min_size=1, max_size=4),
    "beta": st.floats(0.0, 50.0),
    "omega_start": st.floats(0.01, 50.0),
    "omega_end": st.floats(0.01, 50.0),
    "runs": st.integers(1, 10**6),
    "resamples": st.integers(2, 1000),
    "seed": st.integers(0, 2**64 - 1),
    "workers": st.integers(1, 64),
    "spam": st.booleans(),
    "spam_bright": st.floats(0.0, 0.5, exclude_max=True),
    "spam_dark": st.floats(0.0, 0.5, exclude_max=True),
    "threshold": st.floats(1e-3, 100.0),
    "include_experiment": st.booleans(),
    "betas": st.lists(st.floats(0.0, 50.0), min_size=1, max_size=4),
    "target_theta": st.floats(-10.0, 10.0),
    "shots": st.integers(1, 10**6),
    "output": st.sampled_from(["", "out.csv", "runs/a b.json"]),
    "format": st.sampled_from(FORMATS),
}


@st.composite
def read_settings(draw):
    """A command and valid values of keys it reads: the gaps with an
    incoherent kind only, readout error with a coherent one only, and the
    rates with spam only where spam is a key.  certify's beta is left out,
    since certify accepts only the measured one."""
    command = draw(st.sampled_from(COMMANDS))
    keys = COMMAND_KEYS[command] - ({"beta"} if command == "certify" else set()) | {"output"}
    values = {}
    if "kind" in keys:
        values["kind"] = draw(st.sampled_from(KINDS))
        coherent = values["kind"] == COHERENT
        keys -= {"omega_start", "omega_end"} if coherent else {"spam", "spam_bright", "spam_dark"}
    if "spam" in keys:
        values["spam"] = draw(st.booleans())
        if not values["spam"]:
            keys -= {"spam_bright", "spam_dark"}
    optional = {key: VALID_VALUES[key] for key in sorted(keys - values.keys())}
    return command, values | draw(st.fixed_dictionaries({}, optional=optional))


def _text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


def _flag(key: str, value) -> str:
    name = key.replace("_", "-")
    if isinstance(value, bool):
        return f"--{name}" if value else f"--no-{name}"
    return f"--{name}={_text(value)}"


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

    def test_repeated_key_names_both_lines(self, tmp_path, capsys):
        text = "command = simulate\nruns = 10\nruns = 20\n"
        with pytest.raises(ConfigError, match=r"^runs: set on line 2 and again on line 3$"):
            parse_document(text)
        config = tmp_path / "run.cfg"
        config.write_text(text)
        assert main(["--config", str(config)]) == 2
        assert "runs: set on line 2 and again on line 3" in capsys.readouterr().err


    def test_hash_opens_a_comment_only_at_line_start_or_after_whitespace(self, tmp_path):
        text = "command = analytic\nn_steps = 10 # ten\n  # indented\noutput = out#1.csv\n"
        values = parse_document(text)
        assert values["n_steps"] == ("10", 2)
        assert values["output"] == ("out#1.csv", 4)
        config = tmp_path / "run.cfg"
        config.write_text(f"command = analytic\nn_steps = 10\t# ten\noutput = {tmp_path}/out#1.csv\n")
        assert load_config(["--config", str(config)]).n_steps == [10]
        assert main(["--config", str(config)]) == 0
        assert (tmp_path / "out#1.csv").is_file() and not (tmp_path / "out").exists()


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


class TestConfigSources:
    """A document, flags and typed library overrides take one conversion."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(drawn=read_settings())
    def test_sources_agree_on_valid_values(self, drawn):
        command, values = drawn
        steps = values.get("n_steps", [])
        assume(not (command == "simulate" and len(set(steps)) < len(steps)))
        document = "".join(f"{key} = {_text(value)}\n" for key, value in values.items())
        from_file = build_config(parse_document(f"command = {command}\n{document}"))
        from_flags = load_config([command, *(_flag(key, value) for key, value in values.items())])
        typed = build_config({}, {"command": command, **values})
        assert from_file == from_flags == typed
        for key, value in values.items():
            assert getattr(typed, key) == value

    @pytest.mark.parametrize(
        "key, value",
        [
            ("beta", float("nan")),
            ("omega_end", float("inf")),
            ("runs", 5.5),
            ("runs", True),
            ("seed", 3.0),
            ("beta", True),
            ("seed", -1),
            ("spam_bright", 0.5),
            ("n_steps", [2, 0]),
            ("betas", ""),
            ("kind", "thermal"),
        ],
    )
    def test_invalid_value_named_from_every_source(self, key, value):
        text = _text(value)
        with pytest.raises(ConfigError, match=rf"^{key}: .*\(line 2\)$"):
            build_config(parse_document(f"command = analytic\n{key} = {text}\n"))
        with pytest.raises(ConfigError, match=rf"^{key}: "):
            load_config(["analytic", _flag(key, text)])
        with pytest.raises(ConfigError, match=rf"^{key}: "):
            build_config({}, {"command": "analytic", key: value})

    def test_typed_scalar_step_count_is_a_list(self):
        assert build_config({}, {"command": "analytic", "n_steps": 3}).n_steps == [3]

    def test_help_lists_every_key(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        for key in fields(RunConfig)[1:]:
            assert f"--{key.name.replace('_', '-')}" in out
        for command in COMMANDS:
            assert command in out

    def test_exponent_value_with_minus_takes_the_equals_form(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        assert "--target-theta=-1e-05" in " ".join(capsys.readouterr().out.split())
        assert load_config(["calibrate", "--target-theta=-1e-05"]).target_theta == -1e-05
        with pytest.raises(SystemExit) as exit_info:
            load_config(["calibrate", "--target-theta", "-1e-05"])
        assert exit_info.value.code == 2

    def test_every_command_has_a_handler(self):
        assert set(cli._HANDLERS) == set(COMMANDS)


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

    def test_curves_sit_on_the_coherent_axis(self, tmp_path):
        """Both analytic curves put N = 1 .. 100 at v^-1 = N sqrt(2)."""
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--output", str(out)]) == 0
        _, rows = read_csv_table(out)
        for provenance in ("coherent_theory", "spam_bound"):
            v_inv = [float(r["v_inv"]) for r in rows if r["provenance"] == provenance]
            assert len(v_inv) == 100
            np.testing.assert_allclose(v_inv[1], 2 * math.sqrt(2.0), rtol=1e-14)
            np.testing.assert_allclose(v_inv, np.arange(1, 101) * math.sqrt(2.0), rtol=1e-14)

    def test_exclude_experiment(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--no-include-experiment", "--output", str(out)]) == 0
        _, rows = read_csv_table(out)
        assert all(r["provenance"] != "experiment" for r in rows)

    def test_beta_above_the_cap_writes_the_capped_file(self, tmp_path):
        """Every row group takes beta capped at ``BETA_CAP``: the incoherent
        rows once grew with a beta that the curves beside them capped."""
        files = []
        for beta in ("1000", "2000", "1e300"):
            out = tmp_path / f"sweep_{beta}.csv"
            assert main(["sweep", "--beta", beta, "--output", str(out)]) == 0
            files.append(out.read_bytes())
        assert files[1] == files[0] and files[2] == files[0]

    def test_cap_leaves_the_default_file_alone(self, tmp_path, monkeypatch):
        """The cap binds nowhere at the default beta, so the file is the one
        written with no cap at all."""
        capped, uncapped = tmp_path / "capped.csv", tmp_path / "uncapped.csv"
        assert main(["sweep", "--output", str(capped)]) == 0
        monkeypatch.setattr(ThermalSpec, "from_beta", classmethod(lambda cls, beta: cls(beta)))
        assert main(["sweep", "--output", str(uncapped)]) == 0
        assert capped.read_bytes() == uncapped.read_bytes()


class TestCertifyCommand:
    def test_all_points_certified(self, tmp_path):
        out = tmp_path / "certify.csv"
        code = main(["certify", "--output", str(out)])
        assert code == 0
        fieldnames, rows = read_csv_table(out)
        assert len(rows) == 6
        # the column holds the sigma every distance is expressed in
        assert "sigma_delta" in fieldnames and "sigma_stat" not in fieldnames
        sigmas = [ref.sigma_delta for ref in load_reference_points()]
        assert [float(row["sigma_delta"]) for row in rows] == sigmas
        for row in rows:
            assert float(row["delta_inc_sigma"]) >= 10.0
            assert float(row["delta_spam_sigma"]) >= 12.0
            assert row["pass"] == "true"

    def test_incoherent_reference_is_the_full_sweep_boundary(self, tmp_path):
        """certify evaluates only the sweep cells in its six bins; each
        ref_inc still reads the full sweep's bin maximum, byte for byte."""
        out = tmp_path / "certify.csv"
        assert main(["certify", "--output", str(out)]) == 0
        _, rows = read_csv_table(out)
        full = incoherent_region_sweep(3.413)
        assert [row["ref_inc"] for row in rows] == \
            [format_value(full.boundary_at(ref.v_inv)) for ref in load_reference_points()]

    def test_distances_are_the_rows_own_cells(self, tmp_path):
        """Each distance cell is (nq_exp - ref) / sigma_delta of its row's
        cells, in Python floats, and ref_spam is the readout-error bound at
        the row's N."""
        out = tmp_path / "certify.csv"
        assert main(["certify", "--output", str(out)]) == 0
        _, rows = read_csv_table(out)
        references = load_reference_points()
        spam = SpamModel(EXPERIMENT_READOUT_ERROR, EXPERIMENT_READOUT_ERROR)
        bounds = spam_bound_curve(EXPERIMENT_BETA, spam, [ref.n_steps for ref in references])
        assert [row["ref_spam"] for row in rows] == [format_value(b) for b in bounds.tolist()]
        for row in rows:
            nq_exp, sigma = float(row["nq_exp"]), float(row["sigma_delta"])
            for ref, delta in (("ref_inc", "delta_inc_sigma"), ("ref_spam", "delta_spam_sigma")):
                assert row[delta] == format_value((nq_exp - float(row[ref])) / sigma)

    def test_foreign_beta_rejected_with_exit_2(self, tmp_path, capsys):
        """The bundled points were measured at beta = 3.413; certifying them
        against boundaries at another temperature is refused."""
        out = tmp_path / "certify.csv"
        assert main(["certify", "--beta", "1", "--output", str(out)]) == 2
        assert "beta = 3.413" in capsys.readouterr().err
        assert not out.exists()
        assert main(["certify", "--output", str(out)]) == 0
        assert main(["certify", "--beta", "3.413", "--output", str(out)]) == 0

    def test_threshold_at_the_smallest_distance_passes(self, tmp_path):
        """A point passes when both of its distances reach the threshold:
        the smallest printed distance passes, the next float above fails."""
        out = tmp_path / "certify.csv"
        assert main(["certify", "--output", str(out)]) == 0
        _, rows = read_csv_table(out)
        smallest = min(float(r[key]) for r in rows for key in ("delta_inc_sigma", "delta_spam_sigma"))
        assert main(["certify", f"--threshold={smallest!r}", "--output", str(out)]) == 0
        above = math.nextafter(smallest, math.inf)
        assert main(["certify", f"--threshold={above!r}", "--output", str(out)]) == 3
        _, rows = read_csv_table(out)
        assert [r["pass"] for r in rows].count("false") == 1

    def test_unreachable_threshold_fails_with_exit_3(self, tmp_path, capsys):
        out = tmp_path / "certify.csv"
        code = main(["certify", "--threshold", "25.0", "--output", str(out)])
        assert code == 3
        assert capsys.readouterr().err == (
            "certification failure: certification failed at the 25.0 sigma threshold\n")
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

    def test_one_block_per_step_count(self, tmp_path):
        out = tmp_path / "profile.csv"
        betas = [0.0, 1.5, 3.413]
        assert main(["temperature-profile", "--n-steps", "2,3", "--betas", "0,1.5,3.413",
                     "--output", str(out)]) == 0
        _, rows = read_csv_table(out)
        expected = [(n, quantum_correction(ProtocolSpec(COHERENT, n, ThermalSpec.from_beta(beta))))
                    for n in (2, 3) for beta in betas]
        assert len(rows) == len(expected)
        for row, (n, estimate) in zip(rows, expected):
            assert int(row["n_steps"]) == n
            assert float(row["beta"]) == estimate.beta
            assert float(row["q_value"]) == estimate.q_value
            assert float(row["nq_rescaled"]) == estimate.rescaled


class TestCalibrateCommand:
    def test_round_trip_accuracy(self, tmp_path):
        out = tmp_path / "calibrate.csv"
        assert main(["calibrate", "--seed", "11", "--shots", "5000",
                     "--output", str(out)]) == 0
        _, rows = read_csv_table(out)
        assert len(rows) == 1
        assert abs(float(rows[0]["error"])) < 0.02
        np.testing.assert_allclose(float(rows[0]["true_duration"]), math.pi / 2.0, rtol=1e-12)

    @pytest.mark.parametrize(
        "argv", [["--seed", "11"], ["--seed", "3", "--shots", "1000", "--target-theta", "0.7"]],
        ids=["seed-11", "seed-3"])
    def test_row_is_the_per_duration_fit(self, tmp_path, argv):
        """One vector draw reads the stream as one scalar draw per duration
        did, so the row is that of a (duration, fraction) list fitted by a
        least-squares line, cell for cell."""
        out = tmp_path / "calibrate.csv"
        assert main(["calibrate", *argv, "--output", str(out)]) == 0
        config = load_config(["calibrate", *argv])
        rng = Generator(Philox(key=config.seed))
        durations = np.linspace(config.target_theta - 0.1, config.target_theta + 0.1, 5)
        samples = []
        for t in durations:
            observed = rng.binomial(config.shots, flip_probability(t)) / config.shots
            samples.append((float(t), float(observed)))
        slope, intercept = np.polyfit(np.array([t for t, _ in samples], dtype=np.float64),
                                      np.array([p for _, p in samples], dtype=np.float64), 1)
        fitted = float((flip_probability(config.target_theta) - intercept) / slope)
        expected = {"target_theta": config.target_theta, "shots": config.shots,
                    "seed": config.seed, "true_duration": config.target_theta,
                    "fitted_duration": fitted, "error": fitted - config.target_theta}
        _, rows = read_csv_table(out)
        assert rows == [{key: format_value(value) for key, value in expected.items()}]


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["analytic", "--n-steps", "3"],
            ["analytic", "--kind", "incoherent", "--n-steps", "1,4"],
            ["sweep"],
            ["certify"],
            ["temperature-profile", "--n-steps", "2,3"],
            ["calibrate"],
        ],
        ids=["analytic", "analytic-incoherent", "sweep", "certify", "temperature-profile",
             "calibrate"],
    )
    def test_json_mirrors_csv(self, tmp_path, argv):
        """Every table command writes the same columns, in the same order, and
        the same cells to CSV and to JSON."""
        csv_path = tmp_path / "a.csv"
        json_path = tmp_path / "a.json"
        assert main([*argv, "--output", str(csv_path)]) == 0
        assert main([*argv, "--format", "json", "--output", str(json_path)]) == 0
        fieldnames, rows = read_csv_table(csv_path)
        records = json.loads(json_path.read_text())
        assert len(records) == len(rows) > 0
        assert all(list(record) == fieldnames for record in records)
        assert [[format_value(v) for v in record.values()] for record in records] \
            == [list(row.values()) for row in rows]

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["temperature-profile", "--n-steps", "2,5"],
             "b8ca62fb8e85b4b99f99ae031e4f0813f5629cb0b14ecc905685593cd31686d0"),
            (["analytic", "--n-steps", "2,3,4,5,6,7"],
             "596bf1a97f4ceac308ad54fd2ee173add689fcbd3b8c63a22c4aec1e048a8e02"),
        ],
        ids=["temperature-profile", "analytic"],
    )
    def test_json_file_digest(self, tmp_path, argv, digest):
        """Both commands compute with ``math`` alone, so their JSON bytes do
        not depend on numpy's vectorised kernels."""
        out = tmp_path / "out.json"
        assert main([*argv, "--format", "json", "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        assert main(["analytic", "--beta", "-1"]) == 2

    def test_incoherent_with_spam_is_2(self, tmp_path, capsys):
        out = tmp_path / "samples.csv"
        code = main(["simulate", "--kind", "incoherent", "--spam", "--runs", "100",
                     "--output", str(out)])
        assert code == 2
        assert "spam" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_json_is_2(self, tmp_path, capsys):
        """A samples file is CSV only, so ``simulate`` refuses JSON rather
        than write CSV under a ``.json`` name."""
        out = tmp_path / "samples.json"
        assert main(["simulate", "--format", "json", "--runs", "100", "--output", str(out)]) == 2
        assert "format" in capsys.readouterr().err
        assert not out.exists()

    def test_simulate_repeated_step_count_is_2(self, tmp_path, capsys):
        """Each step count of a batch writes its own ``_n<N>`` file, so a
        repeated one would overwrite its own output."""
        out = tmp_path / "samples.csv"
        assert main(["simulate", "--n-steps", "2,2", "--runs", "100", "--output", str(out)]) == 2
        assert "n_steps" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, key", [
        (["analytic", "--kind", "incoherent", "--n-steps", "3", "--omega-end", "1e300",
          "--beta", "1"], "omega_end"),
        (["simulate", "--kind", "incoherent", "--n-steps", "3", "--omega-end", "1e300",
          "--beta", "1", "--runs", "200", "--resamples", "10"], "omega_end"),
        (["analytic", "--kind", "incoherent", "--omega-start", "1e300"], "omega_start"),
        (["temperature-profile", "--kind", "incoherent"], "kind"),
    ], ids=["analytic-gap-1e300", "simulate-gap-1e300", "analytic-start-1e300",
            "incoherent-profile"])
    def test_unmodelled_input_is_2(self, tmp_path, capsys, argv, key):
        """A gap above ``MAX_GAP`` would square towards overflow (at 1e300
        ``analytic`` wrote var_work=inf), and ``temperature-profile`` has
        only the coherent correction: each is refused by its key, and no
        file is written."""
        out = tmp_path / "out.csv"
        assert main([*argv, "--output", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {key}: ")
        assert not list(tmp_path.iterdir())

    def test_gap_bound_is_accepted(self, tmp_path):
        out = tmp_path / "analytic.csv"
        argv = ["analytic", "--kind", "incoherent", "--omega-start", str(MAX_GAP),
                "--omega-end", "1e-300", "--beta", "1000", "--n-steps", "1,1000"]
        assert main([*argv, "--output", str(out)]) == 0
        _, rows = read_csv_table(out)
        assert all(math.isfinite(float(value)) for row in rows for key, value in row.items()
                   if key != "kind")

    def test_simulate_step_cap_is_accepted(self):
        config = build_config(overrides={"command": "simulate", "n_steps": [MAX_SIMULATE_STEPS]})
        assert config.n_steps == [MAX_SIMULATE_STEPS]

    @pytest.mark.parametrize("n_steps", [str(MAX_SIMULATE_STEPS + 1), "100000", "2,100000"])
    def test_simulate_above_step_cap_is_2(self, tmp_path, capsys, monkeypatch, n_steps):
        """The bootstrap's exact law grows as N^2 cells in N^3 time, so a step
        count above the cap is refused before any run is drawn."""
        def draw(*args, **kwargs):
            raise AssertionError("simulate drew runs")

        monkeypatch.setattr(cli, "sample_work", draw)
        out = tmp_path / "samples.csv"
        assert main(["simulate", "--n-steps", n_steps, "--runs", "5", "--output", str(out)]) == 2
        assert "n_steps" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("n_steps", [str(MAX_INCOHERENT_STEPS + 1), "2,100000000000000000000"])
    def test_incoherent_above_step_bound_is_2(self, tmp_path, capsys, n_steps):
        """An incoherent ramp holds 16 bytes of per-step arrays per step (at
        N = 1e20 ``analytic`` exited 1 with numpy's size error), so a step
        count above the bound is refused by name and no file is written."""
        out = tmp_path / "analytic.csv"
        argv = ["analytic", "--kind", "incoherent", "--n-steps", n_steps, "--output", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("configuration error: n_steps: ")
        assert not list(tmp_path.iterdir())

    def test_incoherent_step_bound_is_accepted(self, tmp_path):
        """The bound admits N = MAX_INCOHERENT_STEPS, and the coherent closed
        forms, O(1) in N, stay unbounded."""
        for kind, n_steps in (("incoherent", f"1,{MAX_INCOHERENT_STEPS}"),
                              ("coherent", "100000000000000000000")):
            out = tmp_path / f"{kind}.csv"
            assert main(["analytic", "--kind", kind, "--n-steps", n_steps, "--output", str(out)]) == 0
            _, rows = read_csv_table(out)
            assert [int(row["n_steps"]) for row in rows] == [int(n) for n in n_steps.split(",")]
            assert all(math.isfinite(float(value)) for row in rows for key, value in row.items()
                       if key != "kind")

    @pytest.mark.parametrize("theta, shots", [("0", "1"), ("0.05", "10")])
    def test_calibration_without_a_slope_is_2(self, tmp_path, capsys, theta, shots):
        """Bright counts that stay flat across the window fit no line, so the
        target and shot count are refused by name and no file is written."""
        out = tmp_path / "calibrate.csv"
        assert main(["calibrate", "--target-theta", theta, "--shots", shots,
                     "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "target_theta" in err and "shots" in err
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize(
        "key, value",
        [("beta", "nan"), ("omega_start", "nan"), ("omega_end", "inf"), ("beta", "inf")],
    )
    def test_non_finite_value_is_2(self, tmp_path, capsys, source, key, value):
        """Flag values go through the same conversion as file values."""
        out = tmp_path / "analytic.csv"
        argv = ["analytic", "--kind", "incoherent", "--output", str(out)]
        if source == "flag":
            argv += [f"--{key.replace('_', '-')}", value]
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"{key} = {value}\n")
            argv += ["--config", str(config)]
        assert main(argv) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()

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


# an accepted value off its default for every key but command and output
ALTERNATIVES = {
    "kind": "incoherent", "n_steps": "3", "beta": "1", "omega_start": "0.5", "omega_end": "3",
    "runs": "60", "resamples": "3", "seed": "5", "workers": "2", "spam": True,
    "spam_bright": "0.01", "spam_dark": "0.02", "threshold": "20", "include_experiment": False,
    "betas": "0,1", "target_theta": "1", "shots": "100", "format": "json",
}
CHEAP = {"simulate": ["--runs", "50", "--resamples", "2"]}
INCOHERENT_ARGV = ["--kind", "incoherent"]
# keys the table lists but that a command reads only under the flags given
READ_UNDER = {
    (command, key): INCOHERENT_ARGV for command in ("simulate", "analytic")
    for key in ("omega_start", "omega_end")
} | {("simulate", "spam_bright"): ["--spam"], ("simulate", "spam_dark"): ["--spam"]}
# the same keys where the flags given leave them unread
UNREAD_UNDER = {pair: [] for pair in READ_UNDER} | {("simulate", "spam"): INCOHERENT_ARGV}
# workers must not change a byte (the worker-invariance tests hold it), and
# certify accepts only the measured beta (test_foreign_beta_rejected_with_exit_2)
NO_ALTERNATIVE = {("simulate", "workers"), ("certify", "beta")}

READ = [(command, key) for command in COMMANDS for key in sorted(COMMAND_KEYS[command])
        if (command, key) not in NO_ALTERNATIVE]
UNREAD = [(command, key) for command in COMMANDS for key in ALTERNATIVES
          if key not in COMMAND_KEYS[command]] + sorted(UNREAD_UNDER)


class TestCommandKeys:
    """Every key a command reads changes some output byte for some accepted
    value, and every key it does not read is refused, so no setting is
    accepted and ignored."""

    @staticmethod
    def _outcome(tmp_path, capsys, argv):
        """Exit code, stdout, file bytes and stderr of one run, with its file removed."""
        out = tmp_path / "out"
        code = main([*argv, "--output", str(out)])
        data = out.read_bytes() if out.exists() else None
        out.unlink(missing_ok=True)
        captured = capsys.readouterr()
        return code, captured.out, data, captured.err

    @pytest.mark.parametrize("command, key", READ, ids=[f"{c}-{k}" for c, k in READ])
    def test_read_key_changes_the_output(self, tmp_path, capsys, command, key):
        argv = [command, *CHEAP.get(command, []), *READ_UNDER.get((command, key), [])]
        base = self._outcome(tmp_path, capsys, argv)[:3]
        changed = self._outcome(tmp_path, capsys, [*argv, _flag(key, ALTERNATIVES[key])])[:3]
        assert base[0] == 0 and changed[0] in (0, 3)
        assert changed != base

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("command, key", UNREAD, ids=[f"{c}-{k}" for c, k in UNREAD])
    def test_unread_key_is_2(self, tmp_path, capsys, source, command, key):
        argv = [*CHEAP.get(command, []), *UNREAD_UNDER.get((command, key), [])]
        if source == "flag":
            argv = [command, *argv, _flag(key, ALTERNATIVES[key])]
        else:
            config = tmp_path / "run.cfg"
            config.write_text(f"command = {command}\n{key} = {_text(ALTERNATIVES[key])}\n")
            argv = ["--config", str(config), *argv]
        code, stdout, data, err = self._outcome(tmp_path, capsys, argv)
        assert (code, stdout, data) == (2, "", None)
        assert err.startswith(f"configuration error: {key}: {command} does not read it")
        assert err.endswith(" (line 2)\n") == (source == "file")
