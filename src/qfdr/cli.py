"""Command-line front end: simulate, analytic, sweep, certify, temperature-profile,
calibrate.

Exit codes: 0 success, 2 configuration/parse error, 3 certification failure,
4 I/O failure.  Output files are byte-identical for identical configuration
and seed, independent of the worker count.  The analysis modules return
plain numbers and arrays; this module alone labels them and builds the
table rows, whose keys, in order, are the table's columns.  A command's
default output file is named after it.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import analytics, stats
from .config import COMMANDS, ConfigError, RunConfig, build_config, parse_document
from .io import write_samples, write_table
from .protocol import COHERENT, COHERENT_NORM_DH, INCOHERENT, ProtocolSpec, SpamModel, sample_work
from .qubit import ThermalSpec, flip_probability
from .reference import load_reference_points

OUTPUT_DIR_ENV = "QFDR_OUTPUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERTIFICATION = 3
EXIT_IO = 4

SWEEP_CURVE_N = np.arange(1, 101)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfdr",
        description="Work-statistics simulator and certification toolkit for a driven qubit.",
        epilog="A value that starts with '-' and is not a plain decimal (say, one in "
        "exponent form) must be given as --key=value, for example --target-theta=-1e-05.",
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS, help="what to run")
    parser.add_argument("--config", help="key=value configuration file")
    # one flag per config key; its value (the string typed, or a switch's
    # bool) takes the same conversion as a file value
    for key in fields(RunConfig)[1:]:  # every key after the positional command
        action = argparse.BooleanOptionalAction if isinstance(key.default, bool) else None
        parser.add_argument("--" + key.name.replace("_", "-"), dest=key.name, action=action,
                            help=key.metadata.get("help"))
    return parser


def load_config(argv: list[str]) -> RunConfig:
    overrides = vars(_build_parser().parse_args(argv))
    path = overrides.pop("config")
    file_values = parse_document(Path(path).read_text()) if path else {}
    return build_config(file_values, overrides)


def _output_path(config: RunConfig) -> Path:
    if config.output:
        return Path(config.output)
    base = Path(os.environ.get(OUTPUT_DIR_ENV, "."))
    return base / f"{config.command}.{config.format}"


def _write_rows(config: RunConfig, rows: list[dict]) -> None:
    path = _output_path(config)
    write_table(path, rows, config.format)
    print(f"wrote {path} ({len(rows)} rows)")


def _spam_model(config: RunConfig) -> SpamModel:
    return SpamModel(p_bright_given_0=config.spam_bright, p_dark_given_1=config.spam_dark)


def _protocol_specs(config: RunConfig) -> list[ProtocolSpec]:
    # coherent specs keep their unit gap whatever omega_start/omega_end say
    thermal = ThermalSpec.from_beta(config.beta)
    omegas = (config.omega_start, config.omega_end) if config.kind == INCOHERENT else (1.0, 1.0)
    return [ProtocolSpec(config.kind, n, thermal, *omegas) for n in config.n_steps]


def run_analytic(config: RunConfig) -> int:
    rows = []
    for spec in _protocol_specs(config):
        if spec.kind == COHERENT:
            estimate = analytics.quantum_correction(spec)
        else:
            estimate = analytics.incoherent_correction(spec)
        rows.append({"kind": spec.kind, "n_steps": spec.n_steps, "beta": spec.thermal.beta,
                     "omega_start": spec.omega_start, "omega_end": spec.omega_end,
                     "mean_work": estimate.mean_work, "var_work": estimate.var_work,
                     "delta_f": estimate.delta_f, "q_value": estimate.q_value,
                     "nq_rescaled": estimate.rescaled})
    _write_rows(config, rows)
    return EXIT_OK


def run_simulate(config: RunConfig) -> int:
    spam = _spam_model(config) if config.spam else None
    multiple = len(config.n_steps) > 1
    for spec in _protocol_specs(config):
        samples = sample_work(spec, spam, config.runs, config.seed, workers=config.workers)
        path = _output_path(config)
        if multiple:
            path = path.with_name(f"{path.stem}_n{spec.n_steps}{path.suffix}")
        write_samples(path, samples)
        estimate = stats.estimate_from_samples(samples)
        report = stats.bootstrap_q(
            spec.thermal, spec.n_steps, config.runs, config.resamples, config.seed,
            kind=spec.kind, omega_start=spec.omega_start, omega_end=spec.omega_end, spam=spam,
        )
        print(
            f"wrote {path}: n_steps={spec.n_steps} runs={config.runs} "
            f"nq_rescaled={estimate.rescaled:.6f} bootstrap_sigma={report.sigma_rescaled:.6f}"
        )
    return EXIT_OK


def run_sweep(config: RunConfig) -> int:
    n, beta, spam = SWEEP_CURVE_N, config.beta, _spam_model(config)
    sweep = analytics.incoherent_region_sweep(beta)
    # (label, v^-1 array, value array) per row group, in file order
    groups = [
        ("coherent_theory", n / COHERENT_NORM_DH, analytics.coherent_theory_curve(beta, n)),
        ("incoherent_sim", sweep.bin_centers(), sweep.bin_maxima),
        ("spam_bound", n / COHERENT_NORM_DH, analytics.spam_bound_curve(beta, spam, n)),
    ]
    if config.include_experiment:
        measured = np.array([(ref.v_inv, ref.nq_rescaled) for ref in load_reference_points()])
        groups.append(("experiment", *measured.T))
    rows = [{"provenance": label, "v_inv": v_inv, "nq_rescaled": value}
            for label, abscissae, values in groups
            for v_inv, value in zip(abscissae.tolist(), values.tolist())]
    _write_rows(config, rows)
    return EXIT_OK


def run_certify(config: RunConfig) -> int:
    """The bundled measured points' ``analytics.certificate``, one row per
    point; a point passes when both of its distances reach the threshold."""
    references = load_reference_points()
    record = analytics.certificate(config.beta, _spam_model(config), references)
    columns = zip(record.incoherent.tolist(), record.spam.tolist(),
                  record.delta_inc.tolist(), record.delta_spam.tolist())
    rows = []
    for ref, (ref_inc, ref_spam, delta_inc, delta_spam) in zip(references, columns):
        if abs(ref.v_inv - ref.n_steps / COHERENT_NORM_DH) > 0.05:
            print(f"note: abscissa {ref.v_inv} is not an integer multiple of sqrt(2); "
                  f"using n_steps={ref.n_steps}")
        # both comparisons, not min(): a NaN distance fails whichever one it is
        passed = delta_inc >= config.threshold and delta_spam >= config.threshold
        rows.append({"v_inv": ref.v_inv, "nq_exp": ref.nq_rescaled, "sigma_delta": ref.sigma_delta,
                     "ref_inc": ref_inc, "delta_inc_sigma": delta_inc, "ref_spam": ref_spam,
                     "delta_spam_sigma": delta_spam, "pass": passed})
    _write_rows(config, rows)
    for row in rows:
        print(f"  v_inv={row['v_inv']}: delta_inc={row['delta_inc_sigma']:.2f} "
              f"delta_spam={row['delta_spam_sigma']:.2f} {'pass' if row['pass'] else 'FAIL'}")
    if not all(row["pass"] for row in rows):
        print(f"certification failure: certification failed at the {config.threshold} sigma "
              "threshold", file=sys.stderr)
        return EXIT_CERTIFICATION
    return EXIT_OK


def run_temperature_profile(config: RunConfig) -> int:
    """The coherent correction at each (N, beta), N-major."""
    rows = []
    for n in config.n_steps:
        for beta in config.betas:
            estimate = analytics.quantum_correction(
                ProtocolSpec(COHERENT, n, ThermalSpec.from_beta(beta)))
            rows.append({"n_steps": n, "beta": estimate.beta, "q_value": estimate.q_value,
                         "nq_rescaled": estimate.rescaled})
    _write_rows(config, rows)
    return EXIT_OK


def run_calibrate(config: RunConfig) -> int:
    """Synthetic rotation-time calibration round trip.

    With unit Rabi frequency the true duration for a target angle theta is
    t = theta.  Bright counts are drawn binomially from the Rabi law
    ``flip_probability(t)`` at closely spaced durations around the target,
    and the linear-regression calibration, aimed at the same law, recovers
    the fitted duration.
    """
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    true_duration = config.target_theta
    window = 0.1
    durations = np.linspace(true_duration - window, true_duration + window, 5)
    bright = rng.binomial(config.shots, [flip_probability(t) for t in durations]) / config.shots
    try:
        fitted = stats.calibrate_rotation_time(durations, bright, config.target_theta)
    except ValueError as error:
        raise ConfigError(f"target_theta, shots: {error} at target_theta={config.target_theta!r} "
                          f"with shots={config.shots}") from error
    rows = [
        {
            "target_theta": config.target_theta,
            "shots": config.shots,
            "seed": config.seed,
            "true_duration": true_duration,
            "fitted_duration": fitted,
            "error": fitted - true_duration,
        }
    ]
    path = _output_path(config)
    write_table(path, rows, config.format)
    print(f"wrote {path}: fitted_duration={fitted:.6f} (true {true_duration:.6f})")
    return EXIT_OK


_HANDLERS = {
    "analytic": run_analytic,
    "simulate": run_simulate,
    "sweep": run_sweep,
    "certify": run_certify,
    "temperature-profile": run_temperature_profile,
    "calibrate": run_calibrate,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        config = load_config(argv)
        return _HANDLERS[config.command](config)
    except ConfigError as error:
        print(f"configuration error: {error}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as error:
        print(f"i/o error: {error}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
