"""Command-line front end: simulate, analyze, sweep, certify, calibrate.

Exit codes: 0 success, 2 configuration/parse error, 3 certification failure,
4 I/O failure.  Output files are byte-identical for identical configuration
and seed, independent of the worker count.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np
from numpy.random import Generator, Philox

from . import analytics, stats
from .config import COMMANDS, ConfigError, RunConfig, build_config, parse_document
from .io import read_csv_table, write_samples, write_table
from .protocol import COHERENT_NORM_DH, ProtocolSpec, SpamModel, sample_work
from .qubit import ThermalSpec
from .reference import load_reference_points

OUTPUT_DIR_ENV = "QFDR_OUTPUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CERTIFICATION = 3
EXIT_IO = 4

SWEEP_FIELDS = ["provenance", "v_inv", "nq_rescaled"]
CERTIFY_FIELDS = [
    "v_inv",
    "nq_exp",
    "sigma_stat",
    "ref_inc",
    "delta_inc_sigma",
    "ref_spam",
    "delta_spam_sigma",
    "pass",
]
ANALYTIC_FIELDS = [
    "kind",
    "n_steps",
    "beta",
    "omega_start",
    "omega_end",
    "mean_work",
    "var_work",
    "delta_f",
    "q_value",
    "nq_rescaled",
]
PROFILE_FIELDS = ["n_steps", "beta", "q_value", "nq_rescaled"]
CALIBRATE_FIELDS = ["target_theta", "shots", "seed", "true_duration", "fitted_duration", "error"]

SWEEP_CURVE_N = np.arange(1, 101)


class CertificationFailure(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfdr",
        description="Work-statistics simulator and certification toolkit for a driven qubit.",
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS, help="what to run")
    parser.add_argument("--config", help="key=value configuration file")
    parser.add_argument("--kind", dest="kind")
    parser.add_argument("--n-steps", dest="n_steps", help="step count, or comma list for batch jobs")
    parser.add_argument("--beta", dest="beta", type=float)
    parser.add_argument("--omega-start", dest="omega_start", type=float)
    parser.add_argument("--omega-end", dest="omega_end", type=float)
    parser.add_argument("--runs", dest="runs", type=int)
    parser.add_argument("--resamples", dest="resamples", type=int)
    parser.add_argument("--seed", dest="seed", type=int)
    parser.add_argument("--workers", dest="workers", type=int)
    parser.add_argument("--spam", dest="spam", action=argparse.BooleanOptionalAction)
    parser.add_argument("--spam-bright", dest="spam_bright", type=float)
    parser.add_argument("--spam-dark", dest="spam_dark", type=float)
    parser.add_argument("--threshold", dest="threshold", type=float)
    parser.add_argument(
        "--include-experiment",
        dest="include_experiment",
        action=argparse.BooleanOptionalAction,
    )
    parser.add_argument("--betas", dest="betas", help="comma list of inverse temperatures")
    parser.add_argument("--target-theta", dest="target_theta", type=float)
    parser.add_argument("--shots", dest="shots", type=int)
    parser.add_argument("--output", dest="output")
    parser.add_argument("--format", dest="format")
    return parser


def load_config(argv: list[str]) -> RunConfig:
    parser = _build_parser()
    args = parser.parse_args(argv)
    file_values = {}
    if args.config:
        file_values = parse_document(Path(args.config).read_text())
    overrides = {
        key: getattr(args, key)
        for key in vars(args)
        if key != "config" and getattr(args, key) is not None
    }
    return build_config(file_values, overrides)


def _output_path(config: RunConfig, default_name: str) -> Path:
    if config.output:
        return Path(config.output)
    base = Path(os.environ.get(OUTPUT_DIR_ENV, "."))
    return base / default_name


def _spam_model(config: RunConfig) -> SpamModel | None:
    if not config.spam:
        return None
    return SpamModel(p_bright_given_0=config.spam_bright, p_dark_given_1=config.spam_dark)


def _protocol_specs(config: RunConfig) -> list[ProtocolSpec]:
    thermal = ThermalSpec.from_beta(config.beta)
    specs = []
    for n in config.n_steps:
        if config.kind == "coherent":
            specs.append(ProtocolSpec.coherent(n, thermal))
        else:
            specs.append(
                ProtocolSpec.incoherent(n, thermal, config.omega_start, config.omega_end)
            )
    return specs


def run_analytic(config: RunConfig) -> int:
    rows = []
    for spec in _protocol_specs(config):
        if spec.kind == "coherent":
            estimate = analytics.quantum_correction(spec)
        else:
            estimate = analytics.incoherent_correction(spec)
        rows.append(
            {
                "kind": spec.kind,
                "n_steps": spec.n_steps,
                "beta": spec.thermal.beta,
                "omega_start": spec.omega_start,
                "omega_end": spec.omega_end,
                "mean_work": estimate.mean_work,
                "var_work": estimate.var_work,
                "delta_f": estimate.delta_f,
                "q_value": estimate.q_value,
                "nq_rescaled": estimate.rescaled,
            }
        )
    path = _output_path(config, f"analytic.{config.format}")
    write_table(path, ANALYTIC_FIELDS, rows, config.format)
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def run_simulate(config: RunConfig) -> int:
    spam = _spam_model(config)
    multiple = len(config.n_steps) > 1
    for spec in _protocol_specs(config):
        samples = sample_work(spec, spam, config.runs, config.seed, workers=config.workers)
        path = _output_path(config, f"simulate.{config.format}")
        if multiple:
            path = path.with_name(f"{path.stem}_n{spec.n_steps}{path.suffix}")
        write_samples(path, samples)
        estimate = stats.estimate_from_samples(samples)
        report = stats.bootstrap_q(
            spec.thermal, spec.n_steps, config.runs, config.resamples, config.seed
        )
        print(
            f"wrote {path}: n_steps={spec.n_steps} runs={config.runs} "
            f"nq_rescaled={estimate.rescaled:.6f} bootstrap_sigma={report.sigma_rescaled:.6f}"
        )
    return EXIT_OK


def run_sweep(config: RunConfig) -> int:
    rows = []
    for point in analytics.coherent_theory_curve(config.beta, SWEEP_CURVE_N):
        rows.append({"provenance": point.provenance, "v_inv": point.inverse_speed,
                     "nq_rescaled": point.rescaled_q})
    sweep = analytics.incoherent_region_sweep(config.beta)
    for v_inv, value in zip(sweep.bin_centers().tolist(), sweep.bin_maxima.tolist()):
        rows.append({"provenance": "incoherent_sim", "v_inv": v_inv, "nq_rescaled": value})
    spam = SpamModel(p_bright_given_0=config.spam_bright, p_dark_given_1=config.spam_dark)
    for point in analytics.spam_bound_curve(config.beta, spam, SWEEP_CURVE_N):
        rows.append({"provenance": point.provenance, "v_inv": point.inverse_speed,
                     "nq_rescaled": point.rescaled_q})
    if config.include_experiment:
        for ref in load_reference_points():
            rows.append({"provenance": "experiment", "v_inv": ref.v_inv,
                         "nq_rescaled": ref.nq_rescaled})
    if sweep.skipped:
        print(f"sweep: skipped {sweep.skipped} degenerate grid points with no Hamiltonian change")
    path = _output_path(config, f"sweep.{config.format}")
    write_table(path, SWEEP_FIELDS, rows, config.format)
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def run_certify(config: RunConfig) -> int:
    """Compare the bundled measured points against both classical boundaries.

    Distances are expressed in each point's bundled sigma attribution (the
    published convention; rows 4-6 share the third point's sigma) and the
    pass flag requires both distances to reach the configured threshold.
    """
    references = load_reference_points()
    thermal = ThermalSpec.from_beta(config.beta)
    spam = SpamModel(p_bright_given_0=config.spam_bright, p_dark_given_1=config.spam_dark)
    sweep = analytics.incoherent_region_sweep(config.beta)

    rows = []
    all_passed = True
    for ref in references:
        if abs(ref.v_inv - ref.n_steps * math.sqrt(2.0)) > 0.05:
            print(
                f"note: abscissa {ref.v_inv} is not an integer multiple of sqrt(2); "
                f"using n_steps={ref.n_steps}"
            )
        point = analytics.SweepPoint(ref.v_inv, ref.nq_rescaled, "experiment")
        ref_spam = analytics.spam_correction(thermal, spam, ref.n_steps).rescaled
        to_inc = stats.sigma_distance(point, ref.sigma_delta, sweep.boundary_at(ref.v_inv),
                                      threshold=config.threshold)
        to_spam = stats.sigma_distance(point, ref.sigma_delta, ref_spam, "spam_bound",
                                       config.threshold)
        passed = to_inc.passed and to_spam.passed
        all_passed &= passed
        rows.append(
            {
                "v_inv": ref.v_inv,
                "nq_exp": ref.nq_rescaled,
                "sigma_stat": ref.sigma_delta,
                "ref_inc": to_inc.reference_value,
                "delta_inc_sigma": to_inc.distance_sigma,
                "ref_spam": ref_spam,
                "delta_spam_sigma": to_spam.distance_sigma,
                "pass": passed,
            }
        )
    path = _output_path(config, f"certify.{config.format}")
    write_table(path, CERTIFY_FIELDS, rows, config.format)
    print(f"wrote {path} ({len(rows)} rows)")
    for row in rows:
        print(
            f"  v_inv={row['v_inv']}: delta_inc={row['delta_inc_sigma']:.2f} "
            f"delta_spam={row['delta_spam_sigma']:.2f} "
            f"{'pass' if row['pass'] else 'FAIL'}"
        )
    if not all_passed:
        raise CertificationFailure(
            f"certification failed at the {config.threshold} sigma threshold"
        )
    return EXIT_OK


def run_temperature_profile(config: RunConfig) -> int:
    n = config.n_steps[0]
    rows = []
    for estimate in analytics.temperature_profile(n, config.betas):
        rows.append(
            {
                "n_steps": n,
                "beta": estimate.beta,
                "q_value": estimate.q_value,
                "nq_rescaled": estimate.rescaled,
            }
        )
    path = _output_path(config, f"temperature-profile.{config.format}")
    write_table(path, PROFILE_FIELDS, rows, config.format)
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def run_calibrate(config: RunConfig) -> int:
    """Synthetic rotation-time calibration round trip.

    With unit Rabi frequency the true duration for a target angle theta is
    t = theta.  Bright probabilities are sampled binomially at closely spaced
    durations around the target and the fitted duration is recovered by the
    linear-regression calibration.
    """
    rng = Generator(Philox(key=config.seed))
    true_duration = config.target_theta
    window = 0.1
    durations = np.linspace(true_duration - window, true_duration + window, 5)
    samples = []
    for t in durations:
        probability = math.sin(t / 2.0) ** 2
        observed = rng.binomial(config.shots, probability) / config.shots
        samples.append((float(t), float(observed)))
    fitted = stats.calibrate_rotation_time(samples, config.target_theta)
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
    path = _output_path(config, f"calibrate.{config.format}")
    write_table(path, CALIBRATE_FIELDS, rows, config.format)
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


def run(config: RunConfig) -> int:
    return _HANDLERS[config.command](config)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        config = load_config(argv)
    except ConfigError as error:
        print(f"configuration error: {error}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as error:
        print(f"i/o error: {error}", file=sys.stderr)
        return EXIT_IO
    try:
        return run(config)
    except CertificationFailure as error:
        print(f"certification failure: {error}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except OSError as error:
        print(f"i/o error: {error}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
