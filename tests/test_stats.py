"""Error-analysis pipeline: binomial errors, bootstrap, distances, drift, calibration."""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from numpy.random import Generator, Philox

from qfdr import stats
from qfdr.analytics import (
    MONTE_CARLO,
    delta_free_energy,
    make_estimate,
    quantum_correction,
    sigma_distance,
    spam_correction,
)
from qfdr.protocol import (
    COHERENT,
    INCOHERENT,
    ProtocolSpec,
    SpamModel,
    run_distribution,
    sample_work,
    step_table,
)
from qfdr.qubit import BETA_CAP, ThermalSpec, population_to_beta
from qfdr.stats import (
    beta_error,
    binomial_error,
    bootstrap_q,
    calibrate_rotation_time,
    drift_scan,
    estimate_from_samples,
)

EXPERIMENT = ThermalSpec.from_beta(3.413)


def bootstrap_one_at_a_time(spec, spam, runs, resamples, seed):
    """Reference bootstrap: one multinomial draw and one scalar refit per
    resample, with 1-D dot products, as the resamples were once refitted."""
    totals, excited, probs = run_distribution(step_table(spec, spam))
    rng = Generator(Philox(key=seed + (1 << 64)))
    q_values = []
    for _ in range(resamples):
        counts = rng.multinomial(runs, probs)
        n_runs = int(counts.sum())
        mean = float(counts @ totals) / n_runs
        variance = float(counts @ (totals - mean) ** 2) / (n_runs - 1) if n_runs > 1 else 0.0
        if spec.kind == COHERENT:
            p_hat = float(counts @ excited) / (spec.n_steps * n_runs)
            beta = BETA_CAP if p_hat <= 0.0 else 0.0 if p_hat >= 0.5 else population_to_beta(p_hat)
            delta_f = 0.0
        else:
            beta = spec.thermal.beta
            delta_f = float(delta_free_energy(beta, spec.omega_start, spec.omega_end))
        q_values.append(make_estimate(mean, variance, beta, delta_f, spec.n_steps,
                                      spec.norm_dh, MONTE_CARLO).q_value)
    return np.array(q_values)


class TestBinomialError:
    def test_degenerate_frequency(self):
        assert binomial_error(0.0, 100) == 0.0
        assert binomial_error(1.0, 100) == 0.0

    def test_peak_variance(self):
        assert binomial_error(0.5, 100) == 0.05

    def test_experiment_scale(self):
        np.testing.assert_allclose(binomial_error(0.032, 40000), 8.80e-4, rtol=1e-3)

    def test_domain(self):
        with pytest.raises(ValueError):
            binomial_error(1.2, 10)
        with pytest.raises(ValueError):
            binomial_error(0.3, 0)


class TestBetaError:
    def test_experiment_scale(self):
        sigma = beta_error(0.032, 40000)
        np.testing.assert_allclose(sigma, binomial_error(0.032, 40000) / (0.032 * 0.968), rtol=1e-14)
        np.testing.assert_allclose(sigma, 0.0284, atol=1e-4)
        # same order as the measured +-0.025
        assert 0.01 < sigma < 0.1

    def test_quadruple_trials_halves_error(self):
        np.testing.assert_allclose(
            beta_error(0.1, 4 * 5000), beta_error(0.1, 5000) / 2.0, rtol=1e-14
        )

    def test_quarter_population_value(self):
        np.testing.assert_allclose(
            beta_error(0.25, 10**6), math.sqrt(0.1875 / 10**6) / 0.1875, rtol=1e-14
        )
        np.testing.assert_allclose(beta_error(0.25, 10**6), 2.31e-3, atol=1e-5)

    def test_boundaries_rejected(self):
        for p in (0.0, 0.5, 0.9):
            with pytest.raises(ValueError):
                beta_error(p, 100)


class TestBootstrapQ:
    def test_determinism(self):
        a = bootstrap_q(EXPERIMENT, 2, 2000, resamples=50, seed=11)
        b = bootstrap_q(EXPERIMENT, 2, 2000, resamples=50, seed=11)
        np.testing.assert_array_equal(a.q_values, b.q_values)
        assert a.sigma_q == b.sigma_q

    def test_experiment_scale_sigma(self):
        """Regenerated datasets at the measured operating point spread the
        rescaled correction by about the published 0.021."""
        report = bootstrap_q(EXPERIMENT, 2, 8000, resamples=200, seed=5)
        assert report.q_values.shape == (200,)
        assert 0.021 / 1.5 <= report.sigma_rescaled <= 0.021 * 1.5

    def test_degenerate_ramp_pins_q_to_zero(self):
        """A ramp with omega_end = omega_start does no work in any run."""
        report = bootstrap_q(EXPERIMENT, 2, 3000, resamples=50, seed=2,
                             kind=INCOHERENT, omega_start=1.0, omega_end=1.0)
        assert np.all(report.q_values == 0.0)
        assert report.sigma_q == 0.0
        assert report.sigma_rescaled == 0.0

    def test_mean_is_unbiased(self):
        report = bootstrap_q(EXPERIMENT, 2, 8000, resamples=200, seed=17)
        analytic = quantum_correction(ProtocolSpec(COHERENT, 2, EXPERIMENT)).q_value
        tolerance = 3.0 * report.sigma_q / math.sqrt(report.q_values.size)
        assert abs(report.q_values.mean() - analytic) < tolerance

    def test_sigma_shrinks_as_inverse_sqrt_runs(self):
        small = bootstrap_q(EXPERIMENT, 2, 1_000, resamples=200, seed=29)
        large = bootstrap_q(EXPERIMENT, 2, 100_000, resamples=200, seed=29)
        ratio = small.sigma_q / large.sigma_q
        assert abs(ratio - 10.0) / 10.0 < 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_q(EXPERIMENT, 2, 100, resamples=1, seed=0)
        with pytest.raises(ValueError):
            bootstrap_q(EXPERIMENT, 2, 100, resamples=10, seed=0,
                        kind=INCOHERENT, omega_end=2.0, spam=SpamModel(0.004, 0.004))

    @pytest.mark.parametrize(
        "n_steps, kind, omega_end, spam",
        [
            (2, COHERENT, 1.0, None),
            (7, COHERENT, 1.0, SpamModel(0.004, 0.004)),
            (26, INCOHERENT, 19.39, None),
        ],
        ids=["coherent", "coherent-spam", "incoherent"],
    )
    def test_sigma_matches_the_spread_of_estimates(self, n_steps, kind, omega_end, spam):
        """The bootstrap sigma is the spread of the correction that
        ``estimate_from_samples`` gives on independently sampled datasets."""
        spec = ProtocolSpec(kind, n_steps, EXPERIMENT, 1.0, omega_end)
        rescaled = [
            estimate_from_samples(sample_work(spec, spam, runs=8000, seed=seed)).rescaled
            for seed in range(100)
        ]
        spread = float(np.std(rescaled, ddof=1))
        report = bootstrap_q(EXPERIMENT, n_steps, 8000, seed=100, kind=kind,
                             omega_start=1.0, omega_end=omega_end, spam=spam)
        assert abs(report.sigma_rescaled / spread - 1.0) <= 0.3


class TestBootstrapStreamKey:
    """The bootstrap stream is keyed by the exact words (seed, 1) at every
    seed below 2**64: a key list [seed, 1] turned seeds >= 2**63 into float64,
    so 2**64 - 1 drew seed 0's stream and 2**63 + 1 that of 2**63."""

    @pytest.mark.parametrize("seed", [0, 5, 2**63 - 1])
    def test_key_is_the_word_pair_below_two_to_the_63(self, seed):
        keys = []

        def recording_philox(**kwargs):
            bit_generator = Philox(**kwargs)
            keys.append(bit_generator.state)
            return bit_generator

        with mock.patch.object(np.random, "Philox", recording_philox):
            bootstrap_q(EXPERIMENT, 2, 100, resamples=3, seed=seed)
        assert len(keys) == 1
        np.testing.assert_equal(keys[0], Philox(key=[seed, 1]).state)

    @pytest.mark.parametrize("first, second", [(0, 2**64 - 1), (2**63, 2**63 + 1)])
    def test_seeds_that_share_a_float_draw_apart(self, first, second):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            a = bootstrap_q(EXPERIMENT, 3, 2000, resamples=50, seed=first)
            b = bootstrap_q(EXPERIMENT, 3, 2000, resamples=50, seed=second)
        assert a.q_values.tobytes() != b.q_values.tobytes()


class TestBootstrapBits:
    """The stacked, blocked refit reproduces the one-resample-at-a-time
    bootstrap bit for bit, and so every printed bootstrap sigma."""

    CASES = (
        [(COHERENT, n, 1.0, SpamModel(0.004, 0.004)) for n in range(2, 8)]
        + [(COHERENT, 10, 1.0, None)]
        + [(INCOHERENT, n, omega_end, None) for n in (1, 5, 26) for omega_end in (19.39, 0.3)]
    )

    @pytest.mark.parametrize("runs", [1, 2, 37, 8000])
    @pytest.mark.parametrize("kind, n_steps, omega_end, spam", CASES)
    def test_q_values_equal_the_per_resample_loop(self, kind, n_steps, omega_end, spam, runs):
        spec = ProtocolSpec(kind, n_steps, EXPERIMENT, 1.0, omega_end)
        report = bootstrap_q(EXPERIMENT, n_steps, runs, resamples=200, seed=n_steps + runs,
                             kind=kind, omega_start=1.0, omega_end=omega_end, spam=spam)
        expected = bootstrap_one_at_a_time(spec, spam, runs, 200, n_steps + runs)
        assert report.q_values.tobytes() == expected.tobytes()
        assert report.sigma_q == float(expected.std(ddof=1))

    @pytest.mark.parametrize("cells", [1, 500, 2**18])
    def test_blocks_read_the_stream_of_single_draws(self, cells):
        """Blocks of one, of four and of all 37 resamples (the coherent
        N = 10 support has 121 cells) give the per-resample loop's values."""
        spec = ProtocolSpec(COHERENT, 10, EXPERIMENT)
        with mock.patch.object(stats, "_BLOCK_CELLS", cells):
            report = bootstrap_q(EXPERIMENT, 10, 500, resamples=37, seed=8)
        expected = bootstrap_one_at_a_time(spec, None, 500, 37, 8)
        assert report.q_values.tobytes() == expected.tobytes()

    def test_one_multinomial_call_reads_k_single_draws(self):
        """numpy's stacked multinomial consumes the Philox stream exactly as
        k single draws, so the draw after a block is the same either way."""
        _, _, probs = run_distribution(step_table(ProtocolSpec(COHERENT, 7, EXPERIMENT), None))
        stacked, single = Generator(Philox(key=[3, 1])), Generator(Philox(key=[3, 1]))
        for block in (5, 1, 12):
            np.testing.assert_array_equal(
                stacked.multinomial(8000, probs, size=block),
                [single.multinomial(8000, probs) for _ in range(block)])
        np.testing.assert_array_equal(stacked.multinomial(8000, probs), single.multinomial(8000, probs))

    def test_memory_is_bounded(self):
        """2000 resamples over the N = 64 support (4218 cells) would stack
        67 MB per array at once; blocks keep the traced peak small."""
        tracemalloc.start()
        try:
            bootstrap_q(EXPERIMENT, 64, 1000, resamples=2000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6, f"traced peak {peak / 1e6:.1f} MB"


class TestEstimateFromSamples:
    def test_coherent_estimate_matches_analytic(self):
        spec = ProtocolSpec(COHERENT, 2, EXPERIMENT)
        samples = sample_work(spec, None, runs=100_000, seed=303)
        estimate = estimate_from_samples(samples)
        report = bootstrap_q(EXPERIMENT, 2, 100_000, resamples=100, seed=303)
        analytic = quantum_correction(spec)
        assert estimate.source == "monte_carlo"
        assert abs(estimate.q_value - analytic.q_value) < 5 * report.sigma_q

    def test_random_points_agree_with_analytic(self):
        """Monte Carlo and closed form agree within bootstrap error bars."""
        rng = np.random.default_rng(888)
        for _ in range(10):
            n = int(rng.integers(2, 12))
            beta = float(rng.uniform(0.5, 5.0))
            thermal = ThermalSpec.from_beta(beta)
            spec = ProtocolSpec(COHERENT, n, thermal)
            seed = int(rng.integers(0, 2**32))
            samples = sample_work(spec, None, runs=100_000, seed=seed)
            estimate = estimate_from_samples(samples)
            report = bootstrap_q(thermal, n, 100_000, resamples=60, seed=seed)
            analytic = quantum_correction(spec)
            assert abs(estimate.q_value - analytic.q_value) < 5 * report.sigma_q

    @pytest.mark.parametrize("kind", [COHERENT, INCOHERENT])
    def test_histogram_moments_equal_per_run_moments(self, kind):
        spec = ProtocolSpec(kind, 5, EXPERIMENT, 1.0, 2.0)
        samples = sample_work(spec, SpamModel(0.01, 0.02) if kind == COHERENT else None,
                              runs=20_000, seed=5)
        estimate = estimate_from_samples(samples)
        assert math.isclose(estimate.mean_work, samples.totals.mean(), rel_tol=1e-12)
        assert math.isclose(estimate.var_work, samples.totals.var(ddof=1), rel_tol=1e-12)

    def test_incoherent_estimate(self):
        from qfdr.analytics import incoherent_correction

        spec = ProtocolSpec(INCOHERENT, 5, EXPERIMENT, 1.0, 2.0)
        samples = sample_work(spec, None, runs=200_000, seed=71)
        estimate = estimate_from_samples(samples)
        analytic = incoherent_correction(spec)
        assert estimate.delta_f == analytic.delta_f
        assert abs(estimate.mean_work - analytic.mean_work) < 5e-3
        assert abs(estimate.q_value - analytic.q_value) < 5e-3


class TestSigmaDistance:
    def test_eleven_sigma_reference(self):
        distance = sigma_distance(0.438, 0.021, reference_value=0.438 - 11 * 0.021)
        np.testing.assert_allclose(distance, 11.0, rtol=1e-12)

    def test_point_on_reference(self):
        assert sigma_distance(0.3, 0.05, reference_value=0.3) == 0.0

    def test_last_point_against_readout_error_bound(self):
        """With its own error bar the last measured point sits ~10 sigma above
        the worst-case readout boundary, within 25 percent of the originally
        reported 12.1 (which was expressed in the third point's sigma)."""
        reference = spam_correction(EXPERIMENT, SpamModel(0.004, 0.004), 7).rescaled
        distance = sigma_distance(0.581, 0.036, reference_value=reference)
        np.testing.assert_allclose(distance, 10.254076921663811, rtol=1e-9)
        assert abs(distance - 12.1) / 12.1 < 0.25
        assert distance >= 10.0

    def test_sigma_must_be_positive(self):
        """At every entry: one bad sigma among good ones raises too."""
        for sigma in (0.0, -0.01, np.array([0.02, 0.0, 0.03]), np.array([0.02, -0.01, 0.03])):
            with pytest.raises(ValueError, match="sigma must be > 0"):
                sigma_distance(0.1, sigma, 0.05)

    def test_arrays_are_the_scalar_call_entry_by_entry(self):
        """One routine for one point and for the certificate's columns."""
        values = np.array([0.438, 0.3, 0.581, -0.2])
        sigmas = np.array([0.021, 0.05, 0.036, 1e-3])
        references = np.array([0.039, 0.3, 0.21185323082010277, 0.1])
        distances = sigma_distance(values, sigmas, references)
        assert distances.dtype == np.float64 and distances.shape == (4,)
        assert distances.tolist() == [sigma_distance(v, s, r) for v, s, r in
                                      zip(values.tolist(), sigmas.tolist(), references.tolist())]


class TestDriftScan:
    def test_iid_data_not_flagged(self):
        rng = np.random.default_rng(1000)
        outcomes = rng.random(40000) < 0.1
        report = drift_scan(outcomes, bin_size=1000)
        assert report.bins == 40
        assert report.excess_spread < 0.01
        assert not report.flagged

    def test_constant_sequence_has_zero_spread(self):
        report = drift_scan(np.zeros(5000, dtype=bool), bin_size=500)
        assert report.observed_spread == 0.0
        assert report.expected_spread == 0.0
        assert not report.flagged

    def test_injected_drift_is_flagged(self):
        rng = np.random.default_rng(2000)
        drifting_p = np.linspace(0.05, 0.15, 40000)
        outcomes = rng.random(40000) < drifting_p
        report = drift_scan(outcomes, bin_size=1000)
        assert report.excess_spread >= 0.01
        assert report.flagged

    def test_too_short_sequence(self):
        with pytest.raises(ValueError):
            drift_scan(np.zeros(1500, dtype=bool), bin_size=1000)

    def test_false_positive_rate_below_five_percent(self):
        """Null calibration at the experiment's (runs x steps, bin) scale."""
        rng = np.random.default_rng(3000)
        sequences = rng.random((1000, 40000)) < 0.1
        flags = 0
        for row in sequences:
            flags += drift_scan(row, bin_size=1000).flagged
        assert flags / 1000 < 0.05


class TestCalibrateRotationTime:
    def test_self_consistent_at_quarter_turn(self):
        times = np.linspace(math.pi / 2.0 - 0.08, math.pi / 2.0 + 0.08, 5)
        fitted = calibrate_rotation_time(times, np.sin(times / 2.0) ** 2, math.pi / 2.0)
        assert abs(fitted - math.pi / 2.0) < 1e-3

    def test_zero_angle_target(self):
        times = np.linspace(0.0, 0.02, 5)
        fitted = calibrate_rotation_time(times, np.sin(times / 2.0) ** 2, 0.0)
        assert abs(fitted) < 0.01

    def test_exact_on_linear_data(self):
        fitted = calibrate_rotation_time(np.array([0.9, 1.1]), np.array([0.45, 0.55]),
                                         math.pi / 2.0)
        np.testing.assert_allclose(fitted, 1.0, rtol=1e-12)

    def test_singular_design_rejected(self):
        with pytest.raises(ValueError, match="all durations are equal"):
            calibrate_rotation_time(np.array([1.0, 1.0]), np.array([0.4, 0.6]), 1.0)
        with pytest.raises(ValueError, match="at least two"):
            calibrate_rotation_time(np.array([1.0]), np.array([0.4]), 1.0)
        with pytest.raises(ValueError, match="one probability per duration"):
            calibrate_rotation_time(np.array([0.9, 1.0, 1.1]), np.array([0.4, 0.6]), 1.0)

    def test_recovery_under_binomial_noise(self):
        """100 noisy calibrations at 5000 shots: nearly all within 3 propagated
        standard errors of the true duration."""
        rng = np.random.default_rng(4000)
        shots = 5000
        target = math.pi / 2.0
        times = np.linspace(target - 0.08, target + 0.08, 5)
        design = np.vstack([times, np.ones_like(times)]).T
        covariance_scale = np.linalg.inv(design.T @ design)
        hits = 0
        for _ in range(100):
            observed = np.empty_like(times)
            sigma2 = 0.0
            for i, t in enumerate(times):
                p = math.sin(t / 2.0) ** 2
                observed[i] = rng.binomial(shots, p) / shots
                sigma2 += p * (1.0 - p) / shots
            sigma2 /= len(times)
            fitted = calibrate_rotation_time(times, observed, target)
            slope = 0.5 * math.sin(target)
            # propagated error of the crossing point of the fitted line
            se = math.sqrt(sigma2 * (covariance_scale[0, 0] * target**2
                                     + 2 * covariance_scale[0, 1] * target
                                     + covariance_scale[1, 1])) / slope
            hits += abs(fitted - target) <= 3 * se
        assert hits >= 97
