"""Closed-form cumulants and corrections against independent oracles.

The exhaustive-enumeration oracle below walks every outcome string of the
N-step protocol and is deliberately independent of the library's moment
formulas.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfdr.analytics import (
    FdrEstimate,
    coherent_asymptote,
    coherent_cumulants,
    coherent_theory_curve,
    delta_free_energy,
    incoherent_correction,
    incoherent_cumulants,
    incoherent_region_sweep,
    quantum_correction,
    spam_bound_curve,
    spam_correction,
    temperature_profile,
)
from qfdr.protocol import (
    ProtocolSpec,
    SpamModel,
    StepWorkDistribution,
    coherent_step_distribution,
    incoherent_step_distribution,
    sample_table_totals,
)
from qfdr.qubit import ThermalSpec

EXPERIMENT = ThermalSpec.from_beta(3.413)


def enumerate_total_work_cumulants(step_tables):
    """Mean and variance of the summed work over all outcome strings."""
    mean = 0.0
    second = 0.0
    supports = [list(zip(t.works, t.probs)) for t in step_tables]
    for combo in itertools.product(*supports):
        probability = 1.0
        total = 0.0
        for work, p in combo:
            probability *= p
            total += work
        mean += probability * total
        second += probability * total * total
    return mean, second - mean * mean


class TestCoherentCumulants:
    def test_experiment_point(self):
        mean, var = coherent_cumulants(ProtocolSpec.coherent(2, EXPERIMENT))
        np.testing.assert_allclose(mean, 0.27421152651749037, rtol=1e-14)
        np.testing.assert_allclose(var, 0.2552972381759263, rtol=1e-14)
        np.testing.assert_allclose(mean, 0.27418, atol=5e-5)
        np.testing.assert_allclose(var, 0.25531, atol=5e-5)

    def test_infinite_temperature_mean_vanishes(self):
        hot = ThermalSpec.from_beta(0.0)
        for n in (1, 3, 17):
            mean, _ = coherent_cumulants(ProtocolSpec.coherent(n, hot))
            assert mean == 0.0

    def test_single_cold_step(self):
        cold = ThermalSpec.from_beta(math.inf)
        mean, var = coherent_cumulants(ProtocolSpec.coherent(1, cold))
        np.testing.assert_allclose(mean, 0.5, atol=1e-14)
        np.testing.assert_allclose(var, 0.25, atol=1e-14)

    def test_exhaustive_enumeration_agreement(self):
        """All 3^N outcome strings, N <= 6, random temperatures."""
        rng = np.random.default_rng(60221023)
        for n in range(1, 7):
            for beta in rng.uniform(0.0, 6.0, size=4):
                spec = ProtocolSpec.coherent(n, ThermalSpec.from_beta(float(beta)))
                tables = [coherent_step_distribution(spec)] * n
                mean_ref, var_ref = enumerate_total_work_cumulants(tables)
                mean, var = coherent_cumulants(spec)
                np.testing.assert_allclose(mean, mean_ref, atol=1e-10, rtol=0.0)
                np.testing.assert_allclose(var, var_ref, atol=1e-10, rtol=0.0)

    def test_moment_sums_of_step_distribution(self):
        for n in (1, 5, 23):
            spec = ProtocolSpec.coherent(n, EXPERIMENT)
            dist = coherent_step_distribution(spec)
            mean, var = coherent_cumulants(spec)
            np.testing.assert_allclose(mean, n * dist.mean(), atol=1e-12)
            np.testing.assert_allclose(var, n * dist.variance(), atol=1e-12)

    def test_rejects_incoherent_spec(self):
        with pytest.raises(ValueError):
            coherent_cumulants(ProtocolSpec.incoherent(3, EXPERIMENT, 1.0, 2.0))


class TestDeltaFreeEnergy:
    def test_coherent_is_exactly_zero(self):
        for n in (1, 4, 50):
            assert delta_free_energy(ProtocolSpec.coherent(n, EXPERIMENT)) == 0.0

    def test_degenerate_ramp(self):
        assert delta_free_energy(ProtocolSpec.incoherent(5, EXPERIMENT, 1.3, 1.3)) == 0.0

    def test_infinite_temperature_limit(self):
        hot = ThermalSpec.from_beta(0.0)
        assert delta_free_energy(ProtocolSpec.incoherent(5, hot, 1.0, 2.0)) == 0.0

    def test_doubled_gap_value(self):
        """ln-cosh expression cross-checked against explicit partition functions."""
        spec = ProtocolSpec.incoherent(10, EXPERIMENT, 1.0, 2.0)
        value = delta_free_energy(spec)
        beta = EXPERIMENT.beta
        z_start = math.exp(beta * 0.5) + math.exp(-beta * 0.5)
        z_end = math.exp(beta * 1.0) + math.exp(-beta * 1.0)
        np.testing.assert_allclose(value, -(1.0 / beta) * math.log(z_end / z_start), rtol=1e-14)
        np.testing.assert_allclose(value, -0.4908213718934134, rtol=1e-12)

    def test_quasi_static_work_approaches_delta_f_from_above(self):
        """Dissipated work is non-negative and vanishes in the slow limit."""
        spec_slow = ProtocolSpec.incoherent(4000, EXPERIMENT, 1.0, 2.0)
        estimate = incoherent_correction(spec_slow)
        assert estimate.mean_work >= estimate.delta_f
        assert estimate.mean_work - estimate.delta_f < 1e-4
        spec_fast = ProtocolSpec.incoherent(2, EXPERIMENT, 1.0, 2.0)
        fast = incoherent_correction(spec_fast)
        assert fast.mean_work - fast.delta_f > estimate.mean_work - estimate.delta_f


class TestQuantumCorrection:
    def test_experiment_two_step_value(self):
        estimate = quantum_correction(ProtocolSpec.coherent(2, EXPERIMENT))
        np.testing.assert_allclose(estimate.rescaled, 0.4566586397567969, rtol=1e-14)
        assert round(estimate.rescaled, 3) == 0.457
        # within one statistical sigma of the measured 0.438 +- 0.021
        assert abs(estimate.rescaled - 0.438) <= 0.021

    def test_infinite_temperature_gives_zero(self):
        estimate = quantum_correction(ProtocolSpec.coherent(5, ThermalSpec.from_beta(0.0)))
        assert estimate.q_value == 0.0
        assert estimate.rescaled == 0.0

    def test_slow_driving_asymptote(self):
        asym = coherent_asymptote(3.413)
        np.testing.assert_allclose(asym, 0.6719628070818514, rtol=1e-14)
        np.testing.assert_allclose(asym, 0.672, atol=5e-4)
        huge = quantum_correction(ProtocolSpec.coherent(10**6, EXPERIMENT))
        np.testing.assert_allclose(huge.rescaled, asym, rtol=1e-9)

    def test_internal_identity(self):
        estimate = quantum_correction(ProtocolSpec.coherent(7, EXPERIMENT))
        reconstructed = estimate.beta / 2.0 * estimate.var_work - (
            estimate.mean_work - estimate.delta_f
        )
        assert estimate.q_value == reconstructed

    def test_positive_for_two_or_more_steps(self):
        rng = np.random.default_rng(5150)
        for _ in range(60):
            n = int(rng.integers(2, 100))
            beta = float(rng.uniform(0.0, 8.0))
            estimate = quantum_correction(ProtocolSpec.coherent(n, ThermalSpec.from_beta(beta)))
            assert estimate.q_value >= 0.0

    def test_single_step_counterexample(self):
        """A half-turn step is outside the slow-driving regime: the correction
        can dip below zero there, unlike every N >= 2."""
        estimate = quantum_correction(ProtocolSpec.coherent(1, ThermalSpec.from_beta(2.0)))
        np.testing.assert_allclose(estimate.q_value, -0.025803492574375808, rtol=1e-12)

    def test_source_tag(self):
        estimate = quantum_correction(ProtocolSpec.coherent(2, EXPERIMENT))
        assert estimate.source == "analytic"
        with pytest.raises(ValueError):
            FdrEstimate(0, 0, 0, 0, 0, 0, source="guesswork")


# occupation the kernel's beta*omega cap of 700 assigns to every level above
# it; the step tables cap at 745, so they may put less (down to 0) there
CAP_OCCUPATION = 1.0 / (1.0 + math.exp(700.0))

beta_values = st.floats(0.0, 10.0)
omega_end_values = st.floats(0.05, 20.0, exclude_min=True)


def step_moment_sums(beta, omega_start, omega_end, n):
    spec = ProtocolSpec.incoherent(n, ThermalSpec.from_beta(beta), omega_start, omega_end)
    tables = [incoherent_step_distribution(spec, j) for j in range(n)]
    return sum(t.mean() for t in tables), sum(t.variance() for t in tables)


class TestIncoherentCumulants:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        beta=beta_values,
        omega_start=st.sampled_from([1.0, 80.0]),
        omega_end=omega_end_values,
        n=st.integers(1, 300),
    )
    @example(beta=3.413, omega_start=1.0, omega_end=1.0, n=6)
    @example(beta=0.0, omega_start=1.0, omega_end=19.39, n=26)
    @example(beta=10.0, omega_start=80.0, omega_end=20.0, n=300)
    def test_equals_step_moment_sums(self, beta, omega_start, omega_end, n):
        """Sums of the per-step table moments, including delta = 0, beta = 0
        and beta*omega above the 700 cap (omega_start = 80)."""
        mean, var = incoherent_cumulants(beta, omega_start, omega_end, n)
        mean_ref, var_ref = step_moment_sums(beta, omega_start, omega_end, n)
        span = abs(omega_end - omega_start)
        # f - 1/2 loses absolute precision ~eps when beta*omega is tiny
        assert math.isclose(mean, mean_ref, rel_tol=1e-12, abs_tol=4e-16 * span)
        cap_slack = span**2 / n * CAP_OCCUPATION
        assert math.isclose(var, var_ref, rel_tol=1e-12, abs_tol=cap_slack)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        beta=beta_values,
        omega_ends=st.lists(omega_end_values, min_size=2, max_size=6),
        n=st.integers(1, 300),
    )
    def test_array_entries_match_per_element_calls(self, beta, omega_ends, n):
        """Each entry of an array call is bit-identical to the same entry
        computed alongside any other; a scalar call sums pairwise and agrees
        to rounding, at most n ulp of same-signed terms."""
        mean, var = incoherent_cumulants(beta, 1.0, np.array(omega_ends), n)
        assert mean.shape == var.shape == (len(omega_ends),)
        for i, omega_end in enumerate(omega_ends):
            pair_mean, pair_var = incoherent_cumulants(beta, 1.0, np.array([omega_end] * 2), n)
            assert mean[i] == pair_mean[0] and var[i] == pair_var[0]
            scalar_mean, scalar_var = incoherent_cumulants(beta, 1.0, omega_end, n)
            assert math.isclose(scalar_mean, mean[i], rel_tol=1e-13)
            assert math.isclose(scalar_var, var[i], rel_tol=1e-13)


class TestIncoherentCorrection:
    def test_degenerate_ramp_is_zero(self):
        estimate = incoherent_correction(ProtocolSpec.incoherent(6, EXPERIMENT, 1.0, 1.0))
        assert estimate.q_value == 0.0
        assert estimate.rescaled == 0.0

    def test_infinite_temperature_is_zero(self):
        hot = ThermalSpec.from_beta(0.0)
        estimate = incoherent_correction(ProtocolSpec.incoherent(6, hot, 1.0, 2.0))
        assert abs(estimate.q_value) < 1e-15

    def test_inverse_n_decay(self):
        slow = incoherent_correction(ProtocolSpec.incoherent(40, EXPERIMENT, 1.0, 2.0))
        fast = incoherent_correction(ProtocolSpec.incoherent(20, EXPERIMENT, 1.0, 2.0))
        np.testing.assert_allclose(fast.rescaled, 0.0017624897531278664, rtol=1e-12)
        np.testing.assert_allclose(slow.rescaled, 0.0008642478817085528, rtol=1e-12)
        assert slow.rescaled <= 0.5 * fast.rescaled

    def test_non_negative_for_gap_increasing_ramps(self):
        rng = np.random.default_rng(404)
        for _ in range(50):
            beta = float(rng.uniform(0.0, 6.0))
            omega_end = float(rng.uniform(1.0, 8.0))
            n = int(rng.integers(1, 60))
            spec = ProtocolSpec.incoherent(n, ThermalSpec.from_beta(beta), 1.0, omega_end)
            assert incoherent_correction(spec).q_value >= -1e-12

    def test_gap_decreasing_ramp_can_go_negative(self):
        """Ramping into a smaller gap dissipates more than (beta/2)Var covers,
        so the correction is genuinely negative there."""
        spec = ProtocolSpec.incoherent(1, EXPERIMENT, 1.0, 0.3)
        estimate = incoherent_correction(spec)
        np.testing.assert_allclose(estimate.q_value, -0.03228052767971179, rtol=1e-12)

    def test_against_enumeration(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            beta = float(rng.uniform(0.0, 4.0))
            omega_end = float(rng.uniform(0.3, 4.0))
            spec = ProtocolSpec.incoherent(n, ThermalSpec.from_beta(beta), 1.0, omega_end)
            tables = [incoherent_step_distribution(spec, j) for j in range(n)]
            mean_ref, var_ref = enumerate_total_work_cumulants(tables)
            estimate = incoherent_correction(spec)
            np.testing.assert_allclose(estimate.mean_work, mean_ref, atol=1e-12)
            np.testing.assert_allclose(estimate.var_work, var_ref, atol=1e-12)

    def test_rejects_coherent_spec(self):
        with pytest.raises(ValueError):
            incoherent_correction(ProtocolSpec.coherent(3, EXPERIMENT))


class TestSpamCorrection:
    def test_zero_rates_vanish(self):
        clean = SpamModel(0.0, 0.0)
        for n in (1, 5, 40):
            assert spam_correction(EXPERIMENT, clean, n).q_value == 0.0

    def test_seven_step_worked_value(self):
        estimate = spam_correction(EXPERIMENT, SpamModel(0.004, 0.004), 7)
        np.testing.assert_allclose(estimate.rescaled, 0.21185323082010277, rtol=1e-12)
        np.testing.assert_allclose(estimate.rescaled, 0.212, atol=5e-4)

    def test_linear_in_step_count(self):
        spam = SpamModel(0.004, 0.004)
        for n in (1, 2, 5, 11):
            single = spam_correction(EXPERIMENT, spam, n)
            double = spam_correction(EXPERIMENT, spam, 2 * n)
            assert double.q_value == 2.0 * single.q_value
            assert double.rescaled == 4.0 * single.rescaled

    def test_matches_worst_case_formula(self):
        """Direct transcription of the closed form, independent arithmetic path."""
        rng = np.random.default_rng(321)
        for _ in range(40):
            beta = float(rng.uniform(0.0, 6.0))
            pb = float(rng.uniform(0.0, 0.05))
            pd = float(rng.uniform(0.0, 0.05))
            n = int(rng.integers(1, 30))
            thermal = ThermalSpec.from_beta(beta)
            p = thermal.population
            drift = p * pd - (1.0 - p) * pb
            expected = n * (
                beta / 2.0 * (-(drift**2) - p * pb + p * pd + pb) + drift
            )
            estimate = spam_correction(thermal, SpamModel(pb, pd), n)
            np.testing.assert_allclose(estimate.q_value, expected, atol=1e-14)

    def test_monte_carlo_cross_check(self):
        """Sample the no-rotation misread table and recompute the correction."""
        spam = SpamModel(0.004, 0.004)
        n, runs = 7, 300_000
        p = EXPERIMENT.population
        plus = (1.0 - p) * spam.p_bright_given_0
        minus = p * spam.p_dark_given_1
        table = StepWorkDistribution(
            works=np.array([-1.0, 0.0, 1.0]),
            probs=np.array([minus, 1.0 - plus - minus, plus]),
        )
        totals = sample_table_totals(table, n_steps=n, runs=runs, seed=606)
        beta = EXPERIMENT.beta
        q_mc = beta / 2.0 * totals.var(ddof=1) - totals.mean()
        centered = totals - totals.mean()
        se_mean = totals.std(ddof=1) / math.sqrt(runs)
        se_var = (centered**2).std(ddof=1) / math.sqrt(runs)
        se_q = math.hypot(beta / 2.0 * se_var, se_mean)
        expected = spam_correction(EXPERIMENT, spam, n).q_value
        assert abs(q_mc - expected) < 5 * se_q


class TestTemperatureProfile:
    def test_zero_at_infinite_temperature(self):
        profile = temperature_profile(5, [0.0])
        assert profile[0].q_value == 0.0

    def test_experiment_temperature_value(self):
        profile = temperature_profile(5, [3.413])
        np.testing.assert_allclose(profile[0].rescaled, 0.6347845922322106, rtol=1e-14)

    def test_monotone_in_beta(self):
        betas = list(np.linspace(0.0, 4.0, 81))
        values = [e.rescaled for e in temperature_profile(5, betas)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_high_temperature_decay_is_cubic(self):
        """Q(2 beta)/Q(beta) -> 8 as beta -> 0: the leading term is beta^3.

        The rescaled correction divided by beta^2 therefore stays bounded on
        (0, 0.1] (it decreases to zero) without approaching a constant.
        """
        low = temperature_profile(5, [0.05])[0].rescaled
        high = temperature_profile(5, [0.10])[0].rescaled
        np.testing.assert_allclose(high / low, 7.994322364854063, rtol=1e-10)
        np.testing.assert_allclose(high / low, 8.0, rtol=1e-2)
        betas = np.linspace(0.01, 0.1, 10)
        ratios = [e.rescaled / e.beta**2 for e in temperature_profile(5, list(betas))]
        bound = max(ratios)
        assert ratios == sorted(ratios)
        assert all(0.0 < r <= bound for r in ratios)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            temperature_profile(5, [-0.5])


class TestIncoherentRegionSweep:
    def test_degenerate_grid_is_empty_with_warning_count(self):
        result = incoherent_region_sweep(
            3.413, omega_f_grid=np.array([1.0]), n_grid=np.arange(1, 6)
        )
        assert result.points.shape == (0, 2)
        assert result.skipped == 5
        assert len(result.points) + result.skipped == 5

    def test_boundary_anchor_at_experiment_bin(self):
        """The attainable incoherent region stays far below the first measured
        point: its supremum at v^-1 = 2.828 is more than 11 sigma under 0.438."""
        result = incoherent_region_sweep(3.413)
        boundary = result.boundary_at(2.828)
        np.testing.assert_allclose(boundary, 0.039409448080050764, rtol=1e-9)
        assert boundary <= 0.438 - 11 * 0.021

    def test_gap_increasing_points_are_non_negative(self):
        grid = np.geomspace(1.01, 20.0, 50)
        result = incoherent_region_sweep(3.413, omega_f_grid=grid, n_grid=np.arange(1, 30))
        assert result.points.dtype == np.float64 and result.points.shape == (50 * 29, 2)
        assert result.points[:, 1].min() >= -1e-9

    def test_full_grid_contains_negative_points(self):
        # gap-decreasing members of the default grid dip below zero; in the
        # certification bins the boundary comes from gap-increasing ramps
        # and stays positive
        result = incoherent_region_sweep(3.413)
        assert result.points[:, 1].min() < 0.0
        for v_inv in (2.828, 4.243, 5.657, 7.071, 8.845, 9.899):
            assert result.boundary_at(v_inv) > 0.0

    def test_boundary_covers_all_experiment_bins(self):
        result = incoherent_region_sweep(3.413)
        for v_inv in (2.828, 4.243, 5.657, 7.071, 8.845, 9.899):
            assert result.boundary_at(v_inv) > 0.0

    @pytest.mark.parametrize(
        "beta, omega_f_grid, n_grid",
        [
            (3.413, np.array([0.5, 1.0, 2.0, 3.0]), np.arange(1, 30)),
            (3.413, np.geomspace(0.05, 20.0, 50), np.array([7])),
            (1.0, np.linspace(0.1, 0.9, 17), np.arange(1, 40)),
            (0.0, np.array([0.3, 1.0, 4.0]), np.array([3, 1, 12])),
            (3.413, None, None),
        ],
    )
    def test_bin_maxima_equal_brute_force_max(self, beta, omega_f_grid, n_grid):
        result = incoherent_region_sweep(beta, omega_f_grid=omega_f_grid, n_grid=n_grid)
        omega_size = 200 if omega_f_grid is None else omega_f_grid.size
        n_size = 200 if n_grid is None else n_grid.size
        assert len(result.points) + result.skipped == omega_size * n_size
        best = {}
        for v_inv, value in result.points.tolist():
            key = math.floor(v_inv / result.bin_width)
            if key not in best or value > best[key]:
                best[key] = value
        keys = sorted(best)
        assert result.bin_keys.tolist() == keys
        assert result.bin_maxima.tolist() == [best[k] for k in keys]
        assert result.bin_centers().tolist() == [(k + 0.5) * result.bin_width for k in keys]
        for key in keys:
            assert result.boundary_at((key + 0.5) * result.bin_width) == best[key]

    def test_missing_bin_raises(self):
        result = incoherent_region_sweep(
            3.413, omega_f_grid=np.array([2.0]), n_grid=np.array([1])
        )
        with pytest.raises(KeyError):
            result.boundary_at(500.0)

    def test_invalid_grids(self):
        with pytest.raises(ValueError):
            incoherent_region_sweep(3.413, omega_f_grid=np.array([]))
        with pytest.raises(ValueError):
            incoherent_region_sweep(3.413, omega_f_grid=np.array([-1.0]))


class TestScalingTrichotomy:
    def test_three_scalings_separate(self):
        """Coherent plateaus, incoherent decays, readout errors grow."""
        spam = SpamModel(0.004, 0.004)
        coherent = [
            quantum_correction(ProtocolSpec.coherent(n, EXPERIMENT)).rescaled
            for n in (8, 16, 32, 64)
        ]
        incoherent = [
            incoherent_correction(ProtocolSpec.incoherent(n, EXPERIMENT, 1.0, 2.0)).rescaled
            for n in (8, 16, 32, 64)
        ]
        spam_values = [spam_correction(EXPERIMENT, spam, n).q_value for n in (8, 16, 32, 64)]
        # coherent: increasing toward a positive constant
        assert all(b > a for a, b in zip(coherent, coherent[1:]))
        assert coherent[-1] < coherent_asymptote(3.413)
        # incoherent: roughly halves per doubling
        for a, b in zip(incoherent, incoherent[1:]):
            assert 0.4 < b / a < 0.55
        # readout errors: exactly doubles per doubling
        for a, b in zip(spam_values, spam_values[1:]):
            assert b == 2.0 * a

    def test_curve_helpers(self):
        curve = coherent_theory_curve(3.413, np.array([2, 3]))
        assert [p.provenance for p in curve] == ["coherent_theory"] * 2
        np.testing.assert_allclose(curve[0].inverse_speed, 2 * math.sqrt(2.0), rtol=1e-14)
        bound = spam_bound_curve(3.413, SpamModel(0.004, 0.004), np.array([7]))
        np.testing.assert_allclose(bound[0].rescaled_q, 0.21185323082010277, rtol=1e-12)
