"""Closed-form cumulants and corrections against independent oracles.

The exhaustive-enumeration oracle below walks every outcome string of the
N-step protocol and is deliberately independent of the library's moment
formulas.
"""

import dataclasses
import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfdr.analytics import (
    SWEEP_BIN_WIDTH,
    SWEEP_OMEGA_START,
    FdrEstimate,
    certificate,
    coherent_asymptote,
    coherent_theory_curve,
    delta_free_energy,
    incoherent_correction,
    incoherent_cumulants,
    incoherent_region_sweep,
    quantum_correction,
    sigma_distance,
    spam_bound_curve,
    spam_correction,
)
from qfdr.protocol import (
    COHERENT,
    INCOHERENT,
    ProtocolSpec,
    SpamModel,
    StepTable,
    apply_spam,
    coherent_step_distribution,
    coherent_step_table,
    ramp_occupations,
    run_distribution,
    step_table,
)
from qfdr.qubit import BETA_CAP, ThermalSpec
from qfdr.reference import EXPERIMENT_BETA, EXPERIMENT_READOUT_ERROR, load_reference_points

EXPERIMENT = ThermalSpec.from_beta(3.413)


def enumerate_total_work_cumulants(step_laws):
    """Mean and variance of the summed work over all outcome strings, given
    each step's (works, probs) work law."""
    mean = 0.0
    second = 0.0
    supports = [list(zip(works, probs)) for works, probs in step_laws]
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
    """The work cumulants of ``quantum_correction``'s coherent closed form."""

    @staticmethod
    def cumulants(spec):
        estimate = quantum_correction(spec)
        return estimate.mean_work, estimate.var_work

    def test_experiment_point(self):
        mean, var = self.cumulants(ProtocolSpec(COHERENT, 2, EXPERIMENT))
        np.testing.assert_allclose(mean, 0.27421152651749037, rtol=1e-14)
        np.testing.assert_allclose(var, 0.2552972381759263, rtol=1e-14)
        np.testing.assert_allclose(mean, 0.27418, atol=5e-5)
        np.testing.assert_allclose(var, 0.25531, atol=5e-5)

    def test_infinite_temperature_mean_vanishes(self):
        hot = ThermalSpec.from_beta(0.0)
        for n in (1, 3, 17):
            mean, _ = self.cumulants(ProtocolSpec(COHERENT, n, hot))
            assert mean == 0.0

    def test_single_cold_step(self):
        cold = ThermalSpec.from_beta(math.inf)
        mean, var = self.cumulants(ProtocolSpec(COHERENT, 1, cold))
        np.testing.assert_allclose(mean, 0.5, atol=1e-14)
        np.testing.assert_allclose(var, 0.25, atol=1e-14)

    def test_exhaustive_enumeration_agreement(self):
        """All 3^N outcome strings, N <= 6, random temperatures."""
        rng = np.random.default_rng(60221023)
        for n in range(1, 7):
            for beta in rng.uniform(0.0, 6.0, size=4):
                spec = ProtocolSpec(COHERENT, n, ThermalSpec.from_beta(float(beta)))
                table = coherent_step_distribution(spec)
                laws = [(table.works, table.probs[0].sum(axis=1))] * n
                mean_ref, var_ref = enumerate_total_work_cumulants(laws)
                mean, var = self.cumulants(spec)
                np.testing.assert_allclose(mean, mean_ref, atol=1e-10, rtol=0.0)
                np.testing.assert_allclose(var, var_ref, atol=1e-10, rtol=0.0)

    def test_moment_sums_of_step_distribution(self):
        for n in (1, 5, 23):
            spec = ProtocolSpec(COHERENT, n, EXPERIMENT)
            dist = coherent_step_distribution(spec)
            mean, var = self.cumulants(spec)
            np.testing.assert_allclose(mean, n * dist.mean(), atol=1e-12)
            np.testing.assert_allclose(var, n * dist.variance(), atol=1e-12)

    def test_rejects_incoherent_spec(self):
        with pytest.raises(ValueError):
            quantum_correction(ProtocolSpec(INCOHERENT, 3, EXPERIMENT, 1.0, 2.0))


class TestDeltaFreeEnergy:
    def test_coherent_is_exactly_zero(self):
        """A rotation leaves the spectrum alone; the coherent estimate states dF = 0."""
        for n in (1, 4, 50):
            assert quantum_correction(ProtocolSpec(COHERENT, n, EXPERIMENT)).delta_f == 0.0

    def test_degenerate_ramp(self):
        assert delta_free_energy(EXPERIMENT.beta, 1.3, 1.3) == 0.0

    def test_infinite_temperature_limit(self):
        assert delta_free_energy(0.0, 1.0, 2.0) == 0.0
        np.testing.assert_array_equal(delta_free_energy(0.0, 1.0, np.array([0.5, 2.0])), 0.0)

    def test_doubled_gap_value(self):
        """ln-cosh expression cross-checked against explicit partition functions."""
        beta = EXPERIMENT.beta
        value = delta_free_energy(beta, 1.0, 2.0)
        z_start = math.exp(beta * 0.5) + math.exp(-beta * 0.5)
        z_end = math.exp(beta * 1.0) + math.exp(-beta * 1.0)
        np.testing.assert_allclose(value, -(1.0 / beta) * math.log(z_end / z_start), rtol=1e-14)
        np.testing.assert_allclose(value, -0.4908213718934134, rtol=1e-12)

    def test_quasi_static_work_approaches_delta_f_from_above(self):
        """Dissipated work is non-negative and vanishes in the slow limit."""
        spec_slow = ProtocolSpec(INCOHERENT, 4000, EXPERIMENT, 1.0, 2.0)
        estimate = incoherent_correction(spec_slow)
        assert estimate.mean_work >= estimate.delta_f
        assert estimate.mean_work - estimate.delta_f < 1e-4
        spec_fast = ProtocolSpec(INCOHERENT, 2, EXPERIMENT, 1.0, 2.0)
        fast = incoherent_correction(spec_fast)
        assert fast.mean_work - fast.delta_f > estimate.mean_work - estimate.delta_f

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        beta=st.floats(0.0, 10.0),
        omega_start=st.floats(0.05, 80.0),
        omega_ends=st.lists(st.floats(0.05, 80.0), min_size=1, max_size=8),
    )
    @example(beta=3.413, omega_start=1.0, omega_ends=[1.0, 19.39, 0.3])
    def test_array_entries_equal_scalar_calls(self, beta, omega_start, omega_ends):
        """One formula for the sweep's grid and a single ramp, bit for bit."""
        values = delta_free_energy(beta, omega_start, np.array(omega_ends))
        assert values.shape == (len(omega_ends),)
        for value, omega_end in zip(values, omega_ends):
            assert value == delta_free_energy(beta, omega_start, omega_end)


class TestQuantumCorrection:
    def test_experiment_two_step_value(self):
        estimate = quantum_correction(ProtocolSpec(COHERENT, 2, EXPERIMENT))
        np.testing.assert_allclose(estimate.rescaled, 0.4566586397567969, rtol=1e-14)
        assert round(estimate.rescaled, 3) == 0.457
        # within one statistical sigma of the measured 0.438 +- 0.021
        assert abs(estimate.rescaled - 0.438) <= 0.021

    def test_infinite_temperature_gives_zero(self):
        estimate = quantum_correction(ProtocolSpec(COHERENT, 5, ThermalSpec.from_beta(0.0)))
        assert estimate.q_value == 0.0
        assert estimate.rescaled == 0.0

    def test_slow_driving_asymptote(self):
        asym = coherent_asymptote(3.413)
        np.testing.assert_allclose(asym, 0.6719628070818514, rtol=1e-14)
        np.testing.assert_allclose(asym, 0.672, atol=5e-4)
        huge = quantum_correction(ProtocolSpec(COHERENT, 10**6, EXPERIMENT))
        np.testing.assert_allclose(huge.rescaled, asym, rtol=1e-9)

    def test_internal_identity(self):
        estimate = quantum_correction(ProtocolSpec(COHERENT, 7, EXPERIMENT))
        reconstructed = estimate.beta / 2.0 * estimate.var_work - (
            estimate.mean_work - estimate.delta_f
        )
        assert estimate.q_value == reconstructed

    def test_positive_for_two_or_more_steps(self):
        rng = np.random.default_rng(5150)
        for _ in range(60):
            n = int(rng.integers(2, 100))
            beta = float(rng.uniform(0.0, 8.0))
            estimate = quantum_correction(ProtocolSpec(COHERENT, n, ThermalSpec.from_beta(beta)))
            assert estimate.q_value >= 0.0

    def test_single_step_counterexample(self):
        """A half-turn step is outside the slow-driving regime: the correction
        can dip below zero there, unlike every N >= 2."""
        estimate = quantum_correction(ProtocolSpec(COHERENT, 1, ThermalSpec.from_beta(2.0)))
        np.testing.assert_allclose(estimate.q_value, -0.025803492574375808, rtol=1e-12)

    def test_source_tag(self):
        estimate = quantum_correction(ProtocolSpec(COHERENT, 2, EXPERIMENT))
        assert estimate.source == "analytic"
        with pytest.raises(ValueError):
            FdrEstimate(0, 0, 0, 0, 0, 0, source="guesswork")


beta_values = st.floats(0.0, 10.0)
omega_end_values = st.floats(0.05, 20.0, exclude_min=True)


def work_marginals(spec):
    """The (works, probs) work law of each row of ``step_table``."""
    table = step_table(spec)
    return [(table.works, row.sum(axis=1)) for row in table.probs]


def step_moment_sums(beta, omega_start, omega_end, n):
    spec = ProtocolSpec(INCOHERENT, n, ThermalSpec.from_beta(beta), omega_start, omega_end)
    mean = var = 0.0
    for works, probs in work_marginals(spec):
        step_mean = works @ probs
        mean += step_mean
        var += (works - step_mean) ** 2 @ probs
    return mean, var


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
        assert math.isclose(var, var_ref, rel_tol=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        beta=beta_values,
        omega_ends=st.lists(omega_end_values, min_size=2, max_size=6),
        n=st.integers(1, 300),
    )
    def test_array_entries_match_per_element_calls(self, beta, omega_ends, n):
        """Each entry of an array call is bit-identical to the same entry
        computed alongside any other and to a scalar call."""
        mean, var = incoherent_cumulants(beta, 1.0, np.array(omega_ends), n)
        assert mean.shape == var.shape == (len(omega_ends),)
        for i, omega_end in enumerate(omega_ends):
            pair_mean, pair_var = incoherent_cumulants(beta, 1.0, np.array([omega_end] * 2), n)
            assert mean[i] == pair_mean[0] and var[i] == pair_var[0]
            scalar_mean, scalar_var = incoherent_cumulants(beta, 1.0, omega_end, n)
            assert scalar_mean == mean[i] and scalar_var == var[i]


class TestIncoherentCorrection:
    def test_degenerate_ramp_is_zero(self):
        estimate = incoherent_correction(ProtocolSpec(INCOHERENT, 6, EXPERIMENT, 1.0, 1.0))
        assert estimate.q_value == 0.0
        assert estimate.rescaled == 0.0

    def test_infinite_temperature_is_zero(self):
        hot = ThermalSpec.from_beta(0.0)
        estimate = incoherent_correction(ProtocolSpec(INCOHERENT, 6, hot, 1.0, 2.0))
        assert abs(estimate.q_value) < 1e-15

    def test_inverse_n_decay(self):
        slow = incoherent_correction(ProtocolSpec(INCOHERENT, 40, EXPERIMENT, 1.0, 2.0))
        fast = incoherent_correction(ProtocolSpec(INCOHERENT, 20, EXPERIMENT, 1.0, 2.0))
        np.testing.assert_allclose(fast.rescaled, 0.0017624897531278664, rtol=1e-12)
        np.testing.assert_allclose(slow.rescaled, 0.0008642478817085528, rtol=1e-12)
        assert slow.rescaled <= 0.5 * fast.rescaled

    def test_non_negative_for_gap_increasing_ramps(self):
        rng = np.random.default_rng(404)
        for _ in range(50):
            beta = float(rng.uniform(0.0, 6.0))
            omega_end = float(rng.uniform(1.0, 8.0))
            n = int(rng.integers(1, 60))
            spec = ProtocolSpec(INCOHERENT, n, ThermalSpec.from_beta(beta), 1.0, omega_end)
            assert incoherent_correction(spec).q_value >= -1e-12

    def test_gap_decreasing_ramp_can_go_negative(self):
        """Ramping into a smaller gap dissipates more than (beta/2)Var covers,
        so the correction is genuinely negative there."""
        spec = ProtocolSpec(INCOHERENT, 1, EXPERIMENT, 1.0, 0.3)
        estimate = incoherent_correction(spec)
        np.testing.assert_allclose(estimate.q_value, -0.03228052767971179, rtol=1e-12)

    def test_against_enumeration(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            beta = float(rng.uniform(0.0, 4.0))
            omega_end = float(rng.uniform(0.3, 4.0))
            spec = ProtocolSpec(INCOHERENT, n, ThermalSpec.from_beta(beta), 1.0, omega_end)
            mean_ref, var_ref = enumerate_total_work_cumulants(work_marginals(spec))
            estimate = incoherent_correction(spec)
            np.testing.assert_allclose(estimate.mean_work, mean_ref, atol=1e-12)
            np.testing.assert_allclose(estimate.var_work, var_ref, atol=1e-12)

    def test_rejects_coherent_spec(self):
        with pytest.raises(ValueError):
            incoherent_correction(ProtocolSpec(COHERENT, 3, EXPERIMENT))


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

    def test_no_rotation_step_is_apply_spams_model(self):
        """One readout-error model: the no-rotation per-step Q at beta = 3.413
        and epsilon = 0.004 is 0.0030572, from ``apply_spam``'s table and from
        ``spam_correction`` alike, not the 0.01365 of a channel that misreads
        the whole w = 0 mass whatever the first readout was."""
        spam = SpamModel(0.004, 0.004)
        step = apply_spam(coherent_step_table(EXPERIMENT.population, 0.0), spam)
        q_step = EXPERIMENT.beta / 2.0 * step.variance() - step.mean()
        np.testing.assert_allclose(q_step, 0.0030572, atol=5e-8)
        assert spam_correction(EXPERIMENT, spam, 1).q_value == q_step
        assert abs(q_step - 0.01365) > 0.01

    def test_array_of_step_counts(self):
        """Elementwise over an array of N, each entry the scalar call's bits."""
        spam = SpamModel(0.01, 0.02)
        n = np.array([1, 2, 7, 64])
        estimate = spam_correction(EXPERIMENT, spam, n)
        for i, n_i in enumerate(n.tolist()):
            scalar = spam_correction(EXPERIMENT, spam, n_i)
            assert estimate.q_value[i] == scalar.q_value
            assert estimate.rescaled[i] == scalar.rescaled
        with pytest.raises(ValueError):
            spam_correction(EXPERIMENT, spam, np.array([3, 0]))

    def test_run_distribution_cross_check(self):
        """The exact run law of the no-rotation misread table reproduces the
        correction: a second readout misread from the first readout's level."""
        spam = SpamModel(0.004, 0.004)
        n = 7
        p = EXPERIMENT.population
        pb, pd = spam.p_bright_given_0, spam.p_dark_given_1
        # rows w = -1, 0, +1; columns first readout ground, excited
        row = np.array([[0.0, p * pd], [(1 - p) * (1 - pb), p * (1 - pd)], [(1 - p) * pb, 0.0]])
        table = StepTable(
            works=np.array([-1.0, 0.0, 1.0]),
            probs=np.broadcast_to(row, (n, 3, 2)),
            flips=np.array([True, False, True]),
        )
        totals, excited, probs = run_distribution(table)
        mean = probs @ totals
        var = probs @ (totals - mean) ** 2
        beta = EXPERIMENT.beta
        q_exact = beta / 2.0 * var - mean
        expected = spam_correction(EXPERIMENT, spam, n).q_value
        np.testing.assert_allclose(q_exact, expected, rtol=1e-12)
        np.testing.assert_allclose(probs @ excited, n * p, rtol=1e-12)


class TestTemperatureProfile:
    """The coherent correction across inverse temperatures at N = 5, looped
    over ``quantum_correction`` as the ``temperature-profile`` command does."""

    @staticmethod
    def profile(betas):
        return [quantum_correction(ProtocolSpec(COHERENT, 5, ThermalSpec.from_beta(beta)))
                for beta in betas]

    def test_zero_at_infinite_temperature(self):
        profile = self.profile([0.0])
        assert profile[0].q_value == 0.0

    def test_experiment_temperature_value(self):
        profile = self.profile([3.413])
        np.testing.assert_allclose(profile[0].rescaled, 0.6347845922322106, rtol=1e-14)

    def test_monotone_in_beta(self):
        betas = list(np.linspace(0.0, 4.0, 81))
        values = [e.rescaled for e in self.profile(betas)]
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    def test_high_temperature_decay_is_cubic(self):
        """Q(2 beta)/Q(beta) -> 8 as beta -> 0: the leading term is beta^3.

        The rescaled correction divided by beta^2 therefore stays bounded on
        (0, 0.1] (it decreases to zero) without approaching a constant.
        """
        low = self.profile([0.05])[0].rescaled
        high = self.profile([0.10])[0].rescaled
        np.testing.assert_allclose(high / low, 7.994322364854063, rtol=1e-10)
        np.testing.assert_allclose(high / low, 8.0, rtol=1e-2)
        betas = np.linspace(0.01, 0.1, 10)
        ratios = [e.rescaled / e.beta**2 for e in self.profile(betas)]
        bound = max(ratios)
        assert ratios == sorted(ratios)
        assert all(0.0 < r <= bound for r in ratios)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            self.profile([-0.5])


# the sweep's one grid, N-major: N = 1 .. 200 by omega_end = geomspace(0.05, 20, 200)
SWEEP_OMEGA_END = np.geomspace(0.05, 20.0, 200)
SWEEP_N = np.arange(1, 201)
CERTIFY_V_INV = [2.828, 4.243, 5.657, 7.071, 8.845, 9.899]


class TestIncoherentRegionSweep:
    def test_default_grid_holds_no_degenerate_ramp(self):
        """The one grid, geomspace(0.05, 20, 200), holds no omega_end equal
        to the sweep's omega_start of 1, so no cell is degenerate and
        ``skipped``, kept for the benchmark's grid-cell count, is 0."""
        assert SWEEP_OMEGA_START not in SWEEP_OMEGA_END
        assert incoherent_region_sweep(3.413).skipped == 0

    def test_boundary_anchor_at_experiment_bin(self):
        """The attainable incoherent region stays far below the first measured
        point: its supremum at v^-1 = 2.828 is more than 11 sigma under 0.438."""
        result = incoherent_region_sweep(3.413)
        boundary = result.boundary_at(2.828)
        np.testing.assert_allclose(boundary, 0.039409448080050764, rtol=1e-9)
        assert boundary <= 0.438 - 11 * 0.021

    def test_gap_increasing_points_are_non_negative(self):
        """Columns 100-199 of the N-major (200, 200) point block are the
        omega_end > 1 half of the grid."""
        assert SWEEP_OMEGA_END[:100].max() < SWEEP_OMEGA_START < SWEEP_OMEGA_END[100:].min()
        result = incoherent_region_sweep(3.413)
        assert result.points.dtype == np.float64 and result.points.shape == (200 * 200, 2)
        assert result.points.reshape(200, 200, 2)[:, 100:, 1].min() >= -1e-9

    def test_full_grid_contains_negative_points(self):
        # gap-decreasing members of the default grid dip below zero; in the
        # certification bins the boundary comes from gap-increasing ramps
        # and stays positive
        result = incoherent_region_sweep(3.413)
        assert result.points[:, 1].min() < 0.0
        for v_inv in CERTIFY_V_INV:
            assert result.boundary_at(v_inv) > 0.0

    def test_boundary_covers_all_experiment_bins(self):
        result = incoherent_region_sweep(3.413)
        for v_inv in CERTIFY_V_INV:
            assert result.boundary_at(v_inv) > 0.0

    @pytest.mark.parametrize("beta", [2000.0, 1e300])
    def test_beta_is_capped_as_the_curves_cap_it(self, beta):
        """Above ``BETA_CAP`` the sweep is the capped sweep, bit for bit, as the
        coherent and readout-error curves beside it in ``sweep`` are."""
        capped = incoherent_region_sweep(BETA_CAP)
        assert incoherent_region_sweep(beta).bin_maxima.tobytes() == capped.bin_maxima.tobytes()

    @pytest.mark.parametrize(
        "beta, at",
        [
            (3.413, None),
            (1.0, None),
            (0.0, None),
            (3.413, CERTIFY_V_INV),
            (1.0, [0.05, 26772.0, 1e6]),
        ],
    )
    def test_bin_maxima_equal_brute_force_max(self, beta, at):
        result = incoherent_region_sweep(beta, at=at)
        if at is None:
            assert len(result.points) + result.skipped == SWEEP_OMEGA_END.size * SWEEP_N.size
        best = {}
        for v_inv, value in result.points.tolist():
            key = math.floor(v_inv / SWEEP_BIN_WIDTH)
            if key not in best or value > best[key]:
                best[key] = value
        keys = sorted(best)
        assert result.bin_keys.tolist() == keys
        assert result.bin_maxima.tolist() == [best[k] for k in keys]
        assert result.bin_centers().tolist() == [(k + 0.5) * SWEEP_BIN_WIDTH for k in keys]
        for key in keys:
            assert result.boundary_at((key + 0.5) * SWEEP_BIN_WIDTH) == best[key]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        beta=st.floats(0.0, 10.0),
        at=st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=6),
    )
    @example(beta=3.413, at=[2.828, 500.0])
    def test_restricted_sweep_is_the_full_sweeps_subset(self, beta, at):
        """Restricted to the bins of ``at`` (some of them empty), the sweep
        returns exactly the full sweep's points, bins and maxima there."""
        full = incoherent_region_sweep(beta)
        restricted = incoherent_region_sweep(beta, at=at)
        keys = {math.floor(v / SWEEP_BIN_WIDTH) for v in at}
        in_bins = [math.floor(v / SWEEP_BIN_WIDTH) in keys for v in full.points[:, 0].tolist()]
        assert restricted.points.tobytes() == full.points[in_bins].tobytes()
        kept = np.isin(full.bin_keys, sorted(keys))
        assert restricted.bin_keys.tolist() == full.bin_keys[kept].tolist()
        assert restricted.bin_maxima.tobytes() == full.bin_maxima[kept].tobytes()
        assert restricted.skipped == full.skipped
        for v in at:
            if math.floor(v / SWEEP_BIN_WIDTH) in full.bin_keys.tolist():
                assert restricted.boundary_at(v) == full.boundary_at(v)
            else:
                with pytest.raises(KeyError):
                    restricted.boundary_at(v)

    def test_missing_bin_raises(self):
        """A restricted sweep holds its own bins alone: the full sweep's bin
        at v^-1 = 4.243 is missing from a sweep at 2.828."""
        result = incoherent_region_sweep(3.413, at=[2.828])
        assert incoherent_region_sweep(3.413).boundary_at(4.243) > 0.0
        with pytest.raises(KeyError):
            result.boundary_at(4.243)


class TestCertificate:
    SPAM = SpamModel(EXPERIMENT_READOUT_ERROR, EXPERIMENT_READOUT_ERROR)

    def test_one_float64_entry_per_point_in_a_frozen_record(self):
        points = load_reference_points()
        record = certificate(EXPERIMENT_BETA, self.SPAM, points)
        for column in (record.incoherent, record.spam, record.delta_inc, record.delta_spam):
            assert column.dtype == np.float64 and column.shape == (len(points),)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.spam = record.incoherent

    def test_boundaries_are_the_full_sweep_and_the_spam_curve(self):
        """``incoherent`` carries the full sweep's bin maxima bit for bit,
        and ``spam`` the readout-error curve at each point's N."""
        points = load_reference_points()
        record = certificate(EXPERIMENT_BETA, self.SPAM, points)
        full = incoherent_region_sweep(EXPERIMENT_BETA)
        assert record.incoherent.tolist() == [full.boundary_at(p.v_inv) for p in points]
        bounds = spam_bound_curve(EXPERIMENT_BETA, self.SPAM, [p.n_steps for p in points])
        assert record.spam.tobytes() == bounds.tobytes()

    def test_distances_are_the_scalar_sigma_distance_of_each_point(self):
        points = load_reference_points()
        record = certificate(EXPERIMENT_BETA, self.SPAM, points)
        for i, p in enumerate(points):
            assert record.delta_inc[i] == sigma_distance(
                p.nq_rescaled, p.sigma_delta, float(record.incoherent[i]))
            assert record.delta_spam[i] == sigma_distance(
                p.nq_rescaled, p.sigma_delta, float(record.spam[i]))

    def test_no_readout_error_gives_a_zero_spam_bound(self):
        points = load_reference_points()
        record = certificate(EXPERIMENT_BETA, SpamModel(0.0, 0.0), points)
        assert not record.spam.any()
        assert record.delta_spam.tolist() == [p.nq_rescaled / p.sigma_delta for p in points]

    @pytest.mark.parametrize("sigma", [0.0, -0.01])
    def test_a_point_without_a_positive_sigma_raises(self, sigma):
        points = load_reference_points()
        points[3] = dataclasses.replace(points[3], sigma_delta=sigma)
        with pytest.raises(ValueError, match="sigma must be > 0"):
            certificate(EXPERIMENT_BETA, self.SPAM, points)


def out_of_place_occupations(beta, omega_start, omega_end, n):
    """The ramp law as first written, one fresh array per operation: the bit
    reference of the in-place kernel."""
    omega_end = np.asarray(omega_end, dtype=np.float64)
    delta = (omega_end - omega_start) / n
    gaps = omega_start + np.multiply.outer(delta, np.arange(n))
    return delta, 1.0 / (1.0 + np.exp(np.minimum(beta * gaps, 700.0)))


def out_of_place_cumulants(beta, omega_start, omega_end, n):
    delta, occupied = out_of_place_occupations(beta, omega_start, omega_end, n)
    delta = delta[..., None]
    mean = np.sum(delta * (occupied - 0.5), axis=-1)
    var = np.sum(delta**2 * occupied * (1.0 - occupied), axis=-1)
    return mean, var


def out_of_place_sweep(beta, omega_f_grid, n_grid, at=None):
    """(points, bin keys, bin maxima) of the region sweep as first written,
    with a fresh cumulant call and a copy of the wanted omega_end per N."""
    omega_start = SWEEP_OMEGA_START
    omega_f = omega_f_grid[omega_f_grid != omega_start]
    norm = np.abs(omega_f - omega_start) / 2.0
    wanted = np.broadcast_to(True, (n_grid.size, omega_f.size))
    if at is not None:
        wanted = np.isin(np.floor(np.divide(n_grid[:, None] / norm, SWEEP_BIN_WIDTH)),
                         np.floor(np.divide(at, SWEEP_BIN_WIDTH)))
    cumulants = [out_of_place_cumulants(beta, omega_start, omega_f[cells], n)
                 for n, cells in zip(n_grid, wanted) if cells.any()]
    mean, var = np.concatenate([np.empty((2, 0)), *cumulants], axis=1)
    n, norm, delta_f = (np.broadcast_to(grid, wanted.shape)[wanted] for grid in
                        (n_grid[:, None], norm, delta_free_energy(beta, omega_start, omega_f)))
    q = beta / 2.0 * var - (mean - delta_f)
    v_inv = n / norm
    rescaled = n * q / norm
    keys = np.floor(np.divide(v_inv, SWEEP_BIN_WIDTH)).astype(np.int64)
    order = np.argsort(keys)
    bin_keys, starts = np.unique(keys[order], return_index=True)
    return np.column_stack([v_inv, rescaled]), bin_keys, np.maximum.reduceat(rescaled[order], starts)


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


KERNEL_BETAS = [0.0, 1e-9, 0.5, 3.413, 8.0, 100.0]
# 8 and 128 are numpy's pairwise-sum unroll and block sizes; 9 and 129 cross them
KERNEL_NS = [1, 2, 7, 8, 9, 26, 128, 129, 200]
# ascending, descending and flat ramps from each start, below and above beta*omega = 700
KERNEL_RAMPS = {1.0: [0.05, 0.3, 1.0, 1.7, 19.39], 8.0: [0.4, 8.0, 11.0, 80.0]}


class TestInPlaceKernel:
    """The in-place kernel computes every entry by the same operations in
    the same order as the out-of-place expressions, so it keeps their bits."""

    @pytest.mark.parametrize("beta", KERNEL_BETAS)
    def test_cumulants_and_occupations_keep_the_bits(self, beta):
        for n in KERNEL_NS:
            for omega_start, ends in KERNEL_RAMPS.items():
                omega_end = np.array(ends)
                before = omega_end.copy()
                for actual, expected in [
                    (incoherent_cumulants(beta, omega_start, omega_end, n),
                     out_of_place_cumulants(beta, omega_start, omega_end, n)),
                    (ramp_occupations(beta, omega_start, omega_end, n),
                     out_of_place_occupations(beta, omega_start, omega_end, n)),
                ]:
                    for a, e in zip(actual, expected):
                        assert_same_bits(a, e)
                assert omega_end.tobytes() == before.tobytes()
                for end in ends:
                    mean, var = incoherent_cumulants(beta, omega_start, end, n)
                    ref_mean, ref_var = out_of_place_cumulants(beta, omega_start, end, n)
                    assert type(mean) is type(ref_mean) and type(var) is type(ref_var)
                    assert_same_bits(mean, ref_mean)
                    assert_same_bits(var, ref_var)

    @pytest.mark.parametrize("beta", KERNEL_BETAS)
    def test_sweep_keeps_the_bits(self, beta):
        for at in (None, [*CERTIFY_V_INV, 26772.0, 1e6]):
            result = incoherent_region_sweep(beta, at=at)
            points, bin_keys, bin_maxima = out_of_place_sweep(beta, SWEEP_OMEGA_END, SWEEP_N, at)
            assert_same_bits(result.points, points)
            assert_same_bits(result.bin_keys, bin_keys)
            assert_same_bits(result.bin_maxima, bin_maxima)

    def test_step_table_keeps_fresh_occupations(self):
        """``step_table``'s incoherent occupations carry the reference's bits,
        and the public ramp law hands out a fresh array per call, which a
        later call leaves alone."""
        for omega_end in (19.39, 0.3, 1.0):
            spec = ProtocolSpec(INCOHERENT, 26, EXPERIMENT, 1.0, omega_end)
            table = step_table(spec)
            _, excited = out_of_place_occupations(3.413, 1.0, omega_end, 26)
            assert_same_bits(table.probs[:, 1, 1], excited)
            assert_same_bits(table.probs[:, 0, 0], 1.0 - excited)
            step_table(ProtocolSpec(INCOHERENT, 26, EXPERIMENT, 1.0, 2.0))
            assert_same_bits(table.probs[:, 1, 1], excited)
        first = ramp_occupations(3.413, 1.0, 2.0, 5)[1]
        second = ramp_occupations(3.413, 1.0, 2.0, 5)[1]
        assert not np.shares_memory(first, second)

    def test_concurrent_sweeps_match_serial_ones(self):
        """Each call owns its arrays: sweeps at beta = 3.413 and 1.0
        running at once, on more threads than cores, return the serial
        results bit for bit."""
        betas = (3.413, 1.0, 3.413, 1.0)
        serial = {beta: incoherent_region_sweep(beta) for beta in set(betas)}
        barrier = threading.Barrier(len(betas), timeout=60)
        results = [[] for _ in betas]

        def run(beta, out):
            barrier.wait()
            for _ in range(3):
                out.append(incoherent_region_sweep(beta))

        threads = [threading.Thread(target=run, args=args) for args in zip(betas, results)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for beta, out in zip(betas, results):
            assert len(out) == 3
            for result in out:
                assert_same_bits(result.points, serial[beta].points)
                assert_same_bits(result.bin_keys, serial[beta].bin_keys)
                assert_same_bits(result.bin_maxima, serial[beta].bin_maxima)


class TestScalingTrichotomy:
    def test_three_scalings_separate(self):
        """Coherent plateaus, incoherent decays, readout errors grow."""
        spam = SpamModel(0.004, 0.004)
        coherent = [
            quantum_correction(ProtocolSpec(COHERENT, n, EXPERIMENT)).rescaled
            for n in (8, 16, 32, 64)
        ]
        incoherent = [
            incoherent_correction(ProtocolSpec(INCOHERENT, n, EXPERIMENT, 1.0, 2.0)).rescaled
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
        """Float arrays aligned with the step counts, each entry the scalar
        closed form at that N."""
        curve = coherent_theory_curve(3.413, np.array([2, 3]))
        assert curve.dtype == np.float64 and curve.shape == (2,)
        assert curve.tolist() == [
            quantum_correction(ProtocolSpec(COHERENT, n, EXPERIMENT)).rescaled for n in (2, 3)
        ]
        bound = spam_bound_curve(3.413, SpamModel(0.004, 0.004), np.array([7]))
        assert bound.dtype == np.float64 and bound.shape == (1,)
        np.testing.assert_allclose(bound[0], 0.21185323082010277, rtol=1e-12)
