"""Protocol engine: exact step tables, readout-error transform, seeded sampling."""

import hashlib
import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfdr import protocol
from qfdr.analytics import incoherent_correction, incoherent_cumulants, quantum_correction
from qfdr.cli import main
from qfdr.io import read_samples, write_samples
from qfdr.protocol import (
    BLOCK_RUNS,
    COHERENT,
    COHERENT_NORM_DH,
    INCOHERENT,
    MAX_GAP,
    PROB_ATOL,
    ProtocolSpec,
    SpamModel,
    StepTable,
    WorkSampleSet,
    apply_spam,
    coherent_step_distribution,
    ramp_occupations,
    run_distribution,
    sample_work,
    step_table,
)
from qfdr.qubit import ThermalSpec, population_to_beta

from oracle import gibbs_state, measure_energy_basis, tpm_step_distribution

EXPERIMENT = ThermalSpec.from_beta(3.413)


class TestProtocolSpec:
    def test_coherent_step_angle(self):
        for n in (1, 2, 7, 64):
            spec = ProtocolSpec(COHERENT, n, EXPERIMENT)
            assert spec.step_angle == math.pi / (2 * n)
            assert abs(n * spec.step_angle - math.pi / 2.0) < 1e-15

    def test_norm_dh(self):
        coherent = ProtocolSpec(COHERENT, 4, EXPERIMENT)
        assert coherent.norm_dh == COHERENT_NORM_DH == 1.0 / math.sqrt(2.0)
        incoherent = ProtocolSpec(INCOHERENT, 10, EXPERIMENT, 1.0, 2.0)
        assert incoherent.norm_dh == 0.5

    def test_gap_schedule(self):
        delta, excited = ramp_occupations(2.0, 1.0, 3.0, 4)
        assert delta == 0.5
        expected = [ThermalSpec(2.0 * gap).population for gap in (1.0, 1.5, 2.0, 2.5)]
        np.testing.assert_allclose(excited, expected, rtol=1e-14)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            ProtocolSpec(COHERENT, 0, EXPERIMENT)
        for gaps in ((-1.0, 2.0), (math.nan, 2.0), (1.0, math.nan), (1.0, math.inf), (math.inf, 2.0),
                     (1.0, math.nextafter(MAX_GAP, math.inf)), (1e300, 1.0), (1.0, 1e300)):
            with pytest.raises(ValueError, match="finite and positive"):
                ProtocolSpec(INCOHERENT, 3, EXPERIMENT, *gaps)
        with pytest.raises(ValueError):
            ProtocolSpec(kind="quenchy", n_steps=3, thermal=EXPERIMENT)

    def test_kind_guards(self):
        incoherent = ProtocolSpec(INCOHERENT, 3, EXPERIMENT, 1.0, 2.0)
        with pytest.raises(ValueError):
            _ = incoherent.step_angle
        with pytest.raises(ValueError):
            coherent_step_distribution(incoherent)
        with pytest.raises(ValueError):
            incoherent_correction(ProtocolSpec(COHERENT, 3, EXPERIMENT))


def work_marginal(table):
    """Work law (-1, 0, +1) of a one-step coherent table."""
    return table.probs[0].sum(axis=1)


class TestCoherentStepDistribution:
    def test_two_step_example(self):
        thermal = ThermalSpec.from_beta(population_to_beta(0.032))
        probs = work_marginal(coherent_step_distribution(ProtocolSpec(COHERENT, 2, thermal)))
        s = math.sin(math.pi / 8.0) ** 2
        np.testing.assert_allclose(probs, [0.032 * s, 1.0 - s, 0.968 * s], rtol=1e-14)
        np.testing.assert_allclose(probs[2], 0.141765, atol=1e-5)
        np.testing.assert_allclose(probs[0], 0.0046864, atol=1e-6)

    def test_ground_state_produces_no_negative_work(self):
        # beta capped at 1e3: the excited population underflows to exactly 0
        cold = ThermalSpec.from_beta(math.inf)
        probs = work_marginal(coherent_step_distribution(ProtocolSpec(COHERENT, 3, cold)))
        assert probs[0] == 0.0

    def test_quasi_static_limit(self):
        probs = work_marginal(coherent_step_distribution(ProtocolSpec(COHERENT, 10**6, EXPERIMENT)))
        assert probs[0] + probs[2] <= math.sin(math.pi / 4e6) ** 2 < 1e-12

    def test_matches_density_matrix_oracle(self):
        """Closed form vs full thermalize-measure-prepare-rotate-measure simulation."""
        rng = np.random.default_rng(314159)
        betas = rng.uniform(0.0, 6.0, size=20)
        for n in range(1, 33):
            for beta in betas:
                thermal = ThermalSpec.from_beta(float(beta))
                spec = ProtocolSpec(COHERENT, n, thermal)
                closed = coherent_step_distribution(spec)
                works, probs = tpm_step_distribution(thermal, spec.step_angle)
                np.testing.assert_array_equal(closed.works, works)
                np.testing.assert_allclose(work_marginal(closed), probs, atol=1e-12, rtol=0.0)


def incoherent_step(spec, j):
    """(works, probs) work marginal of row j of an incoherent ``step_table``."""
    table = step_table(spec)
    return table.works, table.probs[j].sum(axis=1)


class TestIncoherentStepDistribution:
    """The per-quench work law, read off the rows of ``step_table``."""

    def test_no_drive_is_deterministic_zero(self):
        spec = ProtocolSpec(INCOHERENT, 5, EXPERIMENT, 1.0, 1.0)
        works, probs = incoherent_step(spec, 2)
        np.testing.assert_array_equal(works, [0.0, 0.0])
        assert list(work_law(works, probs)) == [0.0]
        np.testing.assert_allclose(probs.sum(), 1.0, atol=1e-15)

    def test_infinite_temperature_is_symmetric(self):
        spec = ProtocolSpec(INCOHERENT, 4, ThermalSpec.from_beta(0.0), 1.0, 2.0)
        _, probs = incoherent_step(spec, 1)
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-15)

    def test_first_step_example(self):
        spec = ProtocolSpec(INCOHERENT, 10, EXPERIMENT, 1.0, 2.0)
        works, probs = incoherent_step(spec, 0)
        np.testing.assert_array_equal(works, [-0.05, 0.05])
        np.testing.assert_allclose(probs[1], 0.0319, atol=5e-5)

    def test_against_born_rule_enumeration(self):
        """Brute force: enumerate both readouts of the thermal state at gap omega_j."""
        rng = np.random.default_rng(2718)
        for _ in range(25):
            beta = float(rng.uniform(0.0, 5.0))
            omega_start = float(rng.uniform(0.2, 3.0))
            omega_end = float(rng.uniform(0.2, 3.0))
            n = int(rng.integers(1, 12))
            j = int(rng.integers(0, n))
            spec = ProtocolSpec(INCOHERENT, n, ThermalSpec.from_beta(beta), omega_start, omega_end)

            # occupation at the step gap via the Gibbs density matrix itself
            delta = (omega_end - omega_start) / n
            gap = omega_start + j * delta
            scaled = ThermalSpec.from_beta(min(beta * gap, 1e3))
            p0, p1 = measure_energy_basis(gibbs_state(scaled))
            expected = {}
            for occupancy, born in ((0, p0), (1, p1)):
                energy_before = (occupancy - 0.5) * gap
                energy_after = (occupancy - 0.5) * (gap + delta)
                work = energy_after - energy_before
                expected[work] = expected.get(work, 0.0) + born

            for work, prob in zip(*incoherent_step(spec, j)):
                # the enumeration computes works as energy differences, which
                # lands one ulp away from the library's delta/2 arithmetic
                key = min(expected, key=lambda k: abs(k - float(work)))
                assert abs(key - float(work)) < 1e-12
                np.testing.assert_allclose(prob, expected[key], atol=1e-12)


class TestApplySpam:
    def test_zero_rates_identity(self):
        dist = coherent_step_distribution(ProtocolSpec(COHERENT, 2, EXPERIMENT))
        out = apply_spam(dist, SpamModel(0.0, 0.0))
        np.testing.assert_array_equal(out.probs, dist.probs)

    def test_pure_zero_work_table(self):
        # only misreads produce nonzero work when the rotation is absent, and
        # each splits by the first readout: a ground one can only gain work
        p = 0.032
        table = StepTable(np.array([-1.0, 0.0, 1.0]),
                          np.array([[[0.0, 0.0], [1.0 - p, p], [0.0, 0.0]]]),
                          flips=np.array([True, False, True]))
        out = apply_spam(table, SpamModel(0.004, 0.004))
        np.testing.assert_allclose(work_marginal(out), [p * 0.004, 0.996, (1 - p) * 0.004],
                                   rtol=1e-14)
        np.testing.assert_allclose(out.probs[0], [[0.0, p * 0.004],
                                                  [(1 - p) * 0.996, p * 0.996],
                                                  [(1 - p) * 0.004, 0.0]], rtol=1e-14)

    def test_two_step_worked_example(self):
        # a flip from ground stays +1 unless misread dark; a ground non-flip
        # reads +1 when misread bright
        p = 0.032
        thermal = ThermalSpec.from_beta(population_to_beta(p))
        dist = coherent_step_distribution(ProtocolSpec(COHERENT, 2, thermal))
        out = apply_spam(dist, SpamModel(0.004, 0.004))
        s = math.sin(math.pi / 8.0) ** 2
        expected_plus = 0.996 * work_marginal(dist)[2] + 0.004 * (1 - p) * (1 - s)
        np.testing.assert_allclose(work_marginal(out)[2], expected_plus, rtol=1e-14)
        np.testing.assert_allclose(work_marginal(out)[2], 0.1444982, atol=1e-7)

    def test_rejects_non_coherent_support(self):
        incoherent = step_table(ProtocolSpec(INCOHERENT, 4, EXPERIMENT, 1.0, 2.0))
        with pytest.raises(ValueError):
            apply_spam(incoherent, SpamModel(0.004, 0.004))

    def test_normalization_and_broadening(self):
        """Each first-readout column keeps its mass, and the nonzero-work
        mass moves by exactly (1-p)(pb (1-s) - pd s) + p (pd (1-s) - pb s):
        a misread non-flip broadens, a misread flip narrows.  With equal
        rates that is pb (1 - 2s) >= 0, so the table only broadens."""
        rng = np.random.default_rng(11)
        for equal_rates in (False, True):
            for _ in range(200):
                n = int(rng.integers(1, 40))
                beta = float(rng.uniform(0.0, 6.0))
                pb, pd = float(rng.uniform(0.0, 0.4)), float(rng.uniform(0.0, 0.4))
                if equal_rates:
                    pd = pb
                spec = ProtocolSpec(COHERENT, n, ThermalSpec.from_beta(beta))
                dist = coherent_step_distribution(spec)
                out = apply_spam(dist, SpamModel(pb, pd))
                assert abs(out.probs.sum() - 1.0) < 1e-12
                np.testing.assert_allclose(out.probs.sum(axis=1), dist.probs.sum(axis=1),
                                           atol=1e-15, rtol=0.0)
                before, after = work_marginal(dist), work_marginal(out)
                nonzero_before = before[0] + before[2]
                nonzero_after = after[0] + after[2]
                p, s = spec.thermal.population, math.sin(math.pi / (4 * n)) ** 2
                change = (1 - p) * (pb * (1 - s) - pd * s) + p * (pd * (1 - s) - pb * s)
                assert abs(nonzero_after - nonzero_before - change) <= 1e-15
                if equal_rates:
                    assert nonzero_after >= nonzero_before - 1e-15

    def test_rate_bounds(self):
        with pytest.raises(ValueError):
            SpamModel(0.5, 0.0)
        with pytest.raises(ValueError):
            SpamModel(0.0, -0.01)


class TestSampleWork:
    def test_determinism(self):
        spec = ProtocolSpec(COHERENT, 3, EXPERIMENT)
        a = sample_work(spec, None, runs=500, seed=42)
        b = sample_work(spec, None, runs=500, seed=42)
        np.testing.assert_array_equal(a.totals, b.totals)
        np.testing.assert_array_equal(a.first_excited_counts, b.first_excited_counts)
        np.testing.assert_array_equal(a.flip_counts, b.flip_counts)

    @pytest.mark.parametrize("workers", [2, 3, 5, 8])
    def test_worker_partition_invariance(self, workers):
        spec = ProtocolSpec(COHERENT, 4, EXPERIMENT)
        serial = sample_work(spec, None, runs=1000, seed=9)
        parallel = sample_work(spec, None, runs=1000, seed=9, workers=workers)
        np.testing.assert_array_equal(serial.totals, parallel.totals)
        np.testing.assert_array_equal(serial.flip_counts, parallel.flip_counts)

    def test_worker_invariance_incoherent(self):
        spec = ProtocolSpec(INCOHERENT, 5, EXPERIMENT, 1.0, 2.0)
        serial = sample_work(spec, None, runs=700, seed=12)
        parallel = sample_work(spec, None, runs=700, seed=12, workers=4)
        np.testing.assert_array_equal(serial.totals, parallel.totals)

    def test_thread_pool_capped_at_cpu_count(self, monkeypatch):
        """More workers than cores run on a pool of cpu_count threads, which
        share the same fixed blocks; every total stays as at one worker."""
        pool_sizes = []
        block_counts = []

        class SerialPool:
            def __init__(self, max_workers):
                pool_sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items):
                block_counts.append(len(items))
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        spec = ProtocolSpec(COHERENT, 4, EXPERIMENT)
        runs = 3 * BLOCK_RUNS
        serial = sample_work(spec, None, runs, seed=9)
        capped = sample_work(spec, None, runs, seed=9, workers=16)
        assert pool_sizes == [1, 2]
        assert block_counts == [3, 3]
        np.testing.assert_array_equal(serial.totals, capped.totals)
        np.testing.assert_array_equal(serial.flip_counts, capped.flip_counts)

    @pytest.mark.parametrize("workers", [1, 3, 16])
    def test_pool_maps_one_call_per_block(self, monkeypatch, workers):
        """The pool draws ceil(runs / BLOCK_RUNS) blocks of consecutive runs,
        whatever the worker count."""
        runs = 2 * BLOCK_RUNS + 1
        drawn = []
        draw = protocol._sample_block

        def recording(table, seed, start, n_runs):
            drawn.append((start, n_runs))
            return draw(table, seed, start, n_runs)

        monkeypatch.setattr(protocol, "_sample_block", recording)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        sample_work(ProtocolSpec(COHERENT, 4, EXPERIMENT), None, runs, seed=9, workers=workers)
        assert len(drawn) == -(-runs // BLOCK_RUNS)
        assert sorted(drawn) == [(start, min(BLOCK_RUNS, runs - start))
                                 for start in range(0, runs, BLOCK_RUNS)]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        runs=st.integers(1, 2000),
        workers=st.integers(1, 8),
        n_steps=st.integers(1, 8),
        kind=st.sampled_from(["coherent", "coherent+spam", "incoherent"]),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_any_partition_gives_the_serial_samples(self, runs, workers, n_steps, kind, seed):
        """Blocks shrunk to 64 runs, so the runs span up to 32 blocks on up
        to 8 threads (the core count raised to 8 so the pool follows
        ``workers`` on any machine), read the stream of one unsplit block."""
        if kind == "incoherent":
            spec, spam = ProtocolSpec(INCOHERENT, n_steps, EXPERIMENT, 1.0, 2.0), None
        else:
            spam = SpamModel(0.004, 0.01) if kind == "coherent+spam" else None
            spec = ProtocolSpec(COHERENT, n_steps, EXPERIMENT)
        serial = sample_work(spec, spam, runs, seed)
        with mock.patch("os.cpu_count", return_value=8), \
                mock.patch.object(protocol, "BLOCK_RUNS", 64):
            parallel = sample_work(spec, spam, runs, seed, workers=workers)
        np.testing.assert_array_equal(serial.levels, parallel.levels)
        np.testing.assert_array_equal(serial.codes, parallel.codes)
        np.testing.assert_array_equal(serial.first_excited_counts, parallel.first_excited_counts)
        np.testing.assert_array_equal(serial.flip_counts, parallel.flip_counts)

    @pytest.mark.parametrize("kind", ["coherent+spam", "incoherent"])
    def test_partition_across_run_blocks(self, kind):
        """2 full blocks and a block of 3 runs, drawn by one worker and by
        three.  Both read the same stream."""
        if kind == "incoherent":
            spec, spam = ProtocolSpec(INCOHERENT, 26, EXPERIMENT, 1.0, 19.39), None
        else:
            spec, spam = ProtocolSpec(COHERENT, 10, EXPERIMENT), SpamModel(0.004, 0.01)
        runs = 2 * BLOCK_RUNS + 3
        with mock.patch("os.cpu_count", return_value=8):
            serial = sample_work(spec, spam, runs, seed=21, workers=1)
            parallel = sample_work(spec, spam, runs, seed=21, workers=3)
        np.testing.assert_array_equal(serial.levels, parallel.levels)
        np.testing.assert_array_equal(serial.codes, parallel.codes)
        np.testing.assert_array_equal(serial.first_excited_counts, parallel.first_excited_counts)
        np.testing.assert_array_equal(serial.flip_counts, parallel.flip_counts)

    def test_sampler_memory_is_bounded(self):
        """The traced peak stays far below the 100k x 64 draws of one array
        (51 MB of doubles alone)."""
        tracemalloc.start()
        try:
            sample_work(ProtocolSpec(COHERENT, 64, EXPERIMENT), None, runs=100_000, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6, f"traced peak {peak / 1e6:.1f} MB"

    def test_ground_state_work_is_non_negative(self):
        cold = ThermalSpec.from_beta(math.inf)
        samples = sample_work(ProtocolSpec(COHERENT, 2, cold), None, runs=4000, seed=77)
        assert np.all(samples.totals >= 0.0)

    def test_mean_matches_analytic_value(self):
        samples = sample_work(ProtocolSpec(COHERENT, 2, EXPERIMENT), None, runs=8000, seed=123)
        expected = 0.27421152651749037
        standard_error = math.sqrt(0.2552972381759263 / 8000)
        assert abs(samples.totals.mean() - expected) < 4 * standard_error

    def test_empirical_step_frequencies_converge(self):
        """With a million runs each outcome frequency sits within 5 binomial sigmas."""
        spec = ProtocolSpec(COHERENT, 3, EXPERIMENT)
        probs = work_marginal(coherent_step_distribution(spec))
        runs = 1_000_000
        samples = sample_work(spec, None, runs=runs, seed=31)
        trials = runs * spec.n_steps
        # nonzero-work frequency across all steps
        p_nonzero = probs[0] + probs[2]
        observed = samples.flip_counts.sum() / trials
        sigma = math.sqrt(p_nonzero * (1 - p_nonzero) / trials)
        assert abs(observed - p_nonzero) < 5 * sigma
        # first-readout excited frequency
        p_first = EXPERIMENT.population
        observed_first = samples.first_excited_counts.sum() / trials
        sigma_first = math.sqrt(p_first * (1 - p_first) / trials)
        assert abs(observed_first - p_first) < 5 * sigma_first

    def test_incoherent_totals_take_expected_values(self):
        spec = ProtocolSpec(INCOHERENT, 2, EXPERIMENT, 1.0, 2.0)
        samples = sample_work(spec, None, runs=500, seed=4)
        # each step contributes +-delta/2 = +-0.25, so the grid is exact
        grid = run_distribution(step_table(spec))[0]
        np.testing.assert_array_equal(grid, [-0.5, 0.0, 0.5])
        assert set(samples.totals.tolist()) <= set(grid.tolist())

    def test_spam_shifts_step_frequencies(self):
        spec = ProtocolSpec(COHERENT, 2, EXPERIMENT)
        spam = SpamModel(0.004, 0.004)
        samples = sample_work(spec, spam, runs=200_000, seed=55)
        perturbed = work_marginal(apply_spam(coherent_step_distribution(spec), spam))
        trials = samples.runs * spec.n_steps
        p_nonzero = perturbed[0] + perturbed[2]
        observed = samples.flip_counts.sum() / trials
        assert abs(observed - p_nonzero) < 5 * math.sqrt(p_nonzero * (1 - p_nonzero) / trials)

    def test_spam_with_incoherent_protocol_rejected(self):
        spec = ProtocolSpec(INCOHERENT, 3, EXPERIMENT, 1.0, 2.0)
        with pytest.raises(ValueError):
            sample_work(spec, SpamModel(0.004, 0.004), runs=10, seed=0)

    def test_record_fields(self):
        spec = ProtocolSpec(COHERENT, 6, EXPERIMENT)
        spam = SpamModel(0.01, 0.02)
        samples = sample_work(spec, spam, runs=300, seed=8)
        assert isinstance(samples, WorkSampleSet)
        assert samples.runs == 300
        assert samples.first_excited_counts.shape == (6,)
        assert samples.flip_counts.shape == (6,)
        assert samples.spam == spam
        assert samples.seed == 8

    def test_totals_are_codes_into_levels(self):
        samples = sample_work(ProtocolSpec(COHERENT, 10, EXPERIMENT), None, runs=5000, seed=3)
        assert samples.codes.dtype == np.uint8 and samples.codes.shape == (5000,)
        assert np.all(np.diff(samples.levels) > 0) and samples.levels.size <= 21
        table = step_table(ProtocolSpec(INCOHERENT, 8, EXPERIMENT, 1.0, 5.0))  # totals -2 + i / 2
        totals = np.array([0.5, -1.0, 0.5, 2.0, -1.0])
        rebuilt = WorkSampleSet.from_level_sums(table, np.array([5, 2, 5, 8, 2]),
                                                first_excited_counts=np.zeros(1),
                                                flip_counts=np.zeros(1), seed=0, spec=samples.spec)
        np.testing.assert_array_equal(rebuilt.totals, totals)
        np.testing.assert_array_equal(rebuilt.levels, [-1.0, 0.5, 2.0])
        assert rebuilt.runs == 5

    def test_run_count_validated(self):
        with pytest.raises(ValueError):
            sample_work(ProtocolSpec(COHERENT, 2, EXPERIMENT), None, runs=0, seed=1)


def sorted_coding(totals):
    """Levels and codes by one sort of all the runs: the reference for ``from_level_sums``."""
    levels, codes = np.unique(totals, return_inverse=True)
    return levels, codes.astype(np.min_scalar_type(levels.size))


@st.composite
def tables_and_sums(draw):
    """A step table and level sums on its grid: coherent tables with and without
    SPAM, and incoherent ramps that ascend, descend (a negative step) or stay
    flat (a zero step, one level)."""
    n = draw(st.integers(1, 300))
    ramp = draw(st.sampled_from(["coherent", "spam", "ascending", "descending", "flat"]))
    if ramp in ("coherent", "spam"):
        spam = SpamModel(0.004, 0.01) if ramp == "spam" else None
        table = step_table(ProtocolSpec(COHERENT, n, EXPERIMENT), spam)
    else:
        low, high = sorted(draw(st.lists(st.floats(0.05, 20.0), min_size=2, max_size=2,
                                         unique=True)))
        start, end = {"ascending": (low, high), "descending": (high, low), "flat": (low, low)}[ramp]
        table = step_table(ProtocolSpec(INCOHERENT, n, EXPERIMENT, start, end))
    width = draw(st.sampled_from([1, n * (table.works.size - 1) + 1]))  # one sum, or the whole grid
    steps = st.integers(0, width - 1)
    sums = draw(st.lists(steps, min_size=1, max_size=1000) | st.permutations(range(width)))
    return table, np.array(sums)


class TestFromLevelSums:
    @given(tables_and_sums())
    @example((step_table(ProtocolSpec(COHERENT, 1, EXPERIMENT)), np.array([1])))     # one run
    @example((step_table(ProtocolSpec(COHERENT, 4, EXPERIMENT)), np.full(40, 3)))    # one level
    # > 255 levels: uint16 codes
    @example((step_table(ProtocolSpec(COHERENT, 150, EXPERIMENT)), np.arange(300, -1, -1)))
    @settings(max_examples=150, deadline=None)
    def test_codes_match_the_sorted_coding(self, case):
        table, sums = case
        samples = WorkSampleSet.from_level_sums(table, sums, first_excited_counts=np.zeros(1),
                                                flip_counts=np.zeros(1), seed=0,
                                                spec=ProtocolSpec(COHERENT, 1, EXPERIMENT))
        levels, codes = sorted_coding(table.total_work(sums))
        np.testing.assert_array_equal(samples.codes, codes)
        assert samples.codes.dtype == codes.dtype
        assert samples.levels.tobytes() == levels.tobytes()

    @given(tables_and_sums())
    # sizes never drawn: a coherent N = 100,000 grid's first, middle and last
    # totals, and every total of a descending N = 10,000 ramp
    @example((step_table(ProtocolSpec(COHERENT, 100_000, EXPERIMENT)),
              np.array([0, 100_000, 200_000])))
    @example((step_table(ProtocolSpec(INCOHERENT, 10_000, EXPERIMENT, 20.0, 0.05)),
              np.arange(10_001)))
    @settings(max_examples=150, deadline=None)
    def test_level_sums_invert_total_work(self, case):
        """Every grid total maps back to a level sum with that very total; a
        flat ramp's all map to level sum 0."""
        table, sums = case
        totals = table.total_work(sums)
        found = table.level_sums(totals)
        assert table.total_work(found).tobytes() == totals.tobytes()
        if table.works[0] == table.works[1]:
            assert not found.any()


class TestStreamGolden:
    """The sampling stream and the samples-file bytes, pinned end to end.

    Each ``simulate`` command writes one samples file whose sha256 is fixed:
    a change to the Philox layout, the step tables, the sampler or the
    writer shows here as a different digest.
    """

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (["--n-steps", "10", "--runs", "100000", "--workers", "2", "--seed", "0"],
             "53aa1be78ccfd582379d577ea0faf760e3daecc9743e059525f8d6a666e70408"),
            (["--kind", "incoherent", "--n-steps", "26", "--omega-end", "19.39",
              "--runs", "8000", "--seed", "0"],
             "2c8f54a3f260b9aeea0e002b819e9b397b5bacab0f02a070d91b5b0027d972fb"),
            (["--kind", "incoherent", "--n-steps", "20", "--beta", "1", "--omega-start", "3",
              "--omega-end", "1", "--runs", "8000", "--seed", "0"],
             "88b7320a45481cf79f9261c0eedeb77e57ee3da0923fd71e3df4d255beaaaa32"),
            (["--n-steps", "7", "--runs", "8000", "--spam", "--seed", "0"],
             "14a870b0abbb8ba554fcb2b56094a6649dcdc816bcef53da4b3496ef8a30d68a"),
        ],
        ids=["coherent-n10-100k", "incoherent-n26", "incoherent-descending-n20",
             "coherent-n7-spam"],
    )
    def test_simulate_file_digest(self, tmp_path, argv, digest):
        out = tmp_path / "samples.csv"
        assert main(["simulate", *argv, "--output", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestSampleWorkTotals:
    def test_deterministic_and_supported(self):
        spec = ProtocolSpec(COHERENT, 4, ThermalSpec.from_beta(0.5))
        spam = SpamModel(0.2, 0.3)
        a = sample_work(spec, spam, runs=300, seed=5).totals
        b = sample_work(spec, spam, runs=300, seed=5).totals
        np.testing.assert_array_equal(a, b)
        assert a.shape == (300,)
        assert np.all(np.abs(a) <= 4)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        case=st.sampled_from(["coherent", "coherent+spam", "ascending", "descending", "flat"]),
        n=st.integers(1, 120),
        beta=st.floats(0.0, 10.0),
        span=st.floats(0.05, 20.0),
        runs=st.integers(1, 3000),
        seed=st.integers(0, 2**64 - 1),
    )
    @example(case="ascending", n=200, beta=1.0, span=2.0, runs=20_000, seed=0)
    def test_totals_lie_on_the_run_law_grid(self, tmp_path_factory, case, n, beta, span, runs,
                                            seed):
        """Every sampled total is a total of the exact run law, bit for bit,
        so at most N (L - 1) + 1 distinct totals occur for L step levels,
        before and after a samples-file round trip.  In the example (omega
        1 -> 3) the runs take 34 run-law totals, which float sums of the step
        works would spread over 78 values."""
        thermal, spam = ThermalSpec.from_beta(beta), None
        if case.startswith("coherent"):
            spec = ProtocolSpec(COHERENT, n, thermal)
            spam = SpamModel(0.004, 0.01) if case == "coherent+spam" else None
        else:
            omegas = {"ascending": (1.0, 1.0 + span), "descending": (1.0 + span, 1.0),
                      "flat": (span, span)}[case]
            spec = ProtocolSpec(INCOHERENT, n, thermal, *omegas)
        table = step_table(spec, spam)
        grid = run_distribution(table)[0].view(np.uint64)
        samples = sample_work(spec, spam, runs, seed)
        path = tmp_path_factory.mktemp("grid") / "samples.csv"
        write_samples(path, samples)
        for levels in (samples.levels, read_samples(path).levels):
            assert levels.size <= n * (table.works.size - 1) + 1
            assert np.isin(levels.view(np.uint64), grid).all()

    def test_frequencies(self):
        # a single quench from gap 1 to 3 at beta = ln 3 does w = +1 with
        # the occupation 1/4 and w = -1 otherwise
        spec = ProtocolSpec(INCOHERENT, 1, ThermalSpec.from_beta(math.log(3.0)), 1.0, 3.0)
        totals = sample_work(spec, None, runs=400_000, seed=17).totals
        p_hat = ((totals + 1.0) / 2.0).mean()
        assert abs(p_hat - 0.25) < 5 * math.sqrt(0.25 * 0.75 / 400_000)


def work_law(works, probs):
    """Probability of each distinct work value, as a dict."""
    law = {}
    for w, q in zip(works, probs):
        law[float(w)] = law.get(float(w), 0.0) + float(q)
    return law


def assert_work_marginal(works, row, step_works, step_probs):
    """A (work, first readout) table row sums over k to the step's work table."""
    a, b = work_law(works, row.sum(axis=1)), work_law(step_works, step_probs)
    for w in set(a) | set(b):
        assert abs(a.get(w, 0.0) - b.get(w, 0.0)) <= PROB_ATOL


def run_moments(table):
    # the variance is centred on the smallest total: the mean's rounding,
    # eps * |W|, squared would swamp the tiny variance of a cold ramp
    totals, _, probs = run_distribution(table)
    offsets = totals - totals[0]
    return probs @ totals, probs @ (offsets - probs @ offsets) ** 2


spam_rates = st.floats(0.0, 0.49)


class TestStepTable:
    """The joint (work, first readout) table behind sampling and the bootstrap."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 60),
        beta=st.floats(0.0, 10.0),
        spam=st.none() | st.builds(SpamModel, spam_rates, spam_rates),
    )
    @example(n=2, beta=3.413, spam=None)
    @example(n=7, beta=3.413, spam=SpamModel(0.004, 0.004))
    def test_coherent_table(self, n, beta, spam):
        spec = ProtocolSpec(COHERENT, n, ThermalSpec.from_beta(beta))
        table = step_table(spec, spam)
        assert table.probs.shape == (n, 3, 2)
        assert np.all(table.probs >= 0.0)
        assert np.all(np.abs(table.probs.sum(axis=(1, 2)) - 1.0) <= PROB_ATOL)
        step = coherent_step_distribution(spec)
        if spam is not None:
            step = apply_spam(step, spam)
        for row in table.probs:
            assert_work_marginal(table.works, row, step.works, work_marginal(step))
            assert abs(row[:, 1].sum() - ThermalSpec(beta).population) <= PROB_ATOL
        if spam is None:
            closed = quantum_correction(spec)
            mean_ref, var_ref = closed.mean_work, closed.var_work
        else:
            mean_ref, var_ref = n * step.mean(), n * step.variance()
        # the mean is 0 at beta = 0, where only an absolute rounding bound applies
        for mean, var in (run_moments(table), (table.mean(), table.variance())):
            assert math.isclose(mean, mean_ref, rel_tol=1e-12, abs_tol=1e-15 * n)
            assert math.isclose(var, var_ref, rel_tol=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        n=st.integers(1, 200),
        beta=st.floats(0.0, 10.0),
        omega_start=st.sampled_from([1.0, 80.0]),
        omega_end=st.floats(0.05, 20.0, exclude_min=True),
    )
    @example(n=26, beta=3.413, omega_start=1.0, omega_end=19.39)
    @example(n=6, beta=3.413, omega_start=1.0, omega_end=1.0)
    def test_incoherent_table(self, n, beta, omega_start, omega_end):
        spec = ProtocolSpec(INCOHERENT, n, ThermalSpec.from_beta(beta), omega_start, omega_end)
        table = step_table(spec)
        assert table.probs.shape == (n, 2, 2)
        assert np.all(table.probs >= 0.0)
        assert np.all(np.abs(table.probs.sum(axis=(1, 2)) - 1.0) <= PROB_ATOL)
        delta = (omega_end - omega_start) / n
        for j, row in enumerate(table.probs):
            excited = ThermalSpec(min(beta * (omega_start + j * delta), 700.0)).population
            assert_work_marginal(table.works, row, [-delta / 2.0, delta / 2.0],
                                 [1.0 - excited, excited])
            assert abs(row[:, 1].sum() - excited) <= PROB_ATOL
        mean_ref, var_ref = incoherent_cumulants(beta, omega_start, omega_end, n)
        span = abs(omega_end - omega_start)
        # f - 1/2 loses absolute precision ~eps when beta*omega is tiny
        for mean, var in (run_moments(table), (table.mean(), table.variance())):
            assert math.isclose(mean, mean_ref, rel_tol=1e-12, abs_tol=1e-15 * n * span)
            assert math.isclose(var, var_ref, rel_tol=1e-12)

    def test_first_readout_follows_the_work_sign(self):
        """Without readout error an upward flip starts in the ground state and
        a downward one in the excited state."""
        row = step_table(ProtocolSpec(COHERENT, 3, EXPERIMENT)).probs[0]
        assert row[0, 0] == 0.0 and row[2, 1] == 0.0
        assert row[0, 1] > 0.0 and row[2, 0] > 0.0

    def test_nan_probabilities_rejected(self):
        probs = np.full((2, 2, 2), 0.25)
        probs[1, 0, 1] = math.nan
        with pytest.raises(ValueError):
            StepTable(np.array([-0.5, 0.5]), probs, flips=np.array([False, True]))

    def test_normalization_enforced(self):
        """Rows over-full, negative or NaN, with the work law of each in its
        diagonal cells."""
        for law in ([0.6, 0.6], [1.2, -0.2], [math.nan, 1.0]):
            with pytest.raises(ValueError):
                StepTable(np.array([0.0, 1.0]), np.array([np.diag(law)]),
                          flips=np.array([False, True]))

    def test_moments(self):
        """Total-work moments: each step's, summed over the steps."""
        row = np.array([[0.0, 0.1], [0.3, 0.3], [0.3, 0.0]])
        works, flips = np.array([-1.0, 0.0, 1.0]), np.array([True, False, True])
        one = StepTable(works, row[None], flips)
        assert abs(one.mean() - 0.2) < 1e-15
        assert abs(one.variance() - (0.4 - 0.04)) < 1e-15
        other = np.array([[0.2, 0.0], [0.4, 0.4], [0.0, 0.0]])
        two = StepTable(works, np.stack([row, other]), flips)
        assert abs(two.mean() - (0.2 - 0.2)) < 1e-15
        assert abs(two.variance() - (0.36 + 0.16)) < 1e-15

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(1, 60), beta=st.floats(0.0, 10.0), pb=spam_rates, pd=spam_rates)
    @example(n=7, beta=3.413, pb=0.004, pd=0.004)
    @example(n=1, beta=0.0, pb=0.49, pd=0.0)
    def test_coherent_table_by_enumeration(self, n, beta, pb, pd):
        """Every coherent cell, rebuilt from the story of one step: the first
        readout k is excited with p, the pulse flips the level with s, and
        the second readout reads ground as bright with pb and excited as dark
        with pd; the work is the second reading less k."""
        p = ThermalSpec(beta).population
        s = math.sin(math.pi / (4 * n)) ** 2
        misread = (pb, pd)
        expected = np.zeros((3, 2))
        for k, p_first in ((0, 1.0 - p), (1, p)):
            for level, p_level in ((k, 1.0 - s), (1 - k, s)):
                for reading, p_reading in ((level, 1.0 - misread[level]),
                                           (1 - level, misread[level])):
                    expected[reading - k + 1, k] += p_first * p_level * p_reading
        table = step_table(ProtocolSpec(COHERENT, n, ThermalSpec.from_beta(beta)),
                           SpamModel(pb, pd))
        np.testing.assert_allclose(table.probs, np.broadcast_to(expected, (n, 3, 2)),
                                   atol=1e-15, rtol=0.0)
        # a ground first readout cannot lose work, nor an excited one gain it
        assert np.all(table.probs[:, 0, 0] == 0.0) and np.all(table.probs[:, 2, 1] == 0.0)

    def test_spam_with_incoherent_protocol_rejected(self):
        spec = ProtocolSpec(INCOHERENT, 3, EXPERIMENT, 1.0, 2.0)
        with pytest.raises(ValueError):
            step_table(spec, SpamModel(0.004, 0.004))
        with pytest.raises(ValueError):
            step_table(spec, SpamModel(0.0, 0.0))
