"""Error analysis for measured work statistics.

Covers binomial parameter errors, the parametric bootstrap of the
correction Q, a binned drift diagnostic, and the linear-regression
calibration of rotation pulse durations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytics import MONTE_CARLO, FdrEstimate, delta_free_energy, make_estimate
from .protocol import (
    COHERENT,
    ProtocolSpec,
    SpamModel,
    WorkSampleSet,
    run_distribution,
    step_table,
)
from .qubit import ThermalSpec, flip_probability, population_to_beta

# excess bin-frequency spread at which drift_scan flags a drift
DRIFT_THRESHOLD = 0.01
# bootstrap_q stacks at most about this many (resample, support) cells
_BLOCK_CELLS = 2**18


def binomial_error(p_hat: float, trials: int) -> float:
    """Standard deviation of a binomial frequency estimate, sqrt(p(1-p)/n)."""
    if not 0.0 <= p_hat <= 1.0:
        raise ValueError(f"p_hat must lie in [0, 1], got {p_hat}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    return math.sqrt(p_hat * (1.0 - p_hat) / trials)


def beta_error(p_hat: float, trials: int) -> float:
    """Statistical error of the fitted inverse temperature.

    Propagates the binomial error of the occupation estimate through
    beta = 2 artanh(1 - 2p): sigma_beta = sigma_p / (p (1 - p)).
    """
    if not 0.0 < p_hat < 0.5:
        raise ValueError(f"p_hat must lie in (0, 0.5), got {p_hat}")
    return binomial_error(p_hat, trials) / (p_hat * (1.0 - p_hat))


@dataclass(frozen=True)
class BootstrapReport:
    """Spread of the correction across regenerated synthetic datasets, and
    ``sigma_rescaled``, its error on the plotted scale, N sigma_Q / |dH|."""

    q_values: np.ndarray
    sigma_q: float
    sigma_rescaled: float


def _fit_histogram(
    spec: ProtocolSpec, totals: np.ndarray, counts: np.ndarray, excited: int | np.ndarray
) -> FdrEstimate:
    """Estimate Q from stacked histograms: ``counts[..., i]`` runs of total
    work ``totals[i]`` with ``excited[...]`` excited first readouts in all,
    refitting beta if coherent.

    The fields are arrays shaped like ``excited``, or floats for a single
    histogram.  Each histogram takes its dot products with the vector dot
    kernel, one (1, L) @ (L, 1) product at a time, so a stacked fit keeps
    the bits of fitting each histogram on its own.
    """
    runs = counts.sum(axis=-1)
    mean = (counts[..., None, :] @ totals[:, None])[..., 0, 0] / runs
    squares = (totals - mean[..., None]) ** 2
    # a single run deviates by exactly 0, so dividing by 1 gives variance 0
    variance = (counts[..., None, :] @ squares[..., :, None])[..., 0, 0] / np.maximum(runs - 1, 1)
    if spec.kind == COHERENT:
        beta = np.vectorize(population_to_beta, otypes=[float])(excited / (spec.n_steps * runs))
        delta_f = 0.0
    else:
        beta = spec.thermal.beta
        delta_f = float(delta_free_energy(beta, spec.omega_start, spec.omega_end))
    if np.ndim(excited) == 0:
        mean, variance, beta = float(mean), float(variance), float(beta)
    return make_estimate(
        mean_work=mean,
        var_work=variance,
        beta=beta,
        delta_f=delta_f,
        n_steps=spec.n_steps,
        norm_dh=spec.norm_dh,
        source=MONTE_CARLO,
    )


def bootstrap_q(
    thermal: ThermalSpec,
    n_steps: int,
    runs: int,
    resamples: int = 200,
    seed: int = 0,
    *,
    kind: str = COHERENT,
    omega_start: float = 1.0,
    omega_end: float = 1.0,
    spam: SpamModel | None = None,
) -> BootstrapReport:
    """Parametric bootstrap of the correction of a coherent or incoherent protocol.

    Each resample is ``runs`` runs of the ``step_table`` that ``sample_work``
    draws from (SPAM-perturbed when ``spam`` is given).  The estimator needs
    only how many runs fall on each (total work, excited first readouts)
    pair, so a resample is one multinomial draw over the exact per-run law
    of that pair, refitted by the ``_fit_histogram`` that refits recorded
    runs in ``estimate_from_samples``.  Resamples are drawn and refitted in
    stacked blocks of at most about ``_BLOCK_CELLS`` (resample, support)
    cells; one draw of k resamples reads the stream as k single draws do.
    sigma_q is the sample standard deviation of the Q values, and
    sigma_rescaled is 0 when |dH| = 0.  Draws use the Philox key (seed, 1),
    apart from the (seed, 0) stream of ``sample_work``.
    """
    if resamples < 2:
        raise ValueError(f"resamples must be >= 2, got {resamples}")
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    spec = ProtocolSpec(kind, n_steps, thermal, omega_start, omega_end)
    totals, excited, probs = run_distribution(step_table(spec, spam))
    # the key words (seed, 1) as one exact integer; a list makes seeds >= 2**63 float64
    rng = np.random.Generator(np.random.Philox(key=seed + (1 << 64)))
    block = max(1, _BLOCK_CELLS // totals.size)
    q_values = []
    for start in range(0, resamples, block):
        counts = rng.multinomial(runs, probs, size=min(block, resamples - start))
        q_values.append(_fit_histogram(spec, totals, counts, counts @ excited).q_value)

    q_values = np.concatenate(q_values)
    sigma_q = float(q_values.std(ddof=1))
    sigma_rescaled = n_steps * sigma_q / spec.norm_dh if spec.norm_dh > 0.0 else 0.0
    return BootstrapReport(q_values, sigma_q, sigma_rescaled)


def estimate_from_samples(samples: WorkSampleSet) -> FdrEstimate:
    """Monte Carlo estimate of the correction from recorded trajectories.

    Mirrors the experimental analysis: for coherent protocols beta is
    refitted from the first-readout frequencies; for incoherent protocols
    (where the occupation varies per step) the spec's beta is used.
    """
    counts = np.bincount(samples.codes, minlength=samples.levels.size)
    excited = int(samples.first_excited_counts.sum())
    return _fit_histogram(samples.spec, samples.levels, counts, excited)


@dataclass(frozen=True)
class DriftReport:
    """Binned-spread diagnostic for slow parameter drifts."""

    bins: int
    observed_spread: float
    expected_spread: float
    excess_spread: float
    flagged: bool


def drift_scan(outcomes: np.ndarray, bin_size: int) -> DriftReport:
    """Compare the per-bin frequency spread against the binomial expectation.

    The binary sequence is partitioned into floor(len/K) bins of size K.  The
    observed standard deviation of the bin frequencies is compared to the
    binomial expectation sqrt(p(1-p)/K); a drifting parameter inflates the
    spread while i.i.d. data stays at the expectation.  Drift is flagged when
    the excess reaches ``DRIFT_THRESHOLD``.
    """
    outcomes = np.asarray(outcomes).astype(np.float64)
    if bin_size < 1:
        raise ValueError(f"bin_size must be >= 1, got {bin_size}")
    if outcomes.size < 2 * bin_size:
        raise ValueError(
            f"need at least two bins: sequence of length {outcomes.size} with bin_size {bin_size}"
        )
    n_bins = outcomes.size // bin_size
    used = outcomes[: n_bins * bin_size].reshape(n_bins, bin_size)
    frequencies = used.mean(axis=1)
    p_hat = float(used.mean())
    observed = float(frequencies.std(ddof=1))
    expected = binomial_error(p_hat, bin_size)
    excess = observed - expected
    return DriftReport(
        bins=n_bins,
        observed_spread=observed,
        expected_spread=expected,
        excess_spread=excess,
        flagged=excess >= DRIFT_THRESHOLD,
    )


def calibrate_rotation_time(
    durations: np.ndarray, probabilities: np.ndarray, target_theta: float
) -> float:
    """Pulse duration reaching a target rotation angle, by linear regression.

    The bright probability follows the Rabi law, flip_probability(Omega t);
    over a narrow window of durations (at most ~0.2 rad of phase) it is
    effectively linear, so an ordinary least-squares line through the given
    (duration, probability) points, one entry of each 1-D array per point,
    is solved for the duration where it reaches flip_probability(theta).
    Callers keep the durations near the target.
    """
    if np.shape(durations) != np.shape(probabilities) or np.size(durations) < 2:
        raise ValueError("need at least two calibration points, one probability per duration")
    if np.ptp(durations) == 0.0:
        raise ValueError("singular design: all durations are equal")
    slope, intercept = np.polyfit(durations, probabilities, 1)
    if slope == 0.0:
        raise ValueError("degenerate fit: zero slope")
    target_probability = flip_probability(target_theta)
    return float((target_probability - intercept) / slope)
