"""Closed-form work cumulants and fluctuation-dissipation corrections.

The central quantity is the correction

    Q = (beta/2) Var(W) - (<W> - dF)

which vanishes for a slowly driven classical system.  For the coherent
protocol the exact finite-N expression is

    Q = N s [ (beta/2) (1 - s (1-2p)^2) - (1-2p) ],   s = sin^2(pi/(4N)),

with s the Rabi law ``qubit.flip_probability`` of the step angle pi/(2N).
Q grows to the positive asymptote (pi^2/16)(beta/2 - tanh(beta/2)) for
N -> inf.  Incoherent ramps produce a correction that decays as 1/N^2 at
fixed endpoints, and readout errors alone produce a spurious correction that
grows linearly in N.  All three scalings are exposed here, together with the
(inverse speed, rescaled correction) sweep that maps out the region
attainable by incoherent protocols and the certificate that sets measured
points against both classical boundaries.  Both incoherent paths share one
vectorised closed form for the work cumulants, ``incoherent_cumulants``,
built on the ramp law ``protocol.ramp_occupations`` (beta omega capped at
700) that the step tables use too, and one free-energy change,
``delta_free_energy``.  Results are numbers, arrays and estimates; the
command line alone turns them into labelled table rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .protocol import (
    COHERENT,
    COHERENT_NORM_DH,
    INCOHERENT,
    ProtocolSpec,
    SpamModel,
    apply_spam,
    coherent_step_table,
    ramp_occupations,
)
from .qubit import ThermalSpec, flip_probability
from .reference import ReferencePoint

ANALYTIC = "analytic"
MONTE_CARLO = "monte_carlo"

# every sweep ramp starts at the experiment's gap; its points are binned in v^-1
SWEEP_OMEGA_START = 1.0
SWEEP_BIN_WIDTH = 0.05


@dataclass(frozen=True)
class FdrEstimate:
    """Work cumulants and the derived correction for one protocol.

    ``rescaled`` is n_steps * q_value / norm_dh, the quantity plotted against
    the inverse speed.  The identity q_value = (beta/2) var_work -
    (mean_work - delta_f) holds exactly among the stored fields.
    """

    mean_work: float
    var_work: float
    beta: float
    delta_f: float
    q_value: float
    rescaled: float
    source: str

    def __post_init__(self) -> None:
        if self.source not in (ANALYTIC, MONTE_CARLO):
            raise ValueError(f"unknown source {self.source!r}")


def make_estimate(
    mean_work: float,
    var_work: float,
    beta: float,
    delta_f: float,
    n_steps: int,
    norm_dh: float,
    source: str,
) -> FdrEstimate:
    q = (beta / 2.0) * var_work - (mean_work - delta_f)
    rescaled = n_steps * q / norm_dh if norm_dh > 0.0 else 0.0
    return FdrEstimate(
        mean_work=mean_work,
        var_work=var_work,
        beta=beta,
        delta_f=delta_f,
        q_value=q,
        rescaled=rescaled,
        source=source,
    )


def delta_free_energy(
    beta: float, omega_start: float, omega_end: float | np.ndarray
) -> float | np.ndarray:
    """Equilibrium free-energy change of an incoherent ramp's endpoints.

    The two-level partition function Z = 2 cosh(beta omega / 2) gives

        dF = -(1/beta) ln[ cosh(beta omega_end / 2) / cosh(beta omega_start / 2) ]

    elementwise over an array ``omega_end``, with the beta -> 0 limit dF = 0.
    The coherent drive only rotates the eigenbasis, so its dF is exactly 0.
    """
    if beta == 0.0:
        return np.zeros_like(omega_end, dtype=np.float64)
    x_start, x_end = beta * omega_start / 2.0, beta * np.asarray(omega_end) / 2.0
    # overflow-safe log(cosh(x)) = logaddexp(x, -x) - log 2
    log_cosh_start = np.logaddexp(x_start, -x_start) - math.log(2.0)
    log_cosh_end = np.logaddexp(x_end, -x_end) - math.log(2.0)
    return -(log_cosh_end - log_cosh_start) / beta


def quantum_correction(spec: ProtocolSpec) -> FdrEstimate:
    """Exact finite-N correction of the coherent protocol (dF = 0).

    With the flip probability s = sin^2(pi/(4N)) of the step angle, the
    work cumulants <W> = N (1-2p) s and Var(W) = N s (1 - s (1-2p)^2) are
    the moment sums of the exact step table, whose steps are independent
    and identically distributed.  Q is zero at beta = 0, monotone
    non-decreasing in beta for N >= 2, and cubic for small beta:
    Q = N s (1/24 - s/8) beta^3 + O(beta^5).
    """
    if spec.kind != COHERENT:
        raise ValueError("quantum_correction requires a coherent spec")
    n, s = spec.n_steps, flip_probability(spec.step_angle)
    t = 1.0 - 2.0 * spec.thermal.population
    return make_estimate(
        mean_work=n * t * s,
        var_work=n * s * (1.0 - s * t * t),
        beta=spec.thermal.beta,
        delta_f=0.0,
        n_steps=spec.n_steps,
        norm_dh=spec.norm_dh,
        source=ANALYTIC,
    )


def coherent_asymptote(beta: float) -> float:
    """Slow-driving limit of the rescaled coherent correction.

    N Q / |dH| -> (pi^2 / 16) (beta/2 - tanh(beta/2)) * sqrt(2) as N -> inf.
    """
    return (math.pi**2 / 16.0) * (beta / 2.0 - math.tanh(beta / 2.0)) / COHERENT_NORM_DH


def incoherent_cumulants(
    beta: float, omega_start: float, omega_end: float | np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of the total work of an N-quench incoherent ramp.

    With delta and the excited occupations f_j of ``ramp_occupations``,

        <W> = sum_j delta (f_j - 1/2),   Var(W) = sum_j (delta^2 f_j) (1 - f_j),

    elementwise over an array ``omega_end``.  The (entries, N) terms are
    computed in place, in the occupations' fresh array and one work array,
    by the same per-entry operations in the same order and association as
    the formulas above.  Each entry sums its own steps along the last axis,
    pairwise, so a scalar call and every entry of an array call give the
    same bits.
    """
    delta, occupied = ramp_occupations(beta, omega_start, omega_end, n)
    work = np.empty_like(occupied)
    delta = delta[..., None]
    np.subtract(occupied, 0.5, out=work)
    mean = np.multiply(work, delta, out=work).sum(axis=-1)
    np.subtract(1.0, occupied, out=work)
    np.multiply(occupied, delta**2, out=occupied)
    return mean, np.multiply(occupied, work, out=occupied).sum(axis=-1)


def incoherent_correction(spec: ProtocolSpec) -> FdrEstimate:
    """Correction of an incoherent ramp from the exact per-step moments.

    The steps are independent quenches from equilibrium, so the total mean
    and variance are sums of per-step moments, from the kernel the region
    sweep shares.  At fixed endpoints the rescaled value decays as 1/N.
    Note the sign: gap-decreasing ramps can push the correction below zero,
    unlike the coherent case.
    """
    if spec.kind != INCOHERENT:
        raise ValueError("incoherent_correction requires an incoherent spec")
    beta = spec.thermal.beta
    mean, var = incoherent_cumulants(beta, spec.omega_start, spec.omega_end, spec.n_steps)
    return make_estimate(
        mean_work=float(mean),
        var_work=float(var),
        beta=beta,
        delta_f=float(delta_free_energy(beta, spec.omega_start, spec.omega_end)),
        n_steps=spec.n_steps,
        norm_dh=spec.norm_dh,
        source=ANALYTIC,
    )


def spam_correction(
    thermal: ThermalSpec, spam: SpamModel, n_steps: int | np.ndarray
) -> FdrEstimate:
    """Worst-case spurious correction from readout errors alone.

    Computed for energy measurements with no rotation in between: the
    one-step moments of ``apply_spam``'s no-rotation (s = 0) table, scaled
    by N, elementwise over an array ``n_steps``.  Given a thermal first
    readout, the only nonzero-work events are misreads of the second readout,

        P(w=+1) = (1-p) p_bright_given_0,   P(w=-1) = p p_dark_given_1.

    The resulting correction is exactly linear in the number of steps and is
    benchmarked on the coherent axis (norm_dh = 1/sqrt(2)), where its
    rescaled value therefore grows quadratically and eventually swamps the
    genuine coherent plateau.
    """
    if np.any(np.less(n_steps, 1)):
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    step = apply_spam(coherent_step_table(thermal.population, 0.0), spam)
    return make_estimate(
        mean_work=n_steps * step.mean(),
        var_work=n_steps * step.variance(),
        beta=thermal.beta,
        delta_f=0.0,
        n_steps=n_steps,
        norm_dh=COHERENT_NORM_DH,
        source=ANALYTIC,
    )


def _bin_key(v_inv: float | np.ndarray) -> float | np.ndarray:
    """Sweep bin of an inverse speed: floor(v^-1 / SWEEP_BIN_WIDTH), as a float."""
    return np.floor(np.divide(v_inv, SWEEP_BIN_WIDTH))


@dataclass
class SweepResult:
    """Incoherent-protocol sweep: raw points and the per-bin upper boundary.

    ``points`` is an (M, 2) float64 array of (v^-1, N Q / |dH|) rows, N-major;
    ``bin_maxima[i]`` is the supremum over the points in bin ``bin_keys[i]``
    = floor(v^-1 / SWEEP_BIN_WIDTH), keys ascending.  ``skipped`` is always
    0; the benchmark's tracer counts grid cells as points + skipped.
    """

    points: np.ndarray
    bin_keys: np.ndarray
    bin_maxima: np.ndarray
    skipped: int

    def boundary_at(self, inverse_speed: float) -> float:
        """Supremum of the rescaled correction in the bin containing v^-1."""
        key = _bin_key(inverse_speed)
        i = int(np.searchsorted(self.bin_keys, key))
        if i == self.bin_keys.size or self.bin_keys[i] != key:
            raise KeyError(f"no sweep points in the bin around v^-1 = {inverse_speed}")
        return float(self.bin_maxima[i])

    def bin_centers(self) -> np.ndarray:
        """v^-1 at the center of each occupied bin, aligned with ``bin_maxima``."""
        return (self.bin_keys + 0.5) * SWEEP_BIN_WIDTH


def incoherent_region_sweep(beta: float, at: list[float] | np.ndarray | None = None) -> SweepResult:
    """Map the (inverse speed, rescaled correction) region of incoherent ramps.

    For every (omega_end, N) pair of the grid omega_end = geomspace(0.05, 20,
    200), N = 1 .. 200, the ramp starts at the experiment's gap
    ``SWEEP_OMEGA_START`` and the rescaled correction N Q / |dH| is recorded
    at v^-1 = N / |dH| with |dH| = |omega_end - omega_start| / 2, from
    ``incoherent_cumulants``; no grid omega_end equals omega_start.  The
    per-bin supremum over the grid traces the upper boundary of the
    attainable region.

    Given inverse speeds ``at``, only the cells in their bins are evaluated
    and returned: every cell costs one v^-1 division, and the cumulants
    are taken of each N's wanted omega_end entries alone.  A cumulant entry
    depends on its own omega_end only, so the returned points, bins and
    ``boundary_at`` there carry the full sweep's bits.
    """
    beta = ThermalSpec.from_beta(beta).beta  # capped at BETA_CAP, as the other sweep curves
    omega_start = SWEEP_OMEGA_START
    omega_f = np.geomspace(0.05, 20.0, 200)
    n_grid = np.arange(1, 201)
    norm = np.abs(omega_f - omega_start) / 2.0
    wanted = np.broadcast_to(True, (n_grid.size, omega_f.size))
    if at is not None:
        wanted = np.isin(_bin_key(n_grid[:, None] / norm), _bin_key(at))

    cumulants = [incoherent_cumulants(beta, omega_start, omega_f[cells], n)
                 for n, cells in zip(n_grid, wanted) if cells.any()]
    mean, var = np.concatenate([np.empty((2, 0)), *cumulants], axis=1)
    # the (N, 1) and (M,) grid values of each wanted cell, N-major
    n, norm, delta_f = (np.broadcast_to(grid, wanted.shape)[wanted] for grid in
                        (n_grid[:, None], norm, delta_free_energy(beta, omega_start, omega_f)))
    q = beta / 2.0 * var - (mean - delta_f)
    v_inv = n / norm
    rescaled = n * q / norm
    keys = _bin_key(v_inv).astype(np.int64)

    order = np.argsort(keys)
    bin_keys, starts = np.unique(keys[order], return_index=True)
    return SweepResult(
        points=np.column_stack([v_inv, rescaled]),
        bin_keys=bin_keys,
        bin_maxima=np.maximum.reduceat(rescaled[order], starts),
        skipped=0,
    )


def coherent_theory_curve(beta: float, n_values: np.ndarray) -> np.ndarray:
    """Rescaled coherent correction at each step count of ``n_values``."""
    thermal = ThermalSpec.from_beta(beta)
    return np.array(
        [quantum_correction(ProtocolSpec(COHERENT, int(n), thermal)).rescaled for n in n_values]
    )


def spam_bound_curve(beta: float, spam: SpamModel, n_values: np.ndarray) -> np.ndarray:
    """Rescaled worst-case readout-error correction at each step count of ``n_values``."""
    return spam_correction(ThermalSpec.from_beta(beta), spam, np.asarray(n_values)).rescaled


def sigma_distance(value: float | np.ndarray, sigma: float | np.ndarray,
                   reference_value: float | np.ndarray) -> float | np.ndarray:
    """How many sigmas a measured value sits above a reference value, elementwise."""
    if np.any(np.less_equal(sigma, 0.0)):
        raise ValueError(f"sigma must be > 0, got {sigma}")
    return (value - reference_value) / sigma


@dataclass(frozen=True)
class Certificate:
    """Measured points against both classical boundaries, one entry per point.

    ``incoherent`` is the region sweep's maximum in each point's v^-1 bin,
    from the cells of those bins alone; ``spam`` is ``spam_bound_curve`` at
    each point's N, as in sweep.  ``delta_inc`` and ``delta_spam`` are the
    distances above them in each point's ``sigma_delta``, the published
    convention (rows 4-6 share the third point's sigma).
    """

    incoherent: np.ndarray
    spam: np.ndarray
    delta_inc: np.ndarray
    delta_spam: np.ndarray


def certificate(beta: float, spam: SpamModel, points: list[ReferencePoint]) -> Certificate:
    v_inv = [point.v_inv for point in points]
    sweep = incoherent_region_sweep(beta, at=v_inv)
    incoherent = np.array([sweep.boundary_at(v) for v in v_inv])
    bound = spam_bound_curve(beta, spam, [point.n_steps for point in points])
    measured = np.array([point.nq_rescaled for point in points])
    sigma = np.array([point.sigma_delta for point in points])
    return Certificate(incoherent, bound, sigma_distance(measured, sigma, incoherent),
                       sigma_distance(measured, sigma, bound))
