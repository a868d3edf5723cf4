"""Closed-form work cumulants and fluctuation-dissipation corrections.

The central quantity is the correction

    Q = (beta/2) Var(W) - (<W> - dF)

which vanishes for a slowly driven classical system.  For the coherent
protocol the exact finite-N expression is

    Q = N s [ (beta/2) (1 - s (1-2p)^2) - (1-2p) ],   s = sin^2(pi/(4N)),

which grows to the positive asymptote (pi^2/16)(beta/2 - tanh(beta/2)) for
N -> inf.  Incoherent ramps produce a correction that decays as 1/N^2 at
fixed endpoints, and readout errors alone produce a spurious correction that
grows linearly in N.  All three scalings are exposed here, together with the
(inverse speed, rescaled correction) sweep that maps out the region
attainable by incoherent protocols.  Both incoherent paths share one
vectorised closed form for the work cumulants, ``incoherent_cumulants``.
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
)
from .qubit import ThermalSpec

ANALYTIC = "analytic"
MONTE_CARLO = "monte_carlo"

PROVENANCES = ("experiment", "coherent_theory", "incoherent_sim", "spam_bound")

DEFAULT_SWEEP_BIN_WIDTH = 0.05
DEFAULT_OMEGA_RATIO_BOUNDS = (0.05, 20.0)
DEFAULT_OMEGA_GRID_SIZE = 200
DEFAULT_SWEEP_N_MAX = 200


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


@dataclass(frozen=True)
class SweepPoint:
    inverse_speed: float
    rescaled_q: float
    provenance: str

    def __post_init__(self) -> None:
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")


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


def flip_probability(n_steps: int) -> float:
    """Ideal per-step flip probability of the coherent ramp, sin^2(pi/(4N))."""
    return math.sin(math.pi / (4.0 * n_steps)) ** 2


def coherent_cumulants(spec: ProtocolSpec) -> tuple[float, float]:
    """Mean and variance of the total work of the coherent protocol.

    <W>     = N (1-2p) s
    Var(W)  = N s (1 - s (1-2p)^2)

    with s = sin^2(pi/(4N)).  Equal to the moment sums of the exact step
    table because the steps are independent and identically distributed.
    """
    if spec.kind != COHERENT:
        raise ValueError("coherent_cumulants requires a coherent spec")
    n = spec.n_steps
    t = 1.0 - 2.0 * spec.thermal.population
    s = flip_probability(n)
    return n * t * s, n * s * (1.0 - s * t * t)


def delta_free_energy(spec: ProtocolSpec) -> float:
    """Equilibrium free-energy change between the protocol endpoints.

    The coherent drive only rotates the eigenbasis, so its spectrum and hence
    dF are unchanged: exactly zero.  For the incoherent ramp the two-level
    partition function Z = 2 cosh(beta omega / 2) gives

        dF = -(1/beta) ln[ cosh(beta omega_end / 2) / cosh(beta omega_start / 2) ]

    with the beta -> 0 limit dF = 0.
    """
    if spec.kind == COHERENT:
        return 0.0
    beta = spec.thermal.beta
    if beta == 0.0:
        return 0.0
    return -(1.0 / beta) * (
        _log_cosh(beta * spec.omega_end / 2.0) - _log_cosh(beta * spec.omega_start / 2.0)
    )


def _log_cosh(x: float) -> float:
    # overflow-safe log(cosh(x)) for large arguments
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax)) - math.log(2.0)


def quantum_correction(spec: ProtocolSpec) -> FdrEstimate:
    """Exact finite-N correction of the coherent protocol (dF = 0)."""
    if spec.kind != COHERENT:
        raise ValueError("quantum_correction requires a coherent spec")
    mean, var = coherent_cumulants(spec)
    return make_estimate(
        mean_work=mean,
        var_work=var,
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

    With delta = (omega_end - omega_start) / N and the excited occupation
    f_j = 1 / (1 + exp(beta omega_j)) at gap omega_j = omega_start + j delta
    (beta omega_j capped at 700),

        <W> = sum_j delta (f_j - 1/2),   Var(W) = sum_j delta^2 f_j (1 - f_j),

    elementwise over an array ``omega_end``.  numpy sums the steps in order
    for two or more entries, so an entry does not depend on its neighbours,
    but pairwise for one: scalar and array calls agree to rounding only.
    """
    omega_end = np.asarray(omega_end, dtype=np.float64)
    delta = (omega_end - omega_start) / n
    gaps = omega_start + np.multiply.outer(np.arange(n), delta)
    occupied = 1.0 / (1.0 + np.exp(np.minimum(beta * gaps, 700.0)))
    mean = np.sum(delta * (occupied - 0.5), axis=0)
    var = np.sum(delta**2 * occupied * (1.0 - occupied), axis=0)
    return mean, var


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
        delta_f=delta_free_energy(spec),
        n_steps=spec.n_steps,
        norm_dh=spec.norm_dh,
        source=ANALYTIC,
    )


def spam_correction(thermal: ThermalSpec, spam: SpamModel, n_steps: int) -> FdrEstimate:
    """Worst-case spurious correction from readout errors alone.

    Computed for energy measurements with no rotation in between: given a
    thermal first readout, the only nonzero-work events are misreads of the
    second readout,

        P(w=+1) = (1-p) p_bright_given_0,   P(w=-1) = p p_dark_given_1.

    The resulting correction is exactly linear in the number of steps and is
    benchmarked on the coherent axis (norm_dh = 1/sqrt(2)), where its
    rescaled value therefore grows quadratically and eventually swamps the
    genuine coherent plateau.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    p = thermal.population
    plus = (1.0 - p) * spam.p_bright_given_0
    minus = p * spam.p_dark_given_1
    step_mean = plus - minus
    step_var = (plus + minus) - step_mean**2
    return make_estimate(
        mean_work=n_steps * step_mean,
        var_work=n_steps * step_var,
        beta=thermal.beta,
        delta_f=0.0,
        n_steps=n_steps,
        norm_dh=COHERENT_NORM_DH,
        source=ANALYTIC,
    )


def temperature_profile(n_steps: int, betas: list[float]) -> list[FdrEstimate]:
    """Coherent correction across inverse temperatures at fixed step count.

    Zero at beta = 0 and monotone non-decreasing in beta for n_steps >= 2.
    The small-beta behaviour is cubic: Q = N s (1/24 - s/8) beta^3 + O(beta^5).
    """
    estimates = []
    for beta in betas:
        if beta < 0.0:
            raise ValueError(f"betas must be >= 0, got {beta}")
        spec = ProtocolSpec.coherent(n_steps, ThermalSpec.from_beta(beta))
        estimates.append(quantum_correction(spec))
    return estimates


@dataclass
class SweepResult:
    """Incoherent-protocol sweep: raw points and the per-bin upper boundary.

    ``points`` is an (M, 2) float64 array of (v^-1, N Q / |dH|) rows, N-major;
    ``bin_maxima[i]`` is the supremum over the points in bin ``bin_keys[i]``
    = floor(v^-1 / bin_width), keys ascending.
    """

    points: np.ndarray
    bin_width: float
    bin_keys: np.ndarray
    bin_maxima: np.ndarray
    skipped: int = 0

    def boundary_at(self, inverse_speed: float) -> float:
        """Supremum of the rescaled correction in the bin containing v^-1."""
        key = math.floor(inverse_speed / self.bin_width)
        i = int(np.searchsorted(self.bin_keys, key))
        if i == self.bin_keys.size or self.bin_keys[i] != key:
            raise KeyError(f"no sweep points in the bin around v^-1 = {inverse_speed}")
        return float(self.bin_maxima[i])

    def bin_centers(self) -> np.ndarray:
        """v^-1 at the center of each occupied bin, aligned with ``bin_maxima``."""
        return (self.bin_keys + 0.5) * self.bin_width


def default_omega_grid(omega_start: float = 1.0) -> np.ndarray:
    lo, hi = DEFAULT_OMEGA_RATIO_BOUNDS
    return np.geomspace(lo * omega_start, hi * omega_start, DEFAULT_OMEGA_GRID_SIZE)


def incoherent_region_sweep(
    beta: float,
    omega_f_grid: np.ndarray | None = None,
    n_grid: np.ndarray | None = None,
    omega_start: float = 1.0,
    bin_width: float = DEFAULT_SWEEP_BIN_WIDTH,
) -> SweepResult:
    """Map the (inverse speed, rescaled correction) region of incoherent ramps.

    For every (omega_end, N) pair on the grid the ramp starts at the
    experiment's gap ``omega_start`` and the rescaled correction
    N Q / |dH| is recorded at v^-1 = N / |dH| with |dH| = |omega_end -
    omega_start| / 2, from ``incoherent_cumulants``.  Degenerate omega_end =
    omega_start entries carry no Hamiltonian change and are skipped; the
    count is reported in the result.  The per-bin supremum over the grid
    traces the upper boundary of the attainable region.
    """
    if omega_f_grid is None:
        omega_f_grid = default_omega_grid(omega_start)
    if n_grid is None:
        n_grid = np.arange(1, DEFAULT_SWEEP_N_MAX + 1)
    omega_f_grid = np.asarray(omega_f_grid, dtype=np.float64)
    n_grid = np.asarray(n_grid, dtype=np.int64)
    if omega_f_grid.size == 0 or n_grid.size == 0:
        raise ValueError("sweep grids must be non-empty")
    if np.any(omega_f_grid <= 0.0):
        raise ValueError("omega_f grid entries must be positive")

    degenerate = omega_f_grid == omega_start
    skipped = int(degenerate.sum()) * int(n_grid.size)
    omega_f = omega_f_grid[~degenerate]

    cumulants = np.array([incoherent_cumulants(beta, omega_start, omega_f, n) for n in n_grid])
    mean, var = cumulants[:, 0], cumulants[:, 1]
    if beta > 0.0:
        delta_f = -(np.logaddexp(beta * omega_f / 2.0, -beta * omega_f / 2.0)
                    - math.log(2.0) - _log_cosh(beta * omega_start / 2.0)) / beta
    else:
        delta_f = np.zeros_like(omega_f)
    q = beta / 2.0 * var - (mean - delta_f)
    norm = np.abs(omega_f - omega_start) / 2.0
    n = n_grid[:, None]
    v_inv = (n / norm).ravel()
    rescaled = (n * q / norm).ravel()

    keys = np.floor(v_inv / bin_width).astype(np.int64)
    order = np.argsort(keys)
    bin_keys, starts = np.unique(keys[order], return_index=True)
    return SweepResult(
        points=np.column_stack([v_inv, rescaled]),
        bin_width=bin_width,
        bin_keys=bin_keys,
        bin_maxima=np.maximum.reduceat(rescaled[order], starts),
        skipped=skipped,
    )


def coherent_theory_curve(beta: float, n_values: np.ndarray) -> list[SweepPoint]:
    """Rescaled coherent correction at each step count, as sweep points."""
    thermal = ThermalSpec.from_beta(beta)
    points = []
    for n in n_values:
        est = quantum_correction(ProtocolSpec.coherent(int(n), thermal))
        points.append(
            SweepPoint(
                inverse_speed=int(n) / COHERENT_NORM_DH,
                rescaled_q=est.rescaled,
                provenance="coherent_theory",
            )
        )
    return points


def spam_bound_curve(
    beta: float, spam: SpamModel, n_values: np.ndarray
) -> list[SweepPoint]:
    """Rescaled worst-case readout-error correction at each step count."""
    thermal = ThermalSpec.from_beta(beta)
    points = []
    for n in n_values:
        est = spam_correction(thermal, spam, int(n))
        points.append(
            SweepPoint(
                inverse_speed=int(n) / COHERENT_NORM_DH,
                rescaled_q=est.rescaled,
                provenance="spam_bound",
            )
        )
    return points
