"""Step-work tables and seeded Monte Carlo sampling of work trajectories.

Two protocol families are supported:

* coherent: the Hamiltonian eigenbasis is rotated from -sigma_z/2 to
  +sigma_y/2 in N equal pulses of angle pi/(2N), with a perfect Gibbs reset
  before every step.  Each step flips the qubit with probability
  sin^2(pi/(4N)), so the step work w in {-1, 0, +1} follows an exact
  three-outcome table.  Readout error of the second measurement enters
  through one model, ``apply_spam``, which misreads the second level given
  the first readout.
* incoherent: the gap is ramped from omega_start to omega_end in N quenches
  with the eigenbasis pinned to sigma_z.  A step thermalized at gap omega_j
  yields w = +delta/2 with the thermal occupation of the excited level and
  w = -delta/2 otherwise, delta being the gap increment.  The one ramp law,
  ``ramp_occupations``, gives those occupations (beta omega_j capped at 700)
  to the step tables and to the closed-form cumulants alike.

Thermal resets make the steps statistically independent, so a trajectory
total is just a sum of independent draws from the per-step tables.  One
joint (work, first readout) law, ``StepTable``, serves ``sample_work``, the
exact per-run law the bootstrap resamples and the readout-error bound.  Sampling
uses a counter-based Philox stream partitioned per run and draws the runs in
fixed blocks of ``BLOCK_RUNS``, which the worker threads share; results are
bit-for-bit identical for any worker count, and the block size caps the
sampler's memory.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .qubit import ThermalSpec, flip_probability

COHERENT = "coherent"
INCOHERENT = "incoherent"
KINDS = (COHERENT, INCOHERENT)

# Operator norm of the Hamiltonian change for the coherent ramp
# (-sigma_z/2 -> +sigma_y/2).
COHERENT_NORM_DH = 1.0 / math.sqrt(2.0)

# Largest incoherent gap, in units of the initial gap.  At G = MAX_GAP every
# number a command writes is finite for any N, runs and beta <= BETA_CAP: the
# steps do work +-delta/2 with N |delta| = |omega_end - omega_start| < G, so
# totals, <W> and dF lie within G/2 of 0, a variance is at most G^2/2, |Q| <=
# BETA_CAP G^2/4 + G, and N |Q| / |dH| <= N (BETA_CAP G/2 + 2) as |dH| = N |delta|/2.
# Far above it delta^2 overflows (past about 1.3e154), and Var(W) and Q read inf.
MAX_GAP = 1e3

PROB_ATOL = 1e-12

# Philox advances its counter in blocks of four 64-bit words and one double
# consumes one word, so per-run draw budgets must be a multiple of 4.
_PHILOX_BLOCK = 4

# Runs per block of every per-run loop: ``sample_work``'s sampler (a few arrays
# of BLOCK_RUNS x N cells, not of runs x N), ``StepTable.level_sums`` and
# ``io.write_samples``, whose temporaries it caps.
BLOCK_RUNS = 4096


@dataclass(frozen=True)
class SpamModel:
    """Conditional readout-error probabilities of the second measurement.

    ``p_bright_given_0`` is the probability of reading the ground state as
    bright, ``p_dark_given_1`` of reading the excited state as dark.
    """

    p_bright_given_0: float
    p_dark_given_1: float

    def __post_init__(self) -> None:
        for name in ("p_bright_given_0", "p_dark_given_1"):
            value = getattr(self, name)
            if not 0.0 <= value < 0.5:
                raise ValueError(f"{name} must lie in [0, 0.5), got {value}")


@dataclass(frozen=True)
class ProtocolSpec:
    """A coherent or incoherent driving schedule.

    The coherent step angle is always derived as pi/(2 * n_steps); the total
    rotation is fixed at a quarter turn.  Incoherent endpoints are gaps in
    units of the initial gap.
    """

    kind: str
    n_steps: int
    thermal: ThermalSpec
    omega_start: float = 1.0
    omega_end: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be '{COHERENT}' or '{INCOHERENT}', got {self.kind!r}")
        if not isinstance(self.n_steps, (int, np.integer)) or self.n_steps < 1:
            raise ValueError(f"n_steps must be a positive integer, got {self.n_steps}")
        if self.kind == INCOHERENT:
            if not (0.0 < self.omega_start <= MAX_GAP and 0.0 < self.omega_end <= MAX_GAP):
                raise ValueError(f"incoherent gaps must be finite and positive, at most "
                                 f"MAX_GAP = {MAX_GAP:g}, got {self.omega_start}, {self.omega_end}")

    @property
    def step_angle(self) -> float:
        """Per-step rotation angle of the coherent protocol, pi/(2N)."""
        if self.kind != COHERENT:
            raise ValueError("step_angle is defined for coherent protocols only")
        return math.pi / (2.0 * self.n_steps)

    @property
    def norm_dh(self) -> float:
        """Operator norm of the total Hamiltonian change."""
        if self.kind == COHERENT:
            return COHERENT_NORM_DH
        return abs(self.omega_end - self.omega_start) / 2.0


def ramp_occupations(
    beta: float, omega_start: float, omega_end: float | np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Gap increment and excited occupations of an N-quench incoherent ramp.

    delta = (omega_end - omega_start) / N and, at the gaps omega_j =
    omega_start + j delta (j = 0 .. N-1), f_j = 1 / (1 + exp(beta omega_j))
    with beta omega_j capped at 700.  ``f[..., j]`` is elementwise over an
    array ``omega_end``: f has the shape of ``omega_end`` plus a last axis of
    the N steps, in a fresh array.
    """
    omega_end = np.asarray(omega_end, dtype=np.float64)
    delta = (omega_end - omega_start) / n
    # in place, in the formula's order of operations, which fixes f's bits
    f = np.multiply(delta[..., None], np.arange(n, dtype=np.float64))
    np.add(f, omega_start, out=f)
    np.multiply(f, beta, out=f)
    np.minimum(f, 700.0, out=f)
    np.exp(f, out=f)
    np.add(f, 1.0, out=f)
    return delta, np.divide(1.0, f, out=f)


@dataclass(frozen=True)
class StepTable:
    """Joint law of (work, first readout) of every step of a protocol.

    ``probs[j, l, k]`` is the probability that step j does work ``works[l]``
    with first readout k (0 ground, 1 excited).  ``works`` is an arithmetic
    progression, so a run whose levels sum to i totals ``total_work(i)``: the
    one rule by which the exact run law and the sampler both total a run.
    ``flips[l]`` marks the levels counted in ``WorkSampleSet.flip_counts``.
    """

    works: np.ndarray
    probs: np.ndarray
    flips: np.ndarray

    def __post_init__(self) -> None:
        if self.works.size < 2 or self.probs.shape[1:] != (self.works.size, 2):
            raise ValueError("probs must have shape (n_steps, len(works) >= 2, 2)")
        row_sums = self.probs.sum(axis=(1, 2))
        # written so that a NaN fails the checks
        if not (np.all(self.probs >= -PROB_ATOL) and np.all(abs(row_sums - 1.0) <= PROB_ATOL)):
            raise ValueError("every row of a step table must be a probability table")

    def total_work(self, i: np.ndarray) -> np.ndarray:
        """Run total of level sum ``i``: N works[0] + i (works[1] - works[0])."""
        return self.probs.shape[0] * self.works[0] + i * (self.works[1] - self.works[0])

    def level_sums(self, totals: np.ndarray) -> np.ndarray:
        """Level sum of each run total: the exact inverse of ``total_work`` on its grid.

        i = rint((t - total_work(0)) / step), clipped to the grid [0, N(L-1)], is
        kept only where ``total_work(i)`` gives t back bit for bit; any other total
        raises ``ValueError`` naming its row.  The rounding is exact for every table
        ``step_table`` builds: its works are -1, 0, 1 (step 1) or -delta/2, delta/2
        (step delta), so the quotient is off by about N eps, far below 1/2.  A flat
        ramp (step 0) has one total, of level sum 0, and divides by nothing.
        """
        n, levels, _ = self.probs.shape
        origin, step = self.total_work(0), self.works[1] - self.works[0]
        sums = np.zeros(totals.size, dtype=np.intp)
        for start in range(0, totals.size, BLOCK_RUNS):
            block, found = totals[start : start + BLOCK_RUNS], sums[start : start + BLOCK_RUNS]
            if step:
                found[:] = np.clip(np.rint((block - origin) / step), 0, n * (levels - 1))
            if (off := self.total_work(found).view(np.int64) != block.view(np.int64)).any():
                row = start + off.argmax()
                raise ValueError(f"total {totals[row]} at row {row} is not a run total")
        return sums

    def mean(self) -> float:
        """Mean of the total work, the sum of the steps' means."""
        return float((self.probs.sum(axis=2) @ self.works).sum())

    def variance(self) -> float:
        """Variance of the total work, the sum of the independent steps'
        variances.  Each is <d^2> - <d>^2 with d the work less the step's most
        likely work, so a step whose mass sits on one level keeps its
        relative precision."""
        marginals = self.probs.sum(axis=2)
        offsets = self.works - self.works[marginals.argmax(axis=1), None]
        means = (marginals * offsets).sum(axis=1)
        return float(((marginals * offsets**2).sum(axis=1) - means**2).sum())


def coherent_step_table(p: float, s: float) -> StepTable:
    """One-step (work, first readout) table of a coherent step.

    The first readout is excited with the thermal occupation p and the pulse
    flips it with probability s, so the (w, k) cells are (-1, 1) = p s,
    (0, 0) = (1-p)(1-s), (0, 1) = p(1-s), (+1, 0) = (1-p) s, and the cells
    (-1, 0) and (+1, 1) are exactly 0.  At s = 0 it is the no-rotation step.
    """
    zero = 1.0 - s
    probs = np.array([[[0.0, p * s], [(1.0 - p) * zero, p * zero], [(1.0 - p) * s, 0.0]]])
    works = np.array([-1.0, 0.0, 1.0])
    return StepTable(works, probs, flips=works != 0.0)


def coherent_step_distribution(spec: ProtocolSpec) -> StepTable:
    """One-step table of a coherent protocol: ``coherent_step_table`` at its
    occupation and the flip probability s = sin^2(pi/(4N)) of its step angle.

    Its work marginal, ``probs[0].sum(axis=1)``, is P(w=-1) = p s,
    P(w=0) = 1 - s, P(w=+1) = (1-p) s.  Validated elsewhere against the
    density-matrix simulation of the full step.
    """
    if spec.kind != COHERENT:
        raise ValueError("coherent_step_distribution requires a coherent spec")
    return coherent_step_table(spec.thermal.population, flip_probability(spec.step_angle))


def apply_spam(table: StepTable, spam: SpamModel) -> StepTable:
    """The one readout-error model: misread the second readout of a coherent table.

    Given first readout k, the second readout is level k + w, so each column
    of the table has its own channel on the works (-1, 0, +1):

    * k = 0 (ground): w 0 -> +1 with p_bright_given_0 and w +1 -> 0 with
      p_dark_given_1;
    * k = 1 (excited): w -1 -> 0 with p_bright_given_0 and w 0 -> -1 with
      p_dark_given_1.

    The first readout is untouched, so every column keeps its mass.  Only
    defined on the coherent support {-1, 0, +1}.
    """
    if not np.array_equal(table.works, [-1.0, 0.0, 1.0]):
        raise ValueError(
            "apply_spam supports coherent three-outcome tables with works (-1, 0, +1) only"
        )
    pb, pd = spam.p_bright_given_0, spam.p_dark_given_1
    # channel[k, to, from] on the works (-1, 0, +1); each column sums to 1
    channel = np.array([
        [[1.0, 0.0, 0.0], [0.0, 1.0 - pb, pd], [0.0, pb, 1.0 - pd]],
        [[1.0 - pb, pd, 0.0], [pb, 1.0 - pd, 0.0], [0.0, 0.0, 1.0]],
    ])
    return StepTable(table.works, np.einsum("kab,jbk->jak", channel, table.probs), table.flips)


def step_table(spec: ProtocolSpec, spam: SpamModel | None = None) -> StepTable:
    """The one step model that ``sample_work`` and the bootstrap draw from.

    Coherent protocols repeat ``coherent_step_distribution``'s row N times,
    passed through ``apply_spam`` when ``spam`` is given.  Incoherent ramps
    get one row per quench: w = +delta/2 exactly when the first readout
    finds the excited level occupied at gap omega_j, with the occupations of
    ``ramp_occupations``.
    """
    if spam is not None and spec.kind != COHERENT:
        raise ValueError("SPAM perturbation is supported for coherent protocols only")
    n = spec.n_steps
    if spec.kind == COHERENT:
        step = coherent_step_distribution(spec)
        if spam is not None:
            step = apply_spam(step, spam)
        return StepTable(step.works, np.broadcast_to(step.probs, (n, 3, 2)), step.flips)
    delta, excited = ramp_occupations(spec.thermal.beta, spec.omega_start, spec.omega_end, n)
    probs = np.zeros((n, 2, 2))
    probs[:, 0, 0] = 1.0 - excited
    probs[:, 1, 1] = excited
    works = np.array([-0.5, 0.5]) * delta
    return StepTable(works, probs, flips=works > 0.0)


def run_distribution(table: StepTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact law of one run's (W, K), K counting its excited first readouts.

    The N-fold convolution of the step rows, returned over its support as
    parallel arrays of totals W (``table.total_work``), counts K and probabilities.
    """
    n, levels, _ = table.probs.shape
    pmf = np.zeros((n * (levels - 1) + 1, n + 1))
    pmf[0, 0] = 1.0
    for j, step in enumerate(table.probs):
        rows, cols = j * (levels - 1) + 1, j + 1
        done = pmf[:rows, :cols].copy()
        pmf[:rows, :cols] = 0.0
        for (level, k), q in np.ndenumerate(step):
            if q > 0.0:
                pmf[level : level + rows, k : k + cols] += q * done
    i, k = np.nonzero(pmf)
    return table.total_work(i), k, pmf[i, k]


@dataclass(frozen=True)
class WorkSampleSet:
    """Monte Carlo work totals plus per-step readout counts.

    Run r's total is ``levels[codes[r]]``: ``levels`` are the distinct grid totals of
    ``StepTable.total_work`` in ascending order, ``codes`` the narrowest unsigned integers.
    ``from_level_sums`` builds both from the runs' integer level sums, so the runs
    themselves are never sorted.
    ``first_excited_counts[j]`` counts excited first readouts at step j over
    all runs; ``flip_counts[j]`` counts nonzero-work outcomes at step j for
    coherent protocols and positive-work outcomes for incoherent ones.  The
    coherent estimate refits p from the first-readout counts; the flip counts
    are only recorded, in the samples-file header.  Identical (spec, spam,
    seed, runs) reproduce identical totals bit for bit.
    """

    levels: np.ndarray
    codes: np.ndarray
    first_excited_counts: np.ndarray
    flip_counts: np.ndarray
    seed: int
    spec: ProtocolSpec
    spam: SpamModel | None = None

    @classmethod
    def from_level_sums(cls, table: StepTable, sums: np.ndarray, **fields) -> "WorkSampleSet":
        """Runs coded by their level sums: the few sums that occur are flagged (a count
        into a few bins waits on itself) and totalled, their sorted distinct totals
        are the levels, and one lookup array codes every run."""
        occurs = np.zeros(sums.max() + 1, dtype=bool)
        occurs[sums] = True
        present = np.flatnonzero(occurs)
        levels, remap = np.unique(table.total_work(present), return_inverse=True)
        lookup = np.zeros(occurs.size, dtype=np.min_scalar_type(levels.size))
        lookup[present] = remap
        return cls(levels, lookup[sums], **fields)

    @property
    def totals(self) -> np.ndarray:
        """Total work of each run, in run order."""
        return self.levels[self.codes]

    @property
    def runs(self) -> int:
        return int(self.codes.size)


def _sample_block(
    table: StepTable, seed: int, start: int, n_runs: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # one double per step, padded to the Philox block size so per-run
    # counter offsets stay aligned: runs start .. start + n_runs read the
    # stream exactly as one draw for all the runs would
    n = table.probs.shape[0]
    budget = -(-n // _PHILOX_BLOCK) * _PHILOX_BLOCK
    bit_generator = np.random.Philox(key=seed)
    bit_generator.advance(start * (budget // _PHILOX_BLOCK))
    u = np.random.Generator(bit_generator).random((n_runs, budget))[:, :n]
    # cell 2 l + k of each step by inverse-CDF lookup in its row; levels sum as integers
    cell = np.zeros(u.shape, dtype=np.int8)
    for bound in table.probs.reshape(n, -1).cumsum(axis=1)[:, :-1].T:
        cell += u >= bound
    level, first = np.divmod(cell, 2)
    return (level.sum(axis=1), first.sum(axis=0, dtype=np.int64),
            table.flips[level].sum(axis=0, dtype=np.int64))


def sample_work(
    spec: ProtocolSpec,
    spam: SpamModel | None,
    runs: int,
    seed: int,
    workers: int = 1,
) -> WorkSampleSet:
    """Draw ``runs`` run totals W, each the table's ``total_work`` of its N step levels.

    Each step draws its (work, first readout) cell from ``step_table`` with
    one uniform (SPAM-perturbed when ``spam`` is given).  Each run owns a
    fixed slice of a counter-based random stream, and the runs are drawn in
    fixed blocks of ``BLOCK_RUNS``, so the totals do not depend on
    ``workers``: it only sets how many threads (at most ``os.cpu_count()``)
    take the blocks, each the next free one.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    from concurrent.futures import ThreadPoolExecutor  # on first use: only simulate starts threads

    table = step_table(spec, spam)
    starts = range(0, runs, BLOCK_RUNS)
    with ThreadPoolExecutor(max_workers=min(workers, len(starts), os.cpu_count() or 1)) as pool:
        results = list(pool.map(
            lambda start: _sample_block(table, seed, start, min(BLOCK_RUNS, runs - start)), starts))
    level_sums, first_counts, flip_counts = zip(*results)
    return WorkSampleSet.from_level_sums(
        table, np.concatenate(level_sums),
        first_excited_counts=np.sum(first_counts, axis=0),
        flip_counts=np.sum(flip_counts, axis=0),
        seed=seed,
        spec=spec,
        spam=spam,
    )
