"""Correctness gates, run after an operation's timed region has ended.

Each gate returns a list of failure messages (empty when the output is
correct).  The closed forms here are imported before any tracing wrapper is
installed, so the gates never add spans to a traced pass.
"""

from __future__ import annotations

import math
import re

import numpy as np

from qfdr.analytics import incoherent_correction, make_estimate, quantum_correction
from qfdr.io import read_csv_table
from qfdr.protocol import COHERENT, apply_spam, coherent_step_distribution
from qfdr.stats import beta_error

Z_LIMIT = 5.0
BATCHES = 20

# the classical incoherent boundary at the first measured abscissa must stay
# at least 11 published sigmas below the measured point (0.438, sigma 0.021)
BOUNDARY_V_INV = 2.828
BOUNDARY_LIMIT = 0.438 - 11 * 0.021
SWEEP_BIN_HALF_WIDTH = 0.025

CERTIFIED_POINTS = 6

SIMULATE_LINE = re.compile(
    r"^wrote (?P<path>\S+): n_steps=(?P<n_steps>\d+) runs=(?P<runs>\d+) "
    r"nq_rescaled=(?P<nq>\S+) bootstrap_sigma=(?P<sigma>\S+)$",
    re.MULTILINE,
)


def printed_rows(stdout: str) -> dict[str, dict]:
    """Rows printed by ``simulate``, keyed by the samples file they describe."""
    return {m["path"]: m.groupdict() for m in SIMULATE_LINE.finditer(stdout)}


def closed_form(samples) -> float:
    """Exact rescaled correction for the protocol recorded in a samples file."""
    spec = samples.spec
    if spec.kind != COHERENT:
        return incoherent_correction(spec).rescaled
    if samples.spam is None:
        return quantum_correction(spec).rescaled
    step = apply_spam(coherent_step_distribution(spec), samples.spam)
    n = spec.n_steps
    return make_estimate(
        mean_work=n * step.mean(),
        var_work=n * step.variance(),
        beta=spec.thermal.beta,
        delta_f=0.0,
        n_steps=n,
        norm_dh=spec.norm_dh,
        source="analytic",
    ).rescaled


def gate_sigma(samples, estimate) -> float:
    """Batch-means sigma of the rescaled correction, plus the beta refit term.

    The totals are cut into contiguous batches and the correction is
    recomputed per batch at the estimate's beta; for coherent rows the error
    of the refitted beta, propagated through dQ/dbeta = Var/2, is added in
    quadrature.
    """
    spec = samples.spec
    n, norm = spec.n_steps, spec.norm_dh
    batch_nq = []
    for batch in np.array_split(samples.totals, BATCHES):
        q = estimate.beta / 2.0 * batch.var(ddof=1) - (batch.mean() - estimate.delta_f)
        batch_nq.append(n * q / norm)
    sigma = float(np.std(batch_nq, ddof=1)) / math.sqrt(BATCHES)
    if spec.kind == COHERENT:
        trials = n * samples.runs
        p_hat = float(samples.first_excited_counts.sum()) / trials
        refit = beta_error(p_hat, trials) * n * estimate.var_work / (2.0 * norm)
        sigma = math.hypot(sigma, refit)
    return sigma


def check_reanalysed(path: str, row: dict | None, samples, estimate) -> tuple[list[str], str]:
    """Gate one re-read samples file against its printed row and the closed form.

    Returns the failures and a report line that prints the sigma ``simulate``
    printed next to the gate's sigma, ungated.
    """
    if row is None:
        return [f"{path}: simulate printed no row for this file"], ""
    failures = []
    if format(estimate.rescaled, ".6f") != row["nq"]:
        failures.append(f"{path}: reanalysed nq {estimate.rescaled:.6f} != printed {row['nq']}")
    if samples.spec.n_steps != int(row["n_steps"]) or samples.runs != int(row["runs"]):
        failures.append(f"{path}: file header does not match the printed n_steps/runs")
    exact = closed_form(samples)
    sigma = gate_sigma(samples, estimate)
    z = (estimate.rescaled - exact) / sigma
    if not abs(z) <= Z_LIMIT:
        failures.append(f"{path}: |nq - closed form| = {abs(z):.2f} sigma_gate > {Z_LIMIT}")
    report = (
        f"{path}: nq={estimate.rescaled:.6f} exact={exact:.6f} z={z:+.2f} "
        f"sigma_gate={sigma:.4f} printed_sigma={row['sigma']}"
    )
    return failures, report


def check_sweep(path: str) -> list[str]:
    _, rows = read_csv_table(path)
    boundary = [
        float(r["nq_rescaled"])
        for r in rows
        if r["provenance"] == "incoherent_sim"
        and abs(float(r["v_inv"]) - BOUNDARY_V_INV) <= SWEEP_BIN_HALF_WIDTH
    ]
    failures = []
    if not boundary:
        failures.append(f"{path}: no incoherent boundary row at v_inv={BOUNDARY_V_INV}")
    elif max(boundary) > BOUNDARY_LIMIT:
        failures.append(
            f"{path}: incoherent boundary {max(boundary):.4f} at v_inv={BOUNDARY_V_INV} "
            f"exceeds {BOUNDARY_LIMIT:.3f}"
        )
    for provenance in ("coherent_theory", "spam_bound", "experiment"):
        if not any(r["provenance"] == provenance for r in rows):
            failures.append(f"{path}: no {provenance} rows")
    return failures


def check_certify(path: str) -> list[str]:
    _, rows = read_csv_table(path)
    if len(rows) != CERTIFIED_POINTS:
        return [f"{path}: {len(rows)} rows, expected {CERTIFIED_POINTS}"]
    return [f"{path}: v_inv={r['v_inv']} not certified" for r in rows if r["pass"] != "true"]


def _incoherent_rescaled(beta, omega_start, omega_end, n) -> float:
    """Independent vectorised closed form of an incoherent ramp's N Q / |dH|."""
    delta = (omega_end - omega_start) / n
    gaps = omega_start + delta * np.arange(n)
    excited = 1.0 / (1.0 + np.exp(np.minimum(beta * gaps, 700.0)))
    mean = float(np.sum(delta * (excited - 0.5)))
    var = float(np.sum(delta**2 * excited * (1.0 - excited)))
    log_z = [np.logaddexp(beta * w / 2.0, -beta * w / 2.0) for w in (omega_start, omega_end)]
    delta_f = -(log_z[1] - log_z[0]) / beta if beta > 0.0 else 0.0
    q = beta / 2.0 * var - (mean - delta_f)
    return n * q / (abs(omega_end - omega_start) / 2.0)


def check_analytic(path: str, n_steps: list[int]) -> list[str]:
    """Incoherent analytic rows against an independent closed form."""
    _, rows = read_csv_table(path)
    if [int(r["n_steps"]) for r in rows] != n_steps:
        return [f"{path}: rows do not cover n_steps {n_steps[0]}..{n_steps[-1]}"]
    failures = []
    for r in rows:
        expected = _incoherent_rescaled(
            float(r["beta"]), float(r["omega_start"]), float(r["omega_end"]), int(r["n_steps"])
        )
        if not math.isclose(float(r["nq_rescaled"]), expected, rel_tol=1e-9, abs_tol=1e-12):
            failures.append(f"{path}: n_steps={r['n_steps']} nq {r['nq_rescaled']} != {expected!r}")
    return failures
