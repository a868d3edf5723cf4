"""Acceptance criteria for the full toolkit.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all)
and enforces its stated tolerance and runtime budget.

Criterion 5's high-temperature claim is that the correction vanishes as
beta -> 0.  Exactly, Q/<W> = beta^2 (1/12 - s/4) + O(beta^4) is quadratic and
Q itself is cubic, N s (1/24 - s/8) beta^3 + O(beta^5), with s =
sin^2(pi/(4N)).  The test asserts both laws, after checking the closed form
against the density-matrix oracle.

Criterion 1 is asserted as specified and fails on the bundled data:

* the third measured point (v^-1 = 5.657, N = 4) reads 0.537 +- 0.028
  against the exact 0.6143 at beta = 3.413, i.e. 2.76 statistical sigma,
  above the 2.5 limit;
* adding the beta-calibration error (beta_error(0.032, 40000) = 0.028, or
  0.010 on the rescaled scale) in quadrature still leaves 2.60 sigma;
* all six points lie below the theory, chi^2 = 19.8 on 6 degrees of freedom
  (p = 0.003), so the gap is not a fluke of the per-point rule; readout
  error only raises the prediction and cannot close it.

The fifth abscissa, 8.845, differs from 6 sqrt(2) = 8.485, but both round to
N = 6, so it plays no part in that failure.  The data and the assertion stay
as they are until the paper's own comparison is available.
"""

import itertools
import math
import time

import numpy as np

from qfdr.analytics import (
    coherent_asymptote,
    incoherent_correction,
    quantum_correction,
    spam_correction,
)
from qfdr.cli import main
from qfdr.io import read_csv_table
from qfdr.protocol import (
    COHERENT,
    INCOHERENT,
    ProtocolSpec,
    SpamModel,
    coherent_step_distribution,
    sample_work,
)
from qfdr.qubit import ThermalSpec
from qfdr.reference import load_reference_points
from qfdr.stats import (
    beta_error,
    binomial_error,
    bootstrap_q,
    drift_scan,
    estimate_from_samples,
)

from oracle import tpm_step_distribution

BETA = 3.413
EXPERIMENT = ThermalSpec.from_beta(BETA)


def _report(label: str, passed: bool, detail: str) -> None:
    print(f"{'PASS' if passed else 'FAIL'} {label}: {detail}")


def test_criterion_1_table_consistency():
    """Closed form at N = 2..7 vs the six measured values, 2.5 sigma each."""
    start = time.perf_counter()
    references = load_reference_points()
    distances = []
    for ref in references:
        theory = quantum_correction(ProtocolSpec(COHERENT, ref.n_steps, EXPERIMENT)).rescaled
        distances.append(abs(theory - ref.nq_rescaled) / ref.sigma_stat)
    elapsed = time.perf_counter() - start

    anomalous = [ref for ref in references
                 if abs(ref.v_inv - ref.n_steps * math.sqrt(2.0)) > 0.05]
    for ref in anomalous:
        print(f"note: abscissa {ref.v_inv} is anomalous; evaluated with N={ref.n_steps}")

    detail = ", ".join(f"N={r.n_steps}: {d:.2f}s" for r, d in zip(references, distances))
    passed = max(distances) <= 2.5 and elapsed < 1.0
    _report("criterion 1 (table consistency)", passed, detail)
    assert elapsed < 1.0
    assert max(distances) <= 2.5, (
        f"distances in units of sigma: {detail}; the 5.657 point exceeds 2.5"
    )


def test_criterion_2_monte_carlo_fidelity():
    start = time.perf_counter()
    spec = ProtocolSpec(COHERENT, 2, EXPERIMENT)
    samples = sample_work(spec, None, runs=8000, seed=20230413)
    estimate = estimate_from_samples(samples)
    report = bootstrap_q(EXPERIMENT, 2, 8000, resamples=200, seed=20230413)
    analytic = quantum_correction(spec).rescaled
    elapsed = time.perf_counter() - start

    deviation = abs(estimate.rescaled - analytic)
    sigma = report.sigma_rescaled
    detail = (
        f"mc={estimate.rescaled:.4f} analytic={analytic:.4f} "
        f"deviation={deviation / sigma:.2f} bootstrap sigmas, sigma={sigma:.4f} "
        f"({elapsed:.1f}s)"
    )
    passed = deviation <= 4 * sigma and 0.021 / 1.5 <= sigma <= 0.021 * 1.5 and elapsed < 10.0
    _report("criterion 2 (monte carlo fidelity)", passed, detail)
    assert deviation <= 4 * sigma
    assert 0.021 / 1.5 <= sigma <= 0.021 * 1.5
    assert elapsed < 10.0


def test_criterion_3_scaling_trichotomy():
    start = time.perf_counter()
    steps = list(range(2, 65))
    coherent = {
        n: quantum_correction(ProtocolSpec(COHERENT, n, EXPERIMENT)).rescaled for n in steps
    }
    increasing = all(coherent[n] < coherent[n + 1] for n in steps[:-1])
    asymptote = coherent_asymptote(BETA)
    plateau_gap = abs(coherent[64] - asymptote) / asymptote

    halving_ok = True
    ratios = []
    for n in (2, 4, 8, 16, 32):
        a = incoherent_correction(ProtocolSpec(INCOHERENT, n, EXPERIMENT, 1.0, 2.0)).rescaled
        b = incoherent_correction(ProtocolSpec(INCOHERENT, 2 * n, EXPERIMENT, 1.0, 2.0)).rescaled
        ratios.append(b / a)
        halving_ok &= 0.5 * 0.85 <= b / a <= 0.5 * 1.15

    spam = SpamModel(0.004, 0.004)
    doubling_ok = True
    for n in (2, 4, 8, 16, 32):
        single = spam_correction(EXPERIMENT, spam, n)
        double = spam_correction(EXPERIMENT, spam, 2 * n)
        doubling_ok &= double.q_value == 2.0 * single.q_value
        doubling_ok &= double.rescaled == 4.0 * single.rescaled
    elapsed = time.perf_counter() - start

    detail = (
        f"plateau gap {plateau_gap:.2e} (limit 1%), halving ratios "
        f"{[round(r, 3) for r in ratios]}, spam doubling exact={doubling_ok} ({elapsed:.1f}s)"
    )
    passed = increasing and plateau_gap <= 0.01 and halving_ok and doubling_ok and elapsed < 30.0
    _report("criterion 3 (scaling trichotomy)", passed, detail)
    assert increasing
    assert plateau_gap <= 0.01
    assert halving_ok, f"halving ratios {ratios}"
    assert doubling_ok
    assert elapsed < 30.0


def test_criterion_4_certification(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "certify.csv"
    code = main(["certify", "--output", str(out)])
    _, rows = read_csv_table(out)
    delta_inc = [float(r["delta_inc_sigma"]) for r in rows]
    delta_spam = [float(r["delta_spam_sigma"]) for r in rows]
    elapsed = time.perf_counter() - start

    detail = (
        f"exit={code}, min delta_inc={min(delta_inc):.2f} (>=10), "
        f"min delta_spam={min(delta_spam):.2f} (>=12) ({elapsed:.1f}s)"
    )
    passed = (
        code == 0
        and len(rows) == 6
        and min(delta_inc) >= 10.0
        and min(delta_spam) >= 12.0
        and elapsed < 60.0
    )
    _report("criterion 4 (certification)", passed, detail)
    assert code == 0
    assert len(rows) == 6
    assert min(delta_inc) >= 10.0
    assert min(delta_spam) >= 12.0
    assert elapsed < 60.0


def _profile(n_steps, betas):
    """The coherent correction at each beta, as the temperature-profile command loops it."""
    return [quantum_correction(ProtocolSpec(COHERENT, n_steps, ThermalSpec.from_beta(beta)))
            for beta in betas]


def test_criterion_5_temperature_profile_shape():
    betas = [round(0.05 * k, 10) for k in range(81)]
    profile = _profile(5, betas)
    zero_exact = profile[0].q_value == 0.0
    values = [e.rescaled for e in profile]
    monotone = all(b >= a for a, b in zip(values, values[1:]))
    anchor = _profile(5, [BETA])[0]
    machinery = quantum_correction(ProtocolSpec(COHERENT, 5, EXPERIMENT))
    anchored = anchor.rescaled == machinery.rescaled

    detail = f"Q(0)={profile[0].q_value}, monotone={monotone}, anchor match={anchored}"
    passed = zero_exact and monotone and anchored
    _report("criterion 5 (profile: zero, monotone, anchor)", passed, detail)
    assert zero_exact
    assert monotone
    assert anchored


def _spread(values: list[float]) -> float:
    center = sum(values) / len(values)
    return max(abs(v / center - 1.0) for v in values)


def test_criterion_5_high_temperature_quadratic_claim():
    """The correction vanishes at high temperature: checked on beta <= 0.1, N = 5.

    With t = tanh(beta/2) and s = sin^2(pi/(4N)) the exact correction is
    Q = N s [(beta/2)(1 - s t^2) - t] and <W> = N s t, so

        Q / <W> = beta^2 (1/12 - s/4) + O(beta^4)    (quadratic),
        Q       = N s (1/24 - s/8) beta^3 + O(beta^5)  (cubic).

    The quadratic law belongs to the correction relative to the dissipated
    work (<W> - dF = <W>, since dF = 0); Q itself decays as beta^3.  Both
    ratios must be constant within 15% on the grid, so a Q that decayed only
    quadratically would fail.  Q is first recomputed from the moments of the
    density-matrix oracle's step table, so the exponent rests on the oracle
    rather than on the closed form under test.
    """
    n_steps = 5
    betas = [0.01 * k for k in range(1, 11)]
    profile = _profile(n_steps, betas)

    oracle_gap = 0.0
    for estimate in profile:
        thermal = ThermalSpec.from_beta(estimate.beta)
        angle = ProtocolSpec(COHERENT, n_steps, thermal).step_angle
        works, probs = tpm_step_distribution(thermal, angle)
        step_mean = float(works @ probs)
        step_var = float(works**2 @ probs) - step_mean**2
        q_oracle = n_steps * ((estimate.beta / 2.0) * step_var - step_mean)
        oracle_gap = max(oracle_gap, abs(q_oracle / estimate.q_value - 1.0))

    relative = _spread([e.q_value / (e.beta**2 * e.mean_work) for e in profile])
    cubic = _spread([e.q_value / e.beta**3 for e in profile])

    detail = (
        f"oracle gap {oracle_gap:.1e} (<=1e-6), Q/(beta^2 <W>) spread {relative:.1e}, "
        f"Q/beta^3 spread {cubic:.1e} (limit 0.15 each)"
    )
    passed = oracle_gap <= 1e-6 and relative <= 0.15 and cubic <= 0.15
    _report("criterion 5 (high-T decay)", passed, detail)
    assert oracle_gap <= 1e-6, f"the coherent closed form departs from the oracle: {detail}"
    assert relative <= 0.15, f"Q/<W> is not quadratic in beta: {detail}"
    assert cubic <= 0.15, f"Q is not cubic in beta: {detail}"


def test_criterion_6_oracle_equivalence():
    rng = np.random.default_rng(101)
    betas = rng.uniform(0.0, 6.0, size=20)
    worst = 0.0
    for n, beta in itertools.product(range(1, 33), betas):
        thermal = ThermalSpec.from_beta(float(beta))
        spec = ProtocolSpec(COHERENT, n, thermal)
        closed = coherent_step_distribution(spec).probs[0].sum(axis=1)
        _, oracle_probs = tpm_step_distribution(thermal, spec.step_angle)
        worst = max(worst, float(np.max(np.abs(closed - oracle_probs))))

    worst_moments = 0.0
    for n in range(1, 7):
        for beta in rng.uniform(0.0, 6.0, size=3):
            spec = ProtocolSpec(COHERENT, n, ThermalSpec.from_beta(float(beta)))
            table = coherent_step_distribution(spec)
            probs = table.probs[0].sum(axis=1)
            mean_ref = 0.0
            second_ref = 0.0
            for combo in itertools.product(range(3), repeat=n):
                probability = 1.0
                total = 0.0
                for index in combo:
                    probability *= probs[index]
                    total += table.works[index]
                mean_ref += probability * total
                second_ref += probability * total * total
            var_ref = second_ref - mean_ref**2
            closed = quantum_correction(spec)
            mean, var = closed.mean_work, closed.var_work
            worst_moments = max(worst_moments, abs(mean - mean_ref), abs(var - var_ref))

    detail = f"step-table deviation {worst:.2e} (<=1e-12), cumulants {worst_moments:.2e} (<=1e-10)"
    passed = worst <= 1e-12 and worst_moments <= 1e-10
    _report("criterion 6 (oracle equivalence)", passed, detail)
    assert worst <= 1e-12
    assert worst_moments <= 1e-10


def test_criterion_7_error_pipeline():
    formulas_ok = (
        abs(binomial_error(0.032, 40000) - 8.80e-4) < 1e-6
        and abs(beta_error(0.032, 40000) - 0.0284) < 1e-4
        and binomial_error(0.5, 100) == 0.05
        and abs(beta_error(0.25, 10**6) - 2.31e-3) < 1e-5
    )

    rng = np.random.default_rng(7007)
    null_sequences = rng.random((1000, 40000)) < 0.1
    false_positives = sum(
        drift_scan(row, bin_size=1000).flagged for row in null_sequences
    )
    drifting = rng.random(40000) < np.linspace(0.05, 0.15, 40000)
    drift_detected = drift_scan(drifting, bin_size=1000).flagged

    small = bootstrap_q(EXPERIMENT, 2, 1_000, resamples=200, seed=4242)
    large = bootstrap_q(EXPERIMENT, 2, 100_000, resamples=200, seed=4242)
    scaling = small.sigma_q / large.sigma_q
    scaling_ok = abs(scaling - 10.0) / 10.0 <= 0.2

    detail = (
        f"formulas ok={formulas_ok}, drift FP rate={false_positives / 1000:.3f} (<0.05), "
        f"drift detected={drift_detected}, bootstrap scaling {scaling:.2f} vs 10"
    )
    passed = formulas_ok and false_positives / 1000 < 0.05 and drift_detected and scaling_ok
    _report("criterion 7 (error pipeline)", passed, detail)
    assert formulas_ok
    assert false_positives / 1000 < 0.05
    assert drift_detected
    assert scaling_ok


def test_criterion_8_determinism(tmp_path):
    byte_identical = True
    for command, extra in (
        ("simulate", ["--n-steps", "2", "--runs", "2000", "--seed", "5"]),
        ("sweep", []),
        ("certify", []),
    ):
        first = tmp_path / f"{command}_a.csv"
        second = tmp_path / f"{command}_b.csv"
        assert main([command, *extra, "--output", str(first)]) in (0,)
        assert main([command, *extra, "--output", str(second)]) in (0,)
        byte_identical &= first.read_bytes() == second.read_bytes()

    serial = tmp_path / "workers_1.csv"
    threaded = tmp_path / "workers_4.csv"
    assert main(["simulate", "--n-steps", "2", "--runs", "2000", "--seed", "5",
                 "--workers", "1", "--output", str(serial)]) == 0
    assert main(["simulate", "--n-steps", "2", "--runs", "2000", "--seed", "5",
                 "--workers", "4", "--output", str(threaded)]) == 0
    worker_invariant = serial.read_bytes() == threaded.read_bytes()

    detail = f"repeat runs identical={byte_identical}, worker counts identical={worker_invariant}"
    passed = byte_identical and worker_invariant
    _report("criterion 8 (determinism)", passed, detail)
    assert byte_identical
    assert worker_invariant
