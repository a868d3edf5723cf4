"""The benchmark's workloads: the exact CLI operations one pass runs.

Every pass is a closed loop of one client in one process: each operation
starts only after the previous one has finished.  The workload seed reaches
the program only as ``--seed`` on each ``simulate`` operation.  A
"reanalyse" operation re-reads one samples file with ``qfdr.io.read_samples``
and estimates it with ``qfdr.stats.estimate_from_samples``, as a library user
re-reads results.

This module imports nothing from ``qfdr``, so the parent process can list
workloads without paying the package's import cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

KINDS = ("simulate", "sweep", "certify", "analytic", "reanalyse")

PAPER_N_STEPS = (2, 3, 4, 5, 6, 7)
REGION_N_STEPS = tuple(range(1, 201))

WHY = {
    "paper": "replays the experiment at its real scale: six measured N at 8000 runs with "
    "readout error, the classical ramp at v_inv=2.828, sweep, certify, reanalyse",
    "mc-large": "the headline 100k-run simulate on 2 workers and a reanalyse of its file: "
    "large-array bootstrap, sampler and sample I/O, no analytics",
    "region": "no Monte Carlo, so it bypasses sampling and bootstrap; exercises the "
    "incoherent sweep, the per-step incoherent_correction loop and write_table",
}
NAMES = tuple(WHY)

# layers each workload must call at least once in a traced pass
EXPECTED_LAYERS = {
    "paper": (
        "cli.load_config",
        "protocol.sample_work",
        "stats.bootstrap_q",
        "stats.estimate_from_samples",
        "io.write_samples",
        "io.read_samples",
        "io.write_table",
        "analytics.incoherent_region_sweep",
        "analytics.coherent_theory_curve",
        "analytics.spam_bound_curve",
        "reference.load_reference_points",
    ),
    "mc-large": (
        "cli.load_config",
        "protocol.sample_work",
        "stats.bootstrap_q",
        "stats.estimate_from_samples",
        "io.write_samples",
        "io.read_samples",
    ),
    "region": (
        "cli.load_config",
        "io.write_table",
        "analytics.incoherent_region_sweep",
        "analytics.incoherent_correction",
        "analytics.coherent_theory_curve",
        "analytics.spam_bound_curve",
        "reference.load_reference_points",
    ),
}


@dataclass(frozen=True)
class Op:
    """One timed operation: a CLI argv, or the samples file a reanalyse reads."""

    kind: str
    path: str
    argv: tuple[str, ...] = ()


def _cli(kind: str, out: Path, name: str, *flags: str) -> Op:
    path = str(out / name)
    return Op(kind, path, (kind, *flags, "--output", path))


def _simulate(out: Path, name: str, seed: int, *flags: str) -> Op:
    return _cli("simulate", out, name, *flags, "--seed", str(seed))


def _reanalyse(out: Path, name: str) -> Op:
    return Op("reanalyse", str(out / name))


def _csv_list(values) -> str:
    return ",".join(str(v) for v in values)


def operations(workload: str, seed: int, out: Path) -> list[Op]:
    """The operations of one pass, writing under ``out``."""
    if workload == "paper":
        return [
            _simulate(out, "coherent.csv", seed, "--n-steps", _csv_list(PAPER_N_STEPS),
                      "--runs", "8000", "--spam"),
            _simulate(out, "incoherent.csv", seed, "--kind", "incoherent", "--n-steps", "26",
                      "--omega-end", "19.39", "--runs", "8000"),
            _cli("sweep", out, "sweep.csv"),
            _cli("certify", out, "certify.csv"),
            *[_reanalyse(out, f"coherent_n{n}.csv") for n in PAPER_N_STEPS],
            _reanalyse(out, "incoherent.csv"),
        ]
    if workload == "mc-large":
        return [
            _simulate(out, "mc.csv", seed, "--n-steps", "10", "--runs", "100000",
                      "--workers", "2"),
            _reanalyse(out, "mc.csv"),
        ]
    if workload == "region":
        return [
            _cli("sweep", out, "sweep_beta1.csv", "--beta", "1"),
            _cli("sweep", out, "sweep.csv"),
            _cli("analytic", out, "analytic.csv", "--kind", "incoherent", "--omega-end", "3",
                 "--n-steps", _csv_list(REGION_N_STEPS)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def invariant_ops(seed: int, out: Path) -> list[Op]:
    """Small simulate runs whose files must be byte-identical to each other:
    one worker, two workers, and two workers traced."""
    flags = ("--n-steps", "3", "--runs", "3000")
    return [
        _simulate(out, f"{name}.csv", seed, *flags, "--workers", workers)
        for name, workers in (("workers1", "1"), ("workers2", "2"), ("traced", "2"))
    ]
