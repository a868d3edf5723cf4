"""One workload's measured run, in a fresh interpreter of its own.

    PYTHONPATH=src python3 perfbench/child.py --workload paper --seed 0 --seconds 40 --trace 0

``run.py`` starts it, so that set-up and memory are charged to the workload.
It checks that ``qfdr`` is the checkout's own ``src/qfdr``, runs the
invariant checks, then repeats passes of the workload until ``--seconds`` are
used up, gating every operation's output after its timed region.  Fresh
interpreters that time ``import qfdr.cli`` run between passes, spread over
the run.  With ``--trace 1`` untraced and traced passes alternate, and a
final pass measures peak allocations.  The last stdout line is one JSON
object; the spans of a traced run are written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import qfdr
import qfdr.cli
import qfdr.io
import qfdr.stats

import gates
import tracing
from workloads import EXPECTED_LAYERS, KINDS, NAMES, Op, invariant_ops, operations

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(".perfbench_out")

UNACCOUNTED_LIMIT = 0.05
SETUP_SAMPLES = 9
IMPORT_PROBE = "import time; t = time.perf_counter(); import qfdr.cli; print(time.perf_counter() - t)"
CLI_COMMANDS = ("simulate", "sweep", "certify", "analytic")
WROTE = re.compile(r"^wrote (.+?)(?:: n_steps=| \(\d+ rows\))", re.MULTILINE)


@dataclass
class OpResult:
    op: Op
    seconds: float
    stdout: str
    failures: list[str]
    value: tuple | None = None
    digests: dict[str, str] = field(default_factory=dict)


@dataclass
class PassRecord:
    results: list[OpResult]
    wall: float
    tracer: tracing.Tracer | None

    def seconds(self, kind: str | None = None) -> float:
        return sum(r.seconds for r in self.results if kind in (None, r.op.kind))


def _span_name(op: Op) -> str:
    return f"cli.{op.kind}" if op.argv else op.kind


def run_op(op: Op, tracer: tracing.Tracer | None) -> OpResult:
    """Run and time one operation; record, never raise, its failure."""
    span = tracer.operation(_span_name(op)) if tracer else contextlib.nullcontext()
    stdout = io.StringIO()
    failures, value, code = [], None, 0
    with span, contextlib.redirect_stdout(stdout):
        start = time.perf_counter()
        try:
            if op.argv:
                code = qfdr.cli.main(list(op.argv))
            else:
                samples = qfdr.io.read_samples(op.path)
                value = (samples, qfdr.stats.estimate_from_samples(samples))
        except Exception:
            failures.append(traceback.format_exc())
        seconds = time.perf_counter() - start
    if code != 0:
        failures.append(f"{' '.join(op.argv)}: exit code {code}")
    return OpResult(op, seconds, stdout.getvalue(), failures, value)


def run_pass(ops: list[Op], out: Path, tracer: tracing.Tracer | None) -> PassRecord:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    installed = tracing.installed(tracer) if tracer else contextlib.nullcontext()
    with installed:
        start = time.perf_counter()
        results = [run_op(op, tracer) for op in ops]
        wall = time.perf_counter() - start
    return PassRecord(results, wall, tracer)


def _sha256(path: str) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _gate(result: OpResult, printed: dict) -> list[str]:
    """Gate one operation's output; return report lines for reanalyses."""
    op = result.op
    if op.kind == "reanalyse":
        if result.value is None:
            return []
        failures, line = gates.check_reanalysed(op.path, printed.get(op.path), *result.value)
        result.failures += failures
        return [line]
    if op.kind == "sweep":
        result.failures += gates.check_sweep(op.path)
    elif op.kind == "certify":
        result.failures += gates.check_certify(op.path)
    elif op.kind == "analytic":
        n_steps = op.argv[op.argv.index("--n-steps") + 1]
        result.failures += gates.check_analytic(op.path, [int(n) for n in n_steps.split(",")])
    return []


def gate_pass(record: PassRecord, reference: PassRecord | None) -> list[str]:
    """Gate every operation of a finished pass; repeats must match the first pass."""
    printed = {}
    for result in record.results:
        printed.update(gates.printed_rows(result.stdout))
    report = []
    for index, result in enumerate(record.results):
        try:
            report += _gate(result, printed)
            result.digests = {p: _sha256(p) for p in WROTE.findall(result.stdout)}
        except Exception:
            result.failures.append(traceback.format_exc())
        if reference is not None:
            first = reference.results[index]
            if (result.stdout, result.digests) != (first.stdout, first.digests):
                result.failures.append(f"{_span_name(result.op)} {result.op.path}: "
                                       "output differs from the first pass")
    return report


def probe_import() -> float:
    """Seconds a fresh interpreter takes to import the CLI."""
    probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                           capture_output=True, text=True, timeout=60, check=True)
    return float(probe.stdout)


def check_invariants(seed: int, out: Path) -> list[str]:
    """Worker count and tracing must not change the bytes a simulate writes."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    workers1, workers2, traced = invariant_ops(seed, out)
    tracer = tracing.Tracer()
    results = [run_op(workers1, None), run_op(workers2, None)]
    with tracing.installed(tracer):
        results.append(run_op(traced, tracer))
    failures = [f for r in results for f in r.failures]
    if not failures:
        digest1, digest2, digest_traced = (_sha256(r.op.path) for r in results)
        if digest1 != digest2:
            failures.append("simulate with 1 and 2 workers wrote different bytes")
        if digest2 != digest_traced:
            failures.append("a traced simulate wrote other bytes than an untraced one")
    return failures


def check_trace(workload: str, metrics: dict) -> list[str]:
    """Every layer the workload should call was called; spans cover the pass."""
    failures = []
    missing = [layer for layer in EXPECTED_LAYERS[workload] if not metrics[f"{layer}.calls"][0]]
    if missing:
        failures.append(f"traced run: no calls into {', '.join(missing)}")
    unaccounted = metrics["trace.unaccounted_frac"][0]
    if unaccounted > UNACCOUNTED_LIMIT:
        failures.append(f"traced run: {unaccounted:.3f} of the pass is in no span")
    return failures


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = OUT / f"work-{workload}-{seed}-{int(trace)}"
    ops = operations(workload, seed, work / "pass")
    checks = [check_invariants(seed, work / "invariants")]

    modes = ("untraced", "traced") if trace else ("untraced",)
    passes: dict[str, list[PassRecord]] = {mode: [] for mode in modes}
    report: list[str] = []
    reference = None
    start = time.perf_counter()
    longest = 0.0
    setup = [probe_import()]
    while True:
        for mode in modes:
            record = run_pass(ops, work / "pass", tracing.Tracer() if mode == "traced" else None)
            lines = gate_pass(record, reference)
            if reference is None:
                reference, report = record, lines
            passes[mode].append(record)
            longest = max(longest, record.wall)
        if time.perf_counter() >= start + len(setup) * seconds / SETUP_SAMPLES:
            setup.append(probe_import())
        # leave room for one more round, and for the memory pass of a traced run
        if time.perf_counter() + longest * (len(modes) + trace) > start + seconds:
            break
    setup += [probe_import() for _ in range(SETUP_SAMPLES - len(setup))]

    # Per-pass times are means, not medians: on a shared machine single
    # passes fall into a fast and a slow mode, and a median jumps between the
    # two with the share of slow passes while a mean follows it smoothly.
    # Means also keep the per-kind times summing to pass_s.
    untraced = passes["untraced"]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "pass_s": (statistics.fmean(p.seconds() for p in untraced), "s"),
    }
    for kind in KINDS:
        if trace or any(op.kind == kind for op in ops):
            metrics[f"{kind}_s"] = (statistics.fmean(p.seconds(kind) for p in untraced), "s")
    records = [record for mode in modes for record in passes[mode]]
    if trace:
        memory = run_pass(ops, work / "pass", tracing.Tracer(measure_memory=True))
        gate_pass(memory, reference)
        records.append(memory)
        traced = passes["traced"]
        metrics.update(tracing.layer_metrics([(p.tracer, p.wall) for p in traced],
                                             memory.tracer, CLI_COMMANDS))
        traced_s = statistics.fmean(p.seconds() for p in traced)
        metrics["trace.overhead_frac"] = (traced_s / metrics["pass_s"][0] - 1.0, "fraction")
        checks.append(check_trace(workload, metrics))
        _write_spans(workload, seed, traced + [memory])
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB")
    shutil.rmtree(work, ignore_errors=True)

    results = [result for record in records for result in record.results]
    failures = [f for check in checks for f in check] + [f for r in results for f in r.failures]
    return {
        "attempted": len(results) + len(checks),
        "failed": sum(1 for r in results if r.failures) + sum(1 for check in checks if check),
        "failures": failures[:20],
        "report": report,
        "pass_seconds": {mode: [p.seconds() for p in passes[mode]] for mode in modes},
        "setup_samples": setup,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "argv": [list(op.argv) if op.argv else ["reanalyse", op.path] for op in ops],
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "qfdr": qfdr.__version__},
    }


def _write_spans(workload: str, seed: int, records: list[PassRecord]) -> None:
    spans = [record.tracer.to_json() for record in records]
    path = OUT / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload, "seed": seed, "passes": spans}) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    if not Path(qfdr.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"qfdr was imported from {qfdr.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
