"""Benchmark of the qfdr CLI: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload paper --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0

Run from anywhere; it uses the checkout this file sits in and imports
``qfdr`` from its ``src/``.  Each workload runs in a fresh child process
(``child.py``) that repeats passes for ``--seconds`` and gates every output.
With ``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones; the lines before it print every metric by
name and unit, the failed share of operations, the simulated rows next to
their closed forms, and the run's provenance.  The full result is also
written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from workloads import NAMES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

END_TO_END = ("setup_s", "pass_s", "peak_rss_mb")
RUN_LIMIT_S = 170.0


def _git_sha() -> str | None:
    """HEAD of the checkout's own .git, read without searching parent directories."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, child: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": child["versions"]["python"],
        "numpy": child["versions"]["numpy"],
        "qfdr": child["versions"]["qfdr"],
        "git_sha": _git_sha(),
        "src_sha256": _source_sha256(),
        "seed": seed,
        "argv": child["argv"],
    }


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload in a fresh child process that imports the checkout's qfdr."""
    child = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=RUN_LIMIT_S,
    )
    sys.stderr.write(child.stderr)
    if child.returncode != 0:
        raise RuntimeError(f"workload {workload} exited with code {child.returncode}")
    result = json.loads(child.stdout.splitlines()[-1])
    result["provenance"] = provenance(seed, result)
    del result["argv"], result["versions"]
    return result


def print_report(workload: str, trace: int, result: dict) -> None:
    passes = ", ".join(f"{len(s)} {mode}" for mode, s in result["pass_seconds"].items())
    print(f"workload {workload} (trace {trace}): {passes} passes, "
          f"setup over {len(result['setup_samples'])} fresh imports")
    for name, metric in sorted(result["metrics"].items()):
        print(f"  {name:48s} {metric['value']:<14.6g} {metric['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'ops_failed_frac':48s} {failed / attempted:<14.6g} fraction "
          f"({failed} failed of {attempted} attempted)")
    for line in result["report"]:
        print(f"  row {line}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print(f"  provenance {json.dumps(result['provenance'])}")


def contract_line(result: dict, trace: int) -> str:
    """The last stdout line: end-to-end metrics untraced, per-layer metrics traced."""
    if trace:
        metrics = {k: v for k, v in result["metrics"].items() if k not in END_TO_END}
    else:
        metrics = {k: result["metrics"][k] for k in END_TO_END}
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error(f"--seed must be a 64-bit unsigned integer, got {args.seed}")
    if args.seconds < 1:
        parser.error(f"--seconds must be >= 1, got {args.seconds}")
    if not (SRC / "qfdr" / "cli.py").is_file():
        print(f"no qfdr sources under {SRC}: run from a full checkout", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workloads = NAMES if args.workload == "all" else (args.workload,)
    line = ""
    for workload in workloads:
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        name = f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
        (OUT / name).write_text(json.dumps(result, indent=1) + "\n")
        print_report(workload, args.trace, result)
        line = contract_line(result, args.trace)
    if len(workloads) == 1:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
