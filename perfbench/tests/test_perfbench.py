"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

import qfdr.cli  # noqa: E402
import tracing  # noqa: E402
from workloads import NAMES, invariant_ops, operations  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def emitted() -> dict[int, dict]:
    """The last stdout line of a short untraced and a short traced run."""
    results = {}
    for trace in (0, 1):
        run = _run("--workload", "region", "--seed", "5", "--seconds", "1", "--trace", str(trace))
        assert run.returncode == 0, run.stderr
        results[trace] = json.loads(run.stdout.splitlines()[-1])
    return results


def test_metric_names_match_pattern_and_are_unique(emitted):
    declared = [m["name"] for section in ("end_to_end", "per_layer") for m in BENCHMARK[section]]
    assert len(set(declared)) == len(declared)
    names = declared + [name for result in emitted.values() for name in result["metrics"]]
    assert all(METRIC_NAME.fullmatch(name) for name in names)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_are_exactly_the_declared_ones(emitted, trace, section):
    result = emitted[trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == _declared(section)


def test_layer_map_names_declared_metrics():
    layer_map = json.loads((ROOT / "perfbench" / "layer_map.json").read_text())["map"]
    declared = set(_declared("end_to_end")) | set(_declared("per_layer"))
    workloads = {w["name"] for w in BENCHMARK["workloads"]}
    assert workloads == set(NAMES)
    for row in layer_map:
        assert set(row["layer_metrics"]) <= declared
        assert set(row["should_move"]) <= declared
        assert set(row["on"]) | set(row["should_not_move_on"]) <= workloads


def test_wrapper_returns_the_call_result_and_reraises():
    tracer = tracing.Tracer()
    result = object()
    error = KeyError("boom")

    def fail():
        raise error

    returns = tracing.wrap(tracer, "stats.returns", lambda: result)
    raises = tracing.wrap(tracer, "stats.raises", fail)
    assert returns() is result  # outside an operation: passed straight through
    with tracer.operation("op"):
        assert returns() is result
        with pytest.raises(KeyError) as caught:
            raises()
    assert caught.value is error
    assert [s.name for s in tracer.spans] == ["op", "stats.returns", "stats.raises"]
    assert [s.parent for s in tracer.spans] == [None, 0, 0]


def test_self_time_subtracts_direct_children_only():
    tracer = tracing.Tracer()
    tracer.spans = [
        tracing.Span("op", 0.0, 10.0),
        tracing.Span("a", 1.0, 5.0, parent=0),
        tracing.Span("b", 2.0, 3.0, parent=1),
        tracing.Span("c", 6.0, 8.0, parent=0),
    ]
    assert tracer.self_times() == [4.0, 3.0, 1.0, 2.0]


def test_wrappers_sit_at_the_callers_names_and_are_removed(tmp_path):
    original = qfdr.cli.sample_work
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert qfdr.cli.sample_work is not original
        with tracer.operation("cli.simulate"):
            code = qfdr.cli.main(["simulate", "--runs", "200", "--resamples", "2",
                                  "--output", str(tmp_path / "s.csv")])
    assert code == 0
    assert qfdr.cli.sample_work is original
    called = {s.name for s in tracer.spans}
    assert {"cli.load_config", "protocol.sample_work", "io.write_samples",
            "stats.estimate_from_samples", "stats.bootstrap_q"} <= called


@pytest.mark.parametrize("workload", NAMES)
def test_seed_reaches_every_simulate(workload):
    seed = 987654321
    ops = operations(workload, seed, Path("out")) + invariant_ops(seed, Path("inv"))
    for op in ops:
        if op.argv and op.argv[0] == "simulate":
            flags = list(op.argv)
            assert flags.count("--seed") == 1
            assert flags[flags.index("--seed") + 1] == str(seed)


def test_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = _run("--workload", "region", "--seed", "0", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert run.returncode != 0
    assert run.stdout == ""
