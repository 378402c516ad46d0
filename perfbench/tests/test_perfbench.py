"""Tests of the benchmark itself (the program under test is not modified).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import Tally, execute, run_pass  # noqa: E402

from pell3 import pell  # noqa: E402
from pell3.poly import CompactPell  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E = {
    "setup_s": "s",
    "wall_s": "s",
    "wall_ref": "ref",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "error_rate": "ratio",
    "peak_rss_mb": "MB",
}


def bench(*args):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args], cwd=ROOT, capture_output=True,
        text=True, timeout=170,
    )


def printed_metrics(stdout: str) -> dict:
    """name -> unit from the indented metric lines run.py prints."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if line.startswith("  ") and len(parts) >= 3:
            out[parts[0]] = parts[2]
    return out


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    printed = printed_metrics(done.stdout)
    for name, unit in E2E.items():
        assert printed.get(name) == unit, name
    if trace:
        for name in tracer.metric_names() + ["trace.overhead_ratio"]:
            assert printed.get(name) == tracer.unit(name), name
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in wanted
    }


def test_unknown_workload_prints_no_result():
    done = bench("--workload", "nope", "--seed", "1", "--seconds", "0", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def counted(op, check) -> Tally:
    tally = Tally()
    execute(workloads.Request("test", op, check), tally)
    return tally


def test_corrupted_eval_output_is_counted_as_failed():
    argv = ["eval", "--family", "r", "--n", "40", "--format", "json"]
    code, text = workloads.run_cli(argv)
    check = workloads.check_eval("r", 40, "json")
    assert counted(lambda: (code, text), check).failed == 0

    obj = json.loads(text)
    obj["terms"][1]["coeff"] = str(int(obj["terms"][1]["coeff"]) + 1)
    tally = counted(lambda: (code, json.dumps(obj)), check)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.failures == ["test: wrong output"]


def test_corrupted_closed_form_and_reports_are_counted_as_failed():
    code, text = workloads.run_cli(["eval", "--family", "s", "--n", "30", "--format", "json"])
    good = pell.closed_form(pell.S, 30)
    bad = CompactPell("s", 30, (good.coeffs[0] + 2,) + good.coeffs[1:])
    assert counted(lambda: (code, text, good), workloads.check_point).failed == 0
    assert counted(lambda: (code, text, bad), workloads.check_point).failed == 1

    report = {"suite": "xi", "points_checked": 1, "max_n": 1, "notes": []}
    suites = ["closed-form", "binet", "xi", "lagrange", "roots"]
    clean = json.dumps([dict(report, suite=s, failures=[]) for s in suites])
    dirty = json.dumps([dict(report, suite=s, failures=[{"n": 3}] if s == "xi" else [])
                        for s in suites])
    assert counted(lambda: (0, clean), workloads.check_verify).failed == 0
    assert counted(lambda: (0, dirty), workloads.check_verify).failed == 1
    assert counted(lambda: (1, clean), workloads.check_verify).failed == 1


def test_exceptions_and_usage_errors_are_counted_not_raised():
    def boom():
        raise ValueError("Exceeds the limit (4300 digits) for integer string conversion")

    tally = counted(boom, lambda out: True)
    assert tally.failed == 1 and "ValueError" in tally.failures[0]
    usage = workloads.run_cli(["eval", "--family", "q", "--n", "3"])
    assert usage[0] == 2
    assert counted(lambda: usage, workloads.check_eval("q", 3, "json")).failed == 1


def test_once_verified_rechecks_a_changed_output():
    calls = []

    def check(out):
        calls.append(out)
        return out == "good"

    cached = workloads.once_verified(check)
    assert cached("good") and cached("good") and not cached("bad")
    assert calls == ["good", "bad"]


def test_traced_counts_repeat_exactly_and_originals_come_back():
    original = pell.recurrence_gen
    counts = []
    for _ in range(2):
        result = run_pass(workloads.query(5, smoke=True), 0, tracer.Tracer())
        assert result["failed"] == 0
        assert len(result["batches"]) == len(result["traced_batches"]) == 1
        table = result["tables"][0]
        counts.append({k: v for k, v in tracer.layer_metrics(table).items() if tracer.unit(k) == "count"})
    assert pell.recurrence_gen is original
    assert counts[0] == counts[1]
    assert counts[0]["cli.calls"] == len(workloads.query(5, smoke=True).batch)
    assert counts[0]["exactnum.quadext_ops"] > 0


def test_sampler_interrupts_the_work_and_its_time_is_taken_out():
    sampler = speed.SpeedSampler()

    def busy():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        return "done"

    tally = Tally()
    with sampler.running():
        latency = execute(workloads.Request("busy", busy, lambda out: out == "done"), tally, sampler=sampler)
    assert tally.failed == 0
    assert len(sampler.samples) >= 3
    assert sampler.spent >= sum(sampler.samples)
    assert latency == pytest.approx(0.3 - sampler.spent, abs=0.05)


def test_self_time_is_span_minus_children():
    tr = tracer.Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    table = tr.table()
    dur = [(e - s) / 1e9 for s, e in zip(tr.start, tr.end)]
    assert table["inner"]["calls"] == 2
    assert table["outer"]["self_s"] == pytest.approx(dur[0] - dur[1] - dur[2])
    assert table["outer"]["total_s"] == pytest.approx(dur[0])
