"""The pell3 benchmark.

    python3 perfbench/run.py --workload {generate,verify,query} --seed N --seconds T --trace {0,1}

Run from anywhere inside a checkout: the benchmark imports pell3 from the
checkout's ``src`` and reads the metric list from its ``BENCHMARK.json``.

It runs the workload for ``--seconds`` in a fresh worker interpreter
(``worker.py``), so the peak RSS is that workload's alone; between batches
the worker starts fresh interpreters to measure set-up.  ``wall_ref`` is
the batch time in units of a reference computation timed during the
batch (``speed.py``): on a shared host the speed drifts by up to 2x over
seconds to minutes, and the ratio cancels it.  With ``--trace 1`` each
untraced batch is followed by a traced one; the per-layer table comes
from the traced batches, and the median ratio of a traced batch to the
untraced batch before it is the tracing overhead.  The end-to-end metrics
count only untraced batches, but in a traced run the peak RSS includes
the spans.

It prints an environment stamp, one line per end-to-end metric (name,
value, unit, sample count), the per-layer table when traced, and as its
last line the JSON result
``{"correct", "attempted", "failed", "metrics"}`` with the metrics
``BENCHMARK.json`` lists for the mode.  The full result, stamped, and the
traced spans go to ``.perfbench_runs/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".perfbench_runs"

#: a latency percentile is reported only with this many samples beyond it
TAIL_SAMPLES = 10
#: generous per-process limit; a run is meant to end well within 180 s
PROCESS_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git repository.  The
    search for ``.git`` stops at the checkout's root."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def env_stamp(workload: str, seed: int, seconds: int, trace: int) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def run_worker(args, seconds: float, traced: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(seconds),
    ]
    if args.smoke:
        cmd.append("--smoke")
    if traced:
        cmd += ["--spans", str(OUT / f"{args.workload}-seed{args.seed}-spans.csv.gz")]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"worker failed with exit code {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout)


def end_to_end(result: dict) -> dict:
    """Every end-to-end metric as (value or None, unit, sample note)."""
    setup, batches, reference = result["setup"], result["batches"], result["reference"]
    lat_ms = [s * 1000 for s in result["latencies"]]
    p95 = statistics.quantiles(lat_ms, n=20, method="inclusive")[18] if len(lat_ms) > 1 else lat_ms[0]
    beyond = sum(1 for x in lat_ms if x > p95)
    return {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} interpreter starts"),
        "wall_s": (statistics.median(batches), "s", f"median of {len(batches)} batches"),
        "wall_ref": (
            statistics.median(b / r for b, r in zip(batches, reference)),
            "ref",
            f"median of {len(batches)} batches; reference median "
            f"{statistics.median(reference) * 1000:.4f} ms",
        ),
        "latency_p50_ms": (statistics.median(lat_ms), "ms", f"{len(lat_ms)} requests"),
        "latency_p95_ms": (
            p95 if beyond >= TAIL_SAMPLES else None,
            "ms",
            f"{len(lat_ms)} requests, {beyond} beyond p95"
            + ("" if beyond >= TAIL_SAMPLES else f"; not reported, needs {TAIL_SAMPLES}"),
        ),
        "error_rate": (result["failed"] / result["attempted"], "ratio", f"{result['attempted']} attempted"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB", "worker process"),
    }


def print_rows(title: str, rows: dict) -> None:
    print(title)
    for name, (value, unit, note) in rows.items():
        shown = "-" if value is None else f"{value:.6g}"
        print(f"  {name:<38} {shown:>14} {unit:<6} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's tests")
    args = parser.parse_args(argv)

    if not (SRC / "pell3" / "cli.py").is_file() or not SPEC.is_file():
        print(f"no pell3 source under {SRC} or no {SPEC.name}; nothing to measure",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    stamp = env_stamp(args.workload, args.seed, args.seconds, args.trace)
    print("env " + json.dumps(stamp))

    try:
        run = run_worker(args, args.seconds, traced=bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(exc, file=sys.stderr)
        return 1

    measured = end_to_end(run)
    print_rows(f"end-to-end, workload {args.workload} (untraced batches)", measured)
    for failure in run["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    if args.trace:
        layers = dict(run["layers"])
        layers["trace.overhead_ratio"] = statistics.median(
            t / u for t, u in zip(run["traced_batches"], run["batches"])
        )
        print_rows(
            "per layer, median per batch (traced batches); _pct is a share of the batch",
            {k: (v, tracing.unit(k), "") for k, v in layers.items()},
        )
        print(f"spans, median per batch: {'calls':>10} {'self_s':>12} {'total_s':>12}")
        for name, row in sorted(run["spans"].items(), key=lambda kv: -kv[1]["total_s"]):
            print(f"  {name:<44} {row['calls']:>10g} {row['self_s']:>12.6f} {row['total_s']:>12.6f}")
        wanted, values = spec["per_layer"], layers
    else:
        wanted = spec["end_to_end"]
        values = {name: value for name, (value, _, _) in measured.items()}

    result = {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = dict(
        result, env=stamp, end_to_end={k: v[0] for k, v in measured.items()},
        setup=run["setup"], batches=run["batches"], reference=run["reference"],
        traced_batches=run["traced_batches"],
    )
    if args.trace:
        record.update(layers=layers, spans=run["spans"])
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
