"""Record a point of the BENCH trajectory, and check the benchmark's spread.

    python3 perfbench/record.py --runs 10 --out perfbench/BENCH_0.json

Runs ``run.py`` untraced once per seed (seeds 1..runs) on every workload,
interleaving the workloads so that drift on a shared machine hits them
alike, then once traced at seed 42.  For each end-to-end metric it reports
the median and the quartile spread (q3 - q1) / median, computed as
``statistics.quantiles(values, n=4)``, beside the metric's bound from
``BENCHMARK.json``.  The spread of every metric must stay within its
bound; a third of the bound is the target.  Writes the stamped
summary to ``--out``.  A later change cites its delta against the
committed baseline; compare the two files' medians metric by metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_SEED = 42


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple:
    """The result line and the env stamp line of one benchmark run."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    lines = done.stdout.splitlines()
    stamp = json.loads(lines[0].removeprefix("env "))
    return json.loads(lines[-1]), stamp


def summarize(values: list, bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med,
        "bound": bound,
        "values": values,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="untraced runs (seeds) per workload")
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--out", type=Path, help="write the summary here")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {w: {m: [] for m in bounds} for w in args.workloads}
    tallies = {w: {"attempted": 0, "failed": 0} for w in args.workloads}
    stamp = None
    for seed in range(1, args.runs + 1):
        for workload in args.workloads:
            result, stamp = run(workload, seed, seconds, 0)
            for metric in bounds:
                values[workload][metric].append(result["metrics"][metric]["value"])
            tallies[workload]["attempted"] += result["attempted"]
            tallies[workload]["failed"] += result["failed"]
            print(f"seed {seed} {workload}: " + " ".join(
                f"{m}={v['value']:.5g}" for m, v in result["metrics"].items()), flush=True)

    summary = {
        "env": {k: stamp[k] for k in ("python", "platform", "cpu_count", "git_sha")},
        "run_seconds": seconds,
        "seeds": list(range(1, args.runs + 1)),
        "trace_seed": TRACE_SEED,
        "workloads": {},
    }
    steady = True
    for workload in args.workloads:
        e2e = {m: summarize(v, bounds[m]) for m, v in values[workload].items()}
        traced, _ = run(workload, TRACE_SEED, seconds, 1)
        summary["workloads"][workload] = dict(
            tallies[workload],
            end_to_end=e2e,
            per_layer={m: v["value"] for m, v in traced["metrics"].items()},
        )
        for metric, s in e2e.items():
            flag = "ok" if s["spread"] <= s["bound"] / 3 else "WIDE" if s["spread"] > s["bound"] else "over 1/3"
            if s["spread"] > s["bound"]:
                steady = False
            print(f"{workload:<9} {metric:<15} median {s['median']:<12.6g} spread "
                  f"{s['spread']:.4f} bound {s['bound']} {flag}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
