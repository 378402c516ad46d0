"""One measured pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload verify --seed 42 --seconds 10 [--spans F]

Imports pell3 from the checkout's ``src``, replays the workload's batch in
a closed loop for up to ``--seconds`` (at least one batch), checks
every output, and prints one JSON object: per-batch times, per-request
latencies, the mean reference time during each batch (``speed.py``),
set-up probe times, attempted/failed counts, the first
failures, peak RSS and, when traced, the span and layer tables.
``--spans F`` adds a traced batch after each untraced one and writes the
spans to F.  ``run.py`` starts it; it is not the benchmark's entry point.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import tracer as tracing
from speed import SpeedSampler

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MAX_FAILURES_SHOWN = 5
#: fresh interpreters started to measure set-up, spread over the run
SETUP_PROBES = 31
PROBE_TIMEOUT_S = 60

PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import pell3.cli\n"
    "pell3.cli.build_parser()\n"
    "print(time.clock_gettime(time.CLOCK_MONOTONIC))\n"
)


def measure_setup() -> float:
    """Seconds from starting an interpreter to pell3.cli imported and its
    parser built.  Both ends read CLOCK_MONOTONIC, which is system-wide,
    so the child's exit is not counted."""
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC)], cwd=ROOT, capture_output=True,
        text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(done.stdout) - start


class Tally:
    """Attempted and failed operations, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, label: str, ok: bool, error: BaseException | None = None) -> None:
        self.attempted += 1
        if ok:
            return
        self.failed += 1
        if len(self.failures) < MAX_FAILURES_SHOWN:
            why = "".join(traceback.format_exception_only(error)).strip() if error else "wrong output"
            self.failures.append(f"{label}: {why}")


def execute(request, tally: Tally, tracer=None, sampler=None) -> float:
    """Run one request, check its output and return its latency in seconds,
    less the time the sampler's interruptions took.

    An exception from the program or a failed check is counted in ``tally``
    and never stops the run.  The check runs untimed and untraced.
    """
    span = tracer.span("bench.request") if tracer is not None else nullcontext()
    error = None
    spent = sampler.spent if sampler is not None else 0.0
    t0 = perf_counter()
    try:
        with span:
            out = request.op()
    except Exception as exc:
        error = exc
    elapsed = perf_counter() - t0
    if sampler is not None:
        elapsed -= sampler.spent - spent
    ok = False
    if error is None:
        try:
            with tracer.paused() if tracer is not None else nullcontext():
                ok = bool(request.check(out))
        except Exception as exc:
            error = exc
    tally.record(request.label, ok, error)
    return elapsed


def run_pass(workload, seconds: float, tracer=None, probes: int = 0) -> dict:
    """Replay the batch at least once, and again while another round fits
    in ``seconds`` (judged by the last one), so a run ends within its time.

    The host's speed is sampled during every untraced batch.  With a
    tracer, every untraced batch is followed by a traced one, the tracer
    installed only around it, so both see the same machine: on a shared
    host, speed drifts over tens of seconds.  The ``probes`` set-up
    measurements are spread evenly over the run, between rounds, for the
    same reason.
    """
    tally = Tally()
    for request in workload.once:
        execute(request, tally)
    batches, latencies, reference, traced, tables, setup = [], [], [], [], [], []
    sampler = SpeedSampler()
    start = last = perf_counter()
    while True:
        seen = len(sampler.samples)
        with sampler.running():
            times = [execute(request, tally, sampler=sampler) for request in workload.batch]
        if len(sampler.samples) == seen:
            sampler.sample()
        batches.append(sum(times))
        latencies.extend(times)
        reference.append(statistics.fmean(sampler.samples[seen:]))
        if tracer is not None:
            lo = len(tracer.name)
            tracer.install()
            try:
                with tracer.span("bench.batch"):
                    traced.append(sum(execute(r, tally, tracer) for r in workload.batch))
            finally:
                tracer.uninstall()
            tables.append(tracer.table(lo))
        while seconds > 0 and len(setup) < probes * (perf_counter() - start) / seconds:
            setup.append(measure_setup())
        now = perf_counter()
        if (now - start) + (now - last) > seconds:
            break
        last = now
    while len(setup) < probes:
        setup.append(measure_setup())
    return {
        "setup": setup,
        "batches": batches,
        "reference": reference,
        "traced_batches": traced,
        "latencies": latencies,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "tables": tables,
    }


def median_metrics(tables: list) -> dict:
    """Per layer metric, its median over the traced batches; counts take
    the lower median, so they stay whole numbers."""
    per_batch = [tracing.layer_metrics(table) for table in tables]
    return {
        name: (statistics.median_low if tracing.unit(name) == "count" else statistics.median)(
            [metrics[name] for metrics in per_batch]
        )
        for name in per_batch[0]
    }


def median_table(tables: list) -> dict:
    """Per span name, the median over batches of calls, self_s and total_s
    (a name missing from a batch counts as zero there).  Counts take the
    lower median, so they stay whole numbers."""
    names = sorted({name for table in tables for name in table})
    zero = {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    pick = {"calls": statistics.median_low, "self_s": statistics.median, "total_s": statistics.median}
    return {
        name: {key: pick[key]([table.get(name, zero)[key] for table in tables]) for key in zero}
        for name in names
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    parser.add_argument("--spans", type=Path, help="trace, and write the spans here")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import pell3

    if not Path(pell3.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"pell3 was imported from {pell3.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    tracer = tracing.Tracer() if args.spans else None
    result = run_pass(workload, args.seconds, tracer, SETUP_PROBES)
    tables = result.pop("tables")
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["spans"] = median_table(tables)
        result["layers"] = median_metrics(tables)
        tracer.write(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
