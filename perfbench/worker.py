"""Runs one workload in a fresh process; run.py starts it.

Protocol on stdout: the line "ready" once set-up (import, input generation,
warm-up) is done, then one JSON line with the run's raw results.  Job output
is captured, so nothing else reaches stdout.

Untimed runs repeat rounds of jobs for about --seconds: another round starts
only while that brings the run closer to --seconds, so a run is always whole
rounds and every run of a workload has the same mix.  Job times are scaled to
a reference host speed sampled inside and between jobs (hostclock.py).

Traced runs do a fixed number of rounds instead, so their counts repeat
exactly for a seed; each traced round is then run again untraced, on the same
inputs, which gives the tracing overhead.  They sample the host reference
between jobs only, so no sample falls inside a span.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from hostclock import HostClock

ROOT = Path(__file__).resolve().parent.parent

#: rounds of a traced run (each then repeated untraced)
TRACE_ROUNDS = {"solve": 1, "scan": 3, "requests": 6, "verify": 1}


class Totals:
    """Job counts, and each job's time scaled to the reference host."""

    def __init__(self, clock: HostClock):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.jobs: list[tuple] = []  # (kind, start, end, seconds, weight)
        self.bytes_out = 0
        self.failures: list[str] = []

    def add(self, job, span: tuple, seconds: float, error, output) -> None:
        self.attempted += job.weight
        self.jobs.append((job.kind, *span, seconds, job.weight))
        if error is not None:
            self.failed += job.weight
            self.failures.append(f"{job.kind} {job.args}: {error}")
        self.bytes_out += len(getattr(output, "out", "").encode())

    def summary(self) -> dict:
        """Scaled latencies, and scaled job seconds in all and per kind.  Call
        it once the last reference sample after the jobs has been taken."""
        latencies_ms, kind_s = [], {}
        for kind, start, end, seconds, weight in self.jobs:
            scaled = seconds * self.clock.mean_scale(start, end)
            latencies_ms.append(scaled * 1000 / weight)
            kind_s[kind] = kind_s.get(kind, 0.0) + scaled
        return {"attempted": self.attempted, "failed": self.failed,
                "latencies_ms": latencies_ms, "kind_s": kind_s,
                "job_s": sum(kind_s.values()),
                "reference_ms": self.clock.reference_ms(),
                "raw_job_s": sum(job[3] for job in self.jobs),
                "failures": self.failures[:5]}


def run_round(workload, jobs, totals: Totals, tracer=None) -> None:
    """Time each job, then check its output outside the timed region.  The
    host reference is also sampled between jobs, outside every span."""
    span = tracer.span if tracer else (lambda _name: nullcontext())
    clock = workload.clock = totals.clock
    for job in jobs:
        clock.sample_if_due()
        with span("harness.job"):
            sampled = clock.timer_s
            start = time.perf_counter()
            try:
                output, error = workload.run(job), None
            except Exception:  # a failing job is counted; the run goes on
                output, error = None, traceback.format_exc()
            end = time.perf_counter()
            # less the samples taken inside the job, by the interval timer or,
            # for a child-process job, by cli_job.py
            seconds = end - start - (clock.timer_s - sampled)
        with span("harness.check"), (tracer.pause() if tracer else nullcontext()):
            if error is None:
                try:
                    workload.check(job, output)
                except Exception:  # a wrong or unparsable output is a failed job
                    error = traceback.format_exc()
        totals.add(job, (start, end), seconds, error, output)


def timed_run(workload, seconds: float) -> dict:
    totals = Totals(HostClock())
    start = time.perf_counter()
    rounds, last_round = 0, 0.0
    # sample inside the jobs; a child-process job samples itself, since a
    # sample here would run on the other vCPU while the job runs
    with nullcontext() if workload.child_jobs else totals.clock.ticking():
        while not rounds or time.perf_counter() - start + last_round / 2 < seconds:
            round_start = time.perf_counter()
            run_round(workload, workload.next_round(), totals)
            rounds += 1
            last_round = time.perf_counter() - round_start
    totals.clock.sample()
    return dict(totals.summary(), rounds=rounds)


def traced_run(workload, seed: int) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    clock = HostClock()
    traced, plain = Totals(clock), Totals(clock)
    for _ in range(TRACE_ROUNDS[workload.name]):
        jobs = workload.next_round()
        tracer.install()
        workload.traced = True
        run_round(workload, jobs, traced, tracer)
        workload.traced = False
        tracer.uninstall()
        run_round(workload, jobs, plain)
    clock.sample()
    out_dir = ROOT / ".bench_trace"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"{workload.name}-seed{seed}.spans")
    traced_sum, plain_sum = traced.summary(), plain.summary()
    return {
        "attempted": traced.attempted + plain.attempted,
        "failed": traced.failed + plain.failed,
        "failures": (traced.failures + plain.failures)[:5],
        "trace": tracer.summary(),
        "traced_ms_per_job": traced_sum["job_s"] * 1000 / traced.attempted,
        "plain_ms_per_job": plain_sum["job_s"] * 1000 / plain.attempted,
        "kind_s": plain_sum["kind_s"],
        "bytes_out": traced.bytes_out,
        "payload_mismatch": getattr(workload, "payload_mismatch", 0),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from checks import SchemaChecker
    from workloads import WORKLOADS

    schema = SchemaChecker(ROOT / "src" / "torusvass" / "output_schema.json")
    workload = WORKLOADS[args.workload](args.seed, schema)
    workload.warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    result = traced_run(workload, args.seed) if args.trace else timed_run(workload, args.seconds)
    result["rss_kib"] = workload.peak_rss_kib()
    for failure in result["failures"]:
        print(failure, file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
