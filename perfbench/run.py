"""torusvass benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload {solve,scan,requests,verify} \\
        --seed N --seconds S --trace {0,1}

Run it from the repository root.  It needs only the standard library and the
package sources under src/.  The workload runs in a fresh worker process
(worker.py); with --trace 0 the last line of stdout holds the end-to-end
metrics of BENCHMARK.json, with --trace 1 its per-layer metrics.  Set-up time
is measured in SETUP_PROBES extra fresh processes, half of them before the
worker and half after it, and the median is reported.  Every time is scaled to
a reference host speed (hostclock.py).  Per-run notes (sample counts, raw
figures, failures) go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from hostclock import HostClock
from tracer import REQUEST_KINDS, layer_metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 12
DEADLINE_S = 170


class BenchError(Exception):
    pass


def launch(args: argparse.Namespace, env: dict, setup_only: bool, deadline: float):
    """Start a worker; return it with its set-up time (start to "ready")."""
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--setup-only"] if setup_only else [])
    start = time.perf_counter()
    # its own session, so that a worker over the deadline is stopped together
    # with any verify process it started
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
                            start_new_session=True)
    def stop():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:  # it ended on its own meanwhile
            pass

    killer = threading.Timer(max(deadline - time.monotonic(), 1), stop)
    killer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
        proc.stdout.close()
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"worker exited with code {proc.returncode}")
    return rest, ready


def setup_probes(args: argparse.Namespace, env: dict, deadline: float,
                 clock: HostClock, count: int) -> list[float]:
    """Set-up times of ``count`` set-up-only workers, each scaled by the host
    reference sampled just before and just after it.

    The probes run pinned to the vCPU this process samples on: the speeds of
    the two vCPUs of a shared host do not follow each other.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        clock.sample()
        probes = []
        for _ in range(count):
            start = time.perf_counter()
            ready = launch(args, env, True, deadline)[1]
            clock.sample()
            probes.append((start + ready / 2, ready))
    finally:
        os.sched_setaffinity(0, cpus)
    return [ready * clock.scale_at(middle) for middle, ready in probes]


def end_to_end(result: dict, setup: list[float]) -> dict:
    latencies = result["latencies_ms"]
    ok = result["attempted"] - result["failed"]
    p90 = (statistics.quantiles(latencies, n=10, method="inclusive")[8]
           if len(latencies) > 1 else latencies[0])
    print(f"perfbench: {len(latencies)} latency samples, {result['rounds']} rounds,"
          f" {len(setup)} set-up samples; raw job seconds {result['raw_job_s']:.3f},"
          f" scaled {result['job_s']:.3f}; host reference median"
          f" {result['reference_ms']:.3f} ms (nominal 20 ms)", file=sys.stderr)
    return {
        "setup_s": statistics.median(setup),
        "jobs_per_s": ok / result["job_s"],
        "job_ms_p50": statistics.median(latencies),
        "job_ms_p90": p90,
        "checked_ratio": ok / result["attempted"],
        "peak_rss_mb": result["rss_kib"] / 1024,
    }


def per_layer(result: dict, workload: str) -> dict:
    trace = result["trace"]
    layers_s = sum(seconds for name, seconds in trace["self_s"].items()
                   if not name.startswith("harness."))
    job_s = trace["total_s"].get("harness.job", 0.0)
    values = {
        "cli.bytes_out": result["bytes_out"],
        "cli.verify.payload_mismatch": result["payload_mismatch"],
        "trace.overhead_ratio": result["traced_ms_per_job"] / result["plain_ms_per_job"] - 1,
        # time inside traced jobs that no traced function covers lowers it
        "trace.accounted_ratio": layers_s / job_s if job_s else 0.0,
    }
    kind_s = result["kind_s"]
    for kind in REQUEST_KINDS:
        values[f"requests.{kind}.time_share"] = (
            kind_s.get(kind, 0.0) / sum(kind_s.values()) if workload == "requests" else 0.0)
    for name in layer_metric_names():
        span, _, field = name.rpartition(".")
        calls = trace["calls"].get(span, 0)
        if name in values:
            continue
        if field == "calls":
            values[name] = calls
        elif field in ("self_s", "total_s"):
            values[name] = trace[field].get(span, 0.0)
        elif field == "distinct_ratio":
            values[name] = trace["distinct"].get(span, 0) / calls if calls else 0.0
        else:
            values[name] = trace["counters"].get(name, 0)
    print(f"perfbench: {trace['spans']} spans kept", file=sys.stderr)
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("solve", "scan", "requests", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "torusvass" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {ROOT / 'src' / 'torusvass'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))

    clock = HostClock()
    probes = 0 if args.trace else SETUP_PROBES // 2
    try:
        setup = setup_probes(args, env, deadline, clock, probes)
        output, ready = launch(args, env, False, deadline)
        setup += setup_probes(args, env, deadline, clock, probes)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(f"perfbench: raw set-up of the measuring worker {ready:.3f} s", file=sys.stderr)
    result = json.loads(output.strip().splitlines()[-1])
    values = per_layer(result, args.workload) if args.trace else end_to_end(result, setup)
    missing = [metric["name"] for metric in listed if metric["name"] not in values]
    if missing:
        print(f"perfbench: BENCHMARK.json lists metrics this run lacks: {missing}",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
                    for metric in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
