"""Run the torusvass CLI as ``python -m torusvass.cli`` does, sampling the
host reference from inside the process.

    python3 perfbench/cli_job.py ARG ...

A verify job is one child process of several seconds, and the host's speed
changes within it; samples taken by the worker at the job's two ends miss
that, and samples taken by the worker during the job would run on the other
vCPU, whose speed does not follow this one's.  So this process samples the
reference loop every EVERY_S seconds from an interval timer while the CLI
runs, and writes the samples as one JSON line, the last on stderr.  The
worker takes the samples' wall time out of the job's time.
"""

import json
import runpy
import sys

from hostclock import HostClock


def main() -> int:
    clock = HostClock()
    sys.argv = ["torusvass.cli"] + sys.argv[1:]
    code = 0
    with clock.ticking():
        try:
            runpy.run_module("torusvass.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    sys.stdout.flush()
    sys.stderr.write(json.dumps(clock.report()) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
