"""Run one command in a child process and report the child's peak memory.

    python3 -S perfbench/spawn.py COMMAND [ARG ...]

The child's stdout and stderr pass through.  Then this process writes
``maxrss_kib=<n>`` as the last line of stderr and exits with the child's exit
code.

On Linux a process keeps, in its ``ru_maxrss``, the high-water mark of the
memory map it had before ``exec``; a child started straight from the
benchmark worker would read at least the worker's own peak.  This launcher is
small, and it forks the child, so the child's ``ru_maxrss`` is its own peak.
"""

import os
import sys


def main() -> int:
    pid = os.fork()
    if pid == 0:
        try:
            os.execvp(sys.argv[1], sys.argv[1:])
        finally:
            os._exit(127)
    _pid, status, usage = os.wait4(pid, 0)
    sys.stderr.write(f"maxrss_kib={usage.ru_maxrss}\n")
    return os.waitstatus_to_exitcode(status)


if __name__ == "__main__":
    sys.exit(main())
