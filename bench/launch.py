"""Start one measured process and report its wall time, peak RSS and exit code.

    python3 -S bench/launch.py PROGRAM [ARG...]

The benchmark starts every measured process through this script. A child's
``ru_maxrss`` includes the peak RSS of the process it was forked from, so a
child of the benchmark itself, which holds its inputs in memory, would report
the benchmark's peak instead of its own; this launcher stays a few MB in
size. The program's standard output is discarded and its standard error
goes where this script's goes. Prints one JSON object on standard output.
"""

import json
import os
import sys
import time


def main() -> None:
    cmd = sys.argv[1:]
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.execvp(cmd[0], cmd)
        finally:
            os._exit(127)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    print(
        json.dumps(
            {
                "wall_s": wall,
                "maxrss_kib": usage.ru_maxrss,
                "returncode": os.waitstatus_to_exitcode(status),
            }
        )
    )


if __name__ == "__main__":
    main()
