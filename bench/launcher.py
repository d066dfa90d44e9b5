"""Child-process launcher of the benchmark.

Reads one JSON request per line on standard input, ``[argv, cwd,
stderr_path]``, runs ``argv`` there with standard output discarded, waits
for it and writes one JSON line: exit code, wall time, CPU time and peak
resident size.  Wall time covers process start to reap, so interpreter
start-up is part of every operation.

The benchmark starts its children from this small process, not from
itself, because Linux counts in a child's ``ru_maxrss`` the resident size
of the process it was started from: children of the benchmark, which holds
the check data, would all report at least its size.
"""

import json
import os
import signal
import subprocess
import sys
import time


def _stop(signum, frame):
    raise SystemExit(1)


def main() -> None:
    signal.signal(signal.SIGTERM, _stop)
    for line in sys.stdin:
        argv, cwd, err_path = json.loads(line)
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.DEVNULL, stderr=err)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {
            "returncode": proc.returncode,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mb": usage.ru_maxrss / 1024.0,  # Linux reports kilobytes
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
