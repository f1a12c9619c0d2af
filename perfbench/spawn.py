"""Command launcher for the benchmark: wall time and peak RSS of each child.

Linux charges a child the peak RSS of the address space it was forked or
vforked from (the kernel keeps the larger of the old and the new image's peak
across exec), so children of the benchmark process, which holds the
generated inputs, would read as large as it does. The benchmark therefore
starts this small process, whose own image stays small, and sends it one
JSON request per stdin line:

    {"argv": [...], "stdout": path, "stderr": path, "cwd": dir, "env": {...},
     "timeout": seconds}

It answers each with one JSON line {"returncode", "wall_s", "rss_kb", "cpu_s"}
(cpu_s: the child's user plus system time) and exits at end of input. A child
still running at its timeout is killed.
"""

import json
import os
import signal
import subprocess
import sys
import time


def launch(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err,
                                cwd=request["cwd"], env=request["env"])
        # Block in wait4 rather than poll, so that this process stays idle
        # while the child runs; a timer kills the child at its timeout.
        signal.signal(signal.SIGALRM, lambda signum, frame: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, max(request["timeout"], 1e-3))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"returncode": proc.returncode, "wall_s": wall, "rss_kb": usage.ru_maxrss,
            "cpu_s": usage.ru_utime + usage.ru_stime}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(launch(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
