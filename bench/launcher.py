"""Start the benchmark's child processes from a small interpreter and report their rusage.

Reads one JSON request per line on stdin, ``{"argv", "cwd", "log_stem",
"timeout"}``, runs that command to completion, and answers with one JSON
line: exit code, wall time from launch to exit, and the child's own
``os.wait4`` rusage.

Children are started from here rather than from ``run.py`` because Linux
carries the address space's peak RSS across ``exec``: a child forked from
the benchmark process, which holds numpy and scipy, would report that
process's ~100 MB as its own ``ru_maxrss``.  This interpreter imports
neither, so it stays far below any child's real peak.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


running: list[subprocess.Popen] = []


def stop(signum, frame):
    """On SIGTERM, kill and reap the running child before exiting."""
    for proc in running:
        proc.kill()
        proc.wait()
    sys.exit(128 + signum)


def run(argv, cwd: str, log_stem: str, timeout: float) -> dict:
    """Run one command with stdout/stderr to files and a kill after ``timeout`` seconds.

    Each command runs in its own process, one at a time, because in-process
    timings measure allocator history rather than the program: the same
    n=5000, d=40 logistic audit took 2.2-2.3 s (about 2.6k minor page faults)
    in-process after other numpy work, but 4.3-6.0 s in a fresh process as a
    user runs it, with about 1.35M minor faults and 2.2-2.9 s of system time.
    """
    timed_out = threading.Event()
    with open(log_stem + ".out", "wb") as out, open(log_stem + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        running.append(proc)

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        running.remove(proc)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "code": proc.returncode,
        "wall_s": wall,
        "user_s": ru.ru_utime,
        "sys_s": ru.ru_stime,
        "minor_faults": ru.ru_minflt,
        "major_faults": ru.ru_majflt,
        "maxrss_kb": ru.ru_maxrss,
        "timed_out": timed_out.is_set(),
    }


def main() -> int:
    signal.signal(signal.SIGTERM, stop)
    for line in sys.stdin:
        req = json.loads(line)
        sys.stdout.write(json.dumps(run(req["argv"], req["cwd"], req["log_stem"], req["timeout"])) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
