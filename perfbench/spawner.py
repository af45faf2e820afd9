"""Starts one CLI process per request and reports how it ended.

Run with ``python3 -S spawner.py`` in the directory the processes should
run in.  Each stdin line is a JSON request {"argv", "env", "stdout",
"stderr", "timeout"}; each stdout line answers it with {"status",
"seconds", "maxrss_kb", "timed_out"}.

Processes are started from this small interpreter rather than from the
benchmark, because Linux carries a process's peak RSS across exec: a
child started by the benchmark would report at least the benchmark's
own, growing, resident size.
"""

import json
import os
import signal
import sys
import time


def spawn(request: dict) -> dict:
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    start = time.perf_counter()
    pid = os.posix_spawn(
        request["argv"][0], request["argv"], request["env"],
        file_actions=[
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, request["stdout"], write, 0o600),
            (os.POSIX_SPAWN_OPEN, 2, request["stderr"], write, 0o600),
        ],
        setsid=True)
    timed_out = False

    def expire(_signum, _frame):
        nonlocal timed_out
        timed_out = True
        os.killpg(pid, signal.SIGKILL)  # census pool workers too

    signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, request["timeout"])
    try:
        _pid, status, usage = os.wait4(pid, 0)  # includes reaped pool workers
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    seconds = time.perf_counter() - start
    try:
        os.killpg(pid, signal.SIGKILL)  # workers a killed op left behind
    except ProcessLookupError:
        pass
    return {"status": os.waitstatus_to_exitcode(status), "seconds": seconds,
            "maxrss_kb": usage.ru_maxrss, "timed_out": timed_out}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(spawn(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
