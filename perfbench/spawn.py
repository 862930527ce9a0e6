"""Start the benchmark's children on behalf of run.py and time them.

    python spawn.py    (reads requests on stdin; started by run.py)

Linux carries the high-water RSS of the process that spawns a child
into the child's `ru_maxrss` across exec, so `os.wait4` reports at least
the spawner's own peak.  run.py grows while it checks outputs, so it
hands every spawn to this small process, whose peak (a bare interpreter,
about 12 MB) stays below that of any `curvecount` child.

One JSON request per stdin line: {"cmd", "env", "cwd", "stdout",
"stderr", "timeout"}.  One JSON reply per stdout line, when the child
has ended: {"exit_code", "start", "end", "maxrss_kb"}, where start and
end are time.perf_counter() readings (CLOCK_MONOTONIC, the clock the
trace shim stamps spans with).  The child leads its own process group;
a group still running after `timeout` seconds is killed with its pool
workers.  On SIGTERM the running child's group is killed and reaped
before this process exits.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

running: list[int] = []


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def stop(signum, frame) -> None:
    for pid in running:
        kill_group(pid)
        os.waitpid(pid, 0)
    sys.exit(128 + signum)


def spawn(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["cmd"], stdout=out, stderr=err, env=request["env"], cwd=request["cwd"], start_new_session=True
        )
        running.append(proc.pid)
        watchdog = threading.Timer(request["timeout"], kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        end = time.perf_counter()
        running.remove(proc.pid)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"exit_code": proc.returncode, "start": start, "end": end, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    signal.signal(signal.SIGTERM, stop)
    for line in sys.stdin:
        sys.stdout.write(json.dumps(spawn(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
