"""Start programs one at a time; report spawn-to-exit time, exit code, max RSS.

It runs as a small process of its own because a child started with
posix_spawn (vfork) inherits the memory high-water mark of the process that
started it: spawned from run.py, whose memory grows with its reference
computations, a child's max RSS would read run.py's.

Reads one JSON request per line on stdin:
    {"args": [...], "out": PATH, "err": PATH, "limit_s": SECONDS}
and answers each with one JSON line:
    {"elapsed_s": ..., "code": ..., "maxrss_kb": ...}
A child still running after limit_s is killed.
"""

import json
import os
import signal
import sys
import threading
from time import perf_counter


def run(request):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, request["out"], flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, request["err"], flags, 0o644),
    ]
    args = request["args"]
    start = perf_counter()
    pid = os.posix_spawn(args[0], args, os.environ, file_actions=actions)
    watchdog = threading.Timer(request["limit_s"], os.kill, (pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        watchdog.cancel()
    elapsed = perf_counter() - start
    return {
        "elapsed_s": elapsed,
        "code": os.waitstatus_to_exitcode(status),
        "maxrss_kb": usage.ru_maxrss,
    }


if __name__ == "__main__":
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
