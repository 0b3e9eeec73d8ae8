"""Process helpers of the benchmark: CPU turns and forked rounds.

Neither imports cmgraph, so the run can use them before it times the
import.
"""

from __future__ import annotations

import json
import os
import sys
import traceback


def on_each_cpu(items):
    """Yield the items, moving the process to the next allowed CPU for each.

    Other tenants of the host slow one CPU more than the other, and the
    slower one changes within seconds.  Taking turns gives every op a run
    on each CPU, so its best time over the rounds escapes contention that
    sits on one of them.  Where the affinity cannot be set, the items run
    wherever the scheduler puts them.
    """
    cpus = sorted(os.sched_getaffinity(0))
    try:
        for index, item in enumerate(items):
            try:
                os.sched_setaffinity(0, {cpus[index % len(cpus)]})
            except OSError:
                pass
            yield item
    finally:
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:
            pass


def in_child(fn):
    """Run ``fn`` in a forked child and return its JSON-able result.

    The child's state, caches included, ends with it.  The parent waits
    for the child to exit and raises if it failed.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(fn(), pipe)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"round child exited with status {status}")
    return json.loads(data)
