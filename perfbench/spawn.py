"""Run one child process to its end and take its wall time and rusage.

The child is started with posix_spawn and reaped with os.wait4, so the
CPU time and peak RSS are that child's own, not a sum over all children.
Both output pipes are drained while the child runs, so a large row can
not block it. A child still running at its timeout is killed and reaped.
"""

from __future__ import annotations

import os
import selectors
import signal
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class ChildResult:
    exit_code: int  # negative when ended by a signal
    timed_out: bool
    wall_s: float
    cpu_s: float  # user + system
    maxrss_kb: int
    stdout: bytes
    stderr: bytes


def run_child(argv: list[str], env: dict[str, str], timeout_s: float) -> ChildResult:
    out_r, out_w = os.pipe()
    err_r, err_w = os.pipe()
    null = os.open(os.devnull, os.O_RDONLY)
    actions = [
        (os.POSIX_SPAWN_DUP2, null, 0),
        (os.POSIX_SPAWN_DUP2, out_w, 1),
        (os.POSIX_SPAWN_DUP2, err_w, 2),
    ]
    pid = None
    try:
        started = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        os.close(out_w)
        os.close(err_w)
        out_w = err_w = None
        chunks: dict[int, list[bytes]] = {out_r: [], err_r: []}
        timed_out = False
        deadline = started + timeout_s
        with selectors.DefaultSelector() as selector:
            selector.register(out_r, selectors.EVENT_READ)
            selector.register(err_r, selectors.EVENT_READ)
            while selector.get_map():
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    timed_out = True
                    os.kill(pid, signal.SIGKILL)
                    break
                for key, _ in selector.select(remaining):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        selector.unregister(key.fd)
        _, status, usage = os.wait4(pid, 0)
        wall_s = time.perf_counter() - started
        pid = None
    finally:
        if pid is not None:  # interrupted before the child was reaped
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
        for fd in (out_r, out_w, err_r, err_w, null):
            if fd is not None:
                os.close(fd)
    return ChildResult(
        exit_code=os.waitstatus_to_exitcode(status),
        timed_out=timed_out,
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
        stdout=b"".join(chunks[out_r]),
        stderr=b"".join(chunks[err_r]),
    )
