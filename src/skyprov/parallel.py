"""Contiguous shares of one job, the first worked here and each further one
in a forked helper.

A job here is a list of pure per-item computations whose inputs this
process already holds: a helper inherits them through fork, reads no file
and sends back only its results, as bytes, through a pipe. A helper that
cannot start, exits non-zero or sends a short or malformed reply costs only
time: this process works that share itself. An exception here kills and
reaps every helper, and no helper outlives the call that started it. This
is the one module that forks, writes to a pipe or reaps a process.
"""

from __future__ import annotations

import bisect
import itertools
import os
import signal
import threading

_HEADER = 8  # a reply is its length, little-endian, then its bytes


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def split(sizes: list, min_share: int) -> list:
    """Contiguous (start, end) shares of the items whose sizes are given,
    one per process: the most processes, at most one per usable CPU, at
    which every share weighs at least min_share, which is at least 1. One
    share, worked here alone, when fork is missing or another thread runs,
    since fork copies none of them.

    Each cut falls on the first item boundary at or past its even fraction
    of the total, so items of size 1 cut count * i // processes."""
    bounds = list(itertools.accumulate(sizes, initial=0))
    total = bounds[-1]
    if hasattr(os, "fork") and threading.active_count() == 1:
        for processes in range(min(usable_cpus(), total // min_share), 1, -1):
            cuts = [0] + [bisect.bisect_left(bounds, total * i // processes) for i in range(1, processes)]
            cuts.append(len(sizes))
            if all(bounds[end] - bounds[start] >= min_share for start, end in zip(cuts, cuts[1:])):
                return list(zip(cuts, cuts[1:]))
    return [(0, len(sizes))]


def run(shares: list, work, reply, parse) -> list:
    """work(start, end) over the contiguous shares, concatenated in order.

    work(start, end) returns the results of items start to end. It runs here
    for the first share. Each further share goes to a forked helper, which
    sends back reply(start, end), bytes. parse(data, start, end) reads them
    as the results of that share's first items, all or a prefix, or gives
    None when they are malformed; this process works the items the helper's
    results do not cover.
    """
    helpers = {}  # share start -> (pid, read end), or None when none started
    try:
        for start, end in shares[1:]:
            helpers[start] = _start_helper(reply, start, end)
        start, end = shares[0]
        results = work(start, end)
        for start, end in shares[1:]:
            helper = helpers.pop(start)
            data = None if helper is None else _helper_reply(*helper)
            done = [] if data is None else parse(data, start, end) or []
            data = None  # the reply's bytes are not held while the rest is worked
            results += done
            results += work(start + len(done), end)
        return results
    finally:
        for helper in helpers.values():  # left only when something raised
            if helper is not None:
                _stop_helper(*helper)


def _start_helper(reply, start: int, end: int):
    """(pid, read end of its pipe) of a forked helper that sends
    reply(start, end), or None when no pipe or process could be made."""
    try:
        read_end, write_end = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:  # the helper: reply, then leave without flushing any buffer
        status = 1
        try:
            os.close(read_end)
            data = reply(start, end)
            _write_all(write_end, len(data).to_bytes(_HEADER, "little"))
            _write_all(write_end, data)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, read_end


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _read_exactly(fd: int, count: int):
    """count bytes read from fd into one buffer, or None at an early EOF."""
    buffer = bytearray(count)
    view = memoryview(buffer)
    while view:
        got = os.readv(fd, [view])
        if not got:
            return None
        view = view[got:]
    return buffer


def _helper_reply(pid: int, read_end: int):
    """The helper's reply, or None when it failed. The helper is reaped
    whatever happens, and killed first if reading raises."""
    data = None
    status = None
    try:
        header = _read_exactly(read_end, _HEADER)
        if header is not None:
            data = _read_exactly(read_end, int.from_bytes(header, "little"))
            if os.read(read_end, 1):  # more than it announced
                data = None
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(read_end)
        try:
            status = os.waitpid(pid, 0)[1]
        except ChildProcessError:  # reaped elsewhere: its exit is unknown
            pass
    return data if status == 0 else None


def _stop_helper(pid: int, read_end: int) -> None:
    os.close(read_end)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
