"""parallel.split and parallel.run on their own: where a job is cut, and
what this process works when a helper's reply covers less than its share."""

import marshal
import os

import pytest

from skyprov import parallel


@pytest.mark.parametrize("sizes,min_share,cpus,shares", [
    ([1] * 10, 5, 2, [(0, 5), (5, 10)]),
    ([1] * 10, 6, 2, [(0, 10)]),  # two shares of five are below the minimum
    ([1] * 10, 3, 8, [(0, 3), (3, 6), (6, 10)]),  # at most total // min_share processes
    ([4, 4, 1, 1, 1, 1, 4], 5, 2, [(0, 2), (2, 7)]),  # cut at the first boundary at or past half the bytes
    ([10, 1, 1], 4, 2, [(0, 3)]),  # a cut that leaves a share below the minimum is not taken
    ([10, 1, 1], 2, 2, [(0, 1), (1, 3)]),
    ([3, 3, 3, 3], 1, 3, [(0, 2), (2, 3), (3, 4)]),
    ([], 1, 2, [(0, 0)]),
    ([5] * 4, 1, 1, [(0, 4)]),  # one usable CPU: no helper
])
def test_split_cuts_by_size_and_gives_every_process_the_minimum(monkeypatch, sizes, min_share, cpus, shares):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    assert parallel.split(sizes, min_share) == shares


def _job(calls):
    """A job whose item i is i squared; calls records each share worked here."""
    parent = os.getpid()

    def work(start, end):
        if os.getpid() == parent:
            calls.append((start, end))
        return [i * i for i in range(start, end)]

    return work, lambda start, end: marshal.dumps(work(start, end))


def test_a_helper_reply_covering_a_prefix_leaves_the_rest_here():
    calls = []
    work, reply = _job(calls)
    results = parallel.run([(0, 4), (4, 10)], work, reply, lambda data, start, end: marshal.loads(data)[:2])
    assert results == [i * i for i in range(10)]
    assert calls == [(0, 4), (6, 10)]


def _half_reply(write_all, fd, data):
    write_all(fd, data[:len(data) // 2])


def _whole_reply_then_raise(write_all, fd, data):
    write_all(fd, data)
    raise RuntimeError("the helper fails after its reply")


@pytest.mark.parametrize("write_reply", [_half_reply, _whole_reply_then_raise], ids=["short", "exit_1"])
def test_a_short_reply_or_a_non_zero_exit_is_refused(monkeypatch, write_reply):
    calls = []
    work, reply = _job(calls)
    write_all = parallel._write_all
    # in the helper, the header is written whole and the reply as the case says
    monkeypatch.setattr(parallel, "_write_all", lambda fd, data: write_all(fd, data) if len(data) == parallel._HEADER
                        else write_reply(write_all, fd, data))
    parsed = []
    results = parallel.run([(0, 4), (4, 10)], work, reply,
                           lambda data, start, end: parsed.append(1) or marshal.loads(data))
    assert results == [i * i for i in range(10)]
    assert calls == [(0, 4), (4, 10)] and parsed == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
