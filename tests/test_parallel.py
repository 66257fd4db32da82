"""parallel.split and parallel.run on their own: where a job is cut, which
helper replies are kept, and what this process works when a reply covers
less than its share or is refused."""

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


def _job(calls, raise_at=None, everywhere=False):
    """An item function whose item i is i squared; calls records each item
    worked here. Item raise_at raises in a helper, and here too when
    everywhere is set."""
    parent = os.getpid()

    def item(i):
        here = os.getpid() == parent
        if here:
            calls.append(i)
        if i == raise_at and (everywhere or not here):
            raise RuntimeError(f"item {i} failed")
        return i * i

    return item


def _recording_valid(checked):
    """A check that a result is an int, which records each result it checks."""
    return lambda result: checked.append(result) or isinstance(result, int)


def test_a_helper_reply_covering_a_prefix_leaves_the_rest_here():
    # the helper sends the results before the item that raises in it
    calls, checked = [], []
    results = parallel.run([(0, 4), (4, 10)], _job(calls, raise_at=6), _recording_valid(checked))
    assert results == [i * i for i in range(10)]
    assert calls == [0, 1, 2, 3, 6, 7, 8, 9]
    assert checked == [16, 25]


def test_an_item_that_raises_everywhere_raises_here_in_item_order():
    calls = []
    with pytest.raises(RuntimeError, match="item 6 failed"):
        parallel.run([(0, 4), (4, 10)], _job(calls, raise_at=6, everywhere=True), _recording_valid([]))
    assert calls == [0, 1, 2, 3, 6]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _half_reply(write_all, fd, data):
    write_all(fd, data[:len(data) // 2])


def _whole_reply_then_raise(write_all, fd, data):
    write_all(fd, data)
    raise RuntimeError("the helper fails after its reply")


@pytest.mark.parametrize("write_reply", [_half_reply, _whole_reply_then_raise], ids=["short", "exit_1"])
def test_a_short_reply_or_a_non_zero_exit_is_refused(monkeypatch, write_reply):
    calls, checked = [], []
    write_all = parallel._write_all
    # in the helper, the header is written whole and the reply as the case says
    monkeypatch.setattr(parallel, "_write_all", lambda fd, data: write_all(fd, data) if len(data) == parallel._HEADER
                        else write_reply(write_all, fd, data))
    results = parallel.run([(0, 4), (4, 10)], _job(calls), _recording_valid(checked))
    assert results == [i * i for i in range(10)]
    assert calls == list(range(10)) and checked == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class _Marshal:
    """marshal, with dumps replaced."""

    loads = staticmethod(marshal.loads)

    def __init__(self, dumps):
        self.dumps = dumps


@pytest.mark.parametrize("dumps,valid", [
    (lambda obj: marshal.dumps(tuple(obj)), lambda result: True),
    (lambda obj: marshal.dumps(obj + [0]), lambda result: True),
    (marshal.dumps, lambda result: result != 49),
], ids=["not_a_list", "longer_than_the_share", "a_result_not_valid"])
def test_a_reply_is_kept_whole_or_not_at_all(monkeypatch, dumps, valid):
    calls = []
    monkeypatch.setattr(parallel, "marshal", _Marshal(dumps))
    assert parallel.run([(0, 4), (4, 10)], _job(calls), valid) == [i * i for i in range(10)]
    assert calls == list(range(10))
