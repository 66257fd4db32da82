"""keys.verify_signatures: the serial verify_signature list, whether its
shares are verified by forked helpers or, on any helper failure, here."""

import os
import threading

import pytest

from skyprov import keys as keys_module
from skyprov import parallel as parallel_module
from skyprov.keys import SigningKey, verify_signature, verify_signatures

SIGNER = SigningKey.from_seed(b"keys-test:signer")
OTHER = SigningKey.from_seed(b"keys-test:other")


def _items(count):
    """count (key, message, signature) items, valid ones mixed with a wrong
    key, a flipped message bit, malformed key hex, a 63-byte signature and
    a signature that is not bytes."""
    items = []
    for i in range(count):
        message = b"message %d" % i
        signature = SIGNER.sign(message)
        items.append([
            (SIGNER.public_hex, message, signature),
            (OTHER.public_hex, message, signature),
            (SIGNER.public_hex, bytes([message[0] ^ 1]) + message[1:], signature),
            ("XY" * 32, message, signature),
            (SIGNER.public_hex, message, signature[:63]),
            (SIGNER.public_hex, message, signature.hex()),
            (bytes.fromhex(SIGNER.public_hex), message, signature),
        ][i % 7])
    return items


ITEMS = _items(2 * keys_module._MIN_SHARE + 7)
SERIAL = [verify_signature(*item) for item in ITEMS]


@pytest.fixture
def forks(monkeypatch):
    """The pids of the helpers started, on a host with two usable CPUs."""
    monkeypatch.setattr(parallel_module, "usable_cpus", lambda: 2)
    started = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return started


def test_items_mix_verdicts():
    assert True in SERIAL and False in SERIAL
    assert SERIAL[:7] == [True, False, False, False, False, False, True]


def test_a_helper_verifies_a_share(forks):
    assert verify_signatures(ITEMS) == SERIAL
    assert len(forks) == 1


def test_one_helper_per_further_cpu_each_with_a_full_share(forks, monkeypatch):
    monkeypatch.setattr(parallel_module, "usable_cpus", lambda: 8)
    assert verify_signatures(ITEMS) == SERIAL
    assert len(forks) == 1  # two shares of at least the minimum, not eight
    assert parallel_module.split([1] * len(ITEMS), keys_module._MIN_SHARE) == [(0, len(ITEMS) // 2), (len(ITEMS) // 2, len(ITEMS))]
    assert verify_signatures(ITEMS * 2) == SERIAL * 2
    assert len(forks) == 1 + 3


@pytest.mark.parametrize("count", [0, 1, 2, 2 * keys_module._MIN_SHARE - 1])
def test_a_batch_below_the_minimum_starts_no_helper(forks, count):
    assert verify_signatures(ITEMS[:count]) == SERIAL[:count]
    assert forks == []


def test_one_usable_cpu_or_another_thread_starts_no_helper(forks, monkeypatch):
    monkeypatch.setattr(parallel_module, "usable_cpus", lambda: 1)
    assert verify_signatures(ITEMS) == SERIAL
    monkeypatch.setattr(parallel_module, "usable_cpus", lambda: 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert verify_signatures(ITEMS) == SERIAL
    finally:
        release.set()
        other.join()
    assert forks == []


def _in_helpers(parent, action):
    """verify_signature, except that in a helper it calls action first."""
    def patched(*item):
        if os.getpid() != parent:
            result = action(*item)
            if result is not None:
                return result
        return verify_signature(*item)
    return patched


@pytest.mark.parametrize("action,kept", [
    (lambda *item: os._exit(3), False),  # dies mid-share
    (lambda *item: os._exit(0) if item[1].endswith(b"9") else None, False),  # a short reply, exit 0
    (lambda *item: 2, False),  # a reply byte that is not 0 or 1
    (lambda *item: True, True),  # a well-formed reply is taken as it is
], ids=["dies", "short_reply", "bad_byte", "all_true"])
def test_a_helper_reply_is_kept_only_when_well_formed(forks, monkeypatch, action, kept):
    calls = []
    patched = _in_helpers(os.getpid(), action)
    monkeypatch.setattr(keys_module, "verify_signature", lambda *item: calls.append(1) or patched(*item))
    verdicts = verify_signatures(ITEMS)
    assert len(forks) == 1
    half = len(ITEMS) // 2
    if kept:
        assert verdicts == SERIAL[:half] + [True] * (len(ITEMS) - half)
        assert len(calls) == half
    else:  # the helper's share is verified again here, and none of its verdicts is kept
        assert verdicts == SERIAL
        assert len(calls) == len(ITEMS)


@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_no_pipe_or_process_means_the_caller_verifies(forks, monkeypatch, call):
    def refuse():
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, call, refuse)
    assert verify_signatures(ITEMS) == SERIAL
    assert forks == []


def test_a_raise_here_kills_and_reaps_the_helper(forks, monkeypatch):
    parent = os.getpid()
    killed = []
    kill = os.kill
    monkeypatch.setattr(os, "kill", lambda pid, sig: killed.append(pid) or kill(pid, sig))

    def failing(*item):
        if os.getpid() == parent and item[1] == ITEMS[3][1]:
            raise RuntimeError("verify failed here")
        return verify_signature(*item)

    monkeypatch.setattr(keys_module, "verify_signature", failing)
    with pytest.raises(RuntimeError, match="verify failed here"):
        verify_signatures(ITEMS)
    assert killed == forks and len(forks) == 1  # and the autouse fixture finds nothing to reap
