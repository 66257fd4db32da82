"""Merkle log tests against an independent from-scratch oracle.

The oracle below recomputes roots, inclusion paths and consistency paths
directly from the recursive definitions using hashlib, sharing no code with
the implementation under test.
"""

import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyprov import merkle
from skyprov.errors import IndexOutOfRange, InvalidBody
from skyprov.merkle import (
    ConsistencyProof,
    InclusionProof,
    MerkleLog,
    empty_root,
    leaf_hash,
    node_hash,
    verify_consistency,
    verify_inclusion,
)


# -- oracle ------------------------------------------------------------


def oracle_leaf(data: bytes) -> bytes:
    return hashlib.sha256(b"\x00" + data).digest()


def oracle_node(left: bytes, right: bytes) -> bytes:
    return hashlib.sha256(b"\x01" + left + right).digest()


def oracle_split(n: int) -> int:
    k = 1
    while k * 2 < n:
        k *= 2
    return k


def oracle_root(entries: list[bytes]) -> bytes:
    n = len(entries)
    if n == 0:
        return hashlib.sha256(b"").digest()
    if n == 1:
        return oracle_leaf(entries[0])
    k = oracle_split(n)
    return oracle_node(oracle_root(entries[:k]), oracle_root(entries[k:]))


def oracle_inclusion_path(entries: list[bytes], m: int) -> list[bytes]:
    n = len(entries)
    if n == 1:
        return []
    k = oracle_split(n)
    if m < k:
        return oracle_inclusion_path(entries[:k], m) + [oracle_root(entries[k:])]
    return oracle_inclusion_path(entries[k:], m - k) + [oracle_root(entries[:k])]


def oracle_consistency_path(entries: list[bytes], m: int, complete: bool = True) -> list[bytes]:
    n = len(entries)
    if m == n:
        return [] if complete else [oracle_root(entries)]
    k = oracle_split(n)
    if m <= k:
        return oracle_consistency_path(entries[:k], m, complete) + [oracle_root(entries[k:])]
    return oracle_consistency_path(entries[k:], m - k, False) + [oracle_root(entries[:k])]


def entries_for(n: int) -> list[bytes]:
    return [b"entry-%d" % i for i in range(n)]


def build_log(entries: list[bytes]) -> MerkleLog:
    log = MerkleLog()
    for e in entries:
        log.append_leaf_hash(leaf_hash(e))
    return log


# -- hashing primitives ----------------------------------------------


def test_leaf_hash_of_empty_input():
    # Oracle: reference SHA-256 of the single domain-separation byte.
    assert leaf_hash(b"") == hashlib.sha256(b"\x00").digest()


def test_leaf_hash_deterministic():
    d = b"some event bytes"
    assert leaf_hash(d) == leaf_hash(d)


def test_node_hash_matches_reference_preimage():
    a = hashlib.sha256(b"a").digest()
    b = hashlib.sha256(b"b").digest()
    assert node_hash(a, b) == hashlib.sha256(b"\x01" + a + b).digest()
    assert node_hash(a, b) != node_hash(b, a)


def test_node_hash_combines_subtree_roots():
    entries = entries_for(4)
    left = oracle_root(entries[:2])
    right = oracle_root(entries[2:])
    assert node_hash(left, right) == build_log(entries).root()


def test_empty_root_is_hash_of_empty_input():
    assert empty_root() == hashlib.sha256(b"").digest()
    assert MerkleLog().root() == hashlib.sha256(b"").digest()


def test_single_leaf_root_is_leaf():
    log = build_log([b"only"])
    assert log.root() == oracle_leaf(b"only")


def test_five_leaf_root_matches_oracle():
    entries = entries_for(5)
    assert build_log(entries).root() == oracle_root(entries)


def test_domain_separation_leaf_vs_interior():
    # No leaf hash of any log of size <= 8 collides with any interior node.
    rng = random.Random(42)
    for n in range(1, 9):
        entries = [rng.randbytes(16) for _ in range(n)]
        log = build_log(entries)
        leaf_hashes = {oracle_leaf(e) for e in entries}
        interior = set()
        for lo in range(n):
            for hi in range(lo + 2, n + 1):
                interior.add(oracle_root(entries[lo:hi]))
        # interior roots of multi-leaf ranges are node hashes
        assert leaf_hashes.isdisjoint(interior)


# -- roots: incremental vs from-scratch --------------------------------


@settings(max_examples=30, deadline=None)
@given(st.lists(st.binary(min_size=0, max_size=20), min_size=0, max_size=200))
def test_incremental_root_equals_from_scratch(entries):
    log = MerkleLog()
    for i, e in enumerate(entries):
        log.append_leaf_hash(leaf_hash(e))
        assert log.root() == oracle_root(entries[: i + 1])


def test_incremental_root_thousand_leaves():
    rng = random.Random(7)
    entries = [rng.randbytes(8) for _ in range(1000)]
    log = MerkleLog()
    checkpoints = {1, 2, 3, 5, 64, 65, 127, 128, 513, 1000}
    for i, e in enumerate(entries):
        log.append_leaf_hash(leaf_hash(e))
        if i + 1 in checkpoints:
            assert log.root() == oracle_root(entries[: i + 1])


def test_extended_root_previews_appends():
    entries = entries_for(11)
    log = build_log(entries[:7])
    root, size = log.extended_root([leaf_hash(e) for e in entries[7:]])
    assert size == 11
    assert root == oracle_root(entries)
    assert log.size == 7
    assert log.root() == oracle_root(entries[:7])


def test_root_at_prefix():
    entries = entries_for(9)
    log = build_log(entries)
    for m in range(10):
        assert log.root_at(m) == oracle_root(entries[:m])


# -- inclusion proofs ---------------------------------------------------


def test_inclusion_single_leaf_empty_path():
    log = build_log([b"x"])
    proof = log.prove_inclusion(0)
    assert proof.path == ()
    assert verify_inclusion(log.root(), oracle_leaf(b"x"), proof)


def test_inclusion_size8_paths_have_length3():
    entries = entries_for(8)
    log = build_log(entries)
    for i in range(8):
        proof = log.prove_inclusion(i)
        assert len(proof.path) == 3
        assert proof.path == tuple(oracle_inclusion_path(entries, i))


def test_inclusion_all_sizes_to_16_match_oracle_and_verify():
    for n in range(1, 17):
        entries = entries_for(n)
        log = build_log(entries)
        root = log.root()
        for i in range(n):
            proof = log.prove_inclusion(i)
            assert list(proof.path) == oracle_inclusion_path(entries, i)
            assert verify_inclusion(root, oracle_leaf(entries[i]), proof)


def test_inclusion_path_length_bound():
    for n in (1, 2, 3, 5, 8, 13, 21, 34, 55, 64):
        entries = entries_for(n)
        log = build_log(entries)
        bound = max(1, (n - 1).bit_length()) if n > 1 else 0
        for i in range(n):
            assert len(log.prove_inclusion(i).path) <= max(bound, 0) or n == 1


def test_inclusion_index_out_of_range():
    log = build_log(entries_for(3))
    with pytest.raises(IndexOutOfRange):
        log.prove_inclusion(3)
    with pytest.raises(IndexOutOfRange):
        log.prove_inclusion(-1)


def test_inclusion_rejects_mutations():
    rng = random.Random(99)
    entries = entries_for(13)
    log = build_log(entries)
    root = log.root()
    for _ in range(300):
        i = rng.randrange(13)
        proof = log.prove_inclusion(i)
        leaf = oracle_leaf(entries[i])
        # flip one bit somewhere in leaf, root, or a path element
        target = rng.randrange(2 + len(proof.path))
        bit = 1 << rng.randrange(8)
        pos = rng.randrange(32)
        if target == 0:
            bad = bytearray(leaf)
            bad[pos] ^= bit
            assert not verify_inclusion(root, bytes(bad), proof)
        elif target == 1:
            bad = bytearray(root)
            bad[pos] ^= bit
            assert not verify_inclusion(bytes(bad), leaf, proof)
        else:
            k = target - 2
            path = list(proof.path)
            bad = bytearray(path[k])
            bad[pos] ^= bit
            path[k] = bytes(bad)
            mutated = InclusionProof(proof.leaf_index, proof.tree_size, tuple(path))
            assert not verify_inclusion(root, leaf, mutated)


def test_inclusion_malformed_never_raises():
    log = build_log(entries_for(6))
    root = log.root()
    leaf = oracle_leaf(b"entry-2")
    good = log.prove_inclusion(2)
    assert not verify_inclusion(root, leaf, InclusionProof(2, 6, good.path[:-1]))
    assert not verify_inclusion(root, leaf, InclusionProof(2, 6, good.path + (b"\x00" * 32,)))
    assert not verify_inclusion(root, leaf, InclusionProof(6, 6, good.path))
    assert not verify_inclusion(root, leaf, InclusionProof(-1, 6, good.path))
    assert not verify_inclusion(root, leaf, InclusionProof(2, 0, good.path))
    assert not verify_inclusion(root, leaf, InclusionProof(2, 6, (b"short",) * 3))
    assert not verify_inclusion(b"nope", leaf, good)


# -- consistency proofs --------------------------------------------------


def test_consistency_identical_versions_empty_path():
    log = build_log(entries_for(5))
    proof = log.prove_consistency(5)
    assert proof.path == ()
    assert verify_consistency(log.root(), 5, log.root(), 5, proof)


def test_consistency_from_empty_prefix():
    log = build_log(entries_for(4))
    proof = log.prove_consistency(0)
    assert proof.path == ()
    assert verify_consistency(empty_root(), 0, log.root(), 4, proof)


def test_consistency_all_pairs_to_32_match_oracle_and_verify():
    max_n = 32
    entries = entries_for(max_n)
    roots = [oracle_root(entries[:m]) for m in range(max_n + 1)]
    for new in range(max_n + 1):
        log = build_log(entries[:new])
        for old in range(new + 1):
            proof = log.prove_consistency(old)
            if old not in (0, new):
                assert list(proof.path) == oracle_consistency_path(entries[:new], old)
            assert verify_consistency(roots[old], old, roots[new], new, proof)


def test_consistency_path_length_bound():
    for n in (2, 3, 5, 8, 13, 31, 64):
        log = build_log(entries_for(n))
        bound = (n - 1).bit_length() + 1
        for m in range(n + 1):
            assert len(log.prove_consistency(m).path) <= bound


def test_consistency_old_size_beyond_log():
    log = build_log(entries_for(3))
    with pytest.raises(IndexOutOfRange):
        log.prove_consistency(4)


def test_consistency_rejects_prefix_mutation():
    rng = random.Random(5)
    base = entries_for(20)
    old_root = oracle_root(base[:12])
    for _ in range(100):
        mutated = list(base)
        j = rng.randrange(12)
        mutated[j] = mutated[j] + b"!"
        tampered = build_log(mutated)
        proof = tampered.prove_consistency(12)
        assert not verify_consistency(old_root, 12, tampered.root(), 20, proof)


def test_consistency_suffix_append_is_consistent():
    base = entries_for(10)
    log = build_log(base + [b"later-1", b"later-2"])
    proof = log.prove_consistency(10)
    assert verify_consistency(oracle_root(base), 10, log.root(), 12, proof)


def test_consistency_malformed_never_raises():
    log = build_log(entries_for(9))
    old_root = oracle_root(entries_for(9)[:4])
    good = log.prove_consistency(4)
    new_root = log.root()
    assert not verify_consistency(old_root, 4, new_root, 9, ConsistencyProof(4, 9, good.path[:-1]))
    assert not verify_consistency(old_root, 4, new_root, 9, ConsistencyProof(4, 9, good.path + (b"\x01" * 32,)))
    assert not verify_consistency(old_root, 5, new_root, 9, good)
    assert not verify_consistency(old_root, 4, new_root, 8, good)
    assert not verify_consistency(old_root, 9, new_root, 4, ConsistencyProof(9, 4, ()))
    assert not verify_consistency(old_root, 4, new_root, 9, ConsistencyProof(4, 9, (b"x",)))
    # same size but different roots
    other = build_log(entries_for(8) + [b"odd one"])
    assert not verify_consistency(other.root(), 9, new_root, 9, ConsistencyProof(9, 9, ()))


# -- randomized mutation campaign ---------------------------------------


def test_mutation_campaign_consistency():
    rng = random.Random(123)
    entries = entries_for(24)
    log = build_log(entries)
    for _ in range(200):
        old = rng.randrange(1, 24)
        proof = log.prove_consistency(old)
        old_root = oracle_root(entries[:old])
        choice = rng.randrange(3)
        if choice == 0 and proof.path:
            k = rng.randrange(len(proof.path))
            path = list(proof.path)
            bad = bytearray(path[k])
            bad[rng.randrange(32)] ^= 1 << rng.randrange(8)
            path[k] = bytes(bad)
            assert not verify_consistency(
                old_root, old, log.root(), 24, ConsistencyProof(old, 24, tuple(path))
            )
        elif choice == 1:
            bad = bytearray(old_root)
            bad[rng.randrange(32)] ^= 1 << rng.randrange(8)
            assert not verify_consistency(bytes(bad), old, log.root(), 24, proof)
        else:
            bad = bytearray(log.root())
            bad[rng.randrange(32)] ^= 1 << rng.randrange(8)
            assert not verify_consistency(old_root, old, bytes(bad), 24, proof)


# -- cached subtree roots -------------------------------------------------


def oracle_prefix_roots(entries):
    return [oracle_root(entries[:m]) for m in range(len(entries) + 1)]


def assert_proofs_match_oracle(log, entries, prefix_roots, rng):
    """root_at at every size, and inclusion and consistency proofs at a few
    positions, equal the from-scratch oracle over ``entries``, whose prefix
    roots start ``prefix_roots``."""
    n = len(entries)
    assert log.size == n
    assert [log.root_at(m) for m in range(n + 1)] == prefix_roots[: n + 1]
    positions = {0, n // 2, n - 1, rng.randrange(n)}
    for i in positions:
        assert list(log.prove_inclusion(i).path) == oracle_inclusion_path(entries, i)
    for m in positions - {0}:  # sizes 0 and n give empty paths
        assert list(log.prove_consistency(m).path) == oracle_consistency_path(entries, m)


def test_cached_proofs_match_oracle_at_every_size():
    rng = random.Random(300)
    entries = entries_for(300)
    roots = oracle_prefix_roots(entries)
    log = MerkleLog()
    for n in range(1, 301):
        log.append_leaf_hash(leaf_hash(entries[n - 1]))
        assert log.root() == roots[n]
        assert_proofs_match_oracle(log, entries[:n], roots, rng)


def test_cached_proofs_survive_fork_and_extended_root():
    rng = random.Random(301)
    entries = entries_for(300)
    log = build_log(entries[:150])
    fork = log.fork()
    # previews must record nothing: later appends of other records would
    # otherwise land on stale subtree roots
    for k in (1, 2, 50, 150):
        assert log.extended_root([leaf_hash(b"preview-%d" % i) for i in range(k)])[0] == oracle_root(
            entries[:150] + [b"preview-%d" % i for i in range(k)]
        )
        fork.extended_root([leaf_hash(b"x")] * k)
    for e in entries[150:]:
        fork.append_leaf_hash(leaf_hash(e))
    roots = oracle_prefix_roots(entries)
    assert_proofs_match_oracle(log, entries[:150], roots, rng)
    assert_proofs_match_oracle(fork, entries, roots, rng)
    other = entries[:150] + [b"other-%d" % i for i in range(150)]
    for e in other[150:]:
        log.append_leaf_hash(leaf_hash(e))
    assert_proofs_match_oracle(log, other, oracle_prefix_roots(other), rng)
    assert_proofs_match_oracle(fork, entries, roots, rng)


def test_proofs_cost_logarithmic_node_hashes(monkeypatch):
    n = 2**16 + 3
    log = MerkleLog()
    for i in range(n):
        log.append_leaf_hash(hashlib.sha256(i.to_bytes(4, "big")).digest())
    root = log.root()
    bound = 2 * math.ceil(math.log2(n)) + 2
    calls = 0
    real_node_hash = merkle.node_hash

    def counting_node_hash(left, right):
        nonlocal calls
        calls += 1
        return real_node_hash(left, right)

    monkeypatch.setattr(merkle, "node_hash", counting_node_hash)
    for old in (1, 3, 2**15 + 1, 2**16, 2**16 + 1, n - 1):
        calls = 0
        proof = log.prove_consistency(old)
        assert calls <= bound
        assert verify_consistency(log.root_at(old), old, root, n, proof)
    for index in (0, 2**15 + 7, 2**16 - 1, 2**16, n - 1):
        calls = 0
        proof = log.prove_inclusion(index)
        assert calls <= bound
        assert verify_inclusion(root, log.leaf(index), proof)


def _observable(log: MerkleLog) -> tuple:
    """Everything a log answers: size, roots, leaves and every proof."""
    n = log.size
    return (
        n,
        log.root(),
        log.leaves(),
        [log.root_at(m) for m in range(n + 1)],
        [log.prove_inclusion(i) for i in range(n)],
        [log.prove_consistency(m) for m in range(n + 1)],
    )


@pytest.mark.parametrize("held", range(10))
def test_extend_equals_appends(held):
    # extend builds each level in one pass; it must leave the log exactly as
    # one append per entry would, on an empty log and on one already holding
    # leaves, and later appends must land on the same subtree roots
    for n in range(71):
        entries = entries_for(held + n + 3)
        appended, extended = build_log(entries[:held]), build_log(entries[:held])
        for e in entries[held : held + n]:
            appended.append_leaf_hash(leaf_hash(e))
        extended.extend(entries[held : held + n])
        assert (extended._levels, extended._peaks) == (appended._levels, appended._peaks)
        assert _observable(extended) == _observable(appended)
        for e in entries[held + n :]:
            appended.append_leaf_hash(leaf_hash(e))
            extended.append_leaf_hash(leaf_hash(e))
        assert _observable(extended) == _observable(appended)
    assert extended.root() == oracle_root(entries)


# -- serialization -------------------------------------------------------


def test_inclusion_proof_json_roundtrip():
    log = build_log(entries_for(7))
    proof = log.prove_inclusion(3)
    data = proof.to_json_bytes()
    assert InclusionProof.from_json_bytes(data) == proof
    # canonical fixpoint
    assert InclusionProof.from_json_bytes(data).to_json_bytes() == data


def test_consistency_proof_json_roundtrip():
    log = build_log(entries_for(7))
    proof = log.prove_consistency(3)
    data = proof.to_json_bytes()
    assert ConsistencyProof.from_json_bytes(data) == proof
    assert ConsistencyProof.from_json_bytes(data).to_json_bytes() == data


def test_proof_json_rejects_noncanonical():
    with pytest.raises(InvalidBody):
        InclusionProof.from_json_bytes(b'{"tree_size": 2, "leaf_index": 0, "path": []}')
    with pytest.raises(InvalidBody):
        ConsistencyProof.from_json_bytes(b'{"old_size":1,"new_size":2}')
    with pytest.raises(InvalidBody):
        InclusionProof.from_json_bytes(
            b'{"leaf_index":0,"path":["ABCD"],"tree_size":1}'
        )
    # a path that is not a list: a dict would iterate as its keys, an integer not at all
    with pytest.raises(InvalidBody):
        ConsistencyProof.from_json_bytes(b'{"new_size":2,"old_size":1,"path":{"' + b"ab" * 32 + b'":1}}')
    with pytest.raises(InvalidBody):
        InclusionProof.from_json_bytes(b'{"leaf_index":0,"path":5,"tree_size":1}')


# -- log hygiene ----------------------------------------------------------


def test_fork_is_independent():
    log = build_log(entries_for(4))
    fork = log.fork()
    fork.append_leaf_hash(leaf_hash(b"only in fork"))
    assert log.size == 4
    assert fork.size == 5
    assert log.root() == oracle_root(entries_for(4))


def test_append_leaf_hash_requires_digest():
    log = MerkleLog()
    with pytest.raises(InvalidBody):
        log.append_leaf_hash(b"not a digest")


def test_extended_root_requires_digests():
    # it takes leaf hashes; raw record bytes, hex or None are refused
    log = build_log(entries_for(3))
    for bad in (b"not a digest", leaf_hash(b"x").hex(), None):
        with pytest.raises(InvalidBody):
            log.extended_root([leaf_hash(b"a"), bad])
    assert log.size == 3 and log.root() == oracle_root(entries_for(3))
