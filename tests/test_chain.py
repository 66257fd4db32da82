"""Chain tests: scheduling oracle, production, validation verdicts, replay."""

import dataclasses
import functools
import hashlib
import json
import os
import pathlib
import random
import shutil
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from skyprov.chain import (
    Block,
    ChainState,
    Checkpoint,
    GenesisConfig,
    block_bytes,
    block_from_bytes,
    detect_equivocation,
    genesis_from_obj,
    genesis_to_obj,
    header_to_obj,
    load_block_file,
    load_chain,
    load_genesis,
    produce_block,
    replay_chain,
    save_block_file,
    save_chain,
    schedule,
    seeded_permutation,
    tx_tree_root,
    validate_block,
)
from skyprov import canonical as canonical_module
from skyprov import chain as chain_module
from skyprov import cli
from skyprov import keys as keys_module
from skyprov import model
from skyprov.canonical import loads_canonical, dumps_canonical
from skyprov.errors import AlreadyExists, InvalidBody, IoError, NotFound, NotScheduled
from skyprov.index import index_to_obj
from skyprov.merkle import ConsistencyProof, MerkleLog, leaf_hash, verify_consistency
from skyprov.model import (
    DeriveDataset,
    PublishDataset,
    body_from_obj,
    canonical_bytes,
    sign_transaction,
)

from conftest import key_for, make_dataset, make_roster, program_body, storage_body

HEX64 = hashlib.sha256(b"params").hexdigest()


# -- independent Fisher-Yates oracle -----------------------------------------


def oracle_permutation(items, seed: bytes):
    out = list(items)
    counter = 0
    for i in range(len(out) - 1, 0, -1):
        digest = hashlib.sha256(seed + counter.to_bytes(8, "big")).digest()
        counter += 1
        j = int.from_bytes(digest, "big") % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def test_seeded_permutation_matches_oracle():
    for n in range(1, 9):
        items = [f"h{i}" for i in range(n)]
        for salt in range(5):
            seed = hashlib.sha256(b"seed%d" % salt).digest()
            assert seeded_permutation(items, seed) == oracle_permutation(items, seed)


def test_seeded_permutation_is_permutation():
    items = [f"h{i}" for i in range(7)]
    seed = hashlib.sha256(b"p").digest()
    assert sorted(seeded_permutation(items, seed)) == sorted(items)


# -- schedule ------------------------------------------------------------------


def _config(handlers, mode="fixed"):
    return GenesisConfig(
        handlers=handlers, slot_duration_ms=100, ordering_mode=mode, genesis_time=1_000_000_000
    )


def test_fixed_schedule_round_robin():
    handlers, _ = make_roster(3)
    config = _config(handlers)
    seed = b"\x00" * 32
    assert schedule(0, config, seed) == "h0"
    assert schedule(7, config, seed) == "h1"  # 7 mod 3
    assert schedule(5, config, seed) == "h2"


def test_reshuffled_schedule_matches_oracle():
    handlers, _ = make_roster(5)
    config = _config(handlers, mode="reshuffled")
    seed = hashlib.sha256(b"cycle-seed").digest()
    perm = oracle_permutation([h for h, _ in handlers], seed)
    for slot in range(5):
        assert schedule(slot, config, seed) == perm[slot]
    # a different seed reorders (5! = 120, these two seeds differ)
    other = hashlib.sha256(b"other-seed").digest()
    assert oracle_permutation([h for h, _ in handlers], other) != perm


# -- genesis serialization --------------------------------------------------------


def test_genesis_roundtrip(roster3):
    handlers, _ = roster3
    config = _config(handlers)
    data = config.wire_bytes
    assert genesis_from_obj(loads_canonical(data)) == config
    assert len(config.hash) == 64
    assert config.hash == hashlib.sha256(data).hexdigest()


def test_genesis_rejects_duplicates_and_empty(roster3):
    handlers, _ = roster3
    with pytest.raises(InvalidBody):
        _config(()).wire_bytes
    with pytest.raises(InvalidBody):
        _config((handlers[0], handlers[0])).wire_bytes


# -- block production ---------------------------------------------------------------


def _submit_bootstrap(state, user, base_uri="/tmp/st-1"):
    state.submit(sign_transaction(storage_body(base_uri=base_uri), user, created_at=1))
    state.submit(sign_transaction(program_body(), user, created_at=2))


def _publish(state, user, ds_id, created_at, **kw):
    tx = sign_transaction(PublishDataset(make_dataset(ds_id, **kw)), user, created_at=created_at)
    state.submit(tx)
    return tx


def test_produce_block_drains_pool(chain3):
    state, keys = chain3
    user = key_for("user-1")
    _submit_bootstrap(state, user)
    _publish(state, user, "ds-0", 3)
    block = produce_block(state, 0, keys["h0"], now=state.slot_start_time(0))
    assert len(block.transactions) == 3
    assert block.header.height == 0
    assert block.header.registry_size == 3
    assert validate_block(state, block).ok
    state.apply_block(block)
    assert state.registry_log.size == 3
    assert state.pending_pool == {}


def test_pool_drain_order_is_created_at_then_txid(chain3):
    state, keys = chain3
    user = key_for("user-1")
    _submit_bootstrap(state, user)
    for i, ds in enumerate(["ds-c", "ds-a", "ds-b"]):
        _publish(state, user, ds, 10 + (2 - i))  # reversed submission times
    block = produce_block(state, 0, keys["h0"], now=state.slot_start_time(0))
    datasets = [tx.body.dataset.dataset_id for tx in block.transactions[2:]]
    assert datasets == ["ds-b", "ds-a", "ds-c"]


def test_empty_pool_produces_empty_block(chain3):
    state, keys = chain3
    b0 = produce_block(state, 0, keys["h0"], now=state.slot_start_time(0))
    assert b0.transactions == ()
    assert b0.header.registry_size == 0
    assert b0.header.registry_root == state.registry_log.root().hex()
    assert b0.header.tx_root == hashlib.sha256(b"").hexdigest()
    assert validate_block(state, b0).ok


def test_invalid_pool_tx_is_excluded_with_reason(chain3):
    state, keys = chain3
    user = key_for("user-1")
    _submit_bootstrap(state, user)
    for i in range(3):
        _publish(state, user, f"ds-{i}", 10 + i)
    bad = sign_transaction(
        PublishDataset(make_dataset("ds-bad", storage_id="st-ghost")), user, created_at=14
    )
    state.submit(bad)
    accepted, rejected = state.select_transactions()
    assert len(accepted) == 5
    assert [tx.tx_id for tx, _ in rejected] == [bad.tx_id]
    assert rejected[0][1].reason == "UnknownStorage"
    block = produce_block(state, 0, keys["h0"], now=state.slot_start_time(0))
    assert len(block.transactions) == 5
    assert validate_block(state, block).ok


def test_produce_wrong_slot_or_key(chain3):
    state, keys = chain3
    with pytest.raises(NotScheduled):
        produce_block(state, 0, keys["h1"], now=0)  # slot 0 belongs to h0
    with pytest.raises(NotScheduled):
        produce_block(state, 0, key_for("outsider"), now=0)
    state.apply_block(produce_block(state, 0, keys["h0"], now=0))
    with pytest.raises(NotScheduled):
        produce_block(state, 0, keys["h0"], now=0)  # slot not after head


# -- chain building helpers ---------------------------------------------------------


def build_chain(state, keys, n_slots, skip=(), user=None, txs_per_slot=1):
    """Produce blocks for n_slots consecutive slots, skipping some."""
    user = user or key_for("user-1")
    _submit_bootstrap(state, user)
    ds = 0
    for slot in range(n_slots):
        if slot in skip:
            continue
        for _ in range(txs_per_slot):
            _publish(state, user, f"ds-{ds}", 100 + ds, start=ds * 10, end=ds * 10 + 5)
            ds += 1
        handler = state.scheduled_handler(slot)
        block = produce_block(state, slot, keys[handler], now=state.slot_start_time(slot))
        assert validate_block(state, block).ok
        state.apply_block(block)
    return state


def test_missed_slots_leave_gaps_with_dense_heights(chain3):
    state, keys = chain3
    build_chain(state, keys, 5, skip={2})
    slots = [b.header.slot for b in state.blocks]
    heights = [b.header.height for b in state.blocks]
    assert slots == [0, 1, 3, 4]
    assert heights == [0, 1, 2, 3]


def test_all_handlers_missing_one_cycle_leaves_chain_unchanged(chain3):
    state, keys = chain3
    build_chain(state, keys, 3)
    head = state.head_hash()
    assert state.head_hash() == head
    # recovery after the gap validates
    handler = state.scheduled_handler(6)
    block = produce_block(state, 6, keys[handler], now=state.slot_start_time(6))
    assert validate_block(state, block).ok


# -- validation verdicts --------------------------------------------------------------


def _tamper_header(block, **changes):
    return Block(header=dataclasses.replace(block.header, **changes), transactions=block.transactions)


def test_validate_block_verdicts(chain3):
    state, keys = chain3
    user = key_for("user-1")
    build_chain(state, keys, 2)
    slot = 2
    handler = state.scheduled_handler(slot)
    good = produce_block(state, slot, keys[handler], now=state.slot_start_time(slot))

    assert validate_block(state, _tamper_header(good, height=5)).reason == "BadLink"
    assert validate_block(state, _tamper_header(good, prev_block_hash=HEX64)).reason == "BadLink"
    assert validate_block(state, _tamper_header(good, slot=1)).reason == "BadSlot"

    # signed by a roster member that does not own the slot
    wrong = state.scheduled_handler(slot + 1)
    unsigned = dataclasses.replace(good.header, creator=wrong, signature="0" * 128)
    resigned = dataclasses.replace(
        unsigned, signature=keys[wrong].sign(unsigned.signing_bytes).hex()
    )
    assert validate_block(state, Block(resigned, good.transactions)).reason == "NotScheduledHandler"

    # correct creator field, wrong signing key
    forged_sig = dataclasses.replace(good.header, signature="0" * 128)
    forged_sig = dataclasses.replace(
        forged_sig, signature=keys[wrong].sign(forged_sig.signing_bytes).hex()
    )
    assert validate_block(state, Block(forged_sig, good.transactions)).reason == "BadSignature"

    # transactions swapped out from under the header
    extra_tx = sign_transaction(PublishDataset(make_dataset("ds-zzz")), user, created_at=999)
    assert validate_block(state, Block(good.header, good.transactions + (extra_tx,))).reason == "BadTxRoot"

    # internally consistent block carrying an invalid transaction
    bad_tx = sign_transaction(
        PublishDataset(make_dataset("ds-ghost", storage_id="st-ghost")), user, created_at=999
    )
    txs = good.transactions + (bad_tx,)
    leaves = [t.leaf_hash for t in txs]
    root, size = state.registry_log.extended_root(leaves)
    h = dataclasses.replace(
        good.header,
        tx_root=tx_tree_root(leaves),
        registry_root=root.hex(),
        registry_size=size,
        signature="0" * 128,
    )
    h = dataclasses.replace(h, signature=keys[handler].sign(h.signing_bytes).hex())
    assert validate_block(state, Block(h, txs)).reason == "InvalidTransaction"

    # registry commitment drifts from the extended log
    h = dataclasses.replace(good.header, registry_root=HEX64, signature="0" * 128)
    h = dataclasses.replace(h, signature=keys[handler].sign(h.signing_bytes).hex())
    assert validate_block(state, Block(h, good.transactions)).reason == "BadRegistryCommitment"

    assert validate_block(state, good).ok


def test_tx_tree_root_takes_leaf_hashes():
    tx = sign_transaction(PublishDataset(make_dataset("ds-leaf")), key_for("user-1"), created_at=999)
    assert tx.leaf_hash == hashlib.sha256(b"\x00" + tx.wire_bytes).digest()
    assert tx_tree_root([tx.leaf_hash]) == tx.leaf_hash.hex()  # a one-leaf tree's root is its leaf
    with pytest.raises(InvalidBody):
        tx_tree_root([tx.wire_bytes])


def test_forged_suffix_requires_all_scheduled_keys(chain3):
    state, keys = chain3
    build_chain(state, keys, 3)
    attacker = keys["h1"]
    # h1 tries to extend with blocks for slots 3 and 4 (scheduled: h0, h1)
    forged = produce_block(state, 4, attacker, now=state.slot_start_time(4))
    fake3 = dataclasses.replace(forged.header, slot=3, signature="0" * 128)
    fake3 = dataclasses.replace(fake3, signature=attacker.sign(fake3.signing_bytes).hex())
    verdict = validate_block(state, Block(fake3, forged.transactions))
    assert verdict.reason == "NotScheduledHandler"
    # with the genuinely scheduled keys, the suffix extends fine
    for slot in (3, 4):
        handler = state.scheduled_handler(slot)
        block = produce_block(state, slot, keys[handler], now=state.slot_start_time(slot))
        assert validate_block(state, block).ok
        state.apply_block(block)


# -- reshuffled mode end-to-end --------------------------------------------------------


def test_reshuffled_chain_produces_and_revalidates():
    handlers, keys = make_roster(4)
    config = GenesisConfig(
        handlers=handlers, slot_duration_ms=50, ordering_mode="reshuffled", genesis_time=0
    )
    state = ChainState(config)
    user = key_for("user-1")
    state.submit(sign_transaction(storage_body(), user, created_at=1))
    for slot in range(10):
        handler = state.scheduled_handler(slot)
        block = produce_block(state, slot, keys[handler], now=state.slot_start_time(slot))
        assert validate_block(state, block).ok
        state.apply_block(block)
    # replay from scratch agrees slot-by-slot, across cycle reseeds
    replay = ChainState(config)
    for block in state.blocks:
        assert replay.scheduled_handler(block.header.slot) == block.header.creator
        assert replay.receive_block(block).ok
    assert replay.head_hash() == state.head_hash()


def test_reshuffle_seed_changes_between_cycles():
    handlers, keys = make_roster(5)
    config = GenesisConfig(
        handlers=handlers, slot_duration_ms=50, ordering_mode="reshuffled", genesis_time=0
    )
    state = ChainState(config)
    seed0 = state.seed_for_slot(0)
    assert seed0 == bytes.fromhex(config.hash)
    for slot in range(5):
        handler = state.scheduled_handler(slot)
        state.apply_block(produce_block(state, slot, keys[handler], now=0))
    seed1 = state.seed_for_slot(5)
    assert seed1 == bytes.fromhex(state.blocks[-1].header.hash)
    assert seed1 != seed0


# -- checkpoints and consistency ---------------------------------------------------------


def test_checkpoint_empty_chain(chain3):
    state, _ = chain3
    cp = state.checkpoint()
    assert cp.registry_size == 0
    assert cp.height == -1
    assert cp.head_hash == state.config.hash
    assert cp.registry_root == hashlib.sha256(b"").hexdigest()


def test_checkpoint_counts_confirmed_txs(chain3):
    state, keys = chain3
    build_chain(state, keys, 3)
    assert state.checkpoint().registry_size == 2 + 3  # bootstrap pair + one per slot


def test_checkpoint_pairs_prove_consistent(chain3):
    state, keys = chain3
    user = key_for("user-1")
    _submit_bootstrap(state, user)
    checkpoints = [state.checkpoint()]
    ds = 0
    for slot in range(6):
        for _ in range(2):
            _publish(state, user, f"ds-{ds}", 100 + ds)
            ds += 1
        handler = state.scheduled_handler(slot)
        state.apply_block(produce_block(state, slot, keys[handler], now=state.slot_start_time(slot)))
        checkpoints.append(state.checkpoint())
    for i, c1 in enumerate(checkpoints):
        for c2 in checkpoints[i:]:
            log = state.registry_log
            proof = ConsistencyProof(
                old_size=c1.registry_size,
                new_size=c2.registry_size,
                path=tuple(
                    p
                    for p in _prefix_proof(log, c1.registry_size, c2.registry_size)
                ),
            )
            assert verify_consistency(
                bytes.fromhex(c1.registry_root),
                c1.registry_size,
                bytes.fromhex(c2.registry_root),
                c2.registry_size,
                proof,
            )


def _prefix_proof(log, old_size, new_size):
    # prove against the log as it stood at new_size leaves
    from skyprov.merkle import MerkleLog

    sub = MerkleLog()
    for leaf in log.leaves()[:new_size]:
        sub.append_leaf_hash(leaf)
    return sub.prove_consistency(old_size).path


def test_checkpoint_obj_roundtrip(chain3):
    state, keys = chain3
    build_chain(state, keys, 2)
    cp = state.checkpoint()
    assert Checkpoint.from_obj(cp.to_obj()) == cp
    with pytest.raises(InvalidBody):
        Checkpoint.from_obj({"height": 0})


# -- equivocation ---------------------------------------------------------------------


def test_detect_equivocation(chain3):
    state, keys = chain3
    a = produce_block(state, 0, keys["h0"], now=state.slot_start_time(0))
    b = produce_block(state, 0, keys["h0"], now=state.slot_start_time(0) + 1)
    evidence = detect_equivocation(a.header, b.header, state.config)
    assert evidence is not None
    assert evidence.creator == "h0"
    assert evidence.slot == 0
    assert evidence.header_hashes == tuple(sorted((a.header.hash, b.header.hash)))


def test_detect_equivocation_negative_cases(chain3):
    state, keys = chain3
    a = produce_block(state, 0, keys["h0"], now=0)
    assert detect_equivocation(a.header, a.header, state.config) is None
    state.apply_block(a)
    b = produce_block(state, 3, keys["h0"], now=0)
    assert detect_equivocation(a.header, b.header, state.config) is None  # different slots
    forged = dataclasses.replace(a.header, timestamp=99, signature=a.header.signature)
    assert detect_equivocation(a.header, forged, state.config) is None  # signature invalid


# -- disk store and replay ----------------------------------------------------------------


def test_save_and_replay_roundtrip(chain3, tmp_path):
    state, keys = chain3
    build_chain(state, keys, 5, skip={3})
    save_chain(state, str(tmp_path))
    assert load_genesis(str(tmp_path)) == state.config
    replayed, results, failure = replay_chain(str(tmp_path))
    assert failure is None
    assert all(v.ok for _, v in results)
    assert replayed.head_hash() == state.head_hash()
    assert replayed.registry_log.root() == state.registry_log.root()
    assert replayed.blocks is None  # a replay keeps head state only
    stored = [load_block_file(str(tmp_path), height) for height in range(replayed.head_height + 1)]
    assert [b.header.slot for b in stored] == [b.header.slot for b in state.blocks]
    assert replayed.registry.datasets.keys() == state.registry.datasets.keys()


def test_block_files_are_canonical_bytes(chain3, tmp_path):
    state, keys = chain3
    build_chain(state, keys, 2)
    save_chain(state, str(tmp_path))
    raw = (tmp_path / "block_0.json").read_bytes()
    assert raw.endswith(b"\n")
    assert block_bytes(block_from_bytes(raw[:-1])) == raw[:-1]


def test_replay_detects_tampered_tx(chain3, tmp_path):
    state, keys = chain3
    build_chain(state, keys, 4)
    save_chain(state, str(tmp_path))
    # canonical rewrite of one dataset field inside block 1
    path = tmp_path / "block_1.json"
    obj = loads_canonical(path.read_bytes()[:-1])
    obj["transactions"][0]["body"]["dataset"]["extra"]["tampered"] = "1"
    path.write_bytes(dumps_canonical(obj) + b"\n")
    _, results, failure = replay_chain(str(tmp_path))
    assert failure is not None
    height, verdict = failure
    assert height <= 1
    assert verdict.reason == "BadTxRoot"
    with pytest.raises(InvalidBody):
        load_chain(str(tmp_path))


def test_replay_detects_recommitted_tx_without_resign(chain3, tmp_path):
    # attacker fixes tx_root but cannot re-sign: BadSignature
    state, keys = chain3
    build_chain(state, keys, 4)
    save_chain(state, str(tmp_path))
    path = tmp_path / "block_1.json"
    obj = loads_canonical(path.read_bytes()[:-1])
    obj["transactions"][0]["body"]["dataset"]["extra"]["tampered"] = "1"
    block = block_from_bytes(dumps_canonical(obj))
    fixed_root = tx_tree_root([t.leaf_hash for t in block.transactions])
    obj["header"]["tx_root"] = fixed_root
    path.write_bytes(dumps_canonical(obj) + b"\n")
    _, _, failure = replay_chain(str(tmp_path))
    assert failure is not None and failure[1].reason == "BadSignature"


def test_replay_detects_registry_commitment_break(chain3, tmp_path):
    # the block's own creator rewrites a tx, fixes tx_root, re-signs with its
    # real key, but the registry commitment no longer recomputes
    state, keys = chain3
    build_chain(state, keys, 4)
    save_chain(state, str(tmp_path))
    path = tmp_path / "block_1.json"
    obj = loads_canonical(path.read_bytes()[:-1])
    obj["transactions"][0]["body"]["dataset"]["extra"]["tampered"] = "1"
    # recompute tx ids/signature so the transaction itself stays valid
    from skyprov.model import body_from_obj

    user = key_for("user-1")
    body = body_from_obj(obj["transactions"][0]["body"])
    fixed_tx = sign_transaction(body, user, created_at=obj["transactions"][0]["created_at"])
    obj["transactions"][0] = loads_canonical(fixed_tx.wire_bytes)
    block = block_from_bytes(dumps_canonical(obj))
    creator = block.header.creator
    h = dataclasses.replace(
        block.header,
        tx_root=tx_tree_root([t.leaf_hash for t in block.transactions]),
        signature="0" * 128,
    )
    h = dataclasses.replace(h, signature=keys[creator].sign(h.signing_bytes).hex())
    path.write_bytes(block_bytes(Block(h, block.transactions)) + b"\n")
    _, _, failure = replay_chain(str(tmp_path))
    assert failure is not None
    assert failure[0] == 1
    assert failure[1].reason == "BadRegistryCommitment"


def test_replay_detects_noncanonical_block_file(chain3, tmp_path):
    state, keys = chain3
    build_chain(state, keys, 2)
    save_chain(state, str(tmp_path))
    path = tmp_path / "block_0.json"
    raw = path.read_bytes()
    path.write_bytes(raw[:-1] + b" \n")  # trailing space breaks canonical form
    _, _, failure = replay_chain(str(tmp_path))
    assert failure is not None and failure[1].reason == "InvalidBody"


def test_replay_rejects_lone_surrogate_in_stored_string(chain3, tmp_path):
    state, keys = chain3
    build_chain(state, keys, 2)
    save_chain(state, str(tmp_path))
    path = tmp_path / "block_0.json"
    raw = path.read_bytes()
    forged = raw.replace(b'"base_uri":"/tmp/st-1"', b'"base_uri":"\\ud800"', 1)
    assert forged != raw
    path.write_bytes(forged)
    _, results, failure = replay_chain(str(tmp_path))
    assert failure is not None
    assert failure[0] == 0 and failure[1].reason == "InvalidBody"
    assert results == [failure]


def test_replay_rejects_non_dense_store(chain3, tmp_path):
    state, keys = chain3
    build_chain(state, keys, 4)
    save_chain(state, str(tmp_path))
    (tmp_path / "block_1.json").unlink()
    with pytest.raises(IoError):
        replay_chain(str(tmp_path))


def test_header_mutation_campaign(chain3, tmp_path):
    # flipping any header field of any stored block breaks replay
    state, keys = chain3
    build_chain(state, keys, 4)
    save_chain(state, str(tmp_path))
    rng = random.Random(3)
    fields = ["prev_block_hash", "tx_root", "registry_root", "registry_size", "timestamp", "creator", "height", "slot"]
    for field in fields:
        path = tmp_path / "block_2.json"
        original = path.read_bytes()
        obj = loads_canonical(original[:-1])
        if isinstance(obj["header"][field], int):
            obj["header"][field] += 1
        elif field == "creator":
            obj["header"][field] = "h-impostor"
        else:
            value = obj["header"][field]
            flipped = hex(int(value[0], 16) ^ 1)[2:] + value[1:]
            obj["header"][field] = flipped
        path.write_bytes(dumps_canonical(obj) + b"\n")
        _, _, failure = replay_chain(str(tmp_path))
        assert failure is not None, f"mutating {field} went undetected"
        assert failure[0] <= 2
        path.write_bytes(original)
    _, _, failure = replay_chain(str(tmp_path))
    assert failure is None


# -- replay golden -----------------------------------------------------------------------


def _golden_store(chain_dir):
    """A reshuffled-mode store of 7 blocks / 15 txs, with a missed slot at a
    cycle boundary, a derived dataset and a register_program mid-chain."""
    handlers, keys = make_roster(3)
    config = GenesisConfig(
        handlers=handlers, slot_duration_ms=100, ordering_mode="reshuffled", genesis_time=1_000_000_000
    )
    state = ChainState(config)
    user = key_for("user-1")
    _submit_bootstrap(state, user)
    ds = 0
    for slot in range(8):
        if slot == 3:
            continue
        for _ in range(2):
            _publish(state, user, f"ds-{ds}", 100 + ds, start=ds * 10, end=ds * 10 + 5, extra={"n": str(ds)})
            ds += 1
        if slot == 5:
            state.submit(sign_transaction(program_body("prog-2", "2.0"), user, created_at=500))
            state.submit(
                sign_transaction(
                    DeriveDataset(make_dataset("ds-d", kind="secondary"), ("ds-0", "ds-1"), "prog-1", "1.0", HEX64),
                    user,
                    created_at=501,
                )
            )
        handler = state.scheduled_handler(slot)
        state.apply_block(produce_block(state, slot, keys[handler], now=state.slot_start_time(slot)))
    save_chain(state, str(chain_dir))
    return keys


def _rewrite_block(chain_dir, height, edit):
    path = chain_dir / f"block_{height}.json"
    obj = loads_canonical(path.read_bytes()[:-1])
    edit(obj)
    path.write_bytes(dumps_canonical(obj) + b"\n")


def _resign_header(obj, key):
    block = block_from_bytes(dumps_canonical(obj))
    h = dataclasses.replace(
        block.header,
        tx_root=tx_tree_root([t.leaf_hash for t in block.transactions]),
        signature="0" * 128,
    )
    obj["header"] = loads_canonical(
        block_bytes(Block(dataclasses.replace(h, signature=key.sign(h.signing_bytes).hex()), ()))
    )["header"]


def _replay_record(chain_dir):
    state, results, failure = replay_chain(str(chain_dir))
    return {
        "failure": None if failure is None else failure[0],
        "head_hash": state.head_hash(),
        "leaves": [leaf.hex() for leaf in state.registry_log.leaves()],
        "registry_root": state.registry_log.root().hex(),
        "verdicts": [[height, verdict.reason or "ok", verdict.detail] for height, verdict in results],
    }


# sha256 of each case's canonical replay record: per-block verdicts with their
# details, head hash, registry root and every registry-log leaf.
REPLAY_GOLDENS = {
    "honest": "28f340cb4091ea216d3ac71dce13264cd9bb04638db7f7d41d42dfb95a42de54",
    "tampered_body": "154024c2c6284d32594d75ce0214e7f06cf897054d85fb77cd0666a2fd82f37a",
    "resigned_tx": "3785b6d2af881eab0d6113c5a643a60a06584f6db944d25098067e5e3b4b6553",
    "impostor_tx": "2ef156d0c395f2547d050dbfdf268d49a19bf9af30ac65f695909e1bfe68529e",
    "noncanonical": "054fb46bbecd1bb4760271ea594316385a004b99eeecc4873a3807a04342513e",
}


def _damage_golden(chain_dir, case, keys):
    """Apply one REPLAY_GOLDENS case's damage to a _golden_store."""
    user = key_for("user-1")

    def tamper(obj):
        obj["transactions"][0]["body"]["dataset"]["extra"]["tampered"] = "1"

    def resign_tx(obj):
        # the tx stays valid and the header verifies; the registry commitment breaks
        tamper(obj)
        tx_obj = obj["transactions"][0]
        fixed = sign_transaction(body_from_obj(tx_obj["body"]), user, created_at=tx_obj["created_at"])
        obj["transactions"][0] = loads_canonical(fixed.wire_bytes)
        _resign_header(obj, keys[obj["header"]["creator"]])

    def impostor_tx(obj):
        # the tx names another creator over the same signature: BadSignature
        obj["transactions"][1]["creator"] = key_for("impostor").public_hex
        _resign_header(obj, keys[obj["header"]["creator"]])

    if case == "tampered_body":
        _rewrite_block(chain_dir, 2, tamper)
    elif case == "resigned_tx":
        _rewrite_block(chain_dir, 4, resign_tx)
    elif case == "impostor_tx":
        _rewrite_block(chain_dir, 5, impostor_tx)
    elif case == "noncanonical":
        path = chain_dir / "block_3.json"
        path.write_bytes(path.read_bytes()[:-1] + b" \n")


@pytest.mark.parametrize("case", sorted(REPLAY_GOLDENS))
def test_replay_golden(case, tmp_path):
    _damage_golden(tmp_path, case, _golden_store(tmp_path))
    record = _replay_record(tmp_path)
    assert hashlib.sha256(dumps_canonical(record)).hexdigest() == REPLAY_GOLDENS[case]


@pytest.mark.parametrize("name", ["block_3.json", "genesis.json"])
def test_stored_files_must_end_with_their_newline(name, tmp_path, capsys):
    # Each stored file is saved ending in "\n", and the head cache's restore
    # requires it of a block file. A file that lost its last byte fails the
    # replay too, so a warm command gets the replay's verdict and leaves the
    # cache as it was.
    chain_dir = tmp_path / "chain"
    _golden_store(chain_dir)
    load_chain(str(chain_dir))
    cache = (chain_dir / chain_module.HEAD_CACHE).read_bytes()
    path = chain_dir / name
    path.write_bytes(path.read_bytes()[:-1])
    if name == "genesis.json":
        with pytest.raises(InvalidBody, match="^genesis does not end with a newline$"):
            replay_chain(str(chain_dir))
    else:
        _, results, failure = replay_chain(str(chain_dir))
        assert failure == results[-1] and failure[0] == 3
        assert (failure[1].reason, failure[1].detail) == ("InvalidBody", "block file does not end with a newline")
    code, out = _cli_outcome(capsys, "query", "--chain", chain_dir, "--where", "facility=TAIGA")
    assert code == 3 and json.loads(out)["error"] == "InvalidBody"
    assert (chain_dir / chain_module.HEAD_CACHE).read_bytes() == cache


# -- parse once, verify once ---------------------------------------------------------------


def test_replay_validates_and_encodes_each_tx_once(tmp_path, monkeypatch):
    _golden_store(tmp_path)
    validated = []
    original_validate = model.validate_dataset
    monkeypatch.setattr(model, "validate_dataset", lambda ds: validated.append(ds) or original_validate(ds))
    encodes = []
    original_encode = canonical_module._encoder.encode
    monkeypatch.setattr(canonical_module._encoder, "encode", lambda value: encodes.append(1) or original_encode(value))
    state, _, failure = replay_chain(str(tmp_path))
    assert failure is None
    n_blocks = state.head_height + 1
    n_txs = state.registry_log.size
    assert len(validated) == len(state.registry.datasets)
    # one per tx (the object scanned from its bytes); per block, the header's
    # scanned object, whose bytes its signing bytes are cut from; the
    # genesis's wire bytes
    assert len(encodes) == n_txs + n_blocks + 1


def test_header_signing_bytes_are_cut_from_wire_bytes(chain3, tmp_path):
    # produced headers, the unsigned one carrying the placeholder signature,
    # and headers read back from block files
    state, keys = chain3
    produced = produce_block(state, 0, keys["h0"], now=state.slot_start_time(0)).header
    _golden_store(tmp_path)
    read = [load_block_file(str(tmp_path), h).header for h in range(load_chain(str(tmp_path)).head_height + 1)]
    for header in [produced, dataclasses.replace(produced, signature="0" * 128), *read]:
        core = {name: value for name, value in json.loads(header.wire_bytes).items() if name != "signature"}
        assert header.signing_bytes == dumps_canonical(core)


def _record_skyprov_calls(monkeypatch, module, name):
    """Wrap module.name wherever a skyprov module binds it; returns the list
    of first arguments it is called with."""
    original = getattr(module, name)
    calls = []

    def recording(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "skyprov" and vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, recording)
    return calls


def test_block_files_are_read_by_the_frame_walk_alone(tmp_path, monkeypatch):
    # A replay builds each part from the object scanned from its exact
    # bytes, so no body, dataset or header is rebuilt as an object to be
    # encoded, and no block file or genesis is parsed whole. A warm load
    # reads every covered block file by the same walk.
    _golden_store(tmp_path)
    rebuilt = {(module.__name__, name): _record_skyprov_calls(monkeypatch, module, name)
               for module, name in ((model, "body_to_obj"), (model, "dataset_to_obj"), (chain_module, "header_to_obj"))}
    parsed = _record_skyprov_calls(monkeypatch, canonical_module, "parse_json")
    walked = _record_skyprov_calls(monkeypatch, chain_module, "_block_parts")
    state, _, failure = replay_chain(str(tmp_path))
    assert failure is None and state.head_height == 6
    assert {key: len(calls) for key, calls in rebuilt.items()} == dict.fromkeys(rebuilt, 0)
    assert parsed == []
    assert len(walked) == 7
    load_chain(str(tmp_path))  # writes the head cache
    parsed.clear()
    walked.clear()
    assert load_chain(str(tmp_path)).head_hash() == state.head_hash()
    assert parsed == []
    assert len(walked) == 7
    assert {key: len(calls) for key, calls in rebuilt.items()} == dict.fromkeys(rebuilt, 0)


def _capture_applied_blocks(monkeypatch):
    """The list that each block ChainState.apply_block applies is appended to."""
    applied = []
    original_apply = ChainState.apply_block
    monkeypatch.setattr(ChainState, "apply_block",
                        lambda state, block: applied.append(block) or original_apply(state, block))
    return applied


def test_replayed_transactions_share_one_creator_string_per_key(tmp_path, monkeypatch):
    # a replay's window holds many transactions, and most share a few creator keys
    _golden_store(tmp_path)
    applied = _capture_applied_blocks(monkeypatch)
    _, _, failure = replay_chain(str(tmp_path))
    assert failure is None
    creators = [tx.creator for b in applied for tx in b.transactions]
    assert len(creators) > len(set(creators))
    assert len({id(c) for c in creators}) == len(set(creators))


_INSTANCE_DICT_SIZES = """
import sys
from skyprov import chain
chain_dir, how = sys.argv[1:]
blocks = []  # each block applied, kept past the replay
apply_block = chain.ChainState.apply_block
chain.ChainState.apply_block = lambda state, block: blocks.append(block) or apply_block(state, block)
if how == "replay":
    state, _, failure = chain.replay_chain(chain_dir)
    assert failure is None
else:  # each block validated as soon as it is read
    state, heights = chain.open_store(chain_dir)
    for height in heights:
        block = chain.load_block_file(chain_dir, height)
        assert chain.validate_block(state, block).ok
        state.apply_block(block)
print(max(sys.getsizeof(vars(tx)) for b in blocks for tx in b.transactions),
      max(sys.getsizeof(vars(b.header)) for b in blocks),
      max(sys.getsizeof(vars(b)) for b in blocks))
"""


def test_reading_blocks_ahead_keeps_instance_dicts_small(chain3, tmp_path):
    # A replay reads a window of blocks before it validates any. That must
    # leave each transaction's, header's and block's instance dict no larger than
    # validating each block as it is read does. Each way runs in a fresh
    # interpreter, whose classes have not yet shared any attribute keys.
    state, keys = chain3
    build_chain(state, keys, 40, txs_per_slot=2)
    save_chain(state, str(tmp_path))
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    sizes = {}
    for how in ("replay", "serial"):
        proc = subprocess.run([sys.executable, "-c", _INSTANCE_DICT_SIZES, str(tmp_path), how],
                              capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        sizes[how] = [int(size) for size in proc.stdout.split()]
    assert all(replayed <= serial for replayed, serial in zip(sizes["replay"], sizes["serial"])), sizes


_SIM_INSTANCE_DICT_SIZES = """
import json, sys
from skyprov import chain, netsim
chain_dir, config = sys.argv[1:]
sim = netsim.Simulation(netsim.sim_config_from_obj(json.loads(config)))
sim.run()
print(max(sys.getsizeof(vars(tx)) for node in sim.nodes.values() for b in node.state.blocks for tx in b.transactions))
chain.save_chain(sim.nodes["h0"].state, chain_dir)
"""


def test_simulated_transactions_keep_instance_dicts_as_small_as_replayed_ones(tmp_path):
    # A sim signs its whole workload before any node reads a transaction.
    # Each transaction a node holds must still have an instance dict no
    # larger than the same transaction replayed from a store, each side in
    # a fresh interpreter.
    config = json.dumps({
        "seed": 301, "handlers": 5, "slot_duration_ms": 100, "duration_slots": 48,
        "latency_ms": {"min": 5, "max": 60}, "txs_per_slot": 3,
        "faults": [{"kind": "offline", "handler": "h2", "from_slot": 10, "to_slot": 14},
                   {"kind": "tamper_history", "handler": "h4", "slot": 30, "height": 5, "resign": 1}],
    })
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    sizes = []
    for script, args in ((_SIM_INSTANCE_DICT_SIZES, (config,)), (_INSTANCE_DICT_SIZES, ("replay",))):
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path), *args],
                              capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0, proc.stderr
        sizes.append(int(proc.stdout.split()[0]))
    simulated, replayed = sizes
    assert simulated <= replayed, sizes


def test_replay_checks_block_files_against_their_parts(tmp_path, monkeypatch):
    # A block file is accepted only as the join of its parts' wire bytes, and
    # genesis.json only as the genesis's wire bytes, so replay never calls
    # loads_canonical: the genesis is encoded once, each transaction once
    # (the object scanned from its bytes; its body's bytes are a slice of
    # them), and each header once (its scanned object; its signing bytes are
    # a slice of its wire bytes).
    _golden_store(tmp_path)
    applied = _capture_applied_blocks(monkeypatch)
    parsed = []
    original_loads = canonical_module.loads_canonical
    monkeypatch.setattr(canonical_module, "loads_canonical", lambda data: parsed.append(data) or original_loads(data))
    encoded = []
    original_encode = canonical_module._encoder.encode
    monkeypatch.setattr(canonical_module._encoder, "encode", lambda value: encoded.append(value) or original_encode(value))
    state, _, failure = replay_chain(str(tmp_path))
    assert failure is None
    assert parsed == []
    headers = [header_to_obj(b.header) for b in applied]
    txs = [json.loads(tx.wire_bytes) for b in applied for tx in b.transactions]
    expected = [genesis_to_obj(state.config)] + headers + txs
    assert sorted(json.dumps(v, sort_keys=True) for v in encoded) == sorted(
        json.dumps(v, sort_keys=True) for v in expected)


# -- differential decode: parts' wire bytes against the loads_canonical round trip ----------


@functools.lru_cache(maxsize=None)
def _stored_block_files():
    """The block files of a _golden_store, read back from disk."""
    with tempfile.TemporaryDirectory() as d:
        _golden_store(pathlib.Path(d))
        return tuple(p.read_bytes() for p in sorted(pathlib.Path(d).glob("block_*.json")))


@functools.lru_cache(maxsize=None)
def _stored_tx_wires():
    return tuple(tx.wire_bytes for data in _stored_block_files() for tx in block_from_bytes(data[:-1]).transactions)


_INSERTS = [b" ", b"\n", b'"', b"\\", b",", b":", b"{}", b"[]", b"0", b"-", b".5", b"e3", b"true", b"null",
            b"\\u0041", b"\\ud800", b"\xc3\xa9", b"\xff", b'"x":1,']


@st.composite
def _mutants(draw, sources):
    """One stored object's bytes after one to three byte flips, inserts or deletes."""
    data = bytearray(draw(st.sampled_from(sources())))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["flip", "insert", "delete"])) if at < len(data) else "insert"
        if op == "flip":
            data[at] ^= 1 << draw(st.integers(0, 6))  # an ASCII byte stays ASCII
        elif op == "insert":
            data[at:at] = draw(st.sampled_from(_INSERTS) | st.binary(min_size=1, max_size=2))
        else:
            del data[at : at + draw(st.integers(1, 8))]
    return bytes(data)


def _outcome(decode, data):
    """(object, None) when decode accepts data, (None, message) when it raises InvalidBody."""
    try:
        return decode(data), None
    except InvalidBody as exc:
        return None, str(exc)


def _assert_decoders_agree(new, reference, malformed, data):
    """new accepts exactly what reference accepts, builds an equal object, and
    gives reference's message unless data is both non-canonical and
    malformed, where the two run their checks in another order."""
    got, got_msg = _outcome(new, data)
    want, want_msg = _outcome(reference, data)
    assert (got is None) == (want is None), (got_msg, want_msg)
    assert got == want
    if got_msg != want_msg:  # judged on the exact bytes both decoders were given
        assert _outcome(loads_canonical, data)[1] is not None
        assert _outcome(malformed, data)[1] is not None
    return got


@settings(max_examples=500)
@given(_mutants(_stored_block_files))
def test_block_decode_accepts_what_loads_canonical_accepts(data):
    stripped = data.removesuffix(b"\n")
    block = _assert_decoders_agree(
        block_from_bytes,
        lambda d: chain_module.block_from_obj(loads_canonical(d)),
        lambda d: chain_module.block_from_obj(canonical_module.parse_json(d)),
        stripped,
    )
    assert block is None or block_bytes(block) == stripped


@functools.lru_cache(maxsize=None)
def _stored_genesis():
    """The genesis.json of a _golden_store, read back from disk."""
    with tempfile.TemporaryDirectory() as d:
        _golden_store(pathlib.Path(d))
        return ((pathlib.Path(d) / "genesis.json").read_bytes(),)


# A _stored_genesis mutant that ends "\n\n" and has its first key cut to
# "gis_time": once its last "\n" is stripped, it is non-canonical and
# malformed, but not once two are.
_GENESIS_TWO_NEWLINES = (
    b'{"gis_time":1000000000,"handlers":[{"handler_id":"h0","public_key":'
    b'"977ba550ff8d06c2e937d732a2f807c7a004e49b32ba822fd54933dfbb2b50a7"},{"handler_id":"h1","public_key":'
    b'"8c34274c7b5b91ea80ec2ae6357a8354fdcf234b49da65b37b4ee075a817ea43"},{"handler_id":"h2","public_key":'
    b'"90005491d968bbf4b06424fa950c0a1bdfe238fcdea9c005c68a73f053872ae5"}],"ordering_mode":"reshuffled",'
    b'"slot_duration_ms":100}\n\n'
)


@settings(max_examples=500)
@given(_mutants(_stored_genesis))
@example(_GENESIS_TWO_NEWLINES)
def test_genesis_decode_accepts_what_loads_canonical_accepts(data):
    stripped = data.removesuffix(b"\n")
    config = _assert_decoders_agree(
        chain_module.genesis_from_bytes,
        lambda d: genesis_from_obj(loads_canonical(d)),
        lambda d: genesis_from_obj(canonical_module.parse_json(d)),
        stripped,
    )
    assert config is None or config.wire_bytes == stripped


@settings(max_examples=500)
@given(_mutants(_stored_tx_wires))
def test_tx_decode_accepts_what_loads_canonical_accepts(data):
    tx = _assert_decoders_agree(
        model.tx_from_wire_bytes,
        lambda d: model.tx_from_obj(loads_canonical(d)),
        lambda d: model.tx_from_obj(canonical_module.parse_json(d)),
        data,
    )
    assert tx is None or tx.wire_bytes == data


def test_tx_signature_verified_once_from_submit_to_receive(chain3, monkeypatch):
    state, keys = chain3
    tx = sign_transaction(storage_body(), key_for("user-1"), created_at=1)
    message = canonical_bytes(tx.body)
    calls = []
    original = keys_module.verify_signature

    def counting(public_key, data, signature):
        if data == message:
            calls.append(public_key)
        return original(public_key, data, signature)

    for module in (keys_module, model, chain_module):
        monkeypatch.setattr(module, "verify_signature", counting)
    assert state.submit(tx).ok
    block = produce_block(state, 0, keys["h0"], now=state.slot_start_time(0))
    assert block.transactions == (tx,)
    assert state.receive_block(block).ok
    assert len(calls) == 1


def test_bool_header_height_still_rejected(chain3):
    state, keys = chain3
    b0 = produce_block(state, 0, keys["h0"], now=0)
    forged = dataclasses.replace(b0.header, height=True)
    for encode in (header_to_obj, lambda h: h.signing_bytes, lambda h: h.hash):
        with pytest.raises(InvalidBody):
            encode(forged)
    assert validate_block(state, Block(forged, ())).reason == "BadLink"
    state.apply_block(b0)
    b1 = produce_block(state, 1, keys["h1"], now=0)
    assert validate_block(state, _tamper_header(b1, height=True)).reason == "BadLink"


def test_replaced_header_is_verified_again(chain3):
    state, keys = chain3
    block = produce_block(state, 0, keys["h0"], now=state.slot_start_time(0))
    assert validate_block(state, block).ok  # the header keeps its hash and verdict
    changed = _tamper_header(block, timestamp=block.header.timestamp + 1)
    assert changed.header.hash != block.header.hash
    assert changed.header.signing_bytes != block.header.signing_bytes
    assert validate_block(state, changed).reason == "BadSignature"
    assert validate_block(state, block).ok


def test_header_verdict_is_kept_per_key(chain3, monkeypatch):
    state, keys = chain3
    a = produce_block(state, 0, keys["h0"], now=0).header
    b = produce_block(state, 0, keys["h0"], now=1).header
    calls = []
    original = keys_module.verify_signature

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(chain_module, "verify_signature", counting)
    own, other = state.roster_key("h0"), state.roster_key("h1")
    for _ in range(2):
        assert a.signed_by(own) and not a.signed_by(other)
    assert len(calls) == 2
    # a roster that gives h0 another key judges the same objects under that key
    handlers = tuple((hid, other if hid == "h0" else pub) for hid, pub in state.config.handlers)
    swapped = dataclasses.replace(state.config, handlers=handlers)
    for _ in range(2):
        assert detect_equivocation(a, b, swapped) is None
        assert detect_equivocation(b, a, state.config) is not None
        assert detect_equivocation(a, b, swapped) is None
    assert len(calls) == 3  # b under h0's key; a's verdicts under both keys were kept


def _count_block_validations(monkeypatch):
    """The (parent head hash, block) of each verdict validate_block computes,
    and the uncounted computation."""
    original = chain_module._validate_block
    computed = []

    def counting(state, block):
        computed.append((state.head_hash(), block))
        return original(state, block)

    monkeypatch.setattr(chain_module, "_validate_block", counting)
    return computed, original


def test_block_verdict_is_computed_once_per_parent_head(chain3_factory, monkeypatch):
    computed, compute = _count_block_validations(monkeypatch)
    (first, keys), (second, _), (behind, _) = chain3_factory(), chain3_factory(), chain3_factory()
    build_chain(first, keys, 3)
    for block in first.blocks:
        assert second.receive_block(block).ok
    for block in first.blocks[:-1]:
        assert behind.receive_block(block).ok
    assert len(computed) == 3  # the second and third states share the first's verdicts
    _publish(first, key_for("user-1"), "ds-next", 900, start=900, end=905)
    nxt = produce_block(first, 3, keys[first.scheduled_handler(3)], now=first.slot_start_time(3))
    assert validate_block(first, nxt).ok and validate_block(second, nxt).ok
    assert computed[3:] == [(first.head_hash(), nxt)]
    assert validate_block(second, nxt) == compute(second, nxt)
    # a state one block behind is another head, so it gets its own verdict
    assert validate_block(behind, nxt).reason == "BadLink"
    assert validate_block(first, nxt).ok
    assert computed[4:] == [(behind.head_hash(), nxt)]
    # a rejected verdict is kept too, on its own block object
    forged = Block(nxt.header, nxt.transactions[:-1])
    for _ in range(2):
        assert validate_block(first, forged).reason == "BadTxRoot"
        assert validate_block(second, nxt).ok
    assert computed[5:] == [(first.head_hash(), forged)]


def test_a_block_check_that_raises_keeps_no_verdict(chain3, monkeypatch):
    state, keys = chain3
    block = produce_block(state, 0, keys["h0"], now=0)
    original = chain_module._validate_block

    def failing(state, block):
        raise OSError("check failed")

    monkeypatch.setattr(chain_module, "_validate_block", failing)
    with pytest.raises(OSError):
        validate_block(state, block)
    assert block._verdicts == {}
    monkeypatch.setattr(chain_module, "_validate_block", original)
    assert validate_block(state, block).ok
    assert list(block._verdicts) == [state.head_hash()]


def test_cold_replay_computes_each_block_verdict_once(tmp_path, monkeypatch):
    _golden_store(tmp_path)
    computed, _ = _count_block_validations(monkeypatch)
    state, results, failure = replay_chain(str(tmp_path))
    assert failure is None
    assert len(computed) == len(results) == state.head_height + 1
    assert [block.header.height for _, block in computed] == list(range(state.head_height + 1))


@pytest.mark.parametrize("field,value", [("prev_block_hash", "XYZ"), ("registry_size", -1), ("signature", "A" * 128)])
def test_malformed_header_is_rejected_on_every_call(chain3, field, value):
    state, keys = chain3
    block = _tamper_header(produce_block(state, 0, keys["h0"], now=0), **{field: value})
    pub = state.roster_key("h0")
    for _ in range(3):
        verdict = validate_block(state, block)
        assert verdict.reason == "BadLink" and verdict.detail.startswith("malformed header")
        for check in (lambda h: h.hash, lambda h: h.signed_by(pub)):
            with pytest.raises(InvalidBody):
                check(block.header)
    assert "hash" not in vars(block.header) and not block.header._verdicts


def test_head_hash_and_cycle_seed_follow_the_chain():
    handlers, keys = make_roster(3)
    config = GenesisConfig(handlers=handlers, slot_duration_ms=50, ordering_mode="reshuffled", genesis_time=0)
    state = ChainState(config)

    def oracle_seed(slot):
        # hash of the last block before slot's cycle, else the genesis hash
        before = [b for b in state.blocks if b.header.slot < slot // 3 * 3]
        return bytes.fromhex(before[-1].header.hash if before else config.hash)

    for slot in (0, 2, 4, 7, 8, 12):
        assert state.seed_for_slot(slot) == oracle_seed(slot)
        block = produce_block(state, slot, keys[state.scheduled_handler(slot)], now=0)
        state.apply_block(block)
        assert state.head_hash() == block.header.hash
        for past in range(slot + 4):
            if past < slot // 3 * 3:  # a cycle before the head's: no state keeps its seed
                with pytest.raises(NotFound):
                    state.seed_for_slot(past)
            else:
                assert state.seed_for_slot(past) == oracle_seed(past)


# -- head cache ---------------------------------------------------------------------------


def _cli_outcome(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    return code, capsys.readouterr().out


def _golden_commands(chain_dir, tx_id, out_file):
    return [
        ("query", "--chain", chain_dir, "--where", "facility=TAIGA"),
        ("proof", "--chain", chain_dir, "--tx-id", tx_id),
        ("proof", "--chain", chain_dir, "--consistency-from", "3"),
        ("index-build", "--chain", chain_dir, "--out", out_file),
        ("chain-verify", "--chain", chain_dir),
    ]


@pytest.mark.parametrize("case", sorted(REPLAY_GOLDENS))
def test_head_cache_never_hides_damage(case, tmp_path, capsys):
    # the cache is built while the store is honest, then the store is damaged
    chain_dir = tmp_path / "chain"
    keys = _golden_store(chain_dir)
    honest = load_chain(str(chain_dir))
    cache_path = chain_dir / chain_module.HEAD_CACHE
    cache = cache_path.read_bytes()
    cache_path.unlink()
    _damage_golden(chain_dir, case, keys)
    tx_id = next(iter(honest.tx_index))
    for argv in _golden_commands(chain_dir, tx_id, tmp_path / "index.json"):
        cache_path.unlink(missing_ok=True)
        without = _cli_outcome(capsys, *argv)
        cache_path.write_bytes(cache)
        assert _cli_outcome(capsys, *argv) == without, argv
    if case == "honest":
        return
    assert without[0] == 3
    # The restore itself refuses the damaged store under the cache the
    # honest one wrote, leaving the state untouched, so load_chain reports
    # the damage as the full replay does.
    cache_path.write_bytes(cache)
    state, heights = chain_module.open_store(str(chain_dir))
    assert chain_module._restore_head(str(chain_dir), state, heights) == -1
    assert state.head_height == -1 and state.registry_log.size == 0


@functools.lru_cache(maxsize=None)
def _golden_store_with_cache():
    """{file name: bytes} of a _golden_store, with the head cache that
    load_chain writes for it."""
    with tempfile.TemporaryDirectory() as d:
        _golden_store(pathlib.Path(d))
        load_chain(d)
        return {p.name: p.read_bytes() for p in pathlib.Path(d).iterdir()}


@st.composite
def _block_file_mutants(draw):
    """(name, bytes) of one block file of a _golden_store after one to three
    byte flips, inserts or deletes anywhere in it, many of them where its
    header, a transaction, the frame around them or the trailer starts or
    ends."""
    files = _golden_store_with_cache()
    name = draw(st.sampled_from(sorted(n for n in files if n.startswith("block_"))))
    data = bytearray(files[name])
    text = data.decode("ascii")
    header_end = json.JSONDecoder().raw_decode(text, len('{"header":'))[1]
    start = header_end + len(',"transactions":[')
    stop = len(text) - len("]}\n")  # where the array's "]" is
    edges = [0, len('{"header":'), header_end, header_end + 1, start, stop + 1, stop + 2, len(text)]
    at = start
    while at < stop:
        at = json.JSONDecoder().raw_decode(text, at)[1]
        edges += [at, at + 1]
        at += 1
    # applied from the last offset back, so each offset still points where it was drawn
    offsets = draw(st.lists(st.integers(0, len(data)) | st.sampled_from(edges), min_size=1, max_size=3))
    for at in sorted(offsets, reverse=True):
        op = draw(st.sampled_from(["flip", "insert", "delete"])) if at < len(data) else "insert"
        if op == "flip":
            data[at] ^= 1 << draw(st.integers(0, 6))  # an ASCII byte stays ASCII
        elif op == "insert":
            data[at:at] = draw(st.sampled_from(_INSERTS) | st.binary(min_size=1, max_size=2))
        else:
            del data[at : at + draw(st.integers(1, 8))]
    return name, bytes(data)


def _restores(chain_dir):
    state, heights = chain_module.open_store(str(chain_dir))
    return chain_module._restore_head(str(chain_dir), state, heights) != -1


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_block_file_mutants())
def test_restore_is_total_on_damaged_block_files(capsys, mutant):
    # Under the cache the honest store wrote, the restore refuses any change
    # to a covered block file, whatever the bytes hold, and query gives what
    # it gives without a cache: no exception escapes the restore.
    name, data = mutant
    with tempfile.TemporaryDirectory() as d:
        chain_dir = pathlib.Path(d)
        for file_name, honest in _golden_store_with_cache().items():
            (chain_dir / file_name).write_bytes(data if file_name == name else honest)
        cache_path = chain_dir / chain_module.HEAD_CACHE
        cache = cache_path.read_bytes()
        assert _restores(chain_dir) == (data == _golden_store_with_cache()[name])
        argv = ("query", "--chain", chain_dir, "--where", "facility=TAIGA")
        cache_path.unlink()
        without = _cli_outcome(capsys, *argv)
        cache_path.write_bytes(cache)
        assert _cli_outcome(capsys, *argv) == without


def _block_parts(path):
    """(the bytes of a block file up to its transactions array, each value's bytes in the array)."""
    data = path.read_bytes()
    text = data.decode("ascii")
    at = text.index('"transactions":[') + len('"transactions":[')
    head, values = data[:at], []
    while at < len(text) - len("]}\n"):
        end = json.JSONDecoder().raw_decode(text, at)[1]
        values.append(data[at:end])
        at = end + 1
    return head, values


def _space_before_transactions(chain_dir):
    # block 3's header bytes stay as they were, but the file is no longer the block's one byte form
    path = chain_dir / "block_3.json"
    path.write_bytes(path.read_bytes().replace(b',"transactions":[', b' ,"transactions":[', 1))


def _transaction_moved_to_next_block(chain_dir):
    # block 2's last transaction moved to the front of block 3: the registry log keeps its order and root
    (head2, txs2), (head3, txs3) = _block_parts(chain_dir / "block_2.json"), _block_parts(chain_dir / "block_3.json")
    (chain_dir / "block_2.json").write_bytes(head2 + b",".join(txs2[:-1]) + b"]}\n")
    (chain_dir / "block_3.json").write_bytes(head3 + b",".join(txs2[-1:] + txs3) + b"]}\n")


@pytest.mark.parametrize("damage,verdict", [
    pytest.param(_space_before_transactions, "height 3: InvalidBody", id="space_before_transactions"),
    pytest.param(_transaction_moved_to_next_block, "height 2: BadTxRoot", id="transaction_moved_to_next_block"),
])
def test_restore_refuses_covered_blocks_that_the_head_does_not_commit_to(damage, verdict, tmp_path, capsys):
    # Neither damage changes a header or the registry log, so the head's
    # hash, signature and registry root all still check: only the walk back
    # from the head (each file's frame and each header's registry size)
    # tells the damaged store from the one the cache was written for.
    chain_dir = tmp_path / "chain"
    _golden_store(chain_dir)
    tx_id = next(iter(load_chain(str(chain_dir)).tx_index))
    cache_path = chain_dir / chain_module.HEAD_CACHE
    cache = cache_path.read_bytes()
    damage(chain_dir)
    assert not _restores(chain_dir)
    outcomes = []
    for argv in _golden_commands(chain_dir, tx_id, tmp_path / "index.json"):
        cache_path.unlink(missing_ok=True)
        without = _cli_outcome(capsys, *argv)
        cache_path.write_bytes(cache)
        assert _cli_outcome(capsys, *argv) == without, argv
        outcomes.append(without[0])
    assert outcomes == [3] * len(outcomes)
    with pytest.raises(InvalidBody, match=verdict):
        load_chain(str(chain_dir))


def _hostile_entries(case, honest, head):
    """The transactions array of a rewritten head in each case, given the
    wire bytes of every honest transaction and of the head's own: one value
    that is not a transaction, a derivation followed by the head's own
    transactions, or the chain's first three transactions (a storage, a
    program and a publish) with one of them damaged."""
    if case in ("not_json", "not_a_tx", "unhashable_id"):
        return [{"not_json": b"{", "not_a_tx": b"[1]",
                 "unhashable_id": dumps_canonical(dict(json.loads(honest[0]), tx_id=[1]))}[case]]
    if case in ("unhashable_parent_id", "unknown_parent_id"):
        # the derivation's first parent replaced by a list holding its id,
        # or by the dataset the head publishes after it
        derive = json.loads(next(entry for entry in honest if b'"type":"derive_dataset"' in entry))
        parents = derive["body"]["parent_dataset_ids"]
        later = json.loads(head[0])["body"]["dataset"]["dataset_id"]
        parents[0] = [parents[0]] if case == "unhashable_parent_id" else later
        return [dumps_canonical(derive), *head]
    storage, program, publish = (json.loads(entry) for entry in honest[:3])
    dataset = publish["body"]["dataset"]
    if case == "tx_keys":
        publish["note"] = "x"
    elif case == "body_keys":
        publish["body"]["note"] = "x"
    elif case == "file_refs_not_a_list":
        dataset["file_refs"] = dataset["file_refs"][0]
    elif case == "file_ref_extra_key":
        dataset["file_refs"][0]["note"] = "x"
    elif case == "time_range_list":
        dataset["time_range"] = [dataset["time_range"]["start"], dataset["time_range"]["end"]]
    elif case == "time_range_start_str":  # the right shape, a field of the wrong type
        dataset["time_range"]["start"] = "x"
    elif case == "extra_not_a_map":
        dataset["extra"] = ["x"]
    elif case == "unhashable_dataset_id":
        dataset["dataset_id"] = [dataset["dataset_id"]]
    elif case == "unhashable_storage_id":
        storage["body"]["storage_id"] = [storage["body"]["storage_id"]]
    elif case == "unhashable_program_version":
        program["body"]["version"] = [program["body"]["version"]]
    elif case == "program_id_int":  # hashable, and sorted beside string ids by index-build
        program["body"]["program_id"] = 7
    elif case == "dataset_id_int":  # ties with the dataset it copies in query's sort
        dataset["dataset_id"] = 5
    elif case == "storage_base_uri_int":  # a field the registry keeps and aggregate opens
        storage["body"]["base_uri"] = 7
    elif case == "program_code_hash_not_hex":
        program["body"]["code_hash"] = "zz"
    return [dumps_canonical(obj) for obj in (storage, program, publish)]


# Transactions arrays that the restore's scan or model.fold_log_entries refuses.
_UNFOLDABLE_ENTRIES = [
    "not_json", "not_a_tx", "unhashable_id", "tx_keys", "body_keys", "file_refs_not_a_list", "file_ref_extra_key",
    "time_range_list", "time_range_start_str", "extra_not_a_map", "unhashable_dataset_id", "unhashable_storage_id",
    "unhashable_program_version", "unhashable_parent_id", "unknown_parent_id", "program_id_int", "dataset_id_int",
    "storage_base_uri_int", "program_code_hash_not_hex",
]


def _forge_head_and_cache(case, chain_dir, resign_with=None):
    """Rewrite the head block of a _golden_store to hold the case's
    transactions array, with its header committing to it, re-signed when
    resign_with maps handlers to keys, and forge a head cache: the honest
    one, naming the rewritten head's hash. Returns (head height, the forged
    cache's bytes), with no cache file left in the store."""
    height = load_chain(str(chain_dir)).head_height
    cache_path = chain_dir / chain_module.HEAD_CACHE
    forged = json.loads(cache_path.read_bytes())
    cache_path.unlink()
    stored = [load_block_file(str(chain_dir), h) for h in range(height + 1)]
    honest = [tx.wire_bytes for block in stored for tx in block.transactions]
    head = stored[-1]
    entries = _hostile_entries(case, honest, [tx.wire_bytes for tx in head.transactions])
    log = MerkleLog()
    log.extend(honest[: len(honest) - len(head.transactions)] + entries)
    header = dataclasses.replace(head.header, tx_root=tx_tree_root([leaf_hash(entry) for entry in entries]),
                                 registry_root=log.root().hex(), registry_size=log.size)
    if resign_with is not None:
        header = dataclasses.replace(header, signature=resign_with[header.creator].sign(header.signing_bytes).hex())
    (chain_dir / f"block_{height}.json").write_bytes(
        b'{"header":' + header.wire_bytes + b',"transactions":[' + b",".join(entries) + b"]}\n")
    forged["head_hash"] = header.hash
    return height, dumps_canonical(forged) + b"\n"


def _assert_forged_cache_gets_replay_verdict(chain_dir, cache, capsys):
    """The query outcome with the forged cache equals the full replay's,
    an exit 3; returns the message load_chain raises with the cache."""
    argv = ("query", "--chain", chain_dir, "--where", "facility=TAIGA")
    cache_path = chain_dir / chain_module.HEAD_CACHE
    without = _cli_outcome(capsys, *argv)
    assert without[0] == 3
    cache_path.write_bytes(cache)
    assert _cli_outcome(capsys, *argv) == without
    cache_path.write_bytes(cache)
    with pytest.raises(InvalidBody) as err:
        load_chain(str(chain_dir))
    return str(err.value)


def _replay_reason(case, resigned):
    """The full replay's verdict on the rewritten head: a block file that
    holds a malformed transaction does not parse. Only the derivation naming
    a later parent is well formed: its head fails its signature unless
    re-signed, and then the derivation's tx id, which no longer hashes it."""
    if case != "unknown_parent_id":
        return "InvalidBody"
    return "InvalidTransaction: tx 0" if resigned else "BadSignature"


def _count_folds(monkeypatch):
    folds = []
    original_fold = chain_module.fold_log_entries
    monkeypatch.setattr(chain_module, "fold_log_entries", lambda objs: folds.append(1) or original_fold(objs))
    return folds


@pytest.mark.parametrize("case", _UNFOLDABLE_ENTRIES)
def test_rewritten_head_with_a_matching_cache_gets_the_replay_verdict(case, tmp_path, capsys, monkeypatch):
    # The head block is rewritten to hold transactions that are not all
    # valid, its header committing to them, and the cache is forged to match
    # the rewritten store: the head's signature no longer verifies, so the
    # restore ends before it scans any transaction and falls back to the
    # full replay and its verdict, not a traceback or a field error.
    chain_dir = tmp_path / "chain"
    _golden_store(chain_dir)
    height, cache = _forge_head_and_cache(case, chain_dir)
    folds = _count_folds(monkeypatch)
    message = _assert_forged_cache_gets_replay_verdict(chain_dir, cache, capsys)
    assert f"height {height}: {_replay_reason(case, resigned=False)}" in message
    assert folds == []


@pytest.mark.parametrize("case", _UNFOLDABLE_ENTRIES)
def test_resigned_head_with_a_matching_cache_gets_the_replay_verdict(case, tmp_path, capsys, monkeypatch):
    # A roster key re-signs the rewritten head, so the head passes the
    # restore's checks: the scan or the fold refuses the transactions, and
    # the restore still falls back to the full replay.
    chain_dir = tmp_path / "chain"
    height, cache = _forge_head_and_cache(case, chain_dir, resign_with=_golden_store(chain_dir))
    folds = _count_folds(monkeypatch)
    message = _assert_forged_cache_gets_replay_verdict(chain_dir, cache, capsys)
    assert f"height {height}: {_replay_reason(case, resigned=True)}" in message
    assert len(folds) == 2  # the cached query's restore and load_chain's each reach the fold


@pytest.mark.parametrize("case", ["program_id_int", "dataset_id_int"])
def test_resigned_head_with_an_id_that_is_not_a_string_gets_the_replay_outcomes(case, tmp_path, capsys):
    # The ids are hashable, so only a type check in the fold refuses them;
    # without it index-build and query sort them beside string ids and end
    # in a TypeError. With the check, each command exits as a replay does.
    chain_dir = tmp_path / "chain"
    _, cache = _forge_head_and_cache(case, chain_dir, resign_with=_golden_store(chain_dir))
    cache_path = chain_dir / chain_module.HEAD_CACHE
    for argv in _golden_commands(chain_dir, "00" * 32, tmp_path / "index.json"):
        cache_path.unlink(missing_ok=True)
        without = _cli_outcome(capsys, *argv)
        cache_path.write_bytes(cache)
        assert _cli_outcome(capsys, *argv) == without, argv
        assert without[0] == 3, argv


def test_resigned_head_over_a_covered_slot_that_is_not_an_integer_gets_the_replay_outcomes(tmp_path, capsys):
    # The restore checks covered headers by their hash links only, and reads
    # their slots for the head's reshuffle seed. A roster key that re-signs
    # the head over a previous header whose slot is a string makes that
    # lookup a TypeError, which must end the restore, not the command.
    chain_dir = tmp_path / "chain"
    keys = _golden_store(chain_dir)
    height = load_chain(str(chain_dir)).head_height
    cache_path = chain_dir / chain_module.HEAD_CACHE
    cache = json.loads(cache_path.read_bytes())
    prev, head = (chain_module.load_block_file(str(chain_dir), h) for h in (height - 1, height))
    forged = dumps_canonical(dict(json.loads(prev.header.wire_bytes), slot="x"))
    path = chain_dir / f"block_{height - 1}.json"
    path.write_bytes(path.read_bytes().replace(prev.header.wire_bytes, forged, 1))
    header = dataclasses.replace(head.header, prev_block_hash=hashlib.sha256(forged).hexdigest())
    header = dataclasses.replace(header, signature=keys[header.creator].sign(header.signing_bytes).hex())
    path = chain_dir / f"block_{height}.json"
    path.write_bytes(path.read_bytes().replace(head.header.wire_bytes, header.wire_bytes, 1))
    cache = dumps_canonical(dict(cache, head_hash=header.hash)) + b"\n"
    cache_path.write_bytes(cache)
    assert not _restores(chain_dir)
    for argv in _golden_commands(chain_dir, "00" * 32, tmp_path / "index.json"):
        cache_path.unlink(missing_ok=True)
        without = _cli_outcome(capsys, *argv)
        cache_path.write_bytes(cache)
        assert _cli_outcome(capsys, *argv) == without, argv
        assert without[0] == 3, argv


def _reshuffled_store(chain_dir, n_blocks=20):
    """A 4-handler reshuffled store with missed slots, whose datasets confirm
    out of id order (ds-10 confirms after ds-9 but sorts before ds-2)."""
    handlers, keys = make_roster(4)
    config = GenesisConfig(handlers=handlers, slot_duration_ms=50, ordering_mode="reshuffled", genesis_time=0)
    state = ChainState(config)
    user = key_for("user-1")
    _submit_bootstrap(state, user)
    slot = 0
    for height in range(n_blocks):
        _publish(state, user, f"ds-{height}", 100 + height, start=height, end=height + 5)
        slot += 1 + (height % 7 == 3)  # a missed slot now and then, across cycle boundaries
        state.apply_block(produce_block(state, slot, keys[state.scheduled_handler(slot)], now=0))
    save_chain(state, str(chain_dir))
    return state, keys


def _assert_restored_states_equal_replayed(tmp_path, monkeypatch, make_store):
    """Restore the head cache of each prefix of a store, then load the whole
    store over it: each state equals the full replay's."""
    full = tmp_path / "full"
    make_store(full)
    replayed, _, failure = replay_chain(str(full))
    assert failure is None
    n_blocks = replayed.head_height + 1
    assert list(replayed.registry.datasets) != sorted(replayed.registry.datasets)
    cold = tmp_path / "cold"
    shutil.copytree(full, cold)
    load_chain(str(cold))
    cold_cache = (cold / chain_module.HEAD_CACHE).read_bytes()
    validated = []
    original_validate = chain_module.validate_block
    monkeypatch.setattr(chain_module, "validate_block", lambda s, b: validated.append(b) or original_validate(s, b))
    for k in range(n_blocks):
        prefix = tmp_path / f"prefix{k}"
        prefix.mkdir()
        for name in ["genesis.json"] + [f"block_{h}.json" for h in range(k + 1)]:
            (prefix / name).write_bytes((full / name).read_bytes())
        load_chain(str(prefix))
        (full / chain_module.HEAD_CACHE).write_bytes((prefix / chain_module.HEAD_CACHE).read_bytes())
        validated.clear()
        state = load_chain(str(full))
        assert len(validated) == n_blocks - 1 - k  # only the blocks after the cached head
        assert state.blocks is None
        assert state.head_hash() == replayed.head_hash()
        assert state.checkpoint() == replayed.checkpoint()
        assert dumps_canonical(index_to_obj(state.registry)) == dumps_canonical(index_to_obj(replayed.registry))
        assert list(state.registry.datasets) == list(replayed.registry.datasets)
        assert list(state.tx_index.items()) == list(replayed.tx_index.items())
        assert state.registry_log.leaves() == replayed.registry_log.leaves()
        for slot in range(state.last_slot() + 1, state.last_slot() + 9):
            assert state.scheduled_handler(slot) == replayed.scheduled_handler(slot)
        # restored at k, then extended: the cache a cold full load writes
        assert (full / chain_module.HEAD_CACHE).read_bytes() == cold_cache
        with pytest.raises(NotFound):  # no block list to find an earlier cycle's seed in
            state.seed_for_slot(0)


def test_restored_state_equals_replayed_state(tmp_path, monkeypatch):
    _assert_restored_states_equal_replayed(tmp_path, monkeypatch, lambda chain_dir: _reshuffled_store(chain_dir, 20))


def test_restored_golden_state_equals_replayed_state(tmp_path, monkeypatch):
    # every body kind: a derivation with parents, a program registered
    # mid-chain and publishes with extra maps
    _assert_restored_states_equal_replayed(tmp_path, monkeypatch, _golden_store)


def test_two_sealers_on_one_height(tmp_path):
    chain_dir = str(tmp_path)
    state, keys = _reshuffled_store(tmp_path, 3)
    save_chain(state, chain_dir)  # re-saving identical bytes into the store is accepted
    first, second = load_chain(chain_dir), load_chain(chain_dir)
    user = key_for("user-1")
    _publish(first, user, "ds-first", 900)
    _publish(second, user, "ds-second", 901)
    blocks = []
    for sealer in (first, second):
        slot = sealer.last_slot() + 1
        block = produce_block(sealer, slot, keys[sealer.scheduled_handler(slot)], now=0)
        assert sealer.receive_block(block).ok and block.header.height == 3
        blocks.append(block)
    path = save_block_file(chain_dir, blocks[0])
    assert path == str(tmp_path / "block_3.json")
    with pytest.raises(AlreadyExists):
        save_block_file(chain_dir, blocks[1])
    assert (tmp_path / "block_3.json").read_bytes() == block_bytes(blocks[0]) + b"\n"
    save_block_file(chain_dir, blocks[0])  # the same block again is accepted
    _, _, failure = replay_chain(chain_dir)
    assert failure is None
    assert "ds-first" in load_chain(chain_dir).registry.datasets
