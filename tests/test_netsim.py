"""Simulator tests: config validation, trace determinism, convergence,
and the three fault scripts with their detection signatures.

The checkpoint assertions compute the expected failure set independently:
a checkpoint must fail against a tampered peer exactly when its registry
prefix covers the rewritten transaction.
"""

import hashlib
import json
import sys

import pytest

from skyprov import chain as chain_module
from skyprov import keys as keys_module
from skyprov import merkle as merkle_module
from skyprov import model as model_module
from skyprov.chain import ChainState, validate_block
from skyprov.errors import ConfigError
from skyprov.merkle import MerkleLog
from skyprov.netsim import (
    SimNode,
    Simulation,
    genesis_for,
    handler_key,
    rewrite_history,
    run_simulation,
    sim_config_from_obj,
)


def cfg(**overrides):
    base = {"seed": 1, "handlers": 3, "slot_duration_ms": 100, "duration_slots": 8}
    base.update(overrides)
    return sim_config_from_obj(base)


def finals(trace):
    return {e["node"]: e for e in trace.events if e["type"] == "final"}


def audits(trace):
    return [e for e in trace.events if e["type"] == "audit"]


# -- config parsing ----------------------------------------------------------------


def test_config_defaults_and_handler_forms():
    c = cfg()
    assert c.handler_ids == ("h0", "h1", "h2")
    assert (c.latency_min, c.latency_max, c.drop_probability) == (0, 0, 0.0)
    assert c.txs_per_slot == 1
    named = cfg(handlers=["alpha", "beta"])
    assert named.handler_ids == ("alpha", "beta")


@pytest.mark.parametrize(
    "bad",
    [
        {},
        {"seed": "x", "handlers": 3, "slot_duration_ms": 100, "duration_slots": 5},
        {"seed": 1, "handlers": 0, "slot_duration_ms": 100, "duration_slots": 5},
        {"seed": 1, "handlers": ["a", "a"], "slot_duration_ms": 100, "duration_slots": 5},
        {"seed": 1, "handlers": 3, "slot_duration_ms": 0, "duration_slots": 5},
        {"seed": 1, "handlers": 3, "slot_duration_ms": 100, "duration_slots": 5, "ordering_mode": "random"},
        {"seed": 1, "handlers": 3, "slot_duration_ms": 100, "duration_slots": 5, "latency_ms": {"min": 5, "max": 2}},
        {"seed": 1, "handlers": 3, "slot_duration_ms": 100, "duration_slots": 5, "drop_probability": 1.5},
        {"seed": 1, "handlers": 3, "slot_duration_ms": 100, "duration_slots": 5, "bogus": 1},
        {"seed": 1, "handlers": 3, "slot_duration_ms": 100, "duration_slots": 5, "faults": [{"kind": "melt"}]},
        {"seed": 1, "handlers": 3, "slot_duration_ms": 100, "duration_slots": 5,
         "faults": [{"kind": "offline", "handler": "h9", "from_slot": 1, "to_slot": 2}]},
        {"seed": 1, "handlers": 3, "slot_duration_ms": 100, "duration_slots": 5,
         "faults": [{"kind": "offline", "handler": "h1", "from_slot": 3, "to_slot": 2}]},
        {"seed": 1, "handlers": 3, "slot_duration_ms": 100, "duration_slots": 5,
         "faults": [{"kind": "tamper_history", "handler": "h1", "slot": 3, "height": 1, "resign": 2}]},
        # faults must be a list, and every integer a JSON integer (not true, not 1.0)
        {"seed": 1, "handlers": 3, "slot_duration_ms": 100, "duration_slots": 5, "faults": None},
        {"seed": 1, "handlers": 3, "slot_duration_ms": 100, "duration_slots": 5, "faults": 5},
        {"seed": 1, "handlers": 3, "slot_duration_ms": 100, "duration_slots": 5, "txs_per_slot": True},
        {"seed": 1, "handlers": 3, "slot_duration_ms": 100, "duration_slots": 5, "genesis_time": True},
        {"seed": 1, "handlers": 3, "slot_duration_ms": 100, "duration_slots": 5,
         "faults": [{"kind": "offline", "handler": "h1", "from_slot": True, "to_slot": 2}]},
        {"seed": 1, "handlers": 3, "slot_duration_ms": 100, "duration_slots": 5,
         "faults": [{"kind": "equivocate", "handler": "h1", "slot": True}]},
        {"seed": 1, "handlers": 3, "slot_duration_ms": 100, "duration_slots": 5,
         "faults": [{"kind": "tamper_history", "handler": "h1", "slot": 3, "height": True, "resign": 1}]},
        {"seed": 1, "handlers": 3, "slot_duration_ms": 100, "duration_slots": 5,
         "faults": [{"kind": "tamper_history", "handler": "h1", "slot": 3, "height": 1, "resign": 1.0}]},
        # each count just past its bound
        {"seed": 1, "handlers": 33, "slot_duration_ms": 100, "duration_slots": 5},
        {"seed": 1, "handlers": [f"n{i}" for i in range(33)], "slot_duration_ms": 100, "duration_slots": 5},
        {"seed": 1, "handlers": 3, "slot_duration_ms": 100, "duration_slots": 4097},
        {"seed": 1, "handlers": 3, "slot_duration_ms": 100, "duration_slots": 5, "txs_per_slot": 17},
    ],
)
def test_config_rejections(bad):
    with pytest.raises(ConfigError):
        sim_config_from_obj(bad)


def test_config_counts_at_their_bounds_are_read():
    c = sim_config_from_obj({"seed": 1, "handlers": 32, "slot_duration_ms": 100, "duration_slots": 4096,
                             "txs_per_slot": 16})
    assert (len(c.handler_ids), c.duration_slots, c.txs_per_slot) == (32, 4096, 16)


def test_handler_keys_derive_from_seed():
    assert handler_key(1, "h0").public_hex != handler_key(2, "h0").public_hex
    assert handler_key(1, "h0").public_hex == handler_key(1, "h0").public_hex
    roster = dict(genesis_for(cfg()).handlers)
    assert roster["h1"] == handler_key(1, "h1").public_hex


# -- determinism -------------------------------------------------------------------


SCENARIOS = [
    cfg(),
    cfg(seed=77, handlers=5, latency_ms={"min": 5, "max": 60}),
    cfg(seed=13, drop_probability=0.2, latency_ms={"min": 0, "max": 40}, duration_slots=10),
    cfg(seed=9, faults=[{"kind": "equivocate", "handler": "h1", "slot": 4}]),
    cfg(seed=11, faults=[{"kind": "tamper_history", "handler": "h2", "height": 2, "slot": 5, "resign": 1}]),
    cfg(seed=5, duration_slots=12, faults=[{"kind": "offline", "handler": "h1", "from_slot": 3, "to_slot": 6}]),
    cfg(seed=21, handlers=4, ordering_mode="reshuffled", duration_slots=12),
]


@pytest.mark.parametrize("config", SCENARIOS, ids=range(len(SCENARIOS)))
def test_trace_is_deterministic(config):
    b1 = run_simulation(config).to_jsonl_bytes()
    b2 = run_simulation(config).to_jsonl_bytes()
    assert b1 == b2
    for line in b1.decode().splitlines():
        obj = json.loads(line)
        assert list(obj) == sorted(obj)


def _bench_shaped(resign):
    return {
        "seed": 301,
        "handlers": 5,
        "slot_duration_ms": 100,
        "duration_slots": 24,
        "latency_ms": {"min": 5, "max": 60},
        "txs_per_slot": 2,
        "faults": [
            {"kind": "offline", "handler": "h2", "from_slot": 6, "to_slot": 10},
            {"kind": "tamper_history", "handler": "h4", "slot": 15, "height": 5, "resign": resign},
        ],
    }


TRACE_GOLDENS = [
    (_bench_shaped(1), "5929fc53d980d0d33592586e4f1750ab1d4fe464effdbef0ec31a666c31647d3"),
    (_bench_shaped(0), "37ff1eaddb97e8fefedad0226fbc830e88329bda1f74c1ccbba8ad5cf256b870"),
    (
        {
            "seed": 9,
            "handlers": 4,
            "slot_duration_ms": 100,
            "duration_slots": 12,
            "latency_ms": {"min": 0, "max": 40},
            "faults": [{"kind": "equivocate", "handler": "h1", "slot": 5}],
        },
        "6804ba43a3a65a077e616d11fa8be629f563cf57546710328f99877b8393915f",
    ),
    (
        {
            "seed": 46,
            "handlers": 5,
            "slot_duration_ms": 100,
            "duration_slots": 20,
            "ordering_mode": "reshuffled",
            "latency_ms": {"min": 5, "max": 70},
            "drop_probability": 0.2,
            "txs_per_slot": 2,
            "faults": [{"kind": "offline", "handler": "h3", "from_slot": 5, "to_slot": 9}],
        },
        "6a80f6236704dd1aea7b6eecbbe60018497c448ec5f3e9204204f5f1e14ab7a3",
    ),
]
GOLDEN_IDS = ["tamper-resign", "tamper-keep-headers", "equivocate", "reshuffled-lossy-offline"]


@pytest.mark.parametrize("obj,digest", TRACE_GOLDENS, ids=GOLDEN_IDS)
def test_trace_golden(obj, digest):
    # Frozen trace bytes: the audit and every other stage must keep producing
    # exactly these records, in this order, whatever they do internally.
    trace = run_simulation(sim_config_from_obj(obj)).to_jsonl_bytes()
    assert hashlib.sha256(trace).hexdigest() == digest


# Distinct (key, message, signature) triples each golden run signs: its
# transactions and headers, the equivocator's second header and the
# tamperer's re-signed copies.
VERIFY_COUNTS = [74, 73, 22, 59]


@pytest.mark.parametrize("obj,expected", [(obj, n) for (obj, _), n in zip(TRACE_GOLDENS, VERIFY_COUNTS)],
                         ids=GOLDEN_IDS)
def test_each_signature_is_verified_once(obj, expected, monkeypatch):
    # Five nodes and the audit hold the same block and transaction objects,
    # so each signature is verified once however many of them check it.
    original = keys_module.verify_signature
    calls = []

    def counting(public_key, message, signature):
        calls.append((public_key, message, signature))
        return original(public_key, message, signature)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "skyprov" and vars(module).get("verify_signature") is original:
            monkeypatch.setattr(module, "verify_signature", counting)
    run_simulation(sim_config_from_obj(obj))
    assert len(calls) == len(set(calls)) == expected


# Distinct (parent head, block) pairs each golden run validates: the nodes
# and audit replays at one head share one verdict on one block object.
VALIDATION_COUNTS = [25, 25, 9, 33]


@pytest.mark.parametrize("obj,expected", [(obj, n) for (obj, _), n in zip(TRACE_GOLDENS, VALIDATION_COUNTS)],
                         ids=GOLDEN_IDS)
def test_each_block_is_validated_once_per_parent_head(obj, expected, monkeypatch):
    original_validate, original_compute = chain_module.validate_block, chain_module._validate_block
    asked = set()  # (parent head hash, id of the block) per validate_block call
    computed = []  # the same, per verdict computed
    blocks = []  # every block validated, kept so that no id is reused

    def validate(state, block):
        blocks.append(block)
        asked.add((state.head_hash(), id(block)))
        return original_validate(state, block)

    def compute(state, block):
        computed.append((state.head_hash(), id(block)))
        return original_compute(state, block)

    monkeypatch.setattr(chain_module, "validate_block", validate)
    monkeypatch.setattr(chain_module, "_validate_block", compute)
    run_simulation(sim_config_from_obj(obj))
    assert len(blocks) > len(asked)
    assert len(computed) == len(set(computed)) == len(asked) == expected
    assert set(computed) == asked


def test_different_seeds_differ():
    a = run_simulation(cfg(seed=1, latency_ms={"min": 0, "max": 50})).to_jsonl_bytes()
    b = run_simulation(cfg(seed=2, latency_ms={"min": 0, "max": 50})).to_jsonl_bytes()
    assert a != b


# -- convergence -------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_faultless_runs_converge(seed):
    trace = run_simulation(cfg(seed=seed, handlers=3 + seed % 3, latency_ms={"min": 0, "max": 80}))
    ends = finals(trace)
    assert len({f["head"] for f in ends.values()}) == 1
    assert all(f["height"] == 7 for f in ends.values())
    assert all(not f["evidence"] for f in ends.values())
    assert all(a["replay"] == "ok" and not a["failed_checkpoints"] for a in audits(trace))


def test_registry_growth_matches_workload():
    trace = run_simulation(cfg(txs_per_slot=3))
    ends = finals(trace)
    # 2 bootstrap txs + 3 datasets per slot over 8 slots
    assert all(f["registry_size"] == 2 + 3 * 8 for f in ends.values())
    assert all(f["pool"] == 0 for f in ends.values())


def test_reshuffled_covers_roster_each_cycle():
    trace = run_simulation(cfg(seed=21, handlers=5, ordering_mode="reshuffled", duration_slots=15))
    producers = [e["node"] for e in trace.events if e["type"] == "produce"]
    for cycle in range(3):
        assert sorted(producers[cycle * 5 : (cycle + 1) * 5]) == [f"h{i}" for i in range(5)]
    assert len({f["head"] for f in finals(trace).values()}) == 1


# -- offline fault -----------------------------------------------------------------


def test_offline_window_and_recovery():
    config = cfg(seed=5, duration_slots=12, faults=[{"kind": "offline", "handler": "h1", "from_slot": 3, "to_slot": 6}])
    trace = run_simulation(config)
    produced = {e["slot"]: e["node"] for e in trace.events if e["type"] == "produce"}
    # h1 owns slots 1, 4, 7, 10; slot 4 falls in the window, slot 7 is the
    # reconnect abstention, and slot 10 is back to normal
    assert 4 not in produced
    assert 7 not in produced
    assert produced[10] == "h1"
    assert [e["slot"] for e in trace.events if e["type"] == "reconnect"] == [7]
    assert any(e["type"] == "abstain" and e["node"] == "h1" for e in trace.events)
    ends = finals(trace)
    assert len({f["head"] for f in ends.values()}) == 1
    assert all(a["replay"] == "ok" and not a["failed_checkpoints"] for a in audits(trace))


def test_offline_node_ignores_traffic_in_window():
    config = cfg(seed=5, duration_slots=12, faults=[{"kind": "offline", "handler": "h1", "from_slot": 3, "to_slot": 6}])
    trace = run_simulation(config)
    ignored = [e for e in trace.events if e["type"] == "offline_ignore"]
    assert ignored and all(e["node"] == "h1" for e in ignored)
    applies = [e for e in trace.events if e["type"] == "apply" and e["node"] == "h1"]
    # the missed heights come back through sync right after reconnect at slot 7,
    # before any live block lands
    assert [a["height"] for a in applies if a["t"] >= 700][:3] == [3, 4, 5]


def test_reconnecting_node_requests_sync_once_per_peer():
    # h2 reconnects at slot 7 and asks every peer for sync; a block of height 6
    # arrives in the same millisecond, before any answer, and shows a gap that
    # the requests already cover.
    config = cfg(seed=3, duration_slots=10, faults=[
        {"kind": "tamper_history", "handler": "h0", "height": 1, "slot": 3, "resign": 1},
        {"kind": "offline", "handler": "h2", "from_slot": 4, "to_slot": 6},
    ])
    events = run_simulation(config).events
    start = next(i for i, e in enumerate(events) if e["type"] == "reconnect")
    end = next(i for i, e in enumerate(events) if e["type"] == "sync_resp" and e["to"] == "h2")
    window = events[start:end]
    assert any(e["type"] == "gap" and e["node"] == "h2" for e in window)
    requested = [e["to"] for e in window if e["type"] == "sync_req" and e["from"] == "h2"]
    assert sorted(requested) == ["h0", "h1"]
    responses = [e["from"] for e in events if e["type"] == "sync_resp" and e["to"] == "h2"]
    assert sorted(responses) == ["h0", "h1"]


# -- equivocation ------------------------------------------------------------------


def test_equivocation_detected_by_everyone_and_halts():
    config = cfg(seed=9, faults=[{"kind": "equivocate", "handler": "h1", "slot": 4}])
    trace = run_simulation(config)
    ends = finals(trace)
    assert all(f["evidence"] == [["h1", 4]] for f in ends.values())
    halts = [e for e in trace.events if e["type"] == "halt"]
    assert len(halts) == 1
    halt_t = halts[0]["t"]
    assert all(e["t"] <= halt_t for e in trace.events if e["type"] == "produce")
    two = [e for e in trace.events if e["type"] == "produce_equivocation"]
    assert len(two) == 1 and two[0]["node"] == "h1" and two[0]["slot"] == 4
    assert two[0]["blocks"][0] != two[0]["blocks"][1]


def test_equivocation_checkpoints_conflict_across_branches():
    config = cfg(seed=9, faults=[{"kind": "equivocate", "handler": "h1", "slot": 4}])
    trace = run_simulation(config)
    # the two branches carry different slot-4 payload commitments, so some
    # checkpoint pairs between nodes on different branches must fail
    assert any(a["failed_checkpoints"] for a in audits(trace))


def test_equivocator_must_be_scheduled():
    config = cfg(faults=[{"kind": "equivocate", "handler": "h0", "slot": 4}])
    with pytest.raises(ConfigError):
        run_simulation(config)


# -- history tampering --------------------------------------------------------------


def expected_failed_sizes(trace_finals, tampered_leaf_index, checkpoint_sizes):
    return sorted(s for s in checkpoint_sizes if s > tampered_leaf_index)


@pytest.mark.parametrize("resign,reason,fail_height", [(0, "BadTxRoot", 2), (1, "BadSignature", 3)])
def test_tamper_detected_in_audit(resign, reason, fail_height):
    config = cfg(
        seed=11,
        faults=[{"kind": "tamper_history", "handler": "h2", "height": 2, "slot": 5, "resign": resign}],
    )
    trace = run_simulation(config)
    vs_tamperer = [a for a in audits(trace) if a["peer"] == "h2"]
    assert len(vs_tamperer) == 2
    for a in vs_tamperer:
        assert a["replay"] == {"height": fail_height, "reason": reason}
        # tampered tx is registry leaf 4 (3 in block 0, 1 in block 1);
        # checkpoint sizes run 0, 3, 4, 5, ..., 10
        assert a["failed_checkpoints"] == [5, 6, 7, 8, 9, 10]
    honest = [a for a in audits(trace) if a["peer"] != "h2"]
    assert all(a["replay"] == "ok" and not a["failed_checkpoints"] for a in honest)
    # tampering is local forgery: live consensus still converged
    assert len({f["head"] for f in finals(trace).values()}) == 1


def test_audit_replays_each_peer_once(monkeypatch):
    config = sim_config_from_obj(_bench_shaped(1))
    sim = Simulation(config)
    sim.run(audit=False)
    exports = []
    replayed = {}  # id -> each replaying ChainState, kept so that no id is reused
    roots = []  # (id of a served log, size) per root_at call
    real_export, real_receive, real_root_at = SimNode.export_chain, ChainState.receive_block, MerkleLog.root_at

    def export_chain(node):
        exports.append(node.node_id)
        return real_export(node)

    def receive_block(state, block):
        replayed[id(state)] = state
        return real_receive(state, block)

    def root_at(log, size):
        roots.append((id(log), size))
        return real_root_at(log, size)

    monkeypatch.setattr(SimNode, "export_chain", export_chain)
    monkeypatch.setattr(ChainState, "receive_block", receive_block)
    monkeypatch.setattr(MerkleLog, "root_at", root_at)
    sim.audit()
    assert sorted(exports) == sorted(config.handler_ids)
    # the four honest nodes serve one list of the same block objects, and
    # the tamperer its forged copy: one replay each
    assert len(replayed) == 2
    # each served log computes its root at a checkpoint size once, for every verifier
    assert roots and len(roots) == len(set(roots))
    records = audits(sim.trace)
    assert len(records) == 16  # still one per (verifier, peer)
    assert [a["replay"] for a in records if a["peer"] == "h4"] == [{"height": 5, "reason": "BadSignature"}] * 4


def test_audit_checks_checkpoints_without_consistency_proofs(monkeypatch):
    # The auditor holds each peer's whole log, so it compares a checkpoint
    # with that log's root at the checkpoint's size; the records must be the
    # ones the proof-based audit wrote.
    expected = audits(run_simulation(sim_config_from_obj(_bench_shaped(1))))
    sim = Simulation(sim_config_from_obj(_bench_shaped(1)))
    sim.run(audit=False)

    def no_proof(log, old_size):
        raise AssertionError("audit asked for a consistency proof")

    monkeypatch.setattr(MerkleLog, "prove_consistency", no_proof)
    sim.audit()
    records = audits(sim.trace)
    assert len(records) == 16
    assert records == expected
    assert any(a["failed_checkpoints"] for a in records)


def test_untamperable_target_is_refused_at_the_tamper_slot():
    # with no publish workload, block 2 holds no transaction to rewrite; the
    # tamper tick must say so, with or without the end-of-run audit
    tamper = {"kind": "tamper_history", "handler": "h0", "height": 2, "slot": 5, "resign": 1}
    config = cfg(txs_per_slot=0, faults=[tamper])
    sim = Simulation(config)
    with pytest.raises(ConfigError, match="no transactions to tamper with"):
        sim.run(audit=False)
    assert not any(e["type"] == "tamper" for e in sim.trace.events)
    assert sim.nodes["h0"].state.head_height == 4  # raised at slot 5's tick, before that slot's block


def test_each_transaction_is_hashed_once(monkeypatch):
    # A leaf hash is a pure function of a transaction's wire bytes, and the
    # tx-id check of its body bytes, so each transaction object computes
    # each once however many nodes, blocks and replays hold it. Every
    # transaction here has its own bytes, so a repeated argument means a
    # repeated computation.
    leaves, id_checks = [], []
    real_leaf_hash, real_sha256 = merkle_module.leaf_hash, model_module.sha256_bytes

    def leaf_hash(data):
        leaves.append(data)
        return real_leaf_hash(data)

    def sha256_bytes(data):
        if sys._getframe(1).f_code.co_name != "sign_transaction":  # signing derives the id the check re-derives
            id_checks.append(data)
        return real_sha256(data)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "skyprov" and vars(module).get("leaf_hash") is real_leaf_hash:
            monkeypatch.setattr(module, "leaf_hash", leaf_hash)
    monkeypatch.setattr(model_module, "sha256_bytes", sha256_bytes)
    run_simulation(sim_config_from_obj(_bench_shaped(1)))
    # 2 bootstrap and 48 publish transactions, and the tamperer's re-signed copy
    assert len(leaves) == len(set(leaves)) == 51
    # the re-signed copy sits in a block whose header fails first, so it is never checked
    assert len(id_checks) == len(set(id_checks)) == 50


def test_tamper_height_must_be_confirmed():
    config = cfg(faults=[{"kind": "tamper_history", "handler": "h0", "height": 5, "slot": 2, "resign": 0}])
    with pytest.raises(ConfigError):
        run_simulation(config)


def test_rewrite_history_resign_modes():
    sim = Simulation(cfg(seed=11))
    sim.run()
    node = sim.nodes["h2"]
    original = list(node.state.blocks)

    forged = rewrite_history(original, 2, node.key, resign=0)
    assert [b.header.hash for b in forged] == [b.header.hash for b in original]
    assert forged[2].transactions[0].body.dataset.extra == {"tampered": "1"}
    assert forged[2].transactions[0].tx_id == original[2].transactions[0].tx_id  # stale id kept
    # the forgery keeps the verified header object; its tx root gives it away
    assert forged[2].header is original[2].header
    replay = ChainState(sim.genesis)
    assert all(replay.receive_block(b).ok for b in forged[:2])
    assert replay.receive_block(forged[2]).reason == "BadTxRoot"

    resigned = rewrite_history(original, 2, node.key, resign=1)
    assert [b.header.creator for b in resigned] == [b.header.creator for b in original]
    # the run verified every original header; each forged one is judged on its own bytes
    roster = dict(sim.genesis.handlers)
    for old, new in zip(original[2:], resigned[2:]):
        pub = roster[old.header.creator]
        assert old.header.signed_by(pub)
        assert new.header.signed_by(pub) == (new.header.creator == "h2")
    for h in range(2, len(resigned)):
        assert resigned[h].header.hash != original[h].header.hash
        if h + 1 < len(resigned):
            assert resigned[h + 1].header.prev_block_hash == resigned[h].header.hash
    # the forged suffix replays cleanly up to the first foreign-creator header
    replay = ChainState(sim.genesis)
    assert replay.receive_block(resigned[0]).ok
    assert replay.receive_block(resigned[1]).ok
    assert replay.receive_block(resigned[2]).ok  # h2 signed its own block: verifies
    verdict = validate_block(replay, resigned[3])
    assert verdict.reason == "BadSignature"


def test_rewrite_history_needs_dataset_tx():
    sim = Simulation(cfg(seed=11))
    sim.run()
    node = sim.nodes["h0"]
    with pytest.raises(ConfigError):
        rewrite_history(node.state.blocks, 0, node.key, resign=0)  # block 0 leads with a storage registration


# -- drops --------------------------------------------------------------------------


def test_drops_occur_and_trace_stays_wellformed():
    config = cfg(seed=13, drop_probability=0.3, latency_ms={"min": 0, "max": 40}, duration_slots=10)
    trace = run_simulation(config)
    assert any(e["type"] == "drop" for e in trace.events)
    assert any(e["type"] in ("gap", "sync_req") for e in trace.events)
    for node, f in finals(trace).items():
        assert f["height"] >= 0
