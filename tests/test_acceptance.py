"""Acceptance gate: eight criteria, one test each, one PASS line each.

Every criterion is checked against an independent oracle or a frozen golden
value at the stated scale and tolerance. Budgeted criteria assert their own
wall-clock limits. Run with `pytest -v tests/test_acceptance.py` to see one
pass/fail line per criterion.
"""

import hashlib
import os
import random
import time
from decimal import Decimal

import pytest

from conftest import GEOMETRY_HASH, key_for, make_roster, program_body, storage_body
from test_index import confirm, derive_body, oracle_scan, publish_body, random_filter

from skyprov import aggregation, parallel
from skyprov.aggregation import (
    AggregationRequest,
    PluginSpec,
    PublishSink,
    execute,
    publish_result,
)
from skyprov.canonical import digest_from_hex, dumps_canonical, sha256_bytes
from skyprov.chain import (
    BlockHeader,
    Block,
    ChainState,
    GenesisConfig,
    block_bytes,
    produce_block,
    tx_tree_root,
    validate_block,
)
from skyprov.errors import IntegrityError
from skyprov.index import QueryFilter, index_to_obj, query
from skyprov.keys import SigningKey
from skyprov.merkle import (
    MerkleLog,
    leaf_hash,
    verify_consistency,
    verify_inclusion,
)
from skyprov.model import (
    DatasetDescriptor,
    EasEvent,
    FileRef,
    PublishDataset,
    RegisterProgram,
    RegisterStorage,
    provenance_trace,
    sign_transaction,
)
from skyprov.netsim import Simulation, rewrite_history, run_simulation, sim_config_from_obj
from skyprov.storage import encode_events, init_storage, write_events

from dataclasses import replace


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} PASS: {detail}")


# =====================================================================================
# 1. Merkle proof exhaustive suite
# =====================================================================================


def test_criterion_1_merkle_proofs_exhaustive_and_mutation_campaign():
    started = time.monotonic()
    leaves = [f"leaf-{i}".encode() for i in range(64)]
    logs = [MerkleLog()]  # logs[n] holds the first n leaves
    for data in leaves:
        nxt = logs[-1].fork()
        nxt.append_leaf_hash(leaf_hash(data))
        logs.append(nxt)

    checked = 0
    for n in range(0, 65):
        log = logs[n]
        root = log.root()
        for i in range(n):
            proof = log.prove_inclusion(i)
            assert verify_inclusion(root, leaf_hash(leaves[i]), proof), (n, i)
            checked += 1
        for m in range(1, n + 1):
            proof = log.prove_consistency(m)
            assert verify_consistency(logs[m].root(), m, root, n, proof), (n, m)
            checked += 1

    rng = random.Random(20260816)
    trials = 10_000
    for trial in range(trials):
        n = rng.randint(1, 64)
        log = logs[n]
        root = log.root()
        if rng.random() < 0.5:
            i = rng.randrange(n)
            proof = log.prove_inclusion(i)
            leaf = leaf_hash(leaves[i])
            target = rng.choice(["root", "leaf", "path", "index"])
            if target == "path" and not proof.path:
                target = "root"
            if target == "index" and n == 1:
                target = "leaf"
            if target == "root":
                root = _flip_bit(rng, root)
            elif target == "leaf":
                leaf = _flip_bit(rng, leaf)
            elif target == "path":
                k = rng.randrange(len(proof.path))
                path = list(proof.path)
                path[k] = _flip_bit(rng, path[k])
                proof = replace(proof, path=tuple(path))
            else:
                wrong = rng.choice([j for j in range(n) if j != i])
                proof = replace(proof, leaf_index=wrong)
            assert not verify_inclusion(root, leaf, proof), (trial, n, i, target)
        else:
            m = rng.randint(1, n)
            proof = log.prove_consistency(m)
            old_root, old_size = logs[m].root(), m
            target = rng.choice(["root", "old_root", "path", "size"])
            if target == "path" and not proof.path:
                target = "root"
            if target == "size" and n == 1:
                target = "old_root"
            if target == "root":
                root = _flip_bit(rng, root)
            elif target == "old_root":
                old_root = _flip_bit(rng, old_root)
            elif target == "path":
                k = rng.randrange(len(proof.path))
                path = list(proof.path)
                path[k] = _flip_bit(rng, path[k])
                proof = replace(proof, path=tuple(path))
            else:
                old_size = rng.choice([s for s in range(1, n + 1) if s != m])
                proof = replace(proof, old_size=old_size)
            assert not verify_consistency(old_root, old_size, root, n, proof), (trial, n, m, target)

    elapsed = time.monotonic() - started
    assert elapsed < 30, f"budget exceeded: {elapsed:.1f}s"
    report(1, f"{checked} honest proofs verified, {trials} mutations all rejected in {elapsed:.1f}s")


def _flip_bit(rng, digest: bytes) -> bytes:
    pos = rng.randrange(len(digest) * 8)
    out = bytearray(digest)
    out[pos // 8] ^= 1 << (pos % 8)
    return bytes(out)


# =====================================================================================
# 2. Registry compatibility across checkpoints, honest and tampered
# =====================================================================================


def test_criterion_2_checkpoint_compatibility_20_scenarios():
    for seed in range(20):
        n = 3 + seed % 5
        duration = 8 + seed % 6
        tamper_height = 1 + seed % 3
        activation = tamper_height + 2
        tamperer = f"h{seed % n}"
        config = sim_config_from_obj({
            "seed": seed, "handlers": n, "slot_duration_ms": 100, "duration_slots": duration,
            "faults": [{"kind": "tamper_history", "handler": tamperer,
                        "height": tamper_height, "slot": activation, "resign": seed % 2}],
        })
        sim = Simulation(config)
        sim.run()

        # with one tx per slot the tampered tx is registry leaf 2 + height
        tampered_leaf = 2 + tamper_height
        audit_events = [e for e in sim.trace.events if e["type"] == "audit"]
        assert audit_events, seed
        for event in audit_events:
            verifier = sim.nodes[event["verifier"]]
            sizes = [cp.registry_size for cp in verifier.checkpoints]
            if event["peer"] == tamperer:
                expected = sorted(s for s in sizes if s > tampered_leaf)
                assert event["failed_checkpoints"] == expected, (seed, event)
                assert event["replay"] != "ok", (seed, event)
            else:
                assert event["failed_checkpoints"] == [], (seed, event)
                assert event["replay"] == "ok", (seed, event)

        # honest pairwise: every checkpoint pair within one honest node verifies
        honest = sim.nodes[sorted(h for h in config.handler_ids if h != tamperer)[0]]
        wire = [tx.wire_bytes for b in honest.state.blocks for tx in b.transactions]
        cps = honest.checkpoints
        for j in range(len(cps)):
            log_j = MerkleLog()
            for data in wire[: cps[j].registry_size]:
                log_j.append_leaf_hash(leaf_hash(data))
            assert log_j.root().hex() == cps[j].registry_root, (seed, j)
            for i in range(j + 1):
                size_i = cps[i].registry_size
                if size_i == 0:
                    continue
                proof = log_j.prove_consistency(size_i)
                assert verify_consistency(
                    digest_from_hex(cps[i].registry_root), size_i,
                    log_j.root(), cps[j].registry_size, proof,
                ), (seed, i, j)
    report(2, "20 tamper scenarios: spanning checkpoint pairs all fail, honest pairs all verify")


# =====================================================================================
# 3. Consensus convergence, 100 seeds, offline gaps at scheduled slots
# =====================================================================================


def test_criterion_3_convergence_100_seeds_under_60s():
    started = time.monotonic()
    converged = 0
    offline_runs = 0
    for seed in range(100):
        rng = random.Random(987_654 + seed)
        n = rng.randint(3, 7)
        duration = rng.randint(20, 50)
        slot_ms = 100
        obj = {
            "seed": seed, "handlers": n, "slot_duration_ms": slot_ms,
            "duration_slots": duration,
            "latency_ms": {"min": 0, "max": rng.randint(0, slot_ms - 20)},
        }
        offline = seed % 4 == 0  # every fourth run loses one handler for a window
        if offline:
            victim = rng.randrange(n)
            lo = rng.randint(2, duration // 2)
            hi = rng.randint(lo, duration - 4)
            obj["faults"] = [{"kind": "offline", "handler": f"h{victim}",
                              "from_slot": lo, "to_slot": hi}]
        config = sim_config_from_obj(obj)
        trace = run_simulation(config, audit=False)
        finals = [e for e in trace.events if e["type"] == "final"]
        heads = {f["head"] for f in finals}
        assert len(heads) == 1, f"seed {seed} diverged"
        converged += 1

        if offline:
            offline_runs += 1
            produced = {e["slot"] for e in trace.events if e["type"].startswith("produce")}
            gaps = set(range(duration)) - produced
            # schedule oracle for fixed ordering: slot s belongs to handler s mod n
            victim_id = f"h{victim}"
            windowed = {s for s in range(lo, hi + 1) if f"h{s % n}" == victim_id}
            assert windowed <= gaps, f"seed {seed}: missing gap at an offline scheduled slot"
            for s in gaps:
                assert f"h{s % n}" == victim_id, f"seed {seed}: unexpected gap at slot {s}"

    elapsed = time.monotonic() - started
    assert elapsed < 60, f"budget exceeded: {elapsed:.1f}s"
    report(3, f"{converged}/100 runs converged ({offline_runs} with an offline handler), {elapsed:.1f}s")


# =====================================================================================
# 4. Equivocation evidence everywhere; forged suffixes rejected
# =====================================================================================


def test_criterion_4_equivocation_and_forgery_detection():
    # equivocation: every honest node ends holding the evidence
    for seed in range(10):
        n = 3 + seed % 4
        duration = 8 + seed % 4
        slot = 3 + seed % 3
        culprit = f"h{slot % n}"
        config = sim_config_from_obj({
            "seed": seed, "handlers": n, "slot_duration_ms": 100, "duration_slots": duration,
            "faults": [{"kind": "equivocate", "handler": culprit, "slot": slot}],
        })
        trace = run_simulation(config, audit=False)
        finals = [e for e in trace.events if e["type"] == "final"]
        for f in finals:
            if f["node"] == culprit:
                continue
            assert [culprit, slot] in f["evidence"], f"seed {seed}: {f['node']} missed the evidence"

    # forged suffixes: an attacker extending an honest chain without the
    # scheduled key is rejected with the precise verdict
    handlers, keys = make_roster(3)
    config = GenesisConfig(handlers=handlers, slot_duration_ms=100,
                           ordering_mode="fixed", genesis_time=1_000_000_000)
    state = ChainState(config)
    confirm(state, keys, [storage_body("st-1"), program_body()])
    confirm(state, keys, [publish_body("ds-1")])
    next_slot = state.last_slot() + 1
    scheduled = state.scheduled_handler(next_slot)
    attacker = next(h for h in keys if h != scheduled)

    def forged_header(creator, signing_key):
        root, size = state.registry_log.extended_root([])
        unsigned = BlockHeader(
            height=state.head_height + 1, slot=next_slot, prev_block_hash=state.head_hash(),
            tx_root=tx_tree_root([]), registry_root=root.hex(), registry_size=size,
            timestamp=state.slot_start_time(next_slot), creator=creator, signature="0" * 128,
        )
        signature = signing_key.sign(unsigned.signing_bytes).hex()
        return Block(header=replace(unsigned, signature=signature), transactions=())

    v = validate_block(state, forged_header(attacker, keys[attacker]))
    assert (v.ok, v.reason) == (False, "NotScheduledHandler"), v
    v = validate_block(state, forged_header(scheduled, keys[attacker]))
    assert (v.ok, v.reason) == (False, "BadSignature"), v
    outsider = SigningKey.from_seed(b"accept:outsider")
    v = validate_block(state, forged_header("mallory", outsider))
    assert (v.ok, v.reason) == (False, "NotScheduledHandler"), v

    # a fully re-signed history (all keys but the victims' lost) replays up to
    # the first header whose creator key the forger does not hold
    config_obj = {"seed": 31, "handlers": 3, "slot_duration_ms": 100, "duration_slots": 6}
    sim = Simulation(sim_config_from_obj(config_obj))
    sim.run(audit=False)
    node = sim.nodes["h1"]
    forged = rewrite_history(node.state.blocks, 2, node.key, resign=1)
    fresh = ChainState(sim.genesis)
    verdicts = []
    for block in forged:
        verdict = fresh.receive_block(block)
        verdicts.append(verdict)
        if not verdict.ok:
            break
    assert not verdicts[-1].ok and verdicts[-1].reason == "BadSignature"
    assert all(v.ok for v in verdicts[:-1])
    report(4, "10 equivocation runs detected everywhere; forged suffixes rejected with exact verdicts")


# =====================================================================================
# 5. Index equals brute-force oracle over 1000 (registry, filter) pairs
# =====================================================================================


def _random_registry(seed: int, n_datasets: int):
    handlers, keys = make_roster(3)
    config = GenesisConfig(handlers=handlers, slot_duration_ms=100,
                           ordering_mode="fixed", genesis_time=1_000_000_000)
    state = ChainState(config)
    rng = random.Random(seed)
    blocks = [confirm(state, keys, [
        storage_body("st-1", kind="jsonl", base_uri="/tmp/a1"),
        storage_body("st-2", kind="packed", base_uri="/tmp/a2"),
        program_body("prog-1", "1.0"),
    ])]
    published = []
    count = 0
    while count < n_datasets:
        batch = min(rng.randint(5, 40), n_datasets - count)
        bodies = []
        for _ in range(batch):
            did = f"ds-{count}"
            count += 1
            facility = rng.choice(["TAIGA", "TUNKA", "HISCORE"])
            storage = rng.choice(["st-1", "st-2"])
            start = rng.randrange(0, 5000)
            end = start + rng.randrange(0, 3000)
            extra = {}
            if rng.random() < 0.6:
                lo = Decimal(rng.randrange(0, 300)) / 100
                hi = lo + Decimal(rng.randrange(0, 500)) / 100
                extra = {"energy_min": str(lo), "energy_max": str(hi)}
            if published and rng.random() < 0.3:
                parents = rng.sample(published, min(len(published), rng.randint(1, 3)))
                bodies.append(derive_body(did, parents, start=start, end=end,
                                          facility=facility, extra=extra, storage_id=storage))
            else:
                bodies.append(publish_body(did, storage_id=storage, facility_id=facility,
                                           start=start, end=end, extra=extra))
            published.append(did)
        blocks.append(confirm(state, keys, bodies))
    return state, blocks, published, rng


def test_criterion_5_index_oracle_equivalence_1000_pairs():
    pairs = 0
    sizes = [random.Random(5000 + k).randint(10, 120) for k in range(19)] + [500]
    for k, n_datasets in enumerate(sizes):
        state, blocks, published, rng = _random_registry(31_000 + k, n_datasets)
        index = state.registry

        # the registry built while producing must be bit-identical to one
        # rebuilt by validating the same blocks
        snapshot = dumps_canonical(index_to_obj(index))
        replica = ChainState(state.config)
        for block in blocks:
            assert replica.receive_block(block).ok
        assert dumps_canonical(index_to_obj(replica.registry)) == snapshot

        for _ in range(50):
            f = random_filter(rng, published)
            got = [d.dataset_id for d in query(index, f)]
            assert got == oracle_scan(blocks, f), f"registry {k}, filter {f}"
            pairs += 1
    assert pairs == 1000
    report(5, f"{pairs} (registry, filter) pairs equal the chain-scan oracle; rebuilds bit-identical")


# =====================================================================================
# 6. Aggregation: concurrent == sequential; merge+filter == oracle, 200 trials
# =====================================================================================


def _tiny_event(eid, t, energy, facility):
    return EasEvent(event_id=eid, registration_time=t, facility_id=facility,
                    detector_id="d0", signal_histogram=(1,), bin_width=5,
                    energy_estimate=energy)


def _agg_world(root, rng, trial):
    handlers, keys = make_roster(2)
    config = GenesisConfig(handlers=handlers, slot_duration_ms=100,
                           ordering_mode="fixed", genesis_time=1_000_000_000)
    state = ChainState(config)
    stores = {}
    for sid, kind in (("st-A", "jsonl"), ("st-B", "packed")):
        stores[sid] = init_storage(os.path.join(root, f"t{trial}-{sid}"), sid, kind)

    bodies = [
        RegisterStorage(storage_id="st-A", adapter_kind="jsonl", base_uri="x",
                        storage_pubkey=key_for("agg-owner").public_hex),
        RegisterStorage(storage_id="st-B", adapter_kind="packed", base_uri="y",
                        storage_pubkey=key_for("agg-owner").public_hex),
    ]
    all_events = {}
    for d in range(rng.randint(2, 5)):
        did = f"ds-{d}"
        sid = rng.choice(["st-A", "st-B"])
        kind = "jsonl" if sid == "st-A" else "packed"
        times = sorted(rng.randrange(1, 2000) for _ in range(rng.randint(1, 5)))
        events = []
        for j, t in enumerate(times):
            energy = None if rng.random() < 0.3 else str(Decimal(rng.randrange(0, 400)) / 100)
            events.append(_tiny_event(f"{did}-e{j}", t, energy, "TAIGA"))
        split = rng.randint(0, len(events))
        refs = []
        for part, chunk in enumerate([events[:split], events[split:]]):
            if not chunk and part == 1 and refs:
                continue
            path = f"data/{did}/part{part}.{kind}"
            digest = write_events(stores[sid], path, chunk)
            size = os.path.getsize(os.path.join(root, f"t{trial}-{sid}", path))
            refs.append(FileRef(path=path, content_hash=digest.hex(), size=size, format=kind))
        lo, hi = (times[0], times[-1]) if times else (0, 0)
        bodies.append(PublishDataset(dataset=DatasetDescriptor(
            dataset_id=did, kind="primary", storage_id=sid, file_refs=tuple(refs),
            facility_id="TAIGA", time_range=(lo, max(hi, lo)),
            detector_geometry_hash=GEOMETRY_HASH, extra={})))
        all_events[did] = events
    confirm(state, keys, bodies, key=key_for("agg-owner"))
    return state, stores, all_events


def _execute_with_helpers(request, index, stores, monkeypatch):
    """execute on two usable CPUs with a one-byte share minimum, so every
    request of two or more streams decodes them in a forked helper too."""
    with monkeypatch.context() as patch:
        patch.setattr(parallel, "usable_cpus", lambda: 2)
        patch.setattr(aggregation, "_MIN_SHARE_BYTES", 1)
        return execute(request, index, stores)


def test_criterion_6_aggregation_oracle_200_trials(tmp_path, monkeypatch):
    # concurrent: the streams shared with a forked helper; sequential: these
    # few-hundred-byte streams are below the share minimum, so decoded here
    trials = 200
    for trial in range(trials):
        rng = random.Random(77_000 + trial)
        state, stores, all_events = _agg_world(str(tmp_path), rng, trial)
        index = state.registry
        lo = rng.randrange(0, 1000)
        hi = lo + rng.randrange(200, 2200)
        threshold = str(Decimal(rng.randrange(0, 300)) / 100)
        f = QueryFilter(time_range=(lo, hi))

        plain = AggregationRequest(filter=f, pipeline=())
        par = _execute_with_helpers(plain, index, stores, monkeypatch)
        seq = execute(plain, index, stores)
        assert par.output_bytes == seq.output_bytes, trial

        piped = AggregationRequest(filter=f, pipeline=(
            PluginSpec("time_ordered_merge", {}),
            PluginSpec("energy_filter", {"threshold": threshold}),
        ))
        got = _execute_with_helpers(piped, index, stores, monkeypatch)
        got_seq = execute(piped, index, stores)
        assert got.output_bytes == got_seq.output_bytes, trial

        # oracle: concatenate matching datasets, sort, filter
        matched = [
            (did, events) for did, events in sorted(all_events.items())
            if index.datasets[did].descriptor.time_range[0] <= hi
            and index.datasets[did].descriptor.time_range[1] >= lo
        ]
        flat = [
            (ev.registration_time, did, ev.event_id, ev)
            for did, events in matched for ev in events
        ]
        flat.sort(key=lambda item: item[:3])
        thr = Decimal(threshold)
        kept = [ev for _, _, _, ev in flat
                if ev.energy_estimate is not None and Decimal(ev.energy_estimate) >= thr]
        assert got.output_bytes == encode_events("jsonl", kept), trial
    report(6, f"{trials} trials: concurrent == sequential and merge+filter == sort-filter oracle")


# =====================================================================================
# 7. End-to-end provenance round trip (golden fixture)
# =====================================================================================

GOLDEN_REGISTRY_ROOT = "2e060fbc94f458ab825c88643f93c361a62c11f9722d73f6cccc01229396c043"
GOLDEN_HEAD_HASH = "580388fda06445a6a2236090271492d33584f34c512c2e36401e10451283f6ec"
GOLDEN_OUTPUT_DIGEST = "a0c47fde814c228780f60098812d950ada42a6c196bdb07d6621cbde48d51c72"
GOLDEN_GENESIS_SHA = "58c60ec1a2b7a1ab5af2a939d027097055145a4be5ff2b4b7519ea7c43d99e54"
GOLDEN_BLOCK0_SHA = "d118880f2ee5a3222817b7c90b868d57ffe2b360c88bd54231ede01a53ccf2c2"
GOLDEN_TX0_WIRE_SHA = "b82dc5472ce6b20d3e6d4fda3fb22c6bf26586b9e292676bb900a6b0ab36beec"
GOLDEN_INCLUSION_SHA = "8a6bd744a146b5d5b08a57a640e662737d4892b9452d4358dcb04235cecb46c6"
GOLDEN_CONSISTENCY_SHA = "5ba8e90bc473a1b9230597e0bf382a3e374cf74f7c7213ef87d5444efb3acc27"
GOLDEN_PACKED_SHA = "3a59b09854e66b8f26938938072e54d657c0928daf066a80e4ad4cd04bca97f4"
GOLDEN_PACKED_HEADER = bytes.fromhex("45415350010002000000")  # EASP, v1 LE, count 2 LE

ACCEPT_GEOM = hashlib.sha256(b"accept-geometry").hexdigest()


def _accept_event(eid, t, energy=None):
    return EasEvent(
        event_id=eid, registration_time=t,
        facility_id="TAIGA" if eid.startswith("j") else "TUNKA",
        detector_id="d0", signal_histogram=(3, 1, 4), bin_width=25,
        energy_estimate=energy, service_info={"run": "77"},
    )


def _provenance_world(root):
    h0 = SigningKey.from_seed(b"accept:h0")
    h1 = SigningKey.from_seed(b"accept:h1")
    user = SigningKey.from_seed(b"accept:user")
    config = GenesisConfig(
        handlers=(("h0", h0.public_hex), ("h1", h1.public_hex)),
        slot_duration_ms=100, ordering_mode="fixed", genesis_time=1_000_000_000_000,
    )
    state = ChainState(config)
    stj = init_storage(os.path.join(root, "st-j"), "st-j", "jsonl")
    stp = init_storage(os.path.join(root, "st-p"), "st-p", "packed")
    dj = write_events(stj, "data/ds-j.jsonl", [_accept_event("j-0", 100, "1.25"), _accept_event("j-1", 300)])
    dp = write_events(stp, "data/ds-p.packed", [_accept_event("p-0", 200, "0.75"), _accept_event("p-1", 400, "2.00")])
    size_j = os.path.getsize(os.path.join(root, "st-j", "data/ds-j.jsonl"))
    size_p = os.path.getsize(os.path.join(root, "st-p", "data/ds-p.packed"))
    bodies = [
        RegisterStorage(storage_id="st-j", adapter_kind="jsonl", base_uri="storages/st-j",
                        storage_pubkey=user.public_hex),
        RegisterStorage(storage_id="st-p", adapter_kind="packed", base_uri="storages/st-p",
                        storage_pubkey=user.public_hex),
        RegisterProgram(program_id="agg-merge", version="1.0",
                        code_hash=hashlib.sha256(b"agg-merge-code").hexdigest()),
        PublishDataset(dataset=DatasetDescriptor(
            dataset_id="ds-j", kind="primary", storage_id="st-j",
            file_refs=(FileRef(path="data/ds-j.jsonl", content_hash=dj.hex(), size=size_j, format="jsonl"),),
            facility_id="TAIGA", time_range=(100, 300), detector_geometry_hash=ACCEPT_GEOM, extra={})),
        PublishDataset(dataset=DatasetDescriptor(
            dataset_id="ds-p", kind="primary", storage_id="st-p",
            file_refs=(FileRef(path="data/ds-p.packed", content_hash=dp.hex(), size=size_p, format="packed"),),
            facility_id="TUNKA", time_range=(200, 400), detector_geometry_hash=ACCEPT_GEOM, extra={})),
    ]
    for i, body in enumerate(bodies):
        state.submit(sign_transaction(body, user, created_at=1_000 + i))
    block0 = produce_block(state, 0, h0, now=state.slot_start_time(0))
    assert state.receive_block(block0).ok and len(block0.transactions) == 5

    storages = {"st-j": stj, "st-p": stp}
    index = state.registry
    request = AggregationRequest(
        filter=QueryFilter(time_range=(0, 10_000), kind="primary"),
        pipeline=(PluginSpec("time_ordered_merge", {}),),
        sink=PublishSink(storage_id="st-j", dataset_id="ds-merged",
                         program_id="agg-merge", program_version="1.0"),
    )
    result = execute(request, index, storages)
    publish_result(result, request.sink, user, state, storages, created_at=2_000)
    block1 = produce_block(state, 1, h1, now=state.slot_start_time(1))
    assert state.receive_block(block1).ok and len(block1.transactions) == 1
    return state, config, storages, result, block0


def test_criterion_7_provenance_round_trip_golden(tmp_path):
    state, _, storages, result, _ = _provenance_world(str(tmp_path))

    dag = provenance_trace("ds-merged", state.registry)
    assert sorted(e.parent for e in dag.edges) == ["ds-j", "ds-p"]
    assert {(e.program_id, e.program_version) for e in dag.edges} == {("agg-merge", "1.0")}
    assert set(dag.nodes) == {"ds-merged", "ds-j", "ds-p"}

    assert state.registry_log.root().hex() == GOLDEN_REGISTRY_ROOT
    assert state.head_hash() == GOLDEN_HEAD_HASH
    assert result.output_digest == GOLDEN_OUTPUT_DIGEST

    # the derived dataset fetches cleanly...
    index = state.registry
    refetch = AggregationRequest(filter=QueryFilter(kind="secondary"), pipeline=())
    fetched = execute(refetch, index, storages)
    assert fetched.output_digest == result.output_digest

    # ...until its stored file is mutated, then the next fetch fails integrity
    derived_path = os.path.join(str(tmp_path), "st-j", "derived", "ds-merged.jsonl")
    data = bytearray(open(derived_path, "rb").read())
    data[len(data) // 2] ^= 0x01
    open(derived_path, "wb").write(bytes(data))
    with pytest.raises(IntegrityError) as excinfo:
        execute(refetch, index, storages)
    assert "st-j/derived/ds-merged.jsonl" in str(excinfo.value)
    report(7, "derived dataset carries 2 parents + program; mutated file fails next fetch")


# =====================================================================================
# 8. Format bit-exactness against golden digests
# =====================================================================================


def test_criterion_8_format_bit_exactness(tmp_path):
    state, config, _, _, block0 = _provenance_world(str(tmp_path))

    assert sha256_bytes(config.wire_bytes).hex() == GOLDEN_GENESIS_SHA
    assert sha256_bytes(block_bytes(block0)).hex() == GOLDEN_BLOCK0_SHA
    assert sha256_bytes(block0.transactions[0].wire_bytes).hex() == GOLDEN_TX0_WIRE_SHA

    log = state.registry_log
    assert sha256_bytes(log.prove_inclusion(5).to_json_bytes()).hex() == GOLDEN_INCLUSION_SHA
    assert sha256_bytes(log.prove_consistency(5).to_json_bytes()).hex() == GOLDEN_CONSISTENCY_SHA

    packed = encode_events("packed", [_accept_event("p-0", 200, "0.75"), _accept_event("p-1", 400, "2.00")])
    assert sha256_bytes(packed).hex() == GOLDEN_PACKED_SHA
    assert packed[:10] == GOLDEN_PACKED_HEADER  # little-endian version and count on the wire
    assert len(packed) == 134
    report(8, "genesis, block, tx wire, proof JSON, and packed records all match frozen digests")
