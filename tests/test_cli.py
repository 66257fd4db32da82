"""CLI tests: every subcommand driven in-process through main(argv),
checking machine output on stdout, exit codes, and that the command
surface is a faithful veneer over the library calls it wraps.
"""

import dataclasses
import hashlib
import json
import os
import pathlib
import shutil
import sys

import pytest

from skyprov import canonical as canonical_module
from skyprov import chain as chain_module
from skyprov import cli
from skyprov import index as index_module
from skyprov import keys as keys_module
from skyprov import model as model_module
from skyprov import parallel as parallel_module
from skyprov.aggregation import AggregationRequest, PluginSpec, execute, request_from_obj
from skyprov.canonical import digest_from_hex, dumps_canonical, sha256_bytes
from skyprov.chain import (
    Block,
    ChainState,
    GenesisConfig,
    load_chain,
    load_genesis,
    produce_block,
    save_block_file,
    save_chain,
    save_genesis,
)
from skyprov.errors import AlreadyExists, InvalidBody, IoError, MalformedKey
from skyprov.index import QueryFilter, index_to_obj, query
from skyprov.keys import SigningKey, load_key_file, save_key_file
from skyprov.merkle import MerkleLog, leaf_hash, verify_inclusion
from skyprov.model import (
    DatasetDescriptor,
    DeriveDataset,
    EasEvent,
    FileRef,
    PublishDataset,
    RegisterProgram,
    RegisterStorage,
    dataset_to_obj,
    sign_transaction,
)
from skyprov.netsim import run_simulation, sim_config_from_obj
from skyprov.storage import init_storage, write_events

GEOM = hashlib.sha256(b"cli-geometry").hexdigest()


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def lines(out):
    return [json.loads(line) for line in out.splitlines() if line]


def mk_events(prefix, times, energies=None):
    energies = energies or [None] * len(times)
    return [
        EasEvent(
            event_id=f"{prefix}-{i}",
            registration_time=t,
            facility_id="TAIGA",
            detector_id="d1",
            signal_histogram=(1, 2),
            bin_width=10,
            energy_estimate=e,
        )
        for i, (t, e) in enumerate(zip(times, energies))
    ]


@pytest.fixture
def world(tmp_path):
    """A home directory with keys, a two-handler chain carrying one storage,
    one program, and two published datasets whose files really exist."""
    home = tmp_path / "home"
    keys = {}
    for hid in ("h0", "h1"):
        keys[hid] = SigningKey.from_seed(f"cli-test:{hid}".encode())
        os.makedirs(home / "keys", exist_ok=True)
        save_key_file(str(home / "keys" / f"{hid}.json"), keys[hid])
    user = SigningKey.from_seed(b"cli-test:user")
    save_key_file(str(home / "keys" / "user.json"), user)

    config = GenesisConfig(
        handlers=(("h0", keys["h0"].public_hex), ("h1", keys["h1"].public_hex)),
        slot_duration_ms=100,
        ordering_mode="fixed",
        genesis_time=1_000_000_000_000,
    )
    state = ChainState(config)

    handle = init_storage(str(home / "storages" / "st-1"), "st-1", "jsonl")
    files = {
        "ds-a": ("data/ds-a.jsonl", mk_events("a", [100, 150], ["1.0", "0.2"])),
        "ds-b": ("data/ds-b.jsonl", mk_events("b", [120, 180])),
    }
    refs = {}
    for ds_id, (path, events) in files.items():
        digest = write_events(handle, path, events)
        size = os.path.getsize(home / "storages" / "st-1" / path)
        refs[ds_id] = FileRef(path=path, content_hash=digest.hex(), size=size, format="jsonl")

    bodies = [
        RegisterStorage(storage_id="st-1", adapter_kind="jsonl", base_uri="storages/st-1",
                        storage_pubkey=user.public_hex),
        RegisterProgram(program_id="prog-1", version="1.0", code_hash=hashlib.sha256(b"code").hexdigest()),
        PublishDataset(dataset=DatasetDescriptor(
            dataset_id="ds-a", kind="primary", storage_id="st-1", file_refs=(refs["ds-a"],),
            facility_id="TAIGA", time_range=(100, 200), detector_geometry_hash=GEOM, extra={})),
        PublishDataset(dataset=DatasetDescriptor(
            dataset_id="ds-b", kind="primary", storage_id="st-1", file_refs=(refs["ds-b"],),
            facility_id="TUNKA", time_range=(120, 300), detector_geometry_hash=GEOM, extra={})),
    ]
    for i, body in enumerate(bodies):
        state.submit(sign_transaction(body, user, created_at=1_000 + i))
    block = produce_block(state, 0, keys["h0"], now=config.genesis_time)
    assert state.receive_block(block).ok
    assert len(block.transactions) == 4
    save_chain(state, str(home / "chain"))
    return {"home": str(home), "chain": str(home / "chain"), "state": state, "keys": keys, "user": user}


# -- keygen / genesis-init ----------------------------------------------------------


def test_keygen_is_deterministic_with_seed(tmp_path, capsys):
    code, out, _ = run(capsys, "keygen", "--home", str(tmp_path / "a"), "--name", "k", "--seed", "9")
    code2, out2, _ = run(capsys, "keygen", "--home", str(tmp_path / "b"), "--name", "k", "--seed", "9")
    assert code == code2 == 0
    assert lines(out)[0]["public"] == lines(out2)[0]["public"]
    key = load_key_file(str(tmp_path / "a" / "keys" / "k.json"))
    assert key.public_hex == lines(out)[0]["public"]


def test_keygen_refuses_overwrite(tmp_path, capsys):
    assert run(capsys, "keygen", "--home", str(tmp_path), "--name", "k")[0] == 0
    code, out, _ = run(capsys, "keygen", "--home", str(tmp_path), "--name", "k")
    assert code == 4
    assert lines(out)[0]["error"] == "AlreadyExists"


@pytest.mark.parametrize("seed", [[], ["--seed", "1"]], ids=["random", "seeded"])
def test_keygen_name_without_utf8_form_is_usage_error(tmp_path, capsys, seed):
    name = os.fsdecode(b"\xff")  # an argv byte that is not UTF-8 arrives as a lone surrogate
    code, out, err = run(capsys, "keygen", "--home", str(tmp_path / "home"), "--name", name, *seed)
    assert code == 2
    assert [row["error"] for row in lines(out)] == ["UsageError"]
    assert "Traceback" not in err
    assert not os.path.exists(tmp_path / "home")


def test_save_key_file_never_replaces_a_key(tmp_path):
    path = str(tmp_path / "k.json")
    save_key_file(path, SigningKey.from_seed(b"first"))
    with pytest.raises(AlreadyExists):
        save_key_file(path, SigningKey.from_seed(b"second"))
    assert load_key_file(path).public_hex == SigningKey.from_seed(b"first").public_hex


def test_genesis_init_accepts_hex_and_key_names(tmp_path, capsys):
    home = str(tmp_path)
    run(capsys, "keygen", "--home", home, "--name", "h0", "--seed", "1")
    other = SigningKey.from_seed(b"other")
    code, out, _ = run(
        capsys, "genesis-init", "--home", home,
        "--handler", "h0=h0", "--handler", f"h1={other.public_hex}",
        "--slot-ms", "250", "--ordering", "reshuffled",
    )
    assert code == 0
    config = load_chain(os.path.join(home, "chain")).config
    assert dict(config.handlers)["h1"] == other.public_hex
    assert config.slot_duration_ms == 250 and config.ordering_mode == "reshuffled"
    code, out, _ = run(capsys, "genesis-init", "--home", home, "--handler", "h0=h0")
    assert code == 4 and lines(out)[0]["error"] == "AlreadyExists"
    assert load_genesis(os.path.join(home, "chain")) == config  # the first roster stays


def test_second_genesis_never_replaces_the_first(tmp_path):
    chain_dir = str(tmp_path / "chain")
    first = GenesisConfig(handlers=(("h0", SigningKey.from_seed(b"h0").public_hex),), slot_duration_ms=100,
                          ordering_mode="fixed", genesis_time=1_000)
    second = dataclasses.replace(first, handlers=(("h0", SigningKey.from_seed(b"other").public_hex),))
    save_genesis(chain_dir, first)
    save_genesis(chain_dir, first)  # identical bytes: save_chain re-saves a store
    with pytest.raises(AlreadyExists):
        save_genesis(chain_dir, second)
    assert load_genesis(chain_dir) == first


def test_keygen_home_under_a_file_is_an_io_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_bytes(b"")
    code, out, err = run(capsys, "keygen", "--home", str(blocker / "home"), "--name", "k")
    assert code == 4
    rows = lines(out)
    assert len(rows) == 1 and rows[0]["error"] == "IoError"
    assert "Traceback" not in err


def test_genesis_init_chain_under_a_file_is_an_io_error(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_bytes(b"")
    code, out, err = run(
        capsys, "genesis-init", "--home", str(tmp_path), "--chain", str(blocker / "chain"),
        "--handler", f"h0={SigningKey.from_seed(b'h0').public_hex}",
    )
    assert code == 4
    rows = lines(out)
    assert len(rows) == 1 and rows[0]["error"] == "IoError"
    assert "Traceback" not in err


def test_invalid_genesis_is_one_error_line_and_creates_no_chain_dir(tmp_path, capsys):
    chain_dir = tmp_path / "home" / "chain"
    code, out, err = run(
        capsys, "genesis-init", "--home", str(tmp_path / "home"), "--slot-ms", "0",
        "--handler", f"h0={SigningKey.from_seed(b'h0').public_hex}",
    )
    assert code == 3
    assert [row["error"] for row in lines(out)] == ["InvalidBody"]
    assert "Traceback" not in err
    assert not chain_dir.exists()
    config = GenesisConfig(handlers=(), slot_duration_ms=100, ordering_mode="fixed", genesis_time=0)
    with pytest.raises(InvalidBody):
        save_genesis(str(chain_dir), config)
    assert not chain_dir.exists()  # checked before the directory is made


def test_key_file_follows_the_one_newline_rule(tmp_path):
    path = tmp_path / "k.json"
    save_key_file(str(path), SigningKey.from_seed(b"k"))
    raw = path.read_bytes()
    assert raw.endswith(b"}\n") and (path.stat().st_mode & 0o777) == 0o600
    path.write_bytes(raw[:-1])
    assert load_key_file(str(path)).public_hex == SigningKey.from_seed(b"k").public_hex
    path.write_bytes(raw + b"\n\n")
    with pytest.raises(MalformedKey):
        load_key_file(str(path))


def test_genesis_init_rejects_bad_handler_spec(tmp_path, capsys):
    code, out, _ = run(capsys, "genesis-init", "--home", str(tmp_path), "--handler", "h0")
    assert code == 2
    assert lines(out)[0]["error"] == "UsageError"


# -- tx-submit ----------------------------------------------------------------------


def test_tx_submit_seals_a_block(world, tmp_path, capsys):
    body = {"adapter_kind": "packed", "base_uri": "storages/st-2", "storage_id": "st-2",
            "storage_pubkey": "cd" * 32, "type": "register_storage"}
    body_file = tmp_path / "body.json"
    body_file.write_text(json.dumps(body))
    code, out, _ = run(capsys, "tx-submit", "--home", world["home"], "--key", "user",
                       "--body", str(body_file), "--created-at", "2000")
    assert code == 0
    row = lines(out)[0]
    assert row == {"height": 1, "sealed": True, "tx_id": row["tx_id"], "verdict": "ok"}
    state = load_chain(world["chain"])
    assert "st-2" in state.registry.storages
    assert state.head_height == 1


def test_tx_submit_no_seal_is_a_dry_run(world, tmp_path, capsys):
    body = {"adapter_kind": "packed", "base_uri": "storages/st-2", "storage_id": "st-2",
            "storage_pubkey": "cd" * 32, "type": "register_storage"}
    body_file = tmp_path / "body.json"
    body_file.write_text(json.dumps(body))
    code, out, _ = run(capsys, "tx-submit", "--home", world["home"], "--key", "user",
                       "--body", str(body_file), "--no-seal")
    assert code == 0 and lines(out)[0]["sealed"] is False
    assert load_chain(world["chain"]).head_height == 0  # nothing persisted


def test_tx_submit_reports_verdict_failures(world, tmp_path, capsys):
    body = {"adapter_kind": "jsonl", "base_uri": "elsewhere", "storage_id": "st-1",
            "storage_pubkey": "cd" * 32, "type": "register_storage"}
    body_file = tmp_path / "body.json"
    body_file.write_text(json.dumps(body))
    code, out, _ = run(capsys, "tx-submit", "--home", world["home"], "--key", "user",
                       "--body", str(body_file))
    assert code == 3
    assert lines(out)[0]["error"] == "DuplicateStorage"


def test_tx_submit_missing_files_are_io_errors(world, capsys):
    code, out, _ = run(capsys, "tx-submit", "--home", world["home"], "--key", "user",
                       "--body", "/nonexistent/body.json")
    assert code == 4 and lines(out)[0]["error"] == "IoError"
    code, out, _ = run(capsys, "tx-submit", "--home", world["home"], "--key", "ghost",
                       "--body", "/nonexistent/body.json")
    assert code == 4


def test_tx_submit_key_file_errors(world, tmp_path, capsys):
    body_file = tmp_path / "body.json"
    body_file.write_text(json.dumps({"adapter_kind": "packed", "base_uri": "storages/st-2", "storage_id": "st-2",
                                     "storage_pubkey": "cd" * 32, "type": "register_storage"}))
    # a key file that cannot be read is an I/O failure ...
    code, out, err = run(capsys, "tx-submit", "--home", world["home"], "--key", "ghost", "--body", str(body_file))
    rows = lines(out)
    assert code == 4 and len(rows) == 1 and rows[0]["error"] == "IoError"
    assert "Traceback" not in err
    # ... and one that reads but does not parse is a validation failure
    with open(os.path.join(world["home"], "keys", "bad.json"), "wb") as fh:
        fh.write(b"{}\n")
    code, out, _ = run(capsys, "tx-submit", "--home", world["home"], "--key", "bad", "--body", str(body_file))
    assert code == 3 and lines(out)[0]["error"] == "MalformedKey"


# -- chain-verify / proof -----------------------------------------------------------


def test_chain_verify_honest_chain(world, capsys):
    code, out, _ = run(capsys, "chain-verify", "--chain", world["chain"])
    assert code == 0
    rows = lines(out)
    assert rows[0] == {"height": 0, "verdict": "ok"}
    final = rows[-1]
    log = world["state"].registry_log
    assert final["head_root"] == log.root().hex()
    assert final["registry_size"] == log.size == 4


def test_chain_verify_detects_mutation(world, capsys):
    block_path = os.path.join(world["chain"], "block_0.json")
    data = open(block_path, "rb").read()
    mutated = data.replace(b"TAIGA", b"ROGUE", 1)
    assert mutated != data
    open(block_path, "wb").write(mutated)
    code, out, _ = run(capsys, "chain-verify", "--chain", world["chain"])
    assert code == 3
    err = lines(out)[-1]
    assert err["height"] == 0
    assert err["error"] in ("BadTxRoot", "InvalidTransaction", "InvalidBody", "BadTxId")


@pytest.mark.parametrize("damage", ["added_space", "keys_swapped"])
def test_damaged_genesis_exits_3_with_or_without_head_cache(world, tmp_path, capsys, damage):
    assert run(capsys, "query", "--chain", world["chain"], "--where", "kind=primary")[0] == 0  # writes the cache
    data = (pathlib.Path(world["chain"]) / "genesis.json").read_bytes()
    k0, k1 = (world["keys"][hid].public_hex.encode() for hid in ("h0", "h1"))
    damaged = {
        "added_space": data.replace(b'"handlers":', b'"handlers": '),
        "keys_swapped": data.replace(k0, b"-").replace(k1, k0).replace(b"-", k1),
    }[damage]
    assert damaged != data
    cold = tmp_path / "cold"
    shutil.copytree(world["chain"], cold)
    os.remove(cold / chain_module.HEAD_CACHE)
    for chain_dir in (world["chain"], cold):
        (pathlib.Path(chain_dir) / "genesis.json").write_bytes(damaged)
    for argv in (["query", "--where", "kind=primary"], ["chain-verify"]):
        outcomes = []
        for chain_dir in (world["chain"], cold):
            code, out, err = run(capsys, argv[0], "--chain", str(chain_dir), *argv[1:])
            assert code == 3 and "Traceback" not in err, (argv, out, err)
            outcomes.append(out)
        assert outcomes[0] == outcomes[1], argv
        expected = "InvalidBody" if damage == "added_space" or argv[0] == "query" else "BadLink"
        assert lines(outcomes[0])[-1]["error"] == expected


@pytest.mark.parametrize("damage", [b"[" * 100_000 + b"]" * 100_000, b"1" * 5_000], ids=["nested", "huge_int"])
def test_chain_verify_rejects_unparsable_block(world, capsys, damage):
    block_path = os.path.join(world["chain"], "block_1.json")
    with open(block_path, "wb") as fh:
        fh.write(damage + b"\n")
    code, out, err = run(capsys, "chain-verify", "--chain", world["chain"])
    assert code == 3
    assert lines(out)[-1]["error"] == "InvalidBody" and lines(out)[-1]["height"] == 1
    assert "Traceback" not in err


def test_chain_verify_rejects_lone_surrogate(world, capsys):
    block_path = os.path.join(world["chain"], "block_0.json")
    data = open(block_path, "rb").read()
    forged = data.replace(b'"base_uri":"storages/st-1"', b'"base_uri":"\\ud800"', 1)
    assert forged != data
    open(block_path, "wb").write(forged)
    code, out, err = run(capsys, "chain-verify", "--chain", world["chain"])
    assert code == 3
    rows = lines(out)
    assert rows[0] == {"height": 0, "verdict": "InvalidBody"}
    assert rows[-1]["error"] == "InvalidBody" and rows[-1]["height"] == 0
    assert "Traceback" not in err


def test_chain_verify_checkpoint_roundtrip(world, tmp_path, capsys):
    cp = tmp_path / "cp.json"
    code, out, _ = run(capsys, "chain-verify", "--chain", world["chain"], "--write-checkpoint", str(cp))
    assert code == 0
    # extend the chain by one block, the stale checkpoint must still verify
    state = load_chain(world["chain"])
    body = RegisterStorage(storage_id="st-9", adapter_kind="jsonl", base_uri="x",
                           storage_pubkey="ee" * 32)
    assert state.submit(sign_transaction(body, world["user"], created_at=5_000)).ok
    block = produce_block(state, 1, world["keys"]["h1"], now=state.slot_start_time(1))
    assert state.receive_block(block).ok
    save_block_file(world["chain"], block)
    code, out, _ = run(capsys, "chain-verify", "--chain", world["chain"], "--checkpoint", str(cp))
    assert code == 0 and lines(out)[-1]["checkpoint"] == "ok"


def test_chain_verify_checkpoint_against_foreign_chain(world, tmp_path, capsys):
    cp = tmp_path / "cp.json"
    run(capsys, "chain-verify", "--chain", world["chain"], "--write-checkpoint", str(cp))
    obj = json.loads(open(cp).read())
    obj["registry_root"] = "0" * 64
    open(cp, "w").write(json.dumps(obj))
    code, out, _ = run(capsys, "chain-verify", "--chain", world["chain"], "--checkpoint", str(cp))
    assert code == 3 and lines(out)[-1]["error"] == "IntegrityError"


def test_chain_verify_empty_checkpoint_must_name_the_genesis(world, tmp_path, capsys):
    empty = ChainState(world["state"].config).checkpoint().to_obj()
    cp = tmp_path / "cp.json"
    cp.write_text(json.dumps(empty))
    code, out, _ = run(capsys, "chain-verify", "--chain", world["chain"], "--checkpoint", str(cp))
    assert code == 0 and lines(out)[-1]["checkpoint"] == "ok"
    cp.write_text(json.dumps(dict(empty, head_hash="ff" * 32)))
    code, out, _ = run(capsys, "chain-verify", "--chain", world["chain"], "--checkpoint", str(cp))
    assert code == 3 and lines(out)[-1]["error"] == "IntegrityError"


def test_chain_verify_checkpoint_must_match_its_block(world, tmp_path, capsys):
    # Each registry prefix below is a genuine one of this chain, with its true
    # root, but it is not what the named block committed to.
    state = world["state"]
    log = state.registry_log
    cp = tmp_path / "cp.json"
    for height, head, size in (
        (-1, state.genesis_hash_hex, 3),  # the empty chain holds no transactions
        (0, state.head_hash(), 2),  # block 0 committed to all 4
    ):
        cp.write_text(json.dumps({"head_hash": head, "height": height,
                                  "registry_root": log.root_at(size).hex(), "registry_size": size}))
        code, out, _ = run(capsys, "chain-verify", "--chain", world["chain"], "--checkpoint", str(cp))
        assert code == 3 and lines(out)[-1]["error"] == "IntegrityError"


def test_chain_verify_checkpoint_fields_must_be_integers(world, tmp_path, capsys):
    # A bool is an int in Python: "height": true once named block 1, and
    # "registry_size": false once equalled the empty registry's size 0.
    state = world["state"]
    body = RegisterStorage(storage_id="st-9", adapter_kind="jsonl", base_uri="x", storage_pubkey="ee" * 32)
    assert state.submit(sign_transaction(body, world["user"], created_at=5_000)).ok
    for slot in (1, 2):
        assert state.receive_block(produce_block(state, slot, world["keys"][f"h{slot % 2}"],
                                                 now=state.slot_start_time(slot))).ok
    save_chain(state, world["chain"])
    header = state.blocks[1].header
    named = {"head_hash": header.hash, "height": 1,
             "registry_root": header.registry_root, "registry_size": header.registry_size}
    empty = ChainState(state.config).checkpoint().to_obj()
    cp = tmp_path / "cp.json"
    for good, bad in ((named, dict(named, height=True)), (empty, dict(empty, registry_size=False)),
                      (empty, dict(empty, height=-1.0))):
        cp.write_text(json.dumps(good))
        code, out, _ = run(capsys, "chain-verify", "--chain", world["chain"], "--checkpoint", str(cp))
        assert code == 0 and lines(out)[-1]["checkpoint"] == "ok"
        cp.write_text(json.dumps(bad))
        code, out, _ = run(capsys, "chain-verify", "--chain", world["chain"], "--checkpoint", str(cp))
        assert code == 3 and lines(out)[-1]["error"] == "InvalidBody"


def test_proof_inclusion_envelope_verifies(world, capsys):
    state = world["state"]
    tx = state.blocks[0].transactions[2]  # ds-a publication
    code, out, _ = run(capsys, "proof", "--chain", world["chain"], "--tx-id", tx.tx_id)
    assert code == 0
    env = lines(out)[0]
    assert env["kind"] == "inclusion" and env["leaf_index"] == 2 and env["tree_size"] == 4
    from skyprov.merkle import InclusionProof

    proof = InclusionProof(
        leaf_index=env["leaf_index"], tree_size=env["tree_size"],
        path=tuple(digest_from_hex(h) for h in env["path"]),
    )
    assert verify_inclusion(digest_from_hex(env["root"]), digest_from_hex(env["leaf"]), proof)


def test_proof_unknown_tx(world, capsys):
    code, out, _ = run(capsys, "proof", "--chain", world["chain"], "--tx-id", "f" * 64)
    assert code == 3 and lines(out)[0]["error"] == "NotFound"


def test_proof_consistency(world, capsys):
    code, out, _ = run(capsys, "proof", "--chain", world["chain"], "--consistency-from", "2")
    assert code == 0
    env = lines(out)[0]
    assert env["kind"] == "consistency" and (env["old_size"], env["new_size"]) == (2, 4)


# -- index-build / query ------------------------------------------------------------


def test_index_build_writes_canonical_snapshot(world, tmp_path, capsys):
    out_file = tmp_path / "index.json"
    code, out, _ = run(capsys, "index-build", "--chain", world["chain"], "--out", str(out_file))
    assert code == 0
    row = lines(out)[0]
    assert row["datasets"] == 2 and row["built_to"] == {"height": 0, "registry_size": 4}
    expected = dumps_canonical(index_to_obj(world["state"].registry)) + b"\n"
    assert out_file.read_bytes() == expected
    # rebuilding produces identical bytes
    out2 = tmp_path / "index2.json"
    run(capsys, "index-build", "--chain", world["chain"], "--out", str(out2))
    assert out2.read_bytes() == expected


def test_query_matches_library_results(world, capsys):
    code, out, _ = run(capsys, "query", "--chain", world["chain"], "--where", "facility=TAIGA")
    assert code == 0
    rows = lines(out)
    assert [r["dataset_id"] for r in rows] == ["ds-a"]
    index = world["state"].registry
    api = query(index, QueryFilter(facility_id="TAIGA"))
    assert rows[0]["time_range"] == {"start": 100, "end": 200} or rows[0]["time_range"] == {"end": 200, "start": 100}
    assert len(api) == 1 and api[0].dataset_id == "ds-a"


def test_query_time_range_and_index_snapshot_agree(world, tmp_path, capsys):
    # The snapshot is an export no command reads back: it is not bound to the
    # chain, so query answers from the chain and refuses --index.
    snapshot = tmp_path / "index.json"
    run(capsys, "index-build", "--chain", world["chain"], "--out", str(snapshot))
    code, from_chain, _ = run(capsys, "query", "--chain", world["chain"], "--where", "time=110..260")
    assert code == 0
    assert [r["dataset_id"] for r in lines(from_chain)] == ["ds-a", "ds-b"]
    code, out, _ = run(capsys, "query", "--index", str(snapshot), "--where", "time=110..260")
    assert code == 2
    assert [row["error"] for row in lines(out)] == ["UsageError"]


@pytest.mark.parametrize(
    "where",
    [[], ["nonsense"], ["flavor=up"], ["time=100"], ["time=a..b"], ["facility=TAIGA", "facility=TUNKA"],
     ["time=1..5", "time=7..9"]],
)
def test_query_usage_errors(world, capsys, where):
    argv = ["query", "--chain", world["chain"]]
    for clause in where:
        argv += ["--where", clause]
    code, out, _ = run(capsys, *argv)
    assert code == 2
    assert lines(out)[-1]["error"] == "UsageError"


# -- sim-run ------------------------------------------------------------------------


def sim_config(tmp_path, **overrides):
    obj = {"seed": 3, "handlers": 3, "slot_duration_ms": 100, "duration_slots": 4}
    obj.update(overrides)
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_sim_run_stdout_trace(tmp_path, capsys):
    code, out, err = run(capsys, "sim-run", "--config", sim_config(tmp_path))
    assert code == 0
    rows = lines(out)
    assert rows[0]["type"] == "txs"
    assert any(r["type"] == "final" for r in rows)
    assert "simulated 4 slots" in err


def test_sim_run_trace_file_and_seed_override(tmp_path, capsys):
    trace1 = tmp_path / "t1.jsonl"
    trace2 = tmp_path / "t2.jsonl"
    config = sim_config(tmp_path)
    assert run(capsys, "sim-run", "--config", config, "--trace", str(trace1))[0] == 0
    assert run(capsys, "sim-run", "--config", config, "--trace", str(trace2), "--seed", "99")[0] == 0
    assert trace1.read_bytes() != trace2.read_bytes()
    code, out, _ = run(capsys, "sim-run", "--config", config, "--trace", str(trace1))
    assert lines(out)[0]["path"] == str(trace1)


def test_sim_run_bad_config_is_validation_error(tmp_path, capsys):
    code, out, _ = run(capsys, "sim-run", "--config", sim_config(tmp_path, bogus=1))
    assert code == 3 and lines(out)[0]["error"] == "ConfigError"
    code, out, _ = run(capsys, "sim-run", "--config", "/nonexistent.json")
    assert code == 4 and lines(out)[0]["error"] == "IoError"


def test_config_and_request_type_errors_are_one_error_line(world, tmp_path, capsys):
    code, out, err = run(capsys, "sim-run", "--config", sim_config(tmp_path, faults=None))
    assert code == 3
    assert [row["error"] for row in lines(out)] == ["ConfigError"]
    assert "Traceback" not in err
    sink = {"type": "publish", "storage_id": "st-1", "dataset_id": "ds-x",
            "program_id": ["prog-1"], "program_version": "1.0"}
    code, out, err = run(capsys, "publish", "--home", world["home"], "--request", agg_request(tmp_path, sink),
                         "--key", "user")
    assert code == 3
    assert [row["error"] for row in lines(out)] == ["InvalidBody"]
    assert "Traceback" not in err


@pytest.mark.parametrize("overrides", [{"handlers": 33}, {"duration_slots": 4097}, {"txs_per_slot": 17}])
def test_sim_config_count_past_its_bound_is_one_error_line(tmp_path, capsys, overrides):
    trace = tmp_path / "trace.jsonl"
    code, out, err = run(capsys, "sim-run", "--config", sim_config(tmp_path, **overrides), "--trace", str(trace))
    assert code == 3
    assert [row["error"] for row in lines(out)] == ["ConfigError"]
    assert "Traceback" not in err
    assert not trace.exists()


@pytest.mark.parametrize("argv", [["sim-run", "--config"], ["chain-verify", "--checkpoint"]])
def test_deeply_nested_json_file_is_invalid_body(world, tmp_path, capsys, argv):
    if argv[0] == "chain-verify":
        argv = [*argv[:1], "--chain", world["chain"], *argv[1:]]
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, *argv, str(deep))
    assert code == 3
    assert [row["error"] for row in lines(out)] == ["InvalidBody"]
    assert "Traceback" not in err


def _duplicate_key_text(obj, key, first):
    """JSON text of obj with key given twice, first's value before obj's own;
    json.loads alone would keep obj's value and read exactly obj."""
    text = "{" + json.dumps(key) + ":" + json.dumps(first) + "," + json.dumps(obj)[1:]
    assert json.loads(text) == obj
    return text


@pytest.mark.parametrize("what", ["body", "request", "config", "checkpoint"])
def test_duplicate_object_keys_are_invalid_body(world, tmp_path, capsys, what):
    # I-JSON (RFC 7493 section 2.3): an object's names must be unique.
    path = tmp_path / f"{what}.json"
    home = ["--home", world["home"]]
    if what == "body":
        obj = {"adapter_kind": "jsonl", "base_uri": "st-9", "storage_id": "st-9",
               "storage_pubkey": "ee" * 32, "type": "register_storage"}
        text = _duplicate_key_text(obj, "storage_id", "st-8")
        argv = ["tx-submit", *home, "--key", "user", "--no-seal", "--body", path]
    elif what == "request":
        obj = json.loads(open(agg_request(tmp_path, {"type": "local_path", "path": "out/dup.jsonl"})).read())
        nested = _duplicate_key_text(obj["filter"], "time_range", {"start": 0, "end": 1})
        text = json.dumps(obj).replace(json.dumps(obj["filter"]), nested, 1)  # a duplicate inside "filter"
        argv = ["aggregate", *home, "--request", path]
    elif what == "config":
        text = _duplicate_key_text({"seed": 3, "handlers": 3, "slot_duration_ms": 100, "duration_slots": 4}, "seed", 4)
        argv = ["sim-run", "--config", path]
    else:
        text = _duplicate_key_text(world["state"].checkpoint().to_obj(), "height", -1)
        argv = ["chain-verify", "--chain", world["chain"], "--checkpoint", path]
    path.write_text(json.dumps(json.loads(text)))  # the same file without the duplicate is accepted
    assert run(capsys, *map(str, argv))[0] == 0
    path.write_text(text)
    code, out, err = run(capsys, *map(str, argv))
    assert code == 3
    rows = lines(out)
    assert [row["error"] for row in rows] == ["InvalidBody"]
    assert "duplicate object key" in rows[0]["message"]
    assert "Traceback" not in err


# -- aggregate / publish ------------------------------------------------------------


def agg_request(tmp_path, sink, pipeline=None):
    obj = {
        "filter": {"time_range": {"start": 0, "end": 10_000}},
        "pipeline": pipeline or [{"name": "time_ordered_merge", "parameters": {}}],
        "sink": sink,
    }
    path = tmp_path / "request.json"
    path.write_text(json.dumps(obj))
    return str(path)


def test_aggregate_local_sink_matches_library(world, tmp_path, capsys):
    request = agg_request(tmp_path, {"type": "local_path", "path": "out/result.jsonl"})
    code, out, _ = run(capsys, "aggregate", "--home", world["home"], "--request", request)
    assert code == 0
    summary = lines(out)[0]
    assert summary["datasets_matched"] == 2 and summary["events_in"] == 4
    req = request_from_obj(json.loads(open(request).read()))
    index = world["state"].registry
    storages = cli._open_registered_storages(world["home"], index)
    direct = execute(AggregationRequest(filter=req.filter, pipeline=req.pipeline), index, storages)
    produced = open(os.path.join(world["home"], "out", "result.jsonl"), "rb").read()
    assert produced == direct.output_bytes
    assert summary["output_digest"] == direct.output_digest


def test_aggregate_null_sink_with_out_flag(world, tmp_path, capsys):
    request = agg_request(tmp_path, None)
    out_file = tmp_path / "direct.jsonl"
    code, out, _ = run(capsys, "aggregate", "--home", world["home"], "--request", request,
                       "--out", str(out_file))
    assert code == 0
    assert sha256_bytes(out_file.read_bytes()).hex() == lines(out)[0]["output_digest"]


def test_aggregate_empty_match_is_success(world, tmp_path, capsys):
    obj = {"filter": {"facility_id": "NOWHERE"},
           "pipeline": [], "sink": {"type": "local_path", "path": "out/empty.jsonl"}}
    request = tmp_path / "request.json"
    request.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "aggregate", "--home", world["home"], "--request", str(request))
    assert code == 0
    assert lines(out)[0]["datasets_matched"] == 0
    assert open(os.path.join(world["home"], "out", "empty.jsonl"), "rb").read() == b""


def test_aggregate_unknown_plugin(world, tmp_path, capsys):
    request = agg_request(tmp_path, {"type": "local_path", "path": "x"},
                          pipeline=[{"name": "blur", "parameters": {}}])
    code, out, _ = run(capsys, "aggregate", "--home", world["home"], "--request", request)
    assert code == 3 and lines(out)[0]["error"] == "PluginNotFound"


def test_aggregate_rejects_publish_sink(world, tmp_path, capsys):
    sink = {"type": "publish", "storage_id": "st-1", "dataset_id": "ds-x",
            "program_id": "prog-1", "program_version": "1.0"}
    request = agg_request(tmp_path, sink)
    code, out, _ = run(capsys, "aggregate", "--home", world["home"], "--request", request)
    assert code == 2


def test_aggregate_under_a_resigned_head_with_a_bad_file_size_exits_3(world, tmp_path, capsys):
    # A roster key re-signs the head over ds-a's publication with its file
    # size a string, and the head cache names it. The restore takes field
    # values on the signed head's word, but the descriptor aggregate reads is
    # validated as it is built: the command exits 3, as the full replay does,
    # with no traceback.
    chain_dir = world["chain"]
    obj = json.loads(pathlib.Path(chain_dir, "block_0.json").read_bytes())
    obj["transactions"][2]["body"]["dataset"]["file_refs"][0]["size"] = "x"
    entries = [dumps_canonical(tx) for tx in obj["transactions"]]
    log = MerkleLog()
    log.extend(entries)
    header = dataclasses.replace(chain_module.header_from_obj(obj["header"]), registry_root=log.root().hex(),
                                 tx_root=chain_module.tx_tree_root([leaf_hash(entry) for entry in entries]))
    header = dataclasses.replace(header, signature=world["keys"][header.creator].sign(header.signing_bytes).hex())
    pathlib.Path(chain_dir, "block_0.json").write_bytes(
        b'{"header":' + header.wire_bytes + b',"transactions":[' + b",".join(entries) + b"]}\n")
    request = agg_request(tmp_path, None)
    argv = ("aggregate", "--home", world["home"], "--request", request, "--out", str(tmp_path / "out.jsonl"))
    code, out, _ = run(capsys, *argv)
    assert code == 3 and "chain invalid at height 0: InvalidBody" in lines(out)[0]["message"]
    cache = {"genesis_hash": load_genesis(chain_dir).hash, "head_hash": header.hash, "height": 0}
    pathlib.Path(chain_dir, chain_module.HEAD_CACHE).write_bytes(dumps_canonical(cache) + b"\n")
    state, heights = chain_module.open_store(chain_dir)
    assert chain_module._restore_head(chain_dir, state, heights) == 0
    code, out, _ = run(capsys, *argv)
    assert code == 3 and lines(out) == [{"error": "InvalidBody", "message": "file size must be an integer"}]


def test_publish_full_cycle(world, tmp_path, capsys):
    sink = {"type": "publish", "storage_id": "st-1", "dataset_id": "ds-agg",
            "program_id": "prog-1", "program_version": "1.0"}
    request = agg_request(tmp_path, sink)
    code, out, _ = run(capsys, "publish", "--home", world["home"], "--request", request,
                       "--key", "user", "--created-at", "9000")
    assert code == 0
    row = lines(out)[0]
    assert row["dataset_id"] == "ds-agg" and row["sealed"] is True and row["height"] == 1
    # the derived dataset is on chain, queryable, and its file exists in the storage
    code, out, _ = run(capsys, "query", "--chain", world["chain"], "--where", "kind=secondary")
    got = lines(out)
    assert [r["dataset_id"] for r in got] == ["ds-agg"]
    stored = os.path.join(world["home"], "storages", "st-1", "derived", "ds-agg.jsonl")
    assert os.path.exists(stored)
    # publishing the same dataset id again fails validation
    code, out, _ = run(capsys, "publish", "--home", world["home"], "--request", request,
                       "--key", "user", "--created-at", "9001")
    assert code == 3 and lines(out)[0]["error"] == "DuplicateDataset"


def test_publish_requires_publish_sink(world, tmp_path, capsys):
    request = agg_request(tmp_path, {"type": "local_path", "path": "x"})
    code, out, _ = run(capsys, "publish", "--home", world["home"], "--request", request, "--key", "user")
    assert code == 2


# -- top-level dispatch -------------------------------------------------------------


def test_no_subcommand_is_usage_error(capsys):
    code, out, _ = run(capsys)
    assert code == 2 and lines(out)[0]["error"] == "UsageError"


def test_unknown_flag_is_usage_error(capsys):
    code, out, _ = run(capsys, "keygen", "--frobnicate")
    assert code == 2 and lines(out)[0]["error"] == "UsageError"


# -- index snapshot format golden ---------------------------------------------------

# SHA-256 of the `index-build` output for golden_chain_dir's chain. Frozen: a
# change here means the snapshot file format changed.
GOLDEN_INDEX_SNAPSHOT_SHA = "91691990bf866345e44de7870e6b4a274971492ab688c40e78678740e3529838"


@pytest.fixture
def golden_chain_dir(tmp_path):
    """A fully deterministic chain: fixed keys, created_at and timestamps; two
    storages, a program, primaries with energy extras, an empty block and a
    two-level derivation."""
    from conftest import key_for, make_dataset, make_roster, program_body, storage_body

    handlers, keys = make_roster(3)
    state = ChainState(GenesisConfig(handlers=handlers, slot_duration_ms=100,
                                     ordering_mode="fixed", genesis_time=1_000_000_000))
    user = key_for("golden-user")

    def derive(dataset_id, parents, start, end):
        return DeriveDataset(
            dataset=make_dataset(dataset_id, "secondary", storage_id="st-2", start=start, end=end,
                                 file_format="packed"),
            parent_dataset_ids=tuple(parents), program_id="prog-1", program_version="1.0",
            parameters_hash=hashlib.sha256(b"golden-params").hexdigest(),
        )

    batches = [
        [storage_body("st-1", kind="jsonl", base_uri="storages/st-1"),
         storage_body("st-2", kind="packed", base_uri="storages/st-2"),
         program_body("prog-1", "1.0")],
        [PublishDataset(dataset=make_dataset("ds-b", facility_id="TUNKA", start=1500, end=2500,
                                             extra={"energy_max": "2", "energy_min": "0.5"}, n_files=2)),
         PublishDataset(dataset=make_dataset("ds-a", start=1000, end=2000))],
        [],
        [derive("ds-d", ["ds-b", "ds-a"], 1000, 2500)],
        [derive("ds-e", ["ds-d"], 1200, 2400)],
    ]
    for height, bodies in enumerate(batches):
        for position, body in enumerate(bodies):
            assert state.submit(sign_transaction(body, user, created_at=10_000 + 100 * height + position)).ok
        slot = state.last_slot() + 1 + (height == 2)
        block = produce_block(state, slot, keys[state.scheduled_handler(slot)], now=state.slot_start_time(slot))
        assert state.receive_block(block).ok and len(block.transactions) == len(bodies)
    chain_dir = tmp_path / "golden-chain"
    save_chain(state, str(chain_dir))
    return str(chain_dir)


def test_index_snapshot_golden(golden_chain_dir, tmp_path, capsys):
    out_file = tmp_path / "index.json"
    code, out, _ = run(capsys, "index-build", "--chain", golden_chain_dir, "--out", str(out_file))
    assert code == 0
    assert lines(out)[0]["built_to"] == {"height": 4, "registry_size": 7}
    assert sha256_bytes(out_file.read_bytes()).hex() == GOLDEN_INDEX_SNAPSHOT_SHA


# -- head cache ---------------------------------------------------------------------


def test_tx_submit_loses_a_race_for_the_height(world, tmp_path, capsys, monkeypatch):
    # Both submitters loaded the store at head 0; the first to write block 1 wins.
    stale = load_chain(world["chain"])
    block_1 = tmp_path / "home" / "chain" / "block_1.json"

    def submit(storage_id, created_at):
        body_file = tmp_path / f"{storage_id}.json"
        body_file.write_text(json.dumps({"adapter_kind": "jsonl", "base_uri": storage_id, "storage_id": storage_id,
                                         "storage_pubkey": "cd" * 32, "type": "register_storage"}))
        return run(capsys, "tx-submit", "--home", world["home"], "--key", "user",
                   "--body", str(body_file), "--created-at", str(created_at))

    code, out, _ = submit("st-a", 2000)
    assert code == 0 and lines(out)[0]["height"] == 1
    first = block_1.read_bytes()
    monkeypatch.setattr(cli, "load_chain", lambda chain_dir: stale)
    code, out, _ = submit("st-b", 2001)
    assert code == 4 and [row["error"] for row in lines(out)] == ["AlreadyExists"]
    assert block_1.read_bytes() == first
    monkeypatch.undo()
    code, out, _ = run(capsys, "chain-verify", "--chain", world["chain"])
    assert code == 0 and lines(out)[-1]["height"] == 1
    assert "st-a" in load_chain(world["chain"]).registry.storages


def _grow(state, keys, user, n_blocks):
    """Extend an in-memory chain by n_blocks, one storage registration each."""
    for _ in range(n_blocks):
        height = state.head_height + 1
        body = RegisterStorage(storage_id=f"st-g{height}", adapter_kind="jsonl", base_uri=f"g{height}",
                               storage_pubkey="ee" * 32)
        assert state.submit(sign_transaction(body, user, created_at=3_000 + height)).ok
        slot = state.last_slot() + 1
        block = produce_block(state, slot, keys[state.scheduled_handler(slot)], now=state.slot_start_time(slot))
        assert state.receive_block(block).ok


def _cache_variants(world, tmp_path):
    """head_cache.json contents for world's chain grown to three blocks, keyed
    by how the cache relates to that store (None: no cache file)."""
    state = world["state"]
    _grow(state, world["keys"], world["user"], 1)
    stale = tmp_path / "stale"
    save_chain(state, str(stale))
    load_chain(str(stale))
    _grow(state, world["keys"], world["user"], 1)
    save_chain(state, world["chain"])
    warm = tmp_path / "warm"
    shutil.copytree(world["chain"], warm)
    load_chain(str(warm))
    foreign = tmp_path / "foreign"
    other = ChainState(dataclasses.replace(state.config, genesis_time=state.config.genesis_time + 1))
    other.apply_block(produce_block(other, 0, world["keys"]["h0"], now=0))
    save_chain(other, str(foreign))
    load_chain(str(foreign))
    read = lambda d: (d / chain_module.HEAD_CACHE).read_bytes()  # noqa: E731
    head = read(warm)
    assert head.count(b"\n") == 1 and head.endswith(b"\n")
    # the layout that held the registry log: the same object, then one line per log entry
    entries = b"".join(tx.wire_bytes + b"\n" for block in state.blocks for tx in block.transactions)
    # the layout before that: one object holding leaf hashes, the registry snapshot and tx ids
    parent = dict(json.loads(head), leaves=b"".join(state.registry_log.leaves()).hex(),
                  registry=index_to_obj(state.registry), tx_ids=list(state.tx_index))
    # the layout that also held the reshuffle seed and a digest over every file, length first
    files = sorted(warm.glob("block_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    digest = hashlib.sha256()
    for path in [warm / "genesis.json"] + files:
        digest.update(len(path.read_bytes()).to_bytes(8, "big") + path.read_bytes())
    start, seed = state._cycle_seed
    digest_format = dict(json.loads(head), cycle_seed={"seed": seed, "start": start}, files_digest=digest.hexdigest())
    return {
        None: None,
        "warm": head,
        "stale": read(stale),
        "truncated": head[: len(head) // 2],
        "foreign": read(foreign),
        "entries_format": head + entries,
        "parent_format": dumps_canonical(parent) + b"\n",
        "digest_format": dumps_canonical(digest_format) + b"\n",
    }


def test_head_cache_is_invisible(world, tmp_path, capsys, monkeypatch):
    variants = _cache_variants(world, tmp_path)
    restored = []
    original_restore = chain_module._restore_head

    def recording_restore(*args):
        result = original_restore(*args)
        restored.append(result)
        return result

    monkeypatch.setattr(chain_module, "_restore_head", recording_restore)
    assert not os.path.exists(os.path.join(world["chain"], chain_module.HEAD_CACHE))
    body_file = tmp_path / "body.json"
    body_file.write_text(json.dumps({"adapter_kind": "jsonl", "base_uri": "n", "storage_id": "st-new",
                                     "storage_pubkey": "cd" * 32, "type": "register_storage"}))
    request = agg_request(tmp_path, None)
    tx_id = world["state"].blocks[0].transactions[2].tx_id
    out_file = tmp_path / "out.bin"
    commands = {
        "tx-submit": ["tx-submit", "--key", "user", "--body", str(body_file), "--created-at", "7000"],
        "query": ["query", "--where", "facility=TAIGA"],
        "proof-tx": ["proof", "--tx-id", tx_id],
        "proof-consistency": ["proof", "--consistency-from", "2"],
        "index-build": ["index-build", "--out", str(out_file)],
        "aggregate": ["aggregate", "--request", request, "--out", str(out_file)],
    }
    copies = 0
    for name, argv in commands.items():
        outcomes = {}
        for variant, cache in variants.items():
            copies += 1
            home = tmp_path / f"home{copies}"
            shutil.copytree(world["home"], home)
            if cache is not None:
                (home / "chain" / chain_module.HEAD_CACHE).write_bytes(cache)
            code, out, _ = run(capsys, argv[0], "--home", str(home), *argv[1:])
            written = out_file.read_bytes() if out_file.exists() else None
            outcomes[variant] = (code, out, written)
        assert outcomes[None][0] == 0, (name, outcomes[None])
        # the height each cache restored: only the warm and the stale one match the store
        assert restored[-len(variants):] == [-1, 2, 1, -1, -1, -1, -1, -1], name
        for variant, outcome in outcomes.items():
            assert outcome == outcomes[None], (name, variant)


def _count_verifies(monkeypatch):
    calls = []
    original = keys_module.verify_signature

    def counting(*args):
        calls.append(1)
        return original(*args)

    for module in (keys_module, model_module, chain_module):
        monkeypatch.setattr(module, "verify_signature", counting)
    return calls


def test_warm_commands_verify_only_new_blocks(world, tmp_path, capsys, monkeypatch):
    state = world["state"]
    homes = []
    for name, n_blocks in (("small", 9), ("big", 30), ("forking", 100)):
        _grow(state, world["keys"], world["user"], n_blocks)
        home = tmp_path / name
        shutil.copytree(world["home"], home)
        save_chain(state, str(home / "chain"))
        homes.append((home, state.head_height))
    body_file = tmp_path / "body.json"
    body_file.write_text(json.dumps({"adapter_kind": "jsonl", "base_uri": "n", "storage_id": "st-new",
                                     "storage_pubkey": "cd" * 32, "type": "register_storage"}))
    tx_id = state.blocks[0].transactions[2].tx_id
    verifies = _count_verifies(monkeypatch)
    built = []  # the heights of the headers built, of whole blocks or alone
    original = chain_module.header_from_obj
    monkeypatch.setattr(chain_module, "header_from_obj", lambda obj: built.append(obj["height"]) or original(obj))
    # a host with two usable CPUs: the cold replay of the 140-block store forks a helper
    monkeypatch.setattr(parallel_module, "usable_cpus", lambda: 2)
    forks = []
    real_fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or real_fork())
    submit_verifies, caches = [], []
    for home, head in homes:
        forks.clear()
        assert run(capsys, "query", "--home", str(home), "--where", "kind=primary")[0] == 0  # writes the cache
        assert len(forks) == (head == 139)
        for argv in (("query", "--where", "kind=primary"), ("proof", "--tx-id", tx_id)):
            verifies.clear()
            built.clear()
            forks.clear()
            assert run(capsys, argv[0], "--home", str(home), *argv[1:])[0] == 0
            assert (len(verifies), built, forks) == (1, [head], []), argv  # the head header's signature
        verifies.clear()
        forks.clear()
        code, out, _ = run(capsys, "tx-submit", "--home", str(home), "--key", "user", "--body", str(body_file))
        assert code == 0 and lines(out)[0]["height"] == head + 1 and forks == []
        submit_verifies.append(len(verifies))
        caches.append((home / "chain" / chain_module.HEAD_CACHE).read_bytes())
    assert [head for _, head in homes] == [9, 39, 139]
    assert submit_verifies[0] == submit_verifies[1] == submit_verifies[2]
    # the cache is one canonical line of three keys: from height 9 to 139,
    # its length grows only by the digits of the head's height
    sizes = set()
    for cache, (_, head) in zip(caches, homes):
        obj = json.loads(cache)
        assert cache == dumps_canonical(obj) + b"\n" and obj.keys() == {"genesis_hash", "head_hash", "height"}
        assert obj["height"] == head
        sizes.add(len(cache) - len(str(head)))
    assert len(sizes) == 1


# -- signatures verified by forked helpers ---------------------------------------------

# 5 + 2 * 139 = 283 signatures: two shares of at least keys._MIN_SHARE, so a
# replay of this store forks one helper, which verifies blocks 70 and up
_HELPER_STORE_BLOCKS = 140


def _resigned(header, keys, **changes):
    header = dataclasses.replace(header, **changes)
    return dataclasses.replace(header, signature=keys[header.creator].sign(header.signing_bytes).hex())


def _with_forged_tx_signature(state, keys, user, height):
    """Block height with its transaction signed over other bytes, its
    commitments recomputed and its header re-signed: only that signature fails."""
    block = state.blocks[height]
    (tx,) = block.transactions
    forged = dataclasses.replace(tx, signature=user.sign(b"other bytes").hex())
    prior = [t.leaf_hash for b in state.blocks[:height] for t in b.transactions]
    root, size = MerkleLog().extended_root(prior + [forged.leaf_hash])
    header = _resigned(block.header, keys, tx_root=chain_module.tx_tree_root([forged.leaf_hash]),
                       registry_root=root.hex(), registry_size=size)
    return chain_module.block_bytes(Block(header, (forged,))) + b"\n"


def _with_bad_header_signature(state, keys, height):
    block = state.blocks[height]
    header = dataclasses.replace(block.header, signature=keys[block.header.creator].sign(b"other bytes").hex())
    return chain_module.block_bytes(Block(header, block.transactions)) + b"\n"


def test_helpers_leave_every_verdict_and_error_unchanged(world, tmp_path, capsys, monkeypatch):
    state, keys, user = world["state"], world["keys"], world["user"]
    _grow(state, keys, user, _HELPER_STORE_BLOCKS - 1)
    save_chain(state, world["chain"])
    truncated = (pathlib.Path(world["chain"]) / "block_135.json").read_bytes()[:100]
    cases = {  # height -> the bytes, or None for a directory, that replace block_<height>.json
        "honest": ({}, None),
        "bad_tx_signature_in_helper_share": ({120: _with_forged_tx_signature(state, keys, user, 120)},
                                             (120, "InvalidTransaction")),
        "bad_header_signature_in_helper_share": ({110: _with_bad_header_signature(state, keys, 110)},
                                                 (110, "BadSignature")),
        "failure_then_truncated_block": ({10: _with_bad_header_signature(state, keys, 10), 135: truncated},
                                         (10, "BadSignature")),
        "failure_then_directory": ({10: _with_bad_header_signature(state, keys, 10), 136: None},
                                   (10, "BadSignature")),
    }
    monkeypatch.setattr(parallel_module, "usable_cpus", lambda: 2)
    forks = []
    real_fork = os.fork

    def fork_with_helpers():
        forks.append(1)
        return real_fork()

    def fork_refused():
        forks.append(1)
        raise OSError(11, "Resource temporarily unavailable")

    for case, (damage, failure) in cases.items():
        outcomes = {}
        for mode, fork in (("helpers", fork_with_helpers), ("no_fork", fork_refused)):
            for argv in (("chain-verify",), ("query", "--where", "kind=primary")):
                home = tmp_path / case / mode / argv[0]  # a fresh store each run, so every query is cold
                shutil.copytree(world["home"], home)
                for height, data in damage.items():
                    path = home / "chain" / f"block_{height}.json"
                    os.remove(path)
                    os.mkdir(path) if data is None else path.write_bytes(data)
                forks.clear()
                monkeypatch.setattr(os, "fork", fork)
                outcomes[mode, argv[0]] = run(capsys, argv[0], "--home", str(home), *argv[1:])
                monkeypatch.setattr(os, "fork", real_fork)
                assert len(forks) == 1, (case, mode, argv)
        for command in ("chain-verify", "query"):
            assert outcomes["helpers", command] == outcomes["no_fork", command], (case, command)
        code, out, _ = outcomes["helpers", "chain-verify"]
        if failure is None:
            assert code == 0 and lines(out)[-1]["blocks"] == _HELPER_STORE_BLOCKS
            assert outcomes["helpers", "query"][0] == 0
        else:
            height, reason = failure
            assert code == 3 and {k: lines(out)[-1][k] for k in ("error", "height")} == {"error": reason,
                                                                                       "height": height}, case
            assert lines(outcomes["helpers", "query"][1])[-1]["error"] == "InvalidBody", case


def test_unwritable_head_cache_leaves_output_unchanged(world, capsys, monkeypatch):
    argv = ("query", "--chain", world["chain"], "--where", "facility=TAIGA")
    expected = run(capsys, *argv)[:2]
    os.remove(os.path.join(world["chain"], chain_module.HEAD_CACHE))

    def refuse(path, data):
        raise IoError(f"cannot write {path}: read-only store")

    monkeypatch.setattr(chain_module, "replace_file", refuse)
    assert run(capsys, *argv)[:2] == expected
    assert not os.path.exists(os.path.join(world["chain"], chain_module.HEAD_CACHE))


# -- census: each body, filter and genesis is checked once ---------------------------


def _record_calls(monkeypatch, module, name):
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


def test_each_body_filter_and_genesis_is_checked_once(world, tmp_path, capsys, monkeypatch):
    bodies = _record_calls(monkeypatch, model_module, "body_to_obj")
    filters = _record_calls(monkeypatch, index_module, "validate_filter")
    genesis_objs = _record_calls(monkeypatch, chain_module, "genesis_to_obj")
    parsed = _record_calls(monkeypatch, canonical_module, "loads_canonical")
    genesis_data = (pathlib.Path(world["chain"]) / "genesis.json").read_bytes().removesuffix(b"\n")
    body_obj = {"adapter_kind": "jsonl", "base_uri": "n", "storage_id": "st-new",
                "storage_pubkey": "cd" * 32, "type": "register_storage"}

    # read, signed and submitted: one validation and one encode of the body
    state = load_chain(world["chain"])  # also writes a head cache that covers the head
    bodies.clear()
    body = model_module.body_from_obj(body_obj)
    assert state.submit(sign_transaction(body, world["user"], created_at=7000)).ok
    assert len(bodies) == 1 and bodies[0] is body

    body_file = tmp_path / "body.json"
    body_file.write_text(json.dumps(body_obj))
    (tmp_path / "agg").mkdir()
    (tmp_path / "pub").mkdir()
    aggregate = agg_request(tmp_path / "agg", None)
    publish = agg_request(tmp_path / "pub", {"type": "publish", "storage_id": "st-1", "dataset_id": "ds-agg",
                                             "program_id": "prog-1", "program_version": "1.0"})
    commands = [  # (argv, validate_filter calls); tx-submit first, while the cache covers the head
        (["tx-submit", "--key", "user", "--body", str(body_file), "--created-at", "7000"], 0),
        (["query", "--where", "kind=primary"], 1),
        (["aggregate", "--request", aggregate, "--out", str(tmp_path / "out.jsonl")], 1),
        (["publish", "--request", publish, "--key", "user", "--created-at", "9000"], 1),
        (["proof", "--consistency-from", "2"], 0),
        (["index-build", "--out", str(tmp_path / "index.json")], 0),
        (["chain-verify"], 0),
    ]
    for argv, filter_checks in commands:
        for calls in (bodies, filters, genesis_objs, parsed):
            calls.clear()
        code, out, _ = run(capsys, argv[0], "--home", world["home"], *argv[1:])
        assert code == 0, (argv, out)
        if argv[0] == "tx-submit":
            assert bodies == [body]  # no body of the head block is built
        assert len(filters) == filter_checks, argv
        assert len(genesis_objs) == 1, argv
        assert genesis_data not in parsed, argv

    # a bench-shaped simulation: five nodes and the audit share one genesis
    bodies.clear()
    genesis_objs.clear()
    run_simulation(sim_config_from_obj({
        "seed": 3151, "handlers": 5, "slot_duration_ms": 100, "duration_slots": 48,
        "latency_ms": {"min": 5, "max": 60}, "txs_per_slot": 3,
        "faults": [{"kind": "offline", "handler": "h2", "from_slot": 10, "to_slot": 14},
                   {"kind": "tamper_history", "handler": "h4", "slot": 30, "height": 5, "resign": 1}],
    }))
    assert len(genesis_objs) == 1
    assert len(bodies) > 48 * 3 and len({id(b) for b in bodies}) == len(bodies)


_BODY_TYPES = (RegisterStorage, RegisterProgram, PublishDataset, DeriveDataset)


def _record_builds(monkeypatch):
    """The PmdTransaction, body and DatasetDescriptor instances built, by
    class name: through their __init__, or filled by model._new without it."""
    built = {}
    classes = (model_module.PmdTransaction, *_BODY_TYPES, DatasetDescriptor)
    for cls in classes:
        def init(self, *args, _init=cls.__init__, **kwargs):
            built.setdefault(type(self).__name__, []).append(self)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", init)
    original_new = model_module._new

    def new(cls):
        obj = original_new(cls)
        if cls in classes:
            built.setdefault(cls.__name__, []).append(obj)
        return obj

    monkeypatch.setattr(model_module, "_new", new)
    return built


def test_warm_commands_build_no_transaction_and_only_the_descriptors_they_read(world, tmp_path, capsys,
                                                                               monkeypatch):
    state = world["state"]
    _grow(state, world["keys"], world["user"], 3)
    save_chain(state, world["chain"])
    cache_path = os.path.join(world["chain"], chain_module.HEAD_CACHE)
    query = ("query", "--home", world["home"], "--where", "kind=primary")
    cold = run(capsys, *query)  # validates every block and writes the cache
    assert cold[0] == 0 and len(lines(cold[1])) == 2
    built = _record_builds(monkeypatch)

    tx_id = state.blocks[0].transactions[2].tx_id
    assert run(capsys, "proof", "--home", world["home"], "--tx-id", tx_id)[0] == 0
    # the registry keeps each registered storage's body: st-1 and st-g1..st-g3
    assert {name: len(objs) for name, objs in built.items()} == {"RegisterStorage": 4}

    built.clear()
    assert run(capsys, *query)[:2] == cold[:2]
    assert [ds.dataset_id for ds in built.pop("DatasetDescriptor")] == ["ds-a", "ds-b"]
    assert {name: len(objs) for name, objs in built.items()} == {"RegisterStorage": 4}

    new = DatasetDescriptor(dataset_id="ds-new", kind="primary", storage_id="st-1",
                            file_refs=(FileRef(path="data/new.jsonl", content_hash="ab" * 32, size=1, format="jsonl"),),
                            facility_id="TAIGA", time_range=(400, 500), detector_geometry_hash=GEOM, extra={})
    body_file = tmp_path / "body.json"
    body_file.write_text(json.dumps({"dataset": dataset_to_obj(new), "type": "publish_dataset"}))
    built.clear()
    code, out, _ = run(capsys, "tx-submit", "--home", world["home"], "--key", "user", "--body", str(body_file))
    assert code == 0 and lines(out)[-1]["height"] == 4
    # only the submitted transaction, its body and its dataset are built
    assert [ds.dataset_id for ds in built.pop("DatasetDescriptor")] == ["ds-new"]
    assert [body.dataset for body in built.pop("PublishDataset")] == [new]
    assert len(built.pop("PmdTransaction")) == 1
    assert {name: len(objs) for name, objs in built.items()} == {"RegisterStorage": 4}

    # the cache is rewritten over the new block; a query prints what it prints without one
    warm = run(capsys, *query)
    os.remove(cache_path)
    assert run(capsys, *query)[:2] == warm[:2] and len(lines(warm[1])) == 3


def _grow_lineage(world):
    """Extend world's chain by two blocks: a second storage, a dataset on it
    with an energy range, and two generations of derived data."""
    state, user = world["state"], world["user"]

    def dataset(dataset_id, kind, storage_id, facility_id, start, end, extra):
        ref = FileRef(path=f"data/{dataset_id}.jsonl", content_hash="cd" * 32, size=1, format="jsonl")
        return DatasetDescriptor(dataset_id=dataset_id, kind=kind, storage_id=storage_id, file_refs=(ref,),
                                 facility_id=facility_id, time_range=(start, end), detector_geometry_hash=GEOM,
                                 extra=extra)

    def derive(ds, parents):
        return DeriveDataset(dataset=ds, parent_dataset_ids=parents, program_id="prog-1", program_version="1.0",
                             parameters_hash="ef" * 32)

    batches = [
        [RegisterStorage(storage_id="st-2", adapter_kind="packed", base_uri="storages/st-2",
                         storage_pubkey=user.public_hex),
         derive(dataset("ds-d", "secondary", "st-1", "TAIGA", 100, 300, {"energy_max": "0.8", "energy_min": "0.1"}),
                ("ds-a", "ds-b"))],
        [PublishDataset(dataset=dataset("ds-c", "primary", "st-2", "TAIGA", 250, 400,
                                        {"energy_max": "5", "energy_min": "1"})),
         derive(dataset("ds-e", "secondary", "st-2", "TUNKA", 100, 300, {}), ("ds-d",))],
    ]
    for batch in batches:
        for body in batch:
            assert state.submit(sign_transaction(body, user, created_at=5_000 + state.head_height)).ok
        slot = state.last_slot() + 1
        block = produce_block(state, slot, world["keys"][state.scheduled_handler(slot)],
                              now=state.slot_start_time(slot))
        assert state.receive_block(block).ok
    save_chain(state, world["chain"])


def test_warm_query_builds_only_the_descriptors_it_prints(world, capsys, monkeypatch):
    _grow_lineage(world)
    query = ("query", "--home", world["home"], "--where", "storage=st-2")
    cold = run(capsys, *query)  # validates every block and writes the cache
    built = _record_builds(monkeypatch)
    warm = run(capsys, *query)
    assert warm[:2] == cold[:2]
    # two of the five restored datasets match, and only they get descriptors
    printed = [row["dataset_id"] for row in lines(warm[1])]
    assert printed == ["ds-e", "ds-c"]
    assert [ds.dataset_id for ds in built.pop("DatasetDescriptor")] == printed
    assert {name: len(objs) for name, objs in built.items()} == {"RegisterStorage": 2}


@pytest.mark.parametrize("where, expected", [
    (["facility=TAIGA"], ["ds-a", "ds-d", "ds-c"]),
    (["storage=st-2"], ["ds-e", "ds-c"]),
    (["kind=secondary"], ["ds-d", "ds-e"]),
    (["time=210..260"], ["ds-d", "ds-e", "ds-b", "ds-c"]),
    (["energy_min=1"], ["ds-c"]),
    (["energy_max=0.5"], ["ds-d"]),
    (["energy_min=0.5", "energy_max=2"], ["ds-d", "ds-c"]),
    (["ancestor_of=ds-e"], ["ds-a", "ds-d", "ds-b"]),
    (["descendant_of=ds-a"], ["ds-d", "ds-e"]),
    (["descendant_of=ds-b", "facility=TUNKA"], ["ds-e"]),
])
def test_restored_and_replayed_registries_print_the_same_rows(world, capsys, where, expected):
    _grow_lineage(world)
    argv = ["query", "--home", world["home"]]
    for clause in where:
        argv += ["--where", clause]
    cache_path = os.path.join(world["chain"], chain_module.HEAD_CACHE)
    assert not os.path.exists(cache_path)
    replayed = run(capsys, *argv)  # validates every block and writes the cache
    assert os.path.exists(cache_path)
    restored = run(capsys, *argv)
    assert restored == replayed
    assert [row["dataset_id"] for row in lines(replayed[1])] == expected


# -- the parser: each command builds only its own --------------------------------------------

PARSER_CASES = [[], ["--help"], ["-h"], ["bogus"], ["bogus", "--help"], ["--", "query", "--where", "kind=primary"]]
for _name, _required, _int_flag in (
    ("keygen", ["--home", "h", "--name", "n"], "--seed"),
    ("genesis-init", ["--home", "h", "--handler", "a=b"], "--slot-ms"),
    ("sim-run", ["--config", "c"], "--seed"),
    ("tx-submit", ["--home", "h", "--key", "k", "--body", "b"], "--created-at"),
    ("chain-verify", [], None),
    ("proof", ["--tx-id", "t"], "--consistency-from"),
    ("index-build", [], None),
    ("query", [], None),
    ("aggregate", ["--home", "h", "--request", "r"], None),
    ("publish", ["--home", "h", "--request", "r", "--key", "k"], "--created-at"),
):
    # help, a missing required option, an unknown option, a bad integer
    PARSER_CASES += [[_name, "--help"], [_name], [_name, *_required, "--bogus"]]
    if _int_flag:
        PARSER_CASES.append([_name, _int_flag, "x"])

# SHA-256 of the JSON list of [argv, exit code, stdout, stderr] for
# PARSER_CASES, at COLUMNS=80 on CPython 3.11, as the one parser of every
# subcommand gave them before each command built only its own. Frozen.
PARSER_OUTPUTS_SHA256 = "9eeba4f636485e9c0e1e714bbcfd3856b1799095d3b75249a824bb570a868408"


def _parser_outputs(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("LINES", "24")
    outputs = []
    for argv in PARSER_CASES:
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # --help
            code = exc.code
        captured = capsys.readouterr()
        outputs.append([argv, code, captured.out, captured.err])
    return outputs


class _EveryCommandParser:
    """Stands in for cli.command_parser(name): parses name's arguments with
    the parser of every subcommand."""

    def __init__(self, name):
        self.name = name

    def parse_args(self, args):
        return cli.build_parser().parse_args([self.name, *args])


def test_one_command_parser_prints_what_the_parser_of_every_command_prints(capsys, monkeypatch):
    got = _parser_outputs(capsys, monkeypatch)
    assert len(got) == 42 and {code for _, code, _, _ in got} == {0, 2}
    monkeypatch.setattr(cli, "command_parser", _EveryCommandParser)
    assert _parser_outputs(capsys, monkeypatch) == got


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse lays out help differently in other versions")
def test_parser_outputs_golden(capsys, monkeypatch):
    outputs = _parser_outputs(capsys, monkeypatch)
    assert hashlib.sha256(json.dumps(outputs).encode()).hexdigest() == PARSER_OUTPUTS_SHA256


def test_main_builds_only_the_named_commands_parser(world, capsys, monkeypatch):
    progs = []
    init = cli._Parser.__init__

    def record(self, *args, **kwargs):
        progs.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", record)
    assert run(capsys, "query", "--home", world["home"], "--where", "kind=primary")[0] == 0
    assert progs == ["skyprov query"]
    progs.clear()
    assert run(capsys, "bogus")[0] == 2
    assert progs == ["skyprov"] + [f"skyprov {name}" for name in cli.COMMANDS]
