"""Data model tests: canonical bytes, signing, validation, provenance."""

import dataclasses
import functools
import hashlib
import random

import pytest

from skyprov.canonical import dumps_canonical, loads_canonical
from skyprov.chain import BlockHeader
from skyprov.errors import InvalidBody, NotFound
from skyprov.keys import verify_signature
from skyprov import model
from skyprov.model import (
    DeriveDataset,
    EasEvent,
    PublishDataset,
    RegisterProgram,
    RegisterStorage,
    RegistryState,
    body_from_obj,
    body_to_obj,
    canonical_bytes,
    dataset_to_obj,
    event_from_obj,
    event_to_obj,
    provenance_trace,
    sign_transaction,
    tx_from_obj,
    tx_from_wire_bytes,
    validate_event,
    validate_transaction,
)

from conftest import key_for, make_dataset, program_body, storage_body

HEX64 = hashlib.sha256(b"some digest").hexdigest()


def make_event(event_id="ev-1", t=1_000, energy="1.5", service=None) -> EasEvent:
    return EasEvent(
        event_id=event_id,
        registration_time=t,
        facility_id="TAIGA",
        detector_id="det-7",
        signal_histogram=(0, 3, 12, 5),
        bin_width=25,
        energy_estimate=energy,
        service_info=service if service is not None else {"run": "42"},
    )


# -- events ----------------------------------------------------------------


def test_event_obj_roundtrip():
    ev = make_event(service={"временный": "да", "run": "42"})
    assert event_from_obj(event_to_obj(ev)) == ev


def test_event_without_energy_keeps_explicit_null():
    obj = event_to_obj(make_event(energy=None))
    assert obj["energy_estimate"] is None
    assert event_from_obj(obj).energy_estimate is None


def test_event_validation_rejections():
    with pytest.raises(InvalidBody):
        validate_event(make_event(t=0))
    with pytest.raises(InvalidBody):
        validate_event(
            EasEvent("e", 1, "f", "d", (1, -2), 10, None, {})
        )
    with pytest.raises(InvalidBody):
        validate_event(EasEvent("e", 1, "f", "d", (1,), 0, None, {}))
    for bad_energy in ("-1", "1e5", "NaN", "1.", ".5", "+2", ""):
        with pytest.raises(InvalidBody):
            validate_event(make_event(energy=bad_energy))
    with pytest.raises(InvalidBody):
        validate_event(make_event(service={"k": 3}))


def test_event_histogram_order_matters():
    a = event_to_obj(make_event())
    b = dict(a, signal_histogram=[5, 12, 3, 0])
    assert dumps_canonical(a) != dumps_canonical(b)


# -- datasets -----------------------------------------------------------------


def test_dataset_obj_roundtrip():
    ds = make_dataset("ds-1", extra={"energy_min": "0.5", "energy_max": "3.0"}, n_files=2)
    assert body_from_obj({"dataset": dataset_to_obj(ds), "type": "publish_dataset"}).dataset == ds


def test_dataset_validation_rejections():
    with pytest.raises(InvalidBody):
        dataset_to_obj(make_dataset("ds-1", kind="tertiary"))
    with pytest.raises(InvalidBody):
        dataset_to_obj(make_dataset("ds-1", start=5, end=4))
    bad = make_dataset("ds-1")
    object.__setattr__(bad, "file_refs", ())
    with pytest.raises(InvalidBody):
        dataset_to_obj(bad)
    with pytest.raises(InvalidBody):
        dataset_to_obj(make_dataset("", ))


def test_descriptors_compare_by_field_without_validating():
    invalid = make_dataset("")
    assert invalid == invalid  # comparing wire forms would raise InvalidBody
    assert invalid != make_dataset("ds-1")
    ds = make_dataset("ds-1", n_files=2)
    listed = dataclasses.replace(ds, file_refs=list(ds.file_refs), time_range=list(ds.time_range))
    assert listed == ds and ds == listed
    assert dataclasses.replace(ds, extra={"k": "v"}) != ds
    record = model.DatasetRecord(descriptor=invalid, parents=["p"], program=None, tx_id="")
    assert record == dataclasses.replace(record, parents=("p",))


# -- canonical body bytes ------------------------------------------------------


def test_body_bytes_fixpoint():
    for body in (
        storage_body(),
        program_body(),
        PublishDataset(make_dataset("ds-1", extra={"a": "1"})),
        DeriveDataset(
            dataset=make_dataset("ds-2", kind="secondary"),
            parent_dataset_ids=("ds-1",),
            program_id="prog-1",
            program_version="1.0",
            parameters_hash=HEX64,
        ),
    ):
        data = canonical_bytes(body)
        reparsed = body_from_obj(loads_canonical(data))
        assert canonical_bytes(reparsed) == data


def test_body_value_change_changes_tx_id():
    a = PublishDataset(make_dataset("ds-1", extra={"site": "north"}))
    b = PublishDataset(make_dataset("ds-1", extra={"site": "south"}))
    assert canonical_bytes(a) != canonical_bytes(b)
    assert hashlib.sha256(canonical_bytes(a)).hexdigest() != hashlib.sha256(canonical_bytes(b)).hexdigest()


def test_field_insertion_order_is_irrelevant():
    # same logical body assembled with map keys inserted in every order
    keys = [("alpha", "1"), ("beta", "2"), ("gamma", "3")]
    rng = random.Random(0)
    reference = None
    for _ in range(8):
        rng.shuffle(keys)
        body = PublishDataset(make_dataset("ds-1", extra=dict(keys)))
        data = canonical_bytes(body)
        if reference is None:
            reference = data
        assert data == reference


def test_tx_id_injective_campaign():
    # 10^4 distinct bodies, zero tx_id collisions
    seen = set()
    for i in range(10_000):
        body = PublishDataset(make_dataset(f"ds-{i}", start=i, end=i + 10))
        seen.add(hashlib.sha256(canonical_bytes(body)).hexdigest())
    assert len(seen) == 10_000


def test_body_from_obj_strictness():
    good = body_to_obj(storage_body())
    missing = {k: v for k, v in good.items() if k != "base_uri"}
    with pytest.raises(InvalidBody):
        body_from_obj(missing)
    extra = dict(good, surprise="x")
    with pytest.raises(InvalidBody):
        body_from_obj(extra)
    with pytest.raises(InvalidBody):
        body_from_obj(dict(good, type="mint_coins"))


def test_derive_body_constraints():
    ds = make_dataset("ds-9", kind="secondary")
    with pytest.raises(InvalidBody):
        canonical_bytes(DeriveDataset(ds, (), "p", "1", HEX64))
    with pytest.raises(InvalidBody):
        canonical_bytes(DeriveDataset(ds, ("a", "a"), "p", "1", HEX64))
    with pytest.raises(InvalidBody):
        canonical_bytes(DeriveDataset(ds, ("ds-9",), "p", "1", HEX64))
    with pytest.raises(InvalidBody):
        canonical_bytes(PublishDataset(ds))  # publish must carry primary
    with pytest.raises(InvalidBody):
        canonical_bytes(
            DeriveDataset(make_dataset("ds-8"), ("ds-1",), "p", "1", HEX64)
        )  # derive must carry secondary


# -- signing ---------------------------------------------------------------------


def test_sign_then_verify(user_key):
    body = storage_body()
    tx = sign_transaction(body, user_key, created_at=5)
    assert tx.creator == user_key.public_hex
    assert tx.tx_id == hashlib.sha256(canonical_bytes(body)).hexdigest()
    assert verify_signature(tx.creator, canonical_bytes(body), bytes.fromhex(tx.signature))


def test_verify_with_other_key_fails(user_key):
    body = storage_body()
    tx = sign_transaction(body, user_key, created_at=5)
    other = key_for("someone-else")
    assert not verify_signature(other.public_hex, canonical_bytes(body), bytes.fromhex(tx.signature))


def test_body_mutation_breaks_signature(user_key):
    body = PublishDataset(make_dataset("ds-1"))
    tx = sign_transaction(body, user_key, created_at=5)
    mutated = canonical_bytes(PublishDataset(make_dataset("ds-1", extra={"x": "1"})))
    assert not verify_signature(tx.creator, mutated, bytes.fromhex(tx.signature))


def test_signature_bitflip_fails(user_key):
    body = storage_body()
    tx = sign_transaction(body, user_key, created_at=5)
    data = canonical_bytes(body)
    rng = random.Random(1)
    for _ in range(50):
        sig = bytearray(bytes.fromhex(tx.signature))
        sig[rng.randrange(64)] ^= 1 << rng.randrange(8)
        assert not verify_signature(tx.creator, data, bytes(sig))


# -- wire format -------------------------------------------------------------------


def test_tx_wire_roundtrip(user_key):
    tx = sign_transaction(PublishDataset(make_dataset("ds-1")), user_key, created_at=77)
    data = tx.wire_bytes
    back = tx_from_wire_bytes(data)
    assert back == tx
    assert back.wire_bytes == data


def test_tx_wire_key_set_is_exact(user_key):
    tx = sign_transaction(storage_body(), user_key, created_at=77)
    obj = loads_canonical(tx.wire_bytes)
    del obj["created_at"]
    with pytest.raises(InvalidBody):
        tx_from_wire_bytes(dumps_canonical(obj))
    with pytest.raises(InvalidBody):
        tx_from_wire_bytes(b'{"not":"a tx"}')
    with pytest.raises(InvalidBody):
        tx_from_wire_bytes(b"{bad json")


# -- validation against registry state -----------------------------------------------


def test_publish_accepts_on_registered_storage(base_state, user_key):
    tx = sign_transaction(PublishDataset(make_dataset("ds-1")), user_key, created_at=20)
    assert validate_transaction(tx, base_state).ok


def test_unknown_storage_rejected(base_state, user_key):
    tx = sign_transaction(
        PublishDataset(make_dataset("ds-1", storage_id="st-ghost")), user_key, created_at=20
    )
    verdict = validate_transaction(tx, base_state)
    assert (verdict.ok, verdict.reason) == (False, "UnknownStorage")


def test_unknown_parent_rejected(base_state, user_key):
    tx = sign_transaction(
        DeriveDataset(make_dataset("ds-2", kind="secondary"), ("ds-nope",), "prog-1", "1.0", HEX64),
        user_key,
        created_at=20,
    )
    assert validate_transaction(tx, base_state).reason == "UnknownParent"


def test_unknown_program_rejected(base_state, user_key):
    base_state.apply(sign_transaction(PublishDataset(make_dataset("ds-1")), user_key, created_at=19))
    tx = sign_transaction(
        DeriveDataset(make_dataset("ds-2", kind="secondary"), ("ds-1",), "prog-ghost", "9.9", HEX64),
        user_key,
        created_at=20,
    )
    assert validate_transaction(tx, base_state).reason == "UnknownProgram"


def test_duplicate_dataset_rejected(base_state, user_key):
    tx = sign_transaction(PublishDataset(make_dataset("ds-1")), user_key, created_at=20)
    base_state.apply(tx)
    again = sign_transaction(PublishDataset(make_dataset("ds-1")), user_key, created_at=21)
    assert validate_transaction(again, base_state).reason == "DuplicateDataset"


def test_replayed_tx_rejected_as_duplicate(base_state, user_key):
    tx = sign_transaction(PublishDataset(make_dataset("ds-1")), user_key, created_at=20)
    assert validate_transaction(tx, base_state).ok
    base_state.apply(tx)
    assert validate_transaction(tx, base_state).reason == "DuplicateDataset"


def test_duplicate_registrations_rejected(base_state, user_key):
    verdict = validate_transaction(sign_transaction(storage_body(), user_key, created_at=30), base_state)
    assert verdict.reason == "DuplicateStorage"
    verdict = validate_transaction(sign_transaction(program_body(), user_key, created_at=30), base_state)
    assert verdict.reason == "DuplicateProgram"


def test_bad_tx_id_rejected(base_state, user_key):
    tx = sign_transaction(PublishDataset(make_dataset("ds-1")), user_key, created_at=20)
    forged = tx_from_wire_bytes(tx.wire_bytes)
    object.__setattr__(forged, "tx_id", HEX64)
    assert validate_transaction(forged, base_state).reason == "BadTxId"


def test_bad_signature_rejected(base_state, user_key):
    tx = sign_transaction(PublishDataset(make_dataset("ds-1")), user_key, created_at=20)
    object.__setattr__(tx, "creator", key_for("impostor").public_hex)
    assert validate_transaction(tx, base_state).reason == "BadSignature"


def test_cached_bytes_and_verdict_do_not_follow_a_replace(base_state, user_key):
    tx = sign_transaction(PublishDataset(make_dataset("ds-1")), user_key, created_at=20)
    assert validate_transaction(tx, base_state).ok  # caches wire bytes and verdict
    assert tx.body_bytes == canonical_bytes(tx.body)
    changed = dataclasses.replace(
        tx, body=PublishDataset(make_dataset("ds-1", extra={"tampered": "1"}))
    )
    assert changed.wire_bytes != tx.wire_bytes
    assert validate_transaction(changed, base_state).reason == "BadTxId"
    other = sign_transaction(PublishDataset(make_dataset("ds-2")), user_key, created_at=20)
    resigned = dataclasses.replace(tx, signature=other.signature)
    assert validate_transaction(resigned, base_state).reason == "BadSignature"
    assert validate_transaction(tx, base_state).ok


def test_invalid_objects_raise_every_time_and_keep_nothing(user_key):
    tx = dataclasses.replace(
        sign_transaction(PublishDataset(make_dataset("ds-1")), user_key, created_at=1), creator="not hex"
    )
    ev = EasEvent("e", 1, "f", "d", (1, -2), 10, None, {})
    for obj, attrs in ((tx, ("wire_bytes", "signature_ok")), (ev, ("checked", "wire_bytes"))):
        for attr in attrs:
            for _ in range(2):
                with pytest.raises(InvalidBody):
                    getattr(obj, attr)
            assert attr not in vars(obj)


def test_computed_once_attributes_take_no_class_lock():
    # functools.cached_property takes one lock per class on every first read
    assert not [
        (cls.__name__, name)
        for cls in (model.EasEvent, model.PmdTransaction, BlockHeader)
        for name, value in vars(cls).items()
        if isinstance(value, functools.cached_property)
    ]


def test_body_bytes_are_cut_from_wire_bytes(user_key):
    # a body string that spells the created_at member, or an extra key that
    # is that member's name, cannot move the cut, neither where the wire
    # bytes join the body's nor where a reader slices the body's from them
    tx = sign_transaction(
        PublishDataset(make_dataset("ds-1", extra={',"created_at":': ',"created_at":1', "created_at": "2"})),
        user_key, created_at=7
    )
    assert tx.body_bytes == canonical_bytes(tx.body)
    obj = {"body": body_to_obj(tx.body), "created_at": tx.created_at, "creator": tx.creator,
           "signature": tx.signature, "tx_id": tx.tx_id}
    assert tx.wire_bytes == dumps_canonical(obj)
    back = tx_from_wire_bytes(tx.wire_bytes)
    assert back.body_bytes == tx.body_bytes and back.wire_bytes == tx.wire_bytes
    assert back.tx_id_ok and back.signature_ok


def test_bool_created_at_still_rejected(base_state, user_key):
    tx = dataclasses.replace(
        sign_transaction(PublishDataset(make_dataset("ds-1")), user_key, created_at=1), created_at=True
    )
    with pytest.raises(InvalidBody):
        tx.wire_bytes
    assert validate_transaction(tx, base_state).reason == "InvalidBody"
    obj = loads_canonical(sign_transaction(storage_body(), user_key, created_at=1).wire_bytes)
    obj["created_at"] = True
    with pytest.raises(InvalidBody):
        tx_from_obj(obj)


def test_parse_validates_each_dataset_once(user_key, monkeypatch):
    txs = [
        sign_transaction(PublishDataset(make_dataset("ds-0")), user_key, created_at=3),
        sign_transaction(
            DeriveDataset(make_dataset("ds-1", kind="secondary"), ("ds-0",), "prog-1", "1.0", HEX64),
            user_key,
            created_at=4,
        ),
    ]
    state = RegistryState()
    state.apply(sign_transaction(storage_body(), user_key, created_at=1))
    state.apply(sign_transaction(program_body(), user_key, created_at=2))
    wires = [tx.wire_bytes for tx in txs]
    calls = []
    original = model.validate_dataset
    monkeypatch.setattr(model, "validate_dataset", lambda ds: calls.append(ds) or original(ds))
    for data in wires:
        tx = tx_from_wire_bytes(data)
        assert tx.wire_bytes == data
        assert validate_transaction(tx, state).ok
        state.apply(tx)
    assert len(calls) == len(txs)


def test_order_respecting_validation(user_key):
    # A shuffled batch never confirms a child before its parent.
    txs = [
        sign_transaction(storage_body(), user_key, created_at=1),
        sign_transaction(program_body(), user_key, created_at=2),
        sign_transaction(PublishDataset(make_dataset("ds-0")), user_key, created_at=3),
        sign_transaction(
            DeriveDataset(make_dataset("ds-1", kind="secondary"), ("ds-0",), "prog-1", "1.0", HEX64),
            user_key,
            created_at=4,
        ),
    ]
    rng = random.Random(7)
    for _ in range(20):
        order = list(txs)
        rng.shuffle(order)
        staged = RegistryState()
        confirmed = []
        for tx in order:
            if validate_transaction(tx, staged).ok:
                staged.apply(tx)
                confirmed.append(tx.tx_id)
        if txs[3].tx_id in confirmed:
            assert confirmed.index(txs[2].tx_id) < confirmed.index(txs[3].tx_id)


# -- provenance --------------------------------------------------------------------


def _derive(child, parents, user_key, created_at, program=("prog-1", "1.0")):
    return sign_transaction(
        DeriveDataset(
            dataset=make_dataset(child, kind="secondary"),
            parent_dataset_ids=tuple(parents),
            program_id=program[0],
            program_version=program[1],
            parameters_hash=HEX64,
        ),
        user_key,
        created_at=created_at,
    )


def test_provenance_single_primary(base_state, user_key):
    base_state.apply(sign_transaction(PublishDataset(make_dataset("ds-0")), user_key, created_at=20))
    dag = provenance_trace("ds-0", base_state)
    assert dag.nodes == ("ds-0",)
    assert dag.edges == ()


def test_provenance_chain(base_state, user_key):
    base_state.apply(sign_transaction(PublishDataset(make_dataset("ds-0")), user_key, created_at=20))
    base_state.apply(_derive("ds-1", ["ds-0"], user_key, 21))
    base_state.apply(_derive("ds-2", ["ds-1"], user_key, 22))
    dag = provenance_trace("ds-2", base_state)
    assert dag.nodes == ("ds-0", "ds-1", "ds-2")
    assert [(e.child, e.parent, e.program_id, e.program_version) for e in dag.edges] == [
        ("ds-1", "ds-0", "prog-1", "1.0"),
        ("ds-2", "ds-1", "prog-1", "1.0"),
    ]


def test_provenance_diamond(base_state, user_key):
    base_state.apply(sign_transaction(PublishDataset(make_dataset("ds-0")), user_key, created_at=20))
    base_state.apply(_derive("ds-a", ["ds-0"], user_key, 21))
    base_state.apply(_derive("ds-b", ["ds-0"], user_key, 22))
    base_state.apply(_derive("ds-top", ["ds-a", "ds-b"], user_key, 23))
    dag = provenance_trace("ds-top", base_state)
    assert dag.nodes == ("ds-0", "ds-a", "ds-b", "ds-top")
    assert len(dag.edges) == 4


def test_provenance_excludes_unrelated(base_state, user_key):
    base_state.apply(sign_transaction(PublishDataset(make_dataset("ds-0")), user_key, created_at=20))
    base_state.apply(sign_transaction(PublishDataset(make_dataset("ds-x")), user_key, created_at=21))
    base_state.apply(_derive("ds-1", ["ds-0"], user_key, 22))
    dag = provenance_trace("ds-1", base_state)
    assert "ds-x" not in dag.nodes


def test_provenance_unknown_dataset(base_state):
    with pytest.raises(NotFound):
        provenance_trace("ds-ghost", base_state)
