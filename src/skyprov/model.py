"""Data model for air-shower events, datasets, and provenance transactions.

Every on-wire object has exactly one byte form (see canonical.py), so the
same logical value always hashes and signs identically. All digest-valued
fields are carried as lowercase hex strings; raw digest bytes appear only
at the Merkle-log boundary.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Union

from .canonical import (
    _field_names,
    _require,
    _require_choice,
    _require_count,
    _require_hex64,
    _require_int,
    _require_keys,
    _require_str,
    _require_str_map,
    dumps_validated,
    is_decimal,
    is_hex128,
    once,
    parse_json,
    read_part,
    sha256_bytes,
)
from .errors import InvalidBody, NotFound
from .keys import SigningKey, verify_signature
from .merkle import leaf_hash

DATASET_KINDS = ("primary", "secondary")
ADAPTER_KINDS = ("jsonl", "packed")


# An instance that no __init__ has filled, and how a frozen dataclass's
# __init__ fills it.
_new = object.__new__
_set = object.__setattr__


def _same_fields(a, b, names) -> bool:
    """Field-by-field equality, where a list equals the tuple of its items.
    No wire form is built, so invalid objects compare too."""
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        if (tuple(x) if isinstance(x, list) else x) != (tuple(y) if isinstance(y, list) else y):
            return False
    return True


# -- events --------------------------------------------------------------


@dataclass(frozen=True, eq=True)
class EasEvent:
    """One extensive-air-shower event record.

    registration_time and bin_width are integer nanoseconds; energy is a
    fixed-point decimal string in PeV (no floats anywhere near signed or
    hashed bytes).
    """

    event_id: str
    registration_time: int
    facility_id: str
    detector_id: str
    signal_histogram: tuple
    bin_width: int
    energy_estimate: Optional[str] = None
    service_info: Mapping[str, str] = field(default_factory=dict)

    def __eq__(self, other):
        if not isinstance(other, EasEvent):
            return NotImplemented
        return _same_fields(self, other, _EVENT_KEYS)

    __hash__ = None

    @once
    def checked(self) -> bool:
        """validate_event, run at most once per object; a failure raises InvalidBody and caches nothing."""
        validate_event(self)
        return True

    @once
    def wire_bytes(self) -> bytes:
        """Canonical bytes: one jsonl line without its newline. Computing it
        is the event's one validation, unless a decoder built the event: it
        checks the fields first, and a jsonl decode sets these bytes."""
        return dumps_validated(event_to_obj(self))


def validate_event(ev: EasEvent) -> None:
    _require_str(ev.event_id, "event_id")
    _require(_require_int(ev.registration_time, "registration_time") > 0, "registration_time must be > 0")
    _require_str(ev.facility_id, "facility_id")
    _require_str(ev.detector_id, "detector_id")
    hist = ev.signal_histogram
    _require(isinstance(hist, (list, tuple)), "signal_histogram must be a sequence")
    # one C-level pass; the loop only runs to name the first bad count
    if hist and not (set(map(type, hist)) <= {int} and min(hist) >= 0):
        for c in hist:
            _require_count(c, "histogram count")
    _require(_require_int(ev.bin_width, "bin_width") > 0, "bin_width must be > 0")
    if ev.energy_estimate is not None:
        _require(is_decimal(ev.energy_estimate), "energy_estimate must be a non-negative fixed-point decimal string")
    _require_str_map(ev.service_info, "service_info")


# The key set of each wire object is its class's field names.
_EVENT_KEYS = _field_names(EasEvent)


def event_to_obj(ev: EasEvent) -> dict:
    ev.checked  # validate_event, once per object
    obj = {name: getattr(ev, name) for name in _EVENT_KEYS}
    obj["service_info"] = dict(sorted(ev.service_info.items()))
    obj["signal_histogram"] = list(ev.signal_histogram)
    return obj


def _event_from_fields(event_id, registration_time, facility_id, detector_id, signal_histogram, bin_width,
                       energy_estimate, service_info) -> EasEvent:
    """The event holding these fields, checked by validate_event: the one
    build of every decoded event. A failure raises InvalidBody.

    Filled field by field with object.__setattr__, as the frozen dataclass's
    __init__ fills it, without that keyword call, as _dataset_from_fields
    fills a descriptor.
    """
    ev = _new(EasEvent)
    _set(ev, "event_id", event_id)
    _set(ev, "registration_time", registration_time)
    _set(ev, "facility_id", facility_id)
    _set(ev, "detector_id", detector_id)
    _set(ev, "signal_histogram", signal_histogram)
    _set(ev, "bin_width", bin_width)
    _set(ev, "energy_estimate", energy_estimate)
    _set(ev, "service_info", service_info)
    validate_event(ev)
    _set(ev, "checked", True)
    return ev


def event_from_obj(obj: Any) -> EasEvent:
    """The event an event object holds, checked once and encoded once."""
    _require(isinstance(obj, dict), "event must be an object")
    _require_keys(obj, _EVENT_KEYS, "event object")
    hist = obj["signal_histogram"]
    ev = _event_from_fields(obj["event_id"], obj["registration_time"], obj["facility_id"], obj["detector_id"],
                            tuple(hist) if isinstance(hist, (list, tuple)) else hist, obj["bin_width"],
                            obj["energy_estimate"], obj["service_info"])
    # obj holds the fields just checked, and the encoder sorts service_info's
    # keys, so its bytes are those of event_to_obj(ev), with no rebuild
    _set(ev, "wire_bytes", dumps_validated(obj))
    return ev


# -- datasets ------------------------------------------------------------


@dataclass(frozen=True)
class FileRef:
    path: str
    content_hash: str
    size: int
    format: str


@dataclass(frozen=True)
class DatasetDescriptor:
    dataset_id: str
    kind: str
    storage_id: str
    file_refs: tuple
    facility_id: str
    time_range: tuple
    detector_geometry_hash: str
    extra: Mapping[str, str] = field(default_factory=dict)

    def __eq__(self, other):
        if not isinstance(other, DatasetDescriptor):
            return NotImplemented
        return _same_fields(self, other, _DATASET_KEYS)

    __hash__ = None


def validate_dataset(ds: DatasetDescriptor) -> None:
    _require_str(ds.dataset_id, "dataset_id")
    _require_choice(ds.kind, DATASET_KINDS, "kind")
    _require_str(ds.storage_id, "storage_id")
    _require(isinstance(ds.file_refs, (list, tuple)) and len(ds.file_refs) > 0, "file_refs must be non-empty")
    for ref in ds.file_refs:
        _require(isinstance(ref, FileRef), "file_refs entries must be FileRef")
        _require_str(ref.path, "file path")
        _require_hex64(ref.content_hash, "content_hash")
        _require_count(ref.size, "file size")
        _require_choice(ref.format, ADAPTER_KINDS, "file format")
    _require_str(ds.facility_id, "facility_id")
    _require(isinstance(ds.time_range, (list, tuple)) and len(ds.time_range) == 2,
             "time_range must be a (start, end) pair")
    start, end = ds.time_range
    _require(_require_int(start, "time_range.start") <= _require_int(end, "time_range.end"),
             "time_range.start must be <= time_range.end")
    _require_hex64(ds.detector_geometry_hash, "detector_geometry_hash")
    _require_str_map(ds.extra, "extra")


_DATASET_KEYS = _field_names(DatasetDescriptor)
_FILE_REF_KEYS = _field_names(FileRef)
_TIME_RANGE_KEYS = frozenset(("end", "start"))


def dataset_to_obj(ds: DatasetDescriptor) -> dict:
    validate_dataset(ds)
    return _dataset_obj(ds)


def _dataset_obj(ds: DatasetDescriptor) -> dict:
    """The wire object of a dataset that validate_dataset passed."""
    obj = {name: getattr(ds, name) for name in _DATASET_KEYS}
    obj["extra"] = dict(sorted(ds.extra.items()))
    obj["file_refs"] = [{name: getattr(r, name) for name in _FILE_REF_KEYS} for r in ds.file_refs]
    obj["time_range"] = {"end": ds.time_range[1], "start": ds.time_range[0]}
    return obj


def _check_dataset_obj(obj: Any) -> None:
    """Check a dataset object's shape: its keys, and those of its file refs
    and time range. Every key _dataset_fields reads is checked here."""
    _require(isinstance(obj, dict), "dataset must be an object")
    _require_keys(obj, _DATASET_KEYS, "dataset object")
    refs = obj["file_refs"]
    _require(isinstance(refs, list), "file_refs must be a list")
    for r in refs:
        _require(isinstance(r, dict) and r.keys() == _FILE_REF_KEYS, "file_refs entries malformed")
    tr = obj["time_range"]
    _require(isinstance(tr, dict) and tr.keys() == _TIME_RANGE_KEYS, "time_range malformed")


def _dataset_fields(obj: dict) -> tuple:
    """The fields of a dataset object _check_dataset_obj passed, in
    DatasetDescriptor's order, with each file ref and the time range as a
    tuple. A restored record keeps them in place of the parsed object, whose
    dicts and key strings cost more than the descriptor. Every key read was
    checked, so it cannot raise."""
    tr = obj["time_range"]
    refs = tuple([(r["path"], r["content_hash"], r["size"], r["format"]) for r in obj["file_refs"]])
    return (obj["dataset_id"], obj["kind"], obj["storage_id"], refs, obj["facility_id"],
            (tr["start"], tr["end"]), obj["detector_geometry_hash"], obj["extra"])


def _dataset_from_fields(fields: tuple) -> DatasetDescriptor:
    """The descriptor holding _dataset_fields' fields; it cannot raise.

    Filled field by field with object.__setattr__, as the frozen dataclass's
    __init__ fills it, without that keyword call, which cost most of a build
    that runs once per dataset read.
    """
    dataset_id, kind, storage_id, file_refs, facility_id, time_range, geometry_hash, extra = fields
    refs = []
    for path, content_hash, size, fmt in file_refs:
        ref = _new(FileRef)
        _set(ref, "path", path)
        _set(ref, "content_hash", content_hash)
        _set(ref, "size", size)
        _set(ref, "format", fmt)
        refs.append(ref)
    ds = _new(DatasetDescriptor)
    _set(ds, "dataset_id", dataset_id)
    _set(ds, "kind", kind)
    _set(ds, "storage_id", storage_id)
    _set(ds, "file_refs", tuple(refs))
    _set(ds, "facility_id", facility_id)
    _set(ds, "time_range", time_range)
    _set(ds, "detector_geometry_hash", geometry_hash)
    _set(ds, "extra", extra)
    return ds


# -- transaction bodies ---------------------------------------------------


class _Body:
    """Base of the four transaction body classes."""

    @once
    def wire_bytes(self) -> bytes:
        """The body's unique byte form, hashed and signed as-is; computing it
        is the body's field validation."""
        return dumps_validated(body_to_obj(self))


@dataclass(frozen=True)
class RegisterStorage(_Body):
    storage_id: str
    adapter_kind: str
    base_uri: str
    storage_pubkey: str


@dataclass(frozen=True)
class RegisterProgram(_Body):
    program_id: str
    version: str
    code_hash: str


@dataclass(frozen=True)
class PublishDataset(_Body):
    dataset: DatasetDescriptor


@dataclass(frozen=True)
class DeriveDataset(_Body):
    dataset: DatasetDescriptor
    parent_dataset_ids: tuple
    program_id: str
    program_version: str
    parameters_hash: str


TxBody = Union[RegisterStorage, RegisterProgram, PublishDataset, DeriveDataset]

# A body object's keys are its class's field names plus "type", the class's tag.
_BODY_CLASSES = {
    "register_storage": RegisterStorage,
    "register_program": RegisterProgram,
    "publish_dataset": PublishDataset,
    "derive_dataset": DeriveDataset,
}
_BODY_TAGS = {cls: tag for tag, cls in _BODY_CLASSES.items()}
_BODY_FIELDS = {cls: _field_names(cls) for cls in _BODY_TAGS}
_BODY_KEYS = {cls: fields | {"type"} for cls, fields in _BODY_FIELDS.items()}


def _check_body(body: TxBody) -> None:
    """A body's field checks, its dataset's first, for body_to_obj and tx_from_obj."""
    if isinstance(body, RegisterStorage):
        _require_str(body.storage_id, "storage_id")
        _require_choice(body.adapter_kind, ADAPTER_KINDS, "adapter_kind")
        _require_str(body.base_uri, "base_uri")
        _require_hex64(body.storage_pubkey, "storage_pubkey")
    elif isinstance(body, RegisterProgram):
        _check_program(body.program_id, body.version, body.code_hash)
    elif isinstance(body, PublishDataset):
        validate_dataset(body.dataset)
        _require(body.dataset.kind == "primary", "publish_dataset must carry a primary dataset")
    else:
        validate_dataset(body.dataset)
        _require(body.dataset.kind == "secondary", "derive_dataset must carry a secondary dataset")
        _require(
            isinstance(body.parent_dataset_ids, (list, tuple)) and len(body.parent_dataset_ids) > 0,
            "parent_dataset_ids must be non-empty",
        )
        seen = set()
        for p in body.parent_dataset_ids:
            _require_str(p, "parent dataset id")
            _require(p not in seen, "parent_dataset_ids must be distinct")
            seen.add(p)
        _require(body.dataset.dataset_id not in seen, "a dataset cannot be its own parent")
        _require_str(body.program_id, "program_id")
        _require_str(body.program_version, "program_version")
        _require_hex64(body.parameters_hash, "parameters_hash")


def _check_program(program_id, version, code_hash) -> None:
    """A program registration's field checks, for _check_body and the fold, which builds no body."""
    _require_str(program_id, "program_id")
    _require_str(version, "version")
    _require_hex64(code_hash, "code_hash")


def body_to_obj(body: TxBody) -> dict:
    _check_body(body)
    obj = {name: getattr(body, name) for name in _BODY_FIELDS[type(body)]}
    obj["type"] = _BODY_TAGS[type(body)]
    if isinstance(body, (PublishDataset, DeriveDataset)):
        obj["dataset"] = _dataset_obj(body.dataset)
    if isinstance(body, DeriveDataset):
        obj["parent_dataset_ids"] = list(body.parent_dataset_ids)
    return obj


def body_from_obj(obj: Any) -> TxBody:
    body = _body_from_obj(obj)
    body.wire_bytes  # the one field validation
    return body


def _body_from_obj(obj: Any) -> TxBody:
    """Build a body after checking the object's shape only."""
    cls = _check_body_obj(obj)
    if cls is PublishDataset:
        return PublishDataset(dataset=_dataset_from_fields(_dataset_fields(obj["dataset"])))
    if cls is DeriveDataset:
        return DeriveDataset(
            dataset=_dataset_from_fields(_dataset_fields(obj["dataset"])),
            parent_dataset_ids=tuple(obj["parent_dataset_ids"]),
            program_id=obj["program_id"],
            program_version=obj["program_version"],
            parameters_hash=obj["parameters_hash"],
        )
    if cls is RegisterStorage:
        return _storage_from_checked(obj)
    return RegisterProgram(program_id=obj["program_id"], version=obj["version"], code_hash=obj["code_hash"])


def _check_body_obj(obj: Any) -> type:
    """Check a body object's shape, its dataset's too, and return its class."""
    _require(isinstance(obj, dict), "body must be an object")
    tag = obj.get("type")
    cls = _BODY_CLASSES.get(tag) if isinstance(tag, str) else None
    _require(cls is not None, "unknown body type tag {!r}", tag)
    _require(obj.keys() == _BODY_KEYS[cls], "{} keys malformed", tag)
    if cls is DeriveDataset:
        _require(isinstance(obj["parent_dataset_ids"], list), "parent_dataset_ids must be a list")
    if cls is PublishDataset or cls is DeriveDataset:
        _check_dataset_obj(obj["dataset"])
    return cls


def _storage_from_checked(obj: dict) -> RegisterStorage:
    return RegisterStorage(
        storage_id=obj["storage_id"],
        adapter_kind=obj["adapter_kind"],
        base_uri=obj["base_uri"],
        storage_pubkey=obj["storage_pubkey"],
    )


def canonical_bytes(body: TxBody) -> bytes:
    """The unique byte form of a transaction body: hashed and signed as-is."""
    if not isinstance(body, _Body):
        raise InvalidBody(f"unknown transaction body type {type(body).__name__}")
    return body.wire_bytes


# -- signed transactions ---------------------------------------------------


@dataclass(frozen=True)
class PmdTransaction:
    """A signed transaction. Its wire bytes, leaf hash, tx-id check and
    signature verdict are computed once per object; dataclasses.replace
    gives a copy that computes its own."""

    body: TxBody
    creator: str
    created_at: int
    signature: str
    tx_id: str

    @once
    def wire_bytes(self) -> bytes:
        """Wire form, appended to the registry log: the body's bytes ("body"
        sorts first) joined with the other members, each a checked integer
        or lowercase hex that needs no escaping. Computing it is the
        transaction's field validation, body first, unless a reader built
        the transaction and set these bytes."""
        body = canonical_bytes(self.body)
        _check_tx(self)
        return b'{"body":%b,"created_at":%d,"creator":"%b","signature":"%b","tx_id":"%b"}' % (
            body, self.created_at, self.creator.encode(), self.signature.encode(), self.tx_id.encode())

    @property
    def body_bytes(self) -> bytes:
        """canonical_bytes(self.body), cut from the wire bytes: the last
        ',"created_at":' opens the members after the body, which hold no
        other, so a read transaction's body is never encoded."""
        data = self.wire_bytes
        return data[len(b'{"body":'):data.rindex(b',"created_at":')]

    @once
    def leaf_hash(self) -> bytes:
        """The registry log's and the tx tree's leaf hash of the wire bytes."""
        return leaf_hash(self.wire_bytes)

    @once
    def tx_id_ok(self) -> bool:
        """Whether tx_id is the SHA-256 of the body bytes."""
        return self.tx_id == sha256_bytes(self.body_bytes).hex()

    @once
    def signature_ok(self) -> bool:
        """Whether signature verifies under creator over the body bytes."""
        return verify_signature(self.creator, self.body_bytes, bytes.fromhex(self.signature))


def sign_transaction(body: TxBody, key: SigningKey, created_at: Optional[int] = None) -> PmdTransaction:
    if not isinstance(key, SigningKey):
        raise InvalidBody("key must be a SigningKey")
    data = canonical_bytes(body)
    tx = PmdTransaction(
        body=body,
        creator=key.public_hex,
        created_at=time.time_ns() if created_at is None else created_at,
        signature=key.sign(data).hex(),
        tx_id=sha256_bytes(data).hex(),
    )
    tx.wire_bytes  # the field validation; only created_at can fail it here
    return tx


def _check_tx(tx: PmdTransaction) -> None:
    """A transaction's own field checks, after its body's, for wire_bytes and tx_from_obj."""
    _require_hex64(tx.creator, "creator")
    _require(_require_int(tx.created_at, "created_at") > 0, "created_at must be > 0")
    _require(is_hex128(tx.signature), "signature must be 128 lowercase hex chars")
    _require_hex64(tx.tx_id, "tx_id")


_TX_KEYS = _field_names(PmdTransaction)


def tx_from_obj(obj: Any) -> PmdTransaction:
    """The transaction a transaction object holds, its shape and then its
    fields checked, body first; nothing is encoded."""
    _check_tx_obj(obj)
    body = _body_from_obj(obj["body"])
    _check_body(body)
    creator = obj["creator"]
    tx = PmdTransaction(
        body=body,
        # a chain's transactions come from a few keys: one string per key,
        # not one per parsed transaction, in a replay that holds them all
        creator=sys.intern(creator) if type(creator) is str else creator,
        created_at=obj["created_at"],
        signature=obj["signature"],
        tx_id=obj["tx_id"],
    )
    _check_tx(tx)
    return tx


def _check_tx_obj(obj: Any) -> None:
    """Check a transaction object's keys; its body is checked on its own."""
    _require(isinstance(obj, dict), "transaction must be an object")
    _require_keys(obj, _TX_KEYS, "transaction")


def tx_from_wire_bytes(data: bytes) -> PmdTransaction:
    """Parse a transaction, accepting only its wire bytes."""
    return read_part(tx_from_obj, data, parse_json(data))


# -- registry state and validation -----------------------------------------


@dataclass(frozen=True)
class DatasetRecord:
    """A confirmed dataset, its lineage and the transaction that recorded
    it. A record fold_log_entries restores holds the fields of its log
    entry's checked dataset object, and builds its descriptor from them on
    first read."""

    descriptor: DatasetDescriptor
    parents: tuple
    program: Optional[tuple]  # (program_id, program_version) for derived data
    tx_id: str

    __hash__ = None

    def __eq__(self, other):
        if not isinstance(other, DatasetRecord):
            return NotImplemented
        return _same_fields(self, other, _RECORD_KEYS)

    @once
    def dataset_fields(self) -> tuple:
        """The dataset's fields as _dataset_fields gives them: what a query
        tests. A restored record holds them; a record apply() made derives
        them from its descriptor on first read."""
        ds = self.descriptor
        refs = tuple([(r.path, r.content_hash, r.size, r.format) for r in ds.file_refs])
        return (ds.dataset_id, ds.kind, ds.storage_id, refs, ds.facility_id, tuple(ds.time_range),
                ds.detector_geometry_hash, ds.extra)


_RECORD_KEYS = _field_names(DatasetRecord)


def _restored_descriptor(record: DatasetRecord) -> DatasetDescriptor:
    ds = _dataset_from_fields(record.dataset_fields)
    validate_dataset(ds)  # a head re-signed by a roster key may hold any field values
    return ds


# Reached only where __init__ set no descriptor, on a restored record. Set
# here, not in the class body, where dataclass would take it for the
# field's default.
DatasetRecord.descriptor = once(_restored_descriptor, "descriptor")


class RegistryState:
    """Confirmed-transaction view: what new transactions are validated
    against, what queries scan, and what the index snapshot file holds.

    Mutating apply() is only ever called with transactions that passed
    validate_transaction against this same state, in confirmation order.
    built_to is the (height, registry size) of the last block folded in;
    ChainState.apply_block advances it.
    """

    __slots__ = ("storages", "programs", "datasets", "built_to")

    def __init__(self):
        self.storages: dict = {}  # storage_id -> RegisterStorage
        self.programs: dict = {}  # (program_id, version) -> code_hash
        self.datasets: dict = {}  # dataset_id -> DatasetRecord, in confirmation order
        self.built_to: tuple = (-1, 0)

    def clone(self) -> "RegistryState":
        out = RegistryState()
        out.storages = dict(self.storages)
        out.programs = dict(self.programs)
        out.datasets = dict(self.datasets)
        out.built_to = self.built_to
        return out

    def apply(self, tx: PmdTransaction) -> None:
        body = tx.body
        if isinstance(body, RegisterStorage):
            self.storages[body.storage_id] = body
        elif isinstance(body, RegisterProgram):
            self.programs[(body.program_id, body.version)] = body.code_hash
        elif isinstance(body, PublishDataset):
            self.datasets[body.dataset.dataset_id] = DatasetRecord(
                descriptor=body.dataset, parents=(), program=None, tx_id=tx.tx_id
            )
        else:  # a DeriveDataset: every body read is one of the four classes
            self.datasets[body.dataset.dataset_id] = DatasetRecord(
                descriptor=body.dataset,
                parents=tuple(body.parent_dataset_ids),
                program=(body.program_id, body.program_version),
                tx_id=tx.tx_id,
            )


def fold_log_entries(objs) -> tuple:
    """(registry, tx index) folded from the parsed registry log entries
    objs, in log order, as ChainState.apply_block folds their transactions.

    Only for entries that the caller binds to a validated chain by its
    registry root before it uses the result (the head cache's restore). A
    roster key may re-sign a head over any bytes, so every field of a
    storage or program registration, which the registry keeps, passes the
    checks the body reader makes. A publication or derivation is checked
    for its shape only: the keys of a transaction, its body and its
    dataset, the types of the fields a query orders and filters by (integer
    time range bounds, an extra object), that every program, version and
    dataset id is a non-empty string, as the body readers require, and each
    parent it names must be a dataset folded before it.
    No transaction is built, and of the bodies only a storage registration.
    A dataset's record builds and validates its descriptor on first read.
    """
    registry, tx_index = RegistryState(), {}
    storages, programs, datasets = registry.storages, registry.programs, registry.datasets
    for i, obj in enumerate(objs):
        _check_tx_obj(obj)
        body = obj["body"]
        cls = _check_body_obj(body)
        tx_id = obj["tx_id"]
        tx_index[tx_id] = i
        if cls is RegisterStorage:
            storage = _storage_from_checked(body)
            _check_body(storage)
            storages[storage.storage_id] = storage
        elif cls is RegisterProgram:
            _check_program(body["program_id"], body["version"], body["code_hash"])
            programs[(body["program_id"], body["version"])] = body["code_hash"]
        else:
            if cls is DeriveDataset:
                parents = tuple(body["parent_dataset_ids"])
                for parent in parents:  # every folded id is a string; an unhashable one raises TypeError
                    _require(parent in datasets, "parent dataset {!r} is not folded before its child", parent)
                program = (_require_str(body["program_id"], "program_id"),
                           _require_str(body["program_version"], "program_version"))
            else:
                parents, program = (), None
            dataset = body["dataset"]
            dataset_id, storage_id = dataset["dataset_id"], dataset["storage_id"]
            tr = dataset["time_range"]  # what index.query orders and filters by
            _require(isinstance(tr["start"], int) and isinstance(tr["end"], int) and isinstance(dataset["extra"], dict)
                     and isinstance(dataset_id, str) and dataset_id and isinstance(storage_id, str) and storage_id,
                     "dataset time_range, extra or ids malformed")
            record = _new(DatasetRecord)
            _set(record, "parents", parents)
            _set(record, "program", program)
            _set(record, "tx_id", tx_id)
            _set(record, "dataset_fields", _dataset_fields(dataset))
            datasets[dataset_id] = record
    return registry, tx_index


@dataclass(frozen=True)
class Verdict:
    """Outcome of a transaction or block admission check."""

    ok: bool
    reason: Optional[str] = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


ACCEPT = Verdict(True)


def validate_transaction(tx: PmdTransaction, state: RegistryState) -> Verdict:
    """Full admission check against the given confirmed state."""
    try:
        tx.body_bytes
    except InvalidBody as exc:
        return Verdict(False, "InvalidBody", str(exc))
    if not tx.tx_id_ok:
        return Verdict(False, "BadTxId", "tx_id does not hash the body")
    if not tx.signature_ok:
        return Verdict(False, "BadSignature", "signature does not verify under creator key")
    body = tx.body
    if isinstance(body, RegisterStorage):
        if body.storage_id in state.storages:
            return Verdict(False, "DuplicateStorage", f"storage {body.storage_id} already registered")
    elif isinstance(body, RegisterProgram):
        if (body.program_id, body.version) in state.programs:
            return Verdict(False, "DuplicateProgram", f"program {body.program_id}@{body.version} already registered")
    else:  # a dataset: its storage, then a derivation's lineage, then the id
        if body.dataset.storage_id not in state.storages:
            return Verdict(False, "UnknownStorage", f"storage {body.dataset.storage_id} not registered")
        if isinstance(body, DeriveDataset):
            for parent in body.parent_dataset_ids:
                if parent not in state.datasets:
                    return Verdict(False, "UnknownParent", f"parent dataset {parent} not found")
            program = (body.program_id, body.program_version)
            if program not in state.programs:
                return Verdict(False, "UnknownProgram", "program {}@{} not registered".format(*program))
        if body.dataset.dataset_id in state.datasets:
            return Verdict(False, "DuplicateDataset", f"dataset {body.dataset.dataset_id} already exists")
    return ACCEPT


# -- provenance -------------------------------------------------------------


@dataclass(frozen=True)
class ProvEdge:
    child: str
    parent: str
    program_id: str
    program_version: str


_EDGE_KEYS = _field_names(ProvEdge)


@dataclass(frozen=True)
class ProvenanceDag:
    nodes: tuple
    edges: tuple

    def to_obj(self) -> dict:
        return {
            "edges": [{name: getattr(e, name) for name in _EDGE_KEYS} for e in self.edges],
            "nodes": list(self.nodes),
        }


def provenance_trace(dataset_id: str, state: RegistryState) -> ProvenanceDag:
    """Complete ancestor closure of a dataset, with program annotations."""
    if dataset_id not in state.datasets:
        raise NotFound(f"dataset {dataset_id} not found")
    nodes = set()
    edges = []
    frontier = [dataset_id]
    while frontier:
        current = frontier.pop()
        if current in nodes:
            continue
        if current not in state.datasets:
            raise NotFound(f"dataset {current} referenced but not found")
        nodes.add(current)
        record = state.datasets[current]
        if record.program is None:
            continue
        program_id, program_version = record.program
        for parent in record.parents:
            edges.append(ProvEdge(current, parent, program_id, program_version))
            if parent not in nodes:
                frontier.append(parent)
    return ProvenanceDag(
        nodes=tuple(sorted(nodes)),
        edges=tuple(sorted(edges, key=lambda e: (e.child, e.parent))),
    )
