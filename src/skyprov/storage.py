"""Storage adapters: a uniform file interface over per-storage formats.

A storage is a directory with a `storage.json` manifest declaring its
codec. Files are retrieved and stored bit-exact; event files decode to
canonical events regardless of the underlying format, so everything
downstream is format-blind.

Each decoded event is built in one pass: one scan, one field check
(validate_event) and at most one encode. A jsonl line is read by one
prebuilt JSON scanner, must hold exactly one JSON value, and is encoded
once; the event keeps those bytes (`EasEvent.wire_bytes`), which must equal
the line. A packed record encodes nothing: its event computes its bytes when
something encodes it. The jsonl encoder joins the events' bytes; the
packed encoder joins the records of one per-record packer (pack_event),
which an aggregation also calls to publish into a packed storage.

Every event has one byte form in each codec, so a decoded file re-encodes
to its own bytes.

packed codec, all little-endian:
  file header: magic "EASP", u16 version (1), u32 record count
  per record:
    u16 event_id length, event_id bytes (UTF-8)
    u16 facility_id length, facility_id bytes
    u16 detector_id length, detector_id bytes
    u64 registration_time
    u32 bin_width
    u32 histogram length, then one u32 per count
    u8 energy-present flag; if 1: u16 length, decimal-string bytes
    u16 service-info pair count; per pair, keys strictly increasing (a
    file with a duplicate key or keys out of order does not decode):
        u16 key length, key bytes, u16 value length, value bytes
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

from .canonical import (
    _require_choice,
    _require_str,
    make_dirs,
    read_canonical_file,
    read_file,
    scan_one_json,
    sha256_bytes,
    write_canonical_file,
    write_file,
)
from .errors import DecodeError, InvalidBody, NotFound, PathViolation
from .model import ADAPTER_KINDS, _event_from_fields, event_from_obj

MANIFEST_NAME = "storage.json"

PACKED_MAGIC = b"EASP"
PACKED_VERSION = 1

_U16_MAX = 0xFFFF
_U32_MAX = 0xFFFFFFFF
_U64_MAX = 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class StorageHandle:
    storage_id: str
    base_uri: str
    kind: str


def init_storage(base_uri: str, storage_id: str, kind: str) -> StorageHandle:
    """Create a storage directory with its manifest."""
    _require_choice(kind, ADAPTER_KINDS, "kind")
    _require_str(storage_id, "storage_id")
    make_dirs(base_uri)
    manifest = {"kind": kind, "storage_id": storage_id}
    write_canonical_file(os.path.join(base_uri, MANIFEST_NAME), manifest, exclusive=True)
    return StorageHandle(storage_id=storage_id, base_uri=base_uri, kind=kind)


def open_storage(base_uri: str) -> StorageHandle:
    """Open an existing storage by reading its manifest."""
    manifest = os.path.join(base_uri, MANIFEST_NAME)
    if not os.path.isdir(base_uri) or not os.path.isfile(manifest):
        raise NotFound(f"no storage manifest at {manifest}")
    obj = read_canonical_file(manifest, "storage manifest")
    if not isinstance(obj, dict) or set(obj) != {"kind", "storage_id"}:
        raise InvalidBody(f"manifest {manifest} keys malformed")
    _require_choice(obj["kind"], ADAPTER_KINDS, f"manifest {manifest} kind")
    _require_str(obj["storage_id"], f"manifest {manifest} storage_id")
    return StorageHandle(storage_id=obj["storage_id"], base_uri=base_uri, kind=obj["kind"])


def _resolve(handle: StorageHandle, path: str) -> str:
    if not isinstance(path, str) or path == "":
        raise PathViolation("path must be a non-empty relative path")
    if os.path.isabs(path):
        raise PathViolation(f"absolute path not allowed: {path}")
    base = os.path.realpath(handle.base_uri)
    target = os.path.realpath(os.path.join(base, path))
    if target != base and not target.startswith(base + os.sep):
        raise PathViolation(f"path escapes storage root: {path}")
    return target


def get_file(handle: StorageHandle, path: str, limit: int = -1):
    """Exact file bytes (at most limit of them when limit >= 0) plus their
    SHA-256; integrity verdicts are the caller's."""
    target = _resolve(handle, path)
    if not os.path.isfile(target):
        raise NotFound(f"no file {path} in storage {handle.storage_id}")
    data = read_file(target, f"storage {handle.storage_id} file", limit)
    return data, sha256_bytes(data)


def put_file(handle: StorageHandle, path: str, data: bytes) -> bytes:
    """Store bytes at a fresh path (publish-once); returns their SHA-256."""
    if not isinstance(data, bytes):
        raise InvalidBody("put_file expects bytes")
    target = _resolve(handle, path)
    make_dirs(os.path.dirname(target))
    write_file(target, data, exclusive=True)
    return sha256_bytes(data)


# -- jsonl codec ---------------------------------------------------------------


def encode_events_jsonl(events) -> bytes:
    lines = [ev.wire_bytes for ev in events]
    lines.append(b"")  # the final "\n"
    return b"\n".join(lines)


def decode_events_jsonl(data: bytes):
    if not isinstance(data, bytes):
        raise DecodeError("jsonl input must be bytes", 0)
    if data == b"":
        return []
    if not data.endswith(b"\n"):
        raise DecodeError("jsonl file must end with a newline", data.count(b"\n"))
    events = []
    for i, line in enumerate(data[:-1].split(b"\n")):
        # The canonical round trip: the validator admits only values the
        # encoder can write, so no encodability walk is needed.
        try:
            ev = event_from_obj(scan_one_json(line))
        except (ValueError, RecursionError, InvalidBody) as exc:  # ValueError: bad JSON or UTF-8, an over-long integer
            raise DecodeError(f"bad jsonl record: {exc}", i) from exc
        if ev.wire_bytes != line:
            raise DecodeError("bad jsonl record: input is not in canonical form", i)
        events.append(ev)
    return events


# -- packed codec ----------------------------------------------------------------


_MAGIC = struct.Struct("4s")
_U8 = struct.Struct("<B")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64_U32_U32 = struct.Struct("<QII")  # registration_time, bin_width, histogram length


def _pack_str(out: bytearray, text: str, what: str) -> None:
    """Append text to out as a u16-length-prefixed UTF-8 field."""
    raw = text.encode("utf-8")
    if len(raw) > _U16_MAX:
        raise InvalidBody(f"{what} too long for packed format")
    out += _U16.pack(len(raw))
    out += raw


def pack_event(ev) -> bytearray:
    """One event's packed record, in a buffer of its own, not copied to
    bytes: the file is joined from the records. InvalidBody names the field
    the packed codec cannot hold, and the file encoder adds the record's
    index."""
    ev.checked  # validate_event, once per object
    if ev.registration_time > _U64_MAX:
        raise InvalidBody("registration_time exceeds u64")
    if ev.bin_width > _U32_MAX:
        raise InvalidBody("bin_width exceeds u32")
    n = len(ev.signal_histogram)
    if n > _U32_MAX:
        raise InvalidBody("histogram too long")
    out = bytearray()
    _pack_str(out, ev.event_id, "event_id")
    _pack_str(out, ev.facility_id, "facility_id")
    _pack_str(out, ev.detector_id, "detector_id")
    try:  # validate_event and the checks above leave only a count for struct to refuse
        out += struct.pack(f"<QII{n}I", ev.registration_time, ev.bin_width, n, *ev.signal_histogram)
    except struct.error as exc:
        raise InvalidBody("histogram count exceeds u32") from exc
    if ev.energy_estimate is None:
        out += b"\x00"
    else:
        out += b"\x01"
        _pack_str(out, ev.energy_estimate, "energy_estimate")
    pairs = sorted(dict(ev.service_info).items())
    if len(pairs) > _U16_MAX:
        raise InvalidBody("too many service_info pairs")
    out += _U16.pack(len(pairs))
    for key, value in pairs:
        _pack_str(out, key, "service_info key")
        _pack_str(out, value, "service_info value")
    return out


def packed_file(records: list) -> bytes:
    """The packed file of records that pack_event built, in order."""
    return PACKED_MAGIC + struct.pack("<HI", PACKED_VERSION, len(records)) + b"".join(records)


def encode_events_packed(events) -> bytes:
    records = []
    for i, ev in enumerate(events):
        try:
            records.append(pack_event(ev))
        except InvalidBody as exc:
            raise InvalidBody(f"record {i}: {exc}") from exc
    return packed_file(records)


def _unpack_str(data: bytes, pos: int, record: int):
    """(string, offset after it) of the u16-length-prefixed UTF-8 field at pos."""
    (n,) = _U16.unpack_from(data, pos)
    pos += 2
    raw = data[pos : pos + n]
    if len(raw) != n:
        raise struct.error("string runs past the end of the data")
    try:
        return raw.decode("utf-8"), pos + n
    except UnicodeDecodeError as exc:
        raise DecodeError(f"invalid UTF-8 in packed record: {exc}", record) from exc


def decode_events_packed(data: bytes):
    i = 0  # the record a truncation names; the file header counts as record 0
    try:
        if _MAGIC.unpack_from(data)[0] != PACKED_MAGIC:
            raise DecodeError("bad packed magic", 0)
        (version,) = _U16.unpack_from(data, 4)
        if version != PACKED_VERSION:
            raise DecodeError(f"unsupported packed version {version}", 0)
        (count,) = _U32.unpack_from(data, 6)
        pos = 10
        events = []
        for i in range(count):
            event_id, pos = _unpack_str(data, pos, i)
            facility_id, pos = _unpack_str(data, pos, i)
            detector_id, pos = _unpack_str(data, pos, i)
            registration_time, bin_width, n = _U64_U32_U32.unpack_from(data, pos)
            pos += 16
            if pos + 4 * n > len(data):  # a count the data cannot hold builds no format for it
                raise struct.error("histogram runs past the end of the data")
            histogram = struct.unpack_from(f"<{n}I", data, pos)
            pos += 4 * n
            (flag,) = _U8.unpack_from(data, pos)
            pos += 1
            if flag not in (0, 1):
                raise DecodeError(f"bad energy flag byte {flag}", i)
            energy = None
            if flag:
                energy, pos = _unpack_str(data, pos, i)
            (pairs,) = _U16.unpack_from(data, pos)
            pos += 2
            service_info = {}
            key = None
            for _ in range(pairs):
                last = key
                key, pos = _unpack_str(data, pos, i)
                value, pos = _unpack_str(data, pos, i)
                if last is not None and key <= last:  # one byte form: keys strictly increase
                    raise DecodeError(f"duplicate service_info key {key!r}" if key == last
                                      else f"service_info key {key!r} sorts before {last!r}", i)
                service_info[key] = value
            try:
                # the one validation; wire_bytes waits until something encodes the event
                events.append(_event_from_fields(event_id, registration_time, facility_id, detector_id, histogram,
                                                 bin_width, energy, service_info))
            except InvalidBody as exc:
                raise DecodeError(f"invalid packed record: {exc}", i) from exc
    except struct.error as exc:
        raise DecodeError("truncated packed record", i) from exc
    if pos != len(data):
        raise DecodeError("trailing bytes after final packed record", count)
    return events


# -- event-level adapter interface ---------------------------------------------------


def encode_events(kind: str, events) -> bytes:
    if kind == "jsonl":
        return encode_events_jsonl(events)
    if kind == "packed":
        return encode_events_packed(events)
    raise InvalidBody(f"unknown adapter kind {kind!r}")


def decode_events(kind: str, data: bytes):
    if kind == "jsonl":
        return decode_events_jsonl(data)
    if kind == "packed":
        return decode_events_packed(data)
    raise InvalidBody(f"unknown adapter kind {kind!r}")


def write_events(handle: StorageHandle, path: str, events) -> bytes:
    return put_file(handle, path, encode_events(handle.kind, events))
