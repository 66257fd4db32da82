"""Storage adapter tests: manifest lifecycle, publish-once files, path
containment, and the two event codecs checked against independent oracles.

The packed oracle below rebuilds expected bytes with bare struct calls so
any layout drift in the encoder shows up as a byte diff, not a round-trip
tautology.
"""

import dataclasses
import hashlib
import json
import os
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyprov.errors import (
    AlreadyExists,
    DecodeError,
    InvalidBody,
    IoError,
    NotFound,
    PathViolation,
)
from skyprov import canonical, model
from skyprov.canonical import dumps_canonical, loads_canonical
from skyprov.model import EasEvent, event_from_obj, event_to_obj
from skyprov.storage import (
    PACKED_MAGIC,
    PACKED_VERSION,
    StorageHandle,
    decode_events,
    decode_events_jsonl,
    decode_events_packed,
    encode_events,
    encode_events_jsonl,
    encode_events_packed,
    get_file,
    init_storage,
    open_storage,
    put_file,
    read_events,
    write_events,
)

EV_A = EasEvent(
    event_id="ev-001",
    registration_time=1_700_000_000_000_000_000,
    facility_id="TAIGA",
    detector_id="iact-02",
    signal_histogram=(0, 3, 17, 4),
    bin_width=25,
    energy_estimate="1.25",
    service_info={"run": "8812", "weather": "clear"},
)
EV_B = EasEvent(
    event_id="ev-002",
    registration_time=1_700_000_000_000_000_500,
    facility_id="TAIGA",
    detector_id="hiscore-11",
    signal_histogram=(),
    bin_width=1,
    energy_estimate=None,
    service_info={},
)


# -- independent byte oracles ----------------------------------------------------------


def oracle_pack_str(text):
    raw = text.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


def oracle_pack_event(ev):
    out = b""
    out += oracle_pack_str(ev.event_id)
    out += oracle_pack_str(ev.facility_id)
    out += oracle_pack_str(ev.detector_id)
    out += struct.pack("<Q", ev.registration_time)
    out += struct.pack("<I", ev.bin_width)
    out += struct.pack("<I", len(ev.signal_histogram))
    out += b"".join(struct.pack("<I", c) for c in ev.signal_histogram)
    if ev.energy_estimate is None:
        out += b"\x00"
    else:
        out += b"\x01" + oracle_pack_str(ev.energy_estimate)
    pairs = sorted(ev.service_info.items())
    out += struct.pack("<H", len(pairs))
    for k, v in pairs:
        out += oracle_pack_str(k) + oracle_pack_str(v)
    return out


def oracle_pack_file(events):
    return (
        b"EASP"
        + struct.pack("<HI", 1, len(events))
        + b"".join(oracle_pack_event(ev) for ev in events)
    )


def oracle_jsonl(events):
    # canonical JSON per line, rebuilt with plain json.dumps
    lines = []
    for ev in events:
        obj = {
            "bin_width": ev.bin_width,
            "detector_id": ev.detector_id,
            "energy_estimate": ev.energy_estimate,
            "event_id": ev.event_id,
            "facility_id": ev.facility_id,
            "registration_time": ev.registration_time,
            "service_info": dict(sorted(ev.service_info.items())),
            "signal_histogram": list(ev.signal_histogram),
        }
        lines.append(json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False))
    return ("\n".join(lines) + "\n").encode("utf-8") if lines else b""


def test_packed_bytes_match_oracle():
    assert encode_events_packed([EV_A, EV_B]) == oracle_pack_file([EV_A, EV_B])


def test_packed_empty_file_is_header_only():
    data = encode_events_packed([])
    assert data == PACKED_MAGIC + struct.pack("<HI", PACKED_VERSION, 0)
    assert decode_events_packed(data) == []


def test_jsonl_bytes_match_oracle():
    assert encode_events_jsonl([EV_A, EV_B]) == oracle_jsonl([EV_A, EV_B])
    assert encode_events_jsonl([]) == b""
    assert decode_events_jsonl(b"") == []


# -- round trips -----------------------------------------------------------------------


histograms = st.lists(st.integers(0, 0xFFFFFFFF), max_size=64).map(tuple)
small_text = st.text(min_size=1, max_size=20)
decimals = st.one_of(
    st.none(),
    st.builds(
        lambda a, b: f"{a}.{b}" if b is not None else str(a),
        st.integers(0, 10**9),
        st.one_of(st.none(), st.integers(0, 10**9)),
    ),
)
events_strategy = st.builds(
    EasEvent,
    event_id=small_text,
    registration_time=st.integers(1, 2**63),
    facility_id=small_text,
    detector_id=small_text,
    signal_histogram=histograms,
    bin_width=st.integers(1, 0xFFFFFFFF),
    energy_estimate=decimals,
    service_info=st.dictionaries(st.text(min_size=1, max_size=10), st.text(max_size=10), max_size=5),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(events_strategy, max_size=8))
def test_roundtrip_both_codecs(events):
    for kind in ("jsonl", "packed"):
        data = encode_events(kind, events)
        assert decode_events(kind, data) == events
        # encodings are canonical: re-encoding the decode reproduces the bytes
        assert encode_events(kind, decode_events(kind, data)) == data


@settings(max_examples=60, deadline=None)
@given(st.lists(events_strategy, max_size=6))
def test_cross_format_equality(events):
    via_jsonl = decode_events("jsonl", encode_events("jsonl", events))
    via_packed = decode_events("packed", encode_events("packed", events))
    assert via_jsonl == via_packed
    assert [event_to_obj(e) for e in via_jsonl] == [event_to_obj(e) for e in via_packed]


def test_large_histogram_roundtrip():
    ev = EasEvent(
        event_id="big",
        registration_time=5,
        facility_id="f",
        detector_id="d",
        signal_histogram=tuple(i % 4096 for i in range(4096)),
        bin_width=10,
    )
    for kind in ("jsonl", "packed"):
        assert decode_events(kind, encode_events(kind, [ev])) == [ev]


def test_unicode_fields_roundtrip():
    ev = EasEvent(
        event_id="событие-1",
        registration_time=7,
        facility_id="Тунка",
        detector_id="детектор",
        signal_histogram=(1,),
        bin_width=2,
        service_info={"комментарий": "ясно ✨"},
    )
    for kind in ("jsonl", "packed"):
        assert decode_events(kind, encode_events(kind, [ev])) == [ev]


# -- decode failure modes --------------------------------------------------------------


def test_packed_truncation_every_prefix_fails():
    third = dataclasses.replace(EV_A, event_id="ev-003")
    data = encode_events_packed([EV_A, EV_B, third])
    for cut in range(len(data)):
        with pytest.raises(DecodeError) as err:
            decode_events_packed(data[:cut])
        assert 0 <= err.value.record_index <= 2


def test_packed_truncation_record_index_points_at_failing_record():
    data = encode_events_packed([EV_A, EV_B])
    first = len(oracle_pack_file([EV_A]))
    with pytest.raises(DecodeError) as err:
        decode_events_packed(data[: first + 3])  # dies inside record 1
    assert err.value.record_index == 1


def test_packed_trailing_bytes_rejected():
    data = encode_events_packed([EV_A]) + b"\x00"
    with pytest.raises(DecodeError) as err:
        decode_events_packed(data)
    assert err.value.record_index == 1
    assert "trailing" in str(err.value)


def test_packed_bad_magic_and_version():
    good = encode_events_packed([])
    with pytest.raises(DecodeError):
        decode_events_packed(b"XXXX" + good[4:])
    with pytest.raises(DecodeError):
        decode_events_packed(PACKED_MAGIC + struct.pack("<HI", 9, 0))


def test_packed_bad_energy_flag():
    data = bytearray(encode_events_packed([EV_B]))
    flag_at = len(data) - 3  # flag, then u16 pair count
    assert data[flag_at] == 0
    data[flag_at] = 2
    with pytest.raises(DecodeError) as err:
        decode_events_packed(bytes(data))
    assert err.value.record_index == 0


def test_packed_duplicate_service_key():
    body = oracle_pack_event(EV_B)[:-2]  # strip the empty pair count
    body += struct.pack("<H", 2)
    body += oracle_pack_str("k") + oracle_pack_str("v1")
    body += oracle_pack_str("k") + oracle_pack_str("v2")
    data = PACKED_MAGIC + struct.pack("<HI", PACKED_VERSION, 1) + body
    with pytest.raises(DecodeError) as err:
        decode_events_packed(data)
    assert "duplicate" in str(err.value)


def test_packed_service_keys_out_of_order_are_refused():
    # "sorted by key" is the one byte form: swapped pairs would decode to an
    # event equal to the sorted one, which re-encodes to other bytes
    ev = dataclasses.replace(EV_B, service_info={"a": "1", "b": "2"})
    swapped = oracle_pack_event(ev)[:-len(oracle_pack_str("a") * 2 + oracle_pack_str("b") * 2)]
    swapped += oracle_pack_str("b") + oracle_pack_str("2") + oracle_pack_str("a") + oracle_pack_str("1")
    sorted_file = encode_events_packed([EV_A, ev])
    assert sorted_file == oracle_pack_file([EV_A, ev])
    assert decode_events_packed(sorted_file) == [EV_A, ev]
    data = PACKED_MAGIC + struct.pack("<HI", PACKED_VERSION, 2) + oracle_pack_event(EV_A) + swapped
    assert len(data) == len(sorted_file) and data != sorted_file
    with pytest.raises(DecodeError) as err:
        decode_events_packed(data)
    assert err.value.record_index == 1
    assert "'a' sorts before 'b'" in str(err.value)


def test_packed_invalid_utf8():
    raw = bytearray(encode_events_packed([EV_A]))
    # event_id bytes start right after the header and its u16 length
    raw[12] = 0xFF
    with pytest.raises(DecodeError):
        decode_events_packed(bytes(raw))


def test_packed_semantic_violation_decodes_to_error():
    # registration_time 0 is representable in the layout but not a valid event
    ev_bytes = oracle_pack_event(EV_B).replace(
        struct.pack("<Q", EV_B.registration_time), struct.pack("<Q", 0)
    )
    data = PACKED_MAGIC + struct.pack("<HI", PACKED_VERSION, 1) + ev_bytes
    with pytest.raises(DecodeError) as err:
        decode_events_packed(data)
    assert err.value.record_index == 0


def test_jsonl_requires_trailing_newline():
    data = encode_events_jsonl([EV_A])[:-1]
    with pytest.raises(DecodeError):
        decode_events_jsonl(data)


def test_jsonl_rejects_non_canonical_line():
    line = encode_events_jsonl([EV_A])[:-1]
    with pytest.raises(DecodeError) as err:
        decode_events_jsonl(line + b" \n")
    assert err.value.record_index == 0


def test_jsonl_error_index_names_bad_line():
    good = encode_events_jsonl([EV_A, EV_B])
    bad = good + b'{"not":"an event"}\n'
    with pytest.raises(DecodeError) as err:
        decode_events_jsonl(bad)
    assert err.value.record_index == 2


def test_jsonl_rejects_float_smuggling():
    obj = event_to_obj(EV_A)
    line = json.dumps(obj, sort_keys=True, separators=(",", ":")).replace('"1.25"', "1.25")
    with pytest.raises(DecodeError):
        decode_events_jsonl(line.encode() + b"\n")


def test_jsonl_unparsable_line_is_a_decode_error():
    for line in (b"[" * 100_000 + b"]" * 100_000, b"1" * 5_000):
        with pytest.raises(DecodeError) as err:
            decode_events_jsonl(line + b"\n")
        assert err.value.record_index == 0


# -- jsonl decode against the loads_canonical composition ---------------------------------

_MARK = "\u2603mark\u2603"  # a string no generated event holds
_VALUE_TOKENS = [
    "0", "7", "-1", "-0", "1.0", "1e3", "NaN", "Infinity", "true", "false", "null",
    str(2**64), "1" * 5_000, '"x"', '"é"', '"\\u00e9"', '"\\ud800"', '"a\\ud800b"',
    '"1.5"', '"01.5"', '" 1.5"', "[]", "{}", "[1]", '{"k":"v"}',
]


def _decode_line_via_loads_canonical(line):
    """The jsonl decode before events carried their bytes: a full
    loads_canonical round trip, then event_from_obj. None means rejected."""
    try:
        return event_from_obj(loads_canonical(line))
    except InvalidBody:
        return None


@st.composite
def event_line_mutants(draw):
    obj = event_to_obj(draw(events_strategy))
    places = ["bin_width", "detector_id", "energy_estimate", "event_id", "facility_id", "registration_time"]
    places += [("signal_histogram", i) for i in range(len(obj["signal_histogram"]))]
    places += [("service_info", k) for k in obj["service_info"]]
    token = None
    if draw(st.booleans()):  # replace one value with a raw JSON token
        place = draw(st.sampled_from(places))
        token = draw(st.sampled_from(_VALUE_TOKENS))
        if isinstance(place, tuple):
            obj[place[0]][place[1]] = _MARK
        else:
            obj[place] = _MARK
    keys = draw(st.permutations(sorted(obj))) if draw(st.booleans()) else sorted(obj)
    text = json.dumps({k: obj[k] for k in keys}, separators=(",", ":"), ensure_ascii=False)
    if token is not None:
        text = text.replace(json.dumps(_MARK, ensure_ascii=False), token)
    if draw(st.booleans()):  # "é" written as an escape
        text = text.replace("é", "\\u00e9")
    if draw(st.booleans()):  # a duplicate key, with its own value or another
        key = draw(st.sampled_from(keys))
        value = draw(st.sampled_from([json.dumps(obj[key], ensure_ascii=False)] + _VALUE_TOKENS))
        text = "{" + json.dumps(key) + ":" + value + "," + text[1:]
    if draw(st.booleans()):  # insignificant whitespace
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from([" ", "\t", "\r", "  "])) + text[at:]
    return text.encode("utf-8", "surrogatepass")


@settings(max_examples=600)
@given(event_line_mutants())
def test_jsonl_decode_accepts_what_loads_canonical_accepts(line):
    expected = _decode_line_via_loads_canonical(line)
    try:
        [got] = decode_events_jsonl(line + b"\n")
    except DecodeError as err:
        assert err.record_index == 0
        got = None
    assert (got is None) == (expected is None)
    if got is not None:
        assert got == expected and got.wire_bytes == line


# -- packed decode under byte mutations -------------------------------------------------

_PACKED_SOURCE = encode_events_packed([
    EV_A,
    EV_B,
    dataclasses.replace(EV_A, event_id="ev-003", energy_estimate="0.5",
                        service_info={"": "", "a": "1", "ab": "2", "é": "3"}),
])


@st.composite
def packed_mutants(draw):
    """A valid packed file after one to three byte flips, inserts or deletes."""
    data = bytearray(_PACKED_SOURCE)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["flip", "insert", "delete"])) if at < len(data) else "insert"
        if op == "flip":
            data[at] ^= 1 << draw(st.integers(0, 7))
        elif op == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=4))
        else:
            del data[at:at + draw(st.integers(1, 4))]
    return bytes(data)


@settings(max_examples=800, deadline=None)
@given(packed_mutants())
def test_packed_mutants_decode_to_their_own_bytes_or_fail_typed(mutant):
    # Each mutant is refused with a record index the file can name, or it
    # decodes to events whose encoding is exactly the mutant: no packed file
    # has a second byte form, and no other exception escapes.
    count = struct.unpack_from("<I", mutant, 6)[0] if len(mutant) >= 10 else 0
    try:
        events = decode_events_packed(mutant)
    except DecodeError as err:
        assert 0 <= err.record_index <= count
        return
    assert encode_events_packed(events) == mutant


# -- decode census: one validation per event, at most one encode -----------------------


def test_decoders_check_each_event_once_and_encode_at_most_once(monkeypatch):
    events = [EV_A, EV_B, dataclasses.replace(EV_A, event_id="ev-003")]
    jsonl, packed, obj = encode_events_jsonl(events), encode_events_packed(events), event_to_obj(EV_A)
    validated, encoded = [], []
    original_validate, original_encode = model.validate_event, canonical._encoder.encode
    monkeypatch.setattr(model, "validate_event", lambda ev: validated.append(ev) or original_validate(ev))
    monkeypatch.setattr(canonical._encoder, "encode", lambda value: encoded.append(value) or original_encode(value))
    decoded = decode_events_packed(packed)
    assert decoded == events
    assert (len(validated), len(encoded)) == (3, 0)  # a packed decode encodes nothing
    validated.clear()
    decoded = decode_events_jsonl(jsonl)
    assert decoded == events
    assert (len(validated), len(encoded)) == (3, 3)  # one encode per line, kept as the event's bytes
    assert encode_events_jsonl(decoded) == jsonl and len(encoded) == 3
    validated.clear()
    encoded.clear()
    ev = event_from_obj(obj)
    assert (len(validated), len(encoded)) == (1, 1)
    assert ev.wire_bytes == jsonl.split(b"\n")[0] and len(encoded) == 1


def test_event_from_obj_refuses_a_lone_surrogate_when_built():
    obj = event_to_obj(EV_A)
    obj["service_info"] = {"run": "\ud800"}
    with pytest.raises(InvalidBody, match="no UTF-8 form"):
        event_from_obj(obj)


def test_packed_histogram_count_bounds():
    with pytest.raises(InvalidBody) as err:
        encode_events_packed([EV_B, dataclasses.replace(EV_A, signal_histogram=(1, 0x100000000))])
    assert "record 1" in str(err.value)
    # a histogram length the file cannot hold fails before anything is built
    data = bytearray(encode_events_packed([EV_A]))
    at = len(oracle_pack_file([])) + 2 * 3 + sum(len(s.encode()) for s in (EV_A.event_id, EV_A.facility_id, EV_A.detector_id)) + 12
    assert struct.unpack_from("<I", data, at)[0] == len(EV_A.signal_histogram)
    struct.pack_into("<I", data, at, 0xFFFFFFFF)
    with pytest.raises(DecodeError) as err:
        decode_events_packed(bytes(data))
    assert err.value.record_index == 0


def test_unknown_kind_rejected():
    with pytest.raises(InvalidBody):
        encode_events("csv", [])
    with pytest.raises(InvalidBody):
        decode_events("csv", b"")


# -- storage directories ----------------------------------------------------------------


def test_init_and_open_storage(tmp_path):
    root = str(tmp_path / "st-x")
    handle = init_storage(root, "st-x", "packed")
    assert handle == StorageHandle(storage_id="st-x", base_uri=root, kind="packed")
    with open(os.path.join(root, "storage.json"), "rb") as fh:
        assert fh.read() == b'{"kind":"packed","storage_id":"st-x"}\n'
    assert open_storage(root) == handle


def test_init_storage_refuses_second_manifest(tmp_path):
    root = str(tmp_path / "st-x")
    init_storage(root, "st-x", "jsonl")
    with pytest.raises(AlreadyExists):
        init_storage(root, "st-y", "jsonl")


def test_init_storage_under_a_file_is_an_io_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_bytes(b"")
    with pytest.raises(IoError):
        init_storage(str(blocker / "st-x"), "st-x", "jsonl")


def test_open_storage_missing_or_malformed(tmp_path):
    with pytest.raises(NotFound):
        open_storage(str(tmp_path / "nope"))
    root = str(tmp_path / "bad")
    os.makedirs(root)
    with open(os.path.join(root, "storage.json"), "wb") as fh:
        fh.write(b'{"kind":"csv","storage_id":"x"}\n')
    with pytest.raises(InvalidBody):
        open_storage(root)


@pytest.mark.parametrize("storage_id", [["x"], ""])
def test_open_storage_rejects_a_manifest_id_that_is_not_a_non_empty_string(tmp_path, storage_id):
    root = str(tmp_path / "bad")
    os.makedirs(root)
    with open(os.path.join(root, "storage.json"), "wb") as fh:
        fh.write(dumps_canonical({"kind": "jsonl", "storage_id": storage_id}) + b"\n")
    with pytest.raises(InvalidBody, match="storage_id"):
        open_storage(root)


def test_put_get_roundtrip_and_digest(tmp_path):
    handle = init_storage(str(tmp_path / "s"), "s", "jsonl")
    payload = b"raw bytes \x00\x01"
    digest = put_file(handle, "a/b/c.bin", payload)
    assert digest == hashlib.sha256(payload).digest()
    data, got = get_file(handle, "a/b/c.bin")
    assert (data, got) == (payload, digest)


def test_put_file_publish_once(tmp_path):
    handle = init_storage(str(tmp_path / "s"), "s", "jsonl")
    put_file(handle, "x.bin", b"1")
    with pytest.raises(AlreadyExists):
        put_file(handle, "x.bin", b"2")
    data, _ = get_file(handle, "x.bin")
    assert data == b"1"


def test_get_file_missing(tmp_path):
    handle = init_storage(str(tmp_path / "s"), "s", "jsonl")
    with pytest.raises(NotFound):
        get_file(handle, "ghost.bin")


@pytest.mark.parametrize(
    "path",
    ["", "/etc/passwd", "../outside.bin", "a/../../outside.bin", "a/../../../x"],
)
def test_path_containment(tmp_path, path):
    handle = init_storage(str(tmp_path / "s"), "s", "jsonl")
    with pytest.raises(PathViolation):
        put_file(handle, path, b"x")
    with pytest.raises(PathViolation):
        get_file(handle, path)


def test_symlink_escape_is_blocked(tmp_path):
    outside = tmp_path / "secret.txt"
    outside.write_bytes(b"secret")
    handle = init_storage(str(tmp_path / "s"), "s", "jsonl")
    os.symlink(str(tmp_path), str(tmp_path / "s" / "link"))
    with pytest.raises(PathViolation):
        get_file(handle, "link/secret.txt")


def test_write_read_events_uses_manifest_kind(tmp_path):
    for kind in ("jsonl", "packed"):
        handle = init_storage(str(tmp_path / kind), f"st-{kind}", kind)
        digest = write_events(handle, "events/run1." + kind, [EV_A, EV_B])
        raw, raw_digest = get_file(handle, "events/run1." + kind)
        assert raw_digest == digest
        assert raw == encode_events(kind, [EV_A, EV_B])
        assert read_events(handle, "events/run1." + kind) == [EV_A, EV_B]
