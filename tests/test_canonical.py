"""Canonical JSON encoding tests.

Byte-level expectations are written out literally so any drift in the
encoder shows up as a diff against a frozen string, not against the
encoder's own output.
"""

import ast
import copy
import dataclasses
import hashlib
import os
import pathlib
import threading

import pytest
from conftest import key_for, make_dataset, program_body, storage_body
from hypothesis import given, settings
from hypothesis import strategies as st

from skyprov.aggregation import pipeline_parameters_hash, request_from_obj
from skyprov.canonical import (
    digest_from_hex,
    digest_to_hex,
    dumps_canonical,
    loads_canonical,
    read_canonical_file,
    read_file,
    sha256_bytes,
    write_canonical_file,
    write_file,
)
from skyprov.chain import (
    BlockHeader,
    Checkpoint,
    GenesisConfig,
    detect_equivocation,
    genesis_from_obj,
    genesis_to_obj,
    header_from_obj,
    header_to_obj,
    produce_block,
)
from skyprov.errors import AlreadyExists, InvalidBody, IoError, SkyprovError
from skyprov.index import filter_from_obj, query
from skyprov.model import (
    DeriveDataset,
    EasEvent,
    PublishDataset,
    RegistryState,
    body_from_obj,
    body_to_obj,
    canonical_bytes,
    dataset_to_obj,
    event_from_obj,
    event_to_obj,
    sign_transaction,
    tx_from_obj,
    validate_transaction,
)
from skyprov.netsim import genesis_for, sim_config_from_obj


def test_sorted_keys_and_compact_separators():
    assert dumps_canonical({"b": 1, "a": 2}) == b'{"a":2,"b":1}'


def test_nested_structures():
    value = {"z": [1, 2, {"y": "x"}], "a": {"c": None, "b": ""}}
    assert dumps_canonical(value) == b'{"a":{"b":"","c":null},"z":[1,2,{"y":"x"}]}'


def test_unicode_not_escaped():
    # UTF-8 bytes, not \uXXXX escapes
    assert dumps_canonical({"name": "Tunka-133 °"}) == '{"name":"Tunka-133 °"}'.encode("utf-8")


def test_lone_surrogates_rejected():
    # An unpaired surrogate has no UTF-8 form, so it has no canonical bytes:
    # the JSON escape parses, and the round-trip must reject it.
    with pytest.raises(InvalidBody):
        loads_canonical(b'"\\ud800"')
    with pytest.raises(InvalidBody):
        dumps_canonical("\ud800")
    with pytest.raises(InvalidBody):
        dumps_canonical({"base_uri": "a\udfffb"})


def test_integers_unquoted():
    assert dumps_canonical([0, -5, 12345678901234567890]) == b"[0,-5,12345678901234567890]"


def test_floats_rejected():
    with pytest.raises(InvalidBody):
        dumps_canonical({"energy": 1.5})
    with pytest.raises(InvalidBody):
        dumps_canonical([float("nan")])


def test_bools_rejected():
    with pytest.raises(InvalidBody):
        dumps_canonical({"flag": True})
    with pytest.raises(InvalidBody):
        dumps_canonical([False])


def test_nonstring_keys_rejected():
    with pytest.raises(InvalidBody):
        dumps_canonical({1: "x"})


def test_unsupported_types_rejected():
    with pytest.raises(InvalidBody):
        dumps_canonical({"raw": b"bytes"})
    with pytest.raises(InvalidBody):
        dumps_canonical({"s": {1, 2}})


def test_loads_roundtrip():
    value = {"a": [1, "two", None], "b": {"c": "d"}}
    assert loads_canonical(dumps_canonical(value)) == value


def test_loads_rejects_noncanonical_spacing():
    with pytest.raises(InvalidBody):
        loads_canonical(b'{"a": 1}')


def test_loads_rejects_unsorted_keys():
    with pytest.raises(InvalidBody):
        loads_canonical(b'{"b":1,"a":2}')


def test_loads_rejects_floats():
    with pytest.raises(InvalidBody):
        loads_canonical(b'{"x":1.5}')
    with pytest.raises(InvalidBody):
        loads_canonical(b'{"x":1e3}')


def test_loads_rejects_bools():
    with pytest.raises(InvalidBody):
        loads_canonical(b'{"x":true}')


def test_loads_rejects_duplicate_keys():
    with pytest.raises(InvalidBody):
        loads_canonical(b'{"a":1,"a":2}')


def test_loads_rejects_garbage():
    with pytest.raises(InvalidBody):
        loads_canonical(b"not json")
    with pytest.raises(InvalidBody):
        loads_canonical(b"")
    with pytest.raises(InvalidBody):
        loads_canonical(b"\xff\xfe")
    with pytest.raises(InvalidBody):  # deeper than the parser's recursion limit
        loads_canonical(b"[" * 100_000 + b"]" * 100_000)
    with pytest.raises(InvalidBody):  # more digits than int() converts
        loads_canonical(b"1" * 5_000)


@settings(max_examples=100, deadline=None)
@given(
    st.recursive(
        st.one_of(
            st.none(),
            st.integers(),
            st.text(max_size=20),
        ),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=8), children, max_size=4),
        ),
        max_leaves=20,
    )
)
def test_encode_decode_fixpoint(value):
    data = dumps_canonical(value)
    assert loads_canonical(data) == value
    assert dumps_canonical(loads_canonical(data)) == data


def test_sha256_bytes_matches_hashlib():
    assert sha256_bytes(b"abc") == hashlib.sha256(b"abc").digest()


def test_digest_hex_roundtrip():
    d = hashlib.sha256(b"x").digest()
    assert digest_from_hex(digest_to_hex(d)) == d


def test_digest_hex_strictness():
    good = "a" * 64
    assert digest_from_hex(good) == b"\xaa" * 32
    for bad in ("A" * 64, "a" * 63, "a" * 65, "g" * 64, "", "0x" + "a" * 62):
        with pytest.raises(InvalidBody):
            digest_from_hex(bad)


def test_digest_to_hex_requires_32_bytes():
    with pytest.raises(InvalidBody):
        digest_to_hex(b"short")


# -- one byte form per value: a trailing newline is a second form, so refuse it ------


MALLEATIONS = [
    ("header", ("signature",)),
    ("tx", ("signature",)),
    ("genesis", ("handlers", 0, "public_key")),
    ("checkpoint", ("head_hash",)),
    ("dataset", ("file_refs", 0, "content_hash")),
    ("event", ("energy_estimate",)),
    ("filter", ("energy_min",)),
]


@pytest.mark.parametrize("wire, path", MALLEATIONS, ids=[f"{w}.{p[-1]}" for w, p in MALLEATIONS])
def test_trailing_newline_is_rejected(chain3, wire, path):
    state, keys = chain3
    block = produce_block(state, 0, keys["h0"], now=0)
    tx = sign_transaction(PublishDataset(dataset=make_dataset("ds-nl")), key_for("user-1"), created_at=5)
    event = EasEvent("e", 1, "TAIGA", "d", (1,), 10, "1.5", {})
    honest, parse = {
        "header": (header_to_obj(block.header), header_from_obj),
        "tx": (loads_canonical(tx.wire_bytes), tx_from_obj),
        "genesis": (genesis_to_obj(state.config), genesis_from_obj),
        "checkpoint": (state.checkpoint().to_obj(), Checkpoint.from_obj),
        "dataset": (dataset_to_obj(make_dataset("ds-nl")),
                    lambda obj: body_from_obj({"dataset": obj, "type": "publish_dataset"})),
        "event": (event_to_obj(event), event_from_obj),
        "filter": ({"energy_min": "1.5"}, filter_from_obj),
    }[wire]
    parse(copy.deepcopy(honest))
    malleated = copy.deepcopy(honest)
    parent = malleated
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] += "\n"
    with pytest.raises(InvalidBody):
        parse(malleated)

    if wire == "header":
        # the same edit must not frame the honest producer as an equivocator
        edited = dataclasses.replace(block.header, signature=block.header.signature + "\n")
        assert detect_equivocation(block.header, edited, state.config) is None
    if wire == "tx":
        edited = dataclasses.replace(tx, signature=tx.signature + "\n")
        assert validate_transaction(edited, state.registry).reason == "InvalidBody"


# -- file helpers ----------------------------------------------------------------


def test_file_helpers(tmp_path):
    path = str(tmp_path / "obj.json")
    write_canonical_file(path, {"b": 1, "a": "x"})
    assert read_file(path, "object") == b'{"a":"x","b":1}\n'
    assert read_file(path, "object", 3) == b'{"a'
    assert read_file(path, "object", 2**62) == read_file(path, "object")  # no 2**62-byte buffer
    assert read_canonical_file(path, "object") == {"a": "x", "b": 1}
    write_file(path, b'{"a":"x","b":1}')  # the newline is optional ...
    assert read_canonical_file(path, "object") == {"a": "x", "b": 1}
    write_file(path, b'{"a":"x","b":1}\n\n')  # ... and there is at most one
    with pytest.raises(InvalidBody):
        read_canonical_file(path, "object")
    with pytest.raises(AlreadyExists):
        write_file(path, b"", exclusive=True)
    assert read_file(path, "object") == b'{"a":"x","b":1}\n\n'
    with pytest.raises(IoError):
        read_file(str(tmp_path / "missing"), "object")
    with pytest.raises(IoError):
        write_file(str(tmp_path / "obj.json" / "under-a-file"), b"")


def test_read_file_edges(tmp_path):
    empty = tmp_path / "empty"
    empty.write_bytes(b"")
    assert read_file(str(empty), "object") == b""
    assert read_file(str(empty), "object", 5) == b""
    path = tmp_path / "data"
    data = bytes(range(256)) * 300  # 76,800 bytes, more than one read chunk
    path.write_bytes(data)
    assert read_file(str(path), "object", 0) == b""
    assert read_file(str(path), "object", len(data)) == data
    assert read_file(str(path), "object", len(data) - 1) == data[:-1]
    # a directory opens, and fails at its first read
    with pytest.raises(IoError, match=f"cannot read object {tmp_path}"):
        read_file(str(tmp_path), "object")


def test_read_file_reads_a_pipe_to_its_end(tmp_path):
    # a pipe's fstat size is 0: the reads go on until its writer closes it
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    data = bytes(range(256)) * 1000
    writer = threading.Thread(target=fifo.write_bytes, args=(data,))
    writer.start()
    try:
        assert read_file(str(fifo), "object") == data
    finally:
        writer.join()


# -- field checks ----------------------------------------------------------------


SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "skyprov"


def _field_check_breaches(source: str, module: str) -> list:
    """Where a module breaks the field-check rule: a _require message built
    whether or not the check fails (an f-string or a call after the
    condition), or, outside canonical.py, a _require_* helper of its own, a
    `type(...) is int` test or a `not isinstance(..., bool)` test. netsim's
    drop_probability, the one field that may hold a float, keeps its own."""
    found = []
    for node in ast.walk(ast.parse(source)):
        where = f"{module}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_require":
            found += [f"{where} eager message" for arg in node.args[1:] if isinstance(arg, (ast.JoinedStr, ast.Call))]
        if module == "canonical.py":
            continue
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_require"):
            found.append(f"{where} defines {node.name}")
        if (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
                and isinstance(node.left.func, ast.Name) and node.left.func.id == "type"
                and any(isinstance(c, ast.Name) and c.id == "int" for c in node.comparators)):
            found.append(f"{where} type(...) is int")
        if (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not) and isinstance(node.operand, ast.Call)
                and isinstance(node.operand.func, ast.Name) and node.operand.func.id == "isinstance"
                and ast.unparse(node.operand.args[1]) == "bool"
                and (module, ast.unparse(node)) != ("netsim.py", "not isinstance(drop, bool)")):
            found.append(f"{where} not isinstance(..., bool)")
    return found


def test_field_checks_build_messages_only_on_failure():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5
    breaches = [b for path in modules for b in _field_check_breaches(path.read_text(), path.name)]
    assert breaches == []
    # each rule catches what it names
    for snippet in ['_require(ok, f"{name} bad")', '_require(ok, "bad {}", sorted(keys))',
                    "def _require_thing(v): pass", "ok = type(v) is int",
                    "ok = isinstance(v, int) and not isinstance(v, bool)"]:
        assert _field_check_breaches(snippet, "model.py"), snippet
    assert _field_check_breaches('_require(ok, "bad {!r}", value)', "model.py") == []
    assert _field_check_breaches('_require(ok, f"{name} bad")', "canonical.py")


# Readers that would check or parse an object a second time: a filter is
# checked in index.filter_from_obj only, and chain.py reads a genesis and a
# block as the wire bytes of what it built, never through a round trip.
_CHAIN_ROUND_TRIPS = {"loads_canonical", "loads_canonical_file", "read_canonical_file"}


def _second_path_breaches(source: str, module: str) -> list:
    tree = ast.parse(source)
    allowed = set()
    if module == "index.py":
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "filter_from_obj":
                allowed.update(id(n) for n in ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in allowed:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "validate_filter" or (module == "chain.py" and name in _CHAIN_ROUND_TRIPS):
            found.append(f"{module}:{node.lineno} calls {name}")
    return found


def test_filters_and_genesis_are_checked_on_one_path():
    breaches = [b for path in sorted(SRC.glob("*.py")) for b in _second_path_breaches(path.read_text(), path.name)]
    assert breaches == []
    # each rule catches what it names, and only there
    for snippet, module in [("validate_filter(f)", "aggregation.py"),
                            ("def query(r, f):\n    validate_filter(f)", "index.py"),
                            ("loads_canonical(data)", "chain.py"),
                            ("loads_canonical_file(data)", "chain.py"),
                            ("canonical.read_canonical_file(p, 'genesis')", "chain.py")]:
        assert _second_path_breaches(snippet, module), snippet
    assert _second_path_breaches("def filter_from_obj(obj):\n    validate_filter(f)", "index.py") == []
    assert _second_path_breaches("read_canonical_file(p, 'key file')", "keys.py") == []


_HEX = "0" * 64
_SWAPS = [True, 1.5, -1, "", [], {}, None, 10**30, "\ud800"]


def _readers():
    """(reader, a valid object it reads, what the read value's wire form is).
    A sim config, a filter and a request have no wire form of their own, so
    each is taken as far as the program takes it before any I/O."""
    derived = dataclasses.replace(make_dataset("ds-2", kind="secondary"), extra={"k": "v"})
    bodies = {
        "register_storage": storage_body(),
        "register_program": program_body(),
        "publish_dataset": PublishDataset(dataset=make_dataset("ds-1", n_files=2)),
        "derive_dataset": DeriveDataset(dataset=derived, parent_dataset_ids=("ds-1",), program_id="prog-1",
                                        program_version="1.0", parameters_hash=_HEX),
    }
    out = {tag: (body_from_obj, body_to_obj(body), canonical_bytes) for tag, body in bodies.items()}
    event = EasEvent("e", 1, "TAIGA", "d", (1, 2), 10, "1.5", {"run": "1"})
    genesis = GenesisConfig(handlers=(("h0", key_for("h0").public_hex), ("h1", key_for("h1").public_hex)),
                            slot_duration_ms=100, ordering_mode="fixed", genesis_time=0)
    header = BlockHeader(height=0, slot=0, prev_block_hash=_HEX, tx_root=_HEX, registry_root=_HEX,
                         registry_size=0, timestamp=0, creator="h0", signature="0" * 128)
    sim = {"seed": 1, "handlers": ["a", "b"], "slot_duration_ms": 100, "duration_slots": 4,
           "ordering_mode": "fixed", "genesis_time": 0, "latency_ms": {"min": 0, "max": 1},
           "drop_probability": 0, "txs_per_slot": 1,
           "faults": [{"kind": "offline", "handler": "a", "from_slot": 0, "to_slot": 1}]}
    filter_obj = {"facility_id": "TAIGA", "kind": "primary", "time_range": [0, 10], "energy_min": "1",
                  "energy_max": "2", "ancestor_of": "a", "descendant_of": "b", "storage_id": "s"}
    request = {"filter": {"time_range": {"start": 0, "end": 10}},
               "pipeline": [{"name": "energy_filter", "parameters": {"threshold": "1.5"}}],
               "sink": {"type": "publish", "storage_id": "s", "dataset_id": "d", "program_id": "p",
                        "program_version": "1"}}
    out.update({
        "event": (event_from_obj, event_to_obj(event), lambda ev: ev.wire_bytes),
        "genesis": (genesis_from_obj, genesis_to_obj(genesis), lambda g: g.wire_bytes),
        "header": (header_from_obj, header_to_obj(header), lambda h: h.wire_bytes),
        "checkpoint": (Checkpoint.from_obj, Checkpoint(_HEX, 0, -1, _HEX).to_obj(),
                       lambda c: dumps_canonical(c.to_obj())),
        "sim_config": (sim_config_from_obj, sim, lambda c: genesis_for(c).wire_bytes),
        "filter": (filter_from_obj, filter_obj, lambda f: query(RegistryState(), f)),
        "request": (request_from_obj, request,
                    lambda r: (pipeline_parameters_hash(r.pipeline), query(RegistryState(), r.filter))),
    })
    return out


def _field_paths(value, path=()):
    """Every key and index path inside value, containers before their items."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield path + (key,)
        yield from _field_paths(item, path + (key,))


def _swapped(obj, path, value):
    out = copy.deepcopy(obj)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


@pytest.mark.parametrize("name", list(_readers()))
def test_type_swapped_fields_are_typed_errors(name):
    """Each field of a valid object, swapped for a value of another type or
    out of range, is read into a SkyprovError or into a value whose wire form
    encodes or raises one; no other exception escapes."""
    read, valid, wire = _readers()[name]
    wire(read(copy.deepcopy(valid)))
    paths = list(_field_paths(valid))
    assert paths
    for path in paths:
        for value in _SWAPS:
            try:
                wire(read(_swapped(valid, path, value)))
            except SkyprovError:
                pass
