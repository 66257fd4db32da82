"""Aggregation engine tests.

World setup writes real event files into real storage directories and
publishes descriptors carrying the files' true digests, so the integrity
gate and fetch plumbing run exactly as deployed. Merge and filter results
are checked against plain-Python oracles over the in-memory event lists.
"""

import dataclasses
import io
import marshal
import os
import random
import sys
import tarfile

import pytest
from conftest import GEOMETRY_HASH, key_for, make_dataset, program_body

from skyprov import aggregation, canonical, model, parallel, storage
from skyprov.aggregation import (
    AggregationRequest,
    LocalSink,
    PluginSpec,
    PublishSink,
    execute,
    pipeline_parameters_hash,
    plugin_merge_archive,
    publish_result,
    request_from_obj,
)
from skyprov.canonical import dumps_canonical, sha256_bytes
from skyprov.chain import produce_block
from skyprov.errors import (
    DecodeError,
    DuplicateDataset,
    DuplicateEntry,
    IntegrityError,
    InvalidBody,
    PluginConfigError,
    PluginNotFound,
    UnknownProgram,
    UnsortedInput,
)
from skyprov.index import QueryFilter, filter_from_obj, query
from skyprov.model import (
    DatasetDescriptor,
    EasEvent,
    FileRef,
    PublishDataset,
    RegisterStorage,
    sign_transaction,
)
from skyprov.storage import encode_events, encode_events_jsonl, init_storage, put_file

CREATED = iter(range(10_000, 99_999))


def mk_events(prefix, times, energies=None):
    energies = energies or [None] * len(times)
    return [
        EasEvent(
            event_id=f"{prefix}-{i}",
            registration_time=t,
            facility_id="TAIGA",
            detector_id="d1",
            signal_histogram=(i, i + 1),
            bin_width=10,
            energy_estimate=energies[i],
        )
        for i, t in enumerate(times)
    ]


def seal(state, keys):
    slot = state.last_slot() + 1
    block = produce_block(state, slot, keys[state.scheduled_handler(slot)], now=state.slot_start_time(slot))
    state.apply_block(block)
    return block


def register_storage_tx(state, handle, user):
    body = RegisterStorage(
        storage_id=handle.storage_id,
        adapter_kind=handle.kind,
        base_uri=handle.base_uri,
        storage_pubkey=key_for(f"storage:{handle.storage_id}").public_hex,
    )
    state.submit(sign_transaction(body, user, created_at=next(CREATED)))


def publish_real(state, handle, user, dataset_id, files, facility="TAIGA", start=None, end=None, extra=None):
    """Write real files, then publish a descriptor with their true digests."""
    refs = []
    all_times = [t for events in files for t in (e.registration_time for e in events)]
    for i, events in enumerate(files):
        path = f"data/{dataset_id}/part{i}.{handle.kind}"
        data = encode_events(handle.kind, events)
        digest = put_file(handle, path, data)
        refs.append(FileRef(path=path, content_hash=digest.hex(), size=len(data), format=handle.kind))
    descriptor = DatasetDescriptor(
        dataset_id=dataset_id,
        kind="primary",
        storage_id=handle.storage_id,
        file_refs=tuple(refs),
        facility_id=facility,
        time_range=(start if start is not None else min(all_times or [1]), end if end is not None else max(all_times or [1])),
        detector_geometry_hash=GEOMETRY_HASH,
        extra=dict(extra or {}),
    )
    state.submit(sign_transaction(PublishDataset(dataset=descriptor), user, created_at=next(CREATED)))
    return descriptor


@pytest.fixture()
def world(chain3, tmp_path):
    """Two storages (jsonl and packed), one program, three primary datasets."""
    state, keys = chain3
    user = key_for("user-1")
    h1 = init_storage(str(tmp_path / "st-1"), "st-1", "jsonl")
    h2 = init_storage(str(tmp_path / "st-2"), "st-2", "packed")
    register_storage_tx(state, h1, user)
    register_storage_tx(state, h2, user)
    state.submit(sign_transaction(program_body("prog-1", "1.0"), user, created_at=next(CREATED)))
    seal(state, keys)

    files = {
        "ds-a": [mk_events("a0", [100, 300, 500], ["1.5", None, "0.25"]), mk_events("a1", [200, 400])],
        "ds-b": [mk_events("b0", [150, 350, 550], [None, "2", "0.5"])],
        "ds-c": [mk_events("c0", [120, 520], ["3.5", "0.75"])],
    }
    publish_real(state, h1, user, "ds-a", files["ds-a"], start=100, end=500)
    publish_real(state, h2, user, "ds-b", files["ds-b"], start=150, end=550)
    publish_real(state, h1, user, "ds-c", files["ds-c"], facility="TUNKA", start=120, end=520)
    seal(state, keys)

    index = state.registry
    storages = {"st-1": h1, "st-2": h2}
    return state, keys, index, storages, files


ALL = QueryFilter(time_range=(0, 10_000))


def flat_oracle(files, dataset_order):
    return [ev for ds in dataset_order for events in files[ds] for ev in events]


def merge_oracle(files, dataset_order):
    tagged = [
        (ev.registration_time, ds, ev.event_id, ev)
        for ds in dataset_order
        for events in files[ds]
        for ev in events
    ]
    tagged.sort(key=lambda t: t[:3])
    return [t[3] for t in tagged]


def test_no_pipeline_concatenates_in_canonical_order(world):
    _, _, index, storages, files = world
    result = execute(AggregationRequest(filter=ALL), index, storages)
    # query order: ds-a (start 100), ds-c (120), ds-b (150)
    assert result.matched_datasets == ("ds-a", "ds-c", "ds-b")
    expected = flat_oracle(files, ["ds-a", "ds-c", "ds-b"])
    assert result.output_bytes == encode_events_jsonl(expected)
    assert result.events_in == result.events_out == len(expected)
    assert result.files_fetched == 4
    assert result.output_digest == sha256_bytes(result.output_bytes).hex()


def test_time_ordered_merge_matches_oracle(world):
    _, _, index, storages, files = world
    request = AggregationRequest(filter=ALL, pipeline=(PluginSpec("time_ordered_merge", {}),))
    result = execute(request, index, storages)
    assert result.output_bytes == encode_events_jsonl(merge_oracle(files, ["ds-a", "ds-c", "ds-b"]))


def test_merge_tie_breaks_by_dataset_then_event(world, tmp_path):
    state, keys, _, storages, _ = world
    user = key_for("user-1")
    # two extra datasets holding events at identical times
    tied1 = mk_events("t", [800, 800])
    tied2 = mk_events("t", [800, 800])
    publish_real(state, storages["st-2"], user, "ds-z", [tied1], start=800, end=800)
    publish_real(state, storages["st-1"], user, "ds-y", [tied2], start=800, end=800)
    seal(state, keys)
    index = state.registry
    request = AggregationRequest(
        filter=QueryFilter(time_range=(800, 800)), pipeline=(PluginSpec("time_ordered_merge", {}),)
    )
    result = execute(request, index, storages)
    # ds-y sorts before ds-z; within a dataset, event_id ascending
    expected = encode_events_jsonl(tied2 + tied1)
    assert result.output_bytes == expected


def test_unsorted_input_names_offending_stream(world, tmp_path):
    state, keys, _, storages, _ = world
    user = key_for("user-1")
    publish_real(state, storages["st-1"], user, "ds-bad", [mk_events("x", [900, 850])], start=850, end=900)
    seal(state, keys)
    index = state.registry
    request = AggregationRequest(
        filter=QueryFilter(time_range=(850, 900)), pipeline=(PluginSpec("time_ordered_merge", {}),)
    )
    with pytest.raises(UnsortedInput) as err:
        execute(request, index, storages)
    assert "ds-bad:data/ds-bad/part0.jsonl" in str(err.value)


MERGE = (PluginSpec("time_ordered_merge", {}),)


def test_decode_fault_in_a_later_file_beats_an_earlier_unsorted_stream(world):
    state, keys, _, storages, _ = world
    user = key_for("user-1")
    publish_real(state, storages["st-1"], user, "ds-u", [mk_events("u", [900, 850])], start=850, end=900)
    handle = storages["st-1"]
    data = b'{"not":"an event"}\n'
    ref = FileRef(path="x/broken.jsonl", content_hash=put_file(handle, "x/broken.jsonl", data).hex(),
                  size=len(data), format="jsonl")
    publish_refs(state, handle, user, "ds-v", [ref], 860, 900)
    seal(state, keys)
    window = QueryFilter(time_range=(850, 900))
    assert [d.dataset_id for d in query(state.registry, window)] == ["ds-u", "ds-v"]
    with pytest.raises(DecodeError):
        execute(AggregationRequest(filter=window, pipeline=MERGE), state.registry, storages)


def test_first_unsorted_stream_in_pair_order_is_named(world):
    # the merge would meet ds-u2's fault first: its first event (870) sorts before ds-u1's (900)
    state, keys, _, storages, _ = world
    user = key_for("user-1")
    publish_real(state, storages["st-1"], user, "ds-u1", [mk_events("u1", [900, 850])], start=850, end=900)
    publish_real(state, storages["st-2"], user, "ds-u2", [mk_events("u2", [870, 860])], start=860, end=870)
    seal(state, keys)
    window = QueryFilter(time_range=(850, 900))
    assert [d.dataset_id for d in query(state.registry, window)] == ["ds-u1", "ds-u2"]
    with pytest.raises(UnsortedInput) as err:
        execute(AggregationRequest(filter=window, pipeline=MERGE), state.registry, storages)
    assert "ds-u1:data/ds-u1/part0.jsonl" in str(err.value)


def counting_event_work(monkeypatch):
    """Count validate_event calls, wherever a skyprov module binds it, and
    encodes by canonical's one encoder."""
    calls = {"validate_event": 0, "encode": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    validate = counted("validate_event", model.validate_event)
    for module in (sys.modules[name] for name in list(sys.modules) if name.startswith("skyprov.")):
        if getattr(module, "validate_event", None) is model.validate_event:
            monkeypatch.setattr(module, "validate_event", validate)
    monkeypatch.setattr(canonical._encoder, "encode", counted("encode", canonical._encoder.encode))
    return calls


@pytest.mark.parametrize("storage_id", ["st-1", "st-2", None])
def test_each_event_is_validated_once_and_encoded_at_most_once(world, monkeypatch, storage_id):
    _, _, index, storages, _ = world
    request = AggregationRequest(
        filter=QueryFilter(time_range=(0, 10_000), storage_id=storage_id),
        pipeline=MERGE + (PluginSpec("energy_filter", {"threshold": "0.6"}),),
    )
    calls = counting_event_work(monkeypatch)
    result = execute(request, index, storages)
    assert 0 < result.events_out < result.events_in
    assert calls["validate_event"] == result.events_in
    if storage_id == "st-1":  # jsonl: one encode per decoded line, for its round trip; none for the output
        assert calls["encode"] == result.events_in
    elif storage_id == "st-2":  # packed: one encode per output event
        assert calls["encode"] == result.events_out
    else:
        assert calls["encode"] <= result.events_in


def test_energy_filter_semantics_and_tally(world):
    _, _, index, storages, files = world
    request = AggregationRequest(
        filter=ALL,
        pipeline=(PluginSpec("time_ordered_merge", {}), PluginSpec("energy_filter", {"threshold": "0.5"})),
    )
    result = execute(request, index, storages)
    merged = merge_oracle(files, ["ds-a", "ds-c", "ds-b"])
    from decimal import Decimal

    kept = [e for e in merged if e.energy_estimate is not None and Decimal(e.energy_estimate) >= Decimal("0.5")]
    dropped_missing = sum(1 for e in merged if e.energy_estimate is None)
    assert result.output_bytes == encode_events_jsonl(kept)
    assert result.drop_tally == {"energy_filter": dropped_missing}
    assert result.events_in == len(merged)
    assert result.events_out == len(kept)


def test_two_energy_filters_keep_both_and_tally_once(world):
    _, _, index, storages, files = world
    request = AggregationRequest(
        filter=ALL,
        pipeline=(
            PluginSpec("time_ordered_merge", {}),
            PluginSpec("energy_filter", {"threshold": "0.5"}),
            PluginSpec("energy_filter", {"threshold": "1.5"}),
        ),
    )
    result = execute(request, index, storages)
    merged = merge_oracle(files, ["ds-a", "ds-c", "ds-b"])
    from decimal import Decimal

    kept = [e for e in merged if e.energy_estimate is not None and Decimal(e.energy_estimate) >= Decimal("1.5")]
    assert [e.event_id for e in kept] == ["a0-0", "c0-0", "b0-1"]
    assert result.output_bytes == encode_events_jsonl(kept)
    # the first filter drops every energy-less event, so the second sees none
    assert result.drop_tally == {"energy_filter": sum(1 for e in merged if e.energy_estimate is None)}
    assert result.events_out == len(kept)


def test_energy_filter_decimal_not_string_compare(world):
    _, _, index, storages, files = world
    # "0.50" and "0.5" are the same quantity; "10" > "9" numerically
    r1 = execute(
        AggregationRequest(filter=ALL, pipeline=(PluginSpec("energy_filter", {"threshold": "0.50"}),)),
        index,
        storages,
    )
    r2 = execute(
        AggregationRequest(filter=ALL, pipeline=(PluginSpec("energy_filter", {"threshold": "0.5"}),)),
        index,
        storages,
    )
    assert r1.output_bytes == r2.output_bytes


@pytest.mark.parametrize(
    "params",
    [
        {},
        {"threshold": "-1"},
        {"threshold": "abc"},
        {"threshold": "1", "extra": "x"},
        {"threshold": ""},
        # each of these parses as 1.5 or infinity but is not the fixed-point form
        {"threshold": "1.5\n"},
        {"threshold": " 1.5"},
        {"threshold": "15e-1"},
        {"threshold": "Infinity"},
    ],
)
def test_energy_filter_config_errors(world, params):
    _, _, index, storages, _ = world
    request = AggregationRequest(filter=ALL, pipeline=(PluginSpec("energy_filter", params),))
    with pytest.raises(PluginConfigError):
        execute(request, index, storages)


def test_unknown_plugin_fails_before_fetch(world):
    _, _, index, _, _ = world
    request = AggregationRequest(filter=ALL, pipeline=(PluginSpec("median_filter", {}),))
    with pytest.raises(PluginNotFound):
        execute(request, index, {})  # empty handles: fetch would fail, plan check fires first


def test_merge_must_be_first(world):
    _, _, index, storages, _ = world
    request = AggregationRequest(
        filter=ALL,
        pipeline=(PluginSpec("energy_filter", {"threshold": "0"}), PluginSpec("time_ordered_merge", {})),
    )
    with pytest.raises(PluginConfigError):
        execute(request, index, storages)


def test_window_bounds_stream_count(world, monkeypatch):
    _, _, index, storages, _ = world
    monkeypatch.setattr(aggregation, "MAX_STREAMS", 2)
    with pytest.raises(PluginConfigError):
        execute(AggregationRequest(filter=ALL), index, storages)  # 4 streams


def counting_get_file(monkeypatch):
    calls = []
    original = aggregation.get_file

    def get_file(handle, path, limit):
        calls.append((handle.storage_id, path))
        return original(handle, path, limit)

    monkeypatch.setattr(aggregation, "get_file", get_file)
    return calls


def test_stream_bound_checked_before_any_fetch(world, tmp_path, monkeypatch):
    # the bound is a check on the request: it wins over a corrupt file
    _, _, index, storages, _ = world
    victim = tmp_path / "st-1" / "data" / "ds-a" / "part0.jsonl"
    victim.write_bytes(victim.read_bytes() + b"\n")
    monkeypatch.setattr(aggregation, "MAX_STREAMS", 2)
    calls = counting_get_file(monkeypatch)
    with pytest.raises(PluginConfigError):
        execute(AggregationRequest(filter=ALL), index, storages)  # 4 streams
    assert calls == []
    # archive mode has no streams and stays unbounded
    with pytest.raises(IntegrityError):
        execute(AggregationRequest(filter=ALL, pipeline=(PluginSpec("merge_archive", {}),)), index, storages)


# -- integrity gate ---------------------------------------------------------------------


def test_tampered_file_detected_before_plugins(world, tmp_path):
    _, _, index, storages, _ = world
    victim = tmp_path / "st-1" / "data" / "ds-a" / "part0.jsonl"
    original = victim.read_bytes()
    victim.write_bytes(original.replace(b"1.5", b"9.9"))
    request = AggregationRequest(filter=ALL, pipeline=(PluginSpec("time_ordered_merge", {}),))
    with pytest.raises(IntegrityError) as err:
        execute(request, index, storages)
    assert "st-1/data/ds-a/part0.jsonl" in str(err.value)


def test_first_mismatch_in_plan_order_reported(world, tmp_path):
    _, _, index, storages, _ = world
    for rel in ["st-1/data/ds-a/part1.jsonl", "st-2/data/ds-b/part0.packed"]:
        p = tmp_path.joinpath(*rel.split("/"))
        p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(IntegrityError) as err:
        execute(AggregationRequest(filter=ALL), index, storages)
    # plan sorts st-1 before st-2, so the st-1 file is named
    assert "st-1/data/ds-a/part1.jsonl" in str(err.value)


def test_fetch_is_bounded_by_the_recorded_size(world, tmp_path, monkeypatch):
    _, _, index, storages, _ = world
    ref = index.datasets["ds-a"].descriptor.file_refs[0]
    victim = tmp_path / "st-1" / ref.path
    original = victim.read_bytes()
    reads = []
    read_file = storage.read_file

    def counting_read_file(path, what, limit=-1):
        data = read_file(path, what, limit)
        reads.append((path, len(data)))
        return data

    monkeypatch.setattr(storage, "read_file", counting_read_file)
    victim.write_bytes(original * 10)
    with pytest.raises(IntegrityError) as err:
        execute(AggregationRequest(filter=ALL), index, storages)
    assert f"st-1/{ref.path}: length {ref.size + 1} does not match chain record {ref.size}" in str(err.value)
    assert dict(reads)[os.path.realpath(victim)] == ref.size + 1
    victim.write_bytes(original[:-1])
    with pytest.raises(IntegrityError) as err:
        execute(AggregationRequest(filter=ALL), index, storages)
    assert f"st-1/{ref.path}: length {ref.size - 1} does not match chain record {ref.size}" in str(err.value)


def test_shared_path_is_read_up_to_its_largest_recorded_size(world):
    # ds-c2 records ds-c's file one byte short: the honest ds-c record
    # passes, and the gate names the short record
    state, keys, _, storages, _ = world
    ref = state.registry.datasets["ds-c"].descriptor.file_refs[0]
    short = dataclasses.replace(ref, size=ref.size - 1)
    publish_refs(state, storages["st-1"], key_for("user-1"), "ds-c2", [short], 120, 520)
    seal(state, keys)
    with pytest.raises(IntegrityError) as err:
        execute(AggregationRequest(filter=QueryFilter(time_range=(120, 120))), state.registry, storages)
    assert f"length {ref.size} does not match chain record {ref.size - 1}" in str(err.value)


def publish_refs(state, handle, user, dataset_id, refs, start, end):
    """Publish a descriptor listing refs exactly as given (paths may repeat or be unsorted)."""
    descriptor = DatasetDescriptor(
        dataset_id=dataset_id,
        kind="primary",
        storage_id=handle.storage_id,
        file_refs=tuple(refs),
        facility_id="TAIGA",
        time_range=(start, end),
        detector_geometry_hash=GEOMETRY_HASH,
        extra={},
    )
    state.submit(sign_transaction(PublishDataset(dataset=descriptor), user, created_at=next(CREATED)))


def put_ref(handle, path, events):
    data = encode_events(handle.kind, events)
    return FileRef(path=path, content_hash=put_file(handle, path, data).hex(), size=len(data), format=handle.kind)


def test_first_mismatch_in_query_then_ref_order_reported(world, tmp_path):
    state, keys, _, storages, _ = world
    user = key_for("user-1")
    h1 = storages["st-1"]
    # ds-0 sorts first by id but last in query order; ds-r lists its refs
    # against path order
    publish_refs(state, h1, user, "ds-0", [put_ref(h1, "x/ds-0.jsonl", mk_events("z", [700]))], 700, 700)
    refs = [put_ref(h1, "x/r-z.jsonl", mk_events("rz", [610])), put_ref(h1, "x/r-a.jsonl", mk_events("ra", [620]))]
    publish_refs(state, h1, user, "ds-r", refs, 600, 620)
    seal(state, keys)
    index = state.registry
    assert [d.dataset_id for d in query(index, ALL)] == ["ds-a", "ds-c", "ds-b", "ds-r", "ds-0"]

    def corrupt(rel):
        p = tmp_path.joinpath("st-1", *rel.split("/"))
        p.write_bytes(p.read_bytes() + b"\x00")

    corrupt("x/ds-0.jsonl")
    corrupt("x/r-a.jsonl")
    corrupt("x/r-z.jsonl")
    with pytest.raises(IntegrityError) as err:
        execute(AggregationRequest(filter=ALL), index, storages)
    assert "st-1/x/r-z.jsonl" in str(err.value)
    corrupt("data/ds-c/part0.jsonl")
    with pytest.raises(IntegrityError) as err:
        execute(AggregationRequest(filter=ALL), index, storages)
    assert "st-1/data/ds-c/part0.jsonl" in str(err.value)


def test_shared_path_decoded_per_dataset(world, monkeypatch):
    state, keys, _, storages, files = world
    user = key_for("user-1")
    ref = state.registry.datasets["ds-c"].descriptor.file_refs[0]
    publish_refs(state, storages["st-1"], user, "ds-c2", [ref], 120, 520)
    seal(state, keys)
    index = state.registry
    at_120 = QueryFilter(time_range=(120, 120))
    order = [d.dataset_id for d in query(index, at_120)]
    assert order == ["ds-a", "ds-c", "ds-c2"]
    files = {**files, "ds-c2": files["ds-c"]}
    calls = counting_get_file(monkeypatch)
    plain = execute(AggregationRequest(filter=at_120), index, storages)
    assert sorted(calls) == sorted(set(calls)) and len(calls) == 3  # each shared path read once
    assert plain.files_fetched == 4
    assert plain.output_bytes == encode_events_jsonl(flat_oracle(files, order))
    assert plain.events_in == plain.events_out == len(flat_oracle(files, order))
    merged = execute(
        AggregationRequest(filter=at_120, pipeline=(PluginSpec("time_ordered_merge", {}),)), index, storages
    )
    assert merged.output_bytes == encode_events_jsonl(merge_oracle(files, order))
    with pytest.raises(DuplicateEntry):
        execute(AggregationRequest(filter=at_120, pipeline=(PluginSpec("merge_archive", {}),)), index, storages)


def test_archive_integrity_also_gated(world, tmp_path):
    _, _, index, storages, _ = world
    victim = tmp_path / "st-1" / "data" / "ds-c" / "part0.jsonl"
    victim.write_bytes(victim.read_bytes() + b"\n")
    request = AggregationRequest(filter=ALL, pipeline=(PluginSpec("merge_archive", {}),))
    with pytest.raises(IntegrityError):
        execute(request, index, storages)


# -- archive mode -----------------------------------------------------------------------


def test_merge_archive_builds_sorted_deterministic_tar(world):
    _, _, index, storages, _ = world
    request = AggregationRequest(filter=ALL, pipeline=(PluginSpec("merge_archive", {}),))
    r1 = execute(request, index, storages)
    r2 = execute(request, index, storages)
    assert r1.output_bytes == r2.output_bytes
    assert r1.mode == "archive"
    with tarfile.open(fileobj=io.BytesIO(r1.output_bytes)) as tar:
        names = tar.getnames()
        assert names == sorted(names)
        assert "st-1/data/ds-a/part0.jsonl" in names
        assert "st-2/data/ds-b/part0.packed" in names
        info = tar.getmember(names[0])
        assert (info.mtime, info.uid, info.gid, info.mode) == (0, 0, 0, 0o644)


def test_merge_archive_roundtrips_exact_bytes(world, tmp_path):
    _, _, index, storages, _ = world
    request = AggregationRequest(filter=QueryFilter(facility_id="TUNKA"), pipeline=(PluginSpec("merge_archive", {}),))
    result = execute(request, index, storages)
    original = (tmp_path / "st-1" / "data" / "ds-c" / "part0.jsonl").read_bytes()
    with tarfile.open(fileobj=io.BytesIO(result.output_bytes)) as tar:
        member = tar.extractfile("st-1/data/ds-c/part0.jsonl")
        assert member.read() == original


def test_merge_archive_must_be_sole_plugin(world):
    _, _, index, storages, _ = world
    request = AggregationRequest(
        filter=ALL, pipeline=(PluginSpec("merge_archive", {}), PluginSpec("energy_filter", {"threshold": "0"}))
    )
    with pytest.raises(PluginConfigError):
        execute(request, index, storages)


def test_merge_archive_duplicate_entry():
    with pytest.raises(DuplicateEntry):
        plugin_merge_archive([("st/x.bin", b"1"), ("st/x.bin", b"2")])


def test_empty_match_set_succeeds(world, tmp_path):
    _, _, index, storages, _ = world
    sink = str(tmp_path / "out" / "empty.jsonl")
    request = AggregationRequest(filter=QueryFilter(facility_id="nowhere"), sink=LocalSink(sink))
    result = execute(request, index, storages)
    assert result.matched_datasets == ()
    assert result.output_bytes == b""
    with open(sink, "rb") as fh:
        assert fh.read() == b""
    # archive flavour: a valid empty tar
    request = AggregationRequest(
        filter=QueryFilter(facility_id="nowhere"), pipeline=(PluginSpec("merge_archive", {}),)
    )
    result = execute(request, index, storages)
    with tarfile.open(fileobj=io.BytesIO(result.output_bytes)) as tar:
        assert tar.getnames() == []


# -- forked helpers ---------------------------------------------------------------------


@pytest.fixture
def helpers(monkeypatch):
    """The pids of the helpers started, on a host with two usable CPUs and a
    one-byte share minimum, so any two or more streams are split."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    monkeypatch.setattr(aggregation, "_MIN_SHARE_BYTES", 1)
    started = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return started


def refuse_fork():
    raise OSError(11, "Resource temporarily unavailable")


def assert_no_helper_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def serial(monkeypatch, call):
    """call() on one usable CPU, where execute forks nothing."""
    with monkeypatch.context() as patch:
        patch.setattr(parallel, "usable_cpus", lambda: 1)
        patch.setattr(os, "fork", None)  # any fork would raise TypeError
        return call()


def result_fields(result):
    return (result.output_bytes, result.output_digest, result.events_in, result.events_out, result.drop_tally)


def test_helpers_and_no_fork_give_the_same_output(world, helpers, monkeypatch):
    _, _, index, storages, _ = world
    for pipeline in [(), MERGE, (PluginSpec("merge_archive", {}),)]:
        request = AggregationRequest(filter=ALL, pipeline=pipeline)
        helpers.clear()
        forked = execute(request, index, storages)
        assert len(helpers) == (pipeline != (PluginSpec("merge_archive", {}),))  # an archive decodes nothing
        assert_no_helper_left()
        with monkeypatch.context() as patch:
            patch.setattr(os, "fork", refuse_fork)
            here = execute(request, index, storages)
        assert forked.output_bytes == here.output_bytes
        assert forked.output_digest == here.output_digest


FILTER = PluginSpec("energy_filter", {"threshold": "0.5"})


@pytest.mark.parametrize("pipeline", [(), MERGE, MERGE + (FILTER,),
                                      MERGE + (FILTER, PluginSpec("energy_filter", {"threshold": "1"}))],
                         ids=["no_merge", "merge", "one_filter", "two_filters"])
def test_the_helper_path_equals_the_serial_path(world, helpers, monkeypatch, pipeline):
    _, _, index, storages, _ = world
    request = AggregationRequest(filter=ALL, pipeline=pipeline)
    expected = serial(monkeypatch, lambda: execute(request, index, storages))
    assert result_fields(execute(request, index, storages)) == result_fields(expected)
    assert len(helpers) == 1
    assert_no_helper_left()


def test_a_share_below_the_minimum_or_one_cpu_forks_nothing(world, helpers, monkeypatch):
    _, _, index, storages, _ = world
    request = AggregationRequest(filter=ALL, pipeline=MERGE)
    sizes = [ref.size for ds in query(index, ALL) for ref in ds.file_refs]
    monkeypatch.setattr(aggregation, "_MIN_SHARE_BYTES", sum(sizes) // 2 + 1)
    execute(request, index, storages)
    monkeypatch.setattr(aggregation, "_MIN_SHARE_BYTES", 1)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    execute(request, index, storages)
    assert helpers == []


WINDOW = QueryFilter(time_range=(5_000, 6_000))


def publish_streams(world, kinds):
    """One dataset per kind, in query order, each with one jsonl file of
    four events: "good", "unsorted" (its times go backwards) or "broken"
    (its third line is not JSON). The files are the same size, so a split in
    two puts the first half of the streams in the caller's share."""
    state, keys, _, storages, _ = world
    handle = storages["st-1"]
    user = key_for("user-1")
    for i, kind in enumerate(kinds):
        times = [5_400, 5_300, 5_200, 5_100] if kind == "unsorted" else [5_100, 5_200, 5_300, 5_400]
        lines = encode_events_jsonl(mk_events(f"s{i}", times)).split(b"\n")
        if kind == "broken":
            lines[2] = b"[" + lines[2][1:]
        data = b"\n".join(lines)
        path = f"streams/s{i}.jsonl"
        ref = FileRef(path=path, content_hash=put_file(handle, path, data).hex(), size=len(data), format="jsonl")
        publish_refs(state, handle, user, f"ds-s{i}", [ref], 5_000 + i, 5_400)
    seal(state, keys)
    sizes = [ref.size for ds in query(state.registry, WINDOW) for ref in ds.file_refs]
    assert parallel.split(sizes, 1) == [(0, len(kinds) // 2), (len(kinds) // 2, len(kinds))]
    return state.registry


def count_decodes(monkeypatch, helper_exit=None):
    """The indexes of the streams decoded in this process, in call order; a
    helper leaves by os._exit(helper_exit) when that is given."""
    parent = os.getpid()
    decoded = []
    decode = aggregation._decode_stream

    def counting(index, *args):
        if os.getpid() == parent:
            decoded.append(index)
        elif helper_exit is not None:
            os._exit(helper_exit)
        return decode(index, *args)

    monkeypatch.setattr(aggregation, "_decode_stream", counting)
    return decoded


def raised(call):
    with pytest.raises(Exception) as err:
        call()
    exc = err.value
    cause = exc.__cause__
    return type(exc), str(exc), getattr(exc, "record_index", None), type(cause), str(cause)


@pytest.mark.parametrize("kinds,error", [
    (["broken", "good", "good", "good"], DecodeError),  # in the caller's share
    (["good", "good", "good", "broken"], DecodeError),  # in the helper's share
    (["good", "broken", "broken", "good"], DecodeError),  # the first of two, one on each side
    (["unsorted", "good", "good", "broken"], DecodeError),  # a fault in the helper's share beats an unsorted stream
    (["broken", "good", "unsorted", "good"], DecodeError),  # and in the caller's share
    (["good", "unsorted", "good", "unsorted"], UnsortedInput),  # the first unsorted, one on each side
    (["good", "good", "unsorted", "unsorted"], UnsortedInput),  # both in the helper's share
    (["good", "good", "good", "unsorted"], UnsortedInput),
], ids=["fault_here", "fault_in_helper", "faults_both_sides", "unsorted_here_fault_in_helper",
        "fault_here_unsorted_in_helper", "unsorted_both_sides", "unsorted_twice_in_helper", "unsorted_in_helper"])
def test_helpers_leave_the_error_unchanged(world, helpers, monkeypatch, kinds, error):
    index = publish_streams(world, kinds)
    storages = world[3]
    request = AggregationRequest(filter=WINDOW, pipeline=MERGE)
    expected = serial(monkeypatch, lambda: raised(lambda: execute(request, index, storages)))
    assert expected[0] is error
    decoded = count_decodes(monkeypatch)
    killed = []
    kill = os.kill
    monkeypatch.setattr(os, "kill", lambda pid, sig: killed.append(pid) or kill(pid, sig))
    assert raised(lambda: execute(request, index, storages)) == expected
    assert len(helpers) == 1
    assert_no_helper_left()
    first_fault = kinds.index("broken") if "broken" in kinds else None
    if first_fault is not None and first_fault < 2:  # raised here: the helper is killed and reaped
        assert decoded == list(range(first_fault + 1)) and killed == helpers
    else:  # the helper's streams before its first fault are not decoded again
        assert decoded == [0, 1] + ([first_fault] if first_fault is not None else []) and killed == []


class _Marshal:
    """marshal, with dumps replaced."""

    loads = staticmethod(marshal.loads)

    def __init__(self, dumps):
        self.dumps = dumps


@pytest.mark.parametrize("failure", ["exits_3", "truncated_reply", "not_marshal_data", "not_a_list", "no_fork"])
def test_a_failed_helper_costs_only_time(world, helpers, monkeypatch, failure):
    _, _, index, storages, _ = world
    request = AggregationRequest(filter=ALL, pipeline=MERGE + (FILTER,))
    expected = serial(monkeypatch, lambda: execute(request, index, storages))
    decoded = count_decodes(monkeypatch, helper_exit=3 if failure == "exits_3" else None)
    if failure == "no_fork":
        monkeypatch.setattr(os, "fork", refuse_fork)
    elif failure != "exits_3":
        dumps = {"truncated_reply": lambda obj: marshal.dumps(obj)[:-3],
                 "not_marshal_data": lambda obj: b"\xff" * 64,
                 "not_a_list": lambda obj: marshal.dumps(tuple(obj))}[failure]
        monkeypatch.setattr(parallel, "marshal", _Marshal(dumps))
    assert result_fields(execute(request, index, storages)) == result_fields(expected)
    assert len(helpers) == (failure != "no_fork")
    assert_no_helper_left()
    assert decoded == [0, 1, 2, 3]  # every stream decoded here, the helper's share after its failure


def test_randomized_merge_trials(chain3, tmp_path):
    state, keys = chain3
    user = key_for("user-1")
    h1 = init_storage(str(tmp_path / "r1"), "st-1", "jsonl")
    h2 = init_storage(str(tmp_path / "r2"), "st-2", "packed")
    register_storage_tx(state, h1, user)
    register_storage_tx(state, h2, user)
    seal(state, keys)
    storages = {"st-1": h1, "st-2": h2}
    rng = random.Random(42)
    files = {}
    for d in range(6):
        did = f"ds-{d}"
        handle = storages[rng.choice(["st-1", "st-2"])]
        n_files = rng.randint(1, 3)
        parts = []
        for i in range(n_files):
            times = sorted(rng.randrange(1, 2000) for _ in range(rng.randint(0, 8)))
            energies = [rng.choice([None, "0.5", "1", "2.75"]) for _ in times]
            parts.append(mk_events(f"{did}-f{i}", times, energies))
        publish_real(state, handle, user, did, parts, start=1, end=2000)
        files[did] = parts
    seal(state, keys)
    index = state.registry

    order = [d.dataset_id for d in query(index, ALL)]
    for _ in range(20):
        request = AggregationRequest(filter=ALL, pipeline=(PluginSpec("time_ordered_merge", {}),))
        result = execute(request, index, storages)
        assert result.output_bytes == encode_events_jsonl(merge_oracle(files, order))


# -- request parsing ---------------------------------------------------------------------


def test_request_from_obj_roundtrip(world, tmp_path):
    _, _, index, storages, files = world
    obj = {
        "filter": {"time_range": {"start": 0, "end": 10000}},
        "pipeline": [
            {"name": "time_ordered_merge", "parameters": {}},
            {"name": "energy_filter", "parameters": {"threshold": "0.5"}},
        ],
        "sink": {"type": "local_path", "path": str(tmp_path / "out.jsonl")},
    }
    request = request_from_obj(obj)
    assert isinstance(request.sink, LocalSink)
    result = execute(request, index, storages)
    direct = execute(
        AggregationRequest(
            filter=ALL,
            pipeline=(PluginSpec("time_ordered_merge", {}), PluginSpec("energy_filter", {"threshold": "0.5"})),
        ),
        index,
        storages,
    )
    assert result.output_bytes == direct.output_bytes


PUBLISH_SINK = {"type": "publish", "storage_id": "st-1", "dataset_id": "ds-x",
                "program_id": "prog-1", "program_version": "1.0"}


@pytest.mark.parametrize(
    "obj",
    [
        {},
        {"filter": {}, "pipeline": [], "sink": {"type": "local_path", "path": "x"}},
        {"filter": {"kind": "primary"}, "pipeline": [{"name": "x"}], "sink": {"type": "local_path", "path": "x"}},
        {"filter": {"kind": "primary"}, "pipeline": [], "sink": {"type": "ftp", "path": "x"}},
        {"filter": {"bogus": 1}, "pipeline": [], "sink": {"type": "local_path", "path": "x"}},
        {"filter": {"kind": "primary"}, "pipeline": [{"name": "f", "parameters": {"a": 1}}], "sink": {"type": "local_path", "path": "x"}},
        # every sink field is a non-empty string, checked before anything is fetched
        {"filter": {"kind": "primary"}, "pipeline": [], "sink": {"type": "local_path", "path": ""}},
        {"filter": {"kind": "primary"}, "pipeline": [], "sink": {**PUBLISH_SINK, "program_id": ["prog-1"]}},
        {"filter": {"kind": "primary"}, "pipeline": [], "sink": {**PUBLISH_SINK, "storage_id": ["st-1"]}},
        {"filter": {"kind": "primary"}, "pipeline": [], "sink": {**PUBLISH_SINK, "dataset_id": {"id": "ds-x"}}},
        {"filter": {"kind": "primary"}, "pipeline": [], "sink": {**PUBLISH_SINK, "dataset_id": ""}},
    ],
)
def test_request_from_obj_rejects(obj):
    with pytest.raises(InvalidBody):
        request_from_obj(obj)


def test_pipeline_hash_is_order_sensitive_but_param_order_blind():
    p1 = (PluginSpec("energy_filter", {"threshold": "1"}), PluginSpec("time_ordered_merge", {}))
    p2 = (PluginSpec("time_ordered_merge", {}), PluginSpec("energy_filter", {"threshold": "1"}))
    assert pipeline_parameters_hash(p1) != pipeline_parameters_hash(p2)
    a = pipeline_parameters_hash((PluginSpec("x", dict([("a", "1"), ("b", "2")])),))
    b = pipeline_parameters_hash((PluginSpec("x", dict([("b", "2"), ("a", "1")])),))
    assert a == b


def test_filter_from_obj_list_form():
    f = filter_from_obj({"time_range": [5, 10], "kind": "primary"})
    assert f.time_range == (5, 10)


# -- publish-with-provenance ---------------------------------------------------------------


def run_and_publish(world, sink, threshold="0.5"):
    state, keys, index, storages, files = world
    request = AggregationRequest(
        filter=ALL,
        pipeline=(PluginSpec("time_ordered_merge", {}), PluginSpec("energy_filter", {"threshold": threshold})),
        sink=sink,
    )
    result = execute(request, index, storages)
    tx = publish_result(result, sink, key_for("user-1"), state, storages, created_at=next(CREATED))
    return state, keys, storages, result, tx


def test_publish_result_full_cycle(world):
    sink = PublishSink(storage_id="st-2", dataset_id="ds-derived", program_id="prog-1", program_version="1.0")
    state, keys, storages, result, tx = run_and_publish(world, sink)
    seal(state, keys)
    index = state.registry
    record = index.datasets["ds-derived"]
    d = record.descriptor
    assert record.parents == result.matched_datasets
    assert record.program == ("prog-1", "1.0")
    assert d.kind == "secondary"
    assert d.facility_id == "multi"  # TAIGA and TUNKA parents
    assert d.time_range == (100, 550)
    assert d.file_refs[0].path == "derived/ds-derived.packed"
    assert d.file_refs[0].format == "packed"
    assert tx.body.parameters_hash == pipeline_parameters_hash(result.pipeline)
    # the stored file decodes back to exactly the pipeline output
    from skyprov.storage import read_events
    from skyprov.storage import decode_events

    stored = read_events(storages["st-2"], d.file_refs[0].path)
    assert stored == decode_events("jsonl", result.output_bytes)
    # and its recorded digest matches the bytes on disk
    from skyprov.storage import get_file

    _, digest = get_file(storages["st-2"], d.file_refs[0].path)
    assert digest.hex() == d.file_refs[0].content_hash


def test_publish_threshold_spellings_share_one_parameters_hash(world):
    hashes = set()
    for n, threshold in enumerate(["0.5", "0.50", "00.5"]):
        sink = PublishSink(storage_id="st-1", dataset_id=f"ds-spelling-{n}", program_id="prog-1", program_version="1.0")
        _, _, _, result, tx = run_and_publish(world, sink, threshold=threshold)
        assert result.pipeline[1] == PluginSpec("energy_filter", {"threshold": "0.5"})
        hashes.add(tx.body.parameters_hash)
    assert len(hashes) == 1
    # spellings that are already shortest are recorded as given
    _, _, index, storages, _ = world
    for threshold in ["50", "0", "10", "1.25"]:
        request = AggregationRequest(filter=ALL, pipeline=(PluginSpec("energy_filter", {"threshold": threshold}),))
        assert execute(request, index, storages).pipeline == request.pipeline


def test_publish_result_single_facility_and_geometry(world):
    state, keys, index, storages, files = world
    request = AggregationRequest(filter=QueryFilter(facility_id="TAIGA"), pipeline=())
    result = execute(request, index, storages)
    sink = PublishSink(storage_id="st-1", dataset_id="ds-taiga", program_id="prog-1", program_version="1.0")
    publish_result(result, sink, key_for("user-1"), state, storages, created_at=next(CREATED))
    seal(state, keys)
    d = state.registry.datasets["ds-taiga"].descriptor
    assert d.facility_id == "TAIGA"
    assert d.detector_geometry_hash == sha256_bytes(dumps_canonical([GEOMETRY_HASH])).hex()
    assert d.extra == {}


def test_publish_result_error_precedence(world):
    state, keys, index, storages, _ = world
    result = execute(AggregationRequest(filter=ALL), index, storages)
    user = key_for("user-1")
    with pytest.raises(UnknownProgram):
        publish_result(
            result,
            PublishSink(storage_id="st-1", dataset_id="ds-n", program_id="ghost", program_version="1.0"),
            user,
            state,
            storages,
        )
    with pytest.raises(DuplicateDataset):
        publish_result(
            result,
            PublishSink(storage_id="st-1", dataset_id="ds-a", program_id="prog-1", program_version="1.0"),
            user,
            state,
            storages,
        )
    # identical request re-run: the dataset id is taken now
    sink = PublishSink(storage_id="st-1", dataset_id="ds-once", program_id="prog-1", program_version="1.0")
    publish_result(result, sink, user, state, storages, created_at=next(CREATED))
    seal(state, keys)
    with pytest.raises(DuplicateDataset):
        publish_result(result, sink, user, state, storages, created_at=next(CREATED))


def test_publish_result_rejects_archive(world):
    state, _, index, storages, _ = world
    result = execute(AggregationRequest(filter=ALL, pipeline=(PluginSpec("merge_archive", {}),)), index, storages)
    sink = PublishSink(storage_id="st-1", dataset_id="ds-tar", program_id="prog-1", program_version="1.0")
    with pytest.raises(PluginConfigError):
        publish_result(result, sink, key_for("user-1"), state, storages)


def test_publish_result_path_collision_aborts_before_tx(world, tmp_path):
    state, _, index, storages, _ = world
    result = execute(AggregationRequest(filter=ALL), index, storages)
    put_file(storages["st-1"], "derived/ds-blocked.jsonl", b"squatter")
    sink = PublishSink(storage_id="st-1", dataset_id="ds-blocked", program_id="prog-1", program_version="1.0")
    pool_before = dict(state.pending_pool)
    from skyprov.errors import AlreadyExists

    with pytest.raises(AlreadyExists):
        publish_result(result, sink, key_for("user-1"), state, storages)
    assert state.pending_pool == pool_before


def test_publish_result_invalid_body_writes_no_file(world):
    state, _, index, storages, _ = world
    result = execute(AggregationRequest(filter=ALL), index, storages)
    sink = PublishSink(storage_id="st-1", dataset_id="", program_id="prog-1", program_version="1.0")
    pool_before = dict(state.pending_pool)
    with pytest.raises(InvalidBody):
        publish_result(result, sink, key_for("user-1"), state, storages)
    assert not os.path.exists(os.path.join(storages["st-1"].base_uri, "derived"))
    assert state.pending_pool == pool_before
