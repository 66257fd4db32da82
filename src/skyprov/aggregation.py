"""Aggregation service: query, fetch, verify, run the pipeline, deliver.

The engine takes the (dataset, file ref) pairs of the datasets a metadata
filter matches, fetches them storage by storage, refuses to decode any file
before every fetched file matched its chain-recorded digest, then runs a
closed set of stages that were all checked before the first fetch. Each
input stream is decoded, checked for time order and filtered on its own;
each event that passes the filter keeps only its sort key and its
canonical line, and the output is those lines in merge order, never
re-encoded. The streams may be decoded in contiguous shares by forked
helpers (parallel.run), which changes no output byte and no error. Output
is defined entirely by the merge policy, never by fetch arrival order."""

from __future__ import annotations

import heapq
import io
import itertools
import os
import tarfile
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Optional

from . import parallel
from .canonical import (
    _field_names,
    _require,
    _require_keys,
    _require_str,
    _require_str_map,
    dumps_canonical,
    is_decimal,
    make_dirs,
    sha256_bytes,
    write_file,
)
from .chain import ChainState
from .errors import (
    DuplicateDataset,
    DuplicateEntry,
    IntegrityError,
    InvalidBody,
    NotFound,
    PluginConfigError,
    PluginNotFound,
    UnknownProgram,
    UnsortedInput,
)
from .index import QueryFilter, filter_from_obj, query
from .keys import SigningKey
from .model import (
    DatasetDescriptor,
    DeriveDataset,
    FileRef,
    PmdTransaction,
    RegistryState,
    sign_transaction,
)
from .storage import decode_events, encode_events, get_file, put_file


# -- requests --------------------------------------------------------------------


@dataclass(frozen=True)
class PluginSpec:
    name: str
    parameters: dict = field(default_factory=dict)


@dataclass(frozen=True)
class LocalSink:
    path: str


@dataclass(frozen=True)
class PublishSink:
    storage_id: str
    dataset_id: str
    program_id: str
    program_version: str


@dataclass(frozen=True)
class AggregationRequest:
    filter: QueryFilter
    pipeline: tuple = ()
    sink: object = None


# A request's keys are its fields, and so are a plugin's; a sink adds "type".
_REQUEST_KEYS = _field_names(AggregationRequest)
_PLUGIN_KEYS = _field_names(PluginSpec)
_LOCAL_SINK_KEYS = _field_names(LocalSink) | {"type"}
_PUBLISH_SINK_FIELDS = _field_names(PublishSink)


def request_from_obj(obj) -> AggregationRequest:
    """Read a request; every field is checked before anything is fetched."""
    _require(isinstance(obj, dict) and obj.keys() == _REQUEST_KEYS,
             "request must have exactly filter, pipeline, sink")
    _require(isinstance(obj["pipeline"], list), "pipeline must be a list")
    pipeline = []
    for entry in obj["pipeline"]:
        _require(isinstance(entry, dict) and entry.keys() == _PLUGIN_KEYS,
                 "pipeline entries must have exactly name and parameters")
        params = _require_str_map(entry["parameters"], "plugin parameters")
        pipeline.append(PluginSpec(name=entry["name"], parameters=params))
    sink = obj["sink"]
    if sink is not None:
        _require(isinstance(sink, dict), "sink must be an object with a type")
        kind = sink.get("type")
        if kind == "local_path":
            _require(sink.keys() == _LOCAL_SINK_KEYS, "local_path sink needs exactly a path")
            sink = LocalSink(path=_require_str(sink["path"], "local_path sink path"))
        else:
            _require(kind == "publish", "unknown sink type {!r}", kind)
            _require_keys(sink, _PUBLISH_SINK_FIELDS | {"type"}, "publish sink")
            sink = PublishSink(**{name: _require_str(sink[name], f"publish sink {name}")
                                  for name in _PUBLISH_SINK_FIELDS})
    return AggregationRequest(filter=filter_from_obj(obj["filter"]), pipeline=tuple(pipeline), sink=sink)


def pipeline_to_obj(pipeline) -> list:
    return [{"name": spec.name, "parameters": dict(sorted(spec.parameters.items()))} for spec in pipeline]


def pipeline_parameters_hash(pipeline) -> str:
    """Identifies an analysis: hash of the full pipeline spec."""
    return sha256_bytes(dumps_canonical(pipeline_to_obj(pipeline))).hex()


# -- pipeline stages ------------------------------------------------------------------

# Bound on the input streams (one per file ref recorded on chain) a request
# may merge. Each process holds one file's decoded events at a time; every
# stream's kept lines are held until the output is joined.
MAX_STREAMS = 10_000

# The fewest fetched bytes a process decodes. A helper costs 3-5 ms to fork
# from a 60 MB interpreter, reply to and reap, and a jsonl stream decodes
# at about 20 KB/ms, so on a 2-CPU host two shares of a job first beat one
# at about 128 KiB each. Below this, the caller decodes every stream itself.
_MIN_SHARE_BYTES = 128 * 1024


def _shortest_decimal(text: str) -> str:
    """Shortest spelling of a fixed-point decimal: "00.50" -> "0.5", "50" -> "50"."""
    whole, _, fraction = text.partition(".")
    whole = whole.lstrip("0") or "0"
    fraction = fraction.rstrip("0")
    return f"{whole}.{fraction}" if fraction else whole


def _check_pipeline(pipeline) -> tuple:
    """Check every stage, in pipeline order, before anything is fetched.

    The stages are a closed set: time_ordered_merge (first, no parameters),
    energy_filter (a fixed-point decimal threshold) and merge_archive (the
    only stage, no parameters). Returns the pipeline with each threshold in
    its shortest spelling, so one analysis has one parameters hash.
    """
    checked = []
    for spec in pipeline:
        params = dict(spec.parameters)
        if spec.name == "energy_filter":
            threshold = params.pop("threshold", None)
            if params:
                raise PluginConfigError(f"energy_filter: unknown parameters {sorted(params)}")
            if threshold is None:
                raise PluginConfigError("energy_filter: missing threshold parameter")
            # Fixed-point form only: whitespace, exponents and special values
            # would give one threshold more spellings than trimming zeros folds.
            if not is_decimal(threshold):
                raise PluginConfigError(f"energy_filter: threshold must be a decimal string >= 0, got {threshold!r}")
            spec = PluginSpec(spec.name, {"threshold": _shortest_decimal(threshold)})
        elif spec.name in ("time_ordered_merge", "merge_archive"):
            if params:
                raise PluginConfigError(f"{spec.name} takes no parameters, got {sorted(params)}")
        else:
            raise PluginNotFound(f"no plugin named {spec.name!r}")
        checked.append(spec)
    names = [spec.name for spec in checked]
    if "merge_archive" in names and len(names) != 1:
        raise PluginConfigError("merge_archive must be the only pipeline stage")
    if "time_ordered_merge" in names[1:]:
        raise PluginConfigError("time_ordered_merge must be the first pipeline stage")
    return tuple(checked)


def plugin_merge_archive(entries) -> bytes:
    """Deterministic uncompressed tar of (name, bytes) entries, sorted by name."""
    items = sorted(entries, key=lambda e: e[0])
    seen = set()
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w", format=tarfile.USTAR_FORMAT) as tar:
        for name, data in items:
            if name in seen:
                raise DuplicateEntry(f"duplicate archive entry name {name!r}")
            seen.add(name)
            info = tarfile.TarInfo(name=name)
            info.size = len(data)
            info.mtime = 0
            info.mode = 0o644
            info.uid = 0
            info.gid = 0
            info.uname = ""
            info.gname = ""
            try:
                tar.addfile(info, io.BytesIO(data))
            except ValueError as exc:
                raise InvalidBody(f"archive entry name {name!r} not storable: {exc}") from exc
    return buf.getvalue()


# -- execution ------------------------------------------------------------------------


@dataclass
class AggregationResult:
    matched_datasets: tuple  # dataset ids in canonical (query) order
    files_fetched: int
    events_in: int
    events_out: int
    drop_tally: dict  # plugin name -> dropped count
    mode: str  # "events" | "archive"
    output_bytes: bytes
    output_digest: str
    pipeline: tuple  # as checked: thresholds in their shortest spelling
    output_path: Optional[str] = None

    def summary_obj(self) -> dict:
        return {
            "datasets_matched": len(self.matched_datasets),
            "drop_tally": dict(sorted(self.drop_tally.items())),
            "events_in": self.events_in,
            "events_out": self.events_out,
            "files_fetched": self.files_fetched,
            "mode": self.mode,
            "output_digest": self.output_digest,
        }


def _decode_stream(index: int, ds, ref, data: bytes, merge: bool, floor) -> tuple:
    """(events, missing, unsorted, kept) of the index-th input stream: its
    event count, the events the energy floor drops for having no energy,
    the message naming the stream when a merge needs it time-ordered and its
    time goes backwards (else None), and one (registration_time, dataset_id,
    event_id, index, line) item per kept event. Items merge with no key, and
    the stream index keeps ties in pair order."""
    events = decode_events(ref.format, data)
    dataset_id = ds.dataset_id
    unsorted = None
    missing = 0
    kept = []
    last = 0
    for ev in events:
        t = ev.registration_time
        if merge and t < last and unsorted is None:
            unsorted = f"stream {dataset_id}:{ref.path} is not time-ordered (saw {t} after {last})"
        last = t
        if floor is not None:
            if ev.energy_estimate is None:
                missing += 1
                continue
            if Decimal(ev.energy_estimate) < floor:
                continue
        kept.append((t, dataset_id, ev.event_id, index, ev.wire_bytes))
    return len(events), missing, unsorted, kept


def _fetch_all(pairs, storages):
    """Fetch each (storage id, path) the pairs name once, storage by storage,
    reading at most one byte more than the largest size the chain records
    for it; returns {(storage_id, path): (bytes, digest)}."""
    groups = {}  # storage id -> {path: largest recorded size}, in first-named order
    for ds, ref in pairs:
        sizes = groups.setdefault(ds.storage_id, {})
        sizes[ref.path] = max(sizes.get(ref.path, 0), ref.size)
    ordered = sorted(groups)
    for sid in ordered:
        if sid not in storages:
            raise NotFound(f"no handle for storage {sid}")
    return {(sid, path): get_file(storages[sid], path, size + 1)
            for sid in ordered for path, size in groups[sid].items()}


def execute(
    request: AggregationRequest,
    registry: RegistryState,
    storages,
) -> AggregationResult:
    """Run one aggregation request end to end (sink delivery for local sinks;
    publish sinks are completed by publish_result on the returned result)."""
    pipeline = _check_pipeline(request.pipeline)
    names = [spec.name for spec in pipeline]
    archive_mode = names == ["merge_archive"]

    matched = query(registry, request.filter)
    # canonical pre-merge order: datasets in query order, refs in descriptor order
    pairs = [(ds, ref) for ds in matched for ref in ds.file_refs]
    # one input stream per pair; the bound checks the request, before any fetch
    if not archive_mode and len(pairs) > MAX_STREAMS:
        raise PluginConfigError(f"{len(pairs)} input streams exceed the bound {MAX_STREAMS}")
    fetched = _fetch_all(pairs, storages)

    # integrity gate: every file verified before any stage touches any byte,
    # the first mismatch named in (storage id, query order, ref order)
    for ds, ref in sorted(pairs, key=lambda pair: pair[0].storage_id):
        data, digest = fetched[(ds.storage_id, ref.path)]
        if len(data) != ref.size:
            raise IntegrityError(
                f"{ds.storage_id}/{ref.path}: length {len(data)} does not match chain record {ref.size}"
            )
        if digest.hex() != ref.content_hash:
            raise IntegrityError(
                f"{ds.storage_id}/{ref.path}: digest {digest.hex()} does not match chain record {ref.content_hash}"
            )

    drop_tally = {}
    if archive_mode:
        output = plugin_merge_archive(
            (f"{ds.storage_id}/{ref.path}", fetched[(ds.storage_id, ref.path)][0]) for ds, ref in pairs
        )
        events_in = events_out = 0
    else:
        merge = names[:1] == ["time_ordered_merge"]
        # an event passes every energy_filter exactly when it passes the highest
        # threshold; only the first filter ever sees the energy-less events
        floor = max((Decimal(s.parameters["threshold"]) for s in pipeline if s.name == "energy_filter"), default=None)

        def stream(i: int) -> tuple:
            ds, ref = pairs[i]
            return _decode_stream(i, ds, ref, fetched[(ds.storage_id, ref.path)][0], merge, floor)

        shares = parallel.split([ref.size for _, ref in pairs], _MIN_SHARE_BYTES)
        streams = parallel.run(shares, stream, lambda decoded: isinstance(decoded, tuple) and len(decoded) == 4)
        events_in = missing = 0
        unsorted = None  # the first stream, in pair order, whose time goes backwards
        for count, dropped, backwards, _ in streams:
            events_in += count
            missing += dropped
            unsorted = unsorted or backwards
        # a decode fault in any file is reported before a time-order fault
        if unsorted is not None:
            raise UnsortedInput(unsorted)
        if missing:
            drop_tally["energy_filter"] = missing
        kept = [items for _, _, _, items in streams]
        lines = [item[-1] for item in (heapq.merge(*kept) if merge else itertools.chain.from_iterable(kept))]
        events_out = len(lines)
        lines.append(b"")  # the final "\n"
        output = b"\n".join(lines)

    result = AggregationResult(
        matched_datasets=tuple(ds.dataset_id for ds in matched),
        files_fetched=len(pairs),
        events_in=events_in,
        events_out=events_out,
        drop_tally=drop_tally,
        mode="archive" if archive_mode else "events",
        output_bytes=output,
        output_digest=sha256_bytes(output).hex(),
        pipeline=pipeline,
    )

    if isinstance(request.sink, LocalSink):
        target = request.sink.path
        make_dirs(os.path.dirname(os.path.abspath(target)))
        write_file(target, output)
        result.output_path = target
    return result


# -- publish-with-provenance -------------------------------------------------------------


def publish_result(
    result: AggregationResult,
    sink: PublishSink,
    key: SigningKey,
    state: ChainState,
    storages,
    created_at: Optional[int] = None,
) -> PmdTransaction:
    """Write the result into a storage and submit the derivation record.

    Order matters: the transaction is built and signed first, so a body
    that fails validation writes no file; the file is written before the
    transaction is submitted, so a failed write never leaves a dangling
    registry entry.
    """
    if result.mode != "events":
        raise PluginConfigError("only event results can be published as datasets")
    if not result.matched_datasets:
        raise InvalidBody("cannot publish a derivation with zero parent datasets")
    registry = state.registry
    if (sink.program_id, sink.program_version) not in registry.programs:
        raise UnknownProgram(f"program {sink.program_id}@{sink.program_version} is not registered")
    if sink.dataset_id in registry.datasets:
        raise DuplicateDataset(f"dataset {sink.dataset_id} already exists")
    if sink.storage_id not in registry.storages:
        raise NotFound(f"storage {sink.storage_id} is not registered")
    handle = storages.get(sink.storage_id)
    if handle is None:
        raise NotFound(f"no handle for storage {sink.storage_id}")

    parents = [registry.datasets[pid].descriptor for pid in result.matched_datasets]
    facilities = sorted({p.facility_id for p in parents})
    facility_id = facilities[0] if len(facilities) == 1 else "multi"
    time_range = (min(p.time_range[0] for p in parents), max(p.time_range[1] for p in parents))
    geometry = sha256_bytes(
        dumps_canonical(sorted({p.detector_geometry_hash for p in parents}))
    ).hex()

    if handle.kind == "jsonl":
        data, digest = result.output_bytes, result.output_digest
    else:
        data = encode_events(handle.kind, decode_events("jsonl", result.output_bytes))
        digest = sha256_bytes(data).hex()
    path = f"derived/{sink.dataset_id}.{handle.kind}"
    descriptor = DatasetDescriptor(
        dataset_id=sink.dataset_id,
        kind="secondary",
        storage_id=sink.storage_id,
        file_refs=(FileRef(path=path, content_hash=digest, size=len(data), format=handle.kind),),
        facility_id=facility_id,
        time_range=time_range,
        detector_geometry_hash=geometry,
        extra={},
    )
    body = DeriveDataset(
        dataset=descriptor,
        parent_dataset_ids=tuple(result.matched_datasets),
        program_id=sink.program_id,
        program_version=sink.program_version,
        parameters_hash=pipeline_parameters_hash(result.pipeline),
    )
    tx = sign_transaction(body, key, created_at=created_at)  # validates the body before any write
    put_file(handle, path, data)  # AlreadyExists / IoError abort before any submit
    verdict = state.submit(tx)
    if not verdict.ok:
        try:
            os.remove(os.path.join(handle.base_uri, path))
        except OSError:
            pass
        raise InvalidBody(f"publish transaction rejected: {verdict.reason}: {verdict.detail}")
    return tx
