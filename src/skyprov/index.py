"""Queries and snapshot files over the chain's registry.

The registry every ChainState builds while it validates blocks
(model.RegistryState) is the only representation of confirmed metadata.
This module answers predicate queries by scanning it, and reads and
writes the index snapshot file that ``index-build`` exports. The snapshot
is not bound to the chain (it holds no log entries to check against a
registry root), so no command reads it back.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from typing import Optional

from .canonical import _field_names, _require, _require_choice, _require_hex64, _require_int, _require_str, is_decimal
from .errors import InvalidBody
from .model import (
    DATASET_KINDS,
    DatasetRecord,
    RegisterProgram,
    RegisterStorage,
    RegistryState,
    _RECORD_KEYS,
    body_from_obj,
    body_to_obj,
    dataset_from_obj,
    dataset_to_obj,
)

# -- filters -------------------------------------------------------------------


@dataclass(frozen=True)
class QueryFilter:
    """Conjunction of optional predicates; at least one must be set."""

    facility_id: Optional[str] = None
    kind: Optional[str] = None
    time_range: Optional[tuple] = None  # (start, end), matches datasets overlapping it
    energy_min: Optional[str] = None  # decimal string, PeV
    energy_max: Optional[str] = None
    ancestor_of: Optional[str] = None
    descendant_of: Optional[str] = None
    storage_id: Optional[str] = None


_FILTER_KEYS = _field_names(QueryFilter)


def filter_from_obj(obj) -> QueryFilter:
    """Read a filter object; time_range may be [start, end] or {start, end}."""
    if not (isinstance(obj, dict) and obj.keys() <= _FILTER_KEYS):
        raise InvalidBody(f"filter keys must be a subset of {sorted(_FILTER_KEYS)}")
    kwargs = dict(obj)
    tr = kwargs.get("time_range")
    if tr is not None:
        if isinstance(tr, dict) and set(tr) == {"end", "start"}:
            kwargs["time_range"] = (tr["start"], tr["end"])
        else:
            _require(isinstance(tr, list) and len(tr) == 2, "time_range must be [start, end] or {start, end}")
            kwargs["time_range"] = tuple(tr)
    f = QueryFilter(**kwargs)
    validate_filter(f)
    return f


def validate_filter(f: QueryFilter) -> None:
    _require(any(getattr(f, name) is not None for name in _FILTER_KEYS), "filter must set at least one predicate")
    if f.kind is not None:
        _require_choice(f.kind, DATASET_KINDS, "kind")
    if f.time_range is not None:
        _require(isinstance(f.time_range, (list, tuple)) and len(f.time_range) == 2,
                 "time_range must be a (start, end) pair")
        start, end = f.time_range
        _require(_require_int(start, "time_range.start") <= _require_int(end, "time_range.end"),
                 "time_range.start must be <= time_range.end")
    for name, value in (("energy_min", f.energy_min), ("energy_max", f.energy_max)):
        _require(value is None or is_decimal(value), "{} must be a non-negative fixed-point decimal string", name)
    for name in ("ancestor_of", "descendant_of", "facility_id", "storage_id"):
        if getattr(f, name) is not None:
            _require_str(getattr(f, name), name)


# -- query -----------------------------------------------------------------------


def _decimal_or_none(text) -> Optional[Decimal]:
    return Decimal(text) if is_decimal(text) else None


def _reachable(start: str, edges) -> set:
    """Every id reachable from start by following edges(id)."""
    out = set()
    frontier = list(edges(start))
    while frontier:
        current = frontier.pop()
        if current not in out:
            out.add(current)
            frontier.extend(edges(current))
    return out


def query(registry: RegistryState, f: QueryFilter):
    """Datasets satisfying every predicate, ordered by (time_range.start, dataset_id).

    f comes checked from filter_from_obj, which reads a request's filter and ``query --where``.
    One scan over the registry. descendant_of collects parent-to-child links
    during that scan and keeps the matches that descend from it afterwards.
    """
    datasets = registry.datasets
    ancestors = None
    if f.ancestor_of is not None:
        ancestors = _reachable(f.ancestor_of, lambda d: datasets[d].parents if d in datasets else ())
    energy_min = None if f.energy_min is None else Decimal(f.energy_min)
    energy_max = None if f.energy_max is None else Decimal(f.energy_max)
    want_children = f.descendant_of is not None
    children = {}

    out = []
    for dataset_id, record in datasets.items():
        if want_children:
            for parent in record.parents:
                children.setdefault(parent, []).append(dataset_id)
        if ancestors is not None and dataset_id not in ancestors:
            continue
        ds = record.descriptor  # built on first read for a record the head cache restored
        if f.facility_id is not None and ds.facility_id != f.facility_id:
            continue
        if f.storage_id is not None and ds.storage_id != f.storage_id:
            continue
        if f.kind is not None and ds.kind != f.kind:
            continue
        if f.time_range is not None:
            lo, hi = f.time_range
            start, end = ds.time_range
            if end < lo or start > hi:
                continue
        if energy_min is not None:
            upper = _decimal_or_none(ds.extra.get("energy_max"))
            if upper is None or upper < energy_min:
                continue
        if energy_max is not None:
            lower = _decimal_or_none(ds.extra.get("energy_min"))
            if lower is None or lower > energy_max:
                continue
        out.append(ds)
    if want_children:
        descendants = _reachable(f.descendant_of, lambda d: children.get(d, ()))
        out = [ds for ds in out if ds.dataset_id in descendants]
    out.sort(key=lambda d: (d.time_range[0], d.dataset_id))
    return out


# -- serialization (index snapshot file) ----------------------------------------------------


def index_to_obj(registry: RegistryState) -> dict:
    height, registry_size = registry.built_to
    return {
        "built_to": {"height": height, "registry_size": registry_size},
        "datasets": {
            dataset_id: {
                "descriptor": dataset_to_obj(record.descriptor),
                "parents": list(record.parents),
                "program": (
                    None
                    if record.program is None
                    else {"program_id": record.program[0], "program_version": record.program[1]}
                ),
                "tx_id": record.tx_id,
            }
            for dataset_id, record in sorted(registry.datasets.items())
        },
        "programs": [
            {"code_hash": code_hash, "program_id": pid, "version": version}
            for (pid, version), code_hash in sorted(registry.programs.items())
        ],
        "storages": {sid: body_to_obj(body) for sid, body in sorted(registry.storages.items())},
    }


# A program entry's keys are those of a register_program body without its
# "type"; a dataset entry's are the record's fields, model._RECORD_KEYS.
_PROGRAM_KEYS = _field_names(RegisterProgram)


def index_from_obj(obj) -> RegistryState:
    """Parse an untrusted snapshot. Every shape is checked, every key must
    name its entry, and every reference must resolve inside the snapshot."""
    _require(isinstance(obj, dict) and set(obj) == {"built_to", "datasets", "programs", "storages"},
             "index snapshot keys malformed")
    registry = RegistryState()

    built = obj["built_to"]
    _require(isinstance(built, dict) and set(built) == {"height", "registry_size"}, "built_to malformed")
    height = _require_int(built["height"], "built_to.height")
    size = _require_int(built["registry_size"], "built_to.registry_size")
    _require(height >= -1 and size >= 0, "built_to out of range")
    registry.built_to = (height, size)

    _require(isinstance(obj["storages"], dict), "storages must be an object")
    for storage_id, body_obj in obj["storages"].items():
        body = body_from_obj(body_obj)
        _require(isinstance(body, RegisterStorage) and body.storage_id == storage_id,
                 "storage entry {!r} malformed", storage_id)
        registry.storages[storage_id] = body

    _require(isinstance(obj["programs"], list), "programs must be a list")
    for entry in obj["programs"]:
        _require(isinstance(entry, dict) and entry.keys() == _PROGRAM_KEYS,
                 "program entry malformed")
        key = (_require_str(entry["program_id"], "program_id"), _require_str(entry["version"], "version"))
        _require(key not in registry.programs, "program {}@{} listed twice", *key)
        registry.programs[key] = _require_hex64(entry["code_hash"], "code_hash")

    _require(isinstance(obj["datasets"], dict), "datasets must be an object")
    for dataset_id, entry in obj["datasets"].items():
        _require(isinstance(entry, dict) and entry.keys() == _RECORD_KEYS, "dataset entry {!r} malformed", dataset_id)
        descriptor = dataset_from_obj(entry["descriptor"])
        parents, program = entry["parents"], entry["program"]
        _require(descriptor.dataset_id == dataset_id, "dataset entry {!r} holds {!r}", dataset_id, descriptor.dataset_id)
        _require(descriptor.storage_id in registry.storages, "dataset {!r} on unknown storage", dataset_id)
        _require(isinstance(parents, list), "dataset {!r} parents must be a list", dataset_id)
        for parent in parents:
            _require_str(parent, "parent dataset id")
        _require(len(set(parents)) == len(parents), "dataset {!r} lists a parent twice", dataset_id)
        if program is None:
            _require(descriptor.kind == "primary" and not parents, "dataset {!r} lineage malformed", dataset_id)
        else:
            _require(isinstance(program, dict) and set(program) == {"program_id", "program_version"},
                     "dataset {!r} program malformed", dataset_id)
            program = (_require_str(program["program_id"], "program_id"),
                       _require_str(program["program_version"], "program_version"))
            _require(descriptor.kind == "secondary" and parents and program in registry.programs,
                     "dataset {!r} lineage malformed", dataset_id)
        registry.datasets[dataset_id] = DatasetRecord(
            descriptor=descriptor,
            parents=tuple(parents),
            program=program,
            tx_id=_require_hex64(entry["tx_id"], "tx_id"),
        )

    for dataset_id, record in registry.datasets.items():
        _require(all(p in registry.datasets and p != dataset_id for p in record.parents),
                 "dataset {!r} names an unknown parent", dataset_id)
    # publish-once: every confirmed transaction added exactly one entry
    entries = len(registry.storages) + len(registry.programs) + len(registry.datasets)
    _require(size == entries, "built_to registry_size does not count the snapshot's entries")
    return registry
