"""Queries and the snapshot file over the chain's registry.

The registry every ChainState builds while it validates blocks
(model.RegistryState) is the only representation of confirmed metadata.
This module answers predicate queries by scanning it, testing each
record's fields in place and building descriptors only for the datasets
it returns, and writes the index snapshot file that ``index-build``
exports. The snapshot is not bound to the chain (it holds no log entries
to check against a registry root), so nothing reads it back.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from typing import Optional

from .canonical import _field_names, _require, _require_choice, _require_int, _require_str, is_decimal
from .errors import InvalidBody
from .model import DATASET_KINDS, RegistryState, body_to_obj, dataset_to_obj

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
    One scan over the registry, testing each record's dataset_fields; only
    the records returned are read for their descriptors, which a record the
    head cache restored builds on first read. descendant_of collects
    parent-to-child links during that scan and keeps the matches that
    descend from it afterwards.
    """
    datasets = registry.datasets
    ancestors = None
    if f.ancestor_of is not None:
        ancestors = _reachable(f.ancestor_of, lambda d: datasets[d].parents if d in datasets else ())
    energy_min = None if f.energy_min is None else Decimal(f.energy_min)
    energy_max = None if f.energy_max is None else Decimal(f.energy_max)
    want_children = f.descendant_of is not None
    children = {}

    hits = []  # (time_range.start, dataset_id, record)
    for dataset_id, record in datasets.items():
        if want_children:
            for parent in record.parents:
                children.setdefault(parent, []).append(dataset_id)
        if ancestors is not None and dataset_id not in ancestors:
            continue
        _, kind, storage_id, _, facility_id, (start, end), _, extra = record.dataset_fields
        if f.facility_id is not None and facility_id != f.facility_id:
            continue
        if f.storage_id is not None and storage_id != f.storage_id:
            continue
        if f.kind is not None and kind != f.kind:
            continue
        if f.time_range is not None:
            lo, hi = f.time_range
            if end < lo or start > hi:
                continue
        if energy_min is not None:
            upper = _decimal_or_none(extra.get("energy_max"))
            if upper is None or upper < energy_min:
                continue
        if energy_max is not None:
            lower = _decimal_or_none(extra.get("energy_min"))
            if lower is None or lower > energy_max:
                continue
        hits.append((start, dataset_id, record))
    if want_children:
        descendants = _reachable(f.descendant_of, lambda d: children.get(d, ()))
        hits = [hit for hit in hits if hit[1] in descendants]
    hits.sort(key=lambda hit: hit[:2])
    return [record.descriptor for _, _, record in hits]


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
