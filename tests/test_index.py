"""Index tests: predicate queries over the chain's registry vs a brute-force
scan oracle, snapshot files, and the registry folded back from the
registry log.

The oracle never looks at the registry. It re-derives every answer from the
wire form of confirmed transactions, so agreement means the registry the
chain builds while it validates blocks faithfully summarizes the chain.
"""

import random
from decimal import Decimal

import pytest
from conftest import GEOMETRY_HASH, key_for, make_dataset, program_body, storage_body

from skyprov.canonical import dumps_canonical, loads_canonical
from skyprov.chain import produce_block
from skyprov.errors import InvalidBody
from skyprov.index import QueryFilter, index_to_obj, query, validate_filter
from skyprov.model import DeriveDataset, PublishDataset, dataset_to_obj, fold_log_entries, sign_transaction


# -- oracle: brute-force scan over confirmed transaction wire objects ---------------


def oracle_scan(blocks, f):
    """Dataset ids matching the filter, in (time start, id) order, computed
    from raw transaction objects with no index involved."""
    descriptors = {}  # id -> descriptor obj (plain dict)
    parents = {}  # id -> list of parent ids
    for block in blocks:
        for tx in block.transactions:
            body = loads_canonical(tx.wire_bytes)["body"]
            if body["type"] in ("publish_dataset", "derive_dataset"):
                d = body["dataset"]
                descriptors[d["dataset_id"]] = d
                parents[d["dataset_id"]] = body.get("parent_dataset_ids", [])

    def ancestors(x):
        out, frontier = set(), list(parents.get(x, []))
        while frontier:
            p = frontier.pop()
            if p not in out:
                out.add(p)
                frontier.extend(parents.get(p, []))
        return out

    def descendants(y):
        out = set()
        changed = True
        while changed:
            changed = False
            for did, ps in parents.items():
                if did not in out and any(p == y or p in out for p in ps):
                    out.add(did)
                    changed = True
        return out

    keep = []
    for did, d in descriptors.items():
        if f.facility_id is not None and d["facility_id"] != f.facility_id:
            continue
        if f.kind is not None and d["kind"] != f.kind:
            continue
        if f.storage_id is not None and d["storage_id"] != f.storage_id:
            continue
        if f.time_range is not None:
            lo, hi = f.time_range
            if d["time_range"]["end"] < lo or d["time_range"]["start"] > hi:
                continue
        if f.energy_min is not None:
            val = d["extra"].get("energy_max")
            if val is None or Decimal(val) < Decimal(f.energy_min):
                continue
        if f.energy_max is not None:
            val = d["extra"].get("energy_min")
            if val is None or Decimal(val) > Decimal(f.energy_max):
                continue
        if f.ancestor_of is not None and did not in ancestors(f.ancestor_of):
            continue
        if f.descendant_of is not None and did not in descendants(f.descendant_of):
            continue
        keep.append(did)
    keep.sort(key=lambda did: (descriptors[did]["time_range"]["start"], did))
    return keep


# -- scenario builders ---------------------------------------------------------------


def confirm(state, keys, bodies, key=None):
    """Submit each body as a tx and seal them all into the next block."""
    signer = key or key_for("user-1")
    base = state.head_height + 1
    for position, body in enumerate(bodies):
        state.submit(sign_transaction(body, signer, created_at=1000 + base * 100 + position))
    slot = state.last_slot() + 1
    handler_key = keys[state.scheduled_handler(slot)]
    block = produce_block(state, slot, handler_key, now=state.slot_start_time(slot))
    state.apply_block(block)
    return block


def publish_body(*args, **kwargs):
    return PublishDataset(dataset=make_dataset(*args, **kwargs))


def derive_body(dataset_id, parent_ids, start=1000, end=2000, facility="TAIGA", extra=None, storage_id="st-1"):
    descriptor = make_dataset(
        dataset_id, "secondary", storage_id=storage_id, facility_id=facility, start=start, end=end, extra=extra or {}
    )
    return DeriveDataset(
        dataset=descriptor,
        parent_dataset_ids=tuple(parent_ids),
        program_id="prog-1",
        program_version="1.0",
        parameters_hash=GEOMETRY_HASH,
    )


@pytest.fixture()
def populated(chain3):
    """A small chain with two storages, a program, primaries and derivations."""
    state, keys = chain3
    blocks = [
        confirm(
            state,
            keys,
            [
                storage_body("st-1", kind="jsonl", base_uri="/tmp/st-1"),
                storage_body("st-2", kind="packed", base_uri="/tmp/st-2"),
                program_body("prog-1", "1.0"),
            ],
        ),
        confirm(
            state,
            keys,
            [
                publish_body("ds-a", "primary", storage_id="st-1", facility_id="TAIGA", start=1000, end=2000),
                publish_body("ds-b", "primary", storage_id="st-2", facility_id="TUNKA", start=1500, end=2500, extra={"energy_min": "0.5", "energy_max": "2"}, file_format="packed"),
                publish_body("ds-c", "primary", storage_id="st-1", facility_id="TAIGA", start=3000, end=4000, extra={"energy_min": "1", "energy_max": "5"}),
            ],
        ),
        confirm(state, keys, [derive_body("ds-d", ["ds-a", "ds-b"], start=1000, end=2500)]),
        confirm(state, keys, [derive_body("ds-e", ["ds-d"], start=1000, end=2500, facility="TUNKA")]),
    ]
    return state, blocks


def test_populated_fixture_is_sane(populated):
    state, blocks = populated
    index = state.registry
    assert set(index.datasets) == {"ds-a", "ds-b", "ds-c", "ds-d", "ds-e"}
    assert index.built_to == (len(blocks) - 1, state.registry_log.size)


FILTERS = [
    QueryFilter(facility_id="TAIGA"),
    QueryFilter(facility_id="TUNKA"),
    QueryFilter(facility_id="nowhere"),
    QueryFilter(kind="primary"),
    QueryFilter(kind="secondary"),
    QueryFilter(storage_id="st-1"),
    QueryFilter(storage_id="st-2", kind="primary"),
    QueryFilter(time_range=(0, 999)),
    QueryFilter(time_range=(2000, 3000)),
    QueryFilter(time_range=(2500, 2500)),
    QueryFilter(energy_min="1"),
    QueryFilter(energy_min="2"),
    QueryFilter(energy_min="2.5"),
    QueryFilter(energy_max="0.5"),
    QueryFilter(energy_max="0.4"),
    QueryFilter(energy_min="0.5", energy_max="3"),
    QueryFilter(ancestor_of="ds-e"),
    QueryFilter(ancestor_of="ds-d"),
    QueryFilter(ancestor_of="ds-a"),
    QueryFilter(ancestor_of="missing"),
    QueryFilter(descendant_of="ds-a"),
    QueryFilter(descendant_of="ds-d"),
    QueryFilter(descendant_of="missing"),
    QueryFilter(facility_id="TAIGA", time_range=(1000, 2000), kind="primary"),
    QueryFilter(descendant_of="ds-a", energy_min="0.1"),
]


@pytest.mark.parametrize("f", FILTERS, ids=range(len(FILTERS)))
def test_query_matches_scan_oracle(populated, f):
    state, blocks = populated
    index = state.registry
    got = [d.dataset_id for d in query(index, f)]
    assert got == oracle_scan(blocks, f)


def test_energy_boundaries_inclusive(populated):
    state, _ = populated
    index = state.registry
    # ds-b has energy_max=2: a filter at exactly 2 keeps it, above drops it
    assert "ds-b" in {d.dataset_id for d in query(index, QueryFilter(energy_min="2"))}
    assert "ds-b" not in {d.dataset_id for d in query(index, QueryFilter(energy_min="2.000001"))}
    # datasets without energy bounds never match an energy predicate
    assert "ds-a" not in {d.dataset_id for d in query(index, QueryFilter(energy_min="0"))}
    assert "ds-a" not in {d.dataset_id for d in query(index, QueryFilter(energy_max="999"))}


def test_lineage_is_strict(populated):
    state, _ = populated
    index = state.registry
    # sorted by (time start, id): ds-a and ds-d both start at 1000, ds-b at 1500
    assert [d.dataset_id for d in query(index, QueryFilter(ancestor_of="ds-e"))] == ["ds-a", "ds-d", "ds-b"]
    assert "ds-e" not in {d.dataset_id for d in query(index, QueryFilter(descendant_of="ds-e"))}
    assert query(index, QueryFilter(ancestor_of="no-such")) == []


def test_query_result_order(populated):
    state, _ = populated
    index = state.registry
    rows = query(index, QueryFilter(time_range=(0, 10_000)))
    keys = [(d.time_range[0], d.dataset_id) for d in rows]
    assert keys == sorted(keys)


def test_validate_filter_rejections():
    for bad in [
        QueryFilter(),
        QueryFilter(kind="tertiary"),
        QueryFilter(time_range=(5, 1)),
        QueryFilter(time_range=(1.0, 2.0)),
        QueryFilter(energy_min="-1"),
        QueryFilter(energy_min="1e3"),
        QueryFilter(facility_id=""),
    ]:
        with pytest.raises(InvalidBody):
            validate_filter(bad)


# -- randomized equivalence ---------------------------------------------------------


def random_blocks(seed, chain3_factory):
    state, keys = chain3_factory()
    rng = random.Random(seed)
    blocks = [
        confirm(
            state,
            keys,
            [
                storage_body("st-1", kind="jsonl", base_uri="/tmp/r1"),
                storage_body("st-2", kind="packed", base_uri="/tmp/r2"),
                program_body("prog-1", "1.0"),
            ],
        )
    ]
    published = []
    n_blocks = rng.randint(2, 5)
    for b in range(n_blocks):
        bodies = []
        for t in range(rng.randint(1, 6)):
            did = f"ds-{b}-{t}"
            facility = rng.choice(["TAIGA", "TUNKA", "HISCORE"])
            storage = rng.choice(["st-1", "st-2"])
            start = rng.randrange(0, 5000)
            end = start + rng.randrange(0, 3000)
            extra = {}
            if rng.random() < 0.6:
                lo = Decimal(rng.randrange(0, 300)) / 100
                hi = lo + Decimal(rng.randrange(0, 500)) / 100
                extra = {"energy_min": str(lo), "energy_max": str(hi)}
            if published and rng.random() < 0.4:
                parent_ids = rng.sample(published, min(len(published), rng.randint(1, 3)))
                body = derive_body(
                    did, parent_ids, start=start, end=end, facility=facility, extra=extra, storage_id=storage
                )
            else:
                body = publish_body(
                    did, "primary", storage_id=storage, facility_id=facility, start=start, end=end, extra=extra
                )
            bodies.append(body)
            published.append(did)
        blocks.append(confirm(state, keys, bodies))
    return state, blocks, published, rng


def random_filter(rng, published):
    kwargs = {}
    known = rng.random() < 0.8
    while not kwargs:
        if rng.random() < 0.4:
            kwargs["facility_id"] = rng.choice(["TAIGA", "TUNKA", "HISCORE", "ghost"])
        if rng.random() < 0.3:
            kwargs["kind"] = rng.choice(["primary", "secondary"])
        if rng.random() < 0.3:
            kwargs["storage_id"] = rng.choice(["st-1", "st-2", "st-9"])
        if rng.random() < 0.4:
            lo = rng.randrange(0, 6000)
            kwargs["time_range"] = (lo, lo + rng.randrange(0, 4000))
        if rng.random() < 0.3:
            kwargs["energy_min"] = str(Decimal(rng.randrange(0, 400)) / 100)
        if rng.random() < 0.3:
            kwargs["energy_max"] = str(Decimal(rng.randrange(0, 600)) / 100)
        if rng.random() < 0.25 and published:
            kwargs["ancestor_of"] = rng.choice(published) if known else "ghost-ds"
        if rng.random() < 0.25 and published:
            kwargs["descendant_of"] = rng.choice(published) if known else "ghost-ds"
    return QueryFilter(**kwargs)


@pytest.mark.parametrize("seed", range(12))
def test_randomized_query_equivalence(seed, chain3_factory):
    state, blocks, published, rng = random_blocks(seed, chain3_factory)
    index = state.registry
    for _ in range(40):
        f = random_filter(rng, published)
        got = [d.dataset_id for d in query(index, f)]
        assert got == oracle_scan(blocks, f), f"filter {f} diverged"


# -- snapshot serialization ------------------------------------------------------------


def _folded(state, blocks):
    """The registry the head cache restores: folded from the objects of the
    registry log's entries, each record holding its dataset's fields in
    place of a descriptor."""
    registry, _ = fold_log_entries([loads_canonical(tx.wire_bytes) for block in blocks for tx in block.transactions])
    registry.built_to = state.registry.built_to
    return registry


def test_snapshot_roundtrip_bit_identical(populated):
    # the registry's one way back in is its log: folded from it, it writes the same snapshot bytes
    state, blocks = populated
    index = state.registry
    back = _folded(state, blocks)
    assert all("descriptor" not in vars(record) for record in back.datasets.values())
    assert dumps_canonical(index_to_obj(back)) == dumps_canonical(index_to_obj(index))


def test_snapshot_roundtrip_preserves_queries(populated):
    state, blocks = populated
    index = state.registry
    for f in FILTERS:
        back = _folded(state, blocks)
        got = [dumps_canonical(dataset_to_obj(d)) for d in query(back, f)]
        assert got == [dumps_canonical(dataset_to_obj(d)) for d in query(index, f)], f
        # a restored record builds its descriptor only when the query returns it
        assert {d for d, record in back.datasets.items() if "descriptor" in vars(record)} == {
            d.dataset_id for d in query(index, f)}, f
