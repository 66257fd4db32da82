"""Seeded inputs and independent oracles for the skyprov benchmark.

Everything here is plain stdlib: inputs are generated as the JSON wire
objects skyprov accepts, and every expected output is computed from those
objects without calling skyprov, so an oracle cannot share a bug with the
code it checks. The same workload seed always yields the same inputs.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import tarfile
from dataclasses import dataclass, field
from decimal import Decimal

GENESIS_TIME = 1_000_000_000_000
FACILITIES = ("TAIGA", "TUNKA", "HiSCORE")
BINS = 64
ENERGY_SHARE = 0.9  # share of events that carry an energy estimate
ENERGY_THRESHOLD = "50"


def canon(obj) -> bytes:
    """Canonical JSON: sorted keys, no whitespace, UTF-8."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def leaf_hash(data: bytes) -> bytes:
    """RFC 9162 leaf hash, computed here so the proof oracle stays independent."""
    return hashlib.sha256(b"\x00" + data).digest()


def _energy(rng: random.Random):
    if rng.random() >= ENERGY_SHARE:
        return None
    return f"{rng.randint(0, 99)}.{rng.randint(0, 999):03d}"


def _dataset_obj(dataset_id, storage_id, facility, start, end, refs, extra):
    return {
        "dataset_id": dataset_id,
        "detector_geometry_hash": sha256_hex(f"geometry:{facility}".encode()),
        "extra": dict(sorted(extra.items())),
        "facility_id": facility,
        "file_refs": refs,
        "kind": "primary",
        "storage_id": storage_id,
        "time_range": {"end": end, "start": start},
    }


def _overlaps(ds, lo, hi) -> bool:
    return not (ds["time_range"]["end"] < lo or ds["time_range"]["start"] > hi)


# -- aggregate ---------------------------------------------------------------------


@dataclass
class EventFile:
    path: str
    events: list  # event objects, time-ordered


@dataclass
class EventDataset:
    dataset_id: str
    storage_id: str
    kind: str  # storage codec, "jsonl" or "packed"
    facility: str
    start: int
    end: int
    files: list

    def wire(self, refs) -> dict:
        return _dataset_obj(self.dataset_id, self.storage_id, self.facility, self.start, self.end, refs, {})


@dataclass
class AggRequest:
    kind: str  # "wide" | "narrow" | "codec" | "archive" | "publish"
    obj: dict  # the request file skyprov receives
    expect: dict = field(default_factory=dict)  # filled by the oracle


@dataclass
class AggregateInputs:
    storages: tuple  # ((storage_id, codec), ...)
    datasets: list
    cycle: list  # one client cycle of AggRequest, in order
    program: tuple  # (program_id, version)

    @property
    def event_count(self) -> int:
        return sum(len(f.events) for ds in self.datasets for f in ds.files)


AGG_SIZES = {
    # datasets per storage, files per dataset, events per file, and how many
    # consecutive datasets the wide, narrow and one-codec windows overlap
    "full": dict(datasets=12, files=2, events=150, wide=14, narrow=4, codec=5),
    "tiny": dict(datasets=3, files=2, events=4, wide=4, narrow=2, codec=2),
}


def aggregate_inputs(seed: int, scale: str = "full") -> AggregateInputs:
    size = AGG_SIZES[scale]
    rng = random.Random(f"aggregate:{seed}")
    storages = (("st-jsonl", "jsonl"), ("st-packed", "packed"))
    window = 1_000_000_000  # ns covered by one dataset
    datasets = []
    n = size["datasets"] * len(storages)
    for j in range(n):
        storage_id, codec = storages[j % len(storages)]
        start = GENESIS_TIME + j * window // 2  # neighbours overlap by half a window
        end = start + window
        dataset_id = f"agg-{seed}-{j:03d}"
        facility = FACILITIES[j % len(FACILITIES)]
        files = []
        for f in range(size["files"]):
            times = sorted(rng.randint(start, end) for _ in range(size["events"]))
            events = [
                {
                    "bin_width": 25,
                    "detector_id": f"det-{rng.randint(0, 15)}",
                    "energy_estimate": _energy(rng),
                    "event_id": f"{dataset_id}-f{f}-e{k:04d}",
                    "facility_id": facility,
                    "registration_time": t,
                    "service_info": {"run": str(rng.randint(1, 999))},
                    "signal_histogram": [rng.randint(0, 4095) for _ in range(BINS)],
                }
                for k, t in enumerate(times)
            ]
            files.append(EventFile(path=f"data/{dataset_id}/part{f}.{codec}", events=events))
        datasets.append(EventDataset(dataset_id, storage_id, codec, facility, start, end, files))

    def window_over(k):
        # a window that overlaps exactly k consecutive datasets wherever it
        # lands; storages alternate, so an even k takes half from each, and
        # every seed asks for the same amount of work of each codec
        a = rng.randint(1, n - k + 1)
        lo = GENESIS_TIME + a * window // 2 + window // 4
        return [lo, lo + (k - 2) * window // 2]

    def merge_filter():
        return [
            {"name": "time_ordered_merge", "parameters": {}},
            {"name": "energy_filter", "parameters": {"threshold": ENERGY_THRESHOLD}},
        ]

    def request(kind, flt, pipeline, sink=None):
        return AggRequest(kind, {"filter": dict(flt, kind="primary"), "pipeline": pipeline, "sink": sink})

    archive = [{"name": "merge_archive", "parameters": {}}]
    publish_sink = {"dataset_id": None, "program_id": "bench-prog", "program_version": "1.0",
                    "storage_id": "st-packed", "type": "publish"}
    wide, narrow, codec = size["wide"], size["narrow"], size["codec"]
    cycle = [
        request("wide", {"time_range": window_over(wide)}, merge_filter()),
        request("narrow", {"time_range": window_over(narrow)}, merge_filter()),
        request("codec", {"storage_id": "st-jsonl", "time_range": window_over(2 * codec)}, merge_filter()),
        request("archive", {"time_range": window_over(wide)}, archive),
        request("narrow", {"time_range": window_over(narrow)}, merge_filter()),
        request("codec", {"storage_id": "st-packed", "time_range": window_over(2 * codec)}, merge_filter()),
        request("archive", {"time_range": window_over(wide)}, archive),
        # the sink's dataset id is filled in per publish, since put_file is publish-once
        request("publish", {"time_range": window_over(narrow)}, merge_filter(), sink=publish_sink),
    ]
    inputs = AggregateInputs(storages, datasets, cycle, ("bench-prog", "1.0"))
    for req in cycle:
        req.expect = expected_aggregation(inputs, req.obj)
    return inputs


def _matching_datasets(inputs: AggregateInputs, flt: dict):
    lo, hi = flt["time_range"]
    out = [
        ds for ds in inputs.datasets
        if flt.get("storage_id", ds.storage_id) == ds.storage_id
        and not (ds.end < lo or ds.start > hi)
    ]
    return sorted(out, key=lambda ds: (ds.start, ds.dataset_id))


def expected_aggregation(inputs: AggregateInputs, req: dict) -> dict:
    """Concatenate, sort and filter the generated events; no skyprov code."""
    matched = _matching_datasets(inputs, req["filter"])
    names = [p["name"] for p in req["pipeline"]]
    if names == ["merge_archive"]:
        return {"mode": "archive", "datasets": [ds.dataset_id for ds in matched],
                "files": [(ds.storage_id, f.path) for ds in matched for f in ds.files]}
    tagged = [(ev["registration_time"], ds.dataset_id, ev["event_id"], ev)
              for ds in matched for f in ds.files for ev in f.events]
    tagged.sort(key=lambda t: t[:3])
    threshold = Decimal(req["pipeline"][1]["parameters"]["threshold"])
    kept = [t[3] for t in tagged if t[3]["energy_estimate"] is not None
            and Decimal(t[3]["energy_estimate"]) >= threshold]
    output = b"".join(canon(ev) + b"\n" for ev in kept)
    return {
        "mode": "events",
        "datasets": [ds.dataset_id for ds in matched],
        "events_in": len(tagged),
        "events_out": len(kept),
        "dropped_missing": sum(1 for t in tagged if t[3]["energy_estimate"] is None),
        "output_digest": sha256_hex(output),
    }


def expected_archive_digest(files) -> str:
    """Digest of a deterministic USTAR archive of (name, bytes) entries sorted by name."""
    buf = io.BytesIO()
    with tarfile.open(fileobj=buf, mode="w", format=tarfile.USTAR_FORMAT) as tar:
        for name, data in sorted(files):
            info = tarfile.TarInfo(name=name)
            info.size, info.mtime, info.mode = len(data), 0, 0o644
            info.uid = info.gid = 0
            info.uname = info.gname = ""
            tar.addfile(info, io.BytesIO(data))
    return sha256_hex(buf.getvalue())


# -- ledger ------------------------------------------------------------------------


LEDGER_SIZES = {
    # blocks and publish txs at set-up, fresh bodies for the run, proof targets
    "full": dict(blocks=300, txs=1200, bodies=200, proofs=64),
    "tiny": dict(blocks=6, txs=12, bodies=40, proofs=4),
}


@dataclass
class LedgerInputs:
    storage_id: str
    program: tuple
    setup_datasets: list  # wire dataset objects, in chain order after the two bootstrap txs
    blocks: int
    fresh_datasets: list  # bodies submitted during the run, in order
    queries: list  # (facility, lo, hi)
    proof_picks: list  # indices into setup_datasets
    checkpoint_block: int  # checkpoint taken after this block


def _ledger_dataset(rng, seed, i, storage_id, t):
    facility = FACILITIES[rng.randrange(len(FACILITIES))]
    start = t
    end = start + rng.randint(1, 40) * 10_000_000
    lo = rng.randint(0, 50)
    extra = {"energy_max": f"{lo + rng.randint(1, 50)}.{rng.randint(0, 9)}", "energy_min": f"{lo}.{rng.randint(0, 9)}"}
    path = f"data/ledger-{seed}-{i:05d}.jsonl"
    refs = [{"content_hash": sha256_hex(path.encode()), "format": "jsonl", "path": path,
             "size": rng.randint(1_000, 1_000_000)}]
    return _dataset_obj(f"led-{seed}-{i:05d}", storage_id, facility, start, end, refs, extra)


def ledger_inputs(seed: int, scale: str = "full") -> LedgerInputs:
    size = LEDGER_SIZES[scale]
    rng = random.Random(f"ledger:{seed}")
    storage_id = "st-ledger"
    total = size["txs"] + size["bodies"]
    datasets = [_ledger_dataset(rng, seed, i, storage_id, GENESIS_TIME + i * 10_000_000) for i in range(total)]
    span = datasets[-1]["time_range"]["start"] - GENESIS_TIME
    queries = []
    for _ in range(64):
        lo = GENESIS_TIME + rng.randint(0, span)
        queries.append((FACILITIES[rng.randrange(len(FACILITIES))], lo, lo + span // 20))
    return LedgerInputs(
        storage_id=storage_id,
        program=("bench-prog", "1.0"),
        setup_datasets=datasets[: size["txs"]],
        blocks=size["blocks"],
        fresh_datasets=datasets[size["txs"]:],
        queries=queries,
        proof_picks=[rng.randrange(size["txs"]) for _ in range(size["proofs"])],
        checkpoint_block=size["blocks"] // 2,
    )


def expected_query(datasets, facility: str, lo: int, hi: int) -> list:
    """Brute-force scan: the canonical rows `query` must print, in order."""
    rows = [ds for ds in datasets if ds["facility_id"] == facility and _overlaps(ds, lo, hi)]
    rows.sort(key=lambda ds: (ds["time_range"]["start"], ds["dataset_id"]))
    return [canon(ds) for ds in rows]


def publish_body(dataset: dict) -> dict:
    return {"dataset": dataset, "type": "publish_dataset"}


def expected_tx_id(body: dict) -> str:
    return sha256_hex(canon(body))


# -- netsim ------------------------------------------------------------------------


NETSIM_SIZES = {
    "full": dict(configs=2, slots=48, txs_per_slot=3, tamper_slot=30),
    "tiny": dict(configs=1, slots=12, txs_per_slot=1, tamper_slot=8),
}
TAMPERER = "h4"


def netsim_configs(seed: int, scale: str = "full") -> list:
    """Simulator configs for one client cycle; each converges to one head."""
    size = NETSIM_SIZES[scale]
    rng = random.Random(f"netsim:{seed}")
    configs = []
    for _ in range(size["configs"]):
        offline_from = rng.randint(3, size["slots"] // 2)
        configs.append({
            "seed": rng.randint(1, 2**31),
            "handlers": 5,
            "slot_duration_ms": 100,
            "duration_slots": size["slots"],
            "latency_ms": {"min": 5, "max": 60},
            "drop_probability": 0.0,
            "txs_per_slot": size["txs_per_slot"],
            "faults": [
                {"kind": "offline", "handler": "h2", "from_slot": offline_from, "to_slot": offline_from + 4},
                {"kind": "tamper_history", "handler": TAMPERER, "slot": size["tamper_slot"], "height": 5,
                 "resign": 1},
            ],
        })
    return configs


def check_sim_trace(records: list, handlers: int = 5) -> str:
    """Empty string when the run ended on one head and the audit flagged
    exactly the tamperer; otherwise what went wrong."""
    finals = [r for r in records if r.get("type") == "final"]
    heads = {r["head"] for r in finals}
    if len(finals) != handlers or len(heads) != 1:
        return f"expected one head over {handlers} nodes, got {len(heads)} over {len(finals)}"
    audits = [r for r in records if r.get("type") == "audit"]
    if len(audits) != (handlers - 1) ** 2:
        return f"expected {(handlers - 1) ** 2} audit records, got {len(audits)}"
    flagged = {r["peer"] for r in audits if r["replay"] != "ok" or r["failed_checkpoints"]}
    if flagged != {TAMPERER}:
        return f"audit flagged {sorted(flagged)}, expected [{TAMPERER!r}]"
    return ""
