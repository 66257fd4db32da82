"""Deterministic network simulator for the handler chain.

One seeded Random drives every latency draw and drop decision, heap events
break ties on (time, priority, sender, sequence), and nodes act in sorted
id order, so a config maps to exactly one trace byte-for-byte.

Message deliveries carry priority 0 and slot ticks priority 1: everything
arriving "at" a slot boundary is processed before the slot fires.

Fault repertoire:
  offline         ignore all traffic in a slot window, sync on reconnect
  equivocate      sign two blocks for one slot, send each to half the net
  tamper_history  rewrite an already-confirmed block (optionally re-signing
                  the suffix) in the copy the end-of-run audit replays; sync
                  still serves the node's own blocks
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import random
from dataclasses import dataclass, field
from typing import Optional

from .canonical import _require, _require_choice, _require_count, _require_int, _require_str, dumps_validated, sha256_bytes
from .chain import (
    ORDERING_MODES,
    Block,
    BlockHeader,
    ChainState,
    GenesisConfig,
    detect_equivocation,
    produce_block,
    tx_tree_root,
)
from .errors import ConfigError, InvalidBody
from .keys import SigningKey
from .merkle import MerkleLog
from .model import (
    DatasetDescriptor,
    FileRef,
    PublishDataset,
    RegisterProgram,
    RegisterStorage,
    sign_transaction,
)

# -- configuration -----------------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    kind: str
    handler: str
    from_slot: int = 0
    to_slot: int = 0
    slot: int = 0
    height: int = 0
    resign: int = 0


@dataclass(frozen=True)
class SimConfig:
    seed: int
    handler_ids: tuple
    slot_duration_ms: int
    duration_slots: int
    ordering_mode: str = "fixed"
    genesis_time: int = 1_000_000_000_000
    latency_min: int = 0
    latency_max: int = 0
    drop_probability: float = 0.0
    txs_per_slot: int = 1
    faults: tuple = ()


# fields each fault kind takes besides kind and handler; all are integers >= 0
_FAULT_FIELDS = {
    "offline": ("from_slot", "to_slot"),
    "equivocate": ("slot",),
    "tamper_history": ("slot", "height", "resign"),
}

# Upper bounds on a config's counts, checked before anything of that size is
# built: far above the configs of the tests and the benchmark (at most 7
# handlers, 50 slots and 3 txs per slot) and a 192-slot sweep, and low enough
# that a one-line config cannot exhaust memory.
_MAX_HANDLERS = 32
_MAX_DURATION_SLOTS = 4096
_MAX_TXS_PER_SLOT = 16

_CONFIG_KEYS = {"seed", "handlers", "slot_duration_ms", "duration_slots", "ordering_mode", "genesis_time",
                "latency_ms", "drop_probability", "txs_per_slot", "faults"}


def _fault_from_obj(obj, handler_ids) -> FaultSpec:
    _require(isinstance(obj, dict), "fault entries must be objects")
    kind, handler = obj.get("kind"), obj.get("handler")
    _require(isinstance(kind, str) and kind in _FAULT_FIELDS, "unknown fault kind {!r}", kind)
    _require(handler in handler_ids, "fault names unknown handler {!r}", handler)
    names = _FAULT_FIELDS[kind]
    if set(obj) != {"kind", "handler", *names}:
        raise InvalidBody(f"{kind} fault takes handler, {', '.join(names)}")
    values = {name: _require_count(obj[name], f"{kind} {name}") for name in names}
    _require(values.get("from_slot", 0) <= values.get("to_slot", 0), "offline fault needs from_slot <= to_slot")
    _require(values.get("resign", 0) in (0, 1), "tamper resign must be 0 or 1")
    return FaultSpec(kind=kind, handler=handler, **values)


def sim_config_from_obj(obj) -> SimConfig:
    """Read a simulation config; every rejection is a ConfigError."""
    try:
        return _sim_config_from_obj(obj)
    except InvalidBody as exc:
        raise ConfigError(str(exc)) from exc


def _sim_config_from_obj(obj) -> SimConfig:
    _require(isinstance(obj, dict), "simulation config must be an object")
    unknown = sorted(set(obj) - _CONFIG_KEYS)
    _require(not unknown, "unknown config keys {}", unknown)
    missing = sorted({"seed", "handlers", "slot_duration_ms", "duration_slots"} - set(obj))
    _require(not missing, "missing config keys {}", missing)
    seed = _require_int(obj["seed"], "seed")
    handlers = obj["handlers"]  # a list of ids, or a count of ids h0, h1, ...
    count = len(handlers) if isinstance(handlers, list) else _require_int(handlers, "handlers")
    _require(1 <= count <= _MAX_HANDLERS, "handlers must number from 1 to {}", _MAX_HANDLERS)
    if isinstance(handlers, list):
        handler_ids = tuple(_require_str(h, "handler id") for h in handlers)
        _require(len(set(handler_ids)) == len(handler_ids), "handler ids must be unique")
        dumps_validated(handler_ids)  # each id is hashed into its key and signed into the genesis as UTF-8
    else:
        handler_ids = tuple(f"h{i}" for i in range(handlers))
    slot_ms = _require_int(obj["slot_duration_ms"], "slot_duration_ms")
    duration = _require_int(obj["duration_slots"], "duration_slots")
    _require(slot_ms >= 1 and duration >= 1, "slot_duration_ms and duration_slots must be >= 1")
    _require(duration <= _MAX_DURATION_SLOTS, "duration_slots must be <= {}", _MAX_DURATION_SLOTS)
    mode = _require_choice(obj.get("ordering_mode", "fixed"), ORDERING_MODES, "ordering_mode")
    genesis_time = _require_count(obj.get("genesis_time", 1_000_000_000_000), "genesis_time")
    latency = obj.get("latency_ms", {"min": 0, "max": 0})
    _require(isinstance(latency, dict) and set(latency) == {"max", "min"}, "latency_ms must be {min, max}")
    lo, hi = _require_int(latency["min"], "latency_ms.min"), _require_int(latency["max"], "latency_ms.max")
    _require(0 <= lo <= hi, "latency_ms needs 0 <= min <= max")
    drop = obj.get("drop_probability", 0.0)
    _require(
        isinstance(drop, (int, float)) and not isinstance(drop, bool) and 0 <= drop <= 1,
        "drop_probability must be in [0, 1]",
    )
    txs = _require_int(obj.get("txs_per_slot", 1), "txs_per_slot")
    _require(0 <= txs <= _MAX_TXS_PER_SLOT, "txs_per_slot must be in [0, {}]", _MAX_TXS_PER_SLOT)
    faults = obj.get("faults", [])
    _require(isinstance(faults, list), "faults must be a list")
    faults = tuple(_fault_from_obj(f, handler_ids) for f in faults)
    tampered = [f.handler for f in faults if f.kind == "tamper_history"]
    _require(len(set(tampered)) == len(tampered), "at most one tamper_history fault per handler")
    return SimConfig(
        seed=seed,
        handler_ids=handler_ids,
        slot_duration_ms=slot_ms,
        duration_slots=duration,
        ordering_mode=mode,
        genesis_time=genesis_time,
        latency_min=lo,
        latency_max=hi,
        drop_probability=float(drop),
        txs_per_slot=txs,
        faults=faults,
    )


def handler_key(seed: int, handler_id: str) -> SigningKey:
    return SigningKey.from_seed(f"sim:{seed}:handler:{handler_id}".encode())


def client_key(seed: int) -> SigningKey:
    return SigningKey.from_seed(f"sim:{seed}:client".encode())


def genesis_for(config: SimConfig) -> GenesisConfig:
    handlers = tuple((hid, handler_key(config.seed, hid).public_hex) for hid in config.handler_ids)
    return GenesisConfig(
        handlers=handlers,
        slot_duration_ms=config.slot_duration_ms,
        ordering_mode=config.ordering_mode,
        genesis_time=config.genesis_time,
    )


# -- history rewriting (the tamper fault) --------------------------------------------


def tamper_target(blocks, height: int):
    """The transaction a tamper at height rewrites: the first of confirmed
    block[height], which must carry a dataset. Raises ConfigError if there
    is none."""
    if not 0 <= height < len(blocks):
        raise ConfigError(f"tamper height {height} is not a confirmed block (head is {len(blocks) - 1})")
    txs = blocks[height].transactions
    if not txs:
        raise ConfigError(f"block {height} has no transactions to tamper with")
    if not hasattr(txs[0].body, "dataset"):
        raise ConfigError("tamper expects a dataset-carrying first transaction")
    return txs[0]


def rewrite_history(blocks, height: int, key: SigningKey, resign: int):
    """A forged copy of the chain with block[height]'s first tx mutated.

    resign=0 keeps every header byte, so the tampered block no longer
    matches its own tx_root. resign=1 rebuilds commitments and re-signs
    every header from the tampered height with the forger's key, leaving
    creator fields alone, so headers whose creator key differs stop
    verifying instead.
    """
    blocks = list(blocks)
    tx0 = tamper_target(blocks, height)
    target = blocks[height]
    body = tx0.body
    extra = dict(body.dataset.extra)
    extra["tampered"] = "1"
    new_body = dataclasses.replace(body, dataset=dataclasses.replace(body.dataset, extra=extra))
    if resign:
        new_tx = sign_transaction(new_body, key, created_at=tx0.created_at)
    else:
        new_tx = dataclasses.replace(tx0, body=new_body)
    new_txs = (new_tx,) + target.transactions[1:]

    if not resign:
        blocks[height] = Block(header=target.header, transactions=new_txs)
        return blocks

    log = MerkleLog()
    for block in blocks[:height]:
        for tx in block.transactions:
            log.append_leaf_hash(tx.leaf_hash)
    prev_hash = blocks[height].header.prev_block_hash
    for h in range(height, len(blocks)):
        txs = new_txs if h == height else blocks[h].transactions
        for tx in txs:
            log.append_leaf_hash(tx.leaf_hash)
        old = blocks[h].header
        unsigned = dataclasses.replace(
            old,
            prev_block_hash=prev_hash,
            tx_root=tx_tree_root([tx.leaf_hash for tx in txs]),
            registry_root=log.root().hex(),
            registry_size=log.size,
            signature="0" * 128,
        )
        signed = dataclasses.replace(unsigned, signature=key.sign(unsigned.signing_bytes).hex())
        blocks[h] = Block(header=signed, transactions=txs)
        prev_hash = signed.hash
    return blocks


# -- nodes ------------------------------------------------------------------------------


class SimNode:
    def __init__(self, node_id: str, key: SigningKey, genesis: GenesisConfig):
        self.node_id = node_id
        self.key = key
        self.state = ChainState(genesis)
        self.seen_headers = {}  # (creator, slot) -> header
        self.evidence = {}  # (creator, slot) -> (header, header), the two conflicting headers
        self.pending = {}  # height -> block waiting for its predecessor
        self.checkpoints = [self.state.checkpoint()]
        self.awaiting_sync = False  # reconnected, no sync response seen yet
        self.tamper: Optional[FaultSpec] = None
        self.tamper_active = False

    def export_chain(self):
        if self.tamper_active and self.tamper is not None:
            return rewrite_history(
                self.state.blocks, self.tamper.height, self.key, self.tamper.resign
            )
        return list(self.state.blocks)

    def register_header(self, header: BlockHeader, config: GenesisConfig):
        """Track one header per (creator, slot); a conflicting second one is
        equivocation evidence. Returns the new conflicting pair, once per
        (creator, slot), or None."""
        key = (header.creator, header.slot)
        prev = self.seen_headers.get(key)
        if prev is None:
            self.seen_headers[key] = header
            return None
        if key in self.evidence or detect_equivocation(prev, header, config) is None:
            return None
        self.evidence[key] = (prev, header)
        return self.evidence[key]

    def try_apply(self, block: Block):
        """Apply if it extends the head, then any pending blocks that follow
        it; returns the block's verdict."""
        verdict = self.state.receive_block(block)
        if verdict.ok:
            self.checkpoints.append(self.state.checkpoint())
            nxt = self.pending.pop(self.state.head_height + 1, None)
            if nxt is not None:
                self.try_apply(nxt)
        return verdict


# -- the simulator -----------------------------------------------------------------------


PRIORITY_DELIVER = 0
PRIORITY_TICK = 1


@dataclass
class SimTrace:
    events: list = field(default_factory=list)

    def log(self, obj):
        self.events.append(obj)

    def to_jsonl_bytes(self) -> bytes:
        return b"".join(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode() + b"\n" for obj in self.events)


def _short(hex_digest: str) -> str:
    return hex_digest[:12]


class Simulation:
    def __init__(self, config: SimConfig):
        self.config = config
        self.genesis = genesis_for(config)
        self.rng = random.Random(config.seed)
        self.trace = SimTrace()
        self.heap = []
        self.seq = 0
        self.halted = False
        self.client = client_key(config.seed)
        self.nodes = {
            hid: SimNode(hid, handler_key(config.seed, hid), self.genesis)
            for hid in config.handler_ids
        }
        self.offline_windows = {}  # handler -> (from_slot, to_slot)
        self.equivocations = set()  # (handler, slot)
        for fault in config.faults:
            if fault.kind == "offline":
                self.offline_windows[fault.handler] = (fault.from_slot, fault.to_slot)
            elif fault.kind == "equivocate":
                self.equivocations.add((fault.handler, fault.slot))
            elif fault.kind == "tamper_history":
                self.nodes[fault.handler].tamper = fault

    # -- scheduling --

    def push(self, time_ms: int, priority: int, sender: str, payload):
        heapq.heappush(self.heap, (time_ms, priority, sender, self.seq, payload))
        self.seq += 1

    def send(self, time_ms: int, sender: str, receiver: str, msg, reliable: bool):
        latency = self.rng.randint(self.config.latency_min, self.config.latency_max)
        if not reliable and self.config.drop_probability > 0:
            if self.rng.random() < self.config.drop_probability:
                self.trace.log(
                    {"t": time_ms, "type": "drop", "from": sender, "to": receiver, "msg": msg[0]}
                )
                return
        self.push(time_ms + latency, PRIORITY_DELIVER, sender, ("deliver", receiver, msg))

    def broadcast_block(self, time_ms: int, sender: str, block: Block, receivers):
        for receiver in receivers:
            self.send(time_ms, sender, receiver, ("block", sender, block), reliable=False)

    def is_offline(self, node_id: str, slot: int) -> bool:
        window = self.offline_windows.get(node_id)
        return window is not None and window[0] <= slot <= window[1]

    # -- workload --

    def make_publish_body(self, slot: int, k: int) -> PublishDataset:
        ds_id = f"ds-{slot}-{k}"
        path = f"data/{ds_id}.jsonl"
        start = self.genesis.slot_start_time(slot)
        return PublishDataset(
            dataset=DatasetDescriptor(
                dataset_id=ds_id,
                kind="primary",
                storage_id="sim-storage",
                file_refs=(
                    FileRef(
                        path=path,
                        content_hash=sha256_bytes(path.encode()).hex(),
                        size=1,
                        format="jsonl",
                    ),
                ),
                facility_id="SIM",
                time_range=(start, self.genesis.slot_start_time(slot + 1)),
                detector_geometry_hash=sha256_bytes(b"sim-geometry").hex(),
                extra={},
            )
        )

    def sign(self, body, created_at: int):
        """A client transaction, with what every node computes of it computed
        now, in a replay's order: CPython keeps a class's instance dicts
        compact only while instances add their attributes in one order soon
        after creation, and the workload is signed before any node reads it."""
        tx = sign_transaction(body, self.client, created_at=created_at)
        tx.leaf_hash, tx.tx_id_ok
        return tx

    def schedule_workload(self):
        bootstrap = [
            RegisterStorage(
                storage_id="sim-storage",
                adapter_kind="jsonl",
                base_uri="/sim/storage",
                storage_pubkey=self.client.public_hex,
            ),
            RegisterProgram(
                program_id="sim-program",
                version="1.0",
                code_hash=SigningKey.from_seed(b"sim-code").public_hex,
            ),
        ]
        txs = [self.sign(body, self.config.genesis_time) for body in bootstrap]
        for slot in range(self.config.duration_slots):
            t = slot * self.config.slot_duration_ms
            slot_txs = list(txs) if slot == 0 else []
            for k in range(self.config.txs_per_slot):
                slot_txs.append(self.sign(self.make_publish_body(slot, k), self.genesis.slot_start_time(slot) + k + 1))
            if slot_txs:
                self.push(t, PRIORITY_DELIVER, "client", ("txs", slot, tuple(slot_txs)))

    # -- event handlers --

    def run(self, audit: bool = True) -> SimTrace:
        self.schedule_workload()
        for slot in range(self.config.duration_slots + 1):
            self.push(slot * self.config.slot_duration_ms, PRIORITY_TICK, "~tick", ("tick", slot))
        while self.heap:
            time_ms, _, _, _, payload = heapq.heappop(self.heap)
            kind = payload[0]
            if kind == "txs":
                self.handle_txs(time_ms, payload[1], payload[2])
            elif kind == "tick":
                self.handle_tick(time_ms, payload[1])
            elif kind == "deliver":
                self.handle_delivery(time_ms, payload[1], payload[2])
        if audit:
            self.audit()
        self.finals()
        return self.trace

    def handle_txs(self, time_ms: int, slot: int, txs):
        self.trace.log({"t": time_ms, "type": "txs", "slot": slot, "count": len(txs)})
        for node_id in sorted(self.nodes):
            if self.is_offline(node_id, slot):
                continue
            for tx in txs:
                self.nodes[node_id].state.submit(tx)

    def handle_tick(self, time_ms: int, slot: int):
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            window = self.offline_windows.get(node_id)
            if window is not None and slot == window[1] + 1:
                self.trace.log({"t": time_ms, "type": "reconnect", "node": node_id, "slot": slot})
                node.awaiting_sync = True
                self.request_sync(time_ms, node_id)
            if node.tamper is not None and slot == node.tamper.slot and not node.tamper_active:
                tamper_target(node.state.blocks, node.tamper.height)  # a ConfigError if there is none
                node.tamper_active = True
                self.trace.log(
                    {
                        "t": time_ms,
                        "type": "tamper",
                        "node": node_id,
                        "height": node.tamper.height,
                        "resign": node.tamper.resign,
                    }
                )

        if slot >= self.config.duration_slots:
            return
        equiv = None
        for node_id in sorted(self.nodes):
            if (node_id, slot) in self.equivocations:
                scheduled = self.nodes[node_id].state.scheduled_handler(slot)
                if scheduled != node_id:
                    raise ConfigError(
                        f"equivocate fault: slot {slot} belongs to {scheduled}, not {node_id}"
                    )
                if self.is_offline(node_id, slot):
                    raise ConfigError(f"equivocator {node_id} is offline at slot {slot}")
                equiv = node_id
        if self.halted:
            return
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            if self.is_offline(node_id, slot):
                continue
            if node.state.scheduled_handler(slot) != node_id:
                continue
            if node.state.last_slot() >= slot:
                continue
            if node.pending or node.awaiting_sync:
                # the node knows it is behind; producing here would fork it off
                self.trace.log({"t": time_ms, "type": "abstain", "node": node_id, "slot": slot})
                continue
            block = produce_block(node.state, slot, node.key, now=self.genesis.slot_start_time(slot))
            receivers = sorted(set(self.nodes) - {node_id})
            record = {"t": time_ms, "node": node_id, "slot": slot}
            if node_id == equiv:
                # the second block must be built before the first is applied,
                # or the slot is no longer after the head's
                second = produce_block(node.state, slot, node.key, now=self.genesis.slot_start_time(slot) + 1)
                half = len(receivers) // 2
                sends = [(block, receivers[:half]), (second, receivers[half:])]
                record.update(
                    type="produce_equivocation",
                    blocks=[_short(block.header.hash), _short(second.header.hash)],
                )
            else:
                sends = [(block, receivers)]
                record.update(
                    type="produce", height=block.header.height, block=_short(block.header.hash)
                )
            node.try_apply(block)
            node.register_header(block.header, self.genesis)
            self.trace.log(record)
            for sent, to in sends:
                self.broadcast_block(time_ms, node_id, sent, to)

    def handle_delivery(self, time_ms: int, receiver: str, msg):
        node = self.nodes[receiver]
        slot = time_ms // self.config.slot_duration_ms
        if self.is_offline(receiver, slot):
            self.trace.log({"t": time_ms, "type": "offline_ignore", "node": receiver, "msg": msg[0]})
            return
        kind = msg[0]
        if kind == "block":
            _, sender, block = msg
            self.note_header(time_ms, receiver, block.header)
            verdict = node.try_apply(block)
            if verdict.ok:
                self.log_apply(time_ms, receiver, block)
                return
            height = block.header.height
            if height > node.state.head_height + 1:
                node.pending[height] = block
                self.trace.log(
                    {"t": time_ms, "type": "gap", "node": receiver, "height": height, "head": node.state.head_height}
                )
                if not node.awaiting_sync:  # the reconnect's requests already cover the gap
                    self.send_sync_req(time_ms, receiver, sender)
            elif verdict.reason == "BadLink" and height == node.state.head_height + 1:
                # same-height fork: compare notes with the sender
                self.trace.log(
                    {"t": time_ms, "type": "fork", "node": receiver, "height": height, "reason": verdict.reason}
                )
                self.send_sync_req(time_ms, receiver, sender)
            else:
                self.trace.log(
                    {"t": time_ms, "type": "reject", "node": receiver, "height": height, "reason": verdict.reason}
                )
        elif kind == "sync_req":
            _, requester, their_head = msg
            blocks = [b for b in node.state.blocks if b.header.height >= max(0, their_head)]
            pairs = tuple(node.evidence[key] for key in sorted(node.evidence))
            self.trace.log(
                {"t": time_ms, "type": "sync_resp", "from": receiver, "to": requester, "blocks": len(blocks)}
            )
            self.send(time_ms, receiver, requester, ("sync_resp", receiver, tuple(blocks), pairs), reliable=True)
        elif kind == "sync_resp":
            _, sender, blocks, pairs = msg
            node.awaiting_sync = False
            for a, b in pairs:
                self.note_header(time_ms, receiver, a)
                self.note_header(time_ms, receiver, b)
            for block in blocks:
                self.note_header(time_ms, receiver, block.header)
                if block.header.height == node.state.head_height + 1 and node.try_apply(block).ok:
                    self.log_apply(time_ms, receiver, block)
        elif kind == "evidence":
            _, a, b = msg
            self.note_header(time_ms, receiver, a)
            self.note_header(time_ms, receiver, b)

    def log_apply(self, time_ms: int, node_id: str, block: Block):
        self.trace.log(
            {
                "t": time_ms,
                "type": "apply",
                "node": node_id,
                "height": block.header.height,
                "block": _short(block.header.hash),
            }
        )

    def note_header(self, time_ms: int, node_id: str, header: BlockHeader):
        pair = self.nodes[node_id].register_header(header, self.genesis)
        if pair is None:
            return
        self.trace.log(
            {"t": time_ms, "type": "evidence", "node": node_id, "creator": header.creator, "slot": header.slot}
        )
        if not self.halted:
            self.halted = True
            self.trace.log({"t": time_ms, "type": "halt", "node": node_id})
        for other in sorted(set(self.nodes) - {node_id}):
            self.send(time_ms, node_id, other, ("evidence", pair[0], pair[1]), reliable=True)

    def send_sync_req(self, time_ms: int, requester: str, responder: str):
        if responder == requester or responder not in self.nodes:
            return
        head = self.nodes[requester].state.head_height
        self.trace.log({"t": time_ms, "type": "sync_req", "from": requester, "to": responder, "head": head})
        self.send(time_ms, requester, responder, ("sync_req", requester, head), reliable=True)

    def request_sync(self, time_ms: int, node_id: str):
        for other in sorted(set(self.nodes) - {node_id}):
            self.send_sync_req(time_ms, node_id, other)

    # -- end-of-run verification --

    def replay_served(self, chain):
        """Replay a served chain from genesis.

        Returns (failure, log): failure is None or the first rejected block's
        height and reason, and log is the registry log over every
        transaction served, rejected blocks included.
        """
        replay = ChainState(self.genesis)
        replay.blocks = None  # the chain is served; the replay keeps head state only
        for i, block in enumerate(chain):
            verdict = replay.receive_block(block)
            if not verdict.ok:
                for served in chain[i:]:
                    for tx in served.transactions:
                        replay.registry_log.append_leaf_hash(tx.leaf_hash)
                return {"height": block.header.height, "reason": verdict.reason}, replay.registry_log
        return None, replay.registry_log

    def audit(self):
        tamperers = {f.handler for f in self.config.faults if f.kind == "tamper_history"}
        verifiers = [n for n in sorted(self.nodes) if n not in tamperers]
        # Each peer's chain is exported once. Blocks are immutable, so the same block objects in
        # the same order replay to the same log: one replay per distinct served chain, and one memo
        # of its log's roots by size, stand for every verifier of every peer that serves it. A
        # replay still applies every block to its own state, but a block's verdict at a parent
        # head is computed once and shared by the nodes and other replays at that head.
        replays = {}  # ids of the served blocks -> (chain, failure, log, roots), built on first use
        served = {}  # peer -> the replay of the chain it serves
        for verifier in verifiers:
            own = self.nodes[verifier]
            for peer in sorted(self.nodes):
                if peer == verifier:
                    continue
                if peer not in served:
                    chain = self.nodes[peer].export_chain()
                    key = tuple(map(id, chain))
                    if key not in replays:
                        # kept with its chain, so no id in the key is reused during the audit
                        replays[key] = (chain, *self.replay_served(chain), {})
                    served[peer] = replays[key]
                _, failure, peer_log, roots = served[peer]
                # The auditor holds the peer's whole log, so a checkpoint is
                # checked against the log's own root at the checkpoint's size;
                # a consistency proof would only re-derive that root. A size
                # past the log's end has no root, and fails.
                failed_checkpoints = set()
                for cp in own.checkpoints:
                    size = cp.registry_size
                    if size not in roots and size <= peer_log.size:
                        roots[size] = peer_log.root_at(size).hex()
                    if roots.get(size) != cp.registry_root:
                        failed_checkpoints.add(size)
                self.trace.log(
                    {
                        "type": "audit",
                        "verifier": verifier,
                        "peer": peer,
                        "replay": failure if failure else "ok",
                        "checkpoints": len(own.checkpoints),
                        "failed_checkpoints": sorted(failed_checkpoints),
                    }
                )

    def finals(self):
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            self.trace.log(
                {
                    "type": "final",
                    "node": node_id,
                    "height": node.state.head_height,
                    "head": node.state.head_hash(),
                    "registry_root": node.state.registry_log.root().hex(),
                    "registry_size": node.state.registry_log.size,
                    "pool": len(node.state.pending_pool),
                    "evidence": [[c, s] for c, s in sorted(node.evidence)],
                }
            )


def run_simulation(config: SimConfig, audit: bool = True) -> SimTrace:
    """Run one scripted network simulation; audit=False skips the final
    cross-replay audit (useful when only convergence is examined)."""
    return Simulation(config).run(audit=audit)
