"""Permissioned chain: slot-scheduled block production over the registry log.

A fixed roster of handlers takes turns producing blocks, one slot at a
time. Heights stay dense while slots may gap (a missed slot leaves no
block). Every header commits to the block's own transaction tree and to
the cumulative registry log, so any historical rewrite breaks either a
signature, a tx root, or a registry commitment on replay.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, replace
from typing import Optional

from .canonical import (
    _require,
    digest_from_hex,
    dumps_canonical,
    dumps_validated,
    is_hex64,
    is_hex128,
    loads_canonical,
    make_dirs,
    read_canonical_file,
    sha256_bytes,
    write_canonical_file,
)
from .errors import InvalidBody, IoError, NotScheduled
from .keys import SigningKey, verify_signature
from .merkle import MerkleLog
from .model import (
    ACCEPT,
    PmdTransaction,
    RegistryState,
    Verdict,
    tx_from_obj,
    tx_to_obj,
    validate_transaction,
)

ORDERING_MODES = ("fixed", "reshuffled")

_BLOCK_FILE_RE = re.compile(r"block_([0-9]+)\.json")


# -- genesis ---------------------------------------------------------------


@dataclass(frozen=True)
class GenesisConfig:
    handlers: tuple  # ((handler_id, public_key_hex), ...) in roster order
    slot_duration_ms: int
    ordering_mode: str
    genesis_time: int  # nanoseconds


def validate_genesis(config: GenesisConfig) -> None:
    _require(isinstance(config.handlers, (list, tuple)) and len(config.handlers) >= 1, "need at least one handler")
    seen = set()
    for entry in config.handlers:
        _require(isinstance(entry, (list, tuple)) and len(entry) == 2, "handler entries must be (id, public key) pairs")
        hid, pub = entry
        _require(isinstance(hid, str) and hid != "", "handler_id must be a non-empty string")
        _require(hid not in seen, f"duplicate handler_id {hid}")
        seen.add(hid)
        _require(is_hex64(pub), "handler public key must be 64 lowercase hex chars")
    _require(isinstance(config.slot_duration_ms, int) and not isinstance(config.slot_duration_ms, bool), "slot_duration_ms must be an integer")
    _require(config.slot_duration_ms > 0, "slot_duration_ms must be > 0")
    _require(config.ordering_mode in ORDERING_MODES, f"ordering_mode must be one of {ORDERING_MODES}")
    _require(isinstance(config.genesis_time, int) and not isinstance(config.genesis_time, bool), "genesis_time must be an integer")
    _require(config.genesis_time >= 0, "genesis_time must be >= 0")


def genesis_to_obj(config: GenesisConfig) -> dict:
    validate_genesis(config)
    return {
        "genesis_time": config.genesis_time,
        "handlers": [{"handler_id": hid, "public_key": pub} for hid, pub in config.handlers],
        "ordering_mode": config.ordering_mode,
        "slot_duration_ms": config.slot_duration_ms,
    }


def genesis_from_obj(obj) -> GenesisConfig:
    _require(isinstance(obj, dict), "genesis must be an object")
    _require(set(obj) == {"genesis_time", "handlers", "ordering_mode", "slot_duration_ms"}, "genesis keys malformed")
    handlers = obj["handlers"]
    _require(isinstance(handlers, list), "handlers must be a list")
    entries = []
    for h in handlers:
        _require(isinstance(h, dict) and set(h) == {"handler_id", "public_key"}, "handler entry malformed")
        entries.append((h["handler_id"], h["public_key"]))
    config = GenesisConfig(
        handlers=tuple(entries),
        slot_duration_ms=obj["slot_duration_ms"],
        ordering_mode=obj["ordering_mode"],
        genesis_time=obj["genesis_time"],
    )
    validate_genesis(config)
    return config


def genesis_bytes(config: GenesisConfig) -> bytes:
    return dumps_canonical(genesis_to_obj(config))


def genesis_hash(config: GenesisConfig) -> str:
    return sha256_bytes(genesis_bytes(config)).hex()


# -- headers and blocks ------------------------------------------------------


@dataclass(frozen=True)
class BlockHeader:
    height: int
    slot: int
    prev_block_hash: str
    tx_root: str
    registry_root: str
    registry_size: int
    timestamp: int  # nanoseconds
    creator: str  # handler_id
    signature: str  # hex, over the canonical header bytes minus this field


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _header_core_obj(h: BlockHeader) -> dict:
    _require(_is_count(h.height), "height must be >= 0")
    _require(_is_count(h.slot), "slot must be >= 0")
    _require(is_hex64(h.prev_block_hash), "prev_block_hash malformed")
    _require(is_hex64(h.tx_root), "tx_root malformed")
    _require(is_hex64(h.registry_root), "registry_root malformed")
    _require(_is_count(h.registry_size), "registry_size must be >= 0")
    _require(_is_count(h.timestamp), "timestamp must be >= 0")
    _require(isinstance(h.creator, str) and h.creator != "", "creator must be a non-empty string")
    return {
        "creator": h.creator,
        "height": h.height,
        "prev_block_hash": h.prev_block_hash,
        "registry_root": h.registry_root,
        "registry_size": h.registry_size,
        "slot": h.slot,
        "timestamp": h.timestamp,
        "tx_root": h.tx_root,
    }


def header_signing_bytes(h: BlockHeader) -> bytes:
    return dumps_validated(_header_core_obj(h))


def header_to_obj(h: BlockHeader) -> dict:
    obj = _header_core_obj(h)
    _require(is_hex128(h.signature), "header signature malformed")
    obj["signature"] = h.signature
    return obj


_HEADER_KEYS = {
    "creator",
    "height",
    "prev_block_hash",
    "registry_root",
    "registry_size",
    "signature",
    "slot",
    "timestamp",
    "tx_root",
}


def header_from_obj(obj) -> BlockHeader:
    _require(isinstance(obj, dict), "header must be an object")
    _require(set(obj) == _HEADER_KEYS, f"header keys must be exactly {sorted(_HEADER_KEYS)}")
    h = BlockHeader(
        height=obj["height"],
        slot=obj["slot"],
        prev_block_hash=obj["prev_block_hash"],
        tx_root=obj["tx_root"],
        registry_root=obj["registry_root"],
        registry_size=obj["registry_size"],
        timestamp=obj["timestamp"],
        creator=obj["creator"],
        signature=obj["signature"],
    )
    header_to_obj(h)  # field validation
    return h


def header_hash(h: BlockHeader) -> str:
    """Hash over the signed header bytes; the chain-link identity of a block."""
    return sha256_bytes(dumps_validated(header_to_obj(h))).hex()


@dataclass(frozen=True)
class Block:
    header: BlockHeader
    transactions: tuple


def block_to_obj(block: Block) -> dict:
    return {
        "header": header_to_obj(block.header),
        "transactions": [tx_to_obj(tx) for tx in block.transactions],
    }


def block_from_obj(obj) -> Block:
    _require(isinstance(obj, dict) and set(obj) == {"header", "transactions"}, "block keys malformed")
    txs = obj["transactions"]
    _require(isinstance(txs, list), "transactions must be a list")
    return Block(
        header=header_from_obj(obj["header"]),
        transactions=tuple(tx_from_obj(t) for t in txs),
    )


def block_bytes(block: Block) -> bytes:
    return dumps_canonical(block_to_obj(block))


def block_from_bytes(data: bytes) -> Block:
    return block_from_obj(loads_canonical(data))


def tx_tree_root(tx_bytes_list) -> str:
    log = MerkleLog()
    for data in tx_bytes_list:
        log.append(data)
    return log.root().hex()


# -- scheduling ----------------------------------------------------------------


def seeded_permutation(items, seed: bytes):
    """Fisher-Yates driven by counter-mode SHA-256 over the seed."""
    out = list(items)
    counter = 0
    for i in range(len(out) - 1, 0, -1):
        draw = int.from_bytes(sha256_bytes(seed + counter.to_bytes(8, "big")), "big")
        counter += 1
        j = draw % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def schedule(slot: int, config: GenesisConfig, prev_cycle_seed: bytes) -> str:
    """Handler scheduled to produce at a slot.

    fixed mode ignores the seed; reshuffled mode permutes the roster per
    rotation cycle with the given seed (the chain supplies the header hash
    of the last block before the cycle, or the genesis hash).
    """
    _require(isinstance(slot, int) and slot >= 0, "slot must be >= 0")
    ids = [hid for hid, _ in config.handlers]
    n = len(ids)
    if config.ordering_mode == "fixed":
        return ids[slot % n]
    return seeded_permutation(ids, prev_cycle_seed)[slot % n]


# -- checkpoints, evidence ------------------------------------------------------


@dataclass(frozen=True)
class Checkpoint:
    """Audit anchor a client stores to later demand consistency proofs."""

    registry_root: str
    registry_size: int
    height: int  # -1 when the chain has no blocks yet
    head_hash: str  # genesis hash when the chain has no blocks yet

    def to_obj(self) -> dict:
        return {
            "head_hash": self.head_hash,
            "height": self.height,
            "registry_root": self.registry_root,
            "registry_size": self.registry_size,
        }

    @classmethod
    def from_obj(cls, obj) -> "Checkpoint":
        _require(isinstance(obj, dict), "checkpoint must be an object")
        _require(set(obj) == {"head_hash", "height", "registry_root", "registry_size"}, "checkpoint keys malformed")
        # the type, not a value test: True is an int that names block 1, and -1.0 == -1
        _require(type(obj["height"]) is int and obj["height"] >= -1, "checkpoint height malformed")
        _require(_is_count(obj["registry_size"]), "checkpoint registry_size malformed")
        _require(is_hex64(obj["registry_root"]), "checkpoint registry_root malformed")
        _require(is_hex64(obj["head_hash"]), "checkpoint head_hash malformed")
        return cls(
            registry_root=obj["registry_root"],
            registry_size=obj["registry_size"],
            height=obj["height"],
            head_hash=obj["head_hash"],
        )


@dataclass(frozen=True)
class EquivocationEvidence:
    creator: str
    slot: int
    header_hashes: tuple  # the two conflicting header hashes, sorted

    def to_obj(self) -> dict:
        return {
            "creator": self.creator,
            "header_hashes": list(self.header_hashes),
            "slot": self.slot,
        }


def detect_equivocation(
    header_a: BlockHeader, header_b: BlockHeader, config: GenesisConfig
) -> Optional[EquivocationEvidence]:
    """Evidence iff one roster key signed two different headers for one slot."""
    if header_a.creator != header_b.creator or header_a.slot != header_b.slot:
        return None
    roster = dict(config.handlers)
    pub = roster.get(header_a.creator)
    if pub is None:
        return None
    try:
        hash_a = header_hash(header_a)
        hash_b = header_hash(header_b)
        if hash_a == hash_b:
            return None
        for h in (header_a, header_b):
            if not verify_signature(pub, header_signing_bytes(h), bytes.fromhex(h.signature)):
                return None
    except (InvalidBody, ValueError):
        return None
    return EquivocationEvidence(
        creator=header_a.creator,
        slot=header_a.slot,
        header_hashes=tuple(sorted((hash_a, hash_b))),
    )


# -- chain state -------------------------------------------------------------------


class ChainState:
    """One node's view of the chain plus its pending transaction pool."""

    def __init__(self, config: GenesisConfig):
        validate_genesis(config)
        self.config = config
        self.blocks: list = []
        self.registry_log = MerkleLog()
        self.registry = RegistryState()
        self.pending_pool: dict = {}  # tx_id -> PmdTransaction
        self._genesis_hash = genesis_hash(config)
        self._head_hash = self._genesis_hash  # apply_block keeps it current
        self._cycle_seed = (-1, "")  # (first slot, seed) of the head block's rotation cycle
        self._roster = dict(config.handlers)

    # -- inspection --

    @property
    def genesis_hash_hex(self) -> str:
        return self._genesis_hash

    @property
    def head_height(self) -> int:
        return len(self.blocks) - 1

    def head_hash(self) -> str:
        return self._head_hash

    def last_slot(self) -> int:
        return self.blocks[-1].header.slot if self.blocks else -1

    def roster_key(self, handler_id: str) -> Optional[str]:
        return self._roster.get(handler_id)

    def slot_start_time(self, slot: int) -> int:
        return self.config.genesis_time + slot * self.config.slot_duration_ms * 1_000_000

    def checkpoint(self) -> Checkpoint:
        return Checkpoint(
            registry_root=self.registry_log.root().hex(),
            registry_size=self.registry_log.size,
            height=self.head_height,
            head_hash=self.head_hash(),
        )

    # -- scheduling --

    def _cycle_start(self, slot: int) -> int:
        n = len(self.config.handlers)
        return (slot // n) * n

    def seed_for_slot(self, slot: int) -> bytes:
        """The reshuffle seed of slot's rotation cycle: the hash of the last
        block before the cycle, or the genesis hash."""
        cycle_start = self._cycle_start(slot)
        if self.last_slot() < cycle_start:
            return digest_from_hex(self._head_hash)
        if self._cycle_seed[0] == cycle_start:
            return digest_from_hex(self._cycle_seed[1])
        for block in reversed(self.blocks):  # a cycle before the head's
            if block.header.slot < cycle_start:
                return digest_from_hex(header_hash(block.header))
        return digest_from_hex(self._genesis_hash)

    def scheduled_handler(self, slot: int) -> str:
        # fixed mode ignores the seed, so none is derived for it
        seed = self.seed_for_slot(slot) if self.config.ordering_mode == "reshuffled" else b""
        return schedule(slot, self.config, seed)

    # -- pool --

    def submit(self, tx: PmdTransaction) -> Verdict:
        """Admit a transaction to the pool; returns its verdict against the
        current confirmed state (an unconfirmable tx still pools, it may
        become valid once its dependencies confirm)."""
        try:
            tx.wire_bytes
        except InvalidBody as exc:
            return Verdict(False, "InvalidBody", str(exc))
        if tx.tx_id not in self.pending_pool:
            self.pending_pool[tx.tx_id] = tx
        return validate_transaction(tx, self.registry)

    def select_transactions(self):
        """Pool drain order used by producers: (created_at, tx_id), each
        transaction validated against the state left by its predecessors."""
        ordered = sorted(self.pending_pool.values(), key=lambda t: (t.created_at, t.tx_id))
        staged = self.registry.clone()
        accepted = []
        rejected = []
        for tx in ordered:
            verdict = validate_transaction(tx, staged)
            if verdict.ok:
                staged.apply(tx)
                accepted.append(tx)
            else:
                rejected.append((tx, verdict))
        return accepted, rejected

    # -- mutation --

    def apply_block(self, block: Block) -> None:
        """Append an already-validated block."""
        cycle_start = self._cycle_start(block.header.slot)
        if self.last_slot() < cycle_start:  # the block opens its cycle
            self._cycle_seed = (cycle_start, self._head_hash)
        self.blocks.append(block)
        self._head_hash = header_hash(block.header)
        for tx in block.transactions:
            self.registry_log.append(tx.wire_bytes)
            self.registry.apply(tx)
            self.pending_pool.pop(tx.tx_id, None)
        self.registry.built_to = (block.header.height, self.registry_log.size)

    def receive_block(self, block: Block) -> Verdict:
        verdict = validate_block(self, block)
        if verdict.ok:
            self.apply_block(block)
        return verdict


def produce_block(state: ChainState, slot: int, handler_key: SigningKey, now: int) -> Block:
    """Build and sign the block for a slot from the current pending pool."""
    handler_id = None
    for hid, pub in state.config.handlers:
        if pub == handler_key.public_hex:
            handler_id = hid
            break
    if handler_id is None:
        raise NotScheduled("key does not belong to any roster handler")
    if slot <= state.last_slot():
        raise NotScheduled(f"slot {slot} is not after the head block's slot {state.last_slot()}")
    scheduled = state.scheduled_handler(slot)
    if scheduled != handler_id:
        raise NotScheduled(f"slot {slot} belongs to {scheduled}, not {handler_id}")
    _require(isinstance(now, int) and now >= 0, "now must be a non-negative integer timestamp")

    accepted, _ = state.select_transactions()
    tx_bytes_list = [tx.wire_bytes for tx in accepted]
    registry_root, registry_size = state.registry_log.extended_root(tx_bytes_list)
    unsigned = BlockHeader(
        height=len(state.blocks),
        slot=slot,
        prev_block_hash=state.head_hash(),
        tx_root=tx_tree_root(tx_bytes_list),
        registry_root=registry_root.hex(),
        registry_size=registry_size,
        timestamp=now,
        creator=handler_id,
        signature="0" * 128,
    )
    signature = handler_key.sign(header_signing_bytes(unsigned)).hex()
    return Block(header=replace(unsigned, signature=signature), transactions=tuple(accepted))


def validate_block(state: ChainState, block: Block) -> Verdict:
    """Full admission check for the next block on this chain."""
    h = block.header
    try:
        header_to_obj(h)
    except InvalidBody as exc:
        return Verdict(False, "BadLink", f"malformed header: {exc}")

    if h.height != len(state.blocks):
        return Verdict(False, "BadLink", f"height {h.height}, expected {len(state.blocks)}")
    if h.prev_block_hash != state.head_hash():
        return Verdict(False, "BadLink", "prev_block_hash does not match head")
    if h.slot <= state.last_slot():
        return Verdict(False, "BadSlot", f"slot {h.slot} not after head slot {state.last_slot()}")
    scheduled = state.scheduled_handler(h.slot)
    if h.creator != scheduled:
        return Verdict(False, "NotScheduledHandler", f"slot {h.slot} belongs to {scheduled}, not {h.creator}")
    pub = state.roster_key(h.creator)
    if pub is None or not verify_signature(pub, header_signing_bytes(h), bytes.fromhex(h.signature)):
        return Verdict(False, "BadSignature", "header signature does not verify under roster key")

    try:
        tx_bytes_list = [tx.wire_bytes for tx in block.transactions]
    except InvalidBody as exc:
        return Verdict(False, "InvalidTransaction", f"malformed transaction: {exc}")
    if tx_tree_root(tx_bytes_list) != h.tx_root:
        return Verdict(False, "BadTxRoot", "tx_root does not match block transactions")

    staged = state.registry.clone()
    for i, tx in enumerate(block.transactions):
        verdict = validate_transaction(tx, staged)
        if not verdict.ok:
            return Verdict(False, "InvalidTransaction", f"tx {i} ({tx.tx_id[:12]}): {verdict.reason}: {verdict.detail}")
        staged.apply(tx)

    registry_root, registry_size = state.registry_log.extended_root(tx_bytes_list)
    if h.registry_root != registry_root.hex() or h.registry_size != registry_size:
        return Verdict(False, "BadRegistryCommitment", "registry root/size do not recompute over the extended log")
    return ACCEPT


# -- disk store ----------------------------------------------------------------


def save_genesis(chain_dir: str, config: GenesisConfig) -> None:
    make_dirs(chain_dir)
    write_canonical_file(os.path.join(chain_dir, "genesis.json"), genesis_to_obj(config))


def load_genesis(chain_dir: str) -> GenesisConfig:
    return genesis_from_obj(read_canonical_file(os.path.join(chain_dir, "genesis.json"), "genesis"))


def save_block_file(chain_dir: str, block: Block) -> str:
    path = os.path.join(chain_dir, f"block_{block.header.height}.json")
    write_canonical_file(path, block_to_obj(block))
    return path


def save_chain(state: ChainState, chain_dir: str) -> None:
    save_genesis(chain_dir, state.config)
    for block in state.blocks:
        save_block_file(chain_dir, block)


def list_block_heights(chain_dir: str) -> list:
    heights = []
    try:
        names = os.listdir(chain_dir)
    except OSError as exc:
        raise IoError(f"cannot list chain dir {chain_dir}: {exc}") from exc
    for name in names:
        m = _BLOCK_FILE_RE.fullmatch(name)
        if m:
            heights.append(int(m.group(1)))
    heights.sort()
    return heights


def load_block_file(chain_dir: str, height: int) -> Block:
    return block_from_obj(read_canonical_file(os.path.join(chain_dir, f"block_{height}.json"), "block file"))


def replay_chain(chain_dir: str):
    """Replay a stored chain with full validation.

    Returns (state, results, failure): state covers every validated block,
    results one (height, verdict) per examined block, failure the first
    (height, verdict) that did not validate (None for an honest chain).
    Raises IoError when files are missing or unreadable, InvalidBody when
    stored bytes are not canonical.
    """
    config = load_genesis(chain_dir)
    state = ChainState(config)
    heights = list_block_heights(chain_dir)
    if heights and heights != list(range(heights[0], heights[-1] + 1)):
        raise IoError(f"block files in {chain_dir} are not dense: {heights}")
    if heights and heights[0] != 0:
        raise IoError(f"chain store {chain_dir} does not start at height 0")
    results = []
    for height in heights:
        try:
            block = load_block_file(chain_dir, height)
        except InvalidBody as exc:
            verdict = Verdict(False, "InvalidBody", str(exc))
            results.append((height, verdict))
            return state, results, (height, verdict)
        verdict = validate_block(state, block)
        results.append((height, verdict))
        if not verdict.ok:
            return state, results, (height, verdict)
        state.apply_block(block)
    return state, results, None


def load_chain(chain_dir: str) -> ChainState:
    state, _, failure = replay_chain(chain_dir)
    if failure is not None:
        height, verdict = failure
        raise InvalidBody(f"chain invalid at height {height}: {verdict.reason}: {verdict.detail}")
    return state
