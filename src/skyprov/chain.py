"""Permissioned chain: slot-scheduled block production over the registry log.

A fixed roster of handlers takes turns producing blocks, one slot at a
time. Heights stay dense while slots may gap (a missed slot leaves no
block). Every header commits to the block's own transaction tree and to
the cumulative registry log, so any historical rewrite breaks either a
signature, a tx root, or a registry commitment on replay.
"""

from __future__ import annotations

import itertools
import json
import os
import re
from dataclasses import dataclass, replace
from typing import Optional

from .canonical import (
    _field_names,
    _require,
    _require_choice,
    _require_count,
    _require_hex64,
    _require_int,
    _require_keys,
    _require_str,
    digest_from_hex,
    dumps_validated,
    is_hex128,
    make_dirs,
    once,
    parse_failures,
    parse_json,
    read_file,
    read_part,
    replace_file,
    scan_json,
    sha256_bytes,
    write_file,
)
from .errors import AlreadyExists, InvalidBody, IoError, NotFound, NotScheduled, SkyprovError
from .keys import SigningKey, verify_signature, verify_signatures
from .merkle import MerkleLog
from .model import (
    ACCEPT,
    PmdTransaction,
    RegistryState,
    Verdict,
    fold_log_entries,
    tx_from_obj,
    validate_transaction,
)

ORDERING_MODES = ("fixed", "reshuffled")

_BLOCK_FILE_RE = re.compile(r"block_([0-9]+)\.json")


# -- genesis ---------------------------------------------------------------


@dataclass(frozen=True)
class GenesisConfig:
    """A chain's roster and clock; nodes that share one encode it once."""

    handlers: tuple  # ((handler_id, public_key_hex), ...) in roster order
    slot_duration_ms: int
    ordering_mode: str
    genesis_time: int  # nanoseconds

    @once
    def wire_bytes(self) -> bytes:
        """genesis.json's bytes; computing them is the genesis's field validation."""
        return dumps_validated(genesis_to_obj(self))

    @once
    def hash(self) -> str:
        return sha256_bytes(self.wire_bytes).hex()

    def slot_start_time(self, slot: int) -> int:
        return self.genesis_time + slot * self.slot_duration_ms * 1_000_000


# The key set of each wire object is its class's field names.
_GENESIS_KEYS = _field_names(GenesisConfig)


def genesis_to_obj(config: GenesisConfig) -> dict:
    """The genesis's wire object; building it is the genesis's field validation."""
    _require(isinstance(config.handlers, (list, tuple)) and len(config.handlers) >= 1, "need at least one handler")
    seen = set()
    for entry in config.handlers:
        _require(isinstance(entry, (list, tuple)) and len(entry) == 2, "handler entries must be (id, public key) pairs")
        hid, pub = entry
        _require(_require_str(hid, "handler_id") not in seen, "duplicate handler_id {}", hid)
        seen.add(hid)
        _require_hex64(pub, "handler public key")
    _require(_require_int(config.slot_duration_ms, "slot_duration_ms") > 0, "slot_duration_ms must be > 0")
    _require_choice(config.ordering_mode, ORDERING_MODES, "ordering_mode")
    _require_count(config.genesis_time, "genesis_time")
    obj = {name: getattr(config, name) for name in _GENESIS_KEYS}
    obj["handlers"] = [{"handler_id": hid, "public_key": pub} for hid, pub in config.handlers]
    return obj


def genesis_from_obj(obj) -> GenesisConfig:
    _require(isinstance(obj, dict), "genesis must be an object")
    _require(obj.keys() == _GENESIS_KEYS, "genesis keys malformed")
    handlers = obj["handlers"]
    _require(isinstance(handlers, list), "handlers must be a list")
    for h in handlers:
        _require(isinstance(h, dict) and h.keys() == {"handler_id", "public_key"}, "handler entry malformed")
    config = GenesisConfig(**dict(obj, handlers=tuple((h["handler_id"], h["public_key"]) for h in handlers)))
    config.wire_bytes  # the one field validation
    return config


def genesis_from_bytes(data: bytes) -> GenesisConfig:
    """Parse a genesis, accepting only its one byte form."""
    config = genesis_from_obj(parse_json(data))
    _require(config.wire_bytes == data, "input is not in canonical form")
    return config


# -- headers and blocks ------------------------------------------------------


@dataclass(frozen=True)
class BlockHeader:
    """A signed block header. Its wire bytes, its hash and its signature
    verdict under each key are computed once per object, so the nodes and
    auditors that share one header verify it once; dataclasses.replace
    gives a copy that computes its own. The signing bytes are not kept:
    they are needed only to sign, or to verify under a key not tried yet."""

    height: int
    slot: int
    prev_block_hash: str
    tx_root: str
    registry_root: str
    registry_size: int
    timestamp: int  # nanoseconds
    creator: str  # handler_id
    signature: str  # hex, over the canonical header bytes minus this field

    @property
    def signing_bytes(self) -> bytes:
        """The wire bytes without their signature member, which the last
        ',"signature":"' opens (the members after it hold integers and hex
        only) and its 128 hex chars and quote end."""
        data = self.wire_bytes
        cut = data.rindex(_SIGNATURE_MEMBER)
        return data[:cut] + data[cut + len(_SIGNATURE_MEMBER) + 129:]

    @once
    def wire_bytes(self) -> bytes:
        """Canonical bytes of the signed header, as a block file holds them;
        computing them is the header's field validation, unless a reader
        built the header and set these bytes."""
        return dumps_validated(header_to_obj(self))

    @once
    def hash(self) -> str:
        """Hash over the wire bytes; the chain-link identity of a block."""
        return sha256_bytes(self.wire_bytes).hex()

    @once
    def _verdicts(self) -> dict:
        return {}  # public key -> whether signature verifies under it

    def signed_by(self, public_key: str) -> bool:
        """Whether signature verifies under public_key over the signing
        bytes, decided once per key. A malformed header raises InvalidBody."""
        verdicts = self._verdicts
        if public_key not in verdicts:
            _require(is_hex128(self.signature), "header signature malformed")
            verdicts[public_key] = verify_signature(public_key, self.signing_bytes, bytes.fromhex(self.signature))
        return verdicts[public_key]


_HEADER_KEYS = _field_names(BlockHeader)
_SIGNATURE_MEMBER = b',"signature":"'


def _check_header(h: BlockHeader) -> None:
    """A header's field checks, the signature's last, for its encoders and header_from_obj."""
    _require_count(h.height, "height")
    _require_count(h.slot, "slot")
    _require_hex64(h.prev_block_hash, "prev_block_hash")
    _require_hex64(h.tx_root, "tx_root")
    _require_hex64(h.registry_root, "registry_root")
    _require_count(h.registry_size, "registry_size")
    _require_count(h.timestamp, "timestamp")
    _require_str(h.creator, "creator")
    _require(is_hex128(h.signature), "header signature malformed")


def header_to_obj(h: BlockHeader) -> dict:
    _check_header(h)
    return {name: getattr(h, name) for name in _HEADER_KEYS}


def header_from_obj(obj) -> BlockHeader:
    """The header a header object holds, its shape and fields checked; nothing is encoded."""
    _require(isinstance(obj, dict), "header must be an object")
    _require_keys(obj, _HEADER_KEYS, "header")
    h = BlockHeader(**obj)
    _check_header(h)
    return h


@dataclass(frozen=True)
class Block:
    header: BlockHeader
    transactions: tuple

    @once
    def _verdicts(self) -> dict:
        return {}  # head hash of the state checked against -> validate_block's verdict


_BLOCK_KEYS = _field_names(Block)


def _check_block_obj(obj) -> None:
    _require(isinstance(obj, dict) and obj.keys() == _BLOCK_KEYS, "block keys malformed")
    _require(isinstance(obj["transactions"], list), "transactions must be a list")


def block_from_obj(obj) -> Block:
    """The block a parsed block object holds, each part built and then
    encoded by its producer's encoder: the reference block_from_bytes is
    tested against, which no reader calls."""
    _check_block_obj(obj)
    block = Block(header_from_obj(obj["header"]), tuple(tx_from_obj(t) for t in obj["transactions"]))
    block_bytes(block)
    return block


# A block file's one byte form opens with the first, and its transactions
# array opens with the second, right after the header's last byte.
_HEADER_KEY = '{"header":'
_TXS_KEY = ',"transactions":['


def block_bytes(block: Block) -> bytes:
    """The block's one byte form, joined from its parts' wire bytes ("header"
    sorts before "transactions"). Not kept: a netsim node holds every block."""
    txs = b",".join(tx.wire_bytes for tx in block.transactions)
    return b'{"header":' + block.header.wire_bytes + b',"transactions":[' + txs + b"]}"


def _block_parts(data: bytes):
    """The one reader of a block file's bytes, data being them without the
    final "\n". When data is the frame {"header":H,"transactions":[T1,...,Tn]},
    it yields (exact bytes, scanned value) of the header, then of each
    transaction, as it scans them, checking no part. Otherwise InvalidBody,
    named as a parse of the whole file names it: a JSON fault, the shape
    fault of canonical JSON that is no block, or else not canonical form."""
    try:
        text = data.decode("utf-8")
        _require(text.startswith(_HEADER_KEY) and text.endswith("]}"), "no block frame")
        obj, at = scan_json(text, len(_HEADER_KEY))
        _require(text.startswith(_TXS_KEY, at), "no block frame")
        yield text[len(_HEADER_KEY):at].encode("utf-8"), obj
        at, stop = at + len(_TXS_KEY), len(text) - 2  # stop: where the array's "]" is
        while at < stop:
            obj, end = scan_json(text, at)
            _require(end == stop or end < stop - 1 and text[end] == ",", "no block frame")
            yield text[at:end].encode("utf-8"), obj
            at = end + 1
        return
    except (InvalidBody, ValueError, RecursionError):  # named below
        pass
    with parse_failures():  # leading whitespace, which json.loads skips, then fails the comparison
        obj = scan_json(data.decode("utf-8").lstrip(" \t\n\r"), 0)[0]
        canonical = dumps_validated(obj) == data
    if canonical:  # canonical JSON that is no block
        _check_block_obj(obj)
    raise InvalidBody("input is not in canonical form")


def block_from_bytes(data: bytes) -> Block:
    """Parse a block, accepting only its one byte form: once every part is
    scanned, the header and then each transaction are read from theirs."""
    header, *txs = _block_parts(data)
    return Block(read_part(header_from_obj, *header), tuple([read_part(tx_from_obj, *tx) for tx in txs]))


def tx_tree_root(leaf_hashes) -> str:
    """Hex root of a block's own tree over its transactions' leaf hashes."""
    return MerkleLog().extended_root(leaf_hashes)[0].hex()


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
    _require_count(slot, "slot")
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
        return {name: getattr(self, name) for name in _CHECKPOINT_KEYS}

    @classmethod
    def from_obj(cls, obj) -> "Checkpoint":
        _require(isinstance(obj, dict), "checkpoint must be an object")
        _require(obj.keys() == _CHECKPOINT_KEYS, "checkpoint keys malformed")
        _require(_require_int(obj["height"], "checkpoint height") >= -1, "checkpoint height malformed")
        _require_count(obj["registry_size"], "checkpoint registry_size")
        _require_hex64(obj["registry_root"], "checkpoint registry_root")
        _require_hex64(obj["head_hash"], "checkpoint head_hash")
        return cls(**obj)


_CHECKPOINT_KEYS = _field_names(Checkpoint)


@dataclass(frozen=True)
class EquivocationEvidence:
    creator: str
    slot: int
    header_hashes: tuple  # the two conflicting header hashes, sorted


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
        hash_a = header_a.hash
        hash_b = header_b.hash
        if hash_a == hash_b or not (header_a.signed_by(pub) and header_b.signed_by(pub)):
            return None
    except InvalidBody:
        return None
    return EquivocationEvidence(
        creator=header_a.creator,
        slot=header_a.slot,
        header_hashes=tuple(sorted((hash_a, hash_b))),
    )


# -- chain state -------------------------------------------------------------------


class ChainState:
    """One node's view of the chain plus its pending transaction pool.

    Everything it validates against is head state that apply_block keeps
    current: the head header and hash, the registry, its log, and the
    reshuffle seed of the head's cycle. ``blocks`` lists the applied blocks
    where a node serves or saves them; every state loaded from a store, and
    netsim's audit replay, keeps head state only, with blocks None.
    """

    def __init__(self, config: GenesisConfig):
        self.config = config
        self.blocks: Optional[list] = []
        self.registry_log = MerkleLog()
        self.registry = RegistryState()
        self.tx_index: dict = {}  # tx_id -> leaf index in registry_log, in log order
        self.pending_pool: dict = {}  # tx_id -> PmdTransaction
        self._head_header: Optional[BlockHeader] = None  # None before the first block
        self._head_hash = config.hash  # validates config
        self._cycle_seed = (-1, "")  # (first slot, seed) of the head block's rotation cycle
        self._roster = dict(config.handlers)

    # -- inspection --

    @property
    def genesis_hash_hex(self) -> str:
        return self.config.hash

    @property
    def head_height(self) -> int:
        return -1 if self._head_header is None else self._head_header.height

    def head_hash(self) -> str:
        return self._head_hash

    def last_slot(self) -> int:
        return -1 if self._head_header is None else self._head_header.slot

    def roster_key(self, handler_id: str) -> Optional[str]:
        return self._roster.get(handler_id)

    def slot_start_time(self, slot: int) -> int:
        return self.config.slot_start_time(slot)

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
        """The reshuffle seed of slot's rotation cycle, the head's or a later
        one: the hash of the last block before it, or the genesis hash."""
        cycle_start = self._cycle_start(slot)
        if self.last_slot() < cycle_start:
            return digest_from_hex(self._head_hash)
        if self._cycle_seed[0] == cycle_start:
            return digest_from_hex(self._cycle_seed[1])
        raise NotFound(f"slot {slot} is in a cycle before the head's")

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
        if self.blocks is not None:
            self.blocks.append(block)
        self._head_header = block.header
        self._head_hash = block.header.hash
        for tx in block.transactions:
            self.tx_index[tx.tx_id] = self.registry_log.append_leaf_hash(tx.leaf_hash)
            self.registry.apply(tx)
            self.pending_pool.pop(tx.tx_id, None)
        self.registry.built_to = (block.header.height, self.registry_log.size)

    def receive_block(self, block: Block) -> Verdict:
        verdict = validate_block(self, block)
        if verdict.ok:
            self.apply_block(block)
        return verdict

    def _adopt_head(self, header: BlockHeader, log: MerkleLog, registry: RegistryState,
                    tx_index: dict, cycle_seed: tuple) -> None:
        """Take on the head state that validating every block up to header
        produced, without a block list (load_chain's head cache)."""
        self._head_header = header
        self._head_hash = header.hash
        self.registry_log = log
        self.registry = registry
        self.tx_index = tx_index
        self._cycle_seed = cycle_seed


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
    _require_count(now, "now")

    accepted, _ = state.select_transactions()
    leaves = [tx.leaf_hash for tx in accepted]
    registry_root, registry_size = state.registry_log.extended_root(leaves)
    unsigned = BlockHeader(
        height=state.head_height + 1,
        slot=slot,
        prev_block_hash=state.head_hash(),
        tx_root=tx_tree_root(leaves),
        registry_root=registry_root.hex(),
        registry_size=registry_size,
        timestamp=now,
        creator=handler_id,
        signature="0" * 128,
    )
    signature = handler_key.sign(unsigned.signing_bytes).hex()
    return Block(header=replace(unsigned, signature=signature), transactions=tuple(accepted))


def validate_block(state: ChainState, block: Block) -> Verdict:
    """Full admission check for the next block on this chain, kept on the block per state head
    hash (a check that raises keeps nothing), so nodes and replays at one head share it. The
    head hash fixes every input: it links to the genesis, its registry roots commit to each
    transaction applied, and only validated blocks or a restore equal to the replay's move a
    head. So a check may read only state the head hash fixes, never the pending pool or a clock."""
    verdicts, head = block._verdicts, state.head_hash()
    if head not in verdicts:
        verdicts[head] = _validate_block(state, block)
    return verdicts[head]


def _validate_block(state: ChainState, block: Block) -> Verdict:
    h = block.header
    try:
        h.hash
    except InvalidBody as exc:
        return Verdict(False, "BadLink", f"malformed header: {exc}")

    if h.height != state.head_height + 1:
        return Verdict(False, "BadLink", f"height {h.height}, expected {state.head_height + 1}")
    if h.prev_block_hash != state.head_hash():
        return Verdict(False, "BadLink", "prev_block_hash does not match head")
    if h.slot <= state.last_slot():
        return Verdict(False, "BadSlot", f"slot {h.slot} not after head slot {state.last_slot()}")
    scheduled = state.scheduled_handler(h.slot)
    if h.creator != scheduled:
        return Verdict(False, "NotScheduledHandler", f"slot {h.slot} belongs to {scheduled}, not {h.creator}")
    pub = state.roster_key(h.creator)
    if pub is None or not h.signed_by(pub):
        return Verdict(False, "BadSignature", "header signature does not verify under roster key")

    try:
        leaves = [tx.leaf_hash for tx in block.transactions]
    except InvalidBody as exc:
        return Verdict(False, "InvalidTransaction", f"malformed transaction: {exc}")
    if tx_tree_root(leaves) != h.tx_root:
        return Verdict(False, "BadTxRoot", "tx_root does not match block transactions")

    staged = state.registry.clone()
    for i, tx in enumerate(block.transactions):
        verdict = validate_transaction(tx, staged)
        if not verdict.ok:
            return Verdict(False, "InvalidTransaction", f"tx {i} ({tx.tx_id[:12]}): {verdict.reason}: {verdict.detail}")
        staged.apply(tx)

    registry_root, registry_size = state.registry_log.extended_root(leaves)
    if h.registry_root != registry_root.hex() or h.registry_size != registry_size:
        return Verdict(False, "BadRegistryCommitment", "registry root/size do not recompute over the extended log")
    return ACCEPT


# -- disk store ----------------------------------------------------------------

HEAD_CACHE = "head_cache.json"


def _genesis_path(chain_dir: str) -> str:
    return os.path.join(chain_dir, "genesis.json")


def _block_path(chain_dir: str, height: int) -> str:
    return os.path.join(chain_dir, f"block_{height}.json")


def _create_once(path: str, data: bytes, what: str) -> None:
    """Create path holding data. A file already there is kept: identical bytes
    are accepted (save_chain re-saves a store), others raise AlreadyExists."""
    try:
        write_file(path, data, exclusive=True)
    except AlreadyExists:
        if read_file(path, what) != data:
            raise


def save_genesis(chain_dir: str, config: GenesisConfig) -> None:
    """Create genesis.json, or raise before creating anything when config is
    invalid; a different genesis already there raises AlreadyExists."""
    data = config.wire_bytes + b"\n"
    make_dirs(chain_dir)
    _create_once(_genesis_path(chain_dir), data, "genesis")


def _read_stored(path: str, what: str) -> bytes:
    """A stored file's bytes but the "\n" it must end with, as saved."""
    data = read_file(path, what)
    _require(data.endswith(b"\n"), "{} does not end with a newline", what)
    return data[:-1]


def load_genesis(chain_dir: str) -> GenesisConfig:
    return genesis_from_bytes(_read_stored(_genesis_path(chain_dir), "genesis"))


def save_block_file(chain_dir: str, block: Block) -> str:
    """Create block_N.json; of two writers sealing one height only the first
    succeeds, and the second gets AlreadyExists."""
    path = _block_path(chain_dir, block.header.height)
    _create_once(path, block_bytes(block) + b"\n", "block file")
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
    return block_from_bytes(_read_stored(_block_path(chain_dir, height), "block file"))


def open_store(chain_dir: str):
    """(empty head-only state, stored heights) of a chain store."""
    state = ChainState(load_genesis(chain_dir))
    state.blocks = None
    heights = list_block_heights(chain_dir)
    if heights and heights != list(range(heights[0], heights[-1] + 1)):
        raise IoError(f"block files in {chain_dir} are not dense: {heights}")
    if heights and heights[0] != 0:
        raise IoError(f"chain store {chain_dir} does not start at height 0")
    return state, heights


# A replay reads blocks ahead until it holds this many signatures, ending
# on a block boundary, and verifies them in one verify_signatures batch.
_WINDOW_SIGNATURES = 2048


def _read_window(chain_dir: str, heights):
    """Load blocks from the heights iterator, in order, until they carry
    _WINDOW_SIGNATURES signatures or the heights run out. Returns the
    (height, block) pairs loaded and, when a load raised, (its height, the
    exception), which the replay meets only after the blocks before it."""
    window = []
    signatures = 0
    for height in heights:
        try:
            block = load_block_file(chain_dir, height)
        except Exception as exc:
            return window, (height, exc)
        # What validate_block computes first, computed in its order as each
        # block is read: CPython keeps an instance dict compact only while
        # instances add their attributes in one order soon after creation,
        # and a dict that misses this is several times the size.
        header = block.header
        header.hash, header._verdicts
        for tx in block.transactions:
            tx.leaf_hash, tx.tx_id_ok
        window.append((height, block))
        signatures += 1 + len(block.transactions)
        if signatures >= _WINDOW_SIGNATURES:
            break
    return window, None


def _verify_window(state: ChainState, window) -> None:
    """Verify every header signature under its creator's roster key and every
    transaction signature in window in one batch, and keep each verdict
    where signed_by and signature_ok keep it, so validate_block reads them.
    A block file parses only when its parts are well formed, so building
    the items raises nothing."""
    items = []
    for _, block in window:
        header = block.header
        pub = state.roster_key(header.creator)
        if pub is not None:
            items.append((pub, header.signing_bytes, bytes.fromhex(header.signature)))
        items.extend((tx.creator, tx.body_bytes, bytes.fromhex(tx.signature)) for tx in block.transactions)
    verdicts = iter(verify_signatures(items))
    del items  # the messages and signatures are not kept
    for _, block in window:
        header = block.header
        pub = state.roster_key(header.creator)
        if pub is not None:
            header._verdicts[pub] = next(verdicts)
        for tx in block.transactions:
            vars(tx)["signature_ok"] = next(verdicts)  # where the once attribute keeps it


def replay_blocks(chain_dir: str, state: ChainState, heights):
    """Validate the stored blocks at heights into state, in order, yielding
    (height, verdict) for each block examined, once state has applied it;
    stops after the first that does not validate. Blocks are read and their
    signatures verified a window at a time, then validated one by one, so
    verdicts and exceptions come in height order; no block outlives its window."""
    heights = iter(heights)
    while True:
        window, fault = _read_window(chain_dir, heights)
        _verify_window(state, window)
        for height, block in window:
            verdict = validate_block(state, block)
            if not verdict.ok:
                yield height, verdict
                return
            state.apply_block(block)
            yield height, verdict
        if fault is not None:
            height, exc = fault
            if not isinstance(exc, InvalidBody):
                raise exc
            yield height, Verdict(False, "InvalidBody", str(exc))
            return
        if not window:
            return


def replay_chain(chain_dir: str):
    """Replay a stored chain with full validation; the audit, so it never
    reads the head cache.

    Returns (state, results, failure): state is the head state of every
    validated block, results one (height, verdict) per examined block,
    failure the first (height, verdict) that did not validate (None for an
    honest chain). Raises IoError when files are missing or unreadable,
    InvalidBody when genesis.json is not a genesis as saved.
    """
    state, heights = open_store(chain_dir)
    results = list(replay_blocks(chain_dir, state, heights))
    failure = results[-1] if results and not results[-1][1].ok else None
    return state, results, failure


# The head cache names the head that validating blocks 0..height reached,
# so that load_chain can restore its state and validate only the blocks
# stored after it: the canonical object {genesis_hash, head_hash, height}
# plus "\n". It is trusted no more than the store it sits in. The restore
# checks the store back from the head, as a light client checks headers
# back from a trusted tip: the head block hashes to head_hash and its
# signature verifies under its creator's roster key (one Ed25519 verify).
# Every covered block file must then be exactly
# {"header":H,"transactions":[T1,...,Tn]}\n, read by the replay's reader
# (_block_parts), where each H's prev_block_hash is the hash of the previous
# H's exact bytes (the genesis hash for block 0), the last H hashes to
# head_hash, and each H's registry_size counts the transactions up to its
# block's; and the covered transactions must hash to the head's registry
# root. So each byte of each covered file is the one the signed head
# commits to. Of the headers, only the head's is built. Each transaction is
# scanned once: its exact bytes are its leaf, and its object goes to
# model.fold_log_entries, which checks its shape only and folds the registry
# in log order, as apply_block folds it, without building it.
_CACHE_KEYS = {"genesis_hash", "head_hash", "height"}


def _covered_log_entries(chain_dir: str, height: int, head, links: list, entries: list):
    """Yield the object of each transaction in block files 0..height, in log
    order, head being the parts of block height. Each file's header must
    link to links[-1], and is appended to links as (slot, hash of its exact
    bytes); each transaction's exact bytes are appended to entries."""
    for h in range(height + 1):
        parts = head if h == height else _block_parts(_read_stored(_block_path(chain_dir, h), "block file"))
        data, header = next(parts)
        _require(isinstance(header, dict) and header.keys() == _HEADER_KEYS, "block file header malformed")
        _require(header["prev_block_hash"] == links[-1][1], "block does not link to the one before it")
        links.append((header["slot"], sha256_bytes(data).hex()))
        for data, obj in parts:
            entries.append(data)
            yield obj
        _require(header["registry_size"] == len(entries), "registry size differs from the transactions stored")


def _restore_head(chain_dir: str, state: ChainState, heights) -> int:
    """Restore state from the head cache when it matches the store, and
    return the cached height; return -1 and leave state untouched when the
    cache is missing, unreadable or does not match."""
    try:
        with parse_failures():  # plain json.loads: every field is checked below
            cache = json.loads(read_file(os.path.join(chain_dir, HEAD_CACHE), "head cache"))
        _require(isinstance(cache, dict) and set(cache) == _CACHE_KEYS, "head cache keys malformed")
        height = cache["height"]
        _require(_require_count(height, "head cache height") < len(heights), "head cache height is not stored")
        _require(cache["genesis_hash"] == state.genesis_hash_hex, "head cache names another genesis")
        parts = _block_parts(_read_stored(_block_path(chain_dir, height), "block file"))
        head = next(parts)
        header = read_part(header_from_obj, *head)
        _require(header.hash == cache["head_hash"], "head block differs from the head cache's")
        pub = state.roster_key(header.creator)
        _require(pub is not None and header.signed_by(pub), "head block is not signed by its creator's roster key")
        links, entries = [(-1, state.genesis_hash_hex)], []
        registry, tx_index = fold_log_entries(
            _covered_log_entries(chain_dir, height, itertools.chain([head], parts), links, entries))
        _require(links[-1][1] == header.hash, "covered blocks do not link to the head")
        log = MerkleLog()
        log.extend(entries)
        _require(log.root().hex() == header.registry_root,
                 "covered transactions do not match the head's registry commitment")
        registry.built_to = (height, log.size)
        # the seed of the head's cycle: the hash of the last block before it, or the genesis hash
        cycle_start = state._cycle_start(header.slot)
        seed = next(link for slot, link in reversed(links) if slot < cycle_start)
    # Until every check has passed, the files hold any bytes: every way they
    # fail to parse is InvalidBody, and an unhashable id, or a covered slot
    # that is no integer, is a TypeError. Each means a full replay, which
    # reports any damage.
    except (SkyprovError, TypeError):
        return -1
    state._adopt_head(header, log, registry, tx_index, (cycle_start, seed))
    return height


def _write_head_cache(chain_dir: str, state: ChainState) -> None:
    head = {"genesis_hash": state.genesis_hash_hex, "head_hash": state.head_hash(), "height": state.head_height}
    try:
        replace_file(os.path.join(chain_dir, HEAD_CACHE), dumps_validated(head) + b"\n")
    except IoError:
        pass  # the cache only saves time: a store that cannot take it still loads in full


def load_chain(chain_dir: str) -> ChainState:
    """The validated head state of a stored chain, without a block list.

    Restores the head cache when it matches the store, folding the registry
    from the transactions of the block files it covers, and validates only
    the blocks stored after it; otherwise validates every block, as
    replay_chain does. After validating any block the cache did not cover,
    rewrites it for the new head. Raises as replay_chain does, and
    InvalidBody when a block does not validate.
    """
    state, heights = open_store(chain_dir)
    cached = _restore_head(chain_dir, state, heights)
    for height, verdict in replay_blocks(chain_dir, state, heights[cached + 1:]):
        if not verdict.ok:
            raise InvalidBody(f"chain invalid at height {height}: {verdict.reason}: {verdict.detail}")
    if state.head_height > cached:
        _write_head_cache(chain_dir, state)
    return state
