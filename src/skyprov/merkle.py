"""Append-only Merkle hash tree over canonical transaction bytes.

Standard audit-log construction: SHA-256 with 0x00/0x01 domain-separation
prefixes for leaf and interior nodes, split point at the largest power of
two strictly below the subtree size, empty-log root = SHA-256 of empty
input.  Inclusion proofs show a record is in a given log version;
consistency proofs show one log version is an unmodified prefix extension
of another, which is how two registry versions are checked for
compatibility.

A leaf hash is a pure function of the record's bytes, so a caller that
keeps a record object hashes it once (``PmdTransaction.leaf_hash``) and
hands ``append_leaf_hash``, ``extended_root`` and ``chain.tx_tree_root``
the digest; ``extend`` takes raw record bytes.

Proofs carry their tree sizes explicitly so verification needs no
external context, and serialize as canonical JSON with lowercase hex
digests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Optional

from .canonical import _field_names, _require, digest_from_hex, digest_to_hex, dumps_canonical, loads_canonical
from .errors import IndexOutOfRange, InvalidBody

LEAF_PREFIX = b"\x00"
NODE_PREFIX = b"\x01"

Digest = bytes  # 32-byte SHA-256 output; rendered as lowercase 64-char hex
DIGEST_SIZE = 32
_NOT_A_LEAF = "leaf hash must be a 32-byte digest"


def leaf_hash(data: bytes) -> Digest:
    """Hash a leaf: SHA-256(0x00 || data), domain-separated from nodes."""
    return hashlib.sha256(LEAF_PREFIX + data).digest()


def node_hash(left: Digest, right: Digest) -> Digest:
    """Hash an interior node: SHA-256(0x01 || left || right)."""
    return hashlib.sha256(NODE_PREFIX + left + right).digest()


def empty_root() -> Digest:
    """Root of the empty log: SHA-256 of empty input."""
    return hashlib.sha256(b"").digest()


def _split_point(n: int) -> int:
    """Largest power of two strictly less than n, for n >= 2."""
    return 1 << ((n - 1).bit_length() - 1)


def _is_digest(value: object) -> bool:
    return isinstance(value, bytes) and len(value) == DIGEST_SIZE


class _Proof:
    """The wire form the two proofs share: each field under its own name,
    the sizes as integers and the path as hex digests."""

    _keys: frozenset  # the subclass's field names, set below

    def to_obj(self) -> dict:
        obj = {name: getattr(self, name) for name in self._keys}
        obj["path"] = [digest_to_hex(d) for d in self.path]
        return obj

    def to_json_bytes(self) -> bytes:
        return dumps_canonical(self.to_obj())

    @classmethod
    def from_json_bytes(cls, data: bytes):
        obj = loads_canonical(data)
        if not isinstance(obj, dict) or obj.keys() != cls._keys:
            raise InvalidBody(f"{cls.__name__} must have exactly {sorted(cls._keys)}")
        if not all(isinstance(obj[name], int) for name in cls._keys - {"path"}):
            raise InvalidBody("proof sizes must be integers")
        if not isinstance(obj["path"], list):
            raise InvalidBody("proof path must be a list")
        return cls(**dict(obj, path=tuple(digest_from_hex(h) for h in obj["path"])))


@dataclass(frozen=True)
class InclusionProof(_Proof):
    """Sibling hashes along the leaf-to-root path, leaf first."""

    leaf_index: int
    tree_size: int
    path: tuple[Digest, ...]


@dataclass(frozen=True)
class ConsistencyProof(_Proof):
    """Subtree roots proving one log version extends another unchanged."""

    old_size: int
    new_size: int
    path: tuple[Digest, ...]


InclusionProof._keys = _field_names(InclusionProof)
ConsistencyProof._keys = _field_names(ConsistencyProof)


class MerkleLog:
    """Ordered sequence of leaf hashes with every complete subtree root cached.

    Append-only: a committed leaf never changes, and neither does the root
    of a complete subtree once its last leaf is in.  ``_levels[h]`` packs,
    32 bytes each, the roots of the aligned subtrees over leaves
    ``[i * 2**h, (i + 1) * 2**h)``; ``_levels[0]`` holds the leaf hashes
    (RFC 9162 section 2.1; the "tiles" of Russ Cox, *Transparency Logs via
    Verifiable Data Structures*).  Packed, all levels together take less
    memory than one bytes object per leaf.  The current root is kept as a
    stack of peaks, one per set bit of the size, merged binary-counter style
    on append; each merge completes a subtree, whose root goes into
    ``_levels``.  So appends cost O(1) amortized, ``root`` O(log n), and
    because every range a proof needs splits into O(log n) cached subtrees,
    ``root_at``, ``prove_inclusion`` and ``prove_consistency`` each cost
    O(log n) node hashes.

    Single writer per instance; hand out ``fork()`` copies to anything that
    needs an independent version.
    """

    __slots__ = ("_levels", "_peaks")

    def __init__(self) -> None:
        self._levels: list[bytearray] = [bytearray()]
        self._peaks: list[tuple[int, Digest]] = []  # (height, subtree root)

    @property
    def size(self) -> int:
        return len(self._levels[0]) // DIGEST_SIZE

    def _node(self, height: int, index: int) -> Digest:
        return bytes(self._levels[height][index * DIGEST_SIZE : (index + 1) * DIGEST_SIZE])

    def append_leaf_hash(self, leaf: Digest) -> int:
        """Append a record by its leaf hash; returns the new leaf's index."""
        _require(_is_digest(leaf), _NOT_A_LEAF)
        index = self.size
        self._levels[0] += leaf
        self._push_peak(self._peaks, leaf, self._levels)
        return index

    def extend(self, entries: Iterable[bytes]) -> None:
        """Append raw record bytes in order, leaving the log as appending
        each one's leaf hash would: every leaf is hashed in one pass, then
        each level's newly completed subtree roots from the level below."""
        levels = self._levels
        levels[0] += b"".join([leaf_hash(data) for data in entries])
        height = 0
        while len(levels[height]) >= 2 * DIGEST_SIZE:
            if height + 1 == len(levels):
                levels.append(bytearray())
            below, level = levels[height], levels[height + 1]
            # the pairs below whose root level does not hold yet
            pairs = range(2 * len(level), len(below) - len(below) % (2 * DIGEST_SIZE), 2 * DIGEST_SIZE)
            level += b"".join([node_hash(below[i : i + DIGEST_SIZE], below[i + DIGEST_SIZE : i + 2 * DIGEST_SIZE])
                               for i in pairs])
            height += 1
        # one peak per set bit of the size: the last root at that height
        size = self.size
        self._peaks = [(h, bytes(levels[h][-DIGEST_SIZE:])) for h in reversed(range(len(levels))) if size >> h & 1]

    @staticmethod
    def _push_peak(peaks: list[tuple[int, Digest]], leaf: Digest, levels: Optional[list[bytearray]] = None) -> None:
        """Push a leaf onto a peak stack; each merge makes a complete
        subtree root, which is recorded in ``levels`` when given."""
        height, node = 0, leaf
        while peaks and peaks[-1][0] == height:
            _, left = peaks.pop()
            node = node_hash(left, node)
            height += 1
            if levels is not None:
                if height == len(levels):
                    levels.append(bytearray())
                levels[height] += node
        peaks.append((height, node))

    @staticmethod
    def _fold_peaks(peaks: list[tuple[int, Digest]]) -> Digest:
        if not peaks:
            return empty_root()
        root = peaks[-1][1]
        for _, digest in reversed(peaks[:-1]):
            root = node_hash(digest, root)
        return root

    def root(self) -> Digest:
        return self._fold_peaks(self._peaks)

    def extended_root(self, extra_leaves: Iterable[Digest]) -> tuple[Digest, int]:
        """Root and size the log would have after appending the records
        whose leaf hashes are ``extra_leaves``.

        Works on a copy of the peak stack and records no subtree roots, so
        the log itself is untouched; used by block validation to check
        registry commitments cheaply.
        """
        peaks = list(self._peaks)
        count = self.size
        for leaf in extra_leaves:
            _require(_is_digest(leaf), _NOT_A_LEAF)
            self._push_peak(peaks, leaf)
            count += 1
        return self._fold_peaks(peaks), count

    def leaf(self, index: int) -> Digest:
        if not 0 <= index < self.size:
            raise IndexOutOfRange(f"leaf index {index} outside log of size {self.size}")
        return self._node(0, index)

    def leaves(self) -> tuple[Digest, ...]:
        return tuple(self._node(0, i) for i in range(self.size))

    def fork(self) -> "MerkleLog":
        """Independent copy; mutations to either side stay invisible to the other."""
        other = MerkleLog()
        other._levels = [bytearray(level) for level in self._levels]
        other._peaks = list(self._peaks)
        return other

    # -- proofs --------------------------------------------------------

    def _range_root(self, lo: int, hi: int) -> Digest:
        """Root of the subtree over leaves [lo, hi), with hi <= size.

        An aligned power-of-two range is one cached node.  Any other range
        splits at the largest power of two below its size; every range the
        proofs below ask for starts aligned to that split, so the recursion
        follows one right spine, O(log n) deep.
        """
        n = hi - lo
        if n == 0:
            return empty_root()
        if n & (n - 1) == 0 and lo & (n - 1) == 0:
            height = n.bit_length() - 1
            return self._node(height, lo >> height)
        k = _split_point(n)
        return node_hash(self._range_root(lo, lo + k), self._range_root(lo + k, hi))

    def root_at(self, size: int) -> Digest:
        """Root of the log version that held exactly the first ``size`` leaves."""
        if not 0 <= size <= self.size:
            raise IndexOutOfRange(f"size {size} outside log of size {self.size}")
        return self._range_root(0, size)

    def prove_inclusion(self, index: int) -> InclusionProof:
        size = self.size
        if not 0 <= index < size:
            raise IndexOutOfRange(f"leaf index {index} outside log of size {size}")
        path = self._inclusion_path(0, size, index)
        return InclusionProof(leaf_index=index, tree_size=size, path=tuple(path))

    def _inclusion_path(self, lo: int, hi: int, index: int) -> list[Digest]:
        n = hi - lo
        if n == 1:
            return []
        k = _split_point(n)
        if index < lo + k:
            path = self._inclusion_path(lo, lo + k, index)
            path.append(self._range_root(lo + k, hi))
        else:
            path = self._inclusion_path(lo + k, hi, index)
            path.append(self._range_root(lo, lo + k))
        return path

    def prove_consistency(self, old_size: int) -> ConsistencyProof:
        size = self.size
        if not 0 <= old_size <= size:
            raise IndexOutOfRange(f"old size {old_size} outside log of size {size}")
        if old_size == 0 or old_size == size:
            return ConsistencyProof(old_size=old_size, new_size=size, path=())
        path = self._consistency_path(0, size, old_size, True)
        return ConsistencyProof(old_size=old_size, new_size=size, path=tuple(path))

    def _consistency_path(self, lo: int, hi: int, m: int, complete: bool) -> list[Digest]:
        n = hi - lo
        if m == n:
            return [] if complete else [self._range_root(lo, hi)]
        k = _split_point(n)
        if m <= k:
            path = self._consistency_path(lo, lo + k, m, complete)
            path.append(self._range_root(lo + k, hi))
        else:
            path = self._consistency_path(lo + k, hi, m - k, False)
            path.append(self._range_root(lo, lo + k))
        return path


def verify_inclusion(root: Digest, leaf: Digest, proof: InclusionProof) -> bool:
    """True iff the path recomputes ``root`` from ``leaf``; malformed input is false."""
    if not _is_digest(root) or not _is_digest(leaf):
        return False
    if not isinstance(proof.leaf_index, int) or not isinstance(proof.tree_size, int):
        return False
    if proof.tree_size <= 0 or not 0 <= proof.leaf_index < proof.tree_size:
        return False
    if any(not _is_digest(p) for p in proof.path):
        return False

    fn = proof.leaf_index
    sn = proof.tree_size - 1
    value = leaf
    for sibling in proof.path:
        if sn == 0:
            return False
        if (fn & 1) or fn == sn:
            value = node_hash(sibling, value)
            if not (fn & 1):
                while not (fn & 1) and fn != 0:
                    fn >>= 1
                    sn >>= 1
        else:
            value = node_hash(value, sibling)
        fn >>= 1
        sn >>= 1
    return sn == 0 and value == root


def verify_consistency(
    old_root: Digest,
    old_size: int,
    new_root: Digest,
    new_size: int,
    proof: ConsistencyProof,
) -> bool:
    """True iff the proof shows the new log extends the old one unchanged.

    Malformed or mismatched proofs give false, never an exception.
    """
    if not _is_digest(old_root) or not _is_digest(new_root):
        return False
    if not isinstance(old_size, int) or not isinstance(new_size, int):
        return False
    if proof.old_size != old_size or proof.new_size != new_size:
        return False
    if old_size < 0 or old_size > new_size:
        return False
    if any(not _is_digest(p) for p in proof.path):
        return False

    if old_size == new_size:
        return len(proof.path) == 0 and old_root == new_root
    if old_size == 0:
        # Every log extends the empty log.
        return len(proof.path) == 0
    if len(proof.path) == 0:
        return False

    path = list(proof.path)
    if old_size & (old_size - 1) == 0:
        # Old tree is a perfect subtree of the new one: its root is the
        # first proof node, supplied by the verifier rather than the prover.
        path.insert(0, old_root)

    fn = old_size - 1
    sn = new_size - 1
    while fn & 1:
        fn >>= 1
        sn >>= 1
    old_calc = new_calc = path[0]
    for node in path[1:]:
        if sn == 0:
            return False
        if (fn & 1) or fn == sn:
            old_calc = node_hash(node, old_calc)
            new_calc = node_hash(node, new_calc)
            if not (fn & 1):
                while not (fn & 1) and fn != 0:
                    fn >>= 1
                    sn >>= 1
        else:
            new_calc = node_hash(new_calc, node)
        fn >>= 1
        sn >>= 1
    return sn == 0 and old_calc == old_root and new_calc == new_root
