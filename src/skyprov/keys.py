"""Ed25519 key handling.

Identities throughout the system are 32-byte Ed25519 public keys, carried
in wire formats as 64-char lowercase hex. Signing keys live either in
memory (simulation) or in small JSON key files (CLI).
"""

from __future__ import annotations

import hashlib
import os
from typing import Union

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from . import parallel
from .canonical import is_hex64, read_canonical_file, write_canonical_file
from .errors import InvalidBody, MalformedKey


class SigningKey:
    """An Ed25519 signing key plus cached public identity."""

    __slots__ = ("_key", "_public_hex")

    def __init__(self, private_bytes: bytes):
        if not isinstance(private_bytes, bytes) or len(private_bytes) != 32:
            raise MalformedKey("private key must be exactly 32 bytes")
        self._key = Ed25519PrivateKey.from_private_bytes(private_bytes)
        self._public_hex = self._key.public_key().public_bytes_raw().hex()

    @classmethod
    def generate(cls) -> "SigningKey":
        return cls(os.urandom(32))

    @classmethod
    def from_seed(cls, seed: bytes) -> "SigningKey":
        # arbitrary seed material hashed down to the 32-byte scalar input
        return cls(hashlib.sha256(b"ed25519-seed:" + seed).digest())

    @property
    def public_hex(self) -> str:
        return self._public_hex

    @property
    def private_bytes(self) -> bytes:
        return self._key.private_bytes_raw()

    def sign(self, message: bytes) -> bytes:
        return self._key.sign(message)

    def __repr__(self) -> str:  # never show private material
        return f"SigningKey(public={self._public_hex[:12]}…)"


def public_key_from_hex(text: str) -> bytes:
    if not is_hex64(text):
        raise MalformedKey(f"not a lowercase 64-char hex public key: {text!r}")
    return bytes.fromhex(text)


def verify_signature(public_key: Union[str, bytes], message: bytes, signature: bytes) -> bool:
    """True iff signature is a valid Ed25519 signature by public_key.

    Malformed keys or signatures verify as False, they never raise: a
    validator must treat garbage on the wire the same as a bad signature.
    """
    try:
        raw = public_key_from_hex(public_key) if isinstance(public_key, str) else public_key
        if not isinstance(raw, bytes) or len(raw) != 32:
            return False
        if not isinstance(signature, bytes) or len(signature) != 64:
            return False
        Ed25519PublicKey.from_public_bytes(raw).verify(signature, message)
        return True
    except (InvalidSignature, ValueError, MalformedKey):
        return False


# The fewest signatures a process is given: forking, exiting and reaping a
# 40 MB interpreter costs about 3.7 ms, some 20 verifies, so a batch too
# small to give every process this many is verified in the caller alone.
_MIN_SHARE = 128


def verify_signatures(items: list) -> list:
    """[verify_signature(*item) for item in items], split across this
    process and forked helpers, at most one per further usable CPU, by
    parallel.split and parallel.run.

    Each (public key, message, signature) check is a pure function, so a
    helper verifies its contiguous share of items, which it inherits through
    fork, and sends one byte per verdict. A helper that cannot start, exits
    non-zero or sends a short or malformed reply costs only time: this
    process verifies that share itself.
    """
    def work(start: int, end: int) -> list:
        return [verify_signature(*item) for item in items[start:end]]

    def parse(reply: bytearray, start: int, end: int):
        if len(reply) != end - start or reply.translate(None, b"\x00\x01"):
            return None
        return [byte == 1 for byte in reply]

    shares = parallel.split([1] * len(items), _MIN_SHARE)
    return parallel.run(shares, work, lambda start, end: bytes(work(start, end)), parse)


def save_key_file(path: str, key: SigningKey) -> None:
    """Create a key file; an existing one is never replaced (AlreadyExists)."""
    write_canonical_file(path, {"public": key.public_hex, "secret": key.private_bytes.hex()},
                         exclusive=True, mode=0o600)


def load_key_file(path: str) -> SigningKey:
    """An unreadable file is an IoError; unparsable contents are MalformedKey."""
    try:
        obj = read_canonical_file(path, "key file")
    except InvalidBody as exc:
        raise MalformedKey(f"key file {path} is not canonical JSON") from exc
    if not isinstance(obj, dict) or set(obj) != {"public", "secret"}:
        raise MalformedKey(f"key file {path} must hold exactly public and secret")
    secret = obj["secret"]
    if not is_hex64(secret):
        raise MalformedKey(f"key file {path} has a malformed secret")
    key = SigningKey(bytes.fromhex(secret))
    if key.public_hex != obj["public"]:
        raise MalformedKey(f"key file {path}: public key does not match secret")
    return key
