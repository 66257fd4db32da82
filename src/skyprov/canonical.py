"""Canonical JSON encoding used for every hashed or signed byte sequence.

One encoding rule set for transaction bodies, block headers, proofs and
event records: keys sorted lexicographically, no insignificant whitespace,
UTF-8, integers unquoted, decimals and digests carried as strings.  The same
logical value therefore always produces identical bytes, which is what makes
hashes and signatures reproducible.

Floats are rejected outright: every numeric field in signed material is
either an integer or a fixed-point decimal string.

Every file skyprov reads or writes goes through the helpers at the end of
this module, so a stored canonical object is always its bytes plus one
"\n", and an unreadable or unwritable path is always an IoError.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import json.scanner
import os
import re
from typing import Any

from .errors import AlreadyExists, InvalidBody, IoError

# Matched with fullmatch only: `$` would also accept a trailing "\n", which
# bytes.fromhex and Decimal then skip, giving one value two byte forms.
_HEX64_RE = re.compile(r"[0-9a-f]{64}")
_HEX128_RE = re.compile(r"[0-9a-f]{128}")
# fixed-point, non-negative; exponents and signs are not canonical
_DECIMAL_RE = re.compile(r"[0-9]+(\.[0-9]+)?")


# -- field checks: each tests first and builds its message only when it raises --


def _require(cond: bool, msg: str, *args) -> None:
    """Raise InvalidBody unless cond, with msg formatted with args if any."""
    if not cond:
        raise InvalidBody(msg.format(*args) if args else msg)


def _require_keys(obj: dict, keys: frozenset, what: str) -> None:
    if obj.keys() != keys:
        raise InvalidBody(f"{what} keys must be exactly {sorted(keys)}")


def _require_str(value: Any, name: str) -> str:
    if not isinstance(value, str) or not value:
        raise InvalidBody(f"{name} must be {'non-empty' if isinstance(value, str) else 'a string'}")
    return value


def _require_int(value: Any, name: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):  # a bool is an int: True would read as 1
        raise InvalidBody(f"{name} must be an integer")
    return value


def _require_count(value: Any, name: str) -> int:
    if _require_int(value, name) < 0:
        raise InvalidBody(f"{name} must be >= 0")
    return value


def _require_hex64(value: Any, name: str) -> str:
    if not is_hex64(value):
        raise InvalidBody(f"{name} must be 64 lowercase hex chars")
    return value


def _require_choice(value: Any, choices: tuple, name: str) -> Any:
    if value not in choices:
        raise InvalidBody(f"{name} must be one of {choices}")
    return value


def _require_str_map(value: Any, name: str) -> dict:
    """A copy of value, a dict of strings to strings."""
    if not isinstance(value, dict):
        raise InvalidBody(f"{name} must be a string map")
    for k, v in value.items():
        if not (isinstance(k, str) and isinstance(v, str)):
            raise InvalidBody(f"{name} {'values' if isinstance(k, str) else 'keys'} must be strings")
    return dict(value)


def _field_names(cls) -> frozenset:
    """A dataclass's field names: the keys of its wire object. Call it once,
    at import; dataclasses.fields costs microseconds per call."""
    return frozenset(f.name for f in dataclasses.fields(cls))


class once:
    """A read-only attribute computed on first access and then kept in the
    instance's __dict__, which a frozen dataclass allows; later reads find
    it there and never reach this descriptor.

    name, the attribute's name, defaults to the function's.

    Unlike functools.cached_property it takes no lock, so first reads of
    different objects do not queue behind one lock per class. Two threads
    may both compute one object's value; the values are pure functions of
    the object's fields, so either may be kept. An exception is raised
    and nothing is kept. dataclasses.replace builds a copy from fields
    only, so the copy computes its own values.
    """

    def __init__(self, func, name=None):
        self.func = func
        self.name = name or func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def is_hex64(value: Any) -> bool:
    """Lowercase 64-char hex: digests and Ed25519 public keys."""
    return isinstance(value, str) and _HEX64_RE.fullmatch(value) is not None


def is_hex128(value: Any) -> bool:
    """Lowercase 128-char hex: Ed25519 signatures."""
    return isinstance(value, str) and _HEX128_RE.fullmatch(value) is not None


def is_decimal(value: Any) -> bool:
    """Non-negative fixed-point decimal string such as "0.75"."""
    return isinstance(value, str) and _DECIMAL_RE.fullmatch(value) is not None


def _check_encodable(value: Any, path: str = "$") -> None:
    if value is None:
        return
    if isinstance(value, bool):
        raise InvalidBody(f"boolean not allowed in canonical value at {path}")
    if isinstance(value, int):
        return
    if isinstance(value, float):
        raise InvalidBody(f"float not allowed in canonical value at {path}")
    if isinstance(value, str):
        return
    if isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _check_encodable(item, f"{path}[{i}]")
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise InvalidBody(f"non-string key at {path}: {key!r}")
            _check_encodable(item, f"{path}.{key}")
        return
    raise InvalidBody(f"unencodable type {type(value).__name__} at {path}")


def dumps_canonical(value: Any) -> bytes:
    """Encode a JSON-compatible value to its unique canonical byte form."""
    _check_encodable(value)
    return dumps_validated(value)


# The one encoder every canonical byte form comes from. json.dumps with
# these arguments builds an encoder per call, a cost paid once per event
# decoded; this one is built once and holds no state between calls.
_encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def dumps_validated(value: Any) -> bytes:
    """dumps_canonical for a value a *_to_obj validator built.

    Those validators admit only strings, non-bool integers, None and lists
    and string-keyed dicts of them, so the encodability walk is skipped.
    A string holding a lone surrogate has no UTF-8 form (I-JSON, RFC 7493
    section 2.1, forbids it), so it is rejected here, for every encoder and
    for the round-trip in loads_canonical.
    """
    text = _encoder.encode(value)
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise InvalidBody(f"value has no UTF-8 form: {exc}") from exc


_scan_json = json.scanner.make_scanner(json.JSONDecoder())


def scan_json(text: str, at: int) -> tuple:
    """(value, offset after it) of the JSON value that starts at offset at
    of text, read by one prebuilt scanner, for readers that check the form
    of what they scanned after. json.loads would also sniff the encoding
    and skip whitespace, which no canonical bytes hold. InvalidBody when no
    value starts there; ValueError for bad JSON or an over-long integer,
    and RecursionError for deep nesting, as json.loads raises them."""
    try:
        return _scan_json(text, at)
    except StopIteration:  # which a generator calling this would turn into RuntimeError
        raise InvalidBody("not one JSON value") from None


def scan_one_json(data: bytes) -> Any:
    """The one JSON value UTF-8 data holds, as scan_json reads it; InvalidBody
    unless data holds exactly one, and ValueError for bad UTF-8."""
    text = data.decode("utf-8")
    value, end = scan_json(text, 0)
    _require(end == len(text), "not one JSON value")
    return value


@contextlib.contextmanager
def parse_failures():
    """Each way bytes fail to parse as JSON, inside the block, as InvalidBody."""
    try:
        yield
    except ValueError as exc:  # bad UTF-8, bad JSON, or an integer past int()'s digit limit
        raise InvalidBody(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:  # nesting deeper than the scanner can follow
        raise InvalidBody(f"JSON nested too deeply: {exc}") from exc


def read_part(build, data: bytes, value: Any):
    """build(value), accepted only if value encodes to data, the exact bytes
    it was scanned from, which become the built object's wire_bytes: build
    checks the shape and fields of a value that holds them as its wire form
    does, and no form is built to be encoded again."""
    part = build(value)
    _require(dumps_validated(value) == data, "input is not in canonical form")
    object.__setattr__(part, "wire_bytes", data)
    return part


def parse_json(data: bytes, object_pairs_hook=None) -> Any:
    """json.loads over UTF-8 bytes, with every way bytes fail to parse as
    InvalidBody. It does not check canonical form: a caller that needs it
    compares the bytes of what it built with data."""
    with parse_failures():
        return json.loads(data.decode("utf-8"), object_pairs_hook=object_pairs_hook)


def loads_canonical(data: bytes) -> Any:
    """Parse canonical bytes, rejecting any non-canonical encoding.

    Round-trips the parsed value through the encoder and requires a byte
    match, so accepted input is always a canonical-form fixpoint.
    """
    value = parse_json(data)
    try:
        canonical = dumps_canonical(value) == data
    except RecursionError as exc:  # the encodability walk on deeply nested input
        raise InvalidBody(f"JSON nested too deeply: {exc}") from exc
    if not canonical:
        raise InvalidBody("input is not in canonical form")
    return value


def sha256_bytes(data: bytes) -> bytes:
    """Plain SHA-256, used for content hashes and transaction ids."""
    return hashlib.sha256(data).digest()


def digest_to_hex(digest: bytes) -> str:
    if not isinstance(digest, bytes) or len(digest) != 32:
        raise InvalidBody("digest must be exactly 32 bytes")
    return digest.hex()


def digest_from_hex(text: str) -> bytes:
    """Parse a lowercase 64-char hex digest; uppercase is non-canonical."""
    if not is_hex64(text):
        raise InvalidBody(f"not a lowercase 64-char hex digest: {text!r}")
    return bytes.fromhex(text)


# -- files -----------------------------------------------------------------------


_READ_CHUNK = 1 << 16


def read_file(path: str, what: str, limit: int = -1) -> bytes:
    """The file's bytes, at most limit of them when limit >= 0.

    Read unbuffered, with no file object: one fstat sizes the first read,
    and reads go on until EOF or limit, so a file that grows meanwhile, or
    a pipe, is read to its end."""
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            # One byte past the fstat size: a file that did not grow is read
            # in one call, and the next finds EOF. os.read(fd, n) allocates n
            # bytes first, so a recorded limit must not choose n alone.
            n = os.fstat(fd).st_size + 1
            chunks = []
            while limit:  # a negative limit reads to EOF
                chunk = os.read(fd, n if limit < 0 else min(n, limit))
                if not chunk:
                    break
                chunks.append(chunk)
                if limit > 0:
                    limit -= len(chunk)
                n = _READ_CHUNK  # for EOF, or the rest of a pipe or of a file that grew
        finally:
            os.close(fd)
    except OSError as exc:  # a directory opens, and fails at its first read
        raise IoError(f"cannot read {what} {path}: {exc}") from exc
    return b"".join(chunks)


def loads_canonical_file(data: bytes) -> Any:
    """Parse the bytes of a file written by write_canonical_file; one trailing "\n" is optional."""
    return loads_canonical(data.removesuffix(b"\n"))


def read_canonical_file(path: str, what: str) -> Any:
    return loads_canonical_file(read_file(path, what))


def write_file(path: str, data: bytes, exclusive: bool = False, mode: int = 0o666) -> None:
    """Write data to path; exclusive refuses an existing path with AlreadyExists."""
    try:
        with open(path, "xb" if exclusive else "wb", opener=lambda p, flags: os.open(p, flags, mode)) as fh:
            fh.write(data)
    except FileExistsError as exc:
        raise AlreadyExists(f"{path} already exists") from exc
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_canonical_file(path: str, obj: Any, **kwargs) -> None:
    write_file(path, dumps_canonical(obj) + b"\n", **kwargs)


def replace_file(path: str, data: bytes) -> None:
    """Write data to a temp name beside path, then rename it over path, so a
    reader sees the whole old file or the whole new one. The temp name holds
    the process id, so two writers never share one."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        write_file(tmp, data)
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise IoError(f"cannot replace {path}: {exc}") from exc
    except IoError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def make_dirs(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create directory {path}: {exc}") from exc
