"""Exception hierarchy shared by all skyprov modules.

The CLI names each error by its class name in one machine-readable error
line, whichever module raised it.
"""

from __future__ import annotations


class SkyprovError(Exception):
    """Base class for all errors raised by this package."""


class IndexOutOfRange(SkyprovError):
    """Leaf index or prefix size outside the log bounds."""


class InvalidBody(SkyprovError):
    """Transaction body violates its structural invariants."""


class MalformedKey(SkyprovError):
    """Key material is not a usable Ed25519 key."""


class NotFound(SkyprovError):
    """Referenced entity (dataset, file, ...) does not exist."""


class PathViolation(SkyprovError):
    """Storage path escapes the storage root."""


class AlreadyExists(SkyprovError):
    """Write refused: the target path is already published."""


class IoError(SkyprovError):
    """Underlying read/write failure."""


class DecodeError(SkyprovError):
    """Malformed event record; carries the failing record index."""

    def __init__(self, message: str, record_index: int | None = None):
        super().__init__(message)
        self.record_index = record_index


class IntegrityError(SkyprovError):
    """Fetched bytes do not match the content hash recorded on chain."""


class PluginNotFound(SkyprovError):
    """Pipeline names a plugin missing from the plugin library."""


class PluginConfigError(SkyprovError):
    """Plugin parameters rejected at plan time."""


class DuplicateDataset(SkyprovError):
    """A dataset with this id is already registered (publish-once)."""


class DuplicateEntry(SkyprovError):
    """Archive merge received two entries with the same name."""


class UnsortedInput(SkyprovError):
    """A merge input stream violated its non-decreasing time guarantee."""


class NotScheduled(SkyprovError):
    """Handler attempted to produce a block outside its slot."""


class ConfigError(SkyprovError):
    """Simulation configuration is invalid or a fault precondition failed."""


class UnknownProgram(SkyprovError):
    """Publish requested under a program not registered on chain."""


class UsageError(SkyprovError):
    """Bad command-line invocation."""
