"""Shared fixtures: deterministic keys, dataset factories, a small roster."""

import hashlib
import os

import pytest
from hypothesis import settings

from skyprov.chain import ChainState, GenesisConfig
from skyprov.keys import SigningKey
from skyprov.model import (
    DatasetDescriptor,
    FileRef,
    PublishDataset,
    RegisterProgram,
    RegisterStorage,
    RegistryState,
    sign_transaction,
)

GEOMETRY_HASH = hashlib.sha256(b"geometry-blob-v1").hexdigest()

# Every run draws the same examples (derandomize also turns off the example
# database), so two commits are compared on the same inputs.
settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Every test reaps every process it starts, forked verify helpers and
    subprocesses alike: one still running or unreaped fails the test."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind: waitpid(-1, WNOHANG) gave {left}")


def key_for(label: str) -> SigningKey:
    return SigningKey.from_seed(b"test:" + label.encode())


def make_dataset(
    dataset_id: str,
    kind: str = "primary",
    storage_id: str = "st-1",
    facility_id: str = "TAIGA",
    start: int = 1_000,
    end: int = 2_000,
    extra: dict = None,
    n_files: int = 1,
    file_format: str = "jsonl",
) -> DatasetDescriptor:
    refs = tuple(
        FileRef(
            path=f"data/{dataset_id}/part{i}.{file_format}",
            content_hash=hashlib.sha256(f"{dataset_id}:{i}".encode()).hexdigest(),
            size=100 + i,
            format=file_format,
        )
        for i in range(n_files)
    )
    return DatasetDescriptor(
        dataset_id=dataset_id,
        kind=kind,
        storage_id=storage_id,
        file_refs=refs,
        facility_id=facility_id,
        time_range=(start, end),
        detector_geometry_hash=GEOMETRY_HASH,
        extra=dict(extra or {}),
    )


def storage_body(storage_id: str = "st-1", kind: str = "jsonl", base_uri: str = "/tmp/st-1") -> RegisterStorage:
    return RegisterStorage(
        storage_id=storage_id,
        adapter_kind=kind,
        base_uri=base_uri,
        storage_pubkey=key_for(f"storage:{storage_id}").public_hex,
    )


def program_body(program_id: str = "prog-1", version: str = "1.0") -> RegisterProgram:
    return RegisterProgram(
        program_id=program_id,
        version=version,
        code_hash=hashlib.sha256(f"{program_id}@{version}".encode()).hexdigest(),
    )


@pytest.fixture
def user_key():
    return key_for("user-1")


@pytest.fixture
def base_state(user_key):
    """Registry with one storage and one program already confirmed."""
    state = RegistryState()
    state.apply(sign_transaction(storage_body(), user_key, created_at=10))
    state.apply(sign_transaction(program_body(), user_key, created_at=11))
    return state


def make_roster(n: int):
    ids = [f"h{i}" for i in range(n)]
    keys = {hid: key_for(f"handler:{hid}") for hid in ids}
    handlers = tuple((hid, keys[hid].public_hex) for hid in ids)
    return handlers, keys


@pytest.fixture
def roster3():
    return make_roster(3)


@pytest.fixture
def chain3(roster3):
    handlers, keys = roster3
    config = GenesisConfig(
        handlers=handlers,
        slot_duration_ms=100,
        ordering_mode="fixed",
        genesis_time=1_000_000_000,
    )
    return ChainState(config), keys


@pytest.fixture
def chain3_factory(roster3):
    """Fresh three-handler chain per call, for tests needing several chains."""
    handlers, keys = roster3

    def factory():
        config = GenesisConfig(
            handlers=handlers,
            slot_duration_ms=100,
            ordering_mode="fixed",
            genesis_time=1_000_000_000,
        )
        return ChainState(config), keys

    return factory
