"""Tamper-evident registry and aggregation toolkit for air-shower event data.

Datasets live in ordinary storages; what goes on the permissioned chain is
metadata: storage registrations, analysis program registrations, dataset
publications, and derivations with full parentage. A Merkle log over the
transaction history gives clients checkpoint-based consistency proofs, the
index answers predicate queries over confirmed metadata, and the aggregation
engine fetches, verifies, merges, and republishes event data with recorded
provenance.
"""

from .aggregation import (
    AggregationRequest,
    AggregationResult,
    LocalSink,
    PluginSpec,
    PublishSink,
    execute,
    pipeline_parameters_hash,
    publish_result,
    request_from_obj,
)
from .canonical import dumps_canonical, loads_canonical, sha256_bytes
from .chain import (
    Block,
    BlockHeader,
    ChainState,
    Checkpoint,
    GenesisConfig,
    block_from_bytes,
    block_bytes,
    detect_equivocation,
    load_chain,
    load_genesis,
    produce_block,
    replay_chain,
    save_chain,
    validate_block,
)
from .errors import (
    AlreadyExists,
    ConfigError,
    DecodeError,
    DuplicateDataset,
    DuplicateEntry,
    IndexOutOfRange,
    IntegrityError,
    InvalidBody,
    IoError,
    MalformedKey,
    NotFound,
    NotScheduled,
    PathViolation,
    PluginConfigError,
    PluginNotFound,
    SkyprovError,
    UnknownProgram,
    UnsortedInput,
    UsageError,
)
from .index import QueryFilter, index_to_obj, query
from .keys import SigningKey, load_key_file, save_key_file, verify_signature
from .merkle import (
    ConsistencyProof,
    InclusionProof,
    MerkleLog,
    verify_consistency,
    verify_inclusion,
)
from .model import (
    DatasetDescriptor,
    DeriveDataset,
    EasEvent,
    FileRef,
    PmdTransaction,
    PublishDataset,
    RegisterProgram,
    RegisterStorage,
    RegistryState,
    provenance_trace,
    sign_transaction,
    tx_from_wire_bytes,
    validate_transaction,
)
from .netsim import SimConfig, run_simulation, sim_config_from_obj
from .storage import (
    StorageHandle,
    decode_events,
    encode_events,
    init_storage,
    open_storage,
    read_events,
    write_events,
)

__version__ = "0.1.0"
