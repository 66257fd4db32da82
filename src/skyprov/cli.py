"""Command-line driver.

One binary, subcommand style. All state lives under an explicit ``--home``
directory: keys in ``home/keys``, the default chain store in ``home/chain``,
storage roots resolved against ``home`` when registered with relative paths.
Machine output (JSON lines, digests) goes to stdout; progress notes go to
stderr. Exit codes: 0 success, 2 usage, 3 validation or integrity failure,
4 I/O.
"""

import argparse
import dataclasses
import json
import os
import sys

from .aggregation import (
    LocalSink,
    PublishSink,
    execute,
    publish_result,
    request_from_obj,
)
from .canonical import (
    dumps_canonical,
    dumps_validated,
    is_hex64,
    make_dirs,
    parse_json,
    read_file,
    write_canonical_file,
    write_file,
)
from .chain import (
    ORDERING_MODES,
    Checkpoint,
    GenesisConfig,
    load_chain,
    open_store,
    produce_block,
    replay_blocks,
    save_block_file,
    save_genesis,
)
from .errors import (
    AlreadyExists,
    IntegrityError,
    InvalidBody,
    IoError,
    NotFound,
    PathViolation,
    SkyprovError,
    UsageError,
)
from .index import QueryFilter, filter_from_obj, index_to_obj, query
from .keys import SigningKey, load_key_file, save_key_file
from .model import body_from_obj, dataset_to_obj, sign_transaction
from .netsim import run_simulation, sim_config_from_obj
from .storage import open_storage

USAGE_EXIT = 2
VALIDATION_EXIT = 3
IO_EXIT = 4

_IO_ERRORS = (IoError, PathViolation, AlreadyExists)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through the normal error path."""

    def error(self, message):
        raise UsageError(message)


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n")


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def _unique_keys(pairs) -> dict:
    """An object whose names are unique, as I-JSON (RFC 7493 section 2.3)
    requires; json.loads alone would keep the last of two values."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise InvalidBody(f"duplicate object key {key!r}")
        obj[key] = value
    return obj


def _read_json_file(path: str, what: str):
    """User-authored JSON, parsed leniently (any spacing, key order, newlines)
    except that every object's keys must be unique."""
    try:
        return parse_json(read_file(path, what), object_pairs_hook=_unique_keys)
    except InvalidBody as exc:
        raise InvalidBody(f"{what} {path}: {exc}") from exc


def _keys_dir(home: str) -> str:
    return os.path.join(home, "keys")


def _key_path(home: str, name: str) -> str:
    return os.path.join(_keys_dir(home), f"{name}.json")


def _chain_dir(args) -> str:
    if getattr(args, "chain", None):
        return args.chain
    if getattr(args, "home", None):
        return os.path.join(args.home, "chain")
    raise UsageError("either --chain or --home is required")


def _seal_block(state, args):
    """Produce the next block from the pool with the scheduled handler's key,
    and store it."""
    slot = state.last_slot() + 1
    handler_id = state.scheduled_handler(slot)
    key = load_key_file(_key_path(args.home, handler_id))
    block = produce_block(state, slot, key, now=state.slot_start_time(slot))
    verdict = state.receive_block(block)
    if not verdict.ok:
        raise IntegrityError(f"sealed block rejected: {verdict.reason}: {verdict.detail}")
    save_block_file(_chain_dir(args), block)
    return block


# -- subcommands -------------------------------------------------------------------


def cmd_keygen(args) -> int:
    try:
        args.name.encode()  # the seeded key hashes the name as UTF-8; a file name should have that form too
    except UnicodeEncodeError:
        raise UsageError(f"--name {args.name!r} has no UTF-8 form") from None
    path = _key_path(args.home, args.name)
    make_dirs(_keys_dir(args.home))
    if args.seed is not None:
        key = SigningKey.from_seed(f"cli:keygen:{args.seed}:{args.name}".encode())
    else:
        key = SigningKey.generate()
    save_key_file(path, key)
    _emit({"name": args.name, "path": path, "public": key.public_hex})
    return 0


def _handler_spec(home: str, spec: str):
    name, sep, value = spec.partition("=")
    if not sep or not name or not value:
        raise UsageError(f"--handler must look like NAME=PUBHEX or NAME=KEYNAME, got {spec!r}")
    if is_hex64(value):
        return name, value
    path = _key_path(home, value)
    if not os.path.exists(path):
        raise UsageError(f"--handler {spec!r}: not 64-char hex and no key named {value!r} in home")
    return name, load_key_file(path).public_hex


def cmd_genesis_init(args) -> int:
    chain_dir = _chain_dir(args)
    handlers = tuple(_handler_spec(args.home, spec) for spec in args.handler)
    config = GenesisConfig(
        handlers=handlers,
        slot_duration_ms=args.slot_ms,
        ordering_mode=args.ordering,
        genesis_time=args.genesis_time,
    )
    save_genesis(chain_dir, config)
    _emit({"genesis_hash": config.hash, "path": os.path.join(chain_dir, "genesis.json")})
    return 0


def cmd_sim_run(args) -> int:
    obj = _read_json_file(args.config, "config file")
    if args.seed is not None and isinstance(obj, dict):
        obj = dict(obj, seed=args.seed)
    config = sim_config_from_obj(obj)
    trace = run_simulation(config)
    data = trace.to_jsonl_bytes()
    _progress(f"simulated {config.duration_slots} slots on {len(config.handler_ids)} handlers: "
              f"{len(trace.events)} trace events")
    if args.trace:
        write_file(args.trace, data)
        _emit({"events": len(trace.events), "path": args.trace})
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    return 0


def cmd_tx_submit(args) -> int:
    state = load_chain(_chain_dir(args))
    body = body_from_obj(_read_json_file(args.body, "body file"))
    key = load_key_file(_key_path(args.home, args.key))
    created_at = args.created_at
    if created_at is None:
        created_at = state.slot_start_time(state.last_slot() + 1)
    tx = sign_transaction(body, key, created_at=created_at)
    verdict = state.submit(tx)
    if not verdict.ok:
        _emit({"error": verdict.reason, "message": verdict.detail, "tx_id": tx.tx_id})
        return VALIDATION_EXIT
    if args.no_seal:
        _emit({"sealed": False, "tx_id": tx.tx_id, "verdict": "ok"})
        return 0
    block = _seal_block(state, args)
    _progress(f"sealed block {block.header.height} with {len(block.transactions)} txs")
    _emit({"height": block.header.height, "sealed": True, "tx_id": tx.tx_id, "verdict": "ok"})
    return 0


def cmd_chain_verify(args) -> int:
    chain_dir = _chain_dir(args)
    # the user's file first: a malformed one costs no replay and gives one error line
    cp = Checkpoint.from_obj(_read_json_file(args.checkpoint, "checkpoint file")) if args.checkpoint else None
    state, heights = open_store(chain_dir)
    # The checkpoint must be the head state the replay reached at its height
    # (-1: before the first block). No consistency proof is needed on top:
    # the replay checked every header's registry_root and registry_size
    # against the log it extended, so a checkpoint that matches is a prefix
    # of this log, and a proof built from this log would always verify.
    reached = state.checkpoint() if cp is not None and cp.height < 0 else None
    results = []
    for height, verdict in replay_blocks(chain_dir, state, heights):
        results.append((height, verdict))
        if cp is not None and height == cp.height and verdict.ok:
            reached = state.checkpoint()
    for height, verdict in results:
        _emit({"height": height, "verdict": "ok" if verdict.ok else verdict.reason})
        if not verdict.ok:  # the replay's last verdict
            _emit({"error": verdict.reason, "height": height, "message": verdict.detail})
            return VALIDATION_EXIT
    log = state.registry_log
    final = {
        "blocks": state.head_height + 1,
        "head_root": log.root().hex(),
        "height": state.head_height,
        "registry_size": log.size,
    }
    if cp is not None:
        if reached != cp:
            _emit({"error": "IntegrityError", "message": "checkpoint is not consistent with this chain"})
            return VALIDATION_EXIT
        final["checkpoint"] = "ok"
    if args.write_checkpoint:
        write_canonical_file(args.write_checkpoint, state.checkpoint().to_obj())
        final["checkpoint_path"] = args.write_checkpoint
    _emit(final)
    return 0


def cmd_proof(args) -> int:
    chain_dir = _chain_dir(args)
    state = load_chain(chain_dir)
    log = state.registry_log
    if args.consistency_from is not None:
        envelope = dict(log.prove_consistency(args.consistency_from).to_obj(), kind="consistency")
    else:
        index = state.tx_index.get(args.tx_id)
        if index is None:
            raise NotFound(f"transaction {args.tx_id} is not on this chain")
        envelope = dict(log.prove_inclusion(index).to_obj(), kind="inclusion", leaf=log.leaf(index).hex(),
                        tx_id=args.tx_id)
    envelope["root"] = log.root().hex()
    sys.stdout.buffer.write(dumps_canonical(envelope) + b"\n")
    return 0


def cmd_index_build(args) -> int:
    chain_dir = _chain_dir(args)
    out = args.out
    if out is None:
        if not args.home:
            raise UsageError("--out or --home is required")
        out = os.path.join(args.home, "index.json")
    registry = load_chain(chain_dir).registry
    write_canonical_file(out, index_to_obj(registry))
    height, registry_size = registry.built_to
    _emit({
        "built_to": {"height": height, "registry_size": registry_size},
        "datasets": len(registry.datasets),
        "path": out,
    })
    return 0


# --where key -> QueryFilter field; time takes a range lo..hi, the rest a value
_WHERE_KEYS = {
    "time": "time_range",
    "facility": "facility_id",
    "kind": "kind",
    "storage": "storage_id",
    "energy_min": "energy_min",
    "energy_max": "energy_max",
    "ancestor_of": "ancestor_of",
    "descendant_of": "descendant_of",
}


def parse_where(clauses) -> QueryFilter:
    fields = {}
    for clause in clauses:
        key, sep, value = clause.partition("=")
        if not sep or not key or not value:
            raise UsageError(f"--where must look like key=value or key=lo..hi, got {clause!r}")
        field = _WHERE_KEYS.get(key)
        if field is None:
            raise UsageError(f"unknown --where key {key!r}")
        if field in fields:
            raise UsageError(f"--where {key} given twice")
        if field != "time_range":
            fields[field] = value
            continue
        lo, sep2, hi = value.partition("..")
        if not sep2:
            raise UsageError(f"--where {key} takes a range lo..hi, got {clause!r}")
        try:
            fields[field] = [int(lo), int(hi)]
        except ValueError:
            raise UsageError(f"--where {key} bounds must be integers, got {clause!r}")
    try:
        return filter_from_obj(fields)
    except SkyprovError as exc:
        raise UsageError(str(exc)) from exc


def cmd_query(args) -> int:
    if not args.where:
        raise UsageError("at least one --where predicate is required")
    f = parse_where(args.where)
    rows = query(load_chain(_chain_dir(args)).registry, f)
    for ds in rows:
        sys.stdout.buffer.write(dumps_validated(dataset_to_obj(ds)) + b"\n")  # dataset_to_obj checked every field
    _progress(f"{len(rows)} datasets matched")
    return 0


def _open_registered_storages(home: str, registry):
    storages = {}
    for storage_id, body in registry.storages.items():
        base = body.base_uri
        if not os.path.isabs(base):
            base = os.path.join(home, base)
        if os.path.isdir(base):
            storages[storage_id] = open_storage(base)
    return storages


def _prepare_aggregation(args):
    req = request_from_obj(_read_json_file(args.request, "request file"))
    state = load_chain(_chain_dir(args))
    return req, state, _open_registered_storages(args.home, state.registry)


def cmd_aggregate(args) -> int:
    req, state, storages = _prepare_aggregation(args)
    if isinstance(req.sink, PublishSink):
        raise UsageError("this request has a publish sink; use the publish command")
    if isinstance(req.sink, LocalSink) and not os.path.isabs(req.sink.path):
        req = dataclasses.replace(req, sink=LocalSink(os.path.join(args.home, req.sink.path)))
    result = execute(req, state.registry, storages)
    output_path = result.output_path
    if output_path is None and args.out:
        write_file(args.out, result.output_bytes)
        output_path = args.out
    summary = result.summary_obj()
    summary["output_path"] = output_path
    _progress(f"matched {len(result.matched_datasets)} datasets, "
              f"{result.events_in} events in, {result.events_out} out")
    _emit(summary)
    return 0


def cmd_publish(args) -> int:
    req, state, storages = _prepare_aggregation(args)
    if not isinstance(req.sink, PublishSink):
        raise UsageError("publish requires a request with a publish sink")
    result = execute(req, state.registry, storages)
    key = load_key_file(_key_path(args.home, args.key))
    created_at = args.created_at
    if created_at is None:
        created_at = state.slot_start_time(state.last_slot() + 1)
    tx = publish_result(result, req.sink, key, state, storages, created_at=created_at)
    out = {
        "dataset_id": req.sink.dataset_id,
        "sealed": False,
        "tx_id": tx.tx_id,
        "verdict": "ok",
    }
    if not args.no_seal:
        block = _seal_block(state, args)
        out["sealed"] = True
        out["height"] = block.header.height
    _emit(out)
    return 0


# -- parser ------------------------------------------------------------------------

# Each subcommand once, in help order: name -> (help, arguments). An argument
# is (flag, options); a tuple of arguments in its place is one required
# mutually exclusive group. The handler of "tx-submit" is cmd_tx_submit,
# looked up in this module when the command runs, so a wrapper set on the
# module attribute (a profiler's, say) is the one that runs.
_HOME = ("--home", {"required": True})
_HOME_OPT = ("--home", {"default": None})
_CHAIN = ("--chain", {"default": None})
_CREATED_AT = ("--created-at", {"type": int, "default": None})

COMMANDS = {
    "keygen": ("create a named signing key under home", (
        _HOME,
        ("--name", {"required": True}),
        ("--seed", {"type": int, "default": None, "help": "derive deterministically from a seed"}),
    )),
    "genesis-init": ("write a genesis file for a handler roster", (
        _HOME,
        _CHAIN,
        ("--handler", {"action": "append", "required": True, "metavar": "NAME=PUBHEX|NAME=KEYNAME"}),
        ("--slot-ms", {"type": int, "default": 100}),
        ("--ordering", {"choices": ORDERING_MODES, "default": "fixed"}),
        ("--genesis-time", {"type": int, "default": 1_000_000_000_000}),
    )),
    "sim-run": ("run a simulated handler network from a config file", (
        ("--config", {"required": True}),
        ("--seed", {"type": int, "default": None, "help": "override the config seed"}),
        ("--trace", {"default": None, "help": "write the trace here instead of stdout"}),
    )),
    "tx-submit": ("sign a transaction body and seal it into a block", (
        _HOME,
        _CHAIN,
        ("--key", {"required": True, "help": "signing key name under home/keys"}),
        ("--body", {"required": True, "help": "JSON transaction body file"}),
        _CREATED_AT,
        ("--no-seal", {"action": "store_true", "help": "validate only, do not extend the chain"}),
    )),
    "chain-verify": ("replay a chain store with full validation", (
        _HOME_OPT,
        _CHAIN,
        ("--checkpoint", {"default": None, "help": "also verify log consistency from this checkpoint"}),
        ("--write-checkpoint", {"default": None, "help": "store the verified head as a checkpoint"}),
    )),
    "proof": ("emit an inclusion or consistency proof for the registry log", (
        _HOME_OPT,
        _CHAIN,
        (("--tx-id", {"default": None}),
         ("--consistency-from", {"type": int, "default": None, "metavar": "OLD_SIZE"})),
    )),
    "index-build": ("build the query index from a chain store", (
        _HOME_OPT,
        _CHAIN,
        ("--out", {"default": None}),
    )),
    "query": ("query the registry; one dataset JSON per line", (
        _HOME_OPT,
        _CHAIN,
        ("--where", {"action": "append", "default": [], "metavar": "K=V|K=lo..hi"}),
    )),
    "aggregate": ("run an aggregation request to a local sink", (
        _HOME,
        _CHAIN,
        ("--request", {"required": True}),
        ("--out", {"default": None, "help": "output file when the request has no sink"}),
    )),
    "publish": ("run an aggregation and register the result as a dataset", (
        _HOME,
        _CHAIN,
        ("--request", {"required": True}),
        ("--key", {"required": True}),
        _CREATED_AT,
        ("--no-seal", {"action": "store_true"}),
    )),
}


def _add_arguments(parser: _Parser, arguments) -> None:
    for argument in arguments:
        if isinstance(argument[0], tuple):  # a required mutually exclusive group
            group = parser.add_mutually_exclusive_group(required=True)
            for flag, options in argument:
                group.add_argument(flag, **options)
        else:
            flag, options = argument
            parser.add_argument(flag, **options)


def build_parser() -> _Parser:
    """The parser of every subcommand: what main parses with when its first
    argument names no subcommand (none, --help or an unknown name)."""
    parser = _Parser(prog="skyprov", description="registry, audit, and aggregation toolkit")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, (help_text, arguments) in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), arguments)
    return parser


def command_parser(name: str) -> _Parser:
    """The parser of one subcommand, as build_parser builds it as a
    subparser: the same class and prog, so its help and errors are too."""
    parser = _Parser(prog=f"skyprov {name}")
    parser.set_defaults(command=name)
    _add_arguments(parser, COMMANDS[name][1])
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        if argv and argv[0] in COMMANDS:
            args = command_parser(argv[0]).parse_args(argv[1:])
        else:
            args = build_parser().parse_args(argv)
            if args.command is None:
                raise UsageError("a subcommand is required (see --help)")
        return globals()["cmd_" + args.command.replace("-", "_")](args)
    except UsageError as exc:
        _emit({"error": "UsageError", "message": str(exc)})
        return USAGE_EXIT
    except _IO_ERRORS as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return IO_EXIT
    except SkyprovError as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        return VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
