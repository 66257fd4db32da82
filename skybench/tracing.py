"""Per-layer tracing from outside the program.

The traced run wraps public functions of skyprov's modules in place. A name
imported with ``from .x import y`` is bound in several module namespaces, so
each target is replaced wherever the same function object is bound. Each
call becomes a span (name, start, end, parent, op); parents are tracked per
thread, and a thread with no open span (aggregation's fetch pool) hangs its
spans under the op's open ``aggregation.execute`` span. Spans stay in memory
until the run ends. A layer's self time is its spans' durations minus the
time their child spans cover.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("canonical", "keys", "merkle", "model", "chain", "index", "storage", "aggregation", "netsim", "cli")
CLI_COMMANDS = ("aggregate", "publish", "tx_submit", "query", "proof", "chain_verify", "sim_run")

# spans whose metric is their whole duration rather than their self time
INCLUSIVE = ("chain.replay", "index.build", "aggregation.execute", "aggregation.publish", "netsim.run",
             "netsim.audit") + tuple(f"cli.{c}" for c in CLI_COMMANDS)


def _add_len(counter_name, pick=lambda args, result: result):
    def post(tracer, args, result):
        tracer.count(counter_name, len(pick(args, result)))
    return post


def _tx_seen(tracer, args, result):
    tracer.tx_ids.add(args[0].tx_id)


def _execute_done(tracer, args, result):
    tracer.count("aggregation.events_in", result.events_in)
    tracer.count("aggregation.events_out", result.events_out)


def _sim_done(tracer, args, result):
    tracer.count("netsim.trace_events", len(result.events))
    tracer.count("netsim.blocks_produced", sum(1 for e in result.events if e.get("type") == "produce"))


def _block_loaded(tracer, args, result):
    tracer.count("chain.txs_loaded", len(result.transactions))


# (module, attribute, span name or None for a counter only, post-call hook)
TARGETS = [
    ("canonical", "dumps_canonical", "canonical.encode", _add_len("canonical.encode_bytes")),
    ("canonical", "loads_canonical", "canonical.parse", None),
    ("keys", "verify_signature", "keys.verify", None),
    ("keys", "SigningKey.sign", "keys.sign", None),
    ("merkle", "MerkleLog.append", "merkle.append", None),
    ("merkle", "MerkleLog.prove_inclusion", "merkle.proof", None),
    ("merkle", "MerkleLog.prove_consistency", "merkle.proof", None),
    ("merkle", "verify_inclusion", "merkle.verify_proof", None),
    ("merkle", "verify_consistency", "merkle.verify_proof", None),
    ("model", "validate_event", "model.validate_event", None),
    ("model", "validate_transaction", "model.validate_tx", _tx_seen),
    ("model", "validate_dataset", "model.validate_dataset", None),
    ("chain", "replay_chain", "chain.replay", None),
    ("chain", "validate_block", "chain.validate_block", None),
    ("chain", "produce_block", "chain.produce_block", None),
    ("chain", "save_block_file", "chain.save_block", None),
    ("chain", "load_block_file", "chain.load_block", _block_loaded),
    ("chain", "_read_file", None, _add_len("chain.bytes_read")),
    ("index", "build_index", "index.build", None),
    ("index", "apply_block", "index.apply_block", None),
    ("index", "query", "index.query", _add_len("index.query_rows")),
    ("index", "resolve_files", "index.resolve", None),
    ("storage", "get_file", "storage.get_file", _add_len("storage.bytes_read", lambda a, r: r[0])),
    ("storage", "decode_events_jsonl", "storage.decode_jsonl", _add_len("storage.events_decoded")),
    ("storage", "decode_events_packed", "storage.decode_packed", _add_len("storage.events_decoded")),
    ("storage", "encode_events", "storage.encode", None),
    ("storage", "put_file", "storage.put_file", _add_len("storage.bytes_written", lambda a, r: a[2])),
    ("aggregation", "execute", "aggregation.execute", _execute_done),
    ("aggregation", "publish_result", "aggregation.publish", None),
    ("netsim", "run_simulation", "netsim.run", _sim_done),
    ("netsim", "Simulation.audit", "netsim.audit", None),
    ("netsim", "Simulation.handle_delivery", None, lambda t, a, r: t.count("netsim.deliveries", 1)),
    ("cli", "main", "cli.main", None),
] + [("cli", f"cmd_{c}", f"cli.{c}", None) for c in CLI_COMMANDS]

POOL_ROOT = "aggregation.execute"


class Tracer:
    """Records spans and counters while installed; inert otherwise."""

    def __init__(self):
        self.spans = []  # (op, span_id, parent_id, name, start, end)
        self.counters = Counter()
        self.tx_ids = set()  # distinct transactions validated in the current op
        self.op = None
        self.ops = 0
        self.op_seconds = 0.0
        self.missing = []
        self._pool_root = None
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patches = []  # (owner, attribute, original, wrapper)
        self._build()

    # -- installation --

    def _build(self):
        modules = [m for name, m in sorted(sys.modules.items()) if name.startswith("skyprov.")]
        for module_name, attr, span, post in TARGETS:
            module = importlib.import_module(f"skyprov.{module_name}")
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = getattr(owner, "__dict__", {}).get(method)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._patches.append((owner, method, original, self._wrap(original, span, post)))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, span, post)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, name, original, wrapper))

    def install(self):
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    def _wrap(self, fn, span, post):
        tracer = self
        if span is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                with tracer._lock:
                    post(tracer, args, result)
                return result
            return counted
        is_pool_root = span == POOL_ROOT

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._pool_root
            with tracer._lock:
                tracer._next_id += 1
                sid = tracer._next_id
            stack.append(sid)
            if is_pool_root:
                tracer._pool_root = sid
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if is_pool_root:
                    tracer._pool_root = parent
                tracer.spans.append((tracer.op, sid, parent, span, start, end))
            if post is not None:
                with tracer._lock:
                    post(tracer, args, result)
            return result
        return traced

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name, n):
        self.counters[name] += n

    # -- ops --

    def begin_op(self, op_id):
        self.op = op_id
        self.tx_ids = set()

    def end_op(self, seconds):
        self.ops += 1
        self.op_seconds += seconds
        self.counters["tx_base"] += len(self.tx_ids)
        self.op = None

    # -- results --

    def layer_times(self):
        """(self seconds, inclusive seconds, calls) per span name."""
        children = defaultdict(list)
        for span in self.spans:
            if span[2] is not None:
                children[span[2]].append((span[4], span[5]))
        self_s, incl_s, calls = Counter(), Counter(), Counter()
        for _, sid, _, name, start, end in self.spans:
            covered = 0.0
            cursor = start
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            self_s[name] += (end - start) - covered
            incl_s[name] += end - start
            calls[name] += 1
        return self_s, incl_s, calls

    def metrics(self, overhead: float) -> dict:
        self_s, incl_s, calls = self.layer_times()
        c = self.counters
        op_s = self.op_seconds

        def s(name):
            return incl_s[name] if name in INCLUSIVE else self_s[name]

        def ratio(a, b):
            return a / b if b else 0.0

        layer_self = Counter()
        for name, value in self_s.items():
            layer_self[name.split(".")[0]] += value
        tx_base = c["tx_base"]
        events = c["storage.events_decoded"]
        m = {
            "canonical.encode_calls": (calls["canonical.encode"], "count"),
            "canonical.encode_s": (s("canonical.encode"), "s"),
            "canonical.encode_bytes": (c["canonical.encode_bytes"], "bytes"),
            "canonical.parse_calls": (calls["canonical.parse"], "count"),
            "canonical.parse_s": (s("canonical.parse"), "s"),
            "canonical.encode_per_tx": (ratio(calls["canonical.encode"], tx_base), "ratio"),
            "keys.verify_calls": (calls["keys.verify"], "count"),
            "keys.verify_s": (s("keys.verify"), "s"),
            "keys.verify_per_tx": (ratio(calls["keys.verify"], tx_base), "ratio"),
            "keys.sign_calls": (calls["keys.sign"], "count"),
            "keys.sign_s": (s("keys.sign"), "s"),
            "merkle.append_calls": (calls["merkle.append"], "count"),
            "merkle.proof_s": (s("merkle.proof"), "s"),
            "merkle.proof_calls": (calls["merkle.proof"], "count"),
            "merkle.verify_proof_s": (s("merkle.verify_proof"), "s"),
            "model.validate_event_calls": (calls["model.validate_event"], "count"),
            "model.validate_event_s": (s("model.validate_event"), "s"),
            "model.validate_event_per_event": (ratio(calls["model.validate_event"], events), "ratio"),
            "model.validate_tx_calls": (calls["model.validate_tx"], "count"),
            "model.validate_tx_s": (s("model.validate_tx"), "s"),
            "model.validate_tx_per_tx": (ratio(calls["model.validate_tx"], tx_base), "ratio"),
            "model.validate_dataset_calls": (calls["model.validate_dataset"], "count"),
            "chain.replay_s": (s("chain.replay"), "s"),
            "chain.replay_calls": (calls["chain.replay"], "count"),
            "chain.blocks_replayed": (calls["chain.load_block"], "count"),
            "chain.replay_tx_per_s": (ratio(c["chain.txs_loaded"], s("chain.replay")), "tx/s"),
            "chain.validate_block_calls": (calls["chain.validate_block"], "count"),
            "chain.validate_block_s": (s("chain.validate_block"), "s"),
            "chain.produce_block_s": (s("chain.produce_block"), "s"),
            "chain.save_block_s": (s("chain.save_block"), "s"),
            "chain.load_block_s": (s("chain.load_block"), "s"),
            "chain.bytes_read": (c["chain.bytes_read"], "bytes"),
            "chain.replay_share": (ratio(s("chain.replay"), op_s), "ratio"),
            "index.build_s": (s("index.build"), "s"),
            "index.apply_block_calls": (calls["index.apply_block"], "count"),
            "index.query_s": (s("index.query"), "s"),
            "index.query_rows": (c["index.query_rows"], "count"),
            "index.resolve_s": (s("index.resolve"), "s"),
            "storage.get_file_calls": (calls["storage.get_file"], "count"),
            "storage.get_file_s": (s("storage.get_file"), "s"),
            "storage.bytes_read": (c["storage.bytes_read"], "bytes"),
            "storage.decode_jsonl_s": (s("storage.decode_jsonl"), "s"),
            "storage.decode_packed_s": (s("storage.decode_packed"), "s"),
            "storage.events_decoded": (events, "count"),
            "storage.encode_s": (s("storage.encode"), "s"),
            "storage.put_file_s": (s("storage.put_file"), "s"),
            "storage.bytes_written": (c["storage.bytes_written"], "bytes"),
            "aggregation.execute_s": (s("aggregation.execute"), "s"),
            "aggregation.self_s": (self_s["aggregation.execute"], "s"),
            "aggregation.publish_s": (s("aggregation.publish"), "s"),
            "aggregation.events_in": (c["aggregation.events_in"], "count"),
            "aggregation.events_out": (c["aggregation.events_out"], "count"),
            "aggregation.keep_ratio": (ratio(c["aggregation.events_out"], c["aggregation.events_in"]), "ratio"),
            "netsim.run_s": (s("netsim.run"), "s"),
            "netsim.audit_s": (s("netsim.audit"), "s"),
            "netsim.audit_share": (ratio(s("netsim.audit"), op_s), "ratio"),
            "netsim.deliveries": (c["netsim.deliveries"], "count"),
            "netsim.blocks_produced": (c["netsim.blocks_produced"], "count"),
            "netsim.trace_events": (c["netsim.trace_events"], "count"),
        }
        for command in CLI_COMMANDS:
            m[f"cli.{command}_s"] = (s(f"cli.{command}"), "s")
        m["cli.self_s"] = (layer_self["cli"], "s")
        for layer in LAYERS:
            m[f"{layer}.self_share"] = (ratio(layer_self[layer], op_s), "ratio")
        m["trace.spans"] = (len(self.spans), "count")
        # counts and times are per traced op, so they do not depend on how
        # many ops fit in the run; ratios and rates are left as they are
        per_op = max(self.ops, 1)
        m = {name: (value / per_op if unit in ("s", "count", "bytes") else value, unit)
             for name, (value, unit) in m.items()}
        m["trace.ops"] = (self.ops, "count")
        m["trace.overhead"] = (overhead, "ratio")
        return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}

    def write_spans(self, path: str) -> None:
        """All spans as gzip'd JSON lines: op, id, parent, name, start and end in seconds."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
