"""The three workloads: set-up, one client cycle, and the oracle for each op.

Set-up times only the skyprov calls it makes; generating inputs and
computing expected outputs is the benchmark's own work and is not timed.
Every op runs through skyprov's command line (see ops.py) and is checked
against an expectation computed in inputs.py.
"""

from __future__ import annotations

import json
import os
import random
import statistics
from pathlib import Path
from time import perf_counter

import inputs as gen
from ops import OpLog, run_cli, summary

from skyprov.canonical import dumps_canonical
from skyprov.chain import ChainState, GenesisConfig, produce_block, save_chain
from skyprov.keys import SigningKey, save_key_file
from skyprov.merkle import InclusionProof, verify_inclusion
from skyprov.model import body_from_obj, event_from_obj, sign_transaction
from skyprov.netsim import run_simulation, sim_config_from_obj
from skyprov.storage import init_storage, write_events


class Clock:
    """Accumulates the time spent inside skyprov calls made under ``with``."""

    def __init__(self):
        self.seconds = 0.0

    def __enter__(self):
        self._start = perf_counter()

    def __exit__(self, *exc):
        self.seconds += perf_counter() - self._start


def _write_json(path: Path, obj) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(gen.canon(obj))
    return str(path)


def _keys(home: Path, seed: int, names, clock: Clock) -> dict:
    keys = {name: SigningKey.from_seed(f"bench:{seed}:{name}".encode()) for name in names}
    with clock:
        os.makedirs(home / "keys", exist_ok=True)
        for name, key in keys.items():
            save_key_file(str(home / "keys" / f"{name}.json"), key)
    return keys


def _build_chain(home: Path, keys: dict, handlers, bodies, blocks: int, clock: Clock, mark=None):
    """Sign every body, seal them over ``blocks`` blocks with a fixed roster,
    and save the store. Returns the signed transactions in chain order.
    ``mark(state)`` runs after each block, outside the clock."""
    config = GenesisConfig(
        handlers=tuple((h, keys[h].public_hex) for h in handlers),
        slot_duration_ms=100,
        ordering_mode="fixed",
        genesis_time=gen.GENESIS_TIME,
    )
    txs = []
    with clock:
        state = ChainState(config)
    for b in range(blocks):
        chunk = bodies[b * len(bodies) // blocks: (b + 1) * len(bodies) // blocks]
        with clock:
            for body in chunk:
                tx = sign_transaction(body_from_obj(body), keys["user"], created_at=gen.GENESIS_TIME + len(txs) + 1)
                state.submit(tx)
                txs.append(tx)
            slot = state.last_slot() + 1
            block = produce_block(state, slot, keys[state.scheduled_handler(slot)], now=state.slot_start_time(slot))
            verdict = state.receive_block(block)
        if not verdict.ok or len(block.transactions) != len(chunk):
            raise RuntimeError(f"set-up block {b} did not seal: {verdict.reason}")
        if mark is not None:
            mark(state)
    with clock:
        save_chain(state, str(home / "chain"))
    return txs


def _tx_wire(body: dict, tx) -> bytes:
    return gen.canon({"body": body, "created_at": tx.created_at, "creator": tx.creator,
                      "signature": tx.signature, "tx_id": tx.tx_id})


def _program_body(program) -> dict:
    return {"code_hash": gen.sha256_hex(f"{program[0]}@{program[1]}".encode()), "program_id": program[0],
            "type": "register_program", "version": program[1]}


def _storage_body(storage_id, codec, user) -> dict:
    return {"adapter_kind": codec, "base_uri": f"storages/{storage_id}", "storage_id": storage_id,
            "storage_pubkey": user.public_hex, "type": "register_storage"}


class Workload:
    """Shared plumbing: homes for repeated set-up, and one checked CLI op."""

    headline = ()  # op kinds whose median is request_ms_p50

    def __init__(self, seed: int, scale: str, work: Path, cli):
        # main is looked up on the module at each call, so a traced cycle
        # goes through the wrapper the tracer installed there
        self.seed, self.scale, self.work, self.cli = seed, scale, work, cli
        self.log = OpLog()
        self.tracer = None
        self.home = None

    def setup(self, attempt: int) -> float:
        """Build a fresh home; returns seconds spent in skyprov calls.
        The home of the first attempt is the one the run uses."""
        home = self.work / f"home{attempt}"
        clock = Clock()
        self.build(home, clock)
        if self.home is None:
            self.home = home
            self.after_setup()
        return clock.seconds

    def build(self, home: Path, clock: Clock):
        raise NotImplementedError

    def after_setup(self):
        """Untimed checks and expectations that need the built home."""

    def call(self, kind: str, argv, check):
        """Run one command; ``check(result)`` returns a problem or ''."""
        if self.tracer is not None:
            self.tracer.begin_op(len(self.log.ops))
        result = run_cli(self.cli.main, [str(a) for a in argv])
        if self.tracer is not None:
            self.tracer.end_op(result.seconds)
        problem = "" if result.error else check(result)
        self.log.record(kind, result, problem)
        return result

    def report(self) -> dict:
        return {}


def _expect_exit_zero(result) -> str:
    if result.code != 0:
        return f"exit {result.code}: {result.lines[-1:] if result.lines else ''}"
    return ""


# -- aggregate ---------------------------------------------------------------------


class Aggregate(Workload):
    headline = ("wide", "narrow", "codec")

    def __init__(self, *args):
        super().__init__(*args)
        self.inputs = gen.aggregate_inputs(self.seed, self.scale)
        self.requests = []  # (AggRequest, request file)
        self.published = 0
        self.height = 0
        self.events_in = {}  # op index -> events_in, for events/s

    def build(self, home, clock):
        keys = _keys(home, self.seed, ("h0", "h1", "user"), clock)
        user = keys["user"]
        bodies = [_storage_body(sid, codec, user) for sid, codec in self.inputs.storages]
        bodies.append(_program_body(self.inputs.program))
        handles = {}
        with clock:
            for sid, codec in self.inputs.storages:
                handles[sid] = init_storage(str(home / "storages" / sid), sid, codec)
        for ds in self.inputs.datasets:
            refs = []
            for f in ds.files:
                with clock:
                    digest = write_events(handles[ds.storage_id], f.path, [event_from_obj(e) for e in f.events])
                size = (home / "storages" / ds.storage_id / f.path).stat().st_size
                refs.append({"content_hash": digest.hex(), "format": ds.kind, "path": f.path, "size": size})
            bodies.append(gen.publish_body(ds.wire(refs)))
        blocks = max(1, len(bodies) // 8)
        _build_chain(home, keys, ("h0", "h1"), bodies, blocks, clock)
        if self.home is None:
            self.height = blocks - 1

    def after_setup(self):
        stored = {}
        for ds in self.inputs.datasets:
            for f in ds.files:
                data = (self.home / "storages" / ds.storage_id / f.path).read_bytes()
                stored[(ds.storage_id, f.path)] = data
                if ds.kind == "jsonl" and data != b"".join(gen.canon(e) + b"\n" for e in f.events):
                    raise RuntimeError(f"stored {f.path} is not the canonical encoding of its events")
        for i, req in enumerate(self.inputs.cycle):
            if req.expect["mode"] == "archive":
                files = [(f"{sid}/{path}", stored[(sid, path)]) for sid, path in req.expect["files"]]
                req.expect["output_digest"] = gen.expected_archive_digest(files)
            path = None
            if req.kind != "publish":
                path = _write_json(self.work / "requests" / f"req{i}.json", req.obj)
            self.requests.append((req, path))

    def cycle(self):
        for req, path in self.requests:
            if req.kind == "publish":
                self.publish(req)
                continue
            result = self.call(req.kind, ["aggregate", "--home", self.home, "--request", path],
                               lambda r, e=req.expect: self.check_summary(r, e))
            if req.expect["mode"] == "events" and result.code == 0:
                self.events_in[len(self.log.ops) - 1] = req.expect["events_in"]

    def publish(self, req):
        self.published += 1
        dataset_id = f"pub-{self.seed}-{self.published}"
        obj = dict(req.obj, sink=dict(req.obj["sink"], dataset_id=dataset_id))
        path = _write_json(self.work / "requests" / f"publish{self.published}.json", obj)
        want = {"dataset_id": dataset_id, "height": self.height + 1, "sealed": True, "verdict": "ok"}

        def check(result):
            problem = _expect_exit_zero(result)
            if problem:
                return problem
            row = dict(result.lines[-1])
            row.pop("tx_id", None)
            return "" if row == want else f"publish printed {row}, expected {want}"

        result = self.call("publish", ["publish", "--home", self.home, "--request", path, "--key", "user"], check)
        if result.code == 0:
            self.height += 1

    @staticmethod
    def check_summary(result, expect) -> str:
        problem = _expect_exit_zero(result)
        if problem:
            return problem
        got = result.lines[-1]
        want = {"mode": expect["mode"], "datasets_matched": len(expect["datasets"]),
                "output_digest": expect["output_digest"]}
        if expect["mode"] == "events":
            want.update(events_in=expect["events_in"], events_out=expect["events_out"],
                        drop_tally={"energy_filter": expect["dropped_missing"]} if expect["dropped_missing"] else {})
        else:
            want.update(files_fetched=len(expect["files"]))
        wrong = {k: (got.get(k), v) for k, v in want.items() if got.get(k) != v}
        return f"aggregate output differs from the oracle: {wrong}" if wrong else ""

    def report(self):
        ok_ms = {i: op.seconds for i, op in enumerate(self.log.ops) if op.ok}
        events = sum(n for i, n in self.events_in.items() if i in ok_ms)
        seconds = sum(ok_ms[i] for i in self.events_in if i in ok_ms)
        return {
            "agg_events_per_s": events / seconds if seconds else 0.0,
            "agg_request_ms": summary(self.log.ms(*self.headline)),
            "archive_ms": summary(self.log.ms("archive")),
            "publish_ms": summary(self.log.ms("publish")),
            "per_kind_ms": {k: summary(self.log.ms(k)) for k in ("wide", "narrow", "codec")},
            "event_volume": self.inputs.event_count,
            "datasets": len(self.inputs.datasets),
        }


# -- ledger ------------------------------------------------------------------------


class Ledger(Workload):
    # every ledger command replays the whole chain, so all four are the
    # headline, which gives four times the samples of tx-submit alone
    headline = ("submit", "query", "proof", "verify")

    def __init__(self, *args):
        super().__init__(*args)
        self.inputs = gen.ledger_inputs(self.seed, self.scale)
        self.rng = random.Random(f"ledger-run:{self.seed}")
        self.on_chain = []  # dataset wire objects confirmed so far
        self.wires = []  # setup transactions' wire bytes, in chain order
        self.height = self.txs = 0
        self.submitted = 0

    def build(self, home, clock):
        keys = _keys(home, self.seed, ("h0", "h1", "h2", "user"), clock)
        bodies = [_storage_body(self.inputs.storage_id, "jsonl", keys["user"]), _program_body(self.inputs.program)]
        bodies += [gen.publish_body(ds) for ds in self.inputs.setup_datasets]
        checkpoint = []

        def mark(state):
            if state.head_height == self.inputs.checkpoint_block:
                checkpoint.append(state.checkpoint())

        txs = _build_chain(home, keys, ("h0", "h1", "h2"), bodies, self.inputs.blocks, clock, mark)
        with clock:
            (home / "checkpoint.json").write_bytes(dumps_canonical(checkpoint[0].to_obj()) + b"\n")
        if self.home is None:
            self.wires = [_tx_wire(body, tx) for body, tx in zip(bodies, txs)]
            self.txs = len(txs)
            self.height = self.inputs.blocks - 1
            self.on_chain = list(self.inputs.setup_datasets)

    def after_setup(self):
        self.bodies = [_write_json(self.work / "bodies" / f"body{i}.json", gen.publish_body(ds))
                       for i, ds in enumerate(self.inputs.fresh_datasets)]

    def cycle(self):
        home = ["--home", self.home]
        self.submit(home)
        facility, lo, hi = self.rng.choice(self.inputs.queries)
        want_rows = gen.expected_query(self.on_chain, facility, lo, hi)
        self.call("query", ["query", *home, "--where", f"facility={facility}", "--where", f"time={lo}..{hi}"],
                  lambda r: self.check_query(r, want_rows))
        pick = self.rng.choice(self.inputs.proof_picks) + 2  # two bootstrap txs come first
        proof = self.call("proof", ["proof", *home, "--tx-id", json.loads(self.wires[pick])["tx_id"]],
                          lambda r: self.check_proof(r, pick))
        verify = self.call("verify", ["chain-verify", *home, "--checkpoint", self.home / "checkpoint.json"],
                           self.check_verify)
        # the proof is checked against the head root that chain-verify reports
        if proof.code == 0 and verify.code == 0 and self.log.ops[-1].ok and self.log.ops[-2].ok:
            root = bytes.fromhex(verify.lines[-1]["head_root"])
            env = proof.lines[-1]
            inclusion = InclusionProof(env["leaf_index"], env["tree_size"], tuple(bytes.fromhex(p) for p in env["path"]))
            if bytes.fromhex(env["root"]) != root or not verify_inclusion(root, bytes.fromhex(env["leaf"]), inclusion):
                self.log.fail(self.log.ops[-2], "inclusion proof does not verify against the chain-verify head root")

    def submit(self, home):
        if self.submitted >= len(self.bodies):
            raise RuntimeError("ran out of fresh transaction bodies; raise LEDGER_SIZES bodies")
        dataset = self.inputs.fresh_datasets[self.submitted]
        want = {"height": self.height + 1, "sealed": True, "tx_id": gen.expected_tx_id(gen.publish_body(dataset)),
                "verdict": "ok"}

        def check(result):
            problem = _expect_exit_zero(result)
            if problem:
                return problem
            return "" if result.lines[-1] == want else f"tx-submit printed {result.lines[-1]}, expected {want}"

        result = self.call("submit", ["tx-submit", *home, "--key", "user", "--body", self.bodies[self.submitted]],
                           check)
        self.submitted += 1
        if result.code == 0:
            self.height += 1
            self.txs += 1
            self.on_chain.append(dataset)

    @staticmethod
    def check_query(result, want_rows) -> str:
        problem = _expect_exit_zero(result)
        if problem:
            return problem
        got = [gen.canon(row) for row in result.lines]
        return "" if got == want_rows else f"query printed {len(got)} rows, the scan finds {len(want_rows)}"

    def check_proof(self, result, pick) -> str:
        problem = _expect_exit_zero(result)
        if problem:
            return problem
        env = result.lines[-1]
        want = {"kind": "inclusion", "leaf_index": pick, "tree_size": self.txs,
                "leaf": gen.leaf_hash(self.wires[pick]).hex()}
        wrong = {k: env.get(k) for k, v in want.items() if env.get(k) != v}
        return f"proof envelope differs: {wrong}" if wrong else ""

    def check_verify(self, result) -> str:
        problem = _expect_exit_zero(result)
        if problem:
            return problem
        final, blocks = result.lines[-1], result.lines[:-1]
        want = {"blocks": self.height + 1, "checkpoint": "ok", "height": self.height, "registry_size": self.txs}
        wrong = {k: final.get(k) for k, v in want.items() if final.get(k) != v}
        if wrong:
            return f"chain-verify final line differs: {wrong}"
        if len(blocks) != self.height + 1 or any(b.get("verdict") != "ok" for b in blocks):
            return "chain-verify did not report every block ok"
        return ""

    def report(self):
        submit = self.log.ms("submit")
        tenth = max(1, len(submit) // 10)
        return {
            "submit_ms": summary(submit),
            "submit_ms_first_tenth": statistics.median(submit[:tenth]) if submit else None,
            "submit_ms_last_tenth": statistics.median(submit[-tenth:]) if submit else None,
            "query_ms": summary(self.log.ms("query")),
            "proof_ms": summary(self.log.ms("proof")),
            "verify_ms": summary(self.log.ms("verify")),
            "start_blocks": self.inputs.blocks,
            "start_txs": len(self.inputs.setup_datasets) + 2,
            "end_blocks": self.height + 1,
        }


# -- netsim ------------------------------------------------------------------------


WARMUP_CONFIG = {"seed": 1, "handlers": 5, "slot_duration_ms": 100, "duration_slots": 6,
                 "latency_ms": {"min": 5, "max": 60}, "txs_per_slot": 1}


class Netsim(Workload):
    headline = ("sim_run",)

    def __init__(self, *args):
        super().__init__(*args)
        self.configs = gen.netsim_configs(self.seed, self.scale)
        self.paths = []

    def build(self, home, clock):
        home.mkdir(parents=True)
        for i, config in enumerate(self.configs):
            _write_json(home / f"sim{i}.json", config)
        # parse every config and warm the consensus path once, as sim-run would
        with clock:
            for config in self.configs:
                sim_config_from_obj(config)
            run_simulation(sim_config_from_obj(WARMUP_CONFIG))

    def after_setup(self):
        self.paths = [self.home / f"sim{i}.json" for i in range(len(self.configs))]

    def cycle(self):
        for path in self.paths:
            self.call("sim_run", ["sim-run", "--config", path], self.check_sim)

    @staticmethod
    def check_sim(result) -> str:
        return _expect_exit_zero(result) or gen.check_sim_trace(result.lines)

    def report(self):
        runs = [op for op in self.log.ops if op.ok]
        slots = len(runs) * self.configs[0]["duration_slots"]
        seconds = sum(op.seconds for op in runs)
        return {
            "sim_slots_per_s": slots / seconds if seconds else 0.0,
            "sim_run_ms": summary(self.log.ms("sim_run")),
            "configs": len(self.configs),
            "slots_per_config": self.configs[0]["duration_slots"],
        }


WORKLOADS = {"aggregate": Aggregate, "ledger": Ledger, "netsim": Netsim}
