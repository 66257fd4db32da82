"""Running skyprov's command line in process, and the op log it feeds.

Commands go through ``skyprov.cli.main`` in this process, one at a time (a
closed loop with one client). Some commands write to ``sys.stdout.buffer``,
so stdout is captured through a text wrapper over a byte buffer rather than
a plain ``io.StringIO``.
"""

from __future__ import annotations

import io
import json
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey


@dataclass
class CliResult:
    code: int
    lines: list  # stdout JSON lines, parsed
    seconds: float
    error: str = ""  # set when main raised instead of returning an exit code


_REF_KEY = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
_REF_PUBLIC = _REF_KEY.public_key()
_REF_SIGNED = [(msg, _REF_KEY.sign(msg)) for msg in (bytes([i]) * 300 for i in range(10))]


def _interpreter_ms() -> float:
    start = perf_counter()
    acc = 0
    for i in range(40_000):
        acc += i * i % 7
    return (perf_counter() - start) * 1e3


def _ed25519_ms() -> float:
    start = perf_counter()
    for msg, sig in _REF_SIGNED:
        _REF_PUBLIC.verify(sig, msg)
    return (perf_counter() - start) * 1e3


# reference_ms() on a 2-core x86-64 VM with Python 3.11 and cryptography 48
# when the host was quiet; timings at reference speed are scaled to it
REFERENCE_MS = 4.0


def reference_ms() -> float:
    """Time in ms of fixed work of the two kinds skyprov spends most of its
    time on: interpreted Python and Ed25519 verification, in the
    ``cryptography`` build skyprov uses. No skyprov change can alter its
    cost, so it measures how fast a shared host runs right now. Each part is
    the median of five runs, which drops a run hit by a momentary stall."""
    return (statistics.median(_interpreter_ms() for _ in range(5))
            + statistics.median(_ed25519_ms() for _ in range(5)))


def run_cli(main, argv) -> CliResult:
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    error = ""
    start = perf_counter()
    try:
        code = main(argv)
    except Exception as exc:  # an op that raises counts as failed, the run goes on
        code, error = -1, f"{type(exc).__name__}: {exc}"
    finally:
        seconds = perf_counter() - start
        sys.stdout, sys.stderr = saved
    raw = out.buffer.getvalue()
    lines = []
    for line in raw.splitlines():
        if line.strip():
            try:
                lines.append(json.loads(line))
            except ValueError:
                error = error or f"stdout line is not JSON: {line[:80]!r}"
    return CliResult(code, lines, seconds, error)


@dataclass
class Op:
    kind: str
    code: int
    seconds: float
    ok: bool
    problem: str
    cycle: int


class OpLog:
    """Every attempted op, with its latency and its oracle verdict."""

    def __init__(self):
        self.ops = []
        self.cycle = 0
        self.reference = {}  # cycle -> reference_ms() measured around it

    def record(self, kind: str, result: CliResult, problem: str) -> None:
        op = Op(kind, result.code, result.seconds, True, "", self.cycle)
        self.ops.append(op)
        problem = result.error or problem
        if problem:
            self.fail(op, problem)

    @staticmethod
    def fail(op: Op, problem: str) -> None:
        op.ok, op.problem = False, problem
        print(f"op {op.kind} failed: {problem}", file=sys.stderr)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)

    def ms(self, *kinds) -> list:
        """Latencies in ms of the successful ops of these kinds, in run order."""
        return [op.seconds * 1e3 for op in self.ops if op.ok and op.kind in kinds]

    def cycle_ms(self, cycles) -> list:
        """Summed latency of each listed cycle's ops."""
        total = {c: 0.0 for c in cycles}
        for op in self.ops:
            if op.cycle in total:
                total[op.cycle] += op.seconds * 1e3
        return [total[c] for c in cycles]

    def scaled_cycle_ms(self, cycles) -> list:
        """Each listed cycle's summed latency, at reference speed."""
        return [ms * REFERENCE_MS / self.reference[c] for c, ms in zip(cycles, self.cycle_ms(cycles))]

    def scaled_ms(self, cycles, *kinds) -> list:
        """Latencies of the successful ops of these kinds in the listed
        cycles, each at reference speed by its own cycle's reference time."""
        cycles = set(cycles)
        return [op.seconds * 1e3 * REFERENCE_MS / self.reference[op.cycle] for op in self.ops
                if op.ok and op.kind in kinds and op.cycle in cycles]


def tail(values):
    """(percentile, value): the highest whole percentile with at least ten
    samples above it, or None when there are too few samples."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    for p in range(99, 0, -1):
        rank = max(0, min(n - 1, int(round(p / 100 * (n - 1)))))
        if n - 1 - rank >= 10:
            return p, ordered[rank]
    return None


def summary(values) -> dict:
    """Median, tail and sample count of a list of timings."""
    out = {"n": len(values)}
    if values:
        out["p50"] = statistics.median(values)
        t = tail(values)
        if t is not None:
            out[f"p{t[0]}"] = t[1]
    return out
