"""Smoke run of the benchmark at tiny sizes.

    python3 skybench/smoke.py

Checks, for every workload, that a short run exits 0 with a result line
carrying every end-to-end metric in BENCHMARK.json (and, traced, every
per-layer metric) plus the workload's own figures in the report line. Then
two negative cases: one flipped byte in a stored event file must make the
aggregate ops that read it exit 3 and count as failed rather than timed
successes, and a directory holding only the benchmark must make run.py exit
non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

REPORT_KEYS = {
    "aggregate": ("agg_events_per_s", "agg_request_ms", "archive_ms", "publish_ms"),
    "ledger": ("submit_ms", "query_ms", "proof_ms", "verify_ms", "submit_ms_first_tenth", "submit_ms_last_tenth"),
    "netsim": ("sim_slots_per_s", "sim_run_ms"),
}


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "skybench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(workload: str, trace: int, spec: dict) -> None:
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        value = metric["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value), (name, value)
        if not trace:
            assert value > 0, (workload, name, value)
    if not trace:
        missing = [k for k in REPORT_KEYS[workload] if report.get(k) in (None, {}, 0)]
        assert not missing, f"{workload}: report lacks {missing}"
    print(f"ok {workload} trace={trace}: {result['attempted']} ops")


def check_flipped_byte() -> None:
    sys.path.insert(0, str(HERE))
    from run import import_skyprov
    cli = import_skyprov()
    from workloads import Aggregate

    scratch = ROOT / ".skybench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="smoke-", dir=scratch))
    try:
        workload = Aggregate(1, "tiny", work, cli)
        workload.setup(0)
        first = workload.requests[0][0]
        ds = next(d for d in workload.inputs.datasets if d.dataset_id in first.expect["datasets"])
        target = workload.home / "storages" / ds.storage_id / ds.files[0].path
        data = bytearray(target.read_bytes())
        data[len(data) // 2] ^= 0x01
        target.write_bytes(bytes(data))
        workload.cycle()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    log = workload.log
    op = log.ops[0]
    assert op.code == 3 and not op.ok, op
    assert log.failed >= 1 and log.failed / len(log.ops) > 0
    assert op.seconds * 1e3 not in log.ms(op.kind), "a failed op was timed as a success"
    print(f"ok flipped byte: {log.failed} of {len(log.ops)} ops failed, the first with exit 3")


def check_without_program() -> None:
    scratch = ROOT / ".skybench"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=scratch))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "skybench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(bare, "aggregate", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok without the program: exit {proc.returncode}, no result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in REPORT_KEYS:
        for trace in (0, 1):
            check_result(workload, trace, spec)
    check_flipped_byte()
    check_without_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())
