"""skyprov benchmark: one workload per run, driven through the command line.

Usage, from the root of a checkout:

    python3 skybench/run.py --workload aggregate|ledger|netsim|all --seed N \
        --seconds S --trace 0|1

The run builds its inputs from the seed in a scratch directory under
``.skybench/`` in the checkout, sets up a fresh home SETUP_REPEATS times
(timing only the skyprov calls; the first before the run, the rest spread
over it), and runs whole client cycles in a closed loop until ``--seconds``
have passed. Every op is checked against an oracle.

A shared host's speed drifts: on a 2-core x86-64 VM the same fixed work
took up to 1.5 times as long for spells of seconds to minutes. So every
timing in the result is taken at reference speed: scaled by REFERENCE_MS
over the time of a fixed piece of reference work (ops.reference_ms)
measured just before and after it. The raw figures, the reference times
and every workload-specific figure are in the report, the line before the
result.

With ``--trace 1`` every second cycle runs with the per-layer wrappers
installed (see tracing.py); the result carries the per-layer metrics, and
the tracing overhead is the traced cycles' median time over the untraced
cycles' median, minus one. The spans are written to
``.skybench/spans-<workload>-<seed>.jsonl.gz``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("aggregate", "ledger", "netsim")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                   help="all runs each workload in turn, each in a fresh interpreter")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny is for the smoke run")
    return p.parse_args(argv)


def import_skyprov():
    """skyprov.cli from this checkout's src/, or None when the checkout has no program."""
    src = ROOT / "src"
    if not (src / "skyprov" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(src))
    from skyprov import cli
    if Path(cli.__file__).resolve().parent != src / "skyprov":
        return None
    return cli


def freeze_heap():
    """Move everything alive now out of the collector's reach, so skyprov's
    collections do not scan the benchmark's own inputs and expectations,
    which a real command's process would not hold."""
    gc.collect()
    gc.freeze()


def run(args, cli, work: Path):
    from ops import REFERENCE_MS, reference_ms, summary
    from tracing import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.scale, work, cli)
    freeze_heap()
    log = workload.log
    setup_s, setup_scaled = [], []

    def setup():
        before = reference_ms()
        seconds = workload.setup(len(setup_s))
        setup_s.append(seconds)
        setup_scaled.append(seconds * REFERENCE_MS * 2 / (before + reference_ms()))

    setup()
    freeze_heap()
    tracer = Tracer() if args.trace else None
    plain, traced = [], []
    boundary = [reference_ms()]
    deadline = perf_counter() + args.seconds
    cycle = 0
    while True:
        if cycle % 2 and len(setup_s) < SETUP_REPEATS:
            # further set-ups are spread over the run, so a slow spell of a
            # shared host cannot cover all of them; their time is not run time
            start = perf_counter()
            setup()
            shutil.rmtree(work / f"home{len(setup_s) - 1}")
            deadline += perf_counter() - start
        tracing = tracer is not None and cycle % 2 == 1
        log.cycle = cycle
        workload.tracer = tracer if tracing else None
        if tracing:
            tracer.install()
        try:
            workload.cycle()
        finally:
            if tracing:
                tracer.uninstall()
        boundary.append(reference_ms())
        log.reference[cycle] = (boundary[-2] + boundary[-1]) / 2
        (traced if tracing else plain).append(cycle)
        cycle += 1
        if perf_counter() >= deadline and len(setup_s) == SETUP_REPEATS and (tracer is None or traced):
            break

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s_each": setup_s,
        "cycles": len(plain),
        "cycle_ms": log.cycle_ms(plain),
        "reference_ms": [log.reference[c] for c in plain],
        "ops": {kind: sum(1 for op in log.ops if op.kind == kind) for kind in sorted({op.kind for op in log.ops})},
        "failed": log.failed,
        "error_rate": log.failed / len(log.ops),
        "request_ms": summary(log.ms(*workload.headline)),
        **workload.report(),
    }
    if tracer is None:
        request_ms = log.scaled_ms(plain, *workload.headline)
        if not request_ms:
            raise RuntimeError(f"no {'/'.join(workload.headline)} op succeeded, nothing to time")
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "request_ms_p50": (statistics.median(request_ms), "ms"),
            "cycle_ms_p50": (statistics.median(log.scaled_cycle_ms(plain)), "ms"),
        }
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    else:
        overhead = statistics.median(log.scaled_cycle_ms(traced)) / statistics.median(log.scaled_cycle_ms(plain)) - 1
        metrics = tracer.metrics(overhead)
        report["traced_cycle_ms"] = log.cycle_ms(traced)
        report["trace_missing_targets"] = tracer.missing
        spans = ROOT / ".skybench" / f"spans-{args.workload}-{args.seed}.jsonl.gz"
        tracer.write_spans(str(spans))
        report["spans_file"] = str(spans.relative_to(ROOT))
    return report, {"correct": log.failed == 0, "attempted": len(log.ops), "failed": log.failed, "metrics": metrics}


def run_each(args) -> int:
    """Every workload in its own interpreter, so each peak_rss_mb is its own."""
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        sys.stdout.flush()
        code = subprocess.run(argv, check=False).returncode or code
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_each(args)
    cli = import_skyprov()
    if cli is None:
        print(f"no skyprov source under {ROOT / 'src'}; run from the root of a skyprov checkout", file=sys.stderr)
        return 2
    scratch = ROOT / ".skybench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        report, result = run(args, cli, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
