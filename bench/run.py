"""Benchmark of the gaussian-ramsey package: one command, four workloads.

    python3 bench/run.py --workload mc-direct --seed 1 --seconds 18 --trace 0

Run from the root of a checkout.  Each workload runs in a fresh worker
process (bench/worker.py) that imports the package from ``src/`` and
drives ``gaussian_ramsey.cli.main`` in-process, under WORKER_ENV.  Every op's output
is checked (workloads.py); ``failed`` counts the ops whose check failed.

End-to-end metrics (``--trace 0``):

* work_per_ref_s -- the workload's work per second of op wall time, each
  round scaled by a fixed reference computation timed in that round
  (worker.summarize says why), the median over rounds: Monte-Carlo trials
  per second on mc-direct and mc-light, search attempts per second on
  witness-search, certificates verified per second on witness-verify.
  The unscaled median, as timed, is printed as a comment.
* peak_rss_mb -- ru_maxrss of the worker process.
* setup_s -- process start to the first timed op (interpreter start,
  ``import gaussian_ramsey``, input generation), scaled like
  work_per_ref_s by the reference time each process measures right after
  its set-up; the median of SETUP_RUNS fresh processes, half started before
  the measured worker and half after.  The unscaled median is printed as
  a comment.

``--trace 1`` runs the same rounds untraced and then traced, and reports
the per-layer metrics of tracer.py plus the tracing overhead.  Spans go
to ``.bench_out/spans-<workload>.jsonl``; each run's full
record, with the run environment, to ``.bench_out/<workload>-seed<seed>-
trace<t>.json``.

Exit status is 0 when a result was printed (``correct`` may still be
false), and nonzero without a result when the package cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import LAYER_METRICS  # noqa: E402
from worker import REF_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: OPENBLAS_NUM_THREADS: compute threads never exceed the CLI's --threads.
#: MALLOC_MMAP_THRESHOLD_: glibc's initial mmap threshold, held fixed.  Left
#: dynamic, the threshold moves with the order in which pool threads free
#: their batches, and peak RSS of one threaded run varies by a quarter.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "MALLOC_MMAP_THRESHOLD_": "131072"}
#: fresh processes whose set-up time is measured; the median is reported.
SETUP_RUNS = 5
#: a worker still running this many seconds beyond --seconds is killed.
GRACE_S = 90.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker_cmd(args, setup_only: bool) -> list[str]:
    cmd = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.tiny:
        cmd.append("--tiny")
    if setup_only:
        cmd.append("--setup-only")
    return cmd


def _run_worker(args, setup_only: bool) -> tuple[float, float, str]:
    """Start a worker; return (seconds until it reported ready, its reference time, rest of its stdout)."""
    env = dict(os.environ, **WORKER_ENV)
    start = time.perf_counter()
    proc = subprocess.Popen(
        _worker_cmd(args, setup_only), stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT
    )
    watchdog = threading.Timer(args.seconds + GRACE_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        reference = proc.stdout.readline().split()
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or reference[:1] != ["reference"] or proc.returncode != 0:
        raise BenchError(f"worker failed (exit status {proc.returncode})")
    return setup_s, float(reference[1]), rest


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="gaussian-ramsey benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-tests")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        extra = 0 if args.trace else SETUP_RUNS - 1
        setups = [_run_worker(args, setup_only=True) for _ in range(extra // 2)]
        setups.append(_run_worker(args, setup_only=False))
        out = setups[-1][2]
        setups += [_run_worker(args, setup_only=True) for _ in range(extra - extra // 2)]
        record = json.loads(out.strip().splitlines()[-1])
    except (BenchError, ValueError, IndexError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    record["setup_runs_s"] = [setup_s for setup_s, _, _ in setups]
    record["setup_reference_s"] = [ref_s for _, ref_s, _ in setups]
    env = record["env"]
    print(f"# {args.workload}: {workload.why}")
    print(
        f"# env: nproc={env['nproc']} mc_direct_threads={env['mc_direct_threads']} cpu={env['cpu']!r} "
        f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']!r} "
        f"OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']} "
        f"MALLOC_MMAP_THRESHOLD_={env['MALLOC_MMAP_THRESHOLD_']} commit={env['commit']}"
    )
    print(
        f"# rounds={record['rounds']} ops_total={record['attempted']} ops_failed={record['failed']} "
        f"{workload.unit}={record['work']} work_per_s={record['work_per_s']:.6g} (as timed) "
        f"reference_s={statistics.median(record['round_ref_s']):.4f} (median; REF_S={REF_S})"
    )
    for failure in record["failures"]:
        print(f"# FAILED {failure}")

    if args.trace:
        metrics = {name: _metric(record["layers"][name], unit) for name, (unit, _) in LAYER_METRICS.items()}
        if record["absent"]:
            print(f"# absent (site removed from the package, reported as 0): {' '.join(record['absent'])}")
        print(
            f"# tracing overhead: {record['traced_s'] - record['untraced_s']:.4f} s on "
            f"{record['untraced_s']:.4f} s untraced; spans in {record['spans_file']}"
        )
    else:
        metrics = {
            "work_per_ref_s": _metric(record["work_per_ref_s"], "1/s"),
            "peak_rss_mb": _metric(record["peak_rss_mb"], "MB"),
            "setup_s": _metric(statistics.median(s * REF_S / ref for s, ref, _ in setups), "s"),
        }
        print(f"# {workload.unit}_per_s = work_per_ref_s; setup_s as timed: {statistics.median(record['setup_runs_s']):.4f} s")
    for name, metric in metrics.items():
        print(f"{name:36s} {metric['value']:>16.6g} {metric['unit']}")

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    record_path = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
