"""Run one workload in this process: set up, time rounds of CLI ops, check them.

run.py starts this file in a fresh interpreter, under run.WORKER_ENV.
It imports the package from ``src/`` of the same checkout, makes the
workload's inputs, prints ``ready``, then ``reference <seconds>`` (the
reference computation timed right after set-up), and then runs whole
rounds of ops until ``--seconds`` have passed (at least one round).  The
last stdout line is one JSON object describing the run.  With
``--setup-only`` it exits after the reference line.  With ``--trace 1`` the timed rounds run untraced first; the
same rounds then run again with tracer.Tracer installed, the records of
both passes must match byte for byte, and the JSON carries per-layer
metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"


def import_cli():
    """gaussian_ramsey.cli from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import gaussian_ramsey.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"gaussian_ramsey imported from {cli.__file__}, not from {src}")
    return cli


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    from workloads import compute_threads

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mc_direct_threads": compute_threads(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "MALLOC_MMAP_THRESHOLD_": os.environ.get("MALLOC_MMAP_THRESHOLD_", "unset"),
        "commit": _git_commit(),
    }


def run_op(cli, op) -> dict:
    """One CLI call with stdout captured; failure is None or why the output is wrong."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(op.argv))
        wall = time.perf_counter() - start
        out = buf.getvalue()
        failure = op.check(rc, json.loads(out.splitlines()[0]))
    except Exception:  # one broken op is reported, the run goes on
        wall = time.perf_counter() - start
        out = buf.getvalue()
        failure = traceback.format_exc(limit=3).strip().splitlines()[-1]
    if failure is not None:
        failure = f"{' '.join(op.argv)}: {failure}"
    return {"key": op.key, "out": out, "wall": wall, "work": op.work, "failure": failure}


#: a typical reference_s() (two calls) on a 2-vCPU Xeon VM: work_per_ref_s
#: reads as work per second on a host that runs the reference this fast.
REF_S = 0.06


@functools.cache
def _reference_buffers():
    import numpy as np

    return np.empty((32, 3, 1024)), np.empty((32, 3, 3))


def reference_s() -> float:
    """Seconds for a fixed computation that calls nothing in the package.

    Pure-Python integer and bit work, like the clique search, then numpy
    normals and batched Gram matrices, like the samplers, into buffers
    allocated once so that no page faults are timed.  Timed around every
    round, it measures the speed the shared host gives this process then.
    """
    import numpy as np

    a, gram = _reference_buffers()
    start = time.perf_counter()
    x, acc = 0x9E3779B97F4A7C15, 0
    for i in range(60000):
        x = (x * 6364136223846793005 + i) & 0xFFFFFFFFFFFFFFFF
        acc += (x & (x - 1)).bit_count()
    gen = np.random.default_rng(12345)
    for _ in range(4):
        gen.standard_normal(out=a)
        np.matmul(a, a.transpose(0, 2, 1), out=gram)
    return time.perf_counter() - start


def run_rounds(cli, round_ops, seconds: float | None = None, rounds: int | None = None, tracer=None):
    """Whole rounds until `seconds` have passed (at least one), or exactly `rounds`.

    Returns one {"ops": op results, "ref_s": reference time} per round; the
    reference runs once before and once after the round's ops, and ref_s
    is the sum.
    """
    done = []
    start = time.perf_counter()
    while (len(done) < rounds) if rounds is not None else (not done or time.perf_counter() - start < seconds):
        ops = round_ops(len(done))
        ref_s = reference_s()
        results = []
        for op in ops:
            if tracer is not None:
                tracer.op = sum(len(d["ops"]) for d in done) + len(results)
            results.append(run_op(cli, op))
        done.append({"ops": results, "ref_s": ref_s + reference_s()})
    return done


def summarize(rounds: list[dict], pooled: dict) -> dict:
    """Counts over every op and pooled check; the median round rate, scaled and as timed.

    A round's rate is its work over its ops' wall time.  A shared host can
    run this process up to twice as slow for stretches as long as a whole
    run, and that moves the reference as much as the ops: work_per_ref_s
    scales each round's rate by the round's reference time over REF_S,
    which cancels the host's speed, and takes the median over rounds,
    which drops a round hit by a short burst.  work_per_s is the same
    median unscaled.  Each pooled check counts as one attempt.
    """
    results = [r for rnd in rounds for r in rnd["ops"]]
    failures = [r["failure"] for r in results if r["failure"] is not None]
    for key, check in pooled.items():
        recs = [json.loads(r["out"].splitlines()[0]) for r in results if r["key"] == key and r["failure"] is None]
        failure = check(recs)
        if failure is not None:
            failures.append(f"pooled {key}: {failure}")
    rates = [sum(r["work"] for r in rnd["ops"]) / sum(r["wall"] for r in rnd["ops"]) for rnd in rounds]
    refs = [rnd["ref_s"] for rnd in rounds]
    return {
        "attempted": len(results) + len(pooled),
        "failed": len(failures),
        "failures": failures[:5],
        "rounds": len(rounds),
        "work": sum(r["work"] for r in results),
        "op_wall_s": sum(r["wall"] for r in results),
        "round_work_per_s": rates,
        "round_ref_s": refs,
        "work_per_s": statistics.median(rates),
        "work_per_ref_s": statistics.median(rate * ref / REF_S for rate, ref in zip(rates, refs)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the self-tests")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    try:
        cli = import_cli()
    except ImportError as exc:
        print(f"bench: cannot import the package from src/: {exc}", file=sys.stderr)
        return 3
    workload = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        round_ops = workload.setup(args.seed, workdir, args.tiny)
        print("ready", flush=True)
        reference_s()  # warm-up
        print(f"reference {reference_s() + reference_s()!r}", flush=True)
        if args.setup_only:
            return 0
        record = {"workload": args.workload, "seed": args.seed, "unit": workload.unit, "env": environment()}
        if not args.trace:
            record.update(summarize(run_rounds(cli, round_ops, seconds=args.seconds), workload.pooled))
        else:
            record.update(trace_run(cli, round_ops, workload.pooled, args))
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(json.dumps(record), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def trace_run(cli, round_ops, pooled, args) -> dict:
    from tracer import Tracer, layer_metrics

    plain = run_rounds(cli, round_ops, seconds=args.seconds / 2.0)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_rounds(cli, round_ops, rounds=len(plain), tracer=tracer)
    finally:
        tracer.uninstall()
    for before, after in zip(
        [r for rnd in plain for r in rnd["ops"]], [r for rnd in traced for r in rnd["ops"]]
    ):
        if after["failure"] is None and after["out"] != before["out"]:
            after["failure"] = "traced record differs from the untraced one"
    summary = summarize(plain + traced, pooled)
    untraced_s = sum(r["wall"] for rnd in plain for r in rnd["ops"])
    traced_s = sum(r["wall"] for rnd in traced for r in rnd["ops"])
    values, absent = layer_metrics(tracer)
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    spans_path = OUT_DIR / f"spans-{args.workload}.jsonl"
    tracer.write(str(spans_path))
    summary.update(
        rounds=len(plain),
        layers=values,
        absent=absent,
        absent_sites=tracer.absent,
        untraced_s=untraced_s,
        traced_s=traced_s,
        spans_file=str(spans_path.relative_to(ROOT)),
    )
    return summary


if __name__ == "__main__":
    sys.exit(main())
