"""Byte-exact CLI records: search, verify, sample, the Monte-Carlo commands, solve and bounds.

Each case runs ``main`` in-process and compares stdout, byte for byte,
with a file under ``tests/golden/``.  The files pin the bit layout of
packed colorings (rows of one, two and three 64-bit words), the attempt
index at which each sampler first verifies, and the certificate text, so
any change to graph building or to the clique engine that alters a
record fails here.  The estimate, validate and scaling cases pin the
batch partition, the stream of each batch and the fold order of the
Monte-Carlo runner; several of them span more than one batch.  The solve
and bounds cases pin p_C and every quantity computed from it, at a bounds
config that establishes its margin and one that does not.  Every JSON-lines
record also replays: the argv rebuilt from the invocation it echoes gives
the same bytes and exit status.  The CSV cases and the scaling plot file
pin the other two renderings of a float.
"""

import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from gaussian_ramsey import cliques
from gaussian_ramsey.cli import main, parse_config, run

GOLDEN = Path(__file__).parent / "golden"

#: name -> (argv, exit status)
CASES = {
    "search-binomial-n5-33": (
        "search --n 5 --ell 3 --k 3 --sampler binomial --p 0.5 --max-attempts 1000 --seed 55", 0),
    "search-geometric-n5-33": (
        "search --n 5 --ell 3 --k 3 --sampler geometric --d 400 --p 0.5 --max-attempts 1000 --seed 101", 0),
    "search-binomial-n11-44": (
        "search --n 11 --ell 4 --k 4 --sampler binomial --p 0.5 --max-attempts 1000 --seed 2", 0),
    "search-geometric-n12-44": (
        "search --n 12 --ell 4 --k 4 --sampler geometric --d 64 --p 0.5 --max-attempts 1000 --seed 1028", 0),
    "search-binomial-n18-44": (
        "search --n 18 --ell 4 --k 4 --sampler binomial --p 0.5 --max-attempts 300 --seed 1", 1),
    "search-geometric-n18-44": (
        "search --n 18 --ell 4 --k 4 --sampler geometric --d 64 --p 0.5 --max-attempts 300 --seed 1", 1),
    # n > d: the direct sampler; a witness in the second batch
    "search-geometric-direct-n10-44": (
        "search --n 10 --ell 4 --k 4 --sampler geometric --d 6 --p 0.5 --max-attempts 1000 --seed 3", 0),
    # two-word rows: every attempt holds a red K_5; a witness at attempt 0; a witness after 20 rejected attempts
    "search-geometric-n70-5-12": (
        "search --n 70 --ell 5 --k 12 --sampler geometric --d 64 --p 0.5 --max-attempts 300 --seed 3", 1),
    "search-binomial-n70-11-11": (
        "search --n 70 --ell 11 --k 11 --sampler binomial --p 0.5 --max-attempts 10 --seed 5", 0),
    "search-binomial-n70-5-25": (
        "search --n 70 --ell 5 --k 25 --sampler binomial --p 0.22 --max-attempts 200 --seed 1", 0),
    "sample-n1": ("sample --n 1 --d 5 --p 0.4 --seed 2", 0),
    "sample-n20": ("sample --n 20 --d 64 --p 0.4 --seed 3", 0),
    "sample-n65": ("sample --n 65 --d 64 --p 0.4 --seed 4", 0),
    "sample-n130": ("sample --n 130 --d 16 --p 0.25 --seed 9", 0),
    "estimate-density": ("estimate --kind density --n 6 --d 32 --p 0.4 --trials 3000 --seed 4", 0),
    "estimate-density-batched": (
        "estimate --kind density --n 40 --d 512 --p 0.4 --trials 700 --threads 2 --seed 15", 0),
    "estimate-density-wide": (
        "estimate --kind density --n 200 --d 16 --p 0.4 --trials 300 --threads 2 --seed 16", 0),
    "estimate-density-triangular-batched": (
        "estimate --kind density --n 64 --d 1024 --p 0.5 --trials 2500 --threads 2 --seed 19", 0),
    # no sampler named: the pair plan's choice, triangular at r <= d
    "estimate-clique-default": (
        "estimate --kind clique --r 3 --d 64 --p 0.4 --color blue --trials 20000 --threads 2 --seed 5", 0),
    "estimate-clique-direct": (
        "estimate --kind clique --r 3 --d 64 --p 0.4 --color blue --sampler direct --trials 20000 --threads 2 "
        "--seed 5", 0),
    "estimate-clique-direct-perfect": (
        "estimate --kind clique --r 5 --d 256 --p 0.38 --color blue --sampler direct --restrict-perfect "
        "--alpha-proj 1.2 --delta 0.12 --trials 20000 --seed 17", 0),
    "estimate-clique-bartlett-perfect": (
        "estimate --kind clique --r 4 --d 400 --p 0.4 --color blue --sampler bartlett --restrict-perfect "
        "--trials 20000 --seed 6", 0),
    # the pair kernel's edges: one pair, no pairs (norms only), and n = d, the last n the triangular draw takes
    "estimate-clique-bartlett-r2": (
        "estimate --kind clique --r 2 --d 64 --p 0.4 --color blue --sampler bartlett --trials 20000 --seed 20", 0),
    "estimate-clique-bartlett-r1-perfect": (
        "estimate --kind clique --r 1 --d 64 --p 0.4 --color red --sampler bartlett --restrict-perfect "
        "--alpha-proj 1.2 --delta 0.12 --trials 20000 --seed 21", 0),
    # a perfect mask over several batches on two threads, the last batch short: each thread's workspace is reused
    "estimate-clique-bartlett-perfect-threads": (
        "estimate --kind clique --r 5 --d 256 --p 0.38 --color blue --sampler bartlett --restrict-perfect "
        "--alpha-proj 1.2 --delta 0.12 --trials 30000 --threads 2 --seed 29", 0),
    "estimate-density-triangular-square": (
        "estimate --kind density --n 32 --d 32 --p 0.4 --trials 5000 --threads 2 --seed 22", 0),
    "validate-norm-concentration": (
        "validate --check norm_concentration --d 400 --delta 0.3 --trials 25000 --seed 7", 0),
    "validate-norm-concentration-hits": (
        "validate --check norm_concentration --d 100 --delta 0.1 --trials 20000 --seed 18", 0),
    "validate-projection-tail": (
        "validate --check projection_tail --d 2500 --ell 4 --s 8 --p 0.38 --C 2 --trials 1100000 --seed 8", 0),
    "validate-exp-square-moment": (
        "validate --check exp_square_moment --sigma2 1 --lam 0.2 --trials 50000 --seed 9", 0),
    "validate-quadratic-moment": (
        "validate --check quadratic_moment --d 400 --k 5 --lam 2.5 --cutoffs=-0.3,-0.3,0,0.5,-1 "
        "--trials 20000 --seed 10", 0),
    # -inf truncates nothing, and its echo must parse back
    "validate-quadratic-moment-inf": (
        "validate --check quadratic_moment --d 400 --k 3 --lam 1.5 --cutoffs=-inf,-0.3,0 --trials 20000 --seed 23", 0),
    "validate-chi-square-tail": (
        "validate --check chi_square_tail --freedom 100 --t 2 --trials 30000 --seed 11", 0),
    "validate-conditional-edge": (
        "validate --check conditional_edge --p 0.38 --d 400 --inner=-0.05 --diag 0.9 --trials 20000 --seed 12", 0),
    "scaling-bartlett": (
        "scaling --r 3 --p 0.4 --dims 64,256 --sampler bartlett --trials 20000 --seed 13", 0),
    "scaling-direct": (
        "scaling --r 3 --p 0.4 --dims 64,256 --sampler direct --threads 2 --trials 12000 --seed 14", 0),
    "solve-C2": ("solve --C 2", 0),
    "bounds-C2-D100-ell100": ("bounds --C 2 --D 100 --ell 100", 0),  # margin established
    "bounds-C2-D1-ell5": ("bounds --C 2 --D 1 --ell 5", 0),  # margin not established
}

#: name -> (argv, exit status); CSV records, which do not replay from a JSON line
CSV_CASES = {
    "validate-conditional-edge-csv": (CASES["validate-conditional-edge"][0] + " --format csv", 0),
    "scaling-bartlett-csv": (CASES["scaling-bartlett"][0] + " --format csv", 0),
}


@pytest.mark.parametrize("name", sorted({**CASES, **CSV_CASES}))
def test_record_bytes(name, capsys):
    argv, status = {**CASES, **CSV_CASES}[name]
    assert main(argv.split()) == status
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_search_records_keep_their_bytes_when_the_batch_dive_settles_nothing(monkeypatch, capsys):
    # the batch dive skips only attempts the per-attempt verdict rejects, so the
    # per-attempt fallback alone gives every search record, byte for byte
    monkeypatch.setattr(cliques, "_dive_batch", lambda words, size: np.zeros(len(words), bool))
    for name in (name for name in CASES if name.startswith("search-")):
        argv, status = CASES[name]
        assert main(argv.split()) == status, name
        assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8"), name


def test_the_batch_dive_settles_every_attempt_of_a_two_word_search(monkeypatch, capsys):
    # each of the 300 attempts holds a red K_5 that a greedy walk finds, so none reaches the verdict
    monkeypatch.setattr(cliques, "_verdict", lambda g, ell, k: pytest.fail("an attempt reached the verdict"))
    argv, status = CASES["search-geometric-n70-5-12"]
    assert main(argv.split()) == status
    assert capsys.readouterr().out == (GOLDEN / "search-geometric-n70-5-12.txt").read_text(encoding="utf-8")


def test_stale_search_buffers_leave_every_search_record_as_it_was(capsys):
    # the search keeps its buffers for the thread's life: every batch writes what it reads, and the
    # pack clears the diagonal and padding its scatter never writes, so buffers left full of 0xFF
    # bytes (NaN as doubles, a nonzero byte as bools) give every search record, one- and two-word rows
    assert main(CASES["search-geometric-n70-5-12"][0].split()) == 1  # the widest rows: later packs carve from it
    capsys.readouterr()
    for name in (name for name in CASES if name.startswith("search-")):
        for buffer in cliques._WORKSPACE._buffers.values():
            buffer.view(np.uint8).fill(0xFF)
        argv, status = CASES[name]
        assert main(argv.split()) == status, name
        assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8"), name


def test_searches_on_threads_each_write_their_own_buffers():
    # four searches at once, switching often, ten times each: every record is its serial bytes, which
    # one workspace shared between the threads would not give.  The threads are daemons joined with a
    # deadline, since an attempt packed from clobbered rows can send the engine into an endless loop.
    names = ["search-binomial-n11-44", "search-geometric-direct-n10-44", "search-geometric-n12-44",
             "search-binomial-n5-33"]
    records = {}

    def search(name):
        records[name] = [run(parse_config(CASES[name][0].split())) for _ in range(10)]

    threads = [threading.Thread(target=search, args=(name,), daemon=True) for name in names]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for name in names:
        assert records.get(name) == [(CASES[name][1], (GOLDEN / f"{name}.txt").read_text(encoding="utf-8"))] * 10, name


def _replayed_argv(record: dict) -> list[str]:
    """The argv a record echoes: its command, then --key-with-hyphens=value per invocation key, lists
    comma-joined and a true value as a bare flag.  No execution knob (--threads) is echoed."""
    argv = [record["command"]]
    for key, value in record["invocation"].items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, list):
            value = ",".join(map(str, value))
        argv.append(flag if value is True else f"{flag}={value}")
    return argv


@pytest.mark.parametrize("name", sorted(CASES))
def test_echoed_invocation_replays_the_record(name, capsys):
    # at the default thread count, so the --threads 2 cases also show that their bytes are thread-invariant
    golden = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert main(_replayed_argv(json.loads(golden.split("\n", 1)[0]))) == CASES[name][1]
    assert capsys.readouterr().out == golden


def test_verify_record_bytes(tmp_path, monkeypatch, capsys):
    cert = (GOLDEN / "search-geometric-n12-44.txt").read_text(encoding="utf-8").split("\n", 1)[1]
    (tmp_path / "cert.txt").write_text(cert, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--in", "cert.txt"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "verify-n12-44.txt").read_text(encoding="utf-8")


def test_plot_file_bytes(tmp_path, monkeypatch, capsys):
    # the plot file is an artifact, not part of the record: the record keeps the scaling-bartlett bytes
    monkeypatch.chdir(tmp_path)
    assert main(CASES["scaling-bartlett"][0].split() + ["--plot-out", "plot.txt"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "scaling-bartlett.txt").read_text(encoding="utf-8")
    assert (tmp_path / "plot.txt").read_bytes() == (GOLDEN / "scaling-bartlett-plot.txt").read_bytes()


def test_every_golden_is_read():
    assert sorted(path.stem for path in GOLDEN.glob("*.txt")) == sorted(
        [*CASES, *CSV_CASES, "verify-n12-44", "scaling-bartlett-plot"]
    )
