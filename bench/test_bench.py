"""Self-tests of the benchmark: the corpus, the checks, the tracer and the output.

    python3 -m pytest bench -q

The corpus tests decide every expected answer by brute force or by the
symmetry of Paley graphs, never by the clique engine being measured.
"""

from __future__ import annotations

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_METRICS, Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _edge(rows, i, j):
    return bool(rows[i] >> j & 1)


def _clique_number(rows, blue: bool) -> int:
    n = len(rows)
    best = 1
    for size in range(2, n + 1):
        if not any(
            all(_edge(rows, i, j) == blue for i, j in itertools.combinations(c, 2))
            for c in itertools.combinations(range(n), size)
        ):
            break
        best = size
    return best


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "rows, blue_omega, red_omega",
    [
        (corpus.paley_rows(5), 2, 2),
        (corpus.paley_rows(13), 3, 3),
        (corpus.paley_rows(17), 3, 3),
        (corpus.circulant_rows(8, (1, 4)), 2, 3),
        (corpus.circulant_rows(13, (1, 5)), 2, 4),
    ],
)
def test_small_witnesses_by_brute_force(rows, blue_omega, red_omega):
    n = len(rows)
    assert all(_edge(rows, i, j) == _edge(rows, j, i) for i in range(n) for j in range(n))
    assert not any(_edge(rows, i, i) for i in range(n))
    assert _clique_number(rows, blue=True) == blue_omega
    assert _clique_number(rows, blue=False) == red_omega


@pytest.mark.parametrize("q", sorted(corpus.PALEY_OMEGA))
def test_paley_clique_number(q):
    """omega(q) from an explicit clique and an exhaustive search through the edge 01.

    Paley graphs are arc-transitive (x -> a x + b with a a nonzero square
    maps any edge to any other), so if any (omega+1)-clique existed, one
    would contain vertices 0 and 1.  They are self-complementary (x -> n x,
    n a non-square), so the red clique number is the same.
    """
    rows = corpus.paley_rows(q)
    omega = corpus.PALEY_OMEGA[q]
    clique = corpus.PALEY_CLIQUES[q]
    assert len(set(clique)) == omega
    assert all(_edge(rows, i, j) for i, j in itertools.combinations(clique, 2))

    def extend(members, candidates, need):
        if need == 0:
            return True
        for v in sorted(candidates):
            if extend(members + [v], {u for u in candidates if u > v and _edge(rows, u, v)}, need - 1):
                return True
        return False

    common = {v for v in range(2, q) if _edge(rows, 0, v) and _edge(rows, 1, v)}
    assert _edge(rows, 0, 1)
    assert not extend([0, 1], common, omega - 1)

    squares = {(x * x) % q for x in range(1, q)}
    non_square = next(x for x in range(2, q) if x not in squares)
    for i, j in itertools.combinations(range(q), 2):
        assert _edge(rows, i, j) != _edge(rows, i * non_square % q, j * non_square % q)


def test_relabel_is_an_isomorphism():
    rows = corpus.circulant_rows(13, (1, 5))
    perm = [(5 * i + 3) % 13 for i in range(13)]
    out = corpus.relabel_rows(rows, perm)
    for i, j in itertools.combinations(range(13), 2):
        assert _edge(rows, i, j) == _edge(out, perm[i], perm[j])


# ---------------------------------------------------------------------------
# workloads, checks and tracing, in-process on tiny inputs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def cli():
    return worker.import_cli()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_records_are_byte_identical(cli, name, tmp_path):
    workload = WORKLOADS[name]
    round_ops = workload.setup(7, str(tmp_path), True)
    plain = worker.run_rounds(cli, round_ops, rounds=1)
    tracer = Tracer()
    tracer.install()
    try:
        traced = worker.run_rounds(cli, round_ops, rounds=1, tracer=tracer)
    finally:
        tracer.uninstall()
    summary = worker.summarize(plain, workload.pooled)
    assert summary["failed"] == 0, summary["failures"]
    assert [r["out"] for r in plain[0]["ops"]] == [r["out"] for r in traced[0]["ops"]]
    assert tracer.spans and not tracer.absent
    values, absent = layer_metrics(tracer)
    assert not absent and set(values) | {"trace.overhead_s", "trace.overhead_share"} == set(LAYER_METRICS)


@pytest.mark.parametrize("name", ["witness-search", "witness-verify"])
def test_checks_catch_a_blind_clique_finder(cli, name, tmp_path, monkeypatch):
    import gaussian_ramsey.cliques

    monkeypatch.setattr(gaussian_ramsey.cliques, "find_mono_clique", lambda *args, **kwargs: None)
    results = worker.run_rounds(cli, WORKLOADS[name].setup(7, str(tmp_path), True), rounds=1)
    assert worker.summarize(results, WORKLOADS[name].pooled)["failed"] > 0


def test_pooled_scaling_check():
    check = workloads.check_scaling_mean(3, 0.4)
    predicted = workloads._red_slope(3, 0.4)

    def rec(red, blue):
        return {"result": {"fitted_red": red, "fitted_blue": blue}}

    assert check([rec(0.3 * predicted, 0.2), rec(1.9 * predicted, 0.3)]) is None
    assert check([rec(3.0 * predicted, 0.2)]) is not None
    assert check([rec(predicted, -0.1)]) is not None
    assert check([]) is not None


def test_round_rates_are_scaled_by_the_reference():
    def result(wall, work):
        return {"key": "a", "out": "{}", "wall": wall, "work": work, "failure": None}

    # the host runs round 1 at half speed: the op and the reference both take twice as long
    ref = worker.REF_S
    rounds = [
        {"ops": [result(1.0, 10), result(1.0, 10)], "ref_s": ref},
        {"ops": [result(2.0, 10), result(2.0, 10)], "ref_s": 2 * ref},
        {"ops": [result(1.0, 10), result(1.0, 10)], "ref_s": ref},
    ]
    summary = worker.summarize(rounds, {})
    assert summary["work_per_ref_s"] == pytest.approx(10.0)
    assert summary["work_per_s"] == pytest.approx(10.0)
    rounds[1]["ref_s"] = ref
    assert worker.summarize(rounds, {})["work_per_ref_s"] == pytest.approx(10.0)
    rounds[0]["ref_s"] = rounds[2]["ref_s"] = 2 * ref
    assert worker.summarize(rounds, {})["work_per_ref_s"] == pytest.approx(20.0)
    assert summary["attempted"] == 6 and summary["failed"] == 0


def test_removed_site_is_reported_absent(cli, tmp_path, monkeypatch):
    import gaussian_ramsey.estimators

    monkeypatch.delattr(gaussian_ramsey.estimators, "_map_batches")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    values, absent = layer_metrics(tracer)
    assert tracer.absent == ["gaussian_ramsey.estimators._map_batches"]
    assert set(absent) == {"estimators.batches", "estimators.thread_util"}
    assert values["estimators.batches"] == 0.0


# ---------------------------------------------------------------------------
# the command, end to end
# ---------------------------------------------------------------------------


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {k: v[0] for k, v in LAYER_METRICS.items()}
    assert SPEC["command"][1:] == ["bench/run.py"] and SPEC["paths"] == ["bench"]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric(name, trace):
    proc = _run(ROOT, "--workload", name, "--seed", "5", "--seconds", "1", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for m in expected:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"]
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"] for line in lines)
        if trace == "0":
            assert metric["value"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "witness-search", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
