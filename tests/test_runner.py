"""The shared Monte-Carlo batch runner: moment merging, per-batch draws, thread clamp."""

import math

import numpy as np
import pytest

from gaussian_ramsey import estimators
from gaussian_ramsey.cli import main
from gaussian_ramsey.cliques import search_witness
from gaussian_ramsey.estimators import STREAM_STRIDE, correction_scaling, estimate_clique_prob, estimate_edge_density
from gaussian_ramsey.geometry import PerfectSpec, sample_bartlett
from gaussian_ramsey.sampling import RngStream, TruncatedSpec, sample_truncated
from gaussian_ramsey.validators import validate_bound


def _concatenated(stream, trials, batch, draw):
    """draw(gen, count) over the runner's partition, concatenated in batch order."""
    starts = range(0, trials, batch)
    return np.concatenate(
        [draw(stream.offset(bi).generator(), min(batch, trials - start)) for bi, start in enumerate(starts)]
    )


def _assert_moments(rec, vals, exact):
    mean = vals.mean()
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    if exact:
        assert rec["empirical"] == mean
        assert rec["mc_stderr"] == se
    else:
        assert rec["empirical"] == pytest.approx(mean, rel=1e-13)
        assert rec["mc_stderr"] == pytest.approx(se, rel=1e-11)


@pytest.mark.parametrize("elements", [1000, estimators._BATCH_ELEMENTS])
def test_exp_square_moment_merges_to_numpy(monkeypatch, elements):
    monkeypatch.setattr(estimators, "_BATCH_ELEMENTS", elements)
    sigma2, lam, trials, stream = 2.0, 0.1, 4500, RngStream(3)
    rec = validate_bound("exp_square_moment", {"sigma2": sigma2, "lam": lam}, trials, stream)

    def draw(gen, count):
        x = gen.standard_normal(count) * math.sqrt(sigma2)
        return np.exp(lam * x * x)

    # five batches (the last one short) when small, else exactly numpy's one-pass values
    _assert_moments(rec, _concatenated(stream, trials, elements, draw), exact=elements > trials)


@pytest.mark.parametrize("elements", [1000, estimators._BATCH_ELEMENTS])
def test_quadratic_moment_merges_to_numpy(monkeypatch, elements):
    monkeypatch.setattr(estimators, "_BATCH_ELEMENTS", elements)
    d, lam, cutoffs, trials, stream = 100, -2.0, [-0.3, 0.0, 0.5], 1000, RngStream(4)
    params = {"d": d, "k": 3, "lam": lam, "cutoffs": cutoffs}
    rec = validate_bound("quadratic_moment", params, trials, stream)
    specs = [TruncatedSpec(b, "lower", d) for b in cutoffs]

    def draw(gen, count):
        X = np.stack([sample_truncated(spec, gen, size=count) for spec in specs], axis=1)
        row_sum = X.sum(axis=1)
        S = 0.5 * (row_sum * row_sum - (X * X).sum(axis=1))
        return np.exp(lam * S)

    # when small: batches of 333 trials, three full ones and a final single trial
    batch = elements // 3
    _assert_moments(rec, _concatenated(stream, trials, batch, draw), exact=batch >= trials)


def _record_draws(monkeypatch) -> list[int]:
    """Patch every stream's generator to log the number of values each draw asks for."""
    sizes = []

    class Recording(np.random.Generator):
        def standard_normal(self, size=None, *args, **kwargs):
            out = kwargs.get("out")  # a draw into a buffer may give its size by the buffer alone
            sizes.append(int(np.prod(size if out is None else out.shape)))
            return super().standard_normal(size, *args, **kwargs)

        def chisquare(self, df, size=None):  # the validators' draws
            sizes.append(int(np.prod(size)))
            return super().chisquare(df, size)

        def standard_gamma(self, shape, size=None, *args, **kwargs):  # the triangular diagonal's draws
            out = kwargs.get("out")
            sizes.append(int(np.prod(size if out is None else out.shape)))
            return super().standard_gamma(shape, size, *args, **kwargs)

        def random(self, size=None, *args, **kwargs):
            out = kwargs.get("out")
            sizes.append(int(np.prod(size if out is None else out.shape)))
            return super().random(size, *args, **kwargs)

    plain = RngStream.generator
    monkeypatch.setattr(RngStream, "generator", lambda self: Recording(plain(self).bit_generator))
    return sizes


_RUNS = {
    "density": lambda s: estimate_edge_density(4, 8, 0.4, 5000, s, threads=2),
    "clique-direct": lambda s: estimate_clique_prob(
        3, 8, 0.4, "blue", trials=5000, stream=s, sampler="direct", perfect_spec=PerfectSpec.from_params(2.0, 3, 8, 0.4)
    ),
    "clique-bartlett": lambda s: estimate_clique_prob(4, 8, 0.4, "blue", trials=5000, stream=s, sampler="bartlett"),
    "scaling": lambda s: correction_scaling(3, 0.4, [8, 16], 5000, s, sampler="bartlett"),
    "conditional_edge": lambda s: validate_bound(
        "conditional_edge", {"p": 0.4, "d": 16, "inner": 0.0, "diag": 1.0}, 5000, s
    ),
    "norm_concentration": lambda s: validate_bound("norm_concentration", {"d": 16, "delta": 0.5}, 5000, s),
    "projection_tail": lambda s: validate_bound(
        "projection_tail", {"d": 100, "ell": 4, "s": 8, "p": 0.38, "C": 2.0}, 5000, s
    ),
    "exp_square_moment": lambda s: validate_bound("exp_square_moment", {"sigma2": 1.0, "lam": 0.2}, 5000, s),
    "quadratic_moment": lambda s: validate_bound(
        "quadratic_moment", {"d": 100, "k": 3, "lam": 1.0, "cutoffs": [-0.3, 0.0, 0.5]}, 5000, s
    ),
    "chi_square_tail": lambda s: validate_bound("chi_square_tail", {"freedom": 20, "t": 1.0}, 5000, s),
}


@pytest.mark.parametrize("name", sorted(_RUNS))
def test_no_draw_spans_more_than_one_batch(monkeypatch, name):
    # 5000 trials of at least one value each exceed 512 values several times
    # over, so a draw of the whole budget (or of two batches) would show here
    monkeypatch.setattr(estimators, "_BATCH_ELEMENTS", 512)
    sizes = _record_draws(monkeypatch)
    _RUNS[name](RngStream(5))
    assert len(sizes) > 1
    assert max(sizes) <= 512


@pytest.mark.parametrize(
    "sampler, params, elements, draws",
    # n = 18 <= d = 64: a triangular batch, one draw of its lower triangles and one chi draw per row the pairs read
    [("geometric", {"p": 0.5, "d": 64}, estimators._trial_elements(18, 64, "bartlett"), 1 + 17),
     ("binomial", {"p": 0.5}, 18 * 18, 1)],
    ids=["geometric", "binomial"],
)
def test_search_batches_stay_within_the_element_budget(monkeypatch, sampler, params, elements, draws):
    # n = 18 = R(4, 4): no attempt verifies, so all 20 attempts are drawn, 3 per batch
    monkeypatch.setattr(estimators, "_BATCH_ELEMENTS", 3 * elements)
    sizes = _record_draws(monkeypatch)
    assert search_witness(18, 4, 4, sampler, params, 20, RngStream(5)) is None
    assert len(sizes) == 7 * draws
    assert max(sizes) <= 3 * elements


def _triangular_ledger(count, r, norms):
    """One triangular batch's draw sizes: its strictly-lower normals, then one chi draw per diagonal entry read,
    every one when the norms are read, else all but L[r-1, r-1], which no pair reads."""
    return [count * math.comb(r, 2)] * (r > 1) + [count] * (r if norms else r - 1)


@pytest.mark.filterwarnings("ignore:binomial reference")  # 250 trials underpower the estimate; only draws count here
@pytest.mark.parametrize("perfect", [False, True], ids=["unrestricted", "perfect"])
@pytest.mark.parametrize("r", [1, 2, 3, 5])
def test_clique_batches_draw_a_chi_entry_per_row_read(monkeypatch, r, perfect):
    # 100 trials a batch: 250 trials are three batches, the last one short
    monkeypatch.setattr(estimators, "_BATCH_ELEMENTS", 100 * r * r)
    sizes = _record_draws(monkeypatch)
    spec = PerfectSpec(alpha_proj=1.0, delta=0.5, ell=r, d=16) if perfect else None
    estimate_clique_prob(r, 16, 0.4, "blue", trials=250, stream=RngStream(6), sampler="bartlett", perfect_spec=spec)
    assert sizes == sum((_triangular_ledger(count, r, perfect) for count in (100, 100, 50)), [])


_UNRESTRICTED = {
    # (run, trials a batch, r, batches)
    "scaling": (lambda s: correction_scaling(3, 0.4, [8, 16], 250, s, sampler="bartlett"), 250, 3, 2),
    "density": (lambda s: estimate_edge_density(6, 8, 0.4, 250, s), 250, 6, 1),
    "search": (lambda s: search_witness(18, 4, 4, "geometric", {"p": 0.5, "d": 64}, 20, s), 20, 18, 1),
    "sample": (lambda s: main(["sample", "--n", "7", "--d", "16", "--p", "0.4", "--seed", "6"]), 1, 7, 1),
}


@pytest.mark.parametrize("name", sorted(_UNRESTRICTED))
def test_unrestricted_triangular_batches_skip_the_last_chi_entry(monkeypatch, name):
    run, count, r, batches = _UNRESTRICTED[name]
    sizes = _record_draws(monkeypatch)
    run(RngStream(6))
    assert sizes == _triangular_ledger(count, r, False) * batches


def test_sample_bartlett_draws_every_chi_entry(monkeypatch):
    sizes = _record_draws(monkeypatch)
    sample = sample_bartlett(5, 16, RngStream(6))
    assert sizes == _triangular_ledger(1, 5, True)
    assert np.all(np.diag(sample.M) > 0)


def test_batch_size_refuses_a_trial_over_the_cap():
    cap = estimators._MAX_TRIAL_ELEMENTS
    assert estimators._batch_size(cap) == estimators._batch_size(cap, None) == 1
    for limit in (estimators._MAX_BATCH, None, 256):
        with pytest.raises(ValueError, match=f"one trial would hold {cap + 1} doubles, over the cap of {cap}"):
            estimators._batch_size(cap + 1, limit)


@pytest.fixture
def pools(monkeypatch):
    """A serial stand-in for ThreadPoolExecutor on a 3-CPU machine; yields each max_workers."""
    opened = []

    class FakePool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(estimators, "ThreadPoolExecutor", FakePool)
    monkeypatch.setattr(estimators, "_usable_cpus", lambda: 3)
    return opened


def _counts(trials, batch, threads):
    return estimators._map_plans([(trials, batch, RngStream(1), lambda gen, count, ws: count)], threads)[0]


def test_thread_clamp_to_cpu_count(pools):
    assert _counts(10, 2, 10**6) == [2, 2, 2, 2, 2]
    assert pools == [3]


def test_thread_clamp_to_batch_count(pools):
    assert _counts(3, 2, 10**6) == [2, 1]
    assert pools == [2]


def test_one_worker_runs_serially(pools, monkeypatch):
    assert _counts(10, 2, 1) == [2] * 5
    assert _counts(2, 2, 10**6) == [2]
    monkeypatch.setattr(estimators, "_usable_cpus", lambda: 1)
    assert _counts(10, 2, 10**6) == [2] * 5
    assert pools == []


def test_usable_cpus_reads_the_affinity_set(monkeypatch):
    if hasattr(estimators.os, "sched_getaffinity"):
        monkeypatch.setattr(estimators.os, "sched_getaffinity", lambda pid: {0, 5})
        monkeypatch.setattr(estimators.os, "cpu_count", lambda: 64)
        assert estimators._usable_cpus() == 2
    # without an affinity call the CPU count rules, one CPU when even that is unknown
    monkeypatch.delattr(estimators.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(estimators.os, "cpu_count", lambda: 3)
    assert estimators._usable_cpus() == 3
    monkeypatch.setattr(estimators.os, "cpu_count", lambda: None)
    assert estimators._usable_cpus() == 1


def test_clamped_estimate_matches_serial(pools):
    kwargs = dict(r=3, d=64, p=0.4, color="blue", trials=20000, stream=RngStream(6))
    assert estimate_clique_prob(threads=10**6, **kwargs) == estimate_clique_prob(threads=1, **kwargs)
    assert pools == [3]


def test_map_plans_returns_each_plan_in_batch_order(pools):
    stream = RngStream(1)
    plans = [(5, 2, stream, lambda gen, count, ws: ("a", count)), (3, 3, stream, lambda gen, count, ws: ("b", count))]
    assert estimators._map_plans(plans, 10**6) == [[("a", 2), ("a", 2), ("a", 1)], [("b", 3)]]
    assert pools == [3]


def test_a_runner_call_hands_every_batch_of_its_plans_one_workspace(pools):
    # the workspace lives as long as the call: every batch of both plans takes one buffer, which no batch after
    # the first outgrows, and the next call makes its own.  Each result holds its ws, so no id() is reused.
    def worker(gen, count, ws):
        ws.take("x", (count,))
        return ws, ws._buffers["x"]

    stream = RngStream(1)
    plans = [(5, 3, stream, worker), (4, 2, stream.offset(STREAM_STRIDE), worker)]
    first, second = ([seen for part in estimators._map_plans(plans, 10**6) for seen in part] for _ in range(2))
    assert len(first) == len(second) == 4
    for seen in (first, second):
        assert len({id(ws) for ws, _ in seen}) == len({id(buffer) for _, buffer in seen}) == 1
    assert first[0][0] is not second[0][0]
    assert pools == [3, 3]


def test_runner_hands_the_pool_at_most_in_flight_jobs(monkeypatch):
    handed = []

    class CountingPool:
        """Runs each map call serially and records how many jobs it was handed."""

        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            handed.append(len(items))
            return map(fn, items)

    monkeypatch.setattr(estimators, "ThreadPoolExecutor", CountingPool)
    monkeypatch.setattr(estimators, "_usable_cpus", lambda: 3)
    stream = RngStream(8)

    def worker(gen, count, ws):
        return count, int(gen.integers(1 << 32))

    plans = [(10**4, 1, stream, worker), (5, 2, stream.offset(STREAM_STRIDE), worker)]
    serial = estimators._map_plans(plans, 1)
    assert handed == []
    assert estimators._map_plans(plans, 2) == serial
    assert sum(handed) == 10**4 + 3 and max(handed) <= estimators._IN_FLIGHT
    assert [len(part) for part in serial] == [10**4, 3]


def test_partition_is_lazy_and_ends_short():
    stream = RngStream(4, 7)
    batches = [(RngStream(4, 7), 4), (RngStream(4, 8), 4), (RngStream(4, 9), 2)]
    assert list(estimators._partition(10, 4, stream)) == batches
    assert list(estimators._partition(1, 256, stream)) == [(RngStream(4, 7), 1)]
    assert next(estimators._partition(10**18, 1, stream)) == (RngStream(4, 7), 1)


def test_scaling_runs_every_dimension_on_one_pool(pools, monkeypatch):
    # direct trials of 3 vectors count 3d doubles: 10, 20 and 40 batches for d = 8, 16, 32
    monkeypatch.setattr(estimators, "_BATCH_ELEMENTS", 512)

    def scaling(threads):
        return correction_scaling(3, 0.4, [8, 16, 32], 200, RngStream(7), sampler="direct", threads=threads)

    serial = scaling(1)
    assert pools == []
    assert scaling(10**6) == serial
    assert pools == [3]  # one pool for the call, not one per dimension
    assert scaling(2) == serial
    assert pools == [3, 2]

    class ReversedPool:
        """Runs the jobs last first and returns their results in submission order."""

        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            items = list(items)
            return reversed([fn(item) for item in reversed(items)])

    monkeypatch.setattr(estimators, "ThreadPoolExecutor", ReversedPool)
    assert scaling(10**6) == serial  # no batch's draws depend on when it runs
