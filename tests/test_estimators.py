"""Monte-Carlo estimators: moments, coupling, determinism, reporting."""

import json
import math
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.stats import ks_2samp

from gaussian_ramsey import estimators
from gaussian_ramsey.cli import main
from gaussian_ramsey.cliques import ATTEMPT_BATCH, search_witness
from gaussian_ramsey.estimators import (
    STREAM_STRIDE,
    _pair_batch,
    correction_scaling,
    estimate_clique_prob,
    estimate_edge_density,
)
from gaussian_ramsey.geometry import (
    PerfectSpec,
    _bartlett_rows,
    _cholesky,
    bartlett_prefix_norms,
    gram_batch,
    sample_bartlett,
)
from gaussian_ramsey.sampling import RngStream
from gaussian_ramsey.validators import validate_bound


def test_single_vertex_probability_one():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        est = estimate_clique_prob(1, 16, 0.4, "red", trials=10, stream=RngStream(1))
    assert est.point == 1.0
    assert est.log_point == 0.0
    assert est.successes == 10


def test_pair_probability_at_half():
    est = estimate_clique_prob(2, 64, 0.5, "blue", trials=10**5, stream=RngStream(2))
    assert abs(est.point - 0.5) <= 4.0 * 0.5 / math.sqrt(10**5)
    assert est.ci_low <= est.point <= est.ci_high
    assert est.status == "ok"


def test_triangle_correction_signs():
    # red triples rarer, blue triples commoner than the binomial references
    trials = 2 * 10**5
    red = estimate_clique_prob(3, 100, 0.4, "red", trials=trials, stream=RngStream(3))
    blue = estimate_clique_prob(3, 100, 0.4, "blue", trials=trials, stream=RngStream(4))
    se_red = math.sqrt(red.point * (1.0 - red.point) / trials)
    se_blue = math.sqrt(blue.point * (1.0 - blue.point) / trials)
    assert red.point < 0.4**3 - 3.0 * se_red
    assert blue.point > 0.6**3 + 3.0 * se_blue


@pytest.mark.parametrize("color", ["red", "blue"])
@pytest.mark.parametrize("p", [0.38, 0.45])
@pytest.mark.parametrize("d", [64, 256])
@pytest.mark.parametrize("r", [2, 3, 4])
def test_samplers_agree(r, d, p, color):
    trials = 50000
    threads = estimators._usable_cpus()  # throughput only: the results do not depend on the thread count
    a = estimate_clique_prob(r, d, p, color, trials=trials, stream=RngStream(5), sampler="direct", threads=threads)
    b = estimate_clique_prob(r, d, p, color, trials=trials, stream=RngStream(6), sampler="bartlett", threads=threads)
    se = math.sqrt(
        a.point * (1.0 - a.point) / trials + b.point * (1.0 - b.point) / trials
    )
    assert abs(a.point - b.point) <= 4.0 * se, (r, d, p, color)


def test_red_probability_nonincreasing_in_r():
    trials = 10**5
    points = []
    for r in (2, 3, 4):
        est = estimate_clique_prob(r, 64, 0.4, "red", trials=trials, stream=RngStream(7), sampler="bartlett")
        points.append((est.point, math.sqrt(est.point * (1 - est.point) / trials)))
    for (p1, s1), (p2, s2) in zip(points, points[1:]):
        assert p2 <= p1 + 4.0 * math.hypot(s1, s2)


def test_perfect_restriction_is_subevent_per_trial():
    spec = PerfectSpec(alpha_proj=4.0, delta=0.25, ell=3, d=100)
    gen = RngStream(8).generator()
    blue, perfect = _pair_batch(gen, 20000, 3, 100, -0.00253, "bartlett", spec)
    success = ~blue.any(axis=0)  # red triangles
    restricted = success & perfect
    assert restricted.sum() <= success.sum()
    assert not (restricted & ~success).any()
    assert perfect.sum() < 20000  # the spec actually bites


def _hand_built_triangular(seed, count, r, d):
    """The (count, r, r) triangular batch drawn in the package's order, one entry group at a time."""
    gen = RngStream(seed).generator()
    il = np.tril_indices(r, -1)
    M = np.zeros((count, r, r))
    if r > 1:
        M[:, il[0], il[1]] = gen.standard_normal((count, len(il[0]))) / math.sqrt(d)
    for i in range(r):
        M[:, i, i] = np.sqrt(gen.chisquare(d - i, size=count) / d)
    return M


def _gram_gather_reference(seed, count, r, d, threshold, spec):
    """The pair and perfect masks the Gram way: the hand-built triangular batch, its BLAS Gram
    gathered through np.triu_indices, and prefix norms from np.cumsum."""
    M = _hand_built_triangular(seed, count, r, d)
    assert np.array_equal(M, np.moveaxis(_bartlett_rows(count, r, d, RngStream(seed).generator()), -1, 0))
    assert np.array_equal(sample_bartlett(r, d, RngStream(seed)).M, _hand_built_triangular(seed, 1, r, d)[0])
    sq = np.cumsum(M * M, axis=-1)
    norms, proj = np.sqrt(np.diagonal(sq, 0, 1, 2)), np.zeros((count, r))
    proj[:, 1:] = np.sqrt(np.diagonal(sq, -1, 1, 2))
    assert all(np.array_equal(a, b.T) for a, b in zip(bartlett_prefix_norms(np.moveaxis(M, 0, -1)), (norms, proj)))
    iu = np.triu_indices(r, 1)
    return gram_batch(M)[:, iu[0], iu[1]] >= threshold, spec.admits(norms, proj).all(axis=1)


@pytest.mark.parametrize("r", [1, 2, 3, 5, 8, 64])
def test_triangular_pair_kernel_matches_the_gram_gather(r):
    count, d, p = 400, 256, 0.4
    threshold = -estimators.solve_cp(p) / math.sqrt(d)
    spec = PerfectSpec(alpha_proj=1.0, delta=0.1, ell=r, d=d)
    admitted = 0
    for seed in range(30, 35):
        blue, perfect = _pair_batch(RngStream(seed).generator(), count, r, d, threshold, "bartlett", spec)
        blue = blue.T  # trial by trial, as the reference gathers it
        ref_blue, ref_perfect = _gram_gather_reference(seed, count, r, d, threshold, spec)
        assert blue.shape == (count, r * (r - 1) // 2) and blue.dtype == bool
        assert np.array_equal(blue, ref_blue)
        assert np.array_equal(perfect, ref_perfect)
        admitted += int(perfect.sum())
    assert 0 < admitted < 5 * count  # the spec admits some trials and refuses others


@pytest.mark.parametrize("sampler", ["bartlett", "direct"])
@pytest.mark.parametrize("r", [1, 2, 3, 5, 18, 25, 64])
def test_pair_mask_is_batch_last_and_bit_identical(r, sampler, monkeypatch):
    # the mask is one contiguous row per pair i < j (np.triu_indices order), one column per trial;
    # the triangular pairs it thresholds are, bit for bit, those of the batch-first kernel kept here
    count, d, seed = 257, 64, 9
    threshold = -estimators.solve_cp(0.4) / math.sqrt(d)
    thresholded = []
    greater_equal = np.greater_equal

    def recording(values, *args, **kwargs):
        thresholded.append(np.array(values))
        return greater_equal(values, *args, **kwargs)

    monkeypatch.setattr(np, "greater_equal", recording)
    blue = _pair_batch(RngStream(seed).generator(), count, r, d, threshold, sampler, None)[0]
    monkeypatch.undo()
    assert blue.shape == (r * (r - 1) // 2, count) and blue.dtype == bool and blue.flags.c_contiguous
    if sampler == "direct":
        grams = gram_batch(estimators.sample_cloud_batch(count, r, d, RngStream(seed).generator()))
        assert np.array_equal(blue, (grams[(slice(None), *np.triu_indices(r, 1))] >= threshold).T)
        return
    L = _bartlett_rows(count, r, d, RngStream(seed).generator())
    batch_first = [np.einsum("jkb,kb->bj", L[i + 1 :, : i + 1], L[i, : i + 1]) for i in range(r - 1)]
    reference = np.concatenate([np.empty((count, 0)), *batch_first], axis=1)
    values = np.concatenate([np.empty((0, count)), *thresholded])  # every value compared, in the order compared
    assert np.array_equal(values.T.view(np.uint64), reference.view(np.uint64))
    assert np.array_equal(blue, reference.T >= threshold)


def test_direct_pair_batch_holds_about_the_doubles_it_counts():
    # numpy reports its allocations to tracemalloc: the (1, 600, 600) Gram is the one large array,
    # and the pair mask is a byte per pair, so no index arrays or float copy of the pairs may join it
    gen = RngStream(3).generator()
    tracemalloc.start()
    try:
        blue = _pair_batch(gen, 1, 600, 16, 0.0, "direct", None)[0].T  # a view: allocates nothing
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blue.shape == (1, 600 * 599 // 2)
    assert peak <= 1.25 * estimators._trial_elements(600, 16, "direct") * 8


@pytest.mark.parametrize("restrict", [False, True], ids=["plain", "spec"])
@pytest.mark.parametrize(
    "n, d, count",
    # slabs of 32768 // (n * d) clouds: 10, 10 and 5; one short slab; 409, 409 and 182; one cloud per slab
    [(3, 1024, 25), (3, 1024, 7), (20, 4, 1000), (3, 16384, 3)],
    ids=["n<d-short-last-slab", "n<d-one-short-slab", "n>d-short-last-slab", "n<d-cloud-over-a-slab"],
)
def test_direct_slabs_are_the_whole_batch_bit_for_bit(monkeypatch, n, d, count, restrict):
    # the generator is consumed in the same C order and each trial's Gram is its own product, so
    # drawing, scaling and multiplying one slab at a time gives the whole batch's Grams and masks
    seed, threshold = 41, -estimators.solve_cp(0.4) / math.sqrt(d)
    spec = PerfectSpec(alpha_proj=1.0, delta=1.0 / math.sqrt(d), ell=n, d=d) if restrict else None
    grams = gram_batch(estimators.sample_cloud_batch(count, n, d, RngStream(seed).generator()))
    iu = np.triu_indices(n, 1)
    ref_perfect = True
    if spec is not None:
        ref_perfect = spec.admits(*bartlett_prefix_norms(np.moveaxis(_cholesky(grams), 0, -1))).all(axis=0)
    slabs = []
    multiply = estimators.gram_batch

    def recording(clouds, out=None):
        slabs.append(multiply(clouds, out=out).copy())
        return slabs[-1]

    monkeypatch.setattr(estimators, "gram_batch", recording)
    blue, perfect = _pair_batch(RngStream(seed).generator(), count, n, d, threshold, "direct", spec)
    step = max(1, estimators._SLAB_ELEMENTS // (n * d))
    assert [len(slab) for slab in slabs] == [min(step, count - start) for start in range(0, count, step)]
    assert np.array_equal(np.concatenate(slabs).view(np.uint64), grams.view(np.uint64))
    assert np.array_equal(blue, (grams[:, iu[0], iu[1]] >= threshold).T)
    assert np.array_equal(perfect, ref_perfect)
    assert spec is None or 0 < perfect.sum() < count  # the spec admits some trials and refuses others


def test_direct_batch_holds_one_slab_not_its_clouds():
    # a (3, 1024) batch of 1365 trials is the 32 MiB of clouds _BATCH_ELEMENTS allows; drawn a
    # 256 KiB slab at a time, it holds its Grams, its pair mask and one slab
    _, _, batch, draw = estimators._pair_plan(3, 1024, 0.4, "direct")
    assert batch == 1365
    gen = RngStream(7).generator()
    tracemalloc.start()
    try:
        draw(gen, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_a_triangular_plan_allocates_no_rows_after_its_first_batch():
    # the plan's first batch on a thread makes that thread's workspace and later batches write into it,
    # so a second batch allocates its masks, its chi-square draws and the spec's comparisons, under
    # the 1.6 MB of one (r, r, batch) array
    r, d = 5, 256
    spec = PerfectSpec(alpha_proj=1.2, delta=0.12, ell=r, d=d)
    _, _, batch, draw = estimators._pair_plan(r, d, 0.38, "bartlett", spec)
    assert batch == 8192
    draw(RngStream(1).generator(), batch)
    gen = RngStream(2).generator()
    tracemalloc.start()
    try:
        draw(gen, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < r * r * batch * 8


def test_scaling_memory_is_flat_in_the_number_of_dimensions(capsys):
    # every dimension's plan draws into one workspace, so 40 dimensions hold what 2 do
    def peak(count):
        argv = ["scaling", "--r", "4", "--p", "0.4", "--sampler", "bartlett", "--trials", "8192", "--seed", "1",
                "--dims", ",".join(str(64 * (i + 1)) for i in range(count))]
        tracemalloc.start()
        try:
            main(argv)  # exit 1: the red counts are underpowered at r = 4
            top = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(json.loads(capsys.readouterr().out)["result"]["rows"]) == count
        return top

    peak(2)  # imports and caches first
    assert peak(40) <= peak(2) + (1 << 20)


@pytest.mark.parametrize(
    "argv, one, many",
    [
        ("estimate --kind density --n 64 --d 1024 --p 0.4", 1024, 4096),  # a triangular batch: 49.8 MiB
        ("estimate --kind clique --r 5 --d 256 --p 0.4 --color red --sampler bartlett", 8192, 32768),
        ("estimate --kind clique --r 3 --d 64 --p 0.4 --color red --sampler direct", 8192, 32768),
        ("validate --check norm_concentration --d 400 --delta 0.3", 1 << 22, (1 << 23) + 1),  # 64 MiB a batch
    ],
    ids=["density", "clique-bartlett", "clique-direct", "norm-concentration"],
)
def test_memory_is_flat_in_the_trial_count(argv, one, many, capsys):
    # a batch draws into the buffers the last one left, so several batches peak where one does
    def peak(trials):
        tracemalloc.start()
        try:
            main(f"{argv} --trials {trials} --seed 1".split())  # exit 1 where a red count is underpowered
            top = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        config = json.loads(capsys.readouterr().out)["result"].get("config", {})
        assert config.get("batch", one) == one  # one batch, and several for the larger count
        return top

    peak(one)  # imports and caches first
    assert peak(many) <= peak(one) + (1 << 18)


@pytest.mark.parametrize("restrict", [False, True], ids=["plain", "spec"])
@pytest.mark.parametrize("sampler", ["bartlett", "direct"])
def test_a_reused_workspace_gives_the_bits_of_fresh_buffers(sampler, restrict):
    # a workspace holds whatever the last batch left: filled with NaN, then reused by a full batch and by
    # a short last batch, it gives each batch's masks bit for bit as fresh buffers from the same state do
    n, d, batch, short = 5, 64, 300, 77  # direct: slabs of 102 clouds, so both batches end on a short slab
    threshold = -estimators.solve_cp(0.38) / math.sqrt(d)
    spec = PerfectSpec(alpha_proj=1.2, delta=0.12, ell=n, d=d) if restrict else None
    workspace = estimators._Workspace()
    _pair_batch(RngStream(50).generator(), batch, n, d, threshold, sampler, spec, workspace)  # makes its buffers
    for buffer in workspace._buffers.values():
        buffer.fill(np.nan)
    for seed, count in ((51, batch), (52, short)):
        blue, perfect = _pair_batch(RngStream(seed).generator(), count, n, d, threshold, sampler, spec, workspace)
        fresh_blue, fresh_perfect = _pair_batch(RngStream(seed).generator(), count, n, d, threshold, sampler, spec)
        assert np.array_equal(blue, fresh_blue)
        assert np.array_equal(perfect, fresh_perfect)
        assert spec is None or 0 < fresh_perfect.sum() < count  # the spec admits some trials and refuses others


def test_threads_drawing_one_plan_each_write_their_own_workspace():
    # eight threads on fewer cores draw one plan's batches at once, switching often: every batch's masks
    # are those of fresh buffers, which a workspace shared between threads would not give
    r, d, count, seeds = 5, 64, 300, range(60, 92)
    spec = PerfectSpec(alpha_proj=1.2, delta=0.12, ell=r, d=d)
    c_p, _, _, draw = estimators._pair_plan(r, d, 0.38, "bartlett", spec)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            drawn = list(pool.map(lambda seed: draw(RngStream(seed).generator(), count), seeds, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    threshold = -c_p / math.sqrt(d)
    for seed, (blue, perfect) in zip(seeds, drawn):
        fresh_blue, fresh_perfect = _pair_batch(RngStream(seed).generator(), count, r, d, threshold, "bartlett", spec)
        assert np.array_equal(blue, fresh_blue)
        assert np.array_equal(perfect, fresh_perfect)


def test_perfect_restriction_coupled_estimates():
    spec = PerfectSpec(alpha_proj=4.0, delta=0.25, ell=3, d=100)
    kwargs = dict(trials=10**5, sampler="bartlett")
    full = estimate_clique_prob(3, 100, 0.4, "red", stream=RngStream(9), **kwargs)
    star = estimate_clique_prob(
        3, 100, 0.4, "red", perfect_spec=spec, stream=RngStream(9), **kwargs
    )
    assert star.successes <= full.successes
    assert star.point <= full.point


def test_thread_count_never_changes_results():
    for kwargs in (
        dict(r=3, d=100, p=0.4, color="red", trials=30000, sampler="direct"),
        dict(r=4, d=64, p=0.45, color="blue", trials=30000, sampler="bartlett"),
    ):
        runs = [
            estimate_clique_prob(stream=RngStream(10), threads=t, **kwargs) for t in (1, 2, 4)
        ]
        assert runs[0] == runs[1] == runs[2]
    d1 = estimate_edge_density(8, 64, 0.4, 20000, RngStream(11), threads=1)
    d4 = estimate_edge_density(8, 64, 0.4, 20000, RngStream(11), threads=4)
    assert d1 == d4


def test_underpowered_flag_and_warning():
    with pytest.warns(UserWarning, match="noise-dominated"):
        est = estimate_clique_prob(5, 64, 0.4, "red", trials=1000, stream=RngStream(12))
    assert est.status == "underpowered"
    # p^10 = 1.05e-4 -> ~0.1 expected successes in 1000 trials
    assert est.config["trials"] == 1000


def test_density_at_half():
    est = estimate_edge_density(2, 256, 0.5, 10**5, RngStream(13))
    assert abs(est.point - 0.5) <= 4.0 * 0.5 / math.sqrt(10**5)
    assert est.config["pairs"] == 10**5


def test_density_cluster_ci_reasonable():
    # n = 16 clouds: interval from cloud-level variation still covers 1 - p
    est = estimate_edge_density(16, 256, 0.4, 2000, RngStream(14))
    assert est.ci_low <= 0.6 <= est.ci_high or abs(est.point - 0.6) < 0.01
    assert est.ci_low <= est.point <= est.ci_high


def test_density_converges_with_dimension():
    # per-pair bias shrinks as d grows
    p = 0.381966
    biases = []
    for i, d in enumerate((4, 256)):
        est = estimate_edge_density(32, d, p, 4000, RngStream(15, 10**6 * i))
        biases.append(abs(est.point - (1.0 - p)))
    assert biases[1] < biases[0]


def test_conditional_edge_zero_projection_equality():
    rec = validate_bound(
        "conditional_edge", {"p": 0.38, "d": 10000, "inner": 0.0, "diag": 1.0}, 50000, RngStream(16)
    )
    assert rec["exact"] == pytest.approx(1.0 - 0.38, abs=1e-12)
    assert rec["bound"] == pytest.approx(1.0 - 0.38, abs=1e-12)
    assert rec["bound_main_term"] == pytest.approx(1.0 - 0.38, abs=1e-12)
    assert rec["passed"]


@pytest.mark.parametrize("inner", [1e-3, -1e-3])
def test_conditional_edge_signed_projections(inner):
    rec = validate_bound(
        "conditional_edge", {"p": 0.38, "d": 10000, "inner": inner, "diag": 1.0}, 10**5, RngStream(17)
    )
    assert rec["exact"] < rec["bound"]
    assert rec["passed"]
    # gap is second order in the threshold shift eps = sqrt(d) * inner = 0.1
    eps = math.sqrt(10000) * abs(inner)
    assert 0.0 < rec["bound"] - rec["exact"] < eps * eps


@pytest.mark.parametrize("diag", [0.9, 1.1])
def test_conditional_edge_offcenter_diagonal(diag):
    rec = validate_bound(
        "conditional_edge", {"p": 0.38, "d": 10000, "inner": 5e-4, "diag": diag}, 10**5, RngStream(18)
    )
    assert rec["exact"] <= rec["bound"]
    assert rec["passed"]


def test_conditional_edge_domain():
    with pytest.raises(ValueError):
        validate_bound("conditional_edge", {"p": 0.38, "d": 100, "inner": 0.0, "diag": 0.0}, 10, RngStream(1))


def test_correction_scaling_signs_and_fit():
    rep = correction_scaling(3, 0.4, [64, 256], 10**5, RngStream(19), sampler="bartlett")
    for row in rep["rows"]:
        assert row["log_ratio_red"] < 0.0
        assert row["log_ratio_blue"] > 0.0
        assert not row["underpowered_red"]
    assert rep["fitted_red"] < 0.0
    assert rep["fitted_blue"] > 0.0
    assert rep["predicted_red"] == pytest.approx(-rep["a"] ** 3 / 0.4**3, rel=1e-12)


def test_correction_scaling_domain():
    with pytest.raises(ValueError):
        correction_scaling(5, 0.4, [64, 256], 100, RngStream(1))
    with pytest.raises(ValueError):
        correction_scaling(3, 0.4, [256, 64], 100, RngStream(1))


def _log_ref(r, p, color):
    return math.comb(r, 2) * (math.log(p) if color == "red" else math.log1p(-p))


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("sampler", ["direct", "bartlett"])
def test_scaling_counts_both_colors_in_one_draw(monkeypatch, sampler, threads):
    # a small batch budget gives several batches per dimension, so threads=2 runs them concurrently
    monkeypatch.setattr(estimators, "_BATCH_ELEMENTS", 4096)
    # pool threads append (atomic) rather than add in place, so no count is lost to a race
    sizes = {"normals": [], "triangular": []}
    cloud, bartlett = estimators.sample_cloud_batch, estimators._bartlett_rows

    def count_cloud(batch, n, d, gen, out=None):
        sizes["normals"].append(batch * n * d)
        return cloud(batch, n, d, gen, out=out)

    def count_bartlett(batch, r, d, gen, out=None):
        sizes["triangular"].append(batch)
        return bartlett(batch, r, d, gen, out=out)

    monkeypatch.setattr(estimators, "sample_cloud_batch", count_cloud)
    monkeypatch.setattr(estimators, "_bartlett_rows", count_bartlett)
    r, p, dims, trials, stream = 3, 0.4, [16, 64], 3000, RngStream(21)
    rep = correction_scaling(r, p, dims, trials, stream, sampler=sampler, threads=threads)
    drawn = {key: sum(values) for key, values in sizes.items()}
    # each dimension samples its clouds once, not once per color
    if sampler == "direct":
        assert drawn == {"normals": trials * r * sum(dims), "triangular": 0}
    else:
        assert drawn == {"normals": 0, "triangular": trials * len(dims)}
    for di, row in enumerate(rep["rows"]):
        for color in ("red", "blue"):
            # red and blue both come from red's stream slot, 2 * di
            sub = stream.offset(2 * di * STREAM_STRIDE)
            est = estimate_clique_prob(r, row["d"], p, color, trials=trials, stream=sub, sampler=sampler)
            assert round(trials * math.exp(row[f"log_ratio_{color}"] + _log_ref(r, p, color))) == est.successes
            assert row[f"log_ratio_{color}"] == est.log_point - _log_ref(r, p, color)


def test_scaling_underpowered_flags_match_the_estimates():
    # r = 4, p = 0.4: 5000 trials expect ~20 red cliques (underpowered) and ~233 blue ones
    r, p, dims, trials, stream = 4, 0.4, [64, 256], 5000, RngStream(22)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the report flags underpowered rows without warning
        rep = correction_scaling(r, p, dims, trials, stream)
    for di, row in enumerate(rep["rows"]):
        for color, expect in (("red", True), ("blue", False)):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                est = estimate_clique_prob(
                    r, row["d"], p, color, trials=trials, stream=stream.offset(2 * di * STREAM_STRIDE)
                )
            assert est.successes > 0
            assert row[f"underpowered_{color}"] == (est.status == "underpowered") == expect
    assert rep["fitted_red"] is None
    assert rep["fitted_blue"] is not None


def test_scaling_zero_success_row_is_left_out_of_the_fit():
    # at d = 1 the vectors are scalars and two of any three share a sign, so no red triangle exists
    rep = correction_scaling(3, 0.4, [1, 64, 256], 5000, RngStream(23))
    first, *rest = rep["rows"]
    assert first["log_ratio_red"] is None and first["se_red"] is None and first["underpowered_red"]
    assert all(row["log_ratio_red"] is not None and not row["underpowered_red"] for row in rest)
    num = sum(row["x"] * row["log_ratio_red"] / row["se_red"] ** 2 for row in rest)
    den = sum(row["x"] ** 2 / row["se_red"] ** 2 for row in rest)
    assert rep["fitted_red"] == pytest.approx(num / den, rel=1e-12)


@pytest.mark.filterwarnings("ignore:binomial reference")
def test_a_default_sampler_is_the_pair_plans_choice():
    # triangular iff r <= d, and the record names the sampler drawn
    for r, d, sampler in ((3, 3, "bartlett"), (4, 3, "direct")):
        assert estimate_clique_prob(r, d, 0.4, "blue", trials=100, stream=RngStream(1)).config["sampler"] == sampler
    # scaling takes its first (smallest) dimension's choice for every dimension
    stream = RngStream(2)
    for dims, sampler in (([3, 64], "bartlett"), ([1, 64, 256], "direct")):
        rep = correction_scaling(3, 0.4, dims, 2000, stream)
        assert rep["sampler"] == sampler
        last = stream.offset(2 * (len(dims) - 1) * STREAM_STRIDE)
        est = estimate_clique_prob(3, dims[-1], 0.4, "blue", trials=2000, stream=last, sampler=sampler)
        assert rep["rows"][-1]["log_ratio_blue"] == est.log_point - _log_ref(3, 0.4, "blue")


class _Drawn(Exception):
    pass


@pytest.mark.parametrize(
    "run, batch",
    [
        (lambda s: estimate_edge_density(2000, 4, 0.4, 10**4, s), 1),
        (lambda s: estimate_edge_density(64, 4, 0.4, 4000, s), (1 << 22) // (64 * 64)),
        (lambda s: estimate_edge_density(9, 8, 0.4, 10**4, s), estimators._batch_size(9 * max(9, 8))),
        (lambda s: estimate_clique_prob(64, 4, 0.4, "blue", trials=4000, stream=s), (1 << 22) // (64 * 64)),
    ],
    ids=["density-n2000-d4", "density-n64-d4", "density-n9-d8", "clique-r64-d4"],
)
def test_direct_batch_counts_the_gram(monkeypatch, run, batch):
    # n > d: the (n, n) Gram outweighs the cloud, so a direct trial counts n * n doubles;
    # the first batch is drawn a slab at a time, and its slabs together hold exactly its trials
    drawn = []  # (generator, clouds) per slab; each batch draws from a generator of its own
    cloud = estimators.sample_cloud_batch

    def record(count, n, d, gen, out=None):
        if drawn and gen is not drawn[0][0]:
            raise _Drawn  # the second batch's first slab: the first batch is complete
        drawn.append((gen, count))
        return cloud(count, n, d, gen, out=out)

    monkeypatch.setattr(estimators, "sample_cloud_batch", record)
    with warnings.catch_warnings(), pytest.raises(_Drawn):
        warnings.simplefilter("ignore")  # r = 64 is far underpowered
        run(RngStream(1))
    assert sum(count for _, count in drawn) == batch


#: every caller that names no sampler, run at n vectors in R^d
_NO_SAMPLER_NAMED = {
    "density": lambda n, d: estimate_edge_density(n, d, 0.4, 50, RngStream(1)),
    # ell = k = n + 1: no clique can exist, so attempt 0 verifies
    "search": lambda n, d: search_witness(n, n + 1, n + 1, "geometric", {"d": d, "p": 0.4}, 50, RngStream(1)),
    "sample": lambda n, d: main(["sample", "--n", str(n), "--d", str(d), "--p", "0.4", "--seed", "1"]),
}


@pytest.mark.parametrize(
    "caller, n, d",
    [pytest.param(caller, n, d, id=shape if caller == "density" else f"{caller}-{shape}")
     for caller in _NO_SAMPLER_NAMED for n, d, shape in ((8, 8, "n=d"), (64, 1024, "n<d"), (9, 8, "n=d+1"))],
)
def test_density_draws_triangular_samples_when_n_at_most_d(monkeypatch, capsys, caller, n, d):
    # the density, the geometric search and sample name no sampler: the pair plan's
    # rule picks triangular when n <= d and direct when n > d, and the other draw never runs
    sampler = "bartlett" if n <= d else "direct"

    def refuse(*args):
        raise _Drawn  # before anything is allocated

    monkeypatch.setattr(estimators, "_bartlett_rows" if sampler == "direct" else "sample_cloud_batch", refuse)
    result = _NO_SAMPLER_NAMED[caller](n, d)
    if caller == "density":
        assert result.config["sampler"] == sampler
        assert result.config["batch"] == estimators._batch_size(estimators._trial_elements(n, d, sampler))
    elif caller == "search":
        assert result.checked and result.graph.provenance["attempt"] == 0
    else:
        assert result == 0 and capsys.readouterr().out.startswith('{"command":"sample"')


@pytest.mark.parametrize("run", [
    lambda s: estimate_clique_prob(3, 8, 0.4, "blue", trials=50, stream=s, sampler="bartlet"),
    lambda s: estimate_clique_prob(9, 8, 0.4, "blue", trials=50, stream=s, sampler="bartlett"),
    lambda s: correction_scaling(3, 0.4, [2, 8], 50, s, sampler="bartlett"),
], ids=["unknown-name", "bartlett-n>d", "scaling-bartlett-n>d"])
def test_pair_plan_refuses_a_sampler_before_any_generator(run, monkeypatch):
    def no_generator(self):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(RngStream, "generator", no_generator)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before the underpowered warning, too
        with pytest.raises(ValueError, match="sampler must be 'direct', or 'bartlett' with n <= d"):
            run(RngStream(1))


def test_search_colorings_have_one_law_under_both_samplers():
    # bounds fixed before the first run: at the search shape n = 18, d = 64, a
    # two-sample KS test per color on per-attempt monochromatic-triangle counts,
    # direct against the triangular draw the plan picks, with p > 0.01, and mean
    # counts within 4 combined standard errors.  Per color, since at p = 1/2 the
    # red and blue corrections of order d^(-1/2) cancel in their sum.
    n, d, attempts = 18, 64, 4000
    _, sampler, _, triangular = estimators._pair_plan(n, d, 0.5, cap=ATTEMPT_BATCH)
    _, _, _, direct = estimators._pair_plan(n, d, 0.5, "direct", cap=ATTEMPT_BATCH)
    assert sampler == "bartlett"
    iu = np.triu_indices(n, 1)

    def mono_triangles(blue):
        A = np.zeros((len(blue), n, n))
        A[:, iu[0], iu[1]] = blue
        A += A.transpose(0, 2, 1)
        return [np.rint(np.einsum("tij,tjk,tki->t", M, M, M) / 6) for M in (A, 1.0 - A - np.eye(n))]

    tri = mono_triangles(triangular(RngStream(44).generator(), attempts)[0].T)
    cloud = mono_triangles(direct(RngStream(44, 1).generator(), attempts)[0].T)
    for t, c in zip(tri, cloud):
        assert abs(t.mean() - c.mean()) <= 4.0 * math.sqrt((t.var(ddof=1) + c.var(ddof=1)) / attempts)
        assert ks_2samp(t, c).pvalue > 0.01


@pytest.mark.parametrize("n, d, seed", [(8, 8, 41), (16, 64, 42)], ids=["n=d", "n<d"])
def test_triangular_density_has_the_law_of_direct_clouds(n, d, seed):
    # bounds fixed before the first run: mean densities within 4 combined
    # standard errors, and a two-sample KS test on per-cloud blue-edge counts
    # with p > 0.01.  At n = d the last diagonal entry is a chi with 1 degree.
    trials, pairs = 8000, n * (n - 1) // 2
    est = estimate_edge_density(n, d, 0.4, trials, RngStream(seed))
    assert est.config["batch"] >= trials  # one batch: batch 0's draws are every cloud of the estimate
    threshold = -est.config["c_p"] / math.sqrt(d)
    triangular = _pair_batch(RngStream(seed).generator(), trials, n, d, threshold, "bartlett", None)[0].sum(axis=0)
    assert triangular.sum() == est.successes
    direct = _pair_batch(RngStream(seed, 1).generator(), trials, n, d, threshold, "direct", None)[0].sum(axis=0)
    se = math.sqrt((triangular.var(ddof=1) + direct.var(ddof=1)) / trials) / pairs
    assert abs(est.point - direct.mean() / pairs) <= 4.0 * se
    assert ks_2samp(triangular, direct).pvalue > 0.01


def test_estimate_record_shape():
    est = estimate_clique_prob(2, 32, 0.4, "blue", trials=5000, stream=RngStream(20))
    rec = est.as_record()
    assert set(rec) == {
        "point",
        "log_point",
        "trials",
        "successes",
        "ci_low",
        "ci_high",
        "seed",
        "status",
        "config",
    }
    assert rec["seed"] == 20
    assert rec["log_point"] == pytest.approx(math.log(rec["point"]))


def test_zero_successes_log_is_minus_inf():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        est = estimate_clique_prob(5, 64, 0.05, "red", trials=200, stream=RngStream(21))
    assert est.successes == 0
    assert est.point == 0.0
    assert est.log_point == -math.inf
    assert est.ci_low == 0.0 and est.ci_high > 0.0


def test_normal_interval_takes_the_two_sided_95_quantile_exactly():
    # the normal branch's z is ndtri(0.975), taken when it runs; pinned with no tolerance
    z = 1.959963984540054
    assert estimators._binomial_interval(500, 1000, se=0.01) == (0.5 - z * 0.01, 0.5 + z * 0.01)
    half = z * math.sqrt(0.5 * 0.5 / 1000)
    assert estimators._binomial_interval(500, 1000) == (0.5 - half, 0.5 + half)


def test_interval_is_exact_below_30_successes_or_failures():
    # Clopper-Pearson up to 29 on either side, the normal form from 30 on
    from scipy.special import betaincinv

    for successes in (27, 973):
        lo, hi = betaincinv(successes, 1001 - successes, 0.025), betaincinv(successes + 1, 1000 - successes, 0.975)
        assert estimators._binomial_interval(successes, 1000) == (float(lo), float(hi))
    half = 1.959963984540054 * math.sqrt(0.03 * 0.97 / 1000)
    assert estimators._binomial_interval(30, 1000) == (0.03 - half, 0.03 + half)


def test_underpowered_rule_is_under_100_expected_successes():
    # a blue pair at p = 1/2 expects trials / 2 successes: 95 is underpowered, 100 is not
    with pytest.warns(UserWarning, match="predicts ~95.0 successes"):
        est = estimate_clique_prob(2, 64, 0.5, "blue", trials=190, stream=RngStream(12))
    assert est.status == "underpowered"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert estimate_clique_prob(2, 64, 0.5, "blue", trials=200, stream=RngStream(12)).status == "ok"
