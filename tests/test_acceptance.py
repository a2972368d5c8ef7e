"""Acceptance suite: one test per criterion, each printing a PASS line.

The asymptotic headline (sizes growing like 1.6^ell with unquantified
error constants) is not reproducible at desk scale, so acceptance is
property-based plus small-scale quantitative checks.  Statistical budgets
were sized so that expected margins sit at 5 sigma or better of the
asserted thresholds, then every seed below was run and verified; all
randomness is keyed by the fixed seeds, so the suite is deterministic.
"""

import math
import time
from itertools import combinations

import numpy as np
from scipy.stats import ks_2samp

from gaussian_ramsey.analytic import (
    compute_analytic_bounds,
    gain_loss_gap,
    mills_ratio,
    solve_cp,
    solve_pC,
    std_normal_cdf,
    std_normal_pdf,
)
from gaussian_ramsey.cli import ExperimentConfig, run
from gaussian_ramsey.cliques import search_witness, verify_witness
from gaussian_ramsey.estimators import (
    _Workspace,
    _pair_batch,
    _usable_cpus,
    correction_scaling,
    estimate_clique_prob,
    estimate_edge_density,
)
from gaussian_ramsey.geometry import (
    PerfectSpec,
    PointCloud,
    _bartlett_rows,
    bartlett_prefix_norms,
    extract_perfect,
    gram_batch,
    sample_cloud_batch,
)
from gaussian_ramsey.graphs import ColoredGraph
from gaussian_ramsey.sampling import RngStream, TruncatedSpec, sample_truncated, truncated_mean
from gaussian_ramsey.validators import validate_bound

C_GRID = [1.1, 1.5, 2.0, 3.0, 5.0, 10.0]
THREADS = _usable_cpus()  # throughput only: the runner's results do not depend on the thread count


def _report(num: int, name: str) -> None:
    print(f"[criterion {num:02d}] PASS {name}")


def test_criterion_01_solver_identities():
    start = time.perf_counter()
    for C in C_GRID:
        p = solve_pC(C)
        assert abs((1.0 - p) ** C - p) <= 1e-10
        assert abs(C - math.log(p) / math.log(1.0 - p)) <= 1e-10
    values = [solve_pC(C) for C in C_GRID]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert abs(solve_pC(2.0) - (3.0 - math.sqrt(5.0)) / 2.0) <= 1e-9
    assert time.perf_counter() - start < 1.0
    _report(1, "solver identities on the C grid")


def test_criterion_02_gap_suite():
    start = time.perf_counter()
    for i in range(1, 500):
        assert gain_loss_gap(i / 1000.0) > 0.0
    assert abs(gain_loss_gap(0.25) - 0.108458) <= 1e-6
    for C in C_GRID:
        b = compute_analytic_bounds(C, 10.0)
        assert b.gain_red > b.loss_blue
    assert time.perf_counter() - start < 1.0
    _report(2, "gap positivity and gain/loss ordering")


def test_criterion_03_edge_density():
    # 64-vertex clouds: at p = 1/2 the pair indicators are exactly pairwise
    # uncorrelated (sign symmetry), so the binomial error bar is valid
    clouds = 497  # 497 * C(64,2) = 1,001,952 pairs
    est = estimate_edge_density(64, 1024, 0.5, clouds, RngStream(310), threads=THREADS)
    pairs = est.config["pairs"]
    assert pairs >= 10**6
    assert abs(est.point - 0.5) <= 4.0 * math.sqrt(0.25 / pairs)

    p = 0.381966
    est = estimate_edge_density(64, 1024, p, clouds, RngStream(311), threads=THREADS)
    assert abs(est.point - 0.618034) <= 0.01

    biases = []
    for i, d in enumerate((4, 64, 1024)):
        est = estimate_edge_density(64, d, p, 4000, RngStream(300 + d), threads=THREADS)
        biases.append(abs(est.point - (1.0 - p)))
    assert biases[0] > biases[1] > biases[2]
    _report(3, f"edge density: half-line, limit value, bias ordering {[f'{b:.2e}' for b in biases]}")


def _pooled_offdiag(sampler: str, ntr: int, r: int, d: int, stream: RngStream) -> np.ndarray:
    gen = stream.generator()
    if sampler == "direct":
        grams = gram_batch(sample_cloud_batch(ntr, r, d, gen))
    else:
        grams = gram_batch(np.moveaxis(_bartlett_rows(ntr, r, d, gen), -1, 0))
    iu = np.triu_indices(r, 1)
    return grams[:, iu[0], iu[1]].ravel()


def test_criterion_04_sampler_equivalence():
    a = _pooled_offdiag("direct", 10**4, 5, 256, RngStream(401, 0))
    b = _pooled_offdiag("bartlett", 10**4, 5, 256, RngStream(401, 1))
    assert a.size == b.size == 10**5
    result = ks_2samp(a, b)
    assert result.pvalue > 0.01

    for color in ("red", "blue"):
        direct = estimate_clique_prob(
            3, 256, 0.38, color, trials=2 * 10**5, stream=RngStream(411, 0), sampler="direct", threads=THREADS
        )
        bart = estimate_clique_prob(
            3, 256, 0.38, color, trials=2 * 10**5, stream=RngStream(411, 10**6), sampler="bartlett", threads=THREADS
        )
        se = math.sqrt(
            direct.point * (1 - direct.point) / direct.trials
            + bart.point * (1 - bart.point) / bart.trials
        )
        assert abs(direct.point - bart.point) <= 4.0 * se
    _report(4, f"sampler equivalence: KS p = {result.pvalue:.3f}, triangle frequencies agree")


def test_criterion_05_correlation_signs():
    trials = 10**6
    red = estimate_clique_prob(3, 100, 0.4, "red", trials=trials, stream=RngStream(500), threads=THREADS)
    blue = estimate_clique_prob(3, 100, 0.4, "blue", trials=trials, stream=RngStream(501), threads=THREADS)
    se_red = math.sqrt(red.point * (1 - red.point) / trials)
    se_blue = math.sqrt(blue.point * (1 - blue.point) / trials)
    assert red.point < 0.4**3 - 3.0 * se_red
    assert blue.point > 0.6**3 + 3.0 * se_blue
    _report(
        5,
        f"correlation signs: red {(0.4**3 - red.point) / se_red:.0f} sigma below, "
        f"blue {(blue.point - 0.6**3) / se_blue:.0f} sigma above",
    )


def test_criterion_06_correction_scaling():
    rep = correction_scaling(3, 0.4, [64, 256, 1024], 4 * 10**5, RngStream(600), sampler="direct", threads=THREADS)
    fitted, predicted = rep["fitted_red"], rep["predicted_red"]
    assert predicted < 0.0 and fitted < 0.0
    ratio = fitted / predicted
    assert 0.5 <= ratio <= 2.0
    assert rep["fitted_blue"] > 0.0
    _report(6, f"correction scaling: fitted/predicted = {ratio:.3f} (factor-2 window)")


def test_criterion_07_closed_forms_and_validators():
    # truncated means vs sample means on the (b, side, d) grid
    stream = RngStream(700)
    for i, b in enumerate([-2.0, -1.0, 0.0, 1.0]):
        for j, d in enumerate([1, 100, 10000]):
            for k, side in enumerate(("lower", "upper")):
                spec = TruncatedSpec(b, side, d)
                x = sample_truncated(spec, stream.offset(100 * i + 10 * j + k), size=2 * 10**5)
                se = x.std(ddof=1) / math.sqrt(x.size)
                assert abs(x.mean() - truncated_mean(spec)) <= 4.0 * se
    # Mills sandwich and log-concavity
    for t in (-0.1, -0.5, -1.0, -2.0, -5.0, -10.0, -20.0):
        assert abs(t) <= mills_ratio(t) <= abs(t) + 1.0 / abs(t)
    for ti in range(-10, 11):
        t = ti * 0.5
        for eps in (0.0, 0.1, 0.5, 1.0):
            assert std_normal_cdf(t + eps) <= std_normal_cdf(t) * math.exp(
                eps * mills_ratio(t)
            ) * (1.0 + 1e-12)
    # norm concentration
    rec = validate_bound("norm_concentration", {"d": 400, "delta": 0.3}, 10**5, RngStream(701))
    assert rec["passed"]
    # chi-square deviation bounds
    for d in (100, 400):
        for t in (1.0, 5.0, 20.0):
            rec = validate_bound("chi_square_tail", {"freedom": d, "t": t}, 10**5, RngStream(702 + d + int(t)))
            assert rec["passed"]
    # projection tail (vacuous at this scale, zero exceedances expected)
    rec = validate_bound(
        "projection_tail", {"d": 2500, "ell": 4, "s": 8, "p": 0.38, "C": 2.0}, 10**6, RngStream(703)
    )
    assert rec["passed"]
    # exponential square moments
    for lam in (0.0, 0.2):
        rec = validate_bound("exp_square_moment", {"sigma2": 1.0, "lam": lam}, 2 * 10**5, RngStream(704))
        assert rec["passed"]
    # quadratic-sum moments at the working scale lambda = a sqrt(d)/(1-p)
    p = 0.38
    lam = std_normal_pdf(solve_cp(p)) * 20.0 / (1.0 - p)
    cut = -solve_cp(p)
    for sign in (1.0, -1.0):
        rec = validate_bound(
            "quadratic_moment",
            {"d": 400, "k": 5, "lam": sign * lam, "cutoffs": [cut] * 5},
            2 * 10**5,
            RngStream(705),
        )
        assert rec["passed"]
    _report(7, "closed forms vs sampling and every inequality validator")


def test_criterion_08_perfectness_machinery():
    # diagonal window on perfect samples: a loose spec (everything perfect)
    # and a tight one where ~22% pass and the window actually has teeth
    for spec, seed in (
        (PerfectSpec(alpha_proj=6.0, delta=0.3, ell=4, d=1600), 800),
        (PerfectSpec(alpha_proj=1.32, delta=0.07, ell=4, d=1600), 802),
    ):
        assert spec.diagonal_window_applies
        Ms = np.moveaxis(_bartlett_rows(10**4, 8, 1600, RngStream(seed).generator()), -1, 0)
        norms, proj = bartlett_prefix_norms(np.moveaxis(Ms, 0, -1))  # batch-last
        perfect = (
            (norms > 1.0 - spec.delta)
            & (norms < 1.0 + spec.delta)
            & (proj <= spec.projection_threshold)
        ).all(axis=0)
        assert perfect.any()
        lo, hi = spec.diagonal_window
        diags = Ms[:, np.arange(8), np.arange(8)]
        window = ((diags > lo) & (diags < hi)).all(axis=1)
        assert window[perfect].all()  # 100% of perfect samples

    # extraction re-verifies on 100% of trials
    spec = PerfectSpec(alpha_proj=1.1, delta=0.025, ell=4, d=1600)
    clouds = sample_cloud_batch(10**4, 8, 1600, RngStream(801).generator())
    dropped = 0
    for t in range(10**4):
        ext = extract_perfect(PointCloud(clouds[t]), spec)
        assert ext.check.ok
        dropped += 8 - len(ext.indices)
    assert dropped > 0  # the filter is doing real work

    # restricted estimates are sub-events, deterministically under one stream
    rspec = PerfectSpec(alpha_proj=1.2, delta=0.12, ell=4, d=256)
    kwargs = dict(trials=2 * 10**5, sampler="bartlett")
    full = estimate_clique_prob(5, 256, 0.38, "blue", stream=RngStream(803), **kwargs)
    star = estimate_clique_prob(
        5, 256, 0.38, "blue", perfect_spec=rspec, stream=RngStream(803), **kwargs
    )
    assert star.successes <= full.successes
    assert star.point <= full.point
    # per-trial coupling: the draws do not depend on the restriction, so the
    # same stream yields identical success masks and a pointwise sub-event
    threshold = -solve_cp(0.38) / 16.0
    with_spec, perfect = _pair_batch(RngStream(803).generator(), 4096, 5, 256, threshold, "bartlett", rspec, _Workspace())
    without_spec, _ = _pair_batch(RngStream(803).generator(), 4096, 5, 256, threshold, "bartlett", None, _Workspace())
    with_spec, without_spec = with_spec.all(axis=0), without_spec.all(axis=0)  # blue 5-cliques
    assert (with_spec == without_spec).all()
    assert (with_spec & perfect).sum() < with_spec.sum()  # the restriction bites
    _report(8, f"perfectness: window implication, extraction re-verified, P* <= P ({dropped} drops)")


def _brute_mono(g: ColoredGraph, size: int, color: str) -> bool:
    rows = g.blue_rows if color == "blue" else g.red_rows
    return any(
        all(rows[i] >> j & 1 for i, j in combinations(sub, 2))
        for sub in combinations(range(g.n), size)
    )


def test_criterion_09_witness_certificates():
    # (3,3) witness on K_5 through the geometric sampler
    cert5 = search_witness(5, 3, 3, "geometric", {"d": 400, "p": 0.5}, 1000, RngStream(101))
    assert cert5 is not None and cert5.checked
    assert not _brute_mono(cert5.graph, 3, "red") and not _brute_mono(cert5.graph, 3, "blue")

    # exhaustive oracle over all 2^15 edge colorings of K_6: none passes
    pairs = list(combinations(range(6), 2))
    masks = []
    for tri in combinations(range(6), 3):
        m = 0
        for e in combinations(tri, 2):
            m |= 1 << pairs.index(e)
        masks.append(m)
    masks_arr = np.array(masks, dtype=np.int64)
    colorings = np.arange(1 << 15, dtype=np.int64)[:, None]
    hit = ((colorings & masks_arr) == masks_arr) | ((colorings & masks_arr) == 0)
    assert bool(hit.any(axis=1).all())
    # spot agreement between the oracle and the exact engine
    gen = RngStream(900).generator()
    for code in gen.integers(0, 1 << 15, size=300):
        rows = [0] * 6
        for idx, (i, j) in enumerate(pairs):
            if code >> idx & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        g = ColoredGraph(6, tuple(rows))
        assert not verify_witness(g, 3, 3).checked

    # (3,4) witness on K_8 with the binomial sampler at p_{4/3}
    cert8 = search_witness(8, 3, 4, "binomial", {"p": solve_pC(4.0 / 3.0)}, 10**5, RngStream(102))
    assert cert8 is not None and cert8.checked
    assert not _brute_mono(cert8.graph, 3, "red") and not _brute_mono(cert8.graph, 4, "blue")
    attempts = (cert5.graph.provenance["attempt"], cert8.graph.provenance["attempt"])
    _report(9, f"witness certificates found (attempts {attempts}); K_6 exhaustively impossible")


def test_criterion_10_reproducibility():
    params = {
        "kind": "clique", "r": 3, "d": 64, "p": 0.4, "color": "red",
        "trials": 50000, "seed": 424242, "sampler": "bartlett",
    }
    outputs = []
    for threads in (1, 4, 1, 4):
        status, rendered = run(ExperimentConfig("estimate", dict(params, threads=threads)))
        assert status == 0
        outputs.append(rendered)
    assert len(set(outputs)) == 1

    # re-running from the record's own invocation echo reproduces the bytes
    import json

    echo = json.loads(outputs[0])["invocation"]
    status, re_rendered = run(ExperimentConfig("estimate", echo))
    assert re_rendered == outputs[0]
    _report(10, "byte-identical records across reruns, thread counts, and the echoed config")
