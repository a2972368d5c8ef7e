"""Monte-Carlo estimators for edge density and clique probabilities.

Trials are independent work items keyed by stream id: an estimate splits
its budget into fixed-size batches (the batch size is a deterministic
function of the problem shape, never of the machine), batch b draws from
stream.offset(b), and results fold over batches in index order.  Thread
counts therefore change throughput only, never a single output bit.
One plan runner, _map_plans, runs the batches of one or more plans
(trials, batch, stream, worker) on a single thread pool; correction_scaling
hands it one plan per dimension, so all its dimensions share the pool.
One pair kernel, _pair_batch, draws every batch and returns the blue mask
of its pairs; the density sums it per cloud, red and blue cliques are counted
from it in one draw (correction_scaling samples once), and search_witness
packs its geometric attempts from it.  Edge events read inner products only,
so the density draws triangular samples whenever n <= d (their Gram has the
law of a cloud's) and direct clouds only when n > d, where no triangular
form exists.
Success counting is exact integer arithmetic; probabilities are reported
in the log domain alongside the raw counts, so estimates of p^C(r,2)-sized
events never multiply raw tiny floats.

One rule, _batch_size, sizes every batch in the package before its first draw:
as many trials as fit _BATCH_ELEMENTS doubles, up to a cap; a trial of more
than _MAX_TRIAL_ELEMENTS doubles (512 MiB) is refused.  The estimators cap a
batch at 8192 trials; the validators take none, since a cap would repartition
their records; search_witness caps it at ATTEMPT_BATCH attempts, since it
stops at its first witness and would discard the rest of a larger batch.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.special import betaincinv, ndtri

from gaussian_ramsey.analytic import solve_cp, std_normal_pdf
from gaussian_ramsey.geometry import (
    PerfectSpec,
    _cholesky,
    bartlett_prefix_norms,
    gram_batch,
    sample_bartlett_batch,
    sample_cloud_batch,
)
from gaussian_ramsey.sampling import RngStream

#: target elements per sampling batch (doubles); keeps batches ~32 MB.
_BATCH_ELEMENTS = 1 << 22
_MAX_BATCH = 8192
#: largest trial, in doubles, that any sampling path may draw (512 MiB).
_MAX_TRIAL_ELEMENTS = 1 << 26

#: stream-id stride separating sub-estimates of composite reports.
STREAM_STRIDE = 1 << 24

#: expected-success threshold below which an estimate is flagged underpowered.
MIN_EXPECTED_SUCCESSES = 100.0

#: two-sided 95% normal quantile.
_Z95 = float(ndtri(0.975))


def _batch_size(elements_per_trial: int, cap: int | None = _MAX_BATCH) -> int:
    """Trials per batch: as many as fit _BATCH_ELEMENTS doubles, at least one, at most cap (None: no cap)."""
    if elements_per_trial > _MAX_TRIAL_ELEMENTS:
        raise ValueError(f"one trial would hold {elements_per_trial} doubles, over the cap of {_MAX_TRIAL_ELEMENTS}")
    batch = _BATCH_ELEMENTS // max(1, elements_per_trial)
    return max(1, batch if cap is None else min(cap, batch))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_plans(plans, threads: int) -> list[list]:
    """Run every batch of every plan (trials, batch, stream, worker) on one pool; each plan's results in batch order.

    Batch bi of a plan is worker(stream.offset(bi).generator(), count).  The
    jobs go in plan order, then batch order, to min(threads, batches over all
    plans, usable CPUs) threads, so no thread idles between plans.
    """
    jobs = [(pi, bi) for pi, (trials, batch, _, _) in enumerate(plans)
            for bi in range((trials + batch - 1) // batch)]

    def run(job):
        pi, bi = job
        trials, batch, stream, worker = plans[pi]
        return worker(stream.offset(bi).generator(), min(batch, trials - bi * batch))

    workers = min(threads, len(jobs), _usable_cpus())
    if workers <= 1:
        results = [run(job) for job in jobs]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, jobs))
    parts = [[] for _ in plans]
    for (pi, _), result in zip(jobs, results):
        parts[pi].append(result)
    return parts


def _map_batches(trials: int, batch: int, stream: RngStream, threads: int, worker):
    """Run worker(gen, count) over every batch of one plan (see _map_plans); results in order."""
    return _map_plans([(trials, batch, stream, worker)], threads)[0]


def _binomial_interval(successes: int, trials: int, se: float | None = None) -> tuple[float, float]:
    """95% interval: exact (Clopper-Pearson) below 30 successes or failures, else normal with
    standard error se (default: the binomial one)."""
    if successes < 30 or trials - successes < 30:
        lo = 0.0 if successes == 0 else float(betaincinv(successes, trials - successes + 1, 0.025))
        hi = 1.0 if successes == trials else float(betaincinv(successes + 1, trials - successes, 0.975))
        return lo, hi
    p = successes / trials
    half = _Z95 * (math.sqrt(p * (1.0 - p) / trials) if se is None else se)
    return max(0.0, p - half), min(1.0, p + half)


@dataclass(frozen=True)
class EstimateResult:
    """A Monte-Carlo probability estimate with provenance."""

    point: float
    log_point: float
    trials: int
    successes: int
    ci_low: float
    ci_high: float
    seed: int
    status: str = "ok"
    config: dict = field(default_factory=dict)

    def as_record(self) -> dict:
        return asdict(self)


def _log_point(successes: int, trials: int) -> float:
    if successes == 0:
        return -math.inf
    return math.log(successes) - math.log(trials)


def _estimate(successes: int, total: int, trials: int, stream: RngStream, config: dict,
              se: float | None = None, status: str = "ok") -> EstimateResult:
    """successes/total with its 95% interval (standard error se, default binomial), widened to hold the point."""
    point = successes / total
    ci_low, ci_high = _binomial_interval(successes, total, se)
    log_point = _log_point(successes, total)
    return EstimateResult(point, log_point, trials, successes, min(ci_low, point), max(ci_high, point),
                          stream.master_seed, status, config)


def _trial_elements(n: int, d: int, sampler: str) -> int:
    """Doubles one trial of _pair_batch holds: n * max(n, d) direct (its cloud or its Gram), n * n triangular."""
    return n * max(n, d) if sampler == "direct" else n * n


def _pair_batch(gen, count, n, d, threshold, sampler, spec):
    """Blue mask of every pair i < j, shape (count, C(n,2)), and the perfect mask (True without a spec).

    The random draws do not depend on the spec, so runs sharing a stream are
    coupled trial by trial.  A trial holds _trial_elements(n, d, sampler) doubles.
    """
    if sampler == "direct":
        grams = gram_batch(sample_cloud_batch(count, n, d, gen))
        triangular = _cholesky(grams) if spec is not None else None  # the clouds' triangular form
    elif sampler == "bartlett":
        triangular = sample_bartlett_batch(count, n, d, gen)
        grams = gram_batch(triangular)
    else:
        raise ValueError(f"sampler must be 'direct' or 'bartlett', got {sampler!r}")
    iu = np.triu_indices(n, 1)
    blue = grams[:, iu[0], iu[1]] >= threshold
    if spec is None:
        return blue, True
    return blue, spec.admits(*bartlett_prefix_norms(triangular)).all(axis=1)


def estimate_edge_density(n: int, d: int, p: float, trials: int, stream: RngStream, threads: int = 1) -> EstimateResult:
    """Fraction of vertex pairs joined by an edge, over `trials` sampled clouds.

    Pairs within one cloud share vertices, so for n > 2 the confidence
    interval is computed across cloud-level edge counts (cluster form);
    for n = 2 the pairs are independent and the interval is the plain
    binomial one.  A cloud is drawn triangular when n <= d and direct when
    n > d; config["sampler"] names which.
    """
    if n < 2:
        raise ValueError(f"need at least two vertices, got n={n}")
    if d < 1:
        raise ValueError(f"dimension must be at least 1, got d={d}")
    if trials < 1:
        raise ValueError(f"trial count must be positive, got {trials}")
    c_p = solve_cp(p)
    threshold = -c_p / math.sqrt(d)
    pairs_per_cloud = n * (n - 1) // 2
    sampler = "bartlett" if n <= d else "direct"

    def worker(gen, count):
        edges = _pair_batch(gen, count, n, d, threshold, sampler, None)[0].sum(axis=1)
        return int(edges.sum()), int((edges.astype(np.int64) ** 2).sum())

    batch = _batch_size(_trial_elements(n, d, sampler))
    parts = _map_batches(trials, batch, stream, threads, worker)
    edges_total = sum(part[0] for part in parts)
    edges_sq_total = sum(part[1] for part in parts)

    se = None  # pairs within one cloud share vertices: use the spread of cloud-level counts
    if n > 2 and trials > 1:
        mean_count = edges_total / trials
        var_count = (edges_sq_total - trials * mean_count**2) / (trials - 1)
        se = math.sqrt(max(var_count, 0.0) / trials) / pairs_per_cloud
    total_pairs = trials * pairs_per_cloud
    config = {
        "op": "edge_density",
        "n": n,
        "d": d,
        "p": p,
        "c_p": c_p,
        "sampler": sampler,
        "trials": trials,
        "pairs": total_pairs,
        "stream_id": stream.stream_id,
        "batch": batch,
    }
    return _estimate(edges_total, total_pairs, trials, stream, config, se)


def _clique_plan(r, d, c_p, trials, stream, sampler, spec):
    """The plan (trials, batch, stream, worker) whose batches count (red, blue) cliques of r vectors;
    with a spec, perfect draws only."""
    threshold = -c_p / math.sqrt(d)

    def worker(gen, count):
        blue, perfect = _pair_batch(gen, count, r, d, threshold, sampler, spec)
        return int((~blue.any(axis=1) & perfect).sum()), int((blue.all(axis=1) & perfect).sum())

    return trials, _batch_size(_trial_elements(r, d, sampler)), stream, worker


def _binomial_reference(r: int, p: float, color: str, trials: int) -> tuple[float, bool]:
    """(p or 1-p)^C(r,2), and whether it predicts under MIN_EXPECTED_SUCCESSES successes in `trials`."""
    reference = (p if color == "red" else 1.0 - p) ** math.comb(r, 2)
    return reference, reference * trials < MIN_EXPECTED_SUCCESSES


def estimate_clique_prob(
    r: int,
    d: int,
    p: float,
    color: str,
    restrict_perfect: bool = False,
    *,
    trials: int,
    stream: RngStream,
    sampler: str = "direct",
    perfect_spec: PerfectSpec | None = None,
    threads: int = 1,
) -> EstimateResult:
    """P[all C(r,2) pairs are `color`], optionally also requiring perfectness.

    `sampler` chooses between the direct cloud and the triangular sampler
    (same distribution, very different cost profiles).  With
    restrict_perfect the default spec is the canonical one at C=2, ell=r;
    pass an explicit spec to tighten it (a spec without restrict_perfect
    is an error).  An estimate whose binomial reference predicts fewer
    than 100 successes is flagged "underpowered" rather than silently
    returning noise.
    """
    if r < 1:
        raise ValueError(f"clique size must be positive, got {r}")
    if d < 1:
        raise ValueError(f"dimension must be at least 1, got d={d}")
    if color not in ("red", "blue"):
        raise ValueError(f"color must be 'red' or 'blue', got {color!r}")
    if trials < 1:
        raise ValueError(f"trial count must be positive, got {trials}")
    if perfect_spec is not None and not restrict_perfect:
        raise ValueError("perfect_spec is read only with restrict_perfect=True")
    c_p = solve_cp(p)
    reference, underpowered = _binomial_reference(r, p, color, trials)
    if underpowered:
        warnings.warn(
            f"binomial reference {reference:.3e} predicts ~{reference * trials:.1f} "
            f"successes in {trials} trials (< {MIN_EXPECTED_SUCCESSES:.0f}); "
            "estimate will be noise-dominated",
            stacklevel=2,
        )
    spec = None
    if restrict_perfect:
        spec = perfect_spec if perfect_spec is not None else PerfectSpec.from_params(2.0, r, d, p)
    _, batch, _, worker = _clique_plan(r, d, c_p, trials, stream, sampler, spec)
    red, blue = map(sum, zip(*_map_batches(trials, batch, stream, threads, worker)))
    config = {
        "op": "clique_prob",
        "r": r,
        "d": d,
        "p": p,
        "c_p": c_p,
        "color": color,
        "sampler": sampler,
        "restrict_perfect": restrict_perfect,
        "trials": trials,
        "stream_id": stream.stream_id,
        "batch": batch,
    }
    if spec is not None:
        config.update(alpha_proj=spec.alpha_proj, delta=spec.delta, spec_ell=spec.ell)
    successes = red if color == "red" else blue
    return _estimate(successes, trials, trials, stream, config, status="underpowered" if underpowered else "ok")


def correction_scaling(
    r: int,
    p: float,
    dims: list[int],
    trials: int,
    stream: RngStream,
    sampler: str = "direct",
    threads: int = 1,
) -> dict:
    """Log-ratio of clique probabilities to their binomial references vs d.

    For each dimension reports ln(P_hat / reference) for both colors, then
    fits the coefficient of the d^{-1/2} regressor through the origin
    (weighted by the delta-method errors of the log estimates).  The
    predicted main-term coefficients are -a^3/p^3 * C(r,3) (red) and
    +a^3/(1-p)^3 * C(r,3) (blue); the derivation carries unquantified
    error factors, so agreement is diagnostic rather than certified.

    One draw per dimension (stream slot 2*di*STREAM_STRIDE; the odd slots go
    unused) serves both colors, so red and blue are coupled.  Each fit and its
    standard errors use one color's counts only, so the coupling leaves them
    unaffected; no red-blue difference is reported.  The batches of every
    dimension run on one pool.
    """
    if r not in (3, 4):
        raise ValueError(f"scaling diagnostic supports r in {{3, 4}}, got {r}")
    if len(dims) < 2 or any(a >= b for a, b in zip(dims, dims[1:])):
        raise ValueError(f"dims must be at least two strictly ascending dimensions, got {list(dims)}")
    if dims[0] < 1:
        raise ValueError(f"dimensions must be at least 1, got d={dims[0]}")
    if trials < 1:
        raise ValueError(f"trial count must be positive, got {trials}")
    c_p = solve_cp(p)
    a = std_normal_pdf(c_p)
    rows = []
    fit_data = {"red": [], "blue": []}
    plans = [_clique_plan(r, d, c_p, trials, stream.offset(2 * di * STREAM_STRIDE), sampler, None)
             for di, d in enumerate(dims)]
    for d, parts in zip(dims, _map_plans(plans, threads)):
        red, blue = map(sum, zip(*parts))
        row = {"d": d, "x": d**-0.5}
        for color, successes in zip(("red", "blue"), (red, blue)):
            log_ref = math.comb(r, 2) * (math.log(p) if color == "red" else math.log1p(-p))
            underpowered = _binomial_reference(r, p, color, trials)[1] or successes == 0
            log_ratio = se = None
            if successes > 0:
                log_ratio = _log_point(successes, trials) - log_ref
                se = math.sqrt((1.0 - successes / trials) / successes)
            if not underpowered:
                fit_data[color].append((d**-0.5, log_ratio, se))
            row.update({f"log_ratio_{color}": log_ratio, f"se_{color}": se, f"underpowered_{color}": underpowered})
        rows.append(row)

    def fit_origin(points):
        if len(points) < 2:
            return None
        num = sum(x * y / s**2 for x, y, s in points)
        den = sum(x * x / s**2 for x, y, s in points)
        return num / den

    return {
        "op": "correction_scaling",
        "r": r,
        "p": p,
        "a": a,
        "sampler": sampler,
        "trials": trials,
        "seed": stream.master_seed,
        "stream_id": stream.stream_id,
        "dims": list(dims),
        "rows": rows,
        "fitted_red": fit_origin(fit_data["red"]),
        "fitted_blue": fit_origin(fit_data["blue"]),
        "predicted_red": -(a**3 / p**3) * math.comb(r, 3),
        "predicted_blue": (a**3 / (1.0 - p) ** 3) * math.comb(r, 3),
        "terms": "main-term",
    }
