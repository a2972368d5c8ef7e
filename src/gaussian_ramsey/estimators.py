"""Monte-Carlo estimators for edge density and clique probabilities.

Trials are independent work items keyed by stream id: _partition, the one
batch partition (search_witness walks it too), splits a budget into batches
whose size is a function of the problem shape, never of the machine; batch b
draws from stream.offset(b), and results fold over batches in index order, so
thread counts change throughput only, never a single output bit.
One plan runner, _map_plans, runs the batches of one or more plans
(trials, batch, stream, worker) on a single thread pool, _IN_FLIGHT batches
at a time, and keeps one small result per batch; correction_scaling hands it
one plan per dimension, so all its dimensions share the pool.
One pair plan, _pair_plan, checks d and the sampler, solves c_p, takes the
edge threshold (geometry._edge_threshold) and sizes the batch before any
draw.  It alone picks the sampler of a caller that names none (every estimate,
search_witness and the CLI's sample): triangular when n <= d, since edges read
inner products only and a triangular Gram has a cloud's law, else direct.
Its draw is the one pair kernel, _pair_batch: a batch's blue pair mask,
batch-last (C(n,2), count), which the density sums per cloud; one draw
counts red and blue cliques (correction_scaling samples once).  A triangular
batch is drawn batch-last (geometry._bartlett_rows, the one consumption
order) and the kernel computes only its pairs i < j from those rows; with
no perfect spec it stops before the last row's chi entry, which only that
row's norm reads: the skipped draw is the batch's last, and each batch has
a generator of its own, so no drawn bit moves.
_map_plans hands every batch of a call one _Workspace, each thread its own
buffers: a thread's first batch makes the float arrays of a batch, every
later batch writes into them, and they grow only for a draw of more trials
than they hold, so a batch allocates only its masks.  The workspace ends
with the call, since one kept for the process would hold the largest plan's
arrays under every later call's own temporaries (the validators');
search_witness, which walks _partition itself and allocates little else,
keeps _THREAD_WORKSPACE for its thread's life.
Success counting is exact integer arithmetic; probabilities are reported
in the log domain alongside the raw counts, so estimates of p^C(r,2)-sized
events never multiply raw tiny floats.

One rule, _batch_size, sizes every batch in the package before its first draw:
as many trials as fit _BATCH_ELEMENTS doubles, up to a cap; a trial of more
than _MAX_TRIAL_ELEMENTS doubles (512 MiB) is refused.  The estimators cap a
batch at 8192 trials; the validators take none, since a cap would repartition
their records; search_witness caps it at ATTEMPT_BATCH attempts, since it
stops at its first witness and would discard the rest of a larger batch.
The budget fixes the partition, and so the records.  It counts r * r doubles
a triangular trial, which holds r * r + C(r,2) (2r more under a perfect
spec) and a mask byte per pair, so a triangular batch holds up to about 1.7
times the budget; a direct batch draws, scales and multiplies its clouds one
slab of _SLAB_ELEMENTS doubles (256 KiB) at a time, so it holds its Gram, its
mask and one slab, not its clouds.  Those arrays live in the workspace for
the runner call (the search's for its thread's life), not for one batch.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from gaussian_ramsey.analytic import inv_std_normal_cdf, solve_cp, std_normal_pdf
from gaussian_ramsey.geometry import (
    PerfectSpec,
    _bartlett_rows,
    _cholesky,
    _edge_threshold,
    bartlett_prefix_norms,
    gram_batch,
    sample_cloud_batch,
)
from gaussian_ramsey.sampling import RngStream

#: target elements per sampling batch (doubles): fixes the batch partition, and so the records.
_BATCH_ELEMENTS = 1 << 22
#: doubles of direct clouds drawn at once (256 KiB): a direct batch holds its Gram, its mask and one slab.
_SLAB_ELEMENTS = 1 << 15
_MAX_BATCH = 8192
#: largest trial, in doubles, that any sampling path may draw (512 MiB).
_MAX_TRIAL_ELEMENTS = 1 << 26

#: batches handed to the thread pool at once; bounds the runner's bookkeeping, never its results.
_IN_FLIGHT = 256

#: stream-id stride separating sub-estimates of composite reports.
STREAM_STRIDE = 1 << 24

#: expected-success threshold below which an estimate is flagged underpowered.
MIN_EXPECTED_SUCCESSES = 100.0


def _batch_size(elements_per_trial: int, cap: int | None = _MAX_BATCH) -> int:
    """Trials per batch: as many as fit _BATCH_ELEMENTS doubles, at least one, at most cap (None: no cap)."""
    if elements_per_trial > _MAX_TRIAL_ELEMENTS:
        raise ValueError(f"one trial would hold {elements_per_trial} doubles, over the cap of {_MAX_TRIAL_ELEMENTS}")
    batch = _BATCH_ELEMENTS // max(1, elements_per_trial)
    return max(1, batch if cap is None else min(cap, batch))


def _count(value: int, key: str, what: str) -> int:
    """value, refused by name unless it is at least 1 and fits in a double: the package computes with it as one."""
    if not 1 <= value <= sys.float_info.max:
        raise ValueError(f"{what} must be at least 1 and fit in a double, got {key}={value}")
    return value


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the OS reports one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _partition(trials: int, batch: int, stream: RngStream):
    """The one batch partition, lazily: (stream.offset(bi), count) per batch bi of `batch` trials, the last short."""
    for bi, start in enumerate(range(0, trials, batch)):
        yield stream.offset(bi), min(batch, trials - start)


def _map_plans(plans, threads: int) -> list[list]:
    """Run every batch of every plan (trials, batch, stream, worker) on one pool; each plan's results in batch order.

    Batch (sub, count) of _partition(trials, batch, stream) is worker(sub.generator(), count, ws), where ws
    is the call's one _Workspace: every plan of the call shares it, each thread sees buffers of its own, and
    it lives as long as the call.  The jobs are made lazily, in plan order, then batch order, and go
    _IN_FLIGHT at a time to min(threads, batches over all plans, usable CPUs) threads, so no thread idles
    between plans.
    """
    jobs = ((pi, sub, count) for pi, (trials, batch, stream, _) in enumerate(plans)
            for sub, count in _partition(trials, batch, stream))
    ws = _Workspace()

    def run(job):
        pi, sub, count = job
        return pi, plans[pi][3](sub.generator(), count, ws)

    workers = min(threads, sum(-(-trials // batch) for trials, batch, _, _ in plans), _usable_cpus())
    parts = [[] for _ in plans]
    with ThreadPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext() as pool:
        while chunk := list(itertools.islice(jobs, _IN_FLIGHT)):
            for pi, result in (pool.map if pool else map)(run, chunk):  # one thread: no pool at all
                parts[pi].append(result)
    return parts


def _binomial_interval(successes: int, trials: int, se: float | None = None) -> tuple[float, float]:
    """95% interval: exact (Clopper-Pearson, by scipy.special imported on the first call) below 30
    successes or failures, else normal with standard error se (default: the binomial one)."""
    from scipy.special import betaincinv

    if successes < 30 or trials - successes < 30:
        lo = 0.0 if successes == 0 else float(betaincinv(successes, trials - successes + 1, 0.025))
        hi = 1.0 if successes == trials else float(betaincinv(successes + 1, trials - successes, 0.975))
        return lo, hi
    p = successes / trials
    half = inv_std_normal_cdf(0.975) * (math.sqrt(p * (1.0 - p) / trials) if se is None else se)
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
    return math.log(successes) - math.log(trials) if successes else -math.inf


def _estimate(successes: int, total: int, trials: int, stream: RngStream, config: dict,
              se: float | None = None, status: str = "ok") -> EstimateResult:
    """successes/total with its 95% interval (standard error se, default binomial), widened to hold the point."""
    point = successes / total
    ci_low, ci_high = _binomial_interval(successes, total, se)
    log_point = _log_point(successes, total)
    return EstimateResult(point, log_point, trials, successes, min(ci_low, point), max(ci_high, point),
                          stream.master_seed, status, config)


def _trial_elements(n: int, d: int, sampler: str) -> int:
    """Doubles one trial counts toward the batch budget: n * max(n, d) direct (its cloud or its Gram), n * n
    triangular.  The count fixes the partition; a direct batch holds only its Gram and one slab of clouds."""
    return n * max(n, d) if sampler == "direct" else n * n


class _Workspace(threading.local):
    """Float buffers reused batch after batch; each thread that uses one sees buffers of its own.

    take(name, shape, dtype) is a C-contiguous view of the first bytes of buffer `name` as an array of
    that shape and dtype (doubles by default), laid out as a fresh array would be.  A buffer is made at
    its first take, and replaced by a larger one only when a take asks for more bytes than it holds.
    A view holds whatever the last batch left there, so every caller writes an entry before it reads it.
    """

    def __init__(self) -> None:
        self._buffers = {}

    def take(self, name: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        buffer = self._buffers.get(name)
        if buffer is None or buffer.nbytes < nbytes:
            buffer = self._buffers[name] = np.empty(-(-nbytes // 8))
        return buffer.view(np.uint8)[:nbytes].view(dtype).reshape(shape)


#: search_witness's workspace, kept for each thread's life: the one exception to _map_plans's rule.
_THREAD_WORKSPACE = _Workspace()


def _pair_batch(gen, count, n, d, threshold, sampler, spec, ws):
    """Blue mask of every pair i < j, batch-last (C(n,2), count), and the perfect mask (True without a spec).

    Row i's pairs j > i fill whole rows of the mask (np.triu_indices order), read off the direct
    clouds' BLAS Gram, one row of pairs at a time, or computed alone from the batch-last triangular
    rows, G_ij = sum_{k<=i} L_jk L_ik, into one (C(n,2), count) array of products that one compare
    thresholds.  Direct clouds are drawn, scaled and multiplied into the batch's Gram one slab of at
    most _SLAB_ELEMENTS doubles at a time, with the bits of one whole draw.  Every float array of the
    batch (the slab and the Gram, or the triangular rows and their normals, and the norms and
    projections) is taken from the workspace ws; only the masks are new.  The products go to the
    normals' buffer, "normals", which is dead once the rows hold the scaled normals.  The Gram and
    the triangular rows, n * n doubles a trial either way, take one buffer, "square", which the
    search reuses once the mask is drawn.  Without a spec nothing reads the norms, so the triangular
    rows stop one chi draw short (geometry._bartlett_rows with norms=False): the last row's diagonal
    enters no pair i < j, and its draw would be the batch's last.  So every value drawn without a
    spec is drawn with one, to the same bits: runs sharing a stream are coupled trial by trial.
    """
    pairs = n * (n - 1) // 2
    if sampler == "direct":
        step = max(1, _SLAB_ELEMENTS // (n * d))
        slab = ws.take("slab", (min(step, count), n, d))
        grams = ws.take("square", (count, n, n))
        for start in range(0, count, step):
            k = min(step, count - start)
            gram_batch(sample_cloud_batch(k, n, d, gen, out=slab[:k]), out=grams[start : start + k])
        blue = np.empty((pairs, count), dtype=bool)
        start = 0
        for i in range(n - 1):
            np.greater_equal(grams[:, i, i + 1 :].T, threshold, out=blue[start : start + n - 1 - i])
            start += n - 1 - i
        triangular = np.moveaxis(_cholesky(grams), 0, -1) if spec is not None else None  # clouds', batch-last
    else:  # "bartlett": _pair_plan has checked the name and n <= d
        out = ws.take("square", (n, n, count)), ws.take("normals", (count, pairs))
        triangular = L = _bartlett_rows(count, n, d, gen, out=out, norms=spec is not None)
        products = ws.take("normals", (pairs, count))
        start = 0
        for i in range(n - 1):
            np.einsum("jkb,kb->jb", L[i + 1 :, : i + 1], L[i, : i + 1], out=products[start : start + n - 1 - i])
            start += n - 1 - i
        blue = np.greater_equal(products, threshold)
    if spec is None:
        return blue, True
    # the pairs are read: the squares and running sums overwrite the triangular rows
    norms = bartlett_prefix_norms(triangular, out=ws.take("norms", (2, n, count)), squares=triangular)
    return blue, spec.admits(*norms).all(axis=0)


def _pair_plan(n, d, p, sampler=None, spec=None, cap=_MAX_BATCH):
    """(c_p, sampler, batch, draw) for n vectors in R^d at red probability p: the one place a
    sampler is chosen (if none is named, "bartlett" when n <= d, else "direct").

    It checks d and the sampler and sizes the batch (_batch_size, at most cap) before any draw;
    draw(gen, count, ws) is _pair_batch's (blue, perfect) at the threshold -c_p/sqrt(d)
    (geometry._edge_threshold), drawn into the workspace ws.
    """
    _count(d, "d", "dimension")  # geometry._edge_threshold takes sqrt(d) as a double
    if sampler is None:
        sampler = "bartlett" if n <= d else "direct"
    if sampler not in ("direct", "bartlett") or (sampler == "bartlett" and n > d):
        raise ValueError(f"sampler must be 'direct', or 'bartlett' with n <= d; got {sampler!r} at n={n}, d={d}")
    c_p = solve_cp(p)
    threshold = _edge_threshold(c_p, d)
    batch = _batch_size(_trial_elements(n, d, sampler), cap)

    def draw(gen, count, ws):
        return _pair_batch(gen, count, n, d, threshold, sampler, spec, ws)

    return c_p, sampler, batch, draw


def estimate_edge_density(n: int, d: int, p: float, trials: int, stream: RngStream, threads: int = 1) -> EstimateResult:
    """Fraction of vertex pairs joined by an edge, over `trials` sampled clouds.

    Pairs within one cloud share vertices, so for n > 2 the confidence
    interval is computed across cloud-level edge counts (cluster form);
    for n = 2 the pairs are independent and the interval is the plain
    binomial one.  The pair plan picks the sampler; config["sampler"] names it.
    """
    if n < 2:
        raise ValueError(f"need at least two vertices, got n={n}")
    c_p, sampler, batch, draw = _pair_plan(n, d, p)
    _count(trials, "trials", "trial count")
    pairs_per_cloud = n * (n - 1) // 2

    def worker(gen, count, ws):
        edges = draw(gen, count, ws)[0].sum(axis=0)
        return int(edges.sum()), int((edges.astype(np.int64) ** 2).sum())

    edges_total, edges_sq_total = map(sum, zip(*_map_plans([(trials, batch, stream, worker)], threads)[0]))

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


def _clique_plan(r, d, p, trials, stream, sampler, spec):
    """c_p, the pair plan's sampler, and the plan (trials, batch, stream, worker) whose batches count
    (red, blue) cliques of r vectors; with a spec, perfect draws only."""
    c_p, sampler, batch, draw = _pair_plan(r, d, p, sampler, spec)

    def worker(gen, count, ws):
        blue, perfect = draw(gen, count, ws)
        return int(np.count_nonzero(~blue.any(axis=0) & perfect)), int(np.count_nonzero(blue.all(axis=0) & perfect))

    return c_p, sampler, (trials, batch, stream, worker)


def _binomial_reference(r: int, p: float, color: str, trials: int) -> tuple[float, bool]:
    """(p or 1-p)^C(r,2), and whether it predicts under MIN_EXPECTED_SUCCESSES successes in `trials`."""
    reference = (p if color == "red" else 1.0 - p) ** math.comb(r, 2)
    return reference, reference * trials < MIN_EXPECTED_SUCCESSES


def estimate_clique_prob(
    r: int,
    d: int,
    p: float,
    color: str,
    *,
    trials: int,
    stream: RngStream,
    sampler: str | None = None,
    perfect_spec: PerfectSpec | None = None,
    threads: int = 1,
) -> EstimateResult:
    """P[all C(r,2) pairs are `color`], also requiring perfectness under perfect_spec when one is given.

    `sampler` chooses the direct cloud or the triangular sampler (one law,
    very different costs; None takes the pair plan's, which config["sampler"]
    names).  The canonical restriction is PerfectSpec.from_params(2.0, r, d, p).
    An estimate whose binomial reference predicts fewer than 100 successes is
    flagged "underpowered" rather than silently returning noise.
    """
    if r < 1:
        raise ValueError(f"clique size must be positive, got r={r}")
    c_p, sampler, plan = _clique_plan(r, d, p, trials, stream, sampler, perfect_spec)
    if color not in ("red", "blue"):
        raise ValueError(f"color must be 'red' or 'blue', got {color!r}")
    _count(trials, "trials", "trial count")
    reference, underpowered = _binomial_reference(r, p, color, trials)
    if underpowered:
        warnings.warn(
            f"binomial reference {reference:.3e} predicts ~{reference * trials:.1f} "
            f"successes in {trials} trials (< {MIN_EXPECTED_SUCCESSES:.0f}); "
            "estimate will be noise-dominated",
            stacklevel=2,
        )
    red, blue = map(sum, zip(*_map_plans([plan], threads)[0]))
    config = {
        "op": "clique_prob",
        "r": r,
        "d": d,
        "p": p,
        "c_p": c_p,
        "color": color,
        "sampler": sampler,
        "restrict_perfect": perfect_spec is not None,
        "trials": trials,
        "stream_id": stream.stream_id,
        "batch": plan[1],
    }
    if perfect_spec is not None:
        config.update(alpha_proj=perfect_spec.alpha_proj, delta=perfect_spec.delta, spec_ell=perfect_spec.ell)
    successes = red if color == "red" else blue
    return _estimate(successes, trials, trials, stream, config, status="underpowered" if underpowered else "ok")


def correction_scaling(
    r: int,
    p: float,
    dims: list[int],
    trials: int,
    stream: RngStream,
    sampler: str | None = None,
    threads: int = 1,
) -> dict:
    """Log-ratio of clique probabilities to their binomial references vs d.

    For each dimension reports ln(P_hat / reference) for both colors, then
    fits the coefficient of the d^{-1/2} regressor through the origin
    (weighted by the delta-method errors of the log estimates).  The
    predicted main-term coefficients are -a^3/p^3 * C(r,3) (red) and
    +a^3/(1-p)^3 * C(r,3) (blue); the derivation carries unquantified
    error factors, so agreement is diagnostic rather than certified.

    One draw per dimension (stream slot 2*di*STREAM_STRIDE; the odd slots go unused) serves both
    colors, so red and blue are coupled.  Each fit and its standard errors use one color's counts
    only, so the coupling leaves them unaffected; no red-blue difference is reported.  The batches
    of every dimension run in one _map_plans call, with the sampler that the first (smallest)
    dimension's plan picks when none is named.
    """
    if r not in (3, 4):
        raise ValueError(f"scaling diagnostic supports r in {{3, 4}}, got {r}")
    if len(dims) < 2 or any(a >= b for a, b in zip(dims, dims[1:])):
        raise ValueError(f"dims must be at least two strictly ascending dimensions, got {list(dims)}")
    plans = []
    for di, d in enumerate(dims):  # every plan solves the same c_p, and later plans take the first one's sampler
        c_p, sampler, plan = _clique_plan(r, d, p, trials, stream.offset(2 * di * STREAM_STRIDE), sampler, None)
        plans.append(plan)
    _count(trials, "trials", "trial count")
    a = std_normal_pdf(c_p)
    rows = []
    fit_data = {"red": [], "blue": []}
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

    if p**3 >= sys.float_info.min:
        red = a**3 / p**3
    elif a >= sys.float_info.min:  # p**3 is subnormal or 0 below p ~ 2.8e-103, where a/p is still about c_p
        red = (a / p) ** 3
    else:  # a is subnormal too: a/p from logs
        red = math.exp(-0.5 * c_p * c_p - 0.5 * math.log(2.0 * math.pi) - math.log(p)) ** 3
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
        "predicted_red": -red * math.comb(r, 3),
        "predicted_blue": (a**3 / (1.0 - p) ** 3) * math.comb(r, 3),
        "terms": "main-term",
    }
