"""Empirical validators for the supporting probability inequalities.

Each check samples the quantity an inequality controls and compares the
empirical frequency or moment against the stated closed-form bound; a
check passes when empirical <= bound + 3 * (MC standard error).  Bounds
far below the resolution of the trial budget are still checked (a zero
count passes) but flagged vacuous.

Checks, in the order of CHECKS (which also names the parameter keys each reads):

* norm_concentration   -- P[ ||x|| outside (1-delta, 1+delta) ] <= 2 exp(-delta^2 d / 10)
                          for x ~ N(0, I_d/d); ||x||^2 ~ chi^2_d / d, so one chi-square per trial.
* projection_tail      -- P[ ||pi_W(x)|| >= alpha sqrt(ell)/sqrt(d) ] <= (p/10)^(10 C ell)
                          for an s-dimensional subspace W and C > 1, alpha = 100 C ln(10/p) from
                          PerfectSpec.from_params; ||pi_W(x)||^2 ~ chi^2_s / d, so one chi-square per trial.
* exp_square_moment    -- E[exp(lambda X^2)] <= 1 + 4 lambda sigma^2 / (1 - 2 lambda sigma^2)
                          for centered X with variance proxy sigma^2 (sampled Gaussian),
                          requires 0 <= lambda < 1/(2 sigma^2).
* quadratic_moment     -- E[exp(lambda S)], S = sum_{i<j} X_i X_j of independent
                          lower-truncated N(0,1/d) coordinates, against
                          exp(lambda E S + lambda^2 k^2/d * sum E[X_j]^2 + 4|lambda| k/d),
                          requires d >= 4 |lambda| k.
* chi_square_tail      -- P[Y - f >= 2 sqrt(f t) + 2t] <= e^-t and P[f - Y >= 2 sqrt(f t)] <= e^-t
                          for Y ~ chi^2_f (f = freedom), both sides checked.
* conditional_edge     -- single-edge probability given a revealed prefix.  The edge
                          event reduces to one Gaussian coordinate y ~ N(0, 1/d)
                          exceeding b = -(c_p/sqrt(d) + inner)/diag, where inner is the
                          inner product of the revealed projections and diag the
                          conditioned diagonal entry.  The exact probability is
                          Phi(-sqrt(d) b); the exponential upper bound
                          (1-p) exp(a (-sqrt(d) b - c_p)/(1-p)) follows from the
                          log-concavity of Phi and holds for every diag > 0 and either
                          sign of inner; its main term freezes the exponent at
                          a sqrt(d) inner / (1-p).  Passes when both the empirical
                          frequency and the exact value respect the bound.

validate_bound is the one entry point: it checks that params holds exactly
the keys CHECKS names, runs the check and appends the check name, the
parameter echo, the trial count and the stream to its record.  Trials
run in the estimators' batch runner, so memory is bounded per batch:
frequency checks add hit counts, moment checks merge batch moments.
Importing this module loads no numpy, so the CLI reads CHECKS for its
schema for free: each check, and validate_bound for its trial count,
imports numpy, the estimators or geometry inside the function.
"""

from __future__ import annotations

import math

from gaussian_ramsey.analytic import solve_cp, std_normal_cdf, std_normal_pdf
from gaussian_ramsey.sampling import RngStream, TruncatedSpec, sample_truncated, truncated_mean


def _batches(stream: RngStream, trials: int, per_trial: int, worker) -> list:
    """Per-batch results of worker(gen, count) over the trial budget, in batch order."""
    from gaussian_ramsey import estimators

    batch = estimators._batch_size(per_trial, None)  # no cap: it would repartition every record above 8192 trials
    return estimators._map_batches(trials, batch, stream, 1, worker)


def _rate(hits: int, trials: int) -> tuple[float, float]:
    """Event frequency and its binomial standard error."""
    freq = hits / trials
    return freq, math.sqrt(freq * (1.0 - freq) / trials)


def _moments(vals) -> tuple[int, float, float]:
    """One batch as (count, sum, squared deviations from the batch mean); the deviations overwrite vals."""
    total = float(vals.sum())
    vals -= total / len(vals)
    vals *= vals
    return len(vals), total, float(vals.sum())


def _merged_mean(parts) -> tuple[float, float]:
    """Mean and standard error of batches merged in order (Chan, Golub & LeVeque 1979)."""
    n, total, m2 = parts[0]
    for nb, total_b, m2_b in parts[1:]:
        delta = total_b / nb - total / n
        m2 += m2_b + delta * delta * n * nb / (n + nb)
        n += nb
        total += total_b
    se = math.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1 else 0.0
    return total / n, se


def _within(empirical: float, bound: float, se: float) -> bool:
    """The one pass rule: empirical <= bound + 3 standard errors."""
    return empirical <= bound + 3.0 * se


def _one_sided(empirical: float, bound: float, se: float, vacuous: bool, **extras) -> dict:
    """Record of a one-sided check; extras follow the bound."""
    return {"empirical": empirical, "bound": bound, **extras, "mc_stderr": se,
            "passed": _within(empirical, bound, se), "vacuous": vacuous}


def _norm_concentration(params: dict, trials: int, stream: RngStream) -> dict:
    import numpy as np

    from gaussian_ramsey import estimators

    d, delta = estimators._count(int(params["d"]), "d", "dimension"), float(params["delta"])
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    bound = 2.0 * math.exp(-delta * delta * d / 10.0)

    def draw(gen, count):
        norms = np.sqrt(gen.chisquare(d, size=count) / d)
        return int(((norms <= 1.0 - delta) | (norms >= 1.0 + delta)).sum())

    freq, se = _rate(sum(_batches(stream, trials, 1, draw)), trials)
    return _one_sided(freq, bound, se, bound < 1.0 / trials)


def _projection_tail(params: dict, trials: int, stream: RngStream) -> dict:
    from gaussian_ramsey import estimators
    from gaussian_ramsey.geometry import PerfectSpec

    s, p, C = int(params["s"]), float(params["p"]), float(params["C"])
    if not C > 1.0:  # the clique ratio k/ell, as solve and bounds require
        raise ValueError(f"C must exceed 1, got C={C}")
    d = estimators._count(int(params["d"]), "d", "dimension")
    ell = estimators._count(int(params["ell"]), "ell", "ell")
    if not 1 <= s <= d:
        raise ValueError(f"subspace dimension must lie in [1, d], got s={s}")
    if s > C * ell:
        raise ValueError(f"requires s <= C*ell, got s={s} > {C * ell}")
    alpha = PerfectSpec.from_params(C, ell, d, p).alpha_proj
    if math.isinf(alpha):  # 10/p overflows below p = 5.6e-308 (or C is huge): the threshold would be infinite
        raise ValueError(f"alpha = 100 C ln(10/p) overflows, got C={C}, p={p}")
    threshold_sq = alpha * alpha * ell / d
    log_bound = 10.0 * C * ell * math.log(p / 10.0)
    bound = math.exp(log_bound) if log_bound > -700 else 0.0

    def draw(gen, count):  # ||pi_W(x)||^2 ~ chi^2_s / d
        return int((gen.chisquare(s, size=count) / d >= threshold_sq).sum())

    freq, se = _rate(sum(_batches(stream, trials, 1, draw)), trials)
    return _one_sided(freq, bound, se, bound < 1.0 / trials, log_bound=log_bound, alpha_proj=alpha)


def _exp_square_moment(params: dict, trials: int, stream: RngStream) -> dict:
    import numpy as np

    sigma2, lam = float(params["sigma2"]), float(params["lam"])
    if sigma2 <= 0.0:
        raise ValueError(f"variance proxy must be positive, got sigma2={sigma2}")
    if lam < 0.0 or lam >= 1.0 / (2.0 * sigma2):
        raise ValueError(f"requires 0 <= lambda < 1/(2 sigma^2) = {1.0 / (2.0 * sigma2)}, got {lam}")
    bound = 1.0 + 4.0 * lam * sigma2 / (1.0 - 2.0 * lam * sigma2)

    def draw(gen, count):  # exp(lam * x * x) in two fresh arrays: a run of up to 2^22 trials is one batch
        x = gen.standard_normal(count)
        x *= math.sqrt(sigma2)
        vals = x * lam
        vals *= x
        return _moments(np.exp(vals, out=vals))

    empirical, se = _merged_mean(_batches(stream, trials, 1, draw))
    return _one_sided(empirical, bound, se, False)


def _quadratic_moment(params: dict, trials: int, stream: RngStream) -> dict:
    import numpy as np

    from gaussian_ramsey import estimators

    d, k, lam = estimators._count(int(params["d"]), "d", "dimension"), int(params["k"]), float(params["lam"])
    cutoffs = np.asarray(params["cutoffs"], dtype=float)
    if cutoffs.shape != (k,):
        raise ValueError(f"need exactly k={k} cutoffs, got shape {cutoffs.shape}")
    if any(std_normal_cdf(-b) < np.finfo(float).tiny for b in cutoffs):  # the sampler and mean lose every digit
        raise ValueError(f"cutoffs={cutoffs.tolist()}: a tail mass 1 - Phi(b) is under the least normal double")
    if d < 4.0 * abs(lam) * k:
        raise ValueError(f"requires d >= 4 |lambda| k = {4.0 * abs(lam) * k}, got d={d}")
    specs = [TruncatedSpec(cutoff=float(b), side="lower", d=d) for b in cutoffs]
    means = np.array([truncated_mean(spec) for spec in specs])
    mean_S = 0.5 * (means.sum() ** 2 - (means**2).sum())
    exponent = lam * mean_S + lam * lam * k * k / d * (means**2).sum() + 4.0 * abs(lam) * k / d
    bound = math.exp(exponent)

    def draw(gen, count):  # exp(lam * S) in three fresh arrays: a run of up to 2^22 / k trials is one batch
        X, column = np.empty((count, k)), np.empty(count)
        for j, spec in enumerate(specs):
            X[:, j] = sample_truncated(spec, gen, size=count, out=column)
        S = X.sum(axis=1)  # X stays (count, k) for its row sums' bits
        S *= S
        S -= np.multiply(X, X, out=X).sum(axis=1, out=column)
        S *= 0.5  # S = 0.5 * (row_sum^2 - sum of squares)
        S *= lam
        return _moments(np.exp(S, out=S))

    empirical, se = _merged_mean(_batches(stream, trials, k, draw))
    return _one_sided(empirical, bound, se, False, mean_S=float(mean_S))


def _chi_square_tail(params: dict, trials: int, stream: RngStream) -> dict:
    from gaussian_ramsey import estimators

    freedom, t = estimators._count(int(params["freedom"]), "freedom", "degrees of freedom"), float(params["t"])
    if t < 0.0:
        raise ValueError(f"deviation parameter must be nonnegative, got t={t}")
    bound = math.exp(-t)
    upper_cut = freedom + 2.0 * math.sqrt(freedom * t) + 2.0 * t
    lower_cut = freedom - 2.0 * math.sqrt(freedom * t)

    def draw(gen, count):
        y = gen.chisquare(freedom, size=count)
        return int((y >= upper_cut).sum()), int((y <= lower_cut).sum())

    parts = _batches(stream, trials, 1, draw)
    freq_up, se_up = _rate(sum(part[0] for part in parts), trials)
    freq_lo, se_lo = _rate(sum(part[1] for part in parts), trials)
    return {
        "bound": bound,
        "empirical_upper": freq_up,
        "empirical_lower": freq_lo,
        "mc_stderr_upper": se_up,
        "mc_stderr_lower": se_lo,
        "passed": _within(freq_up, bound, se_up) and _within(freq_lo, bound, se_lo),
        "vacuous": bound < 1.0 / trials,
    }


def _conditional_edge(params: dict, trials: int, stream: RngStream) -> dict:
    from gaussian_ramsey import estimators
    from gaussian_ramsey.geometry import _edge_threshold

    p, d = float(params["p"]), estimators._count(int(params["d"]), "d", "dimension")
    inner, diag = float(params["inner"]), float(params["diag"])
    if diag <= 0.0:
        raise ValueError(f"diagonal entry must be positive, got {diag}")
    c_p = solve_cp(p)
    a = std_normal_pdf(c_p)
    root_d = math.sqrt(d)
    b = (_edge_threshold(c_p, d) - inner) / diag
    shift = -root_d * b - c_p  # 0 when inner = 0 and diag = 1

    exact = std_normal_cdf(-root_d * b)
    bound = (1.0 - p) * math.exp(a * shift / (1.0 - p))
    bound_main = (1.0 - p) * math.exp(a * root_d * inner / (1.0 - p))

    def draw(gen, count):
        y = gen.standard_normal(count) / root_d
        return int((y >= b).sum())

    empirical = sum(_batches(stream, trials, 1, draw)) / trials
    se = math.sqrt(max(empirical * (1.0 - empirical), 1.0 / trials) / trials)
    empirical_within = _within(empirical, bound, se)
    exact_within = _within(exact, bound, 0.0)  # the exact value carries no Monte-Carlo error
    return {
        "cutoff": b,
        "empirical": empirical,
        "mc_stderr": se,
        "exact": exact,
        "bound": bound,
        "bound_main_term": bound_main,
        "empirical_within_bound": empirical_within,
        "exact_within_bound": exact_within,
        "passed": empirical_within and exact_within,
    }


#: every check: name -> (check function, parameter keys it reads).
CHECKS = {
    "norm_concentration": (_norm_concentration, ("d", "delta")),
    "projection_tail": (_projection_tail, ("d", "ell", "s", "p", "C")),
    "exp_square_moment": (_exp_square_moment, ("sigma2", "lam")),
    "quadratic_moment": (_quadratic_moment, ("d", "k", "lam", "cutoffs")),
    "chi_square_tail": (_chi_square_tail, ("freedom", "t")),
    "conditional_edge": (_conditional_edge, ("p", "d", "inner", "diag")),
}


def validate_bound(name: str, params: dict, trials: int, stream: RngStream) -> dict:
    """Run one check of CHECKS on params; see the module docstring."""
    from gaussian_ramsey import estimators

    if name not in CHECKS:
        raise ValueError(f"unknown check {name!r}; choose from {', '.join(CHECKS)}")
    reads = CHECKS[name][1]
    missing, unread = [key for key in reads if key not in params], [key for key in params if key not in reads]
    if missing or unread:
        raise ValueError(f"{name} reads exactly {', '.join(reads)}: missing {missing}, not read {unread}")
    estimators._count(trials, "trials", "trial count")
    result = CHECKS[name][0](dict(params), trials, stream)
    result.update(
        {
            "check": name,
            "params": dict(params),
            "trials": trials,
            "seed": stream.master_seed,
            "stream_id": stream.stream_id,
        }
    )
    return result
