"""The benchmark's workloads: CLI invocations, the work each does, and its check.

A workload's setup(seed, workdir, tiny) makes its inputs and returns a
function from round index to the ops of that round.  Every op is one
``gaussian_ramsey.cli.main(argv)`` call; ``key`` names the op across
rounds (the same key is the same work with a fresh seed or labeling),
``work`` counts its Monte-Carlo trials, search attempts or certificates,
and ``check(rc, record)`` returns None or the reason the output is wrong.
A workload's ``pooled`` checks run once per run, on the records of every
op with their key: the criterion-6 slope window needs more trials than
one short op draws, so it is checked on the mean over the run.  Each
check rests on a truth that no change to how the package partitions its
random streams can move: sign symmetry, the criterion-6 window,
R(4,4) = 18, R(4,5) = 25 and the classical witnesses of corpus.py.

This module imports nothing from the package at import time, so run.py can
list workloads without loading numpy.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

#: 95% two-sided normal quantile, as the package's intervals use it.
_Z95 = 1.959963984540054


@dataclass(frozen=True)
class Op:
    key: str
    argv: tuple[str, ...]
    work: int
    check: Callable[[int, dict], "str | None"]


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    why: str
    setup: Callable[[int, str, bool], Callable[[int], list[Op]]]
    pooled: dict[str, Callable[[list[dict]], "str | None"]] = field(default_factory=dict)


def _op_seeds(workload: str, seed: int, round_index: int):
    rng = random.Random(f"{workload}:{seed}:{round_index}")
    while True:
        yield str(rng.getrandbits(62))


def _argv(text: str, seed: str) -> tuple[str, ...]:
    return tuple(text.split()) + ("--seed", seed)


def compute_threads() -> int:
    """Worker threads for mc-direct: the usable cores, at most 4 to bound batch memory."""
    return max(1, min(len(os.sched_getaffinity(0)), 4))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _red_slope(r: int, p: float) -> float:
    """Predicted d^(-1/2) coefficient of ln(P_red / p^C(r,2)), from scipy alone."""
    from scipy.special import ndtri

    c_p = -float(ndtri(p))
    a = math.exp(-0.5 * c_p * c_p) / math.sqrt(2.0 * math.pi)
    return -(a**3 / p**3) * math.comb(r, 3)


def check_scaling_op(rc: int, rec: dict):
    if rc != 0:
        return f"exit status {rc} (underpowered row)"
    res = rec["result"]
    if res["fitted_red"] is None or res["fitted_blue"] is None:
        return "no fit"
    return None


def check_scaling_mean(r: int, p: float):
    """Criterion 6 over a run: mean fitted/predicted red slope in [0.5, 2], mean blue slope > 0."""

    def check(recs: list[dict]):
        if not recs:
            return "no scaling op returned a fit"
        predicted = _red_slope(r, p)
        ratio = sum(rec["result"]["fitted_red"] for rec in recs) / len(recs) / predicted
        blue = sum(rec["result"]["fitted_blue"] for rec in recs) / len(recs)
        if not 0.5 <= ratio <= 2.0:
            return f"mean fitted/predicted red slope {ratio:.3f} over {len(recs)} ops outside [0.5, 2]"
        if not blue > 0.0:
            return f"mean fitted blue slope {blue} over {len(recs)} ops not positive"
        return None

    return check


def check_half_density(trials: int):
    """At p = 1/2 the threshold is 0 and P[<x, y> >= 0] = 1/2 exactly."""

    def check(rc: int, rec: dict):
        res = rec["result"]
        if rc != 0 or res["trials"] != trials:
            return f"exit status {rc}, trials {res['trials']}"
        se = (res["ci_high"] - res["ci_low"]) / (2.0 * _Z95)
        if not abs(res["point"] - 0.5) <= 5.0 * se:
            return f"density {res['point']} more than 5 SE ({se:.2e}) from 1/2"
        return None

    return check


def check_clique(reference: float, restricted: bool):
    """Unrestricted: P / (1-p)^C(r,2) in [0.5, 2]; restricted: 0 < P <= 2 (1-p)^C(r,2)."""

    def check(rc: int, rec: dict):
        res = rec["result"]
        if rc != 0 or res["status"] != "ok":
            return f"exit status {rc}, status {res['status']}"
        if res["successes"] / res["trials"] != res["point"]:
            return "point is not successes / trials"
        ratio = res["point"] / reference
        if restricted and not 0.0 < ratio <= 2.0:
            return f"restricted estimate / reference {ratio:.3f} outside (0, 2]"
        if not restricted and not 0.5 <= ratio <= 2.0:
            return f"estimate / reference {ratio:.3f} outside [0.5, 2]"
        return None

    return check


def check_passed(rc: int, rec: dict):
    if rc != 0 or rec["result"]["passed"] is not True:
        return f"exit status {rc}, passed {rec['result']['passed']}"
    return None


def check_no_witness(max_attempts: int):
    """n >= R(ell, k), so no attempt can verify; exit status 1 is the expected result."""

    def check(rc: int, rec: dict):
        res = rec["result"]
        if rc != 1 or res["found"] is not False or res["max_attempts"] != max_attempts:
            return f"exit status {rc}, result {res}"
        return None

    return check


def check_verified(n: int, ell: int, k: int, expected: bool):
    def check(rc: int, rec: dict):
        res = rec["result"]
        if (res["n"], res["ell"], res["k"]) != (n, ell, k):
            return f"echo {(res['n'], res['ell'], res['k'])} != {(n, ell, k)}"
        if res["checked"] is not expected or rc != (0 if expected else 1):
            return f"checked {res['checked']} (exit {rc}), expected {expected}"
        return None

    return check


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _mc_direct(seed: int, workdir: str, tiny: bool):
    threads = compute_threads()
    # at 5e3 trials one op's fitted/predicted slope ratio has sd 0.42, so a
    # full run checks the mean over its ~20 ops; one tiny round must pass
    # the window alone, so it draws 5e4 trials (sd 0.14) on two dims
    dims, scale_trials, density_trials = ("64,256", 50000, 40) if tiny else ("64,256,1024", 5000, 100)
    scaling = f"scaling --r 3 --p 0.4 --dims {dims} --sampler direct --threads {threads} --trials {scale_trials}"
    density = f"estimate --kind density --n 64 --d 1024 --p 0.5 --threads {threads} --trials {density_trials}"

    def round_ops(i: int) -> list[Op]:
        seeds = _op_seeds("mc-direct", seed, i)
        return [
            Op("scaling", _argv(scaling, next(seeds)), scale_trials * len(dims.split(",")) * 2, check_scaling_op),
            Op("density", _argv(density, next(seeds)), density_trials, check_half_density(density_trials)),
        ]

    return round_ops


def _validator_suite() -> list[tuple[str, int]]:
    """The criterion-7 validator configurations, as (CLI text, trials)."""
    from scipy.special import ndtri

    p = 0.38
    c_p = -float(ndtri(p))
    lam = math.exp(-0.5 * c_p * c_p) / math.sqrt(2.0 * math.pi) * 20.0 / (1.0 - p)
    cutoffs = ",".join([repr(-c_p)] * 5)
    suite = [
        ("validate --check norm_concentration --d 400 --delta 0.3", 10000),
        ("validate --check projection_tail --d 2500 --ell 4 --s 8 --p 0.38 --C 2", 100000),
        ("validate --check exp_square_moment --sigma2 1 --lam 0", 20000),
        ("validate --check exp_square_moment --sigma2 1 --lam 0.2", 20000),
        (f"validate --check quadratic_moment --d 400 --k 5 --lam={lam!r} --cutoffs={cutoffs}", 20000),
        (f"validate --check quadratic_moment --d 400 --k 5 --lam={-lam!r} --cutoffs={cutoffs}", 20000),
    ]
    for freedom in (100, 400):
        for t in (1.0, 5.0, 20.0):
            suite.append((f"validate --check chi_square_tail --freedom {freedom} --t {t}", 10000))
    suite.append(("validate --check conditional_edge --p 0.38 --d 400 --inner=-0.05 --diag 0.9", 10000))
    return suite


def _mc_light(seed: int, workdir: str, tiny: bool):
    # a round takes about a second, so the tiny run is one full-size round
    scale_trials, clique_trials = 50000, 50000
    scaling = f"scaling --r 3 --p 0.4 --dims 64,256,1024 --sampler bartlett --threads 1 --trials {scale_trials}"
    clique = f"estimate --kind clique --r 5 --d 256 --p 0.38 --color blue --sampler bartlett --trials {clique_trials}"
    perfect = clique + " --restrict-perfect --alpha-proj 1.2 --delta 0.12"
    reference = (1.0 - 0.38) ** 10
    suite = _validator_suite()

    def round_ops(i: int) -> list[Op]:
        seeds = _op_seeds("mc-light", seed, i)
        ops = [
            Op("scaling", _argv(scaling, next(seeds)), scale_trials * 3 * 2, check_scaling_op),
            Op("clique", _argv(clique, next(seeds)), clique_trials, check_clique(reference, False)),
            Op("clique-perfect", _argv(perfect, next(seeds)), clique_trials, check_clique(reference, True)),
        ]
        for text, trials in suite:
            ops.append(Op(text, _argv(f"{text} --trials {trials}", next(seeds)), trials, check_passed))
        return ops

    return round_ops


def _witness_search(seed: int, workdir: str, tiny: bool):
    attempts = 50 if tiny else 300
    configs = []
    for n, ell, k in ((18, 4, 4), (25, 4, 5)):
        for sampler in ("--sampler geometric --d 64", "--sampler binomial"):
            configs.append(f"search --n {n} --ell {ell} --k {k} {sampler} --p 0.5 --max-attempts {attempts}")

    def round_ops(i: int) -> list[Op]:
        seeds = _op_seeds("witness-search", seed, i)
        return [Op(text, _argv(text, next(seeds)), attempts, check_no_witness(attempts)) for text in configs]

    return round_ops


#: primes q = 1 (mod 4) whose Paley certificates are full absence proofs.
#: Paley(157) to (197), at 0.4-2 s a proof, are left out: a round must stay
#: short for the reference timed around it to see the host speed its ops saw.
PALEY_BIG = (101, 109, 113, 137, 149)
#: relabelings per certificate; round i verifies labeling i mod this.
#: Proof time depends on the labeling (degeneracy-order ties on regular
#: graphs), so a run spans several labelings instead of one per seed.
LABELINGS = 8


def _witness_verify(seed: int, workdir: str, tiny: bool):
    from corpus import certificate_cases, relabel_rows
    from gaussian_ramsey.cliques import WitnessCertificate, certificate_to_text
    from gaussian_ramsey.graphs import ColoredGraph

    cases = certificate_cases(() if tiny else PALEY_BIG)
    labelings: dict[int, list[Op]] = {}

    def write_labeling(index: int) -> list[Op]:
        # written on first use, before the round's ops are timed; a traced
        # pass replays rounds the untraced pass has already written
        rng = random.Random(f"witness-verify:{seed}:labeling{index}")
        ops = []
        for name, rows, ell, k, expected in cases:
            n = len(rows)
            perm = list(range(n))
            rng.shuffle(perm)
            graph = ColoredGraph(n, tuple(relabel_rows(rows, perm)), {"source": name})
            cert = WitnessCertificate(n=n, ell=ell, k=k, graph=graph, checked=False)
            path = os.path.join(workdir, f"{name}-{index}.cert")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(certificate_to_text(cert))
            ops.append(Op(name, ("verify", "--in", path), 1, check_verified(n, ell, k, expected)))
        return ops

    def round_ops(i: int) -> list[Op]:
        index = i % LABELINGS
        if index not in labelings:
            labelings[index] = write_labeling(index)
        order = list(labelings[index])
        random.Random(f"witness-verify:{seed}:{i}").shuffle(order)
        return order

    return round_ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "mc-direct",
            "trials",
            "direct sampler: 3d normals per trial, threaded batches; sampling and Gram dominate",
            _mc_direct,
            {"scaling": check_scaling_mean(3, 0.4)},
        ),
        Workload(
            "mc-light",
            "trials",
            "triangular sampler and validators, one thread: few draws per trial, per-batch overhead dominates",
            _mc_light,
            {"scaling": check_scaling_mean(3, 0.4)},
        ),
        Workload(
            "witness-search",
            "attempts",
            "search at n = R(4,4) and R(4,5): no attempt verifies; adjacency packing and early-exit search",
            _witness_search,
        ),
        Workload(
            "witness-verify",
            "certs",
            "classical witnesses and near misses: complete absence proofs, branch-and-bound dominates",
            _witness_verify,
        ),
    )
}
