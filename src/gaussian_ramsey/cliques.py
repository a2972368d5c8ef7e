"""Exact monochromatic clique search and witness-coloring certificates.

The search is a complete branch-and-bound over packed adjacency bitmasks:
it runs directly on the graph's blue or red rows, branches on the lowest
remaining vertex, prunes candidate sets by popcount and by a greedy-coloring
upper bound, and returns the first clique of the requested size (or None,
with the guarantee that none exists).  Completeness is what makes a
verified certificate meaningful: a coloring of K_n with no red K_ell and
no blue K_k establishes R(ell, k) > n.

The witness search samples fresh colorings (geometric or binomial) and
verifies each in attempt order; the certificate returned is the one with
the lowest attempt index that verifies, so a seed determines it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gaussian_ramsey import estimators
from gaussian_ramsey.analytic import solve_cp
from gaussian_ramsey.geometry import gram_batch, sample_cloud_batch
from gaussian_ramsey.graphs import (
    ColoredGraph,
    capability_check,
    from_blue_matrix,
    graph_from_text,
    graph_to_text,
)
from gaussian_ramsey.sampling import RngStream

_CERT_MAGIC = "%gaussian-ramsey-certificate v1"

#: attempts sampled per derived stream in search_witness, at most; fewer when
#: a batch would exceed the estimators' per-batch element budget.
ATTEMPT_BATCH = 256


def _greedy_color_bound(P: int, adj: list[int]) -> int:
    """Number of greedy color classes covering P; an upper bound on clique size in P."""
    colors = 0
    rem = P
    while rem:
        colors += 1
        cand = rem
        while cand:
            v = (cand & -cand).bit_length() - 1
            bit = 1 << v
            rem ^= bit
            cand &= ~(adj[v] | bit)
    return colors


def _search(R: list[int], P: int, size: int, adj: list[int]) -> list[int] | None:
    if len(R) == size:
        return list(R)
    need = size - len(R)
    if P.bit_count() < need:
        return None
    if _greedy_color_bound(P, adj) < need:
        return None
    while P:
        if P.bit_count() < need:
            return None
        v = (P & -P).bit_length() - 1
        P ^= 1 << v
        R.append(v)
        found = _search(R, P & adj[v], size, adj)
        R.pop()
        if found is not None:
            return found
    return None


def find_mono_clique(g: ColoredGraph, size: int, color: str) -> tuple[int, ...] | None:
    """A monochromatic clique of the given size, or None if none exists.

    Complete: a None return is a proof of absence.  Graphs beyond the
    word budget raise CapabilityError instead of silently taking
    exponential time (and the recursion stays within Python's limit).
    """
    capability_check(g.n)
    if not 1 <= size <= g.n:
        raise ValueError(f"size must lie in [1, {g.n}], got {size}")
    if color not in ("red", "blue"):
        raise ValueError(f"color must be 'red' or 'blue', got {color!r}")
    if size == 1:
        return (0,)
    rows = g.blue_rows if color == "blue" else g.red_rows
    found = _search([], (1 << g.n) - 1, size, list(rows))
    return None if found is None else tuple(sorted(found))


@dataclass(frozen=True)
class WitnessCertificate:
    """A coloring together with the outcome of the independent verifier.

    checked is set only by exhaustive search over both colors, never by
    the sampler that produced the graph.
    """

    n: int
    ell: int
    k: int
    graph: ColoredGraph
    checked: bool


def verify_witness(g: ColoredGraph, ell: int, k: int) -> WitnessCertificate:
    """Exhaustively check for red K_ell and blue K_k; checked=True iff neither exists."""
    if min(ell, k) < 1:
        raise ValueError(f"clique sizes must be at least 1, got ell={ell}, k={k}")
    red = find_mono_clique(g, ell, "red") if ell <= g.n else None
    blue = find_mono_clique(g, k, "blue") if red is None and k <= g.n else None  # a red clique settles it
    return WitnessCertificate(n=g.n, ell=ell, k=k, graph=g, checked=red is None and blue is None)


def search_witness(
    n: int,
    ell: int,
    k: int,
    sampler: str,
    params: dict,
    max_attempts: int,
    stream: RngStream,
) -> WitnessCertificate | None:
    """Sample colorings until one verifies; None after max_attempts failures.

    sampler "geometric" draws the graph from the Gaussian model with
    params {d, p}; "binomial" colors each edge red independently with
    params {p}.  The attempt index of the returned certificate is recorded
    in the graph provenance.
    """
    capability_check(n)
    if sampler not in ("geometric", "binomial"):
        raise ValueError(f"sampler must be 'geometric' or 'binomial', got {sampler!r}")
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be positive, got {max_attempts}")
    p = float(params["p"])
    base_provenance = {"p": p, "seed": stream.master_seed, "sampler": sampler}
    if sampler == "geometric":
        d = int(params["d"])
        if d < 1:
            raise ValueError(f"dimension must be at least 1, got d={d}")
        c_p = solve_cp(p)
        threshold = -c_p / math.sqrt(d)
        base_provenance.update(d=d, c_p=c_p)
    iu = np.triu_indices(n, 1)
    elements = n * (n + d) if sampler == "geometric" else n * n  # per attempt: cloud and Gram, or matrix
    batch = max(1, min(ATTEMPT_BATCH, estimators._BATCH_ELEMENTS // elements))

    attempt = 0
    bi = 0
    while attempt < max_attempts:
        count = min(batch, max_attempts - attempt)
        gen = stream.offset(bi).generator()
        if sampler == "geometric":
            blue = gram_batch(sample_cloud_batch(count, n, d, gen)) >= threshold
        else:
            blue = np.zeros((count, n, n), dtype=bool)
            blue[:, iu[0], iu[1]] = gen.random((count, len(iu[0]))) >= p  # blue with probability 1 - p
        for t in range(count):
            graph = from_blue_matrix(blue[t], dict(base_provenance, attempt=attempt))
            cert = verify_witness(graph, ell, k)
            if cert.checked:
                return cert
            attempt += 1
        bi += 1
    return None


def certificate_to_text(cert: WitnessCertificate) -> str:
    provenance = dict(cert.graph.provenance)
    provenance["ell"] = cert.ell
    provenance["k"] = cert.k
    g = ColoredGraph(cert.graph.n, cert.graph.blue_rows, provenance)
    return graph_to_text(g, magic=_CERT_MAGIC)


def certificate_from_text(text: str) -> WitnessCertificate:
    """Parse a serialized certificate; checked=False until re-verified."""
    g = graph_from_text(text, magic=_CERT_MAGIC)
    provenance = dict(g.provenance)
    try:
        ell = int(provenance.pop("ell"))
        k = int(provenance.pop("k"))
    except KeyError as exc:
        raise ValueError("certificate header missing ell or k") from exc
    graph = ColoredGraph(g.n, g.blue_rows, provenance)
    return WitnessCertificate(n=g.n, ell=ell, k=k, graph=graph, checked=False)
