"""Exact monochromatic clique search and witness-coloring certificates.

The search is a complete branch-and-bound over packed adjacency bitmasks,
run directly on the graph's blue or red rows, with the color-ordered
branching of MCQ (Tomita & Seki 2003) and BBMC (San Segundo et al. 2011).
At each node it greedily colors the candidate set into independent
classes, branches on the vertices of the highest class first, drops each
vertex from the candidates after its branch, and stops once no class left
is high enough to complete the clique; popcount prunes the rest.  It
returns some clique of the requested size, or None with the guarantee
that none exists.  Completeness is what makes a verified certificate
meaningful: a coloring of K_n with no red K_ell and no blue K_k
establishes R(ell, k) > n.

The witness search samples fresh colorings (geometric or binomial) a batch
at a time as pair masks, the geometric ones through the estimators' pair
kernel, packs each batch's blue and red rows at once, and verifies the
attempts in order; the certificate returned is the one with the lowest
attempt index that verifies, so a seed determines it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from gaussian_ramsey import estimators
from gaussian_ramsey.analytic import solve_cp
from gaussian_ramsey.graphs import (
    ColoredGraph,
    _pack_rows,
    _unchecked_graph,
    capability_check,
    graph_from_text,
    graph_to_text,
)
from gaussian_ramsey.sampling import RngStream

_CERT_MAGIC = "%gaussian-ramsey-certificate v1"

#: attempts sampled per derived stream in search_witness, at most; fewer when
#: a batch would exceed the estimators' per-batch element budget.
ATTEMPT_BATCH = 256


def _search(R: list[int], P: int, size: int, adj: tuple[int, ...], non_adj: tuple[int, ...]) -> list[int] | None:
    """A clique of the given size that holds R and draws the rest from P, or None.

    R is a clique and P its common neighbours in adj; non_adj[v] holds the
    vertices other than v that are not adjacent to v (the other color's row).
    """
    need = size - len(R)
    if P.bit_count() < need:
        return None
    if need == 1:
        return R + [(P & -P).bit_length() - 1]
    if need == 2:
        rest = P
        while rest:
            bit = rest & -rest
            rest ^= bit
            v = bit.bit_length() - 1
            nbrs = P & adj[v]
            if nbrs:
                return R + [v, (nbrs & -nbrs).bit_length() - 1]
        return None
    # greedy coloring: each class is independent, so a clique within classes 0..c has at most c + 1 vertices
    classes = []
    rem = P
    while rem:
        cls = 0
        cand = rem
        while cand:
            bit = cand & -cand
            cls |= bit
            cand &= non_adj[bit.bit_length() - 1]
        rem ^= cls
        classes.append(cls)
    # branch on the highest class first; below class need - 1 no vertex left can complete R
    for c in range(len(classes) - 1, need - 2, -1):
        cls = classes[c]
        while cls:
            bit = cls & -cls
            cls ^= bit
            v = bit.bit_length() - 1
            R.append(v)
            found = _search(R, P & adj[v], size, adj, non_adj)
            R.pop()
            if found is not None:
                return found
            P ^= bit
    return None


def find_mono_clique(g: ColoredGraph, size: int, color: str) -> tuple[int, ...] | None:
    """A monochromatic clique of the given size, as sorted vertices, or None if none exists.

    Complete: a None return is a proof of absence.  Which clique is
    returned when several exist is unspecified.  Graphs beyond the
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
    rows, other = (g.blue_rows, g.red_rows) if color == "blue" else (g.red_rows, g.blue_rows)
    found = _search([], (1 << g.n) - 1, size, rows, other)
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


def _check_clique_sizes(ell: int, k: int) -> None:
    if min(ell, k) < 1:
        raise ValueError(f"clique sizes must be at least 1, got ell={ell}, k={k}")


def verify_witness(g: ColoredGraph, ell: int, k: int) -> WitnessCertificate:
    """Exhaustively check for red K_ell and blue K_k; checked=True iff neither exists."""
    _check_clique_sizes(ell, k)
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
    if n < 1:
        raise ValueError(f"vertex count must be positive, got n={n}")
    _check_clique_sizes(ell, k)  # before any attempt is sampled
    if sampler not in ("geometric", "binomial"):
        raise ValueError(f"sampler must be 'geometric' or 'binomial', got {sampler!r}")
    if max_attempts < 1:
        raise ValueError(f"max_attempts must be positive, got {max_attempts}")
    p = float(params["p"])
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got p={p}")
    base_provenance = {"p": p, "seed": stream.master_seed, "sampler": sampler}
    if sampler == "geometric":
        d = int(params["d"])
        if d < 1:
            raise ValueError(f"dimension must be at least 1, got d={d}")
        c_p = solve_cp(p)
        threshold = -c_p / math.sqrt(d)
        base_provenance.update(d=d, c_p=c_p)
    elements = estimators._trial_elements(n, d, "direct") if sampler == "geometric" else n * n
    batch = estimators._batch_size(elements, ATTEMPT_BATCH)

    attempt = 0
    bi = 0
    while attempt < max_attempts:
        count = min(batch, max_attempts - attempt)
        gen = stream.offset(bi).generator()
        if sampler == "geometric":
            pairs = estimators._pair_batch(gen, count, n, d, threshold, "direct", None)[0]
        else:
            pairs = gen.random((count, n * (n - 1) // 2)) >= p  # blue with probability 1 - p
        blue, red = _pack_rows(n, pairs)  # one pack per batch, both colors; its rows need no validation
        for t in range(count):
            g = _unchecked_graph(n, blue[t], red[t], dict(base_provenance, attempt=attempt))
            cert = verify_witness(g, ell, k)
            if cert.checked:  # rebuilt through validation, which recomputes the red rows
                return replace(cert, graph=ColoredGraph(n, blue[t], cert.graph.provenance))
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
