"""Exact monochromatic clique search and witness-coloring certificates.

A clique search first dives greedily, as MCQ and BBMC start from a greedy
clique: from each start vertex, lowest label first, it keeps adding the
lowest common neighbor until it holds the requested size or runs out of
candidates, at most n * size word operations.  A walk that reaches the
size is the answer; when every walk dead-ends, the dive returns None and
the complete search decides.  The dive runs at the root only, since every
node of an absence proof would pay for it and find nothing.

The complete search is a branch-and-bound over packed adjacency bitmasks,
run directly on the graph's blue or red rows, with the k_min rule of BBMC
(San Segundo, Rodriguez-Losada & Jimenez 2011).  At each node that still
needs k vertices it greedily colors only the k - 1 lowest independent
classes of the candidate set, returns at once if the candidates run out
first, and branches on every vertex left over, from the highest label
down, dropping each from the candidates after its branch.  The search
stays complete: the vertices never branched on lie in k - 1 independent
sets, so they cannot complete the clique.  Popcount prunes the rest.  It
returns some clique of the requested size, or None with the guarantee
that none exists.  Completeness is what makes a verified certificate
meaningful: a coloring of K_n with no red K_ell and no blue K_k
establishes R(ell, k) > n.

The witness search walks the estimators' one batch partition
(estimators._partition) and samples colorings (geometric or binomial) a
batch at a time as batch-last pair masks (C(n,2), count), the geometric
ones through the pair plan (estimators._pair_plan; at n <= d the triangular
draw is batch-last too, so an attempt's coloring depends on its batch).  It
packs each batch's blue and red rows at once as uint64 words.  One greedy
dive over the whole batch (_dive_batch: the walks of _dive, stepped in
lockstep on the words) settles every attempt in which a walk finds a red
K_ell, since such an attempt cannot verify.  Only its misses become Python-int
rows (_Attempt) and are decided in order by _verdict, the witness rule
verify_witness uses too, so the lowest verifying attempt, which a seed
determines, is the same as without the batch dive; only it gets a
provenance dict and a validated graph.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from gaussian_ramsey import estimators
from gaussian_ramsey.graphs import (
    WORD_BITS,
    ColoredGraph,
    _pack_words,
    _row_tuples,
    capability_check,
    graph_from_text,
    graph_to_text,
)
from gaussian_ramsey.sampling import RngStream

_CERT_MAGIC = "%gaussian-ramsey-certificate v1"

#: attempts sampled per derived stream in search_witness, at most; fewer when
#: a batch would exceed the estimators' per-batch element budget.
ATTEMPT_BATCH = 256
_Attempt = namedtuple("_Attempt", "n blue_rows red_rows")  # an attempt the batch dive left open: all the engine reads


def _dive(P: int, size: int, rows: tuple[int, ...]) -> list[int] | None:
    """size pairwise-adjacent vertices of P from a greedy walk, or None if every walk dead-ends.

    Each start vertex of P, lowest label first, begins a walk that keeps
    adding the lowest vertex adjacent to all it holds.  Each step intersects
    the candidates with the new vertex's row, so a returned walk is a
    clique; None proves nothing.
    """
    starts = P
    while starts:
        u = (starts & -starts).bit_length() - 1
        starts ^= 1 << u
        walk, Q = [u], P & rows[u]
        while Q and len(walk) < size:
            u = (Q & -Q).bit_length() - 1
            walk.append(u)
            Q &= rows[u]
        if len(walk) == size:
            return walk
    return None


def _dive_batch(words: np.ndarray, size: int) -> np.ndarray:
    """For each matrix of row words (count, n, words), whether a walk of _dive(all vertices, size, rows) reaches size.

    Every start vertex of every matrix walks in lockstep, its candidates
    first its own row.  Each step takes the lowest candidate (the lowest set
    bit of the first nonzero word) and ANDs its row into the candidates; a
    walk with no candidates left ANDs in a row of no consequence and stays
    empty.  A walk that still holds candidates after size - 2 steps takes
    one more vertex, and so holds size vertices.
    """
    count, n, width = words.shape
    if size == 1:
        return np.ones(count, bool)
    rows = words.reshape(count * n, width)  # walk s of matrix t starts at row t*n + s
    base = np.repeat(np.arange(0, count * n, n), n)
    cand = rows.copy()
    for _ in range(size - 2):
        low = np.zeros(count * n, np.intp)
        for j in reversed(range(width)):  # the lowest nonzero word is written last
            c = cand[:, j]
            bit = np.frexp((c & -c).astype(np.float64))[1] - 1  # exact: c & -c is a power of two
            low = np.where(c != 0, j * WORD_BITS + bit, low)
        cand &= np.take(rows, base + low, axis=0)
    return cand.any(axis=1).reshape(count, n).any(axis=1)


def _search(P: int, need: int, adj: tuple[int, ...], non_adj: tuple[int, ...]) -> list[int] | None:
    """need vertices of P that are pairwise adjacent in adj, or None if P holds none.

    non_adj[v] holds the vertices other than v that are not adjacent to v
    (the other color's row).  The caller ensures P has at least need
    vertices.  BBMC's k_min rule: greedily color only the need - 1 lowest
    independent classes of P and branch on the vertices left over; a clique
    within need - 1 independent sets has at most need - 1 vertices, so every
    clique of size need holds a branched vertex.
    """
    if need == 1:
        return [(P & -P).bit_length() - 1]
    need -= 1
    branch = P
    for _ in range(need):
        cand = branch
        while cand:
            bit = cand & -cand
            branch ^= bit
            cand &= non_adj[bit.bit_length() - 1]
        if not branch:
            return None
    # from the highest label down, each vertex dropped from P after its branch
    while branch:
        v = branch.bit_length() - 1
        bit = 1 << v
        branch ^= bit
        Q = P & adj[v]
        if Q.bit_count() >= need:
            found = _search(Q, need, adj, non_adj)
            if found is not None:
                found.append(v)
                return found
        P ^= bit
    return None


def find_mono_clique(g: ColoredGraph | _Attempt, size: int, color: str) -> tuple[int, ...] | None:
    """A monochromatic clique of the given size, as sorted vertices, or None if none exists.

    It reads g.n, g.blue_rows and g.red_rows only, which a search _Attempt
    holds too.  A greedy dive (_dive) answers first; when every walk
    dead-ends, the complete branch-and-bound (_search) decides, so a None
    return is a proof of absence.  Which clique is returned when several
    exist is unspecified.  Graphs beyond the word budget raise
    CapabilityError instead of silently taking exponential time (and the
    recursion stays within Python's limit).
    """
    capability_check(g.n)
    if not 1 <= size <= g.n:
        raise ValueError(f"size must lie in [1, {g.n}], got {size}")
    if color not in ("red", "blue"):
        raise ValueError(f"color must be 'red' or 'blue', got {color!r}")
    rows, other = (g.blue_rows, g.red_rows) if color == "blue" else (g.red_rows, g.blue_rows)
    P = (1 << g.n) - 1
    found = _dive(P, size, rows) or _search(P, size, rows, other)
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


def _verdict(g: ColoredGraph | _Attempt, ell: int, k: int) -> bool:
    """The witness rule: no red K_ell and no blue K_k; a clique larger than the graph cannot occur."""
    red_free = ell > g.n or find_mono_clique(g, ell, "red") is None
    return red_free and (k > g.n or find_mono_clique(g, k, "blue") is None)  # a red clique settles it


def verify_witness(g: ColoredGraph, ell: int, k: int) -> WitnessCertificate:
    """Exhaustively check for red K_ell and blue K_k; checked=True iff neither exists."""
    _check_clique_sizes(ell, k)
    return WitnessCertificate(n=g.n, ell=ell, k=k, graph=g, checked=_verdict(g, ell, k))


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
        c_p, _, batch, draw = estimators._pair_plan(n, d, p, cap=ATTEMPT_BATCH)
        base_provenance.update(d=d, c_p=c_p)
    else:
        batch = estimators._batch_size(n * n, ATTEMPT_BATCH)

        def draw(gen, count):
            return (gen.random((count, n * (n - 1) // 2)) >= p).T, True  # blue with probability 1 - p, drawn in order

    for bi, (sub, count) in enumerate(estimators._partition(max_attempts, batch, stream)):
        blue, red = _pack_words(n, draw(sub.generator(), count)[0])  # both colors at once; rows need no validation
        misses = np.arange(count) if ell > n else np.flatnonzero(~_dive_batch(red, ell))  # a red K_ell settles
        for t, blue_rows, red_rows in zip(misses.tolist(), _row_tuples(blue[misses], n), _row_tuples(red[misses], n)):
            if _verdict(_Attempt(n, blue_rows, red_rows), ell, k):
                g = ColoredGraph(n, blue_rows, dict(base_provenance, attempt=bi * batch + t))
                return WitnessCertificate(n, ell, k, g, checked=True)  # rebuilt: validated, recomputes red rows
    return None


def certificate_to_text(cert: WitnessCertificate) -> str:
    g = ColoredGraph(cert.graph.n, cert.graph.blue_rows, dict(cert.graph.provenance, ell=cert.ell, k=cert.k))
    return graph_to_text(g, magic=_CERT_MAGIC)


def certificate_from_text(text: str) -> WitnessCertificate:
    """Parse a serialized certificate; checked=False until re-verified."""
    g = graph_from_text(text, magic=_CERT_MAGIC)
    try:  # the header parses ell and k as ints; they leave this fresh graph's provenance, so it is validated once
        ell, k = g.provenance.pop("ell"), g.provenance.pop("k")
    except KeyError as exc:
        raise ValueError("certificate header missing ell or k") from exc
    return WitnessCertificate(n=g.n, ell=ell, k=k, graph=g, checked=False)
