"""Exact monochromatic clique search and witness-coloring certificates.

The clique search is a branch-and-bound over packed adjacency bitmasks,
run directly on the graph's blue or red rows, with the k_min rule of BBMC
(San Segundo, Rodriguez-Losada & Jimenez 2011).  At each node that still
needs k vertices it greedily colors the candidate set from the highest
label down, each vertex read off int.bit_length() and its bit off _BIT_OF,
keeps only the first k - 1 independent classes, returns at once if the
candidates run out first, and branches on every vertex left over, from the
lowest label up, dropping each from the candidates after its branch: BBMC
run on the relabeling v -> n - 1 - v, with the same node count.  The search
stays complete: the vertices never branched on lie in k - 1 independent
sets, so they cannot complete the clique.  No size test is needed: a
leftover is adjacent to a vertex of each class, so each child holds the
k - 1 it needs.  It returns some clique of the requested size, or None
with the guarantee that none exists.  Completeness is what makes a
verified certificate meaningful: a coloring of K_n with no red K_ell and
no blue K_k establishes R(ell, k) > n.

The witness search walks the estimators' one batch partition
(estimators._partition) and samples colorings (geometric or binomial) a
batch at a time as batch-last pair masks (C(n,2), count), the geometric
ones through the pair plan (estimators._pair_plan; at n <= d the triangular
draw is batch-last too, so an attempt's coloring depends on its batch).  It
packs each batch's blue and red rows at once as uint64 words.  One greedy
dive over the whole batch (_dive_batch, as MCQ and BBMC start from a greedy
clique) settles every attempt in which a walk finds a red K_ell, since such
an attempt cannot verify.  Only its misses become Python-int rows
(_Attempt) and are decided in order by _verdict, the witness rule
verify_witness uses too.  So the lowest verifying attempt, which a seed
determines, is the same as without the batch dive; only it gets a
provenance dict and a validated graph.  Its float arrays and the packer's
byte planes live in estimators._THREAD_WORKSPACE, kept for the thread's
life, not one call: both samplers draw into it, a binomial batch its
uniforms into its "square" buffer, and the planes (graphs._pack_words:
batch-last, one byte per attempt, row and column) are carved from that
buffer, dead once the pair mask exists.  So a thread that searches again
maps no fresh pages, and after a call holds at most one batch's arrays.

Only the search draws and packs, so only _dive_batch (numpy) and
search_witness (numpy and the estimators) import them, inside the function.
Checking a certificate, and reading or writing one, loads neither.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

from gaussian_ramsey.graphs import (
    MAX_WORDS,
    WORD_BITS,
    ColoredGraph,
    _pack_words,
    _plane_shape,
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
#: 1 << v at index v + 1, its bit_length(), for every vertex the word cap allows; entry 0 is unused.
_BIT_OF = (0, *(1 << v for v in range(MAX_WORDS * WORD_BITS)))
_Attempt = namedtuple("_Attempt", "n blue_rows red_rows")  # an attempt the batch dive left open: all the engine reads


def _dive_batch(words, size: int):
    """For each matrix of row words (count, n, words), whether a greedy walk finds a clique of size vertices.

    Each start vertex of a matrix begins a walk that keeps adding the lowest
    vertex adjacent to all it holds, until it holds size vertices or runs
    out of candidates.  Every walk of every matrix steps in lockstep, its
    candidates first its start's row.  Each step takes the lowest candidate
    (the lowest set bit of the first nonzero word) and ANDs its row into the
    candidates, so a walk holds a clique; a walk with no candidates left
    ANDs in a row of no consequence and stays empty.  A walk that still
    holds candidates after size - 2 steps takes one more vertex, and so
    holds size vertices.  False proves nothing.
    """
    import numpy as np

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

    adj and non_adj are indexed by bit_length(), vertex v's row at v + 1;
    non_adj's row holds the vertices other than v not adjacent to v.  BBMC's
    k_min rule: color only the first need - 1 independent classes of P and
    branch on the vertices left over, since the classes hold at most need - 1
    vertices of a clique.  The recursion keeps need vertices in P or more: a
    leftover is adjacent to the vertex of each class whose row dropped it,
    and class vertices stay in P.  Coloring runs from the highest label down
    and branching from the lowest up: BBMC on the labels v -> n - 1 - v.
    """
    if need == 1:
        return [(P & -P).bit_length() - 1]
    need -= 1
    branch = P
    passes = need
    while passes:
        passes -= 1
        cand = branch
        while cand:
            v = cand.bit_length()
            branch ^= _BIT_OF[v]
            cand &= non_adj[v]
        if not branch:
            return None
    # from the lowest label up (highest-first on the mirrored labels), each vertex dropped from P after its branch
    while branch:
        bit = branch & -branch
        branch ^= bit
        v = bit.bit_length()
        found = _search(P & adj[v], need, adj, non_adj)
        if found is not None:
            found.append(v - 1)
            return found
        P ^= bit
    return None


def find_mono_clique(g: ColoredGraph | _Attempt, size: int, color: str) -> tuple[int, ...] | None:
    """A monochromatic clique of the given size, as sorted vertices, or None if none exists.

    It reads g.n, g.blue_rows and g.red_rows only, which a search _Attempt
    holds too.  The complete branch-and-bound (_search) decides, so a None
    return is a proof of absence.  Which clique is returned when several
    exist is unspecified.  Graphs beyond the word budget raise
    CapabilityError instead of silently taking exponential time (and the
    recursion stays within Python's limit); a row that holds its own vertex,
    on which _search would never return, raises ValueError.
    """
    capability_check(g.n)
    if not 1 <= size <= g.n:
        raise ValueError(f"size must lie in [1, {g.n}], got {size}")
    if color not in ("red", "blue"):
        raise ValueError(f"color must be 'red' or 'blue', got {color!r}")
    for v, (blue, red) in enumerate(zip(g.blue_rows, g.red_rows)):
        if (blue | red) >> v & 1:
            raise ValueError(f"vertex {v} is adjacent to itself")
    rows, other = (g.blue_rows, g.red_rows) if color == "blue" else (g.red_rows, g.blue_rows)
    found = _search((1 << g.n) - 1, size, (0, *rows), (0, *other))
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
    if ell <= g.n and find_mono_clique(g, ell, "red") is not None:  # a red clique settles it
        return False
    return k > g.n or find_mono_clique(g, k, "blue") is None


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
    import numpy as np

    from gaussian_ramsey import estimators

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
    workspace = estimators._THREAD_WORKSPACE
    if sampler == "geometric":
        d = int(params["d"])
        c_p, _, batch, draw = estimators._pair_plan(n, d, p, cap=ATTEMPT_BATCH)
        base_provenance.update(d=d, c_p=c_p)
    else:
        batch = estimators._batch_size(n * n, ATTEMPT_BATCH)

        def draw(gen, count, ws):  # blue with probability 1 - p, drawn in order
            return (gen.random(out=ws.take("square", (count, n * (n - 1) // 2))) >= p).T, True

    for bi, (sub, count) in enumerate(estimators._partition(max_attempts, batch, stream)):
        pairs = draw(sub.generator(), count, workspace)[0]
        # the packer's byte planes, carved from the draw's floats, which are dead once its mask exists
        planes = workspace.take("square", _plane_shape(n, count), np.uint8)
        blue, red = _pack_words(n, pairs, planes)  # both colors at once; rows need no validation
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
