"""Exact monochromatic clique search and witness-coloring certificates.

The search is a complete branch-and-bound over packed adjacency bitmasks,
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
(estimators._partition), samples colorings (geometric or binomial) a batch
at a time as pair masks, the geometric ones through the estimators' pair
plan (estimators._pair_plan: threshold, batch size and sampler; triangular
batches at n <= d are drawn batch-last, so an attempt's coloring depends on
its batch), and packs each batch's blue and red rows at once.  Attempts go
to find_mono_clique on those rows in order; only the lowest verifying one,
which a seed determines, gets a provenance dict and a validated graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from gaussian_ramsey import estimators
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
    rows, other = (g.blue_rows, g.red_rows) if color == "blue" else (g.red_rows, g.blue_rows)
    found = _search((1 << g.n) - 1, size, rows, other)
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
        c_p, _, batch, draw = estimators._pair_plan(n, d, p, cap=ATTEMPT_BATCH)
        base_provenance.update(d=d, c_p=c_p)
    else:
        batch = estimators._batch_size(n * n, ATTEMPT_BATCH)

        def draw(gen, count):
            return gen.random((count, n * (n - 1) // 2)) >= p, True  # blue with probability 1 - p

    for bi, (sub, count) in enumerate(estimators._partition(max_attempts, batch, stream)):
        blue, red = _pack_rows(n, draw(sub.generator(), count)[0])  # both colors at once; rows need no validation
        for t in range(count):
            g = _unchecked_graph(n, blue[t], red[t], base_provenance)
            red_free = ell > n or find_mono_clique(g, ell, "red") is None  # verify_witness's verdict and guards
            if red_free and (k > n or find_mono_clique(g, k, "blue") is None):
                g = ColoredGraph(n, blue[t], dict(base_provenance, attempt=bi * batch + t))
                return WitnessCertificate(n, ell, k, g, checked=True)  # rebuilt: validated, recomputes red rows
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
