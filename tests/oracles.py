"""Independent oracles used to derive expected values in the tests.

These paths intentionally avoid the library's own implementations: the
normal cdf comes from adaptive quadrature of the density (no erf), the
solvers from plain interval bisection (p_C's ulp check at 50 digits, in
log space), and the deep-tail Mills ratio from
its asymptotic series with an explicit truncation error, and the graph
bit layouts from per-pair loops over the rows (the symmetry check from
a numpy unpack against the transpose), and the greedy walks of
the search's batch dive one attempt at a time on Python-int rows, and
the clique engine's branch-and-bound as first written, lowest-first
coloring and all, with a node counter (reference_clique_search), and
the witness search attempt by attempt, each built by from_blue_matrix
and decided by verify_witness (reference_search).  Frozen
constants in the tests were computed with these functions at 30 decimal
digits.
The r = 3 clique probabilities come from a quadrature over the triangular
(Bartlett) variables with the bivariate normal cdf from Owen's T, built
from scipy.special alone.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy.special import gammaincinv, ndtr, ndtri, owens_t

from gaussian_ramsey import estimators
from gaussian_ramsey.cliques import ATTEMPT_BATCH, verify_witness
from gaussian_ramsey.graphs import from_blue_matrix


def cdf_quad(t: float, dps: int = 30) -> float:
    """Standard normal cdf by quadrature of the density."""
    with mp.workdps(dps):
        val = mp.quad(lambda x: mp.e ** (-x * x / 2) / mp.sqrt(2 * mp.pi), [-mp.inf, t])
        return float(val)


def pdf_exact(t: float, dps: int = 30) -> float:
    with mp.workdps(dps):
        return float(mp.e ** (-mp.mpf(t) ** 2 / 2) / mp.sqrt(2 * mp.pi))


def inv_cdf_bisect(q: float, dps: int = 30) -> float:
    """Inverse normal cdf by bisection against the quadrature cdf."""
    with mp.workdps(dps):
        lo, hi = mp.mpf(-13), mp.mpf(13)
        f = lambda x: mp.quad(lambda y: mp.e ** (-y * y / 2) / mp.sqrt(2 * mp.pi), [-mp.inf, x])
        for _ in range(80):
            mid = (lo + hi) / 2
            if f(mid) < q:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def solve_pC_bisect(C: float, dps: int = 40) -> float:
    """Root of (1-p)^C = p in (0, 1/2) by bisection."""
    with mp.workdps(dps):
        Cm = mp.mpf(C)
        lo, hi = mp.mpf("1e-30"), mp.mpf("0.5")
        for _ in range(200):
            mid = (lo + hi) / 2
            if (1 - mid) ** Cm - mid > 0:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def pC_ulp_error(C: float, p: float, dps: int = 50) -> float:
    """|p - p_C| in units of ulp(p), with p_C the root of ln p - C ln(1-p) found at dps digits.

    The root is bisected in u = ln p over [-800, ln 1/2], which holds p_C for every finite C > 1:
    u - C log1p(-e^u) increases in u, and 120 halvings leave an interval far below an ulp.
    """
    with mp.workdps(dps):
        Cm = mp.mpf(C)
        lo, hi = mp.mpf(-800), mp.log(mp.mpf("0.5"))
        for _ in range(120):
            mid = (lo + hi) / 2
            if mid - Cm * mp.log1p(-mp.exp(mid)) > 0:
                hi = mid
            else:
                lo = mid
        return float(abs(mp.mpf(p) - mp.exp((lo + hi) / 2)) / mp.mpf(math.ulp(p)))


def mills_asymptotic(t: float) -> tuple[float, float]:
    """Mills ratio for t <= -8 from the tail series; returns (value, error bound).

    Phi(t) = phi(t)/|t| * (1 - 1/t^2 + 3/t^4 - 15/t^6 + 105/t^8 - ...),
    alternating, so truncation error is below the first omitted term.
    """
    assert t <= -8.0
    x = abs(t)
    inv2 = 1.0 / (x * x)
    series = 1.0 - inv2 + 3.0 * inv2**2 - 15.0 * inv2**3 + 105.0 * inv2**4
    next_term = 945.0 * inv2**5
    value = x / series
    return value, value * next_term / (series - next_term)


def log2_exact(x: float, dps: int = 30) -> float:
    with mp.workdps(dps):
        return float(mp.log(mp.mpf(x), 2))


def pack_blue_rows(blue) -> tuple[int, ...]:
    """Blue bitmask rows by a per-pair loop over the upper triangle.

    Bit j of row i is set iff i != j and blue[min(i, j)][max(i, j)] is
    true; the diagonal and the lower triangle are never read.
    """
    n = len(blue)
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if blue[i][j]:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return tuple(rows)


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


def reference_clique_search(rows, other, size: int) -> tuple[list[int] | None, int]:
    """(size pairwise-adjacent vertices of rows, or None if there are none; the nodes searched), by BBMC
    as the engine first ran it: the k_min coloring from the lowest label up, each vertex isolated as
    cand & -cand, and branching from the highest label down.

    other[v] holds the vertices other than v that are not adjacent to v.  Each call of the recursion
    is one node.
    """
    nodes = 0

    def search(P, need):
        nonlocal nodes
        nodes += 1
        if need == 1:
            return [(P & -P).bit_length() - 1]
        need -= 1
        branch = P
        for _ in range(need):
            cand = branch
            while cand:
                bit = cand & -cand
                branch ^= bit
                cand &= other[bit.bit_length() - 1]
            if not branch:
                return None
        while branch:
            v = branch.bit_length() - 1
            bit = 1 << v
            branch ^= bit
            Q = P & rows[v]
            if Q.bit_count() >= need:
                found = search(Q, need)
                if found is not None:
                    found.append(v)
                    return found
            P ^= bit
        return None

    found = search((1 << len(rows)) - 1, size)
    return found, nodes


def reference_search(n, ell, k, sampler, params, max_attempts, stream):
    """search_witness's certificate (or None) by its definition: the same batches and draws, then
    every attempt in order as its own graph, decided by verify_witness.

    No packing of a batch, no batch dive and no thread workspace: a geometric batch is drawn by a
    pair plan with a fresh workspace, a binomial one as uniforms, blue where at least p.
    """
    p = float(params["p"])
    provenance = {"p": p, "seed": stream.master_seed, "sampler": sampler}
    if sampler == "geometric":
        c_p, _, batch, draw = estimators._pair_plan(n, int(params["d"]), p, cap=ATTEMPT_BATCH)
        provenance.update(d=int(params["d"]), c_p=c_p)
    else:
        batch = estimators._batch_size(n * n, ATTEMPT_BATCH)

        def draw(gen, count):
            return (gen.random((count, n * (n - 1) // 2)) >= p).T, True

    upper = np.triu_indices(n, 1)
    for bi, (sub, count) in enumerate(estimators._partition(max_attempts, batch, stream)):
        pairs = draw(sub.generator(), count)[0]
        for t in range(count):
            blue = np.zeros((n, n), bool)
            blue[upper] = pairs[:, t]
            cert = verify_witness(from_blue_matrix(blue, dict(provenance, attempt=bi * batch + t)), ell, k)
            if cert.checked:
                return cert
    return None


def first_asymmetric_pair(rows) -> tuple[int, int] | None:
    """The first pair (i, j), i < j in row-major order, where bit j of row i
    differs from bit i of row j; None for symmetric rows.  A per-pair loop."""
    n = len(rows)
    for i in range(n):
        for j in range(i + 1, n):
            if (rows[i] >> j & 1) != (rows[j] >> i & 1):
                return (i, j)
    return None


def numpy_symmetry_error(rows, n: int) -> str | None:
    """The asymmetry error of rows in [0, 2**n) with no diagonal bit, or None for symmetric rows, by numpy.

    The rows are unpacked to a boolean matrix and compared with its transpose;
    the first hit in row-major order is named.  The mismatch is symmetric with
    a zero diagonal, so that hit has i < j.
    """
    width = (n + 7) // 8
    data = np.frombuffer(b"".join(row.to_bytes(width, "little") for row in rows), np.uint8)
    blue = np.unpackbits(data.reshape(-1, width), axis=1, count=n, bitorder="little").view(bool)
    mismatch = blue != blue.T
    if not mismatch.any():
        return None
    i, j = np.argwhere(mismatch)[0]
    return f"adjacency not symmetric at pair ({i}, {j})"


def relabel_rows(rows, perm) -> tuple[int, ...]:
    """Rows with vertex i renamed perm[i], by a loop over every bit."""
    n = len(rows)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            if rows[i] >> j & 1:
                out[perm[i]] |= 1 << perm[j]
    return tuple(out)


def inv_cdf_mp(q: float, dps: int = 40) -> float:
    """Inverse normal cdf by bisection against mpmath's ncdf; q may be as small as 1e-300."""
    with mp.workdps(dps):
        lo, hi = mp.mpf(-40), mp.mpf(40)
        for _ in range(120):
            mid = (lo + hi) / 2
            if mp.ncdf(mid) < q:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def bivariate_normal_cdf(h, k, rho):
    """P[X <= h, Y <= k] for standard normals with correlation rho, h k > 0 (Owen 1956)."""
    s = np.sqrt(1.0 - rho * rho)
    return 0.5 * (ndtr(h) + ndtr(k)) - owens_t(h, (k - rho * h) / (h * s)) - owens_t(k, (h - rho * k) / (k * s))


def clique3_prob(d: int, p: float, color: str, nodes: int = 64) -> float:
    """P[all three pairs of three N(0, I_d/d) vectors are `color`], 0 < p < 1/2, by quadrature.

    In triangular coordinates x1 = (L11, 0, ...), x2 = (L21, L22, 0, ...)
    with d L11^2 ~ chi2_d, sqrt(d) L21 = Z ~ N(0, 1), d L22^2 ~ chi2_{d-1}.
    Given x1 and x2, (<x1, x3>, <x2, x3>) ~ N(0, G/d) for their Gram G, so

        P_red = E[1{G12 < t} Phi2(t/sigma1, t/sigma2; rho)],  t = -c_p/sqrt(d),

    and blue is the same with >= and -t.  Each variable is integrated over
    (0, 1) through its quantile map by Gauss-Legendre; Z is drawn from its
    normal truncated to the color's side of G12 = t, so the integrand is
    smooth.  64 nodes agree with 128 to 5e-6 relative for d >= 64.
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    x, w = np.polynomial.legendre.leggauss(nodes)
    u, w = (x + 1.0) / 2.0, w / 2.0
    sign = 1.0 if color == "red" else -1.0
    c_p = -ndtri(p)
    a = 2.0 * gammaincinv(d / 2.0, u)[:, None, None]  # d L11^2
    b = 2.0 * gammaincinv((d - 1) / 2.0, u)[None, None, :]  # d L22^2
    h1 = -sign * c_p * np.sqrt(d / a)  # sign * t / sigma1; the pair (1, 2) has the color iff sign * Z < h1
    side = ndtr(h1)  # P[sign * Z < h1]
    z = sign * ndtri(u[None, :, None] * side)
    h2 = -sign * c_p * np.sqrt(d / (z * z + b))
    rho = z / np.sqrt(z * z + b)
    f = side * bivariate_normal_cdf(np.broadcast_to(h1, rho.shape), h2, rho)
    return float(np.einsum("i,j,k,ijk->", w, w, w, f))
