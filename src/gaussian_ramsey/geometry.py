"""Samplers and geometry of the Gaussian random graph model.

Two equivalent ways to draw the vertex vectors:

* a direct cloud of n i.i.d. N(0, I_d/d) rows, and
* a lower-triangular r x r sample whose row i has i-1 independent
  N(0, 1/d) entries followed by a sqrt(chi^2_{d-i+1}/d) diagonal entry.

The triangular form is the direct cloud re-expressed in the orthonormal
basis aligned with the prefix spans, that is, the Cholesky factor of its
Gram matrix, so the two samplers induce the same joint law of inner
products (and hence the same random graph).  Triangular batches are drawn
batch-last, (r, r, batch), in one consumption order (_bartlett_rows), and
bartlett_prefix_norms reads them where they lie; the diagonal is drawn as
Gamma((d - i)/2) variates, chisquare's own draws halved.  A caller that reads
no norms draws all but the last diagonal entry, a prefix of that order: the
last vector's component off the others' span enters its norm but no pair,
so out's L[r-1, r-1] is left unwritten.  The graph joins
i ~ j (blue) precisely when <x_i, x_j> >= -c_p/sqrt(d), inclusive at equality.

A sequence is *perfect* for a given spec when every vector's norm lies in
(1 - delta, 1 + delta) and every prefix-span projection is short.  Both
are read off the triangular form, into which a cloud is brought by one
row-by-row Cholesky routine.  The canonical spec uses
alpha = 100 C log(10/p) and delta = alpha d^{-1/4}, which at moderate
dimensions is degenerate (delta >= 1) and is flagged as such rather than
rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gaussian_ramsey.graphs import ColoredGraph, _size_table, from_blue_matrix
from gaussian_ramsey.sampling import as_generator

#: Relative Cholesky pivot at or below which a vector counts as dependent
#: on its predecessors; well above the Gram's rounding (pivots of exactly
#: dependent rows carry about eps * G_ii, and up to 3e-11 relative on
#: near-square rank-deficient clouds).
PIVOT_TOL = 1e-10


@dataclass(frozen=True)
class PointCloud:
    """n sampled d-dimensional rows, coordinate variance 1/d."""

    coords: np.ndarray

    def __post_init__(self) -> None:
        if self.coords.ndim != 2:
            raise ValueError(f"coords must be a 2-d array, got shape {self.coords.shape}")

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def d(self) -> int:
        return self.coords.shape[1]


@dataclass(frozen=True)
class TriangularSample:
    """Lower-triangular coordinates of r vectors in ambient dimension d."""

    M: np.ndarray
    d: int

    def __post_init__(self) -> None:
        r = self.M.shape[0]
        if self.M.ndim != 2 or self.M.shape[1] != r:
            raise ValueError(f"M must be square, got shape {self.M.shape}")
        if r > self.d:
            raise ValueError(f"row count {r} exceeds ambient dimension {self.d}")
        if np.any(np.triu(self.M, 1) != 0.0):
            raise ValueError("M has nonzero entries above the diagonal")
        if np.any(np.diag(self.M) < 0.0):
            raise ValueError("M has negative diagonal entries")

    @property
    def r(self) -> int:
        return self.M.shape[0]


@dataclass(frozen=True)
class PerfectSpec:
    """Norm window and projection threshold defining perfect sequences.

    projection threshold = alpha_proj * sqrt(ell) / sqrt(d); norm window
    = (1 - delta, 1 + delta), open on both sides.  delta >= 1 makes the
    left side of the window vacuous; such specs are accepted but flagged
    degenerate.
    """

    alpha_proj: float
    delta: float
    ell: int
    d: int

    def __post_init__(self) -> None:
        if self.alpha_proj <= 0.0:
            raise ValueError(f"projection constant must be positive, got alpha_proj={self.alpha_proj}")
        if self.delta <= 0.0:
            raise ValueError(f"norm half-width must be positive, got delta={self.delta}")
        if self.ell < 1 or self.d < 1:
            raise ValueError(f"ell and d must be positive, got ell={self.ell}, d={self.d}")

    @classmethod
    def from_params(cls, C: float, ell: int, d: int, p: float) -> "PerfectSpec":
        """Canonical spec: alpha = 100 C ln(10/p), delta = alpha d^(-1/4)."""
        if not 0.0 < p < 1.0:
            raise ValueError(f"probability must lie in (0, 1), got p={p}")
        if C <= 0.0:
            raise ValueError(f"C must be positive, got C={C}")
        if d < 1:  # before d^(-1/4)
            raise ValueError(f"dimension must be at least 1, got d={d}")
        alpha = 100.0 * C * math.log(10.0 / p)
        return cls(alpha_proj=alpha, delta=alpha * d**-0.25, ell=ell, d=d)

    @property
    def degenerate(self) -> bool:
        """True when the norm window's left edge is vacuous (delta >= 1)."""
        return self.delta >= 1.0

    @property
    def projection_threshold(self) -> float:
        return self.alpha_proj * math.sqrt(self.ell) / math.sqrt(self.d)

    def admits(self, norms, proj):
        """Elementwise: the norm lies in (1 - delta, 1 + delta) and the projection is at most the threshold."""
        return (norms > 1.0 - self.delta) & (norms < 1.0 + self.delta) & (proj <= self.projection_threshold)

    @property
    def diagonal_window(self) -> tuple[float, float]:
        """(1 - 2 delta, 1 + delta): where triangular diagonals of perfect
        sequences must land, provided alpha_proj^2 * ell <= delta^2 * d."""
        return (1.0 - 2.0 * self.delta, 1.0 + self.delta)

    @property
    def diagonal_window_applies(self) -> bool:
        return self.alpha_proj**2 * self.ell <= self.delta**2 * self.d


# ---------------------------------------------------------------------------
# samplers (batch kernels first; the scalar ops are batch size 1)
# ---------------------------------------------------------------------------


def sample_cloud_batch(batch: int, n: int, d: int, gen, out: np.ndarray | None = None) -> np.ndarray:
    """(batch, n, d) independent clouds with coordinate variance 1/d, drawn into out when given.

    The normals are drawn in C order and scaled in place, so drawing a batch slab by slab into one
    reused buffer consumes the generator exactly as one whole draw does, and gives the same bits.
    The estimators' direct batches are drawn so: the element budget fixes the batch partition, while
    a batch holds its Gram, its pair mask and one slab (estimators._pair_batch).
    """
    clouds = gen.standard_normal((batch, n, d), out=out)
    return np.divide(clouds, math.sqrt(d), out=clouds)


def _bartlett_rows(batch: int, r: int, d: int, gen, out=None, *, norms: bool = True) -> np.ndarray:
    """(r, r, batch) independent triangular samples, batch-last: entry (i, j) is one length-batch vector.

    The package's one consumption order: one (batch, C(r,2)) draw of the strictly-lower
    Gaussian entries, row-major over the triangle, then the r diagonal chi entries.
    out, when given, is (L, normals) of shapes (r, r, batch) and (batch, C(r,2)): the normals
    are drawn and scaled in normals, then moved into L's lower triangle by one row scatter, and
    the diagonal is drawn in place as Gamma((d - i)/2) variates, chisquare(d - i)'s own draws halved,
    so in its order and to its bits, and one divide by d/2 and one sqrt finish it; L is returned.
    L's upper triangle is not written, so it holds whatever it held: the pair kernel
    and bartlett_prefix_norms read the lower triangle only.  Without out, L is a fresh array
    with a zero upper triangle.
    norms=False, for a caller that reads pairs but no norms, stops after the first r - 1 diagonal
    entries and leaves L[r-1, r-1] unwritten (zero without out): no pair reads it, since pair (i, j)
    reads columns k <= i < r - 1 only.  What is drawn is a prefix of the one consumption order, so
    every entry written has the bits of the full draw, which leaves the generator one draw short.
    """
    if r > d:
        raise ValueError(f"row count {r} exceeds ambient dimension {d}")
    L, normals = (np.zeros((r, r, batch)), None) if out is None else out
    flat = L.reshape(r * r, batch)  # a view: L is C-contiguous
    if r > 1:
        lower = gen.standard_normal((batch, r * (r - 1) // 2), out=normals)
        flat[_strict_lower(r)] = np.divide(lower, math.sqrt(d), out=lower).T
    diagonal = flat[:: r + 1][: r if norms else r - 1]
    for i in range(len(diagonal)):  # chisquare takes no out
        gen.standard_gamma((d - i) / 2, size=batch, out=diagonal[i])
    np.sqrt(np.divide(diagonal, d / 2, out=diagonal), out=diagonal)
    return L


@_size_table
def _strict_lower(r: int) -> np.ndarray:
    """Flat indices i * r + j of the entries j < i of an r x r matrix, row-major (np.tril_indices order)."""
    i, j = np.tril_indices(r, -1)
    return i * r + j


def sample_cloud(n: int, d: int, stream) -> PointCloud:
    """n i.i.d. rows from N(0, I_d / d)."""
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    gen = as_generator(stream)
    return PointCloud(sample_cloud_batch(1, n, d, gen)[0])


def sample_bartlett(r: int, d: int, stream) -> TriangularSample:
    """One triangular sample: row i has i-1 Gaussians then a scaled chi."""
    if r < 1:
        raise ValueError(f"row count must be positive, got {r}")
    gen = as_generator(stream)
    return TriangularSample(_bartlett_rows(1, r, d, gen)[:, :, 0], d=d)


# ---------------------------------------------------------------------------
# inner products and adjacency
# ---------------------------------------------------------------------------


def gram_batch(clouds: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Batched inner products, written into out when given; consumers read only the pairs i < j.

    Each cloud's Gram is its own product, so a batch's Grams do not depend on how it is split.
    """
    return np.matmul(clouds, np.swapaxes(clouds, -1, -2), out=out)


def gram(cloud: PointCloud) -> np.ndarray:
    """Pairwise inner products; exactly symmetric (numpy's X @ X.T is a syrk)."""
    return gram_batch(cloud.coords[None])[0]


def gram_from_bartlett(ts: TriangularSample) -> np.ndarray:
    """Pairwise inner products of the triangular rows."""
    return gram_batch(ts.M[None])[0]


def _edge_threshold(c_p: float, d: int) -> float:
    """-c_p/sqrt(d), the least inner product of a blue edge: the one place the edge rule is written."""
    if c_p < 0.0:
        raise ValueError(f"c_p must be nonnegative, got c_p={c_p}")
    return -c_p / math.sqrt(d)


def adjacency(gram_matrix: np.ndarray, c_p: float, d: int, provenance: dict | None = None) -> ColoredGraph:
    """Blue edge iff <x_i, x_j> >= -c_p/sqrt(d), inclusive at equality."""
    return from_blue_matrix(gram_matrix >= _edge_threshold(c_p, d), provenance)


# ---------------------------------------------------------------------------
# prefix norms and perfect sequences
# ---------------------------------------------------------------------------


def _gram_lower(X: np.ndarray) -> np.ndarray:
    """Lower triangle of a single cloud's Gram; each entry sums x_i * x_j over d alone.

    So the Gram of a subsequence is bit for bit a submatrix of the full
    Gram; BLAS tiling promises no such thing.
    """
    G = np.zeros((len(X), len(X)))
    for i, x in enumerate(X):
        G[i, : i + 1] = (X[: i + 1] * x).sum(axis=1)
    return G


def _factor_row(L: np.ndarray, g: np.ndarray) -> None:
    """Fill the last row of the batched lower factor L, shape (B, k+1, k+1).

    g, shape (B, k+1), holds the new vector's inner products with the k
    earlier vectors and with itself; rows 0..k-1 of L factor the earlier
    vectors' Gram.  A pivot at or below PIVOT_TOL * max(g_k, 1) marks the
    vector as dependent on the earlier ones: its diagonal is 0 and later
    rows get no coefficient on it.  Every operation is elementwise in the
    batch, so a row's bits do not depend on the batch it is computed in.
    """
    k = g.shape[1] - 1
    diag = np.diagonal(L, 0, 1, 2)[:, :k]
    inv = np.divide(1.0, diag, out=np.zeros(diag.shape), where=diag > 0.0)
    resid = g.copy()
    for j in range(k):
        L[:, k, j] = resid[:, j] * inv[:, j]
        resid[:, j + 1 :] -= L[:, k, j, None] * L[:, j + 1 :, j]
    pivot = resid[:, k]
    L[:, k, k] = np.sqrt(np.where(pivot > PIVOT_TOL * np.maximum(g[:, k], 1.0), pivot, 0.0))


def _cholesky(G: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of batched Gram matrices (B, r, r), row by row.

    Only the lower triangle of G is read.  The factor is the triangular
    form of the vectors: row i's first i coordinates are its projection
    onto the span of vectors 0..i-1.
    """
    L = np.zeros(G.shape)
    for i in range(G.shape[1]):
        _factor_row(L[:, : i + 1, : i + 1], G[:, i, : i + 1])
    return L


def bartlett_prefix_norms(M: np.ndarray, out=None, squares=None) -> tuple[np.ndarray, np.ndarray]:
    """Norms and prefix projections of triangular rows M, shape (r, r, *batch) with the batch axes last.

    In triangular coordinates the prefix span of rows 0..i-1 is exactly the
    span of the first i coordinate axes (the diagonal entries are positive
    almost surely), so the projection norm of row i is the norm of its
    first i coordinates: no orthogonalization is needed.  It is read from
    the running sum of squares one column before the diagonal, not as
    sqrt(norm^2 - diag^2), which cancels for short projections.

    Only the lower triangle of M is read.  Its squares and their running sums go to squares
    (M's shape; M itself, to overwrite M), and the norms and projections to out = (norms, proj),
    each of shape (r, *batch); both are fresh arrays when not given.  A single matrix, shape
    (r, r), has no batch axes.
    """
    r = len(M)
    sq = np.empty(M.shape) if squares is None else squares
    norms, proj = np.empty((2, r, *M.shape[2:])) if out is None else out
    for k in range(r):  # running sums, left to right, over the rows k.. whose lower triangle holds column k
        np.multiply(M[k:, k], M[k:, k], out=sq[k:, k])
        if k:
            sq[k:, k] += sq[k:, k - 1]
    proj[:1] = 0.0
    for i in range(r):
        np.sqrt(sq[i, i], out=norms[i, ...])
        if i:
            np.sqrt(sq[i, i - 1], out=proj[i, ...])
    return norms, proj


@dataclass(frozen=True)
class PerfectCheck:
    """Outcome of a perfect-sequence test with per-index diagnostics."""

    ok: bool
    first_violation: int | None
    violated_condition: str | None
    norms: np.ndarray
    proj_norms: np.ndarray


def _check_from_norms(norms: np.ndarray, proj: np.ndarray, spec: PerfectSpec) -> PerfectCheck:
    bad = ~spec.admits(norms, proj)
    if not bad.any():
        return PerfectCheck(True, None, None, norms, proj)
    first = int(np.argmax(bad))
    condition = "projection" if spec.admits(norms[first], 0.0) else "norm"  # a zero projection is always admitted
    return PerfectCheck(False, first, condition, norms, proj)


def is_perfect(obj: PointCloud | TriangularSample, spec: PerfectSpec) -> PerfectCheck:
    """Test the norm window and prefix-projection threshold for every index.

    For clouds the prefix span is that of the full preceding subsequence:
    the cloud is brought to triangular form as the Cholesky factor of its
    Gram, and both inputs are read off the triangular coordinates.
    """
    if isinstance(obj, TriangularSample):
        M = obj.M
    else:
        M = _cholesky(_gram_lower(obj.coords)[None])[0]
    return _check_from_norms(*bartlett_prefix_norms(M), spec)


@dataclass(frozen=True)
class Extraction:
    """Kept indices and subsequence produced by the greedy perfect filter."""

    indices: tuple[int, ...]
    subsequence: PointCloud
    check: PerfectCheck


def extract_perfect(cloud: PointCloud, spec: PerfectSpec) -> Extraction:
    """Greedy filter keeping vectors that stay perfect against the kept set.

    Walks the rows in order; a row is kept when its norm lies in the window
    and its projection onto the span of the *already kept* rows (not the
    full prefix) is at most the threshold.  Each candidate is factored as
    the next Cholesky row of the kept rows' Gram, which is the row
    is_perfect computes at that position of the kept subsequence: same Gram
    entries, same factor rows before it, same arithmetic.  So a perfect
    input is kept in full, and the output re-verifies as perfect by
    construction.  The returned check is that re-verification.
    """
    G = _gram_lower(cloud.coords)
    kept: list[int] = []
    L = np.zeros((1, cloud.n, cloud.n))
    for i in range(cloud.n):
        k = len(kept)
        _factor_row(L[:, : k + 1, : k + 1], G[None, i, kept + [i]])
        norms, proj = bartlett_prefix_norms(L[0, : k + 1, : k + 1])
        if spec.admits(norms[k], proj[k]):
            kept.append(i)
    sub = PointCloud(cloud.coords[kept])
    return Extraction(tuple(kept), sub, is_perfect(sub, spec))
