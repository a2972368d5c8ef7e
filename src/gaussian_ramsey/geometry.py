"""Samplers and geometry of the Gaussian random graph model.

Two equivalent ways to draw the vertex vectors:

* a direct cloud of n i.i.d. N(0, I_d/d) rows, and
* a lower-triangular r x r sample whose row i has i-1 independent
  N(0, 1/d) entries followed by a sqrt(chi^2_{d-i+1}/d) diagonal entry.

The triangular form is the direct cloud re-expressed in the orthonormal
basis aligned with the prefix spans, so the two samplers induce the same
joint law of inner products (and hence the same random graph).  The graph
itself connects i ~ j (blue) precisely when <x_i, x_j> >= -c_p/sqrt(d),
inclusive at equality.

A sequence is *perfect* for a given spec when every vector's norm lies in
(1 - delta, 1 + delta) and every prefix-span projection is short; the
canonical spec uses alpha = 100 C log(10/p) and delta = alpha d^{-1/4},
which at moderate dimensions is degenerate (delta >= 1) and is flagged as
such rather than rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gaussian_ramsey.graphs import ColoredGraph, from_blue_matrix
from gaussian_ramsey.sampling import as_generator

#: Orthogonality tolerance of the incremental Gram-Schmidt basis.
ORTHO_TOL = 1e-10


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
    p: float
    C: float

    def __post_init__(self) -> None:
        if self.alpha_proj <= 0.0:
            raise ValueError(f"projection constant must be positive, got {self.alpha_proj}")
        if self.delta <= 0.0:
            raise ValueError(f"norm half-width must be positive, got {self.delta}")
        if self.ell < 1 or self.d < 1:
            raise ValueError("ell and d must be positive")

    @classmethod
    def from_params(cls, C: float, ell: int, d: int, p: float) -> "PerfectSpec":
        """Canonical spec: alpha = 100 C ln(10/p), delta = alpha d^(-1/4)."""
        if not 0.0 < p < 1.0:
            raise ValueError(f"probability must lie in (0, 1), got {p}")
        alpha = 100.0 * C * math.log(10.0 / p)
        return cls(alpha_proj=alpha, delta=alpha * d**-0.25, ell=ell, d=d, p=p, C=C)

    @property
    def degenerate(self) -> bool:
        """True when the norm window's left edge is vacuous (delta >= 1)."""
        return self.delta >= 1.0

    @property
    def projection_threshold(self) -> float:
        return self.alpha_proj * math.sqrt(self.ell) / math.sqrt(self.d)

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


def sample_cloud_batch(batch: int, n: int, d: int, gen) -> np.ndarray:
    """(batch, n, d) independent clouds with coordinate variance 1/d."""
    return gen.standard_normal((batch, n, d)) / math.sqrt(d)


def sample_bartlett_batch(batch: int, r: int, d: int, gen) -> np.ndarray:
    """(batch, r, r) independent triangular samples.

    Consumption order is fixed: all strictly-lower Gaussian entries first
    (row-major), then the r diagonal chi entries.
    """
    if r > d:
        raise ValueError(f"row count {r} exceeds ambient dimension {d}")
    M = np.zeros((batch, r, r))
    il = np.tril_indices(r, -1)
    if len(il[0]):
        M[:, il[0], il[1]] = gen.standard_normal((batch, len(il[0]))) / math.sqrt(d)
    for i in range(r):
        M[:, i, i] = np.sqrt(gen.chisquare(d - i, size=batch) / d)
    return M


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
    return TriangularSample(sample_bartlett_batch(1, r, d, gen)[0], d=d)


# ---------------------------------------------------------------------------
# inner products and adjacency
# ---------------------------------------------------------------------------


def gram_batch(clouds: np.ndarray) -> np.ndarray:
    """Batched inner products; consumers read only the pairs i < j."""
    return clouds @ np.swapaxes(clouds, -1, -2)


def gram(cloud: PointCloud) -> np.ndarray:
    """Pairwise inner products; exactly symmetric (numpy's X @ X.T is a syrk)."""
    return gram_batch(cloud.coords[None])[0]


def gram_from_bartlett(ts: TriangularSample) -> np.ndarray:
    """Pairwise inner products of the triangular rows."""
    return gram_batch(ts.M[None])[0]


def adjacency(gram_matrix: np.ndarray, c_p: float, d: int, provenance: dict | None = None) -> ColoredGraph:
    """Blue edge iff <x_i, x_j> >= -c_p/sqrt(d), inclusive at equality."""
    if c_p < 0.0:
        raise ValueError(f"threshold must be nonnegative, got {c_p}")
    return from_blue_matrix(gram_matrix >= -c_p / math.sqrt(d), provenance)


# ---------------------------------------------------------------------------
# prefix norms and perfect sequences
# ---------------------------------------------------------------------------


class _IncrementalBasis:
    """Batched orthonormal basis grown one vector at a time.

    One classical Gram-Schmidt step plus one reorthogonalization pass per
    extension; residual directions below ORTHO_TOL (relative) are treated
    as linearly dependent and do not extend the basis.  Both is_perfect
    and extract_perfect project through this engine, so the two computations
    agree bit for bit on identical vector sequences (padding with zero
    basis slots does not perturb the sums).
    """

    def __init__(self, B: int, slots: int, d: int) -> None:
        self.basis = np.zeros((B, slots, d))
        self.mask = np.zeros((B, slots), dtype=bool)
        self.rank = np.zeros(B, dtype=np.intp)

    def project(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients against the live basis and projection norms; x is (B, d).

        The squared norm accumulates slot by slot: sequential adds of the
        exact zeros in dead slots keep the value independent of the slot
        count, so engines of different widths agree bit for bit.
        """
        coeff = np.einsum("bkd,bd->bk", self.basis, x) * self.mask
        sq = np.zeros(coeff.shape[0])
        for k in range(coeff.shape[1]):
            sq = sq + coeff[:, k] * coeff[:, k]
        return coeff, np.sqrt(sq)

    def extend(self, x: np.ndarray, coeff: np.ndarray, scale: np.ndarray, keep: np.ndarray) -> None:
        """Add the normalized residual of x for the trials flagged in keep."""
        resid = x - np.einsum("bk,bkd->bd", coeff, self.basis)
        coeff2 = np.einsum("bkd,bd->bk", self.basis, resid) * self.mask
        resid = resid - np.einsum("bk,bkd->bd", coeff2, self.basis)
        rnorm = np.linalg.norm(resid, axis=1)
        ok = keep & (rnorm > ORTHO_TOL * np.maximum(scale, 1.0))
        rows = np.nonzero(ok)[0]
        if not len(rows):
            return
        safe = np.where(rnorm > 0.0, rnorm, 1.0)
        newdir = resid / safe[:, None]
        self.basis[rows, self.rank[rows], :] = newdir[rows]
        self.mask[rows, self.rank[rows]] = True
        self.rank[rows] += 1


def prefix_norms_batch(clouds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-vector norms and prefix-span projection norms, batched.

    For clouds of shape (B, r, d) returns (norms, proj_norms), both
    (B, r), where proj_norms[b, i] is the length of the projection of
    vector i onto the span of vectors 0..i-1 of the same trial.
    """
    B, r, d = clouds.shape
    norms = np.linalg.norm(clouds, axis=2)
    proj = np.zeros((B, r))
    engine = _IncrementalBasis(B, r, d)
    every = np.ones(B, dtype=bool)
    for i in range(r):
        x = clouds[:, i, :]
        coeff, proj[:, i] = engine.project(x)
        if i < r - 1:
            engine.extend(x, coeff, norms[:, i], every)
    return norms, proj


def bartlett_prefix_norms(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Norms and prefix projections of triangular rows, batched or single.

    In triangular coordinates the prefix span of rows 0..i-1 is exactly the
    span of the first i coordinate axes (the diagonal entries are positive
    almost surely), so the projection norm of row i is the norm of its
    first i coordinates: no orthogonalization is needed.
    """
    single = M.ndim == 2
    if single:
        M = M[None]
    sq = np.cumsum(M * M, axis=2)
    r = M.shape[1]
    idx = np.arange(r)
    norms_sq = sq[:, idx, idx]
    diag_sq = M[:, idx, idx] ** 2
    norms = np.sqrt(norms_sq)
    proj = np.sqrt(np.maximum(norms_sq - diag_sq, 0.0))
    if single:
        return norms[0], proj[0]
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
    lo, hi = 1.0 - spec.delta, 1.0 + spec.delta
    thr = spec.projection_threshold
    norm_ok = (norms > lo) & (norms < hi)
    proj_ok = proj <= thr
    bad = ~(norm_ok & proj_ok)
    if not bad.any():
        return PerfectCheck(True, None, None, norms, proj)
    first = int(np.argmax(bad))
    condition = "norm" if not norm_ok[first] else "projection"
    return PerfectCheck(False, first, condition, norms, proj)


def is_perfect(obj: PointCloud | TriangularSample, spec: PerfectSpec) -> PerfectCheck:
    """Test the norm window and prefix-projection threshold for every index.

    For clouds the prefix span is that of the full preceding subsequence;
    for triangular samples the projection norm is read off the coordinates
    directly.
    """
    if isinstance(obj, TriangularSample):
        norms, proj = bartlett_prefix_norms(obj.M)
    else:
        norms, proj = prefix_norms_batch(obj.coords[None])
        norms, proj = norms[0], proj[0]
    return _check_from_norms(norms, proj, spec)


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
    full prefix) is below the threshold.  A perfect input is kept in full,
    and the output always re-verifies as perfect: the filter sees exactly
    the projections that is_perfect recomputes on the kept subsequence
    (same engine, and enlarging a subspace only lengthens projections).
    The returned check is that re-verification.
    """
    X = cloud.coords
    norms = np.linalg.norm(X, axis=1)
    lo, hi = 1.0 - spec.delta, 1.0 + spec.delta
    thr = spec.projection_threshold
    kept: list[int] = []
    engine = _IncrementalBasis(1, cloud.n, cloud.d)
    for i in range(cloud.n):
        x = X[i : i + 1, :]
        coeff, proj = engine.project(x)
        if lo < norms[i] < hi and proj[0] <= thr:
            kept.append(i)
            engine.extend(x, coeff, norms[i : i + 1], np.ones(1, dtype=bool))
    sub = PointCloud(X[kept] if kept else X[:0])
    if kept:
        check = is_perfect(sub, spec)
    else:
        check = PerfectCheck(True, None, None, np.zeros(0), np.zeros(0))
    return Extraction(tuple(kept), sub, check)
