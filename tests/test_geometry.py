"""Samplers, gram/adjacency, and perfect-sequence machinery."""

import math

import numpy as np
import pytest
from scipy.linalg import orth

from gaussian_ramsey import estimators
from gaussian_ramsey.geometry import (
    PerfectSpec,
    PointCloud,
    TriangularSample,
    _bartlett_rows,
    _cholesky,
    adjacency,
    bartlett_prefix_norms,
    extract_perfect,
    gram,
    gram_batch,
    gram_from_bartlett,
    is_perfect,
    sample_bartlett,
    sample_cloud,
    sample_cloud_batch,
)
from gaussian_ramsey.sampling import RngStream
from oracles import pack_blue_rows

TIGHT = PerfectSpec(alpha_proj=6.0, delta=0.3, ell=4, d=1600)


def _svd_projection_norms(X):
    """Oracle: prefix projections via an SVD orthonormal basis."""
    out = [0.0]
    for i in range(1, X.shape[0]):
        U = orth(X[:i].T)
        out.append(float(np.linalg.norm(U.T @ X[i])))
    return np.array(out)


def test_cloud_row_norms():
    cloud = sample_cloud(10**5, 256, RngStream(1))
    sq = (cloud.coords**2).sum(axis=1)
    se = math.sqrt(2.0 / 256 / 10**5)
    assert abs(sq.mean() - 1.0) <= 4.0 * se


def test_cloud_inner_products():
    clouds = sample_cloud_batch(50000, 2, 64, RngStream(2).generator())
    inner = np.einsum("bd,bd->b", clouds[:, 0, :], clouds[:, 1, :])
    assert abs(inner.mean()) <= 4.0 / math.sqrt(64 * 50000)
    assert inner.var() == pytest.approx(1.0 / 64, rel=0.05)


def test_cloud_norm_concentration_fraction():
    cloud = sample_cloud(20000, 400, RngStream(3))
    norms = np.linalg.norm(cloud.coords, axis=1)
    frac = ((norms > 0.7) & (norms < 1.3)).mean()
    assert frac >= 1.0 - 2.0 * math.exp(-3.6)


def test_gram_orthonormal_rows():
    X = np.eye(4, 16)
    assert np.allclose(gram(PointCloud(X)), np.eye(4))


def test_gram_duplicated_row():
    X = np.vstack([np.ones(8), np.ones(8)]) / math.sqrt(8)
    G = gram(PointCloud(X))
    assert G[0, 1] == G[0, 0] == G[1, 1]


def test_gram_exact_symmetry():
    cloud = sample_cloud(64, 300, RngStream(4))
    G = gram(cloud)
    assert (G == G.T).all()


def test_adjacency_all_zero_gram_complete():
    g = adjacency(np.zeros((6, 6)), 0.3, 100)
    assert g.blue_count() == 15


def test_adjacency_tie_is_edge():
    d, c_p = 100, 0.3
    G = np.zeros((2, 2))
    G[0, 1] = G[1, 0] = -c_p / math.sqrt(d)  # exactly at threshold
    assert adjacency(G, c_p, d).blue_edge(0, 1)
    G[0, 1] = G[1, 0] = -c_p / math.sqrt(d) - 1e-15
    assert not adjacency(G, c_p, d).blue_edge(0, 1)


def test_adjacency_matches_loop_packer_with_ties():
    # entries drawn from a grid that contains the threshold exactly, so ties
    # are common; the asymmetric lower triangle must be ignored
    d, c_p = 64, 0.5
    threshold = -c_p / math.sqrt(d)
    grid = threshold + np.array([-1.0, 0.0, 0.0, 1.0]) / 16.0
    gen = RngStream(9).generator()
    for n in (1, 2, 17, 63, 64, 65, 130):
        G = gen.choice(grid, size=(n, n))
        expected = pack_blue_rows(G >= threshold)
        assert adjacency(G, c_p, d).blue_rows == expected, n


def test_adjacency_half_density_at_zero_threshold():
    # the 10**5 clouds of one whole draw, drawn 1000 at a time into one reused 16 MB buffer
    gen, slab = RngStream(5).generator(), np.empty((1000, 2, 1024))
    hits = 0
    for _ in range(10**5 // len(slab)):
        clouds = sample_cloud_batch(len(slab), 2, 1024, gen, out=slab)
        hits += int((np.einsum("bd,bd->b", clouds[:, 0, :], clouds[:, 1, :]) >= 0.0).sum())
    freq = hits / 10**5
    assert abs(freq - 0.5) <= 4.0 * 0.5 / math.sqrt(10**5)


def test_adjacency_rotation_invariance():
    cloud = sample_cloud(24, 200, RngStream(6))
    gen = RngStream(7).generator()
    Q = np.linalg.qr(gen.standard_normal((200, 200)))[0]
    rotated = PointCloud(cloud.coords @ Q)
    c_p = 0.25
    assert adjacency(gram(cloud), c_p, 200).blue_rows == adjacency(gram(rotated), c_p, 200).blue_rows


def test_bartlett_single_row():
    # r = 1: the entry is sqrt(chi^2_d / d); squared mean 1
    Ms = np.moveaxis(_bartlett_rows(10**5, 1, 64, RngStream(8).generator()), -1, 0)
    sq = Ms[:, 0, 0] ** 2
    assert abs(sq.mean() - 1.0) <= 4.0 * math.sqrt(2.0 / 64 / 10**5)


def test_bartlett_diagonal_means():
    d = 32
    Ms = np.moveaxis(_bartlett_rows(50000, 5, d, RngStream(9).generator()), -1, 0)
    for i in range(5):
        expect = (d - i) / d  # 1-based row i+1 has chi^2_{d-i} mass
        sq = Ms[:, i, i] ** 2
        se = math.sqrt(2.0 * (d - i)) / d / math.sqrt(50000)
        assert abs(sq.mean() - expect) <= 4.0 * se


def test_bartlett_offdiag_variance():
    d = 49
    Ms = np.moveaxis(_bartlett_rows(50000, 4, d, RngStream(10).generator()), -1, 0)
    il = np.tril_indices(4, -1)
    vals = Ms[:, il[0], il[1]].ravel()
    assert abs(vals.mean()) <= 4.0 / math.sqrt(d * vals.size)
    assert vals.var() == pytest.approx(1.0 / d, rel=0.05)


def test_bartlett_strict_upper_zero_and_domain():
    ts = sample_bartlett(6, 32, RngStream(11))
    assert (np.triu(ts.M, 1) == 0.0).all()
    with pytest.raises(ValueError):
        sample_bartlett(10, 9, RngStream(1))


def test_gram_from_bartlett_identity():
    ts = TriangularSample(np.eye(5), d=100)
    assert np.array_equal(gram_from_bartlett(ts), np.eye(5))


def test_gram_from_bartlett_two_rows():
    M = np.array([[0.9, 0.0], [0.3, 1.1]])
    G = gram_from_bartlett(TriangularSample(M, d=16))
    assert G[0, 1] == pytest.approx(0.3 * 0.9, abs=1e-15)
    assert G[0, 1] == G[1, 0]


def test_prefix_norms_against_svd_oracle():
    gen = RngStream(12).generator()
    X = gen.standard_normal((10, 40)) / math.sqrt(40)
    norms, proj = bartlett_prefix_norms(_cholesky(gram_batch(X[None]))[0])
    assert np.allclose(norms, np.linalg.norm(X, axis=1), atol=1e-12)
    assert np.allclose(proj, _svd_projection_norms(X), atol=1e-8)


def test_bartlett_prefix_norms_match_cloud_path():
    # triangular rows are vectors too: coordinate shortcut == generic GS
    ts = sample_bartlett(8, 64, RngStream(13))
    norms_fast, proj_fast = bartlett_prefix_norms(ts.M)
    norms_gen, proj_gen = bartlett_prefix_norms(_cholesky(gram_batch(ts.M[None]))[0])
    assert np.allclose(norms_fast, norms_gen, atol=1e-12)
    assert np.allclose(proj_fast, proj_gen, atol=1e-10)


def test_short_projection_does_not_cancel():
    # sqrt(norm^2 - diag^2) reads 0 here; the running sum before the diagonal reads 1e-9
    M = np.array([[1.0, 0.0], [1e-9, 1.0]])
    batched = bartlett_prefix_norms(np.moveaxis(_cholesky(gram_batch(M[None])), 0, -1))  # batch-last
    for norms, proj in (bartlett_prefix_norms(M), (a[:, 0] for a in batched)):
        assert proj[0] == 0.0
        assert proj[1] == pytest.approx(1e-9, rel=1e-15, abs=0.0)
        assert norms == pytest.approx([1.0, 1.0], rel=1e-15)


def test_repeated_row_is_dependent():
    gen = RngStream(18).generator()
    a, b, c = gen.standard_normal((3, 64)) / 8.0
    X = np.array([a, b, a, c])
    spec = PerfectSpec(alpha_proj=3.0, delta=0.5, ell=1, d=64)
    check = is_perfect(PointCloud(X), spec)
    _, batch_proj = bartlett_prefix_norms(np.moveaxis(_cholesky(gram_batch(X[None])), 0, -1))  # batch-last
    assert check.proj_norms[2] == check.norms[2]  # the repeat adds no direction
    assert np.allclose([check.proj_norms[3], batch_proj[3, 0]], _svd_projection_norms(X)[3], atol=1e-8)
    ext = extract_perfect(PointCloud(X), spec)
    assert ext.indices == (0, 1, 3)
    assert ext.check.ok


def test_perfect_spec_canonical():
    spec = PerfectSpec.from_params(2.0, 4, 1600, 0.38)
    assert spec.alpha_proj == pytest.approx(200.0 * math.log(10.0 / 0.38), rel=1e-12)
    assert spec.delta == pytest.approx(spec.alpha_proj / math.sqrt(40.0), rel=1e-12)
    assert spec.degenerate  # desk-scale d makes the canonical window vacuous
    assert TIGHT.degenerate is False
    assert TIGHT.diagonal_window_applies


def test_is_perfect_identity_matrix():
    ts = TriangularSample(np.eye(8), d=1600)
    check = is_perfect(ts, TIGHT)
    assert check.ok
    assert check.first_violation is None


def test_is_perfect_norm_violation():
    M = np.eye(8)
    M[3, 3] = 3.0
    check = is_perfect(TriangularSample(M, d=1600), TIGHT)
    assert not check.ok
    assert check.first_violation == 3
    assert check.violated_condition == "norm"


def test_is_perfect_projection_violation():
    M = np.eye(4)
    M[2, 0] = 0.5  # long shadow on the prefix span
    M[2, 2] = math.sqrt(1.0 - 0.25)  # keep the norm at 1
    spec = PerfectSpec(alpha_proj=6.0, delta=0.3, ell=4, d=1600)
    check = is_perfect(TriangularSample(M, d=1600), spec)
    assert not check.ok
    assert check.first_violation == 2
    assert check.violated_condition == "projection"


def test_window_edges(monkeypatch):
    # exact floats: threshold = 1 * sqrt(4) / sqrt(16) = 0.5; the norm window
    # (0.75, 1.25) is open and the projection bound 0.5 inclusive
    spec = PerfectSpec(alpha_proj=1.0, delta=0.25, ell=4, d=16)
    assert spec.projection_threshold == 0.5
    at_threshold = np.array([[1.0, 0.0], [0.5, 0.75]])  # norms 1 and sqrt(0.8125), projection 0.5
    high, low = np.diag([1.25, 1.0]), np.diag([0.75, 1.0])
    assert bartlett_prefix_norms(at_threshold)[1][1] == 0.5
    assert is_perfect(TriangularSample(at_threshold, d=16), spec).ok
    for M in (high, low):
        check = is_perfect(TriangularSample(M, d=16), spec)
        assert not check.ok and check.first_violation == 0 and check.violated_condition == "norm"

    coords = np.zeros((4, 16))
    coords[:, 0] = [1.25, 0.75, 1.0, 0.5]
    coords[3, 1] = 0.75
    ext = extract_perfect(PointCloud(coords), spec)
    assert ext.indices == (2, 3)  # both norm edges dropped, the projection at the threshold kept
    assert ext.check.ok and ext.check.proj_norms[1] == 0.5

    batch = np.stack([at_threshold, high, low])
    monkeypatch.setattr(estimators, "_bartlett_rows", lambda *args, **kwargs: np.moveaxis(batch, 0, -1))  # batch-last
    _, perfect = estimators._pair_batch(None, 3, 2, 16, 0.0, "bartlett", spec)
    assert perfect.tolist() == [True, False, False]


def test_diagonal_window_implication():
    # perfect (tight spec with the window hypothesis) forces the diagonal
    # into (1 - 2 delta, 1 + delta) on every trial, deterministically
    lo, hi = TIGHT.diagonal_window
    Ms = np.moveaxis(_bartlett_rows(2000, 8, 1600, RngStream(14).generator()), -1, 0)
    checked = 0
    for t in range(2000):
        ts = TriangularSample(Ms[t], d=1600)
        if is_perfect(ts, TIGHT).ok:
            checked += 1
            diag = np.diag(Ms[t])
            assert ((diag > lo) & (diag < hi)).all()
    assert checked > 1000  # the spec is tight but not starving


def test_extract_keeps_perfect_input():
    perfect_seen = 0
    for seed in range(20):
        ts = sample_bartlett(8, 1600, RngStream(15, seed))
        # cloud view of the same rows (padded to the full dimension)
        X = np.zeros((8, 1600))
        X[:, :8] = ts.M
        cloud = PointCloud(X)
        if is_perfect(cloud, TIGHT).ok:
            perfect_seen += 1
            ext = extract_perfect(cloud, TIGHT)
            assert ext.indices == tuple(range(8))
    assert perfect_seen >= 5


def test_extract_drops_bad_vector_keeps_rest():
    X = np.zeros((6, 100))
    for i in range(6):
        X[i, i] = 1.0
    X[3, 3] = 3.0  # norm violation
    spec = PerfectSpec(alpha_proj=5.0, delta=0.2, ell=4, d=100)
    ext = extract_perfect(PointCloud(X), spec)
    assert ext.indices == (0, 1, 2, 4, 5)
    assert ext.check.ok


def test_extract_output_reverifies_on_random_clouds():
    spec = PerfectSpec(alpha_proj=1.2, delta=0.08, ell=2, d=64)
    clouds = sample_cloud_batch(300, 10, 64, RngStream(16).generator())
    dropped_any = 0
    for t in range(300):
        ext = extract_perfect(PointCloud(clouds[t]), spec)
        assert ext.check.ok
        if len(ext.indices) < 10:
            dropped_any += 1
    assert dropped_any > 50  # the spec is tight enough to actually filter


def test_extract_filter_sees_the_bits_is_perfect_recomputes():
    # the threshold is is_perfect's projection of the last kept row, so the
    # filter keeps that row only when it computes the very same bits
    gen = RngStream(19).generator()
    kept = (0, 1, 3, 4, 5)
    for _ in range(20):
        X = gen.standard_normal((6, 64)) / 8.0
        X[2] *= 3.0  # dropped on its norm: the kept span is not the prefix span
        X[5] = 0.5 * X[0] + 0.5 * X[3] + 0.3 * X[5]  # the longest projection
        probe = PerfectSpec(alpha_proj=1.0, delta=0.9, ell=1, d=1)
        thr = is_perfect(PointCloud(X[list(kept)]), probe).proj_norms[-1]
        spec = PerfectSpec(alpha_proj=thr, delta=0.9, ell=1, d=1)
        assert spec.projection_threshold == thr
        ext = extract_perfect(PointCloud(X), spec)
        assert ext.indices == kept
        assert ext.check.ok


def test_projection_monotone_in_subspace():
    # projection onto the full prefix is at least the kept-subset projection
    spec = PerfectSpec(alpha_proj=1.2, delta=0.08, ell=2, d=64)
    clouds = sample_cloud_batch(100, 10, 64, RngStream(17).generator())
    for t in range(100):
        X = clouds[t]
        _, full_proj = bartlett_prefix_norms(_cholesky(gram_batch(X[None]))[0])
        ext = extract_perfect(PointCloud(X), spec)
        if len(ext.indices) == 10:
            continue
        _, kept_proj = bartlett_prefix_norms(_cholesky(gram_batch(ext.subsequence.coords[None]))[0])
        for pos, orig in enumerate(ext.indices):
            assert kept_proj[pos] <= full_proj[orig] + 1e-9


def test_extract_empty_input():
    spec = PerfectSpec(alpha_proj=1.0, delta=0.5, ell=2, d=16)
    X = np.zeros((3, 16))  # zero vectors: norm outside window, all dropped
    ext = extract_perfect(PointCloud(X), spec)
    assert ext.indices == ()
    assert ext.check.ok


def _canonical_failure_bound(spec: PerfectSpec, C: float, p: float) -> float:
    """Per-index failure bound, norm tail plus projection tail, of PerfectSpec.from_params(C, spec.ell, spec.d, p)."""
    norm_tail = 2.0 * math.exp(-spec.delta**2 * spec.d / 10.0)
    log_proj = 10.0 * C * spec.ell * math.log(p / 10.0)
    return norm_tail + (math.exp(log_proj) if log_proj > -700 else 0.0)


def test_canonical_spec_perfect_fraction_bound():
    # r=8, ell=4, D=10 (d=1600), p=0.38: fraction of perfect triangular
    # samples is at least 1 - 8 * (norm tail + projection tail); at this
    # scale the canonical window is degenerate, so the fraction is 1
    spec = PerfectSpec.from_params(2.0, 4, 1600, 0.38)
    norms, proj = bartlett_prefix_norms(_bartlett_rows(10**4, 8, 1600, RngStream(30).generator()))
    perfect = (
        (norms > 1.0 - spec.delta)
        & (norms < 1.0 + spec.delta)
        & (proj <= spec.projection_threshold)
    ).all(axis=0)
    assert perfect.mean() >= 1.0 - 8.0 * _canonical_failure_bound(spec, 2.0, 0.38)


def test_canonical_spec_extraction_drop_bound():
    # mean number of dropped indices stays under r * per-index bound + MC slack
    spec = PerfectSpec.from_params(2.0, 4, 1600, 0.38)
    clouds = sample_cloud_batch(500, 8, 1600, RngStream(31).generator())
    drops = [8 - len(extract_perfect(PointCloud(clouds[t]), spec).indices) for t in range(500)]
    bound = 8.0 * _canonical_failure_bound(spec, 2.0, 0.38)
    assert np.mean(drops) <= bound + 3.0 * (np.std(drops) / math.sqrt(500) + 1e-12)
