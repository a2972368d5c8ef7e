"""Exact clique search, witness verification, and the sampling search."""

import math
import signal
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

import numpy as np
import pytest

from gaussian_ramsey import cliques, estimators
from gaussian_ramsey.cli import parse_config, run
from gaussian_ramsey.cliques import (
    WitnessCertificate,
    _Attempt,
    _dive_batch,
    certificate_from_text,
    certificate_to_text,
    find_mono_clique,
    search_witness,
    verify_witness,
)
from gaussian_ramsey.analytic import solve_cp
from gaussian_ramsey.geometry import _bartlett_rows, adjacency, gram, gram_batch, sample_cloud, sample_cloud_batch
from gaussian_ramsey.graphs import CapabilityError, ColoredGraph, _pack_words, _row_tuples, from_blue_matrix
from gaussian_ramsey.sampling import RngStream
from oracles import _dive, reference_clique_search, relabel_rows


def brute_has_clique(g: ColoredGraph, size: int, color: str) -> bool:
    rows = g.blue_rows if color == "blue" else g.red_rows
    return any(
        all(rows[i] >> j & 1 for i, j in combinations(sub, 2))
        for sub in combinations(range(g.n), size)
    )


def settle_none(words, size):
    """A batch dive that settles no attempt, so every one reaches the per-attempt engine."""
    return np.zeros(len(words), bool)


def complete_blue(n: int) -> ColoredGraph:
    return from_blue_matrix(np.ones((n, n), bool))


def pentagon() -> ColoredGraph:
    blue = np.zeros((5, 5), bool)
    for i in range(5):
        blue[i, (i + 1) % 5] = blue[(i + 1) % 5, i] = True
    return from_blue_matrix(blue)


def test_complete_blue_k5():
    g = complete_blue(5)
    assert find_mono_clique(g, 5, "blue") == (0, 1, 2, 3, 4)
    assert find_mono_clique(g, 2, "red") is None


def test_pentagon_no_mono_triangle():
    g = pentagon()
    # oracle: all 10 triples, by hand
    assert not brute_has_clique(g, 3, "blue")
    assert not brute_has_clique(g, 3, "red")
    assert find_mono_clique(g, 3, "blue") is None
    assert find_mono_clique(g, 3, "red") is None


def test_found_cliques_are_cliques():
    gen = RngStream(50).generator()
    for _ in range(100):
        n = int(gen.integers(3, 13))
        blue = np.triu(gen.random((n, n)) < 0.6, 1)
        g = from_blue_matrix(blue | blue.T)
        for color in ("red", "blue"):
            for size in (2, 3, 4):
                if size > n:
                    continue
                found = find_mono_clique(g, size, color)
                if found is not None:
                    rows = g.blue_rows if color == "blue" else g.red_rows
                    assert len(found) == size
                    assert all(rows[i] >> j & 1 for i, j in combinations(found, 2))


def test_search_matches_bruteforce_on_random_graphs():
    gen = RngStream(51).generator()
    for _ in range(1000):
        n = int(gen.integers(2, 13))
        density = float(gen.random())
        blue = np.triu(gen.random((n, n)) < density, 1)
        g = from_blue_matrix(blue | blue.T)
        for color in ("red", "blue"):
            for size in range(2, min(n, 5) + 1):
                want = brute_has_clique(g, size, color)
                assert (find_mono_clique(g, size, color) is not None) == want, (n, size, color)


def test_a_clique_every_greedy_walk_misses_is_found_by_the_complete_search():
    # the triangle 3-4-5 with a pendant of lower label on each vertex (0-3, 1-4, 2-5): every
    # walk of the batch dive, from a pendant or from the triangle, takes a pendant second and dead-ends there
    blue = np.zeros((6, 6), bool)
    for i, j in ((3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)):
        blue[i, j] = blue[j, i] = True
    g = from_blue_matrix(blue)
    assert _dive_batch(np.array(g.blue_rows, np.uint64).reshape(1, g.n, 1), 3).tolist() == [False]
    assert find_mono_clique(g, 3, "blue") == (3, 4, 5)


def test_size_one_and_domain():
    g = pentagon()
    assert find_mono_clique(g, 1, "red") == (0,)
    with pytest.raises(ValueError):
        find_mono_clique(g, 0, "red")
    with pytest.raises(ValueError):
        find_mono_clique(g, 6, "red")
    with pytest.raises(ValueError):
        find_mono_clique(g, 3, "green")


@pytest.mark.parametrize("looped", ["red", "blue"])
def test_a_row_holding_its_own_vertex_is_refused_not_searched(looped):
    # the search colors with the other color's rows: a vertex in its own row would never leave the candidates
    looped_rows, plain_rows = (0b11, 0b01), (0, 0)  # row 0 holds bit 0
    g = _Attempt(2, plain_rows, looped_rows) if looped == "red" else _Attempt(2, looped_rows, plain_rows)
    asked = "blue" if looped == "red" else "red"

    def hung(signum, frame):
        raise AssertionError("find_mono_clique did not return")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(5)
    try:
        with pytest.raises(ValueError, match="vertex 0 is adjacent to itself"):
            find_mono_clique(g, 2, asked)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_capability_error():
    big = ColoredGraph(513, tuple([0] * 513))
    with pytest.raises(CapabilityError):
        find_mono_clique(big, 3, "blue")
    with pytest.raises(CapabilityError):
        verify_witness(big, 3, 3)


@pytest.mark.parametrize("n", [1, 2, 5, 18, 64, 65, 130, 512])  # rows of one, two, three and eight words
@pytest.mark.parametrize("density", [0.1, 0.5, 0.9])
def test_batch_dive_settles_exactly_the_attempts_a_dive_walk_completes(n, density):
    gen = RngStream(62).generator()
    count = 24 if n < 100 else 4
    pairs = gen.random((n * (n - 1) // 2, count)) < density
    for words in _pack_words(n, pairs):  # blue, then red
        rows = _row_tuples(words, n)
        for size in sorted({*range(1, min(n, 8) + 1), n}):
            want = [_dive((1 << n) - 1, size, rows[t]) is not None for t in range(count)]
            assert _dive_batch(words, size).tolist() == want, (size, want)


def test_deepest_search_at_the_word_cap():
    # a clique as large as the capability limit allows recurses 512 deep,
    # which stays inside Python's default recursion limit
    full = from_blue_matrix(np.ones((512, 512), bool))
    assert find_mono_clique(full, 512, "blue") == tuple(range(512))


def test_verify_pentagon_and_tiny():
    assert verify_witness(pentagon(), 3, 3).checked
    tiny = ColoredGraph(2, (0b10, 0b01))
    assert verify_witness(tiny, 3, 3).checked  # no triple exists at all
    assert not verify_witness(complete_blue(6), 3, 3).checked


def test_verify_relabeling_invariance():
    gen = RngStream(52).generator()
    for _ in range(50):
        n = int(gen.integers(3, 10))
        blue = np.triu(gen.random((n, n)) < 0.5, 1)
        g = from_blue_matrix(blue | blue.T)
        perm = list(gen.permutation(n))
        h = g.relabeled(perm)
        for ell, k in ((3, 3), (3, 4)):
            assert verify_witness(g, ell, k).checked == verify_witness(h, ell, k).checked


def test_search_trivial_single_vertex():
    cert = search_witness(1, 3, 3, "binomial", {"p": 0.5}, 10, RngStream(53))
    assert cert is not None
    assert cert.checked
    assert cert.graph.provenance["attempt"] == 0


def test_search_geometric_k5():
    cert = search_witness(5, 3, 3, "geometric", {"d": 400, "p": 0.5}, 1000, RngStream(101))
    assert cert is not None and cert.checked
    assert not brute_has_clique(cert.graph, 3, "red")
    assert not brute_has_clique(cert.graph, 3, "blue")
    assert 0 <= cert.graph.provenance["attempt"] < 1000


def test_search_exhausts_budget_on_impossible_target():
    # no 2-coloring of K_6 avoids both monochromatic triangles
    assert search_witness(6, 3, 3, "binomial", {"p": 0.5}, 200, RngStream(54)) is None


@pytest.mark.parametrize("p", [1.5, -0.5, float("nan")])
def test_search_rejects_probability_outside_unit_interval(p):
    with pytest.raises(ValueError, match=f"p={p}"):
        search_witness(5, 3, 3, "binomial", {"p": p}, 10, RngStream(58))


def test_search_binomial_accepts_the_unit_interval_ends():
    # p = 1 colors every edge red and p = 0 every edge blue: both hold a triangle
    for p in (0.0, 1.0):
        assert search_witness(5, 3, 3, "binomial", {"p": p}, 10, RngStream(58)) is None


@pytest.mark.parametrize("n", [0, -3])
def test_search_rejects_vertex_count_below_one(n):
    with pytest.raises(ValueError, match=f"vertex count must be positive, got n={n}"):
        search_witness(n, 3, 3, "binomial", {"p": 0.5}, 10, RngStream(58))


@pytest.mark.parametrize("sampler", ["geometric", "binomial"])
def test_search_rejects_clique_sizes_below_one_before_sampling(sampler, monkeypatch):
    import gaussian_ramsey.cliques as cliques
    import gaussian_ramsey.estimators as estimators

    def no_draws(*args):
        raise AssertionError("an attempt was sampled")

    monkeypatch.setattr(estimators, "sample_cloud_batch", no_draws)  # where the search's geometric draw lives
    monkeypatch.setattr(cliques.RngStream, "generator", no_draws)
    for ell, k in ((0, 4), (4, -1)):
        with pytest.raises(ValueError, match=f"clique sizes must be at least 1, got ell={ell}, k={k}"):
            search_witness(130, ell, k, sampler, {"d": 4096, "p": 0.5}, 10**6, RngStream(58))


@pytest.mark.parametrize("n", [5, 18, 64, 65, 130])  # one-, two- and three-word rows
@pytest.mark.parametrize("sampler", ["geometric", "binomial"])
def test_batch_packed_attempts_equal_validated_graphs(sampler, n, monkeypatch):
    # every attempt's rows, packed once per batch without validation, equal
    # from_blue_matrix's on that attempt's matrix, red rows included, when the batch
    # dive settles none of them and each reaches the engine; the returned
    # certificate is a validated graph that recomputes its red rows and records its attempt
    import gaussian_ramsey.cliques as cliques

    attempts, d, p = 4, 8, 0.3
    seen, validated = [], []

    def recording(g, ell, k, verdict=cliques._verdict):
        seen.append(g)  # each attempt's one verdict
        verdict(g, ell, k)
        return len(seen) == attempts  # the last attempt "verifies"

    def validating(g, post_init=ColoredGraph.__post_init__):
        post_init(g)
        validated.append(g)

    monkeypatch.setattr(cliques, "_dive_batch", settle_none)  # every attempt reaches the engine
    monkeypatch.setattr(cliques, "_verdict", recording)
    monkeypatch.setattr(ColoredGraph, "__post_init__", validating)
    stream = RngStream(59)
    cert = search_witness(n, 2, 2, sampler, {"d": d, "p": p}, attempts, stream)
    assert len(validated) == 1 and validated[0] is cert.graph  # only the certificate is a graph, and it is checked
    gen = stream.offset(0).generator()  # attempts fit in the first batch
    if sampler == "geometric" and n <= d:  # the plan's rule: triangular rows, batch-last
        L = np.moveaxis(_bartlett_rows(attempts, n, d, gen), -1, 0)
        blue = L @ L.transpose(0, 2, 1) >= -solve_cp(p) / np.sqrt(d)
    elif sampler == "geometric":
        blue = gram_batch(sample_cloud_batch(attempts, n, d, gen)) >= -solve_cp(p) / np.sqrt(d)
    else:
        iu = np.triu_indices(n, 1)
        blue = np.zeros((attempts, n, n), bool)
        blue[:, iu[0], iu[1]] = gen.random((attempts, len(iu[0]))) >= p
    assert len(seen) == attempts
    for t, g in enumerate(seen):
        expected = from_blue_matrix(blue[t])
        assert (g.n, g.blue_rows, g.red_rows) == (expected.n, expected.blue_rows, expected.red_rows)
    base = {"p": p, "seed": 59, "sampler": sampler} | ({"d": d, "c_p": solve_cp(p)} if sampler == "geometric" else {})
    assert cert.graph.provenance == dict(base, attempt=attempts - 1)
    assert cert.graph.blue_rows == seen[-1].blue_rows and cert.checked
    assert cert.graph.red_rows == seen[-1].red_rows and cert.graph.red_rows is not seen[-1].red_rows  # recomputed
    assert ColoredGraph(cert.n, cert.graph.blue_rows, cert.graph.provenance) == cert.graph


@pytest.mark.parametrize("sampler", ["geometric", "binomial"])
def test_blind_engine_makes_the_search_claim_a_witness(sampler, monkeypatch):
    # every attempt's verdict goes through the batch dive, then find_mono_clique (red, then blue):
    # blinding both certifies the first attempt even where no witness exists (R(4, 4) = 18)
    import gaussian_ramsey.cliques as cliques

    params = {"d": 64, "p": 0.5}
    assert search_witness(18, 4, 4, sampler, params, 3, RngStream(61)) is None
    monkeypatch.setattr(cliques, "_dive_batch", settle_none)
    monkeypatch.setattr(cliques, "find_mono_clique", lambda g, size, color: None)
    cert = search_witness(18, 4, 4, sampler, params, 3, RngStream(61))
    assert cert.checked and cert.graph.provenance["attempt"] == 0


def test_a_miss_and_verify_witness_make_the_same_clique_calls(monkeypatch):
    # a search miss decides as verify_witness does on its rows: find_mono_clique for red, then for blue
    # unless red settles, in that order and with the same answers
    import gaussian_ramsey.cliques as cliques

    misses, calls = [], []

    def verdict_recording(g, ell, k, verdict=cliques._verdict):
        misses.append(g.blue_rows)
        return verdict(g, ell, k)

    def find_recording(g, size, color, find=cliques.find_mono_clique):
        found = find(g, size, color)
        calls.append((g.blue_rows, size, color, found))
        return found

    monkeypatch.setattr(cliques, "_verdict", verdict_recording)
    monkeypatch.setattr(cliques, "find_mono_clique", find_recording)
    search_witness(10, 5, 3, "binomial", {"p": 0.5}, 40, RngStream(62))
    searched, by_search = list(misses), list(calls)
    assert searched and {color for _, _, color, _ in by_search} == {"red", "blue"}
    calls.clear()
    for rows in searched:
        verify_witness(ColoredGraph(10, rows), 5, 3)
    assert calls == by_search


@pytest.mark.parametrize("ell, k", [(6, 3), (3, 6), (6, 6)])  # a clique size above n = 5
@pytest.mark.parametrize("sampler", ["geometric", "binomial"])
def test_clique_sizes_above_n_decide_as_verify_witness_does(sampler, ell, k, monkeypatch):
    # the search's per-attempt verdict keeps verify_witness's size guards: a
    # clique larger than the graph cannot occur, so it never rejects an attempt
    import gaussian_ramsey.cliques as cliques

    n, attempts = 5, 40
    packed, dived = [], []

    def recording(n, pairs, planes=None):
        blue, red = _pack_words(n, pairs, planes)
        packed.extend(_row_tuples(blue, n))
        return blue, red

    def dive_recording(words, size):
        dived.append(size)
        return _dive_batch(words, size)

    monkeypatch.setattr(cliques, "_pack_words", recording)
    monkeypatch.setattr(cliques, "_dive_batch", dive_recording)
    firsts = set()
    for seed in range(6):
        packed.clear()
        cert = search_witness(n, ell, k, sampler, {"d": 8, "p": 0.5}, attempts, RngStream(seed))
        verdicts = [verify_witness(ColoredGraph(n, rows), ell, k).checked for rows in packed]
        first = verdicts.index(True) if True in verdicts else None
        assert (None if cert is None else cert.graph.provenance["attempt"]) == first
        if cert is not None:
            assert cert.checked and cert.graph.blue_rows == packed[first]
        firsts.add(first)
    assert (firsts == {0}) if min(ell, k) > n else (len(firsts) > 1)  # each seed verifies at once only if both are
    assert dived == ([] if ell > n else [ell] * 6)  # one batch a seed, and no batch dive for a red K_6


def _on_a_new_thread(call):
    """call() on a thread of its own, whose search workspace starts empty."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(call).result(timeout=120)


def _search_argv(n, sampler, attempts):
    """No attempt verifies at n = 18 = R(4, 4) or n = 25 < R(4, 5): every attempt is drawn, 256 a batch."""
    sampler = "geometric --d 64" if sampler == "geometric" else sampler
    return f"search --n {n} --ell 4 --k {4 if n == 18 else 5} --sampler {sampler} --p 0.5 --max-attempts {attempts}"


def _traced(argv):
    """The search's exit status, and the traced bytes it held at its peak and after it returned."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        status = run(parse_config((argv + " --seed 3").split()))[0]
        now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return status, peak - before, now - before


@pytest.mark.parametrize("sampler", ["geometric", "binomial"])
def test_search_memory_is_flat_in_the_attempt_count(sampler):
    # a batch draws into the buffers the last one left, so 100 batches peak where one does
    _on_a_new_thread(lambda: _traced(_search_argv(18, sampler, 256)))  # imports and caches first
    status, one, _ = _on_a_new_thread(lambda: _traced(_search_argv(18, sampler, 256)))
    status_many, many, _ = _on_a_new_thread(lambda: _traced(_search_argv(18, sampler, 25_600)))
    assert status == status_many == 1
    assert many <= one + (1 << 18)


def test_a_search_thread_keeps_one_batch_and_no_more():
    # after a call the thread holds its last batch's arrays (triangular at n <= d: its rows and their normals,
    # which then hold the pair products, 256 attempts of n * n + C(n,2) doubles), and a later call at a smaller
    # n, of either sampler, takes the same buffers
    n, count = 25, cliques.ATTEMPT_BATCH
    bound = 8 * count * (n * n + math.comb(n, 2))

    def calls():
        status, _, kept = _traced(_search_argv(n, "geometric", 300))
        buffers = dict(estimators._THREAD_WORKSPACE._buffers)
        for smaller, sampler in ((25, "binomial"), (18, "geometric"), (18, "binomial")):
            assert _traced(_search_argv(smaller, sampler, 300))[0] == 1
            assert estimators._THREAD_WORKSPACE._buffers.keys() == buffers.keys()
            assert all(estimators._THREAD_WORKSPACE._buffers[name] is buffer for name, buffer in buffers.items())
        return status, kept, sum(buffer.nbytes for buffer in buffers.values())

    _on_a_new_thread(lambda: _traced(_search_argv(n, "geometric", 300)))  # imports and caches first
    status, kept, held = _on_a_new_thread(calls)
    assert status == 1
    assert held <= bound
    assert kept <= bound + (1 << 16)


def test_search_first_hit_wins_deterministically():
    a = search_witness(5, 3, 3, "binomial", {"p": 0.5}, 1000, RngStream(55))
    b = search_witness(5, 3, 3, "binomial", {"p": 0.5}, 1000, RngStream(55))
    assert a == b


def test_certificate_round_trip():
    cert = search_witness(5, 3, 3, "geometric", {"d": 400, "p": 0.5}, 1000, RngStream(101))
    text = certificate_to_text(cert)
    back = certificate_from_text(text)
    assert back.checked is False  # parsing never trusts the claim
    rechecked = verify_witness(back.graph, back.ell, back.k)
    assert rechecked.checked
    again = certificate_to_text(
        WitnessCertificate(back.n, back.ell, back.k, back.graph, rechecked.checked)
    )
    assert again == text


def test_certificate_requires_clique_sizes():
    cert = search_witness(2, 3, 3, "binomial", {"p": 0.5}, 10, RngStream(56))
    text = certificate_to_text(cert).replace("ell=3\n", "")
    with pytest.raises(ValueError):
        certificate_from_text(text)


def test_tampered_certificate_fails_verification():
    g = pentagon()
    cert = WitnessCertificate(5, 3, 3, g, True)
    text = certificate_to_text(cert)
    # flip one edge: make 0-2 blue, closing the blue triangle 0-1-2
    rows = list(g.blue_rows)
    rows[0] |= 1 << 2
    rows[2] |= 1 << 0
    bad = ColoredGraph(5, tuple(rows), g.provenance)
    bad_text = certificate_to_text(WitnessCertificate(5, 3, 3, bad, True))
    assert bad_text != text
    parsed = certificate_from_text(bad_text)
    assert not verify_witness(parsed.graph, 3, 3).checked


# classical critical colorings, built by modular arithmetic (blue edges)


def paley(q: int) -> ColoredGraph:
    """Paley graph on Z_q, q = 1 (mod 4) prime: ij blue iff i - j is a nonzero square."""
    squares = {x * x % q for x in range(1, q)}
    return circulant(q, squares)


def circulant(n: int, distances) -> ColoredGraph:
    """ij blue iff (i - j) mod n or (j - i) mod n lies in distances."""
    blue = np.zeros((n, n), bool)
    for i in range(n):
        for j in range(n):
            blue[i, j] = (i - j) % n in distances or (j - i) % n in distances
    return from_blue_matrix(blue)


def flipped(g: ColoredGraph, i: int, j: int) -> ColoredGraph:
    rows = list(g.blue_rows)
    rows[i] ^= 1 << j
    rows[j] ^= 1 << i
    return ColoredGraph(g.n, tuple(rows))


CRITICAL = {
    "paley5-33": (lambda: paley(5), 3, 3),
    "c13-53": (lambda: circulant(13, {1, 5}), 5, 3),
    "paley17-44": (lambda: paley(17), 4, 4),
}


@pytest.mark.parametrize("name", sorted(CRITICAL))
def test_classical_witness_checked_and_every_flip_breaks_it(name):
    # each is the unique critical coloring for its pair, so any single
    # edge flip must create a monochromatic clique the engine finds
    build, ell, k = CRITICAL[name]
    g = build()
    assert verify_witness(g, ell, k).checked
    for i, j in combinations(range(g.n), 2):
        assert not verify_witness(flipped(g, i, j), ell, k).checked, (i, j)


def test_classical_witness_shapes():
    assert paley(5).blue_count() == 5
    assert paley(17).blue_count() == 68
    c13 = circulant(13, {1, 5})
    assert c13.blue_count() == 26
    assert not brute_has_clique(c13, 3, "blue") and not brute_has_clique(c13, 5, "red")


def test_paley17_has_red_triangle():
    g = paley(17)
    assert not verify_witness(g, 3, 4).checked
    found = find_mono_clique(g, 3, "red")
    assert found is not None and not brute_has_clique(g, 4, "blue")


# Paley graphs at the size of the benchmark's absence proofs: omega from the
# published table (OEIS A077367), with one explicit omega-clique each
PALEY_OMEGA_CLIQUE = {
    101: (0, 1, 5, 6, 22),
    109: (0, 1, 4, 26, 29, 64),
}


@pytest.mark.parametrize("q", sorted(PALEY_OMEGA_CLIQUE))
def test_paley_absence_proofs_under_relabeling(q):
    g = paley(q)
    clique = PALEY_OMEGA_CLIQUE[q]
    omega = len(clique)
    assert all(g.blue_rows[i] >> j & 1 for i, j in combinations(clique, 2))
    gen = RngStream(q).generator()
    for _ in range(3):
        h = g.relabeled(list(gen.permutation(q)))
        assert verify_witness(h, omega + 1, omega + 1).checked
        assert not verify_witness(h, omega, omega + 1).checked
        for color in ("red", "blue"):
            rows = h.blue_rows if color == "blue" else h.red_rows
            found = find_mono_clique(h, omega, color)
            assert found is not None and len(set(found)) == omega, color
            assert all(rows[i] >> j & 1 for i, j in combinations(found, 2)), color


@pytest.mark.parametrize("color", ["red", "blue"])
def test_a_benchmark_sized_absence_proof_searches_the_first_engines_tree(color, monkeypatch):
    # Paley(101) under a seeded relabeling, as witness-verify proves it: no K6 of either color,
    # and one call of _search per node of the lowest-first engine on the mirrored labels
    h = paley(101).relabeled(list(RngStream(101).generator().permutation(101)))
    rows, other = (h.blue_rows, h.red_rows) if color == "blue" else (h.red_rows, h.blue_rows)
    mirror = [100 - v for v in range(101)]
    expected, nodes = reference_clique_search(relabel_rows(rows, mirror), relabel_rows(other, mirror), 6)
    calls = []
    search = cliques._search

    def counted(*args):
        calls.append(None)
        return search(*args)

    monkeypatch.setattr(cliques, "_search", counted)  # the recursion resolves the module name too
    assert find_mono_clique(h, 6, color) is None and expected is None
    assert len(calls) == nodes


def test_verify_skips_the_blue_search_after_a_red_clique(monkeypatch):
    import gaussian_ramsey.cliques as cliques

    calls = []

    def counting(g, size, color):
        calls.append(color)
        return find_mono_clique(g, size, color)

    monkeypatch.setattr(cliques, "find_mono_clique", counting)
    all_red = from_blue_matrix(np.zeros((6, 6), bool))
    assert not verify_witness(all_red, 4, 3).checked
    assert calls == ["red"]
    calls.clear()
    assert verify_witness(pentagon(), 3, 3).checked  # no red triangle: both colors searched
    assert calls == ["red", "blue"]
    with pytest.raises(ValueError):
        verify_witness(all_red, 4, 0)  # a bad size is still an error when red settles the answer


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_a_monochromatic_complete_graph_holds_a_clique_of_size_n(n):
    # ell = n and k = n are the largest sizes the graph can hold, so neither search may be skipped
    all_red, all_blue = from_blue_matrix(np.zeros((n, n), bool)), complete_blue(n)
    assert not verify_witness(all_red, n, n).checked
    assert not verify_witness(all_red, n, n + 1).checked
    assert not verify_witness(all_blue, n, n).checked
    assert not verify_witness(all_blue, n + 1, n).checked
    assert verify_witness(all_red, n + 1, n).checked == (n > 1)  # one vertex is a K_1 of either color
    assert verify_witness(all_blue, n, n + 1).checked == (n > 1)


def _oracle_graphs():
    """Binomial and geometric colorings with n = 20-64, and Paley(q) for q <= 61."""
    gen = RngStream(57).generator()
    for n in (20, 27, 34, 41, 48, 56, 64):
        for p in (0.3, 0.5, 0.7):
            blue = np.triu(gen.random((n, n)) >= p, 1)
            yield pytest.param(from_blue_matrix(blue | blue.T), id=f"binomial-n{n}-p{p}")
        for d, p in ((4, 0.3), (64, 0.5)):
            g = adjacency(gram(sample_cloud(n, d, gen)), solve_cp(p), d)
            yield pytest.param(g, id=f"geometric-n{n}-d{d}-p{p}")
    for q in (5, 13, 17, 29, 37, 41, 53, 61):
        yield pytest.param(paley(q), id=f"paley{q}")


@pytest.mark.parametrize("g", _oracle_graphs())
def test_search_meets_the_networkx_clique_number(g):
    # omega from networkx's maximal-clique enumeration: the engine finds an
    # omega-clique and proves that no (omega + 1)-clique exists, in each color,
    # by the complete branch-and-bound alone: no greedy walk answers first
    nx = pytest.importorskip("networkx")
    for color in ("red", "blue"):
        rows = g.blue_rows if color == "blue" else g.red_rows
        graph = nx.Graph()
        graph.add_nodes_from(range(g.n))
        graph.add_edges_from((i, j) for i in range(g.n) for j in range(i + 1, g.n) if rows[i] >> j & 1)
        omega = max(len(c) for c in nx.find_cliques(graph))
        found = find_mono_clique(g, omega, color)
        assert found is not None and len(set(found)) == omega, (color, omega)
        assert all(rows[i] >> j & 1 for i, j in combinations(found, 2))
        if omega < g.n:
            assert find_mono_clique(g, omega + 1, color) is None, (color, omega)
