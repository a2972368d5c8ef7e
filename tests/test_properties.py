"""Property tests: the clique engine against brute force, under relabeling and
against the first engine on mirrored labels node for node, every node entered
with the candidates it needs, the batch dive's greedy walks, the witness search
against its attempt-by-attempt definition, adjacency thresholding against a
per-pair loop, the graph symmetry check against a numpy one, and text round-trips.

Examples are derandomized and no example database is kept, so every run
checks the same graphs.
"""

import math
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussian_ramsey import cliques
from gaussian_ramsey.cliques import (
    WitnessCertificate,
    _dive_batch,
    certificate_from_text,
    certificate_to_text,
    find_mono_clique,
    search_witness,
)
from gaussian_ramsey.geometry import adjacency
from gaussian_ramsey.graphs import ColoredGraph, from_blue_matrix, graph_from_text, graph_to_text
from gaussian_ramsey.sampling import RngStream
from oracles import numpy_symmetry_error, pack_blue_rows, reference_clique_search, reference_search, relabel_rows

_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=200)


@st.composite
def graphs(draw, max_n: int) -> ColoredGraph:
    n = draw(st.integers(1, max_n))
    data = draw(st.binary(min_size=(n * n + 7) // 8, max_size=(n * n + 7) // 8))
    bits = np.unpackbits(np.frombuffer(data, np.uint8), count=n * n)
    return from_blue_matrix(bits.reshape(n, n).astype(bool))


# any text: "=", line separators such as "\n", "\r", "\x85" and "\u2028", and the empty string
_text = st.text()
_provenance = st.fixed_dictionaries(
    {},
    optional={
        "d": st.integers(1, 10**6),
        "p": st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        "c_p": st.floats(0.0, 10.0),
        "seed": st.integers(0, 2**64),
        "attempt": st.integers(0, 10**6),
        "sampler": st.sampled_from(["binomial", "geometric"]),
        "source": _text,
        "zeta": _text,
    },
)
#: entries under any key, typed header keys and "n" included, with values of any type
_extra = st.dictionaries(
    st.one_of(st.sampled_from(["n", "d", "p", "seed", "sampler"]), _text),
    st.one_of(_text, st.integers(), st.floats(), st.booleans()),
    max_size=3,
)


def _brute_force_clique(rows, size: int) -> bool:
    return any(
        all(rows[i] >> j & 1 for i, j in combinations(sub, 2))
        for sub in combinations(range(len(rows)), size)
    )


@_SETTINGS
@given(graphs(max_n=9))
def test_find_mono_clique_matches_brute_force(g):
    for color, rows in (("blue", g.blue_rows), ("red", g.red_rows)):
        for size in range(1, g.n + 1):
            found = find_mono_clique(g, size, color)
            assert (found is not None) == _brute_force_clique(rows, size), (color, size)
            if found is not None:
                assert len(set(found)) == size
                assert all(rows[i] >> j & 1 for i, j in combinations(found, 2))


@_SETTINGS
@given(graphs(max_n=9), st.data())
def test_find_mono_clique_is_relabel_invariant(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    h = g.relabeled(perm)
    back = np.argsort(perm)  # vertex v of h is vertex back[v] of g
    for color, rows in (("blue", g.blue_rows), ("red", g.red_rows)):
        for size in range(1, g.n + 1):
            found = find_mono_clique(h, size, color)
            assert (found is None) == (find_mono_clique(g, size, color) is None), (color, size)
            if found is not None:
                mapped = [int(back[v]) for v in found]
                assert all(rows[i] >> j & 1 for i, j in combinations(mapped, 2))


@_SETTINGS
@given(graphs(max_n=12))
def test_batch_dive_settles_a_matrix_only_if_it_holds_a_clique_of_that_size(g):
    for rows in (g.blue_rows, g.red_rows):
        words = np.array(rows, np.uint64).reshape(1, g.n, 1)
        for size in range(1, g.n + 1):
            if _dive_batch(words, size)[0]:
                assert any(
                    all(rows[i] >> j & 1 for i, j in combinations(sub, 2)) for sub in combinations(range(g.n), size)
                ), size


@st.composite
def graphs_at_densities(draw):
    """(graph, size, color) over one to three words, at densities 0.1, 0.5, 0.9 and drawn ones."""
    n = draw(st.integers(1, 130) | st.sampled_from([64, 65, 128, 129, 130]))
    density = draw(st.sampled_from([0.1, 0.5, 0.9]) | st.floats(0.0, 1.0))
    blue = np.triu(np.random.default_rng(draw(st.integers(0, 2**32))).random((n, n)) < density, 1)
    return from_blue_matrix(blue | blue.T), draw(st.integers(1, min(n, 9))), draw(st.sampled_from(["red", "blue"]))


@_SETTINGS
@given(graphs_at_densities())
def test_the_engine_is_the_first_engine_on_the_mirrored_labels_node_for_node(case):
    # coloring from the highest label down and branching from the lowest up is the lowest-first
    # engine run on the relabeling v -> n - 1 - v: the same verdict, and as many calls of _search
    g, size, color = case
    rows, other = (g.blue_rows, g.red_rows) if color == "blue" else (g.red_rows, g.blue_rows)
    mirror = [g.n - 1 - v for v in range(g.n)]
    expected, nodes = reference_clique_search(relabel_rows(rows, mirror), relabel_rows(other, mirror), size)
    calls = []
    search = cliques._search

    def counted(*args):
        calls.append(None)
        return search(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cliques, "_search", counted)  # the recursion resolves the module name too
        found = find_mono_clique(g, size, color)
    assert (found is None) == (expected is None)
    assert len(calls) == nodes
    if found is not None:
        assert len(set(found)) == size
        assert all(rows[i] >> j & 1 for i, j in combinations(found, 2))


@_SETTINGS
@given(graphs_at_densities())
def test_every_node_is_entered_with_as_many_candidates_as_it_needs(case):
    # a leftover vertex is adjacent to a vertex of each of the need - 1 classes, and class vertices
    # stay candidates, so no node needs a size test before it recurses
    g, size, color = case
    short = []
    search = cliques._search

    def checked(P, need, adj, non_adj):
        if P.bit_count() < need:
            short.append((P.bit_count(), need))
        return search(P, need, adj, non_adj)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cliques, "_search", checked)
        find_mono_clique(g, size, color)
    assert short == []


@st.composite
def searches(draw):
    """search_witness arguments over one to three words; half on small graphs, where witnesses are common."""
    small = draw(st.booleans())
    n = draw(st.integers(1, 12) if small else st.integers(1, 130) | st.sampled_from([64, 65, 128, 129, 130]))
    if draw(st.booleans()):
        sampler, params = "geometric", {"p": draw(st.floats(0.01, 0.5)), "d": draw(st.integers(1, 200))}
    else:
        sampler, params = "binomial", {"p": draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))}
    size = st.sampled_from(range(1, 7))  # uniform: st.integers would favour size 1, which never finds a witness
    return n, draw(size), draw(size), sampler, params, draw(st.integers(1, 30))


@_SETTINGS
@given(searches(), st.integers(0, 2**32))
def test_search_witness_is_the_attempt_by_attempt_search(case, seed):
    # the batch packing, the batch dive and the thread workspace change how attempts are decided, not which one wins
    expected = reference_search(*case, RngStream(seed))
    found = search_witness(*case, RngStream(seed))
    assert (found is None) == (expected is None)
    if found is not None:
        assert certificate_to_text(found) == certificate_to_text(expected)


@st.composite
def grams_with_ties(draw):
    """(gram, c_p, d) with entries at, one ulp either side of, or away from -c_p/sqrt(d)."""
    n = draw(st.integers(1, 70))
    d = draw(st.integers(1, 4096))
    c_p = draw(st.floats(0.0, 6.0))
    t = -c_p / math.sqrt(d)
    kinds = np.frombuffer(draw(st.binary(min_size=n * n, max_size=n * n)), np.uint8).reshape(n, n) % 4
    free = np.random.default_rng(draw(st.integers(0, 2**32))).uniform(-2.0, 2.0, (n, n))
    upper = np.choose(kinds, [free, t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)])
    return np.triu(upper) + np.triu(upper, 1).T, c_p, d


@_SETTINGS
@given(grams_with_ties())
def test_adjacency_matches_the_loop_packer(case):
    gram, c_p, d = case
    assert adjacency(gram, c_p, d).blue_rows == pack_blue_rows(gram >= -c_p / math.sqrt(d))


def _written(write, obj) -> str | None:
    """write(obj), or None when it refuses an entry that would not parse back."""
    try:
        return write(obj)
    except ValueError as exc:
        assert str(exc).startswith("provenance ")
        return None


@_SETTINGS
@given(graphs(max_n=130), _provenance, _extra)
def test_graph_text_round_trip(g, provenance, extra):
    g = ColoredGraph(g.n, g.blue_rows, provenance | extra)
    text = _written(graph_to_text, g)
    if text is None:
        return
    back = graph_from_text(text)
    assert back == g
    assert graph_to_text(back) == text


@_SETTINGS
@given(graphs(max_n=70), _provenance, st.integers(1, 12), st.integers(1, 12), st.booleans())
def test_certificate_text_round_trip(g, provenance, ell, k, checked):
    graph = ColoredGraph(g.n, g.blue_rows, provenance)
    cert = WitnessCertificate(n=g.n, ell=ell, k=k, graph=graph, checked=checked)
    text = _written(certificate_to_text, cert)
    if text is None:
        return
    back = certificate_from_text(text)
    assert (back.n, back.ell, back.k, back.graph, back.checked) == (g.n, ell, k, graph, False)
    assert certificate_to_text(back) == text


@st.composite
def symmetric_rows_and_a_flip(draw):
    """n in 1..200 (rows of one to four words) and the rows of a symmetric coloring, with no entry flipped or one
    off the diagonal: anywhere, or in row or column n - 1 or beside a word boundary, which the positions favor."""
    n = draw(st.integers(1, 200))
    upper = np.triu(RngStream(draw(st.integers(0, 2**32))).generator().random((n, n)) < draw(st.floats(0.0, 1.0)), 1)
    rows = list(pack_blue_rows(upper))
    if n > 1 and draw(st.booleans()):
        edges = [v for v in (0, n - 1, 63, 64, 127, 128, 191, 192) if v < n]
        i = draw(st.one_of(st.integers(0, n - 1), st.sampled_from(edges)))
        j = draw(st.one_of(st.integers(0, n - 1), st.sampled_from(edges)).filter(lambda j: j != i))
        rows[i] ^= 1 << j
    return n, tuple(rows)


@_SETTINGS
@given(symmetric_rows_and_a_flip())
def test_symmetry_check_accepts_and_rejects_as_the_numpy_one(case):
    n, rows = case
    error = numpy_symmetry_error(rows, n)
    if error is None:
        assert ColoredGraph(n, rows).blue_rows == rows
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            ColoredGraph(n, rows)
