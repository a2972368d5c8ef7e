"""Property tests: the clique engine against brute force, and text round-trips.

Examples are derandomized and no example database is kept, so every run
checks the same graphs.
"""

from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gaussian_ramsey.cliques import (
    WitnessCertificate,
    certificate_from_text,
    certificate_to_text,
    find_mono_clique,
)
from gaussian_ramsey.graphs import ColoredGraph, from_blue_matrix, graph_from_text, graph_to_text

_SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=200)


@st.composite
def graphs(draw, max_n: int) -> ColoredGraph:
    n = draw(st.integers(1, max_n))
    data = draw(st.binary(min_size=(n * n + 7) // 8, max_size=(n * n + 7) // 8))
    bits = np.unpackbits(np.frombuffer(data, np.uint8), count=n * n)
    return from_blue_matrix(bits.reshape(n, n).astype(bool))


_text = st.text(st.characters(codec="ascii", categories=("L", "N"), include_characters="_.-"), min_size=1)
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
@given(graphs(max_n=130), _provenance)
def test_graph_text_round_trip(g, provenance):
    g = ColoredGraph(g.n, g.blue_rows, provenance)
    text = graph_to_text(g)
    back = graph_from_text(text)
    assert back == g
    assert graph_to_text(back) == text


@_SETTINGS
@given(graphs(max_n=70), _provenance, st.integers(1, 12), st.integers(1, 12), st.booleans())
def test_certificate_text_round_trip(g, provenance, ell, k, checked):
    graph = ColoredGraph(g.n, g.blue_rows, provenance)
    cert = WitnessCertificate(n=g.n, ell=ell, k=k, graph=graph, checked=checked)
    text = certificate_to_text(cert)
    back = certificate_from_text(text)
    assert (back.n, back.ell, back.k, back.graph, back.checked) == (g.n, ell, k, graph, False)
    assert certificate_to_text(back) == text
