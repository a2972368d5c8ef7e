"""Packed graph invariants and the hex serialization format."""

import numpy as np
import pytest

from gaussian_ramsey.geometry import adjacency, gram, sample_cloud
from gaussian_ramsey.graphs import (
    CapabilityError,
    ColoredGraph,
    capability_check,
    from_blue_matrix,
    graph_from_text,
    graph_to_text,
)
from gaussian_ramsey.sampling import RngStream
from oracles import pack_blue_rows


def test_validation_rejects_asymmetry_and_loops():
    with pytest.raises(ValueError):
        ColoredGraph(2, (0b10, 0b00))
    with pytest.raises(ValueError):
        ColoredGraph(2, (0b01, 0b00))  # self loop at 0
    with pytest.raises(ValueError):
        ColoredGraph(1, (0b10,))  # bit beyond n


def test_red_rows_complement():
    g = from_blue_matrix(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], bool))
    assert g.blue_edge(0, 1)
    red = g.red_rows
    assert red[0] == 0b100 and red[2] == 0b011
    assert g.blue_count() == 1


def test_from_blue_matrix_matches_loop_packer():
    # asymmetric input with a random diagonal: only the upper triangle counts;
    # n up to 130 spans rows of one, two and three 64-bit words
    gen = RngStream(8).generator()
    for n in range(1, 131):
        blue = gen.random((n, n)) < gen.random()
        g = from_blue_matrix(blue)
        assert g.blue_rows == pack_blue_rows(blue), n
        assert g.blue_rows == from_blue_matrix(blue.tolist()).blue_rows


def test_from_blue_matrix_rejects_non_square():
    with pytest.raises(ValueError):
        from_blue_matrix(np.ones((2, 3), bool))
    with pytest.raises(ValueError):
        from_blue_matrix(np.ones(3, bool))


def test_capability_limit():
    capability_check(512)
    with pytest.raises(CapabilityError):
        capability_check(513)


def test_serialization_round_trip_bytes():
    cloud = sample_cloud(10, 64, RngStream(3))
    g = adjacency(gram(cloud), 0.25, 64, {"d": 64, "p": 0.4, "c_p": 0.25, "seed": 3})
    text = graph_to_text(g)
    back = graph_from_text(text)
    assert back == g
    assert graph_to_text(back) == text


def test_serialization_wide_graph_row_width():
    g = ColoredGraph(70, tuple([0] * 70))
    text = graph_to_text(g)
    rows = text.splitlines()[3:]
    assert len(rows) == 70
    assert all(len(r) == 32 for r in rows)  # two 64-bit words in hex
    assert graph_from_text(text) == g


def test_serialization_rejects_garbage():
    with pytest.raises(ValueError):
        graph_from_text("not a graph\n")
    g = ColoredGraph(3, (0, 0, 0))
    truncated = "\n".join(graph_to_text(g).splitlines()[:-1]) + "\n"
    with pytest.raises(ValueError):
        graph_from_text(truncated)


def test_external_graph_without_provenance():
    text = "%gaussian-ramsey-graph v1\nn=2\n--\n0000000000000002\n0000000000000001\n"
    g = graph_from_text(text)
    assert g.blue_edge(0, 1)
    assert g.provenance == {}
    assert graph_to_text(g) == text


def test_relabeled_preserves_structure():
    g = from_blue_matrix(np.array([[0, 1, 1], [1, 0, 0], [1, 0, 0]], bool))
    h = g.relabeled([2, 0, 1])
    assert h.blue_edge(2, 0) and h.blue_edge(2, 1) and not h.blue_edge(0, 1)
    assert h.blue_count() == g.blue_count()


def _k4_text() -> str:
    # complete blue K_4: rows 0xe, 0xd, 0xb, 0x7
    return graph_to_text(from_blue_matrix(np.ones((4, 4), bool)))


@pytest.mark.parametrize(
    "old,new",
    [
        ("000000000000000e\n", "e\n"),  # short row
        ("000000000000000e\n", "0000000000000000e\n"),  # long row
        ("000000000000000e\n", "000000000000000E\n"),
        ("000000000000000e\n", "000000000000_00e\n"),
        ("000000000000000e\n", "+00000000000000e\n"),
        ("000000000000000e\n", "0x0000000000000e\n"),
        ("000000000000000e\n", " 00000000000000e\n"),
        ("0000000000000007\n", "0000000000000007\n0000000000000000\n"),  # row after row n
        ("0000000000000007\n", "0000000000000007\n \n"),
    ],
)
def test_graph_parsing_is_strict(old, new):
    text = _k4_text()
    assert old in text
    with pytest.raises(ValueError):
        graph_from_text(text.replace(old, new, 1))


def test_graph_parsing_allows_trailing_empty_lines():
    text = _k4_text()
    assert graph_from_text(text + "\n\n") == graph_from_text(text)


@pytest.mark.parametrize(
    "old,new",
    [
        ("n=4\n", "n=0_4\n"),
        ("seed=7\n", "seed=+7\n"),
        ("seed=7\n", "seed=7\nseed=8\n"),  # repeated key
        ("p=0.5\n", "p=.5\n"),
        ("d=16\n", "d=016\n"),
        ("p=0.5\n", "p=5e-1\n"),
    ],
)
def test_header_values_must_reserialize(old, new):
    text = graph_to_text(from_blue_matrix(np.ones((4, 4), bool), {"d": 16, "p": 0.5, "seed": 7}))
    assert graph_to_text(graph_from_text(text)) == text
    assert old in text
    with pytest.raises(ValueError):
        graph_from_text(text.replace(old, new, 1))
