"""Packed graph invariants and the hex serialization format."""

import re

import numpy as np
import pytest

from gaussian_ramsey.geometry import adjacency, gram, sample_cloud
from gaussian_ramsey.graphs import (
    MAX_WORDS,
    WORD_BITS,
    CapabilityError,
    ColoredGraph,
    _pack_table,
    _pack_words,
    capability_check,
    from_blue_matrix,
    graph_from_text,
    graph_to_text,
)
from gaussian_ramsey.sampling import RngStream
from oracles import first_asymmetric_pair, pack_blue_rows, relabel_rows


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
    assert g.red_rows is red  # built once per graph
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


def _pack_words_uncached(n, pairs):
    """_pack_words's blue and red words, every table rebuilt and a zeroed scratch."""
    width = max(1, -(-n // 64)) * 64
    iu = np.triu_indices(n, 1)
    bits = np.zeros((pairs.shape[1], n, width), bool)
    bits[:, iu[0], iu[1]] = pairs.T
    bits[:, iu[1], iu[0]] = pairs.T
    blue = np.packbits(bits, axis=-1, bitorder="little").view("<u8")
    full = np.packbits(np.arange(width) < n, bitorder="little").view("<u8")
    diag = np.packbits(np.eye(n, width, dtype=bool), axis=-1, bitorder="little").view("<u8")
    return blue, (~blue & full) ^ diag


@pytest.mark.parametrize("n", [1, 2, 5, 64, 65, 130, 513])  # one-, two-, three- and nine-word rows
def test_pack_words_matches_an_uncached_pack_over_a_dirty_scratch(n):
    # the kept table and the one fill of the scratch give the words of a pack that builds everything afresh,
    # whatever the scratch held (bytes of 0xFF), on a first and a later call; beyond the capability the
    # table is built afresh, and a kept one is shared, so it is read-only
    count = 7
    pairs = RngStream(n).generator().random((n * (n - 1) // 2, count)) < 0.4
    reference = _pack_words_uncached(n, pairs)
    for _ in range(2):
        scratch = np.full((count, n, max(1, -(-n // 64)) * 64), 0xFF, np.uint8).view(bool)
        for bits in (scratch, None):
            for words, expected in zip(_pack_words(n, pairs, bits), reference):
                assert words.shape == (count, n, max(1, -(-n // 64))) and np.array_equal(words, expected)
    table = _pack_table(n)
    assert (table is _pack_table(n)) == (n <= MAX_WORDS * WORD_BITS)
    assert all(array.flags.writeable == (n > MAX_WORDS * WORD_BITS) for array in table)


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


def _random_graph(gen, n: int) -> ColoredGraph:
    return from_blue_matrix(gen.random((n, n)) < gen.random())


@pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 130])
def test_single_bit_flip_names_the_oracle_pair(n):
    # every off-diagonal bit at n <= 65; a seeded sample at n = 130
    gen = RngStream(60 + n).generator()
    g = _random_graph(gen, n)
    flips = [(a, b) for a in range(n) for b in range(n) if a != b]
    if n > 65:
        flips = [flips[t] for t in gen.choice(len(flips), 600, replace=False)]
    for a, b in flips:
        rows = list(g.blue_rows)
        rows[a] ^= 1 << b
        pair = first_asymmetric_pair(rows)
        assert pair == (min(a, b), max(a, b))
        with pytest.raises(ValueError, match=rf"^adjacency not symmetric at pair \({pair[0]}, {pair[1]}\)$"):
            ColoredGraph(n, tuple(rows))
    for a in range(n):
        rows = list(g.blue_rows)
        rows[a] ^= 1 << a
        with pytest.raises(ValueError, match=f"^self-loop at vertex {a}$"):
            ColoredGraph(n, tuple(rows))


def test_asymmetry_error_names_the_first_pair():
    # rows with many asymmetric pairs: the error names the oracle's first one
    gen = RngStream(59).generator()
    for n in range(2, 131):
        blue = gen.random((n, n)) < gen.random()
        np.fill_diagonal(blue, False)
        rows = tuple(int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little") for row in blue)
        pair = first_asymmetric_pair(rows)
        if pair is None:
            assert ColoredGraph(n, rows).blue_rows == rows
            continue
        with pytest.raises(ValueError, match=rf"^adjacency not symmetric at pair \({pair[0]}, {pair[1]}\)$"):
            ColoredGraph(n, rows)


def test_relabeled_matches_the_oracle_and_inverts():
    gen = RngStream(61).generator()
    for n in range(1, 131):
        g = _random_graph(gen, n)
        perm = [int(v) for v in gen.permutation(n)]
        h = g.relabeled(perm)
        assert h.blue_rows == relabel_rows(g.blue_rows, perm), n
        assert h.relabeled(np.argsort(perm)).blue_rows == g.blue_rows, n


@pytest.mark.parametrize("perm", [[0, 1], [0, 0, 1], [0, 1, 3], [0, 1, 2, 3], [-1, 0, 1]])
def test_relabeled_rejects_non_permutations(perm):
    g = ColoredGraph(3, (2, 1, 0))
    with pytest.raises(ValueError, match="not a permutation"):
        g.relabeled(perm)


def test_header_key_before_n_is_rejected():
    text = "%gaussian-ramsey-graph v1\nseed=7\nn=2\np=0.5\n--\n0000000000000002\n0000000000000001\n"
    with pytest.raises(ValueError, match="does not re-serialize as written"):
        graph_from_text(text)
    reordered = text.replace("seed=7\nn=2\np=0.5", "n=2\np=0.5\nseed=7")
    assert graph_to_text(graph_from_text(reordered)) == reordered


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


@pytest.mark.parametrize("end", ["\r\n", "\x0c", "\x1e"])
def test_graph_parsing_rejects_other_line_ends(end):
    # str.splitlines would read these files, which do not re-serialize to themselves
    with pytest.raises(ValueError):
        graph_from_text(_k4_text().replace("\n", end))


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
        ("n=4\nd=16\n", "d=16\nn=4\n"),  # keys out of serialization order
        ("d=16\np=0.5\n", "p=0.5\nd=16\n"),
        ("seed=7\nalpha=x\n", "alpha=x\nseed=7\n"),
        ("alpha=x\nbeta=y\n", "beta=y\nalpha=x\n"),
        ("alpha=x\n", "alpha=x\x0cy\n"),  # a line break inside a value
    ],
)
def test_header_values_must_reserialize(old, new):
    provenance = {"d": 16, "p": 0.5, "seed": 7, "beta": "y", "alpha": "x"}
    text = graph_to_text(from_blue_matrix(np.ones((4, 4), bool), provenance))
    assert text.splitlines()[1:7] == ["n=4", "d=16", "p=0.5", "seed=7", "alpha=x", "beta=y"]
    assert graph_to_text(graph_from_text(text)) == text
    assert old in text
    with pytest.raises(ValueError):
        graph_from_text(text.replace(old, new, 1))


@pytest.mark.parametrize(
    "key,value",
    [
        ("x=y", "z"),  # would parse back as key x with value y=z
        ("n", 5),
        ("n", 4),  # even the graph's own n is a second n line
        ("d", True),
        ("d", "16"),
        ("seed", 7.5),
        ("source", 3),  # untyped keys parse back as text
        ("source", 0.5),
        ("p", float("nan")),
        *(("source", f"a{sep}b") for sep in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
        ("so\nurce", "a"),
        ("source", "a\n--\n0000000000000000"),
    ],
)
def test_graph_to_text_rejects_provenance_that_does_not_parse_back(key, value):
    g = from_blue_matrix(np.ones((4, 4), bool), {"seed": 7, key: value})
    with pytest.raises(ValueError, match=f"^provenance {re.escape(repr(key))}="):
        graph_to_text(g)


@pytest.mark.parametrize("value", ["", " a b ", "a=b", "--", "%gaussian-ramsey-graph v1", "é\t\x00"])
def test_graph_to_text_writes_any_text_without_line_breaks(value):
    g = from_blue_matrix(np.ones((4, 4), bool), {"seed": 7, "source": value, "": value})
    text = graph_to_text(g)
    assert graph_from_text(text) == g
    assert graph_to_text(graph_from_text(text)) == text
