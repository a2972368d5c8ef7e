"""Bit-packed two-colored complete graphs and their text serialization.

A coloring of K_n is stored as n blue-adjacency bitmask rows (bit j of
row i set iff edge ij is blue); red is the complement off the diagonal.
Rows are Python ints, serialized as fixed-width hex lines (64 vertices
per machine word) under a small key=value header carrying the sampler
provenance (n, d, p, c_p, seed).  The format is stable and byte-exact:
parsing and re-serializing reproduces the file.  Parsing is strict: lines
end in a bare newline and hold no other line break, each row is exactly
its fixed width of lowercase hex digits, only empty lines may follow the
last row, and the header is exactly as it re-serializes: unique keys, in
serialization order, with canonical values.  Writing is as strict:
provenance that would not parse back as given is refused.

Building, validating, relabeling, parsing and writing a graph run in pure
Python, so the certificate side of the package (cliques, and the CLI's
verify) never loads numpy.  Only the batch packers (_pack_table,
_pack_words, from_blue_matrix), which the samplers and the witness search
call, import it, inside the function.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field

WORD_BITS = 64

#: Exact-search capability limit, in 64-bit words per adjacency row.
MAX_WORDS = 8

_MAGIC = "%gaussian-ramsey-graph v1"
_HEADER_END = "--"
#: Provenance keys serialized (in this order) when present.
_PROVENANCE_KEYS = ("d", "p", "c_p", "seed", "ell", "k", "attempt", "sampler")
#: Typed header keys; any other value is kept as text.
_HEADER_TYPES = dict.fromkeys(("n", "d", "seed", "ell", "k", "attempt"), int) | {"p": float, "c_p": float}


class CapabilityError(Exception):
    """The requested graph exceeds the exact engine's word budget."""


def capability_check(n: int) -> None:
    if n > MAX_WORDS * WORD_BITS:
        raise CapabilityError(
            f"graph on {n} vertices exceeds the exact-engine budget of "
            f"{MAX_WORDS} words ({MAX_WORDS * WORD_BITS} vertices)"
        )


def _words_for(n: int) -> int:
    return max(1, (n + WORD_BITS - 1) // WORD_BITS)


@dataclass(frozen=True)
class ColoredGraph:
    """Symmetric red/blue coloring of K_n; blue rows as bitmasks."""

    n: int
    blue_rows: tuple[int, ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"vertex count must be positive, got {self.n}")
        object.__setattr__(self, "blue_rows", tuple(int(r) for r in self.blue_rows))
        if len(self.blue_rows) != self.n:
            raise ValueError(f"expected {self.n} adjacency rows, got {len(self.blue_rows)}")
        n = self.n
        full = (1 << n) - 1
        for i, row in enumerate(self.blue_rows):
            if row & ~full:
                raise ValueError(f"row {i} has bits beyond vertex {n - 1}")
            if row >> i & 1:
                raise ValueError(f"self-loop at vertex {i}")
        # n * n bits, the last row first and each row's highest bit first: the matrix with vertex v renamed
        # n - 1 - v, symmetric iff this one is, and so iff it equals its transpose, read as its columns in order
        rows, spec = self.blue_rows, f"0{n}b"
        bits = "".join([format(row, spec) for row in reversed(rows)])
        if bits != "".join([bits[j::n] for j in range(n)]):
            # the error names the first asymmetric pair in row-major order, so it scans for it
            i, j = next((i, j) for i in range(n) for j in range(i + 1, n) if (rows[i] >> j ^ rows[j] >> i) & 1)
            raise ValueError(f"adjacency not symmetric at pair ({i}, {j})")

    @functools.cached_property
    def red_rows(self) -> tuple[int, ...]:
        full = (1 << self.n) - 1
        return tuple((full ^ row ^ (1 << i)) & full for i, row in enumerate(self.blue_rows))

    def blue_edge(self, i: int, j: int) -> bool:
        return bool(self.blue_rows[i] >> j & 1)

    def blue_count(self) -> int:
        return sum(row.bit_count() for row in self.blue_rows) // 2

    def relabeled(self, perm: list[int]) -> "ColoredGraph":
        """The same coloring with vertex i renamed perm[i]."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError(f"not a permutation of 0..{self.n - 1}: {list(perm)}")
        perm, rows = [int(v) for v in perm], [0] * self.n
        for i, row in enumerate(self.blue_rows):
            rows[perm[i]] = sum(1 << perm[j] for j in range(self.n) if row >> j & 1)
        return ColoredGraph(self.n, tuple(rows), dict(self.provenance))


def _size_table(build):
    """build(n), kept for the last 8 sizes n within the exact engine's capability (MAX_WORDS * WORD_BITS
    vertices) and built afresh beyond it, so the kept tables hold at most 8 of about 2 MB each.

    A kept table is read-only, since every caller shares it.
    """

    @functools.lru_cache(maxsize=8)
    def kept(n):
        table = build(n)
        for array in table if isinstance(table, tuple) else (table,):
            array.flags.writeable = False
        return table

    return lambda n: kept(n) if n <= MAX_WORDS * WORD_BITS else build(n)


@_size_table
def _pack_table(n: int) -> tuple:
    """np.triu_indices(n, 1), and the words of the full row and of each row's diagonal bit."""
    import numpy as np

    width = _words_for(n) * WORD_BITS
    full = np.packbits(np.arange(width) < n, bitorder="little").view("<u8")
    diag = np.packbits(np.eye(n, width, dtype=bool), axis=-1, bitorder="little").view("<u8")
    return *np.triu_indices(n, 1), full, diag


def _pack_words(n: int, pairs, bits=None) -> tuple:
    """Blue and red rows of batch-last pair masks, (C(n,2), count) over i < j, as uint64 words (count, n, words).

    Each mask is scattered to both triangles of rows padded to whole 64-bit
    words and packed in one pass; red is the complement off the diagonal,
    taken on the same words.  Word j of a row holds vertices 64j to 64j + 63.
    The rows are spread in bits, a bool scratch (count, n, 64 * words), fresh
    when none is given and cleared by one fill whatever it holds, so the
    diagonal and the padding columns, which the scatter never writes, are 0.
    The indices and words that depend on n alone come from a kept table
    (_pack_table).
    """
    import numpy as np

    i, j, full, diag = _pack_table(n)
    bits = np.empty((pairs.shape[1], n, _words_for(n) * WORD_BITS), bool) if bits is None else bits
    bits.fill(False)
    bits[:, i, j] = pairs.T
    bits[:, j, i] = pairs.T
    blue = np.packbits(bits, axis=-1, bitorder="little").view("<u8")
    return blue, (~blue & full) ^ diag


def _row_tuples(words, n: int) -> list[tuple[int, ...]]:
    """One tuple of n row ints per matrix of words, (count, n, words per row).

    A row of one word is its int as is; wider rows join their words, lowest first.
    """
    flat = words.reshape(-1, words.shape[-1])
    rows = flat[:, 0].tolist()
    for j in range(1, flat.shape[1]):
        rows = [low | high << (j * WORD_BITS) for low, high in zip(rows, flat[:, j].tolist())]
    return [tuple(rows[t * n : (t + 1) * n]) for t in range(len(words))]


def from_blue_matrix(blue, provenance: dict | None = None) -> ColoredGraph:
    """Build a graph from a boolean n x n matrix; only the upper triangle is read."""
    import numpy as np

    blue = np.asarray(blue, dtype=bool)
    if blue.ndim != 2 or blue.shape[0] != blue.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {blue.shape}")
    n = len(blue)
    return ColoredGraph(n, _row_tuples(_pack_words(n, blue[np.triu_indices(n, 1)][:, None])[0], n)[0], provenance or {})


def _format_value(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _header_lines(n: int, provenance: dict) -> list[str]:
    """n, then the provenance in _PROVENANCE_KEYS order, then the other keys sorted."""
    keys = [key for key in _PROVENANCE_KEYS if key in provenance]
    keys += sorted(key for key in provenance if key not in _PROVENANCE_KEYS)
    return [f"n={n}"] + [f"{key}={_format_value(provenance[key])}" for key in keys]


def _parse_header(lines: list[str]) -> tuple[int, dict]:
    """n and the provenance from the header lines, which must be exactly what _header_lines writes."""
    header: dict = {}
    for line in lines:
        key, sep, raw = line.partition("=")
        if not sep or line.splitlines() != [line]:  # no line break of any kind in a header line
            raise ValueError(f"malformed header line {line!r}")
        header[key] = _HEADER_TYPES.get(key, str)(raw)
    if "n" not in header:
        raise ValueError("header missing vertex count n")
    n = header.pop("n")
    written = _header_lines(n, header)
    if lines != written:  # one check for unique keys, their order and canonical values
        raise ValueError(f"header {lines} does not re-serialize as written: {written}")
    return n, header


def graph_to_text(g: ColoredGraph, magic: str = _MAGIC) -> str:
    """Serialize: magic line, key=value header, '--', one hex row per vertex.

    Raises ValueError, naming the key, for a provenance entry that would not parse back as given.
    """
    for key, value in g.provenance.items():
        try:
            if _parse_header("\n".join(_header_lines(g.n, {key: value})).split("\n")) == (g.n, {key: value}):
                continue
        except ValueError:
            pass
        raise ValueError(f"provenance {key!r}={value!r} does not parse back from a graph header")
    width = _words_for(g.n) * (WORD_BITS // 4)
    lines = [magic, *_header_lines(g.n, g.provenance), _HEADER_END]
    lines.extend(format(row, f"0{width}x") for row in g.blue_rows)
    return "\n".join(lines) + "\n"


def graph_from_text(text: str, magic: str = _MAGIC) -> ColoredGraph:
    lines = text.split("\n")
    if lines[0] != magic:
        raise ValueError(f"not a serialized graph (expected magic line {magic!r})")
    if _HEADER_END not in lines:
        raise ValueError("missing header terminator")
    idx = lines.index(_HEADER_END)
    n, header = _parse_header(lines[1:idx])
    if n < 1:
        raise ValueError(f"vertex count must be positive, got {n}")
    body = lines[idx + 1 :]
    if len(body) < n:
        raise ValueError(f"expected {n} adjacency rows, found {len(body)}")
    if any(body[n:]):
        raise ValueError(f"unexpected content after the {n} adjacency rows")
    width = _words_for(n) * (WORD_BITS // 4)
    hex_row = re.compile(f"[0-9a-f]{{{width}}}")
    for i, line in enumerate(body[:n]):
        if not hex_row.fullmatch(line):
            raise ValueError(f"row {i} is not {width} lowercase hex digits: {line!r}")
    return ColoredGraph(n, tuple(int(line, 16) for line in body[:n]), header)
