"""Classical Ramsey witness colorings, built here from their definitions.

Every graph is a blue-adjacency row list (bit j of row i set iff ij is
blue), the same layout ColoredGraph uses, built by modular arithmetic
with no call into the package under test.

* Paley(q), q prime and q = 1 (mod 4): i ~ j iff i - j is a nonzero square
  mod q.  It is self-complementary, so its red and blue clique numbers are
  both omega(q), and a Paley coloring at (omega + 1, omega + 1) proves
  R(omega + 1, omega + 1) > q.
* Circulant C_n{S}: i ~ j iff (i - j) mod n or (j - i) mod n lies in S.
  C8{1,4} (the Wagner graph) is triangle-free with independence number 3,
  so as blue it avoids red K4 and blue K3: R(4,3) > 8.  C13{1,5} is
  triangle-free with independence number 4: R(5,3) > 13.

PALEY_OMEGA is the published clique-number table of Paley graphs
(Shearer's table; OEIS A077367).  PALEY_CLIQUES holds one explicit
omega-clique per graph, checked pair by pair in the benchmark's tests, so
the lower half of each table entry is proved here and the upper half is
the literature's; neither comes from the engine being measured.
"""

from __future__ import annotations

#: omega(Paley(q)) for the primes q = 1 (mod 4) the benchmark uses.
PALEY_OMEGA = {
    5: 2,
    17: 3,
    37: 4,
    101: 5,
    109: 6,
    113: 7,
    137: 7,
    149: 7,
}

#: one omega-clique of each Paley graph (vertex labels in Z_q).
PALEY_CLIQUES = {
    5: (0, 1),
    17: (0, 1, 2),
    37: (0, 1, 4, 11),
    101: (0, 1, 5, 6, 22),
    109: (0, 1, 4, 26, 29, 64),
    113: (0, 1, 2, 9, 53, 62, 106),
    137: (0, 1, 2, 9, 16, 17, 18),
    149: (0, 1, 5, 6, 25, 30, 31),
}


def paley_rows(q: int) -> list[int]:
    squares = {(x * x) % q for x in range(1, q)}
    rows = [0] * q
    for i in range(q):
        for j in range(q):
            if i != j and (i - j) % q in squares:
                rows[i] |= 1 << j
    return rows


def circulant_rows(n: int, connection: tuple[int, ...]) -> list[int]:
    dists = {s % n for s in connection} | {-s % n for s in connection}
    rows = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and (j - i) % n in dists:
                rows[i] |= 1 << j
    return rows


def relabel_rows(rows: list[int], perm: list[int]) -> list[int]:
    """The same coloring with vertex i renamed perm[i]."""
    out = [0] * len(rows)
    for i, row in enumerate(rows):
        while row:
            j = (row & -row).bit_length() - 1
            row &= row - 1
            out[perm[i]] |= 1 << perm[j]
    return out


def certificate_cases(paley_big: tuple[int, ...]) -> list[tuple[str, list[int], int, int, bool]]:
    """(name, blue rows, ell, k, expected checked) for the verify corpus.

    Witnesses must verify; the near misses at (omega, omega + 1) contain a
    red omega-clique and must not.
    """
    cases = [
        ("paley5", paley_rows(5), 3, 3, True),
        ("c8_1_4", circulant_rows(8, (1, 4)), 4, 3, True),
        ("c13_1_5", circulant_rows(13, (1, 5)), 5, 3, True),
        ("paley17", paley_rows(17), 4, 4, True),
        ("paley37", paley_rows(37), 5, 5, True),
    ]
    for q in paley_big:
        w = PALEY_OMEGA[q]
        cases.append((f"paley{q}", paley_rows(q), w + 1, w + 1, True))
    for q in (17, 37) + paley_big[:1]:
        w = PALEY_OMEGA[q]
        cases.append((f"paley{q}_near", paley_rows(q), w, w + 1, False))
    return cases
