"""Bipartite graphs on n+n labeled vertices, up to independent side relabeling.

A graph is an n×n biadjacency matrix: row vertices on one side, column
vertices on the other, entry (r, c) = 1 iff the edge {r, c} is present.
Two graphs are isomorphic here iff one maps to the other by permuting row
indices and column indices independently; the two sides are distinguished
and never exchanged (mirror images count separately).

The canonical form of a graph is the lexicographically smallest n²-bit
string over its whole orbit, reading the biadjacency matrix row-major.  We
store that string as an integer with the (0,0) cell in the most significant
bit, so string order and integer order coincide.  The code is n rows of n
bits, row 0 first, so for a fixed column order the ascending row order is
the smallest: minimization tries the n! column permutations, each a lookup
table over the 2^n row values, and sorts the mapped rows.

The catalog walks the sorted row tuples in ascending order and marks
orbits.  The first tuple of an orbit the walk meets is its minimum, so an
unmarked tuple is canonical: it maps itself under every column table once
and marks the re-sorted images it did not start from.  Each later tuple
costs one set lookup, and a marked tuple leaves the set when the walk
reaches it.

Per graph we also record two characteristics used by the pair-counting
formula: the degree profile (how many vertices, over both sides, have each
degree 0..n) and the multiset of twin-class sizes, where two vertices are
twins iff they have identical neighborhoods; isolated vertices of one side
form a single twin class, and the two sides never share a class.  Both are
read off the row masks: each row is a row vertex's neighborhood, and the
transposed rows are the column vertices' neighborhoods.  The catalog reads
each class's code, edge count and profile straight off the row tuple it
walks, so it builds no ``Bigraph``.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations_with_replacement, permutations
from math import factorial, prod
from typing import Iterator, NamedTuple

from .sperm import check_cap, check_order

CATALOG_CAP = 5  # n=6 would walk C(69, 6) ~ 1.2e8 sorted row tuples


class _BigraphFields(NamedTuple):
    n: int
    code: int


class Bigraph(_BigraphFields):
    """Biadjacency matrix packed into an integer, MSB-first row-major; the
    side size and the code, an int in 0..2^(n²)−1, are checked on
    construction (``_make`` and ``_replace`` too)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, n: int, code: int) -> Bigraph:
        _check_code(n, code)
        return super().__new__(cls, n, code)

    def bit(self, r: int, c: int) -> int:
        """Entry at 0-based row r, column c."""
        n = self.n
        return (self.code >> (n * n - 1 - (r * n + c))) & 1

    def edges(self) -> list[tuple[int, int]]:
        n = self.n
        return [(r, c) for r in range(n) for c in range(n) if self.bit(r, c)]

    def edge_count(self) -> int:
        return self.code.bit_count()


def _check_code(n: int, code: int) -> None:
    check_order(n)
    if type(code) is not int or not 0 <= code < 1 << n * n:  # bool is refused too
        raise ValueError(f"code must be an int in 0..2^{n * n}-1, got {code!r}")


def from_edges(n: int, edges) -> Bigraph:
    check_order(n)
    code = 0
    for r, c in edges:
        if type(r) is not int or type(c) is not int or not (0 <= r < n and 0 <= c < n):
            raise ValueError(f"edge ({r!r}, {c!r}) is not two ints in 0..{n - 1}")
        code |= 1 << (n * n - 1 - (r * n + c))
    return Bigraph(n, code)


def format_code(n: int, code: int) -> str:
    """Fixed-width hex rendering of an n²-bit code, checked as ``Bigraph`` checks it."""
    _check_code(n, code)
    return format(code, f"0{(n * n + 3) // 4}x")


class GraphProfile(NamedTuple):
    """Degree profile and twin-class sizes of one graph.

    degree_counts[i] = number of vertices (both sides) of degree i, for
    i = 0..n.  twin_class_sizes is the sorted multiset of neighborhood
    equivalence class sizes.
    """

    degree_counts: tuple[int, ...]
    twin_class_sizes: tuple[int, ...]


class CatalogEntry(NamedTuple):
    code: int
    profile: GraphProfile
    orbit_size: int  # labeled graphs in this class; sums to 2^(n²) per catalog


class GraphCatalog(NamedTuple):
    """Isomorphism-class representatives bucketed by edge count k = 0..n²."""

    n: int
    buckets: dict[int, list[CatalogEntry]]

    def sizes(self) -> dict[int, int]:
        return {k: len(v) for k, v in self.buckets.items()}

    def entries(self) -> Iterator[tuple[int, CatalogEntry]]:
        for k in sorted(self.buckets):
            for e in self.buckets[k]:
                yield k, e


def _column_tables(n: int) -> list[list[int]]:
    # one lookup table per column permutation: row value -> permuted row value
    return [
        [sum(1 << (n - 1 - p[c]) for c in range(n) if row >> (n - 1 - c) & 1)
         for row in range(1 << n)]
        for p in permutations(range(n))
    ]


def _code(n: int, rows) -> int:
    code = 0
    for row in rows:
        code = (code << n) | row
    return code


def _rows(g: Bigraph) -> list[int]:
    # row r of the biadjacency matrix as an n-bit mask, column 0 in the top bit
    n = g.n
    return [g.code >> (n * (n - 1 - r)) & ((1 << n) - 1) for r in range(n)]


def canonical_code(g: Bigraph) -> int:
    """Minimum code over every independent relabeling of the two sides."""
    n, rows = g.n, _rows(g)
    return _code(n, min(sorted(map(t.__getitem__, rows)) for t in _column_tables(n)))


def _profile(n: int, rows) -> GraphProfile:
    # Each row mask is a row vertex's neighborhood; the transpose gives the
    # column vertices'.  Only popcounts and equality are read, so the bit
    # order inside a column mask is free.
    cols = [sum(1 << r for r, row in enumerate(rows) if row >> c & 1) for c in range(n)]
    degree_counts = [0] * (n + 1)
    for nb in (*rows, *cols):
        degree_counts[nb.bit_count()] += 1
    # Twin classes are grouped per side: neighborhoods live in the opposite
    # side's index space, so numerically equal masks on different sides must
    # never merge.  Isolated vertices (mask 0) collapse per side as required.
    sizes = [*Counter(rows).values(), *Counter(cols).values()]
    return GraphProfile(tuple(degree_counts), tuple(sorted(sizes)))


def profile(g: Bigraph) -> GraphProfile:
    return _profile(g.n, _rows(g))


def enumerate_catalog(n: int) -> GraphCatalog:
    """Build the full catalog of isomorphism classes for side size n.

    Walks the sorted row tuples in ascending code order, marking orbits: a
    marked tuple is unmarked and skipped, and an unmarked one is the first
    member of its orbit the walk meets, hence its minimum, the canonical
    code.  Only those tuples build their re-sorted images under the column
    permutations; every image but the tuple itself is marked, and the orbit
    is every row order of every distinct image.  Buckets are therefore
    sorted by code.  A canonical tuple's code, edge count and profile are
    read off its rows; no ``Bigraph`` is built.  Includes the k=0 bucket
    (the empty graph).  Refuses n above ``CATALOG_CAP``: n = 5 (5624
    classes) takes about 0.9 s.

    Raises ArithmeticError if a marked tuple is never reached or the orbit
    sizes do not sum to 2^(n²).
    """
    check_cap(n, CATALOG_CAP, f"catalog for side size {n} covers 2^{n * n} labeled graphs")
    tables = _column_tables(n)
    buckets: dict[int, list[CatalogEntry]] = {k: [] for k in range(n * n + 1)}
    marked: set[tuple[int, ...]] = set()
    mass = 0
    for rows in combinations_with_replacement(range(1 << n), n):
        if rows in marked:
            marked.remove(rows)
            continue
        images = {tuple(sorted(map(t.__getitem__, rows))) for t in tables}
        images.discard(rows)
        marked |= images
        orders = factorial(n) // prod(factorial(rows.count(r)) for r in set(rows))
        orbit_size = (len(images) + 1) * orders
        mass += orbit_size
        edge_count = sum(row.bit_count() for row in rows)
        buckets[edge_count].append(CatalogEntry(_code(n, rows), _profile(n, rows), orbit_size))
    if marked:
        raise ArithmeticError(
            f"catalog for side size {n}: {len(marked)} marked row tuples "
            "never reached by the walk"
        )
    if mass != 1 << (n * n):
        raise ArithmeticError(
            f"catalog for side size {n}: orbit sizes sum to {mass}, "
            f"not 2^{n * n}"
        )
    return GraphCatalog(n, buckets)


def to_dot(g: Bigraph) -> str:
    """GraphViz rendering with row vertices r1..rn and column vertices c1..cn."""
    n = g.n
    lines = [f'graph "g_{format_code(n, g.code)}" {{', "  rankdir=LR;"]
    for r in range(n):
        lines.append(f"  r{r + 1} [shape=point];")
    for c in range(n):
        lines.append(f"  c{c + 1} [shape=circle, label=\"\"];")
    for r, c in g.edges():
        lines.append(f"  r{r + 1} -- c{c + 1};")
    lines.append("}")
    return "\n".join(lines)
