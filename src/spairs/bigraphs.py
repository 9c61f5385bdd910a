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
form a single twin class, and the two sides never share a class.
"""

from __future__ import annotations

from itertools import combinations_with_replacement, permutations
from math import factorial, prod
from typing import Iterator, NamedTuple

from .sperm import SizeLimitError

CATALOG_CAP = 4  # n=5 builds its 5624 classes by orbit marking in about 1 s


class Bigraph(NamedTuple):
    """Biadjacency matrix packed into an integer, MSB-first row-major."""

    n: int
    code: int

    def bit(self, r: int, c: int) -> int:
        """Entry at 0-based row r, column c."""
        n = self.n
        return (self.code >> (n * n - 1 - (r * n + c))) & 1

    def edges(self) -> list[tuple[int, int]]:
        n = self.n
        return [(r, c) for r in range(n) for c in range(n) if self.bit(r, c)]

    def edge_count(self) -> int:
        return self.code.bit_count()

    def code_hex(self) -> str:
        return format_code(self.n, self.code)


def from_edges(n: int, edges) -> Bigraph:
    code = 0
    for r, c in edges:
        if not (0 <= r < n and 0 <= c < n):
            raise ValueError(f"edge ({r}, {c}) out of range for side size {n}")
        code |= 1 << (n * n - 1 - (r * n + c))
    return Bigraph(n, code)


def format_code(n: int, code: int) -> str:
    """Fixed-width hex rendering of an n²-bit canonical code."""
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


def canonical_code(g: Bigraph) -> int:
    """Minimum code over every independent relabeling of the two sides."""
    n = g.n
    rows = [g.code >> (n * r) & ((1 << n) - 1) for r in range(n)]
    return _code(n, min(sorted(t[r] for r in rows) for t in _column_tables(n)))


def profile(g: Bigraph) -> GraphProfile:
    n = g.n
    row_nbrs = [0] * n  # neighborhood of each row vertex, as a column bitmask
    col_nbrs = [0] * n
    for r, c in g.edges():
        row_nbrs[r] |= 1 << c
        col_nbrs[c] |= 1 << r

    degree_counts = [0] * (n + 1)
    for nb in row_nbrs:
        degree_counts[nb.bit_count()] += 1
    for nb in col_nbrs:
        degree_counts[nb.bit_count()] += 1

    # Twin classes are grouped per side: neighborhoods live in the opposite
    # side's index space, so numerically equal masks on different sides must
    # never merge.  Isolated vertices (mask 0) collapse per side as required.
    sizes: list[int] = []
    for nbrs in (row_nbrs, col_nbrs):
        groups: dict[int, int] = {}
        for nb in nbrs:
            groups[nb] = groups.get(nb, 0) + 1
        sizes.extend(groups.values())
    return GraphProfile(tuple(degree_counts), tuple(sorted(sizes)))


def enumerate_catalog(n: int, *, max_n: int = CATALOG_CAP) -> GraphCatalog:
    """Build the full catalog of isomorphism classes for side size n.

    Walks the sorted row tuples in ascending code order, marking orbits: a
    marked tuple is unmarked and skipped, and an unmarked one is the first
    member of its orbit the walk meets, hence its minimum, the canonical
    code.  Only those tuples build their re-sorted images under the column
    permutations; every image but the tuple itself is marked, and the orbit
    is every row order of every distinct image.  Buckets are therefore
    sorted by code.  Includes the k=0 bucket (the empty graph).

    Raises ArithmeticError if a marked tuple is never reached or the orbit
    sizes do not sum to 2^(n²).
    """
    if n > max_n:
        raise SizeLimitError(
            f"catalog for side size {n} covers 2^{n * n} labeled graphs; "
            f"pass max_n={n} to force it"
        )
    if n < 1:
        raise ValueError(f"side size must be >= 1, got {n}")
    tables = _column_tables(n)
    buckets: dict[int, list[CatalogEntry]] = {k: [] for k in range(n * n + 1)}
    marked: set[tuple[int, ...]] = set()
    mass = 0
    for rows in combinations_with_replacement(range(1 << n), n):
        if rows in marked:
            marked.remove(rows)
            continue
        images = {tuple(sorted(t[r] for r in rows)) for t in tables}
        images.discard(rows)
        marked |= images
        orders = factorial(n) // prod(factorial(rows.count(r)) for r in set(rows))
        orbit_size = (len(images) + 1) * orders
        mass += orbit_size
        g = Bigraph(n, _code(n, rows))
        buckets[g.edge_count()].append(CatalogEntry(g.code, profile(g), orbit_size))
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


def to_dot(g: Bigraph, name: str | None = None) -> str:
    """GraphViz rendering with row vertices r1..rn and column vertices c1..cn."""
    n = g.n
    label = name or f"g_{g.code_hex()}"
    lines = [f'graph "{label}" {{', "  rankdir=LR;"]
    for r in range(n):
        lines.append(f"  r{r + 1} [shape=point];")
    for c in range(n):
        lines.append(f"  c{c + 1} [shape=circle, label=\"\"];")
    for r, c in g.edges():
        lines.append(f"  r{r + 1} -- c{c + 1};")
    lines.append("}")
    return "\n".join(lines)
