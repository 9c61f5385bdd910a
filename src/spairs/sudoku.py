"""Sudoku matrices and their decomposition into disjoint S-permutation matrices.

An n²×n² grid over 1..n² is a Sudoku matrix iff every row, column, and n×n
block is a permutation of 1..n².  Equivalently: the cells holding value s
form an S-permutation matrix A_s for each s, the A_s are pairwise disjoint,
and the grid is the weighted sum 1*A_1 + 2*A_2 + ... + n²*A_{n²}.  Both
directions of that equivalence are exercised by the tests, and
``first_violation`` checks a grid through it: each value's layer, line by
line of the board.

The module also counts the complete disjoint families themselves: in the
graph whose vertices are all S-permutation matrices and whose edges join
disjoint pairs, the families of size n² are exactly the n²-vertex cliques,
and each clique yields (n²)! Sudoku matrices (one per weight ordering), so

    clique_count = grid_count / (n²)!

Exhaustive grid counting is only feasible up to n=2 (288 grids).  The 9×9
count is the Felgenhauer & Jarvis (2006) computer result, embedded below as
a constant and never recomputed.
"""

from __future__ import annotations

import math
import random
import re
from itertools import chain, product
from typing import Iterator, NamedTuple

from .sperm import (
    SPermMatrix,
    board_lines,
    build_matrix,
    cell_bitsets,
    check_cap,
    check_order,
    matrix_at,
    matrix_count,
)

GRID_CAP = 2  # exhaustive grid and clique enumeration stop here

KNOWN_GRID_COUNTS = {
    2: 288,
    # 9! * 72^2 * 2^7 * 27704267971, Felgenhauer & Jarvis (2006)
    3: 6_670_903_752_021_072_936_960,
}


class GridFormatError(ValueError):
    """Malformed grid data: wrong dimensions or out-of-range entries."""


class InvalidGridError(ValueError):
    """Well-formed grid that violates a row/column/block constraint."""


class SudokuGrid(NamedTuple):
    n: int
    cells: tuple[tuple[int, ...], ...]


class _FamilyFields(NamedTuple):
    n: int
    members: tuple[SPermMatrix, ...]


class DisjointFamily(_FamilyFields):
    """Pairwise-disjoint S-permutation matrices, at most n² of them, validated
    on construction by position or keyword (``_make`` and ``_replace`` too)."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, n: int, members: tuple[SPermMatrix, ...]) -> DisjointFamily:
        check_order(n)
        if len(members) > n * n:
            raise ValueError(
                f"family of {len(members)} members exceeds n² = {n ** 2}"
            )
        for i, m in enumerate(members):
            if m.n != n:
                raise ValueError(f"member {i} has block order {m.n}, not {n}")
        masks = [m.mask for m in members]
        for i in range(len(masks)):
            for j in range(i + 1, len(masks)):
                if masks[i] & masks[j]:
                    raise ValueError(f"members {i} and {j} overlap")
        return super().__new__(cls, n, tuple(members))  # a tuple, so it hashes

    @property
    def complete(self) -> bool:
        return len(self.members) == self.n * self.n


def _grid_side(n: int) -> int:
    try:
        check_order(n)
    except ValueError as exc:  # a grid's bad order is malformed grid data
        raise GridFormatError(str(exc)) from None
    return n * n


def _check_shape(grid: SudokuGrid) -> None:
    n2 = _grid_side(grid.n)
    if len(grid.cells) != n2:
        raise GridFormatError(f"expected {n2} rows, got {len(grid.cells)}")
    for r, row in enumerate(grid.cells):
        if len(row) != n2:
            raise GridFormatError(f"row {r + 1} has {len(row)} entries, expected {n2}")
        for c, v in enumerate(row):
            # type, not isinstance: bool is an int subclass, and True == 1
            if not (type(v) is int and 1 <= v <= n2):
                raise GridFormatError(
                    f"cell ({r + 1}, {c + 1}) holds {v!r}, expected 1..{n2}"
                )


def first_violation(grid: SudokuGrid) -> str | None:
    """Location of the first broken constraint group, or None if valid.

    A row, column or block of ``board_lines(n)`` is a permutation of 1..n²
    iff each value's layer, the mask of the cells holding it, meets that
    line exactly once; rows are checked first, then columns, then blocks.
    Raises GridFormatError on malformed data: wrong dimensions or entries.
    """
    _check_shape(grid)
    n, n2 = grid.n, grid.n * grid.n
    layers = [0] * n2  # layers[v - 1]: the cells holding v, in mask numbering
    for p, v in enumerate(chain.from_iterable(grid.cells)):
        layers[v - 1] |= 1 << p
    rows, columns, blocks = board_lines(n)
    names = range(1, n2 + 1)
    for kind, labels, lines in (("row", names, rows), ("column", names, columns),
                                ("block", product(names[:n], repeat=2), blocks)):
        for label, line in zip(labels, lines):
            if any((layer & line).bit_count() != 1 for layer in layers):
                return f"{kind} {label} is not a permutation of 1..{n2}"
    return None


def decompose(grid: SudokuGrid) -> DisjointFamily:
    """Split a valid grid into its n² pairwise-disjoint layers.

    Member s-1 is the S-permutation matrix of the cells holding value s.
    """
    problem = first_violation(grid)
    if problem is not None:
        raise InvalidGridError(problem)
    n = grid.n
    # layers[s - 1]: the row and column permutations of value s's matrix
    layers = [([[0] * n for _ in range(n)], [[0] * n for _ in range(n)])
              for _ in range(n * n)]
    for r, row in enumerate(grid.cells):
        bs, i = divmod(r, n)
        for c, s in enumerate(row):
            bt, j = divmod(c, n)
            row_perms, col_perms = layers[s - 1]
            row_perms[bs][bt] = i + 1
            col_perms[bt][bs] = j + 1
    members = tuple(build_matrix(n, rows, cols) for rows, cols in layers)
    return DisjointFamily(n, members)


def recompose(family: DisjointFamily) -> SudokuGrid:
    """Weighted sum of a complete family: member s-1 holds value s.

    To relabel the values, reorder the members, e.g. with
    ``family._replace(members=...)``, which re-checks the family.  Raises
    ValueError if the family has fewer than n² members, since its sum would
    leave cells of the grid empty.
    """
    n, n2 = family.n, family.n * family.n
    if not family.complete:
        raise ValueError(f"family of {len(family.members)} members is not complete: "
                         f"a grid takes n² = {n2}")
    rows = [[0] * n2 for _ in range(n2)]
    for s, member in enumerate(family.members, 1):
        for r, c in member.cells():
            rows[r - 1][c - 1] = s
    return SudokuGrid(n, tuple(tuple(row) for row in rows))


# ---------------------------------------------------------------------------
# Exhaustive counting (n <= GRID_CAP only)
# ---------------------------------------------------------------------------


def _refuse_scale(n: int, what: str) -> None:
    size = (f"{what} is only supported up to block order {GRID_CAP}; the 9x9 grid "
            f"count is ~6.671e21 (known exactly: {KNOWN_GRID_COUNTS[3]}, so "
            f"{clique_count_from_grid_count(KNOWN_GRID_COUNTS[3], 3)} complete "
            f"disjoint families) and is never recomputed")
    check_cap(n, GRID_CAP, size)


def iter_grids(n: int) -> Iterator[SudokuGrid]:
    """Stream every Sudoku matrix of block order n by backtracking."""
    _refuse_scale(n, "exhaustive grid enumeration")
    n2 = n * n
    grid = [[0] * n2 for _ in range(n2)]
    row_used = [0] * n2  # bitmasks over values 1..n²
    col_used = [0] * n2
    blk_used = [0] * n2

    def fill(pos: int) -> Iterator[SudokuGrid]:
        if pos == n2 * n2:
            yield SudokuGrid(n, tuple(tuple(row) for row in grid))
            return
        r, c = divmod(pos, n2)
        b = (r // n) * n + (c // n)
        free = ~(row_used[r] | col_used[c] | blk_used[b])
        for v in range(1, n2 + 1):
            bit = 1 << v
            if free & bit:
                grid[r][c] = v
                row_used[r] |= bit
                col_used[c] |= bit
                blk_used[b] |= bit
                yield from fill(pos + 1)
                row_used[r] ^= bit
                col_used[c] ^= bit
                blk_used[b] ^= bit
        grid[r][c] = 0

    yield from fill(0)


def count_grids(n: int) -> int:
    """Exhaustive Sudoku matrix count (288 at n=2)."""
    return sum(1 for _ in iter_grids(n))


def complete_families(n: int) -> list[DisjointFamily]:
    """All size-n² disjoint families, i.e. the n²-vertex cliques of the
    disjointness graph, grown on the candidate bitset ``sample_family`` uses
    by trying every candidate in ascending index order (lowest set bit first).
    A tried candidate is cleared, so each clique is found once, in order."""
    _refuse_scale(n, "clique enumeration")
    cells = cell_bitsets(n)
    found: list[DisjointFamily] = []

    def extend(chosen: tuple[SPermMatrix, ...], candidates: int) -> None:
        if len(chosen) == n * n:  # covers all n⁴ cells: no candidate is left
            found.append(DisjointFamily(n, chosen))
        while candidates:
            low = candidates & -candidates
            candidates ^= low
            member = matrix_at(n, low.bit_length() - 1)
            extend(chosen + (member,), candidates & ~_blocked(cells, member))

    extend((), (1 << matrix_count(n)) - 1)
    return found


def count_cliques(n: int) -> int:
    return len(complete_families(n))


def clique_count_from_grid_count(grid_count: int, n: int) -> int:
    """Complete-family count from the grid count: divide by (n²)! exactly."""
    check_order(n)
    if type(grid_count) is not int:  # 288.0 and True would divide too
        raise ValueError(f"grid count must be an int, got {grid_count!r}")
    if grid_count < 0:
        raise ValueError(f"grid count must be >= 0, got {grid_count}")
    q, r = divmod(grid_count, math.factorial(n * n))
    if r:
        raise ValueError(
            f"{grid_count} is not divisible by ({n}^2)! = {math.factorial(n * n)}"
        )
    return q


# ---------------------------------------------------------------------------
# Randomized family sampling
# ---------------------------------------------------------------------------


def _nth_set_bit(bits: int, r: int) -> int:
    """Position of the r-th (0-based, from the low end) set bit of ``bits``.

    Bisects the window with ``int.bit_count`` instead of walking bit by bit.
    """
    base, width = 0, bits.bit_length()
    while width > 1:
        half = width // 2
        low = bits & ((1 << half) - 1)
        below = low.bit_count()
        if r < below:
            bits, width = low, half
        else:
            bits, width, base, r = bits >> half, width - half, base + half, r - below
    return base


def _blocked(cells: list[int], member: SPermMatrix) -> int:
    """The matrices sharing a cell with ``member``: OR of its n² cell bitsets."""
    n2 = member.n * member.n
    bits = 0
    for r, c in member.cells():
        bits |= cells[(r - 1) * n2 + (c - 1)]
    return bits


def sample_family(n: int, seed: int) -> DisjointFamily:
    """Randomized growth of a complete disjoint family, one uniform draw per member.

    Keeps the candidates, the matrices disjoint from every member kept so
    far, as one bitset over the order of ``enumerate_matrices`` (built from
    ``cell_bitsets``, which refuses n above ``ENUMERATION_CAP``).  Each step
    draws one uniformly among them and clears ``_blocked`` of it.  The family
    is not uniform: at n = 2, 160 of the 288 ordered families have probability
    1/224 and 128 have 1/448.  An attempt ends with no candidate left; unless
    its n² members cover all n⁴ cells, it starts again.

    That ends with probability 1: a complete family exists (the layers of any
    Sudoku grid), and each attempt draws its members in order with positive
    probability.  At n = 3 seeds 0..999 took 2.46 attempts on average and 17
    at most; at n <= 2 the first attempt completes.

    Reproducibility contract: the generator is MT19937 as exposed by
    ``random.Random(seed)``, and each step takes the candidate whose rank in
    enumeration order is ``Random.randrange`` of the candidate count.  Same
    arguments, same family, on any platform.  A seed that is not an int, a
    bool included, raises ValueError.
    """
    if type(seed) is not int:  # Random(True) would draw seed 1's family
        raise ValueError(f"seed must be an int, got {seed!r}")
    rng = random.Random(seed)
    cells = cell_bitsets(n)
    everything = (1 << matrix_count(n)) - 1
    while True:
        kept: list[SPermMatrix] = []
        candidates = everything
        while candidates:
            j = _nth_set_bit(candidates, rng.randrange(candidates.bit_count()))
            member = matrix_at(n, j)
            kept.append(member)
            candidates &= ~_blocked(cells, member)
        if len(kept) == n * n:
            return DisjointFamily(n, tuple(kept))


# ---------------------------------------------------------------------------
# Plain-text grid parsing
# ---------------------------------------------------------------------------


_INT_TOKEN = re.compile(r"-?[0-9]+")


def _parse_int(token: str) -> int:
    # int() also reads "+1", "1_0" and digits of other scripts; the format
    # has ASCII digits only, with "-" kept so that "-1" gets the range error
    if not _INT_TOKEN.fullmatch(token):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def parse_grid(text: str) -> SudokuGrid:
    """Read the plain-text format: n on the first line, then n² rows of n²
    space-separated integers."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GridFormatError("empty grid file")
    try:
        n = _parse_int(lines[0].strip())
    except ValueError:
        raise GridFormatError(f"first line must be the block order, got {lines[0]!r}")
    n2 = _grid_side(n)  # the order is checked before the row count it fixes
    if len(lines) - 1 != n2:
        raise GridFormatError(f"expected {n2} grid rows, got {len(lines) - 1}")
    rows = []
    for r, ln in enumerate(lines[1:]):
        try:
            row = tuple(map(_parse_int, ln.split()))
        except ValueError:
            raise GridFormatError(f"row {r + 1} has a non-integer entry")
        rows.append(row)
    grid = SudokuGrid(n, tuple(rows))
    _check_shape(grid)
    return grid
