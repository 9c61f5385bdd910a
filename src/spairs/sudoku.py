"""Sudoku matrices and their decomposition into disjoint S-permutation matrices.

An n²×n² grid over 1..n² is a Sudoku matrix iff every row, column, and n×n
block is a permutation of 1..n².  Equivalently: the cells holding value s
form an S-permutation matrix A_s for each s, the A_s are pairwise disjoint,
and the grid is the weighted sum 1*A_1 + 2*A_2 + ... + n²*A_{n²}.  Both
directions of that equivalence are exercised by the tests.

The module also counts the complete disjoint families themselves: in the
graph whose vertices are all S-permutation matrices and whose edges join
disjoint pairs, the families of size n² are exactly the n²-vertex cliques,
and each clique yields (n²)! Sudoku matrices (one per weight ordering), so

    clique_count = grid_count / (n²)!

Exhaustive grid counting is only feasible at n=2 (288 grids).  The 9×9
count is the Felgenhauer & Jarvis (2006) computer result, embedded below as
a constant and never recomputed.
"""

from __future__ import annotations

import math
import random
from typing import Iterator, NamedTuple, Sequence

from .sperm import (
    SizeLimitError,
    SPermMatrix,
    build_matrix,
    cell_bitsets,
    enumerate_matrices,
    matrix_at,
    matrix_count,
)

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
        return super().__new__(cls, n, members)

    @property
    def complete(self) -> bool:
        return len(self.members) == self.n * self.n


def _check_shape(grid: SudokuGrid) -> None:
    n2 = grid.n * grid.n
    if len(grid.cells) != n2:
        raise GridFormatError(f"expected {n2} rows, got {len(grid.cells)}")
    for r, row in enumerate(grid.cells):
        if len(row) != n2:
            raise GridFormatError(f"row {r + 1} has {len(row)} entries, expected {n2}")
        for c, v in enumerate(row):
            if not (isinstance(v, int) and 1 <= v <= n2):
                raise GridFormatError(
                    f"cell ({r + 1}, {c + 1}) holds {v!r}, expected 1..{n2}"
                )


def first_violation(grid: SudokuGrid) -> str | None:
    """Location of the first broken constraint group, or None if valid."""
    n, n2 = grid.n, grid.n * grid.n
    want = set(range(1, n2 + 1))
    for r, row in enumerate(grid.cells):
        if set(row) != want:
            return f"row {r + 1} is not a permutation of 1..{n2}"
    for c in range(n2):
        if {row[c] for row in grid.cells} != want:
            return f"column {c + 1} is not a permutation of 1..{n2}"
    for bi in range(n):
        for bj in range(n):
            block = {
                grid.cells[bi * n + i][bj * n + j]
                for i in range(n)
                for j in range(n)
            }
            if block != want:
                return f"block ({bi + 1}, {bj + 1}) is not a permutation of 1..{n2}"
    return None


def validate(grid: SudokuGrid) -> bool:
    """True iff all 3n² constraint groups hold; raises on malformed data."""
    _check_shape(grid)
    return first_violation(grid) is None


def decompose(grid: SudokuGrid) -> DisjointFamily:
    """Split a valid grid into its n² pairwise-disjoint layers.

    Member s-1 is the S-permutation matrix of the cells holding value s.
    """
    _check_shape(grid)
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


def recompose(
    family: DisjointFamily, weights: Sequence[int] | None = None
) -> SudokuGrid:
    """Weighted sum of a complete family; weights default to 1..n² in order."""
    n, n2 = family.n, family.n * family.n
    if weights is None:
        weights = range(1, len(family.members) + 1)
    weights = list(weights)
    if len(weights) != len(family.members):
        raise ValueError(
            f"{len(weights)} weights for {len(family.members)} members"
        )
    rows = [[0] * n2 for _ in range(n2)]
    for w, member in zip(weights, family.members):
        for r, c in member.cells():
            rows[r - 1][c - 1] = w
    return SudokuGrid(n, tuple(tuple(row) for row in rows))


# ---------------------------------------------------------------------------
# Exhaustive counting (n = 2 only)
# ---------------------------------------------------------------------------


def _refuse_scale(n: int, what: str) -> None:
    matrix_count(n)  # n < 1 is invalid input, not a scale cap
    if n != 2:
        raise SizeLimitError(
            f"{what} is only supported at block order 2; the 9x9 grid count "
            f"is ~6.671e21 (known exactly: {KNOWN_GRID_COUNTS[3]}) and is "
            f"never recomputed"
        )


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
    disjointness graph, found by ordered recursive extension."""
    _refuse_scale(n, "clique enumeration")
    mats = list(enumerate_matrices(n))
    masks = [m.mask for m in mats]
    want = n * n
    found: list[DisjointFamily] = []

    def extend(start: int, chosen: list[int], occupied: int) -> None:
        if len(chosen) == want:
            found.append(DisjointFamily(n, tuple(mats[i] for i in chosen)))
            return
        for v in range(start, len(mats)):
            if masks[v] & occupied == 0:
                chosen.append(v)
                extend(v + 1, chosen, occupied | masks[v])
                chosen.pop()

    extend(0, [], 0)
    return found


def count_cliques(n: int) -> int:
    return len(complete_families(n))


def clique_count_from_grid_count(grid_count: int, n: int) -> int:
    """Complete-family count from the grid count: divide by (n²)! exactly."""
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


def sample_family(n: int, seed: int, max_restarts: int = 1000) -> DisjointFamily:
    """Randomized growth of a disjoint family by exact draws, with restarts.

    Keeps the set of candidates, the matrices disjoint from every member
    kept so far, as one bitset over the enumeration order of
    ``enumerate_matrices`` (built from ``cell_bitsets``).  Each step draws
    one candidate uniformly and removes every matrix that shares a cell with
    it.  That is the distribution a rejection loop over uniform draws would
    give, without its waiting.  An empty candidate set is an exact dead end
    and starts a restart.  Returns the first complete family (size n²)
    found, otherwise the largest found within ``max_restarts`` attempts; the
    result is never overlapping, and its size flags success.  Raises
    ValueError unless ``max_restarts`` is at least 1.

    Reproducibility contract: the generator is MT19937 as exposed by
    ``random.Random(seed)``, and each step takes the candidate whose rank in
    enumeration order is ``Random.randrange`` of the candidate count.  Same
    arguments, same family, on any platform.
    """
    if n > 3:
        raise SizeLimitError(f"family sampling capped at block order 3, got {n}")
    if max_restarts < 1:
        raise ValueError(f"max_restarts must be >= 1, got {max_restarts}")
    rng = random.Random(seed)
    want = n * n
    cells = cell_bitsets(n)
    everything = (1 << matrix_count(n)) - 1

    best: list[SPermMatrix] = []
    for _ in range(max_restarts):
        kept: list[SPermMatrix] = []
        candidates = everything
        while len(kept) < want and candidates:
            j = _nth_set_bit(candidates, rng.randrange(candidates.bit_count()))
            member = matrix_at(n, j)
            kept.append(member)
            occupied = 0
            for r, c in member.cells():
                occupied |= cells[(r - 1) * want + (c - 1)]  # row stride n²
            candidates &= ~occupied
        if len(kept) == want:
            return DisjointFamily(n, tuple(kept))
        if len(kept) > len(best):
            best = kept
    return DisjointFamily(n, tuple(best))


# ---------------------------------------------------------------------------
# Plain-text grid I/O
# ---------------------------------------------------------------------------


def parse_grid(text: str) -> SudokuGrid:
    """Read the plain-text format: n on the first line, then n² rows of n²
    space-separated integers."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GridFormatError("empty grid file")
    try:
        n = int(lines[0])
    except ValueError:
        raise GridFormatError(f"first line must be the block order, got {lines[0]!r}")
    if n < 1:
        raise GridFormatError(f"block order must be >= 1, got {n}")
    n2 = n * n
    if len(lines) - 1 != n2:
        raise GridFormatError(f"expected {n2} grid rows, got {len(lines) - 1}")
    rows = []
    for r, ln in enumerate(lines[1:]):
        try:
            row = tuple(int(tok) for tok in ln.split())
        except ValueError:
            raise GridFormatError(f"row {r + 1} has a non-integer entry")
        rows.append(row)
    grid = SudokuGrid(n, tuple(rows))
    _check_shape(grid)
    return grid


def format_grid(grid: SudokuGrid) -> str:
    width = len(str(grid.n * grid.n))
    lines = [str(grid.n)]
    for row in grid.cells:
        lines.append(" ".join(str(v).rjust(width) for v in row))
    return "\n".join(lines) + "\n"
