"""The block-order rule, S-permutation matrices and their occupancy masks.

An S-permutation matrix of block order n is an n²×n² permutation matrix
whose n² blocks of size n×n each contain exactly one 1.  Every such matrix
is described by 2n permutations of [n] = {1, ..., n}: one permutation per
block-row and one per block-column.  Block (s, t) carries its single 1 at
within-block row ``row_perms[s-1][t-1]`` and within-block column
``col_perms[t-1][s-1]`` (all values 1-based).  This parameterization is a
bijection onto the set of S-permutation matrices, so there are exactly
(n!)^(2n) of them and exhaustive generation needs no rejection step.

Cell indexing convention, frozen once for the whole package: global
coordinates are 1-based in the API; an occupancy mask (``SPermMatrix.mask``)
is a plain int with bit index (row-1)*n² + (col-1), i.e. 0-based row-major.
``SPermMatrix`` is an immutable NamedTuple that stores no mask: ``mask`` is
computed on each access, so hoist it when reading it repeatedly.

``cell_bitsets`` turns the masks on their side: one integer per cell whose
bit j says whether matrix j of the enumeration order holds a 1 there, built
from the digits of j without any matrix object.

``board_lines`` is the one statement of the board's rows, columns and
blocks, as cell masks in that numbering: a mask is valid iff each of those
3n² lines holds exactly one 1 (``mask_is_valid``), and a Sudoku grid is
valid iff each value's layer does (``sudoku.first_violation``).
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from itertools import permutations, product
from typing import Iterator, NamedTuple, Sequence

Perm = tuple[int, ...]  # images of 1..n, 1-based

ENUMERATION_CAP = 3  # (4!)^8 matrices for n=4 is already out of reach


class SizeLimitError(ValueError):
    """An exhaustive operation was asked to run beyond its scale cap."""


def check_order(n: int) -> None:
    """Raise ValueError unless n is a block order: an int, not a bool, >= 1."""
    if type(n) is not int:  # bool is an int subclass, and True == 1
        raise ValueError(f"block order must be an int, got {n!r}")
    if n < 1:
        raise ValueError(f"block order must be >= 1, got {n}")


def check_cap(n: int, cap: int, size: str) -> None:
    """Run ``check_order(n)``, then raise SizeLimitError, naming ``size``, if n > ``cap``."""
    check_order(n)
    if n > cap:
        raise SizeLimitError(f"{size}; capped at n <= {cap}")


def _checked_perm(p: Sequence[int], n: int, name: str, idx: int) -> Perm:
    t = tuple(p)
    # True == 1.0 == 1, so only the type tells a bool or a float from an index
    if any(type(v) is not int for v in t) or sorted(t) != list(range(1, n + 1)):
        raise ValueError(f"{name}[{idx}] is not a permutation of 1..{n}: {t!r}")
    return t


class SPermMatrix(NamedTuple):
    """One n²×n² S-permutation matrix: a NamedTuple of its 2n block permutations."""

    n: int
    row_perms: tuple[Perm, ...]
    col_perms: tuple[Perm, ...]

    def cells(self) -> list[tuple[int, int]]:
        """Global 1-based (row, col) coordinates of the n² ones, by block."""
        n = self.n
        out = []
        for s in range(1, n + 1):
            for t in range(1, n + 1):
                i = self.row_perms[s - 1][t - 1]
                j = self.col_perms[t - 1][s - 1]
                out.append(((s - 1) * n + i, (t - 1) * n + j))
        return out

    @property
    def mask(self) -> int:
        """Occupancy bits, computed on each access: bit (row-1)*n² + (col-1) per 1."""
        # block (s, t), 0-based here, holds its 1 at global 0-based row
        # s*n + row_perms[s][t] - 1 and column t*n + col_perms[t][s] - 1
        n = self.n
        n2 = n * n
        bits = 0
        for s, row in enumerate(self.row_perms):
            for t, col in enumerate(self.col_perms):
                bits |= 1 << ((s * n + row[t] - 1) * n2 + t * n + col[s] - 1)
        return bits


def build_matrix(
    n: int,
    row_perms: Sequence[Sequence[int]],
    col_perms: Sequence[Sequence[int]],
) -> SPermMatrix:
    """Validate the 2n block permutations and assemble the matrix.

    Raises ValueError naming the offending entry if any input is not a
    permutation of 1..n.
    """
    check_order(n)
    if len(row_perms) != n or len(col_perms) != n:
        raise ValueError(
            f"need {n} row and {n} column permutations, "
            f"got {len(row_perms)} and {len(col_perms)}"
        )
    rp = tuple(_checked_perm(p, n, "row_perms", i) for i, p in enumerate(row_perms))
    cp = tuple(_checked_perm(p, n, "col_perms", i) for i, p in enumerate(col_perms))
    return SPermMatrix(n, rp, cp)


def matrix_count(n: int) -> int:
    """Number of S-permutation matrices of block order n: (n!)^(2n)."""
    check_order(n)
    return math.factorial(n) ** (2 * n)


def _words(n: int) -> list[Perm]:
    return list(permutations(range(1, n + 1)))  # lexicographic


def enumerate_matrices(n: int) -> Iterator[SPermMatrix]:
    """Yield every S-permutation matrix of block order n, exactly once.

    Order is lexicographic over the concatenated permutation words
    (row_perms first, then col_perms).  Refuses n above ``ENUMERATION_CAP``.
    """
    check_cap(n, ENUMERATION_CAP, f"enumerating block order {n} means ({n}!)^{2 * n} matrices")
    halves = list(product(_words(n), repeat=n))  # every n-tuple of permutations
    # tuple.__new__ builds each matrix in C, past the NamedTuple's Python __new__
    yield from map(partial(tuple.__new__, SPermMatrix), product((n,), halves, halves))


def matrix_at(n: int, j: int) -> SPermMatrix:
    """The j-th matrix (0-based) in the order of ``enumerate_matrices(n)``.

    Needs no enumeration: j is read as 2n digits in base n!, most
    significant first, each digit the lexicographic rank of one permutation.
    Capped at ``ENUMERATION_CAP``, like the enumeration it indexes.
    """
    check_cap(n, ENUMERATION_CAP, f"indexing block order {n} means ({n}!)^{2 * n} matrices")
    total = matrix_count(n)
    if type(j) is not int or not 0 <= j < total:  # True == 1.0 == 1, not an index
        raise IndexError(f"matrix index {j!r} outside 0..{total - 1}")
    words = _words(n)
    digits = []
    for _ in range(2 * n):
        j, d = divmod(j, len(words))
        digits.append(words[d])
    digits.reverse()
    return SPermMatrix(n, tuple(digits[:n]), tuple(digits[n:]))


def cell_bitsets(n: int) -> list[int]:
    """Per-cell membership bitsets over the whole enumeration order.

    Entry (row-1)*n² + (col-1) has bit j set iff ``matrix_at(n, j)`` holds a
    1 at (row, col); every entry has (n!)^(2n) / n² bits set.  Block (s, t)
    holds its 1 at within-block (i, k) iff digit s-1 of the index (row
    permutation s) has image i at t and digit n+t-1 (column permutation t)
    has image k at s, so a cell's bitset is the AND of those two digits'
    indicator patterns.  Capped at ``ENUMERATION_CAP``, like the enumeration.
    """
    size = f"cell bitsets at block order {n} mean {n ** 4} sets of ({n}!)^{2 * n} bits"
    check_cap(n, ENUMERATION_CAP, size)
    total = matrix_count(n)
    words = _words(n)
    radix, digits = len(words), 2 * n

    def indicator(digit: int, pos: int, image: int) -> int:
        # bits j whose given digit names a permutation with p[pos] == image:
        # runs of `run` ones, one period of radix*run bits, tiled up to total
        run = radix ** (digits - 1 - digit)
        ones = (1 << run) - 1
        period = 0
        for d, word in enumerate(words):
            if word[pos] == image:
                period |= ones << (d * run)
        width = radix * run
        return period * (((1 << total) - 1) // ((1 << width) - 1))

    n2 = n * n
    out = [0] * (n2 * n2)
    for s in range(n):
        for t in range(n):
            cols = [indicator(n + t, s, k) for k in range(1, n + 1)]
            for i in range(1, n + 1):
                rows = indicator(s, t, i)
                for k in range(1, n + 1):
                    out[(s * n + i - 1) * n2 + t * n + k - 1] = rows & cols[k - 1]
    return out


@lru_cache(maxsize=None, typed=True)  # typed, so True misses 1's entry
def board_lines(n: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """The board's n² rows, n² columns and n² blocks as cell masks.

    Masks use ``SPermMatrix.mask``'s cell numbering; rows and columns run
    top to bottom and left to right, blocks in (block row, block column)
    order.  Cached per block order.
    """
    check_order(n)
    n2 = n * n
    row = (1 << n2) - 1
    column = sum(1 << (r * n2) for r in range(n2))
    block = sum(((1 << n) - 1) << (i * n2) for i in range(n))
    return (
        tuple(row << (r * n2) for r in range(n2)),
        tuple(column << c for c in range(n2)),
        tuple(block << (bi * n * n2 + bj * n) for bi in range(n) for bj in range(n)),
    )


def is_disjoint(a: SPermMatrix, b: SPermMatrix) -> bool:
    """True iff the two matrices share no cell holding a 1 in both."""
    if a.n != b.n:
        raise ValueError(f"block orders differ: {a.n} != {b.n}")
    return (a.mask & b.mask) == 0


def mask_is_valid(n: int, bits: int) -> bool:
    """Cell-level check: each line of ``board_lines(n)`` holds exactly one 1.

    Reads only the bits and the board, never the permutation
    parameterization, so it serves as an independent validity oracle for
    generated matrices.  A negative mask, or one with a bit at or past n⁴,
    is invalid; a mask that is not an int (a bool included) raises
    ValueError.
    """
    check_order(n)
    if type(bits) is not int:  # bool is an int subclass, and True == 1
        raise ValueError(f"mask must be an int, got {bits!r}")
    # n² ones, one in each of the n² rows, leave none outside the grid; the
    # count also spares building a large board's lines for a hopeless mask
    return bits >= 0 and bits.bit_count() == n * n and all(
        (bits & line).bit_count() == 1 for lines in board_lines(n) for line in lines
    )
