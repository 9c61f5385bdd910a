"""Brute-force census of disjoint matrix pairs, independent of the formula.

``mask_words`` encodes every matrix's occupancy mask (n⁴ bits) straight
from its 2n block permutations and stores it as 64-bit words, word-major:
word w of every matrix in enumeration order, then word w + 1.  The census
turns those words on their side: one Python int per cell, with bit j set iff
matrix j covers the cell, read byte by byte from strided slices of the
buffer.  Each matrix's n² cells are kept in global-column order, one per
column.  Matrix i shares a cell with matrix j iff bit j is set in the OR of
the bitsets of i's n² cells, so i's disjoint partners number N minus the
popcount of that OR; every pair is still tested, all of one row at once.

The scan reuses shared ORs.  The first n² − n cells of a row, block columns
1 … n − 1, do not depend on the last column permutation, so in enumeration
order they repeat over runs of n! rows and their OR is kept while they do.
The last n cells, block column n, take at most n!·n^n distinct values (162
at n = 3), and the OR of each is memoized.  Both are exact in any row order.

The partner counts of all rows give both results: their sum is the ordered
pair count, which must be even and halves to the unordered one, and their
tally is the degree histogram.

The process pool is reached only through ``run_census(n, workers=k)``: no
command-line option and no other function uses it.  With ``workers`` > 1 the
rows are cut into one contiguous span per process, and
``ProcessPoolExecutor.map`` runs the serial span tally on each, with the cell
index passed as an argument.  The pool is imported on first use, so importing
the package or running a serial census loads no multiprocessing code.
Partial tallies are exact ints, so the result is identical for any worker
count.
"""

from __future__ import annotations

import math
import os
import time
from collections import Counter
from typing import Iterator, NamedTuple

from .sperm import SizeLimitError, SPermMatrix, enumerate_matrices

CENSUS_CAP = 3  # n=4 would be ~6e21 pair tests


class CensusResult(NamedTuple):
    n: int
    ordered_pairs: int
    unordered_pairs: int
    matrices_scanned: int
    elapsed_seconds: float


class CellIndex(NamedTuple):
    bitsets: list[int]  # per cell: bit j set iff matrix j covers it
    cells: bytes  # per matrix: its cell indices by global column, `width` bytes each
    width: int  # n², the cells of one matrix


def mask_words(n: int) -> memoryview:
    """All occupancy masks as a (words, count) uint64 memoryview, enumeration order.

    Word w of matrix j holds bits 64w … 64w + 63 of its mask.  The words are
    stored little-endian, word-major: row w of the view is word w of every
    matrix.
    """
    n2 = n * n
    nwords = (n2 * n2 + 63) // 64

    def block_bits(s: int, t: int) -> list[list[int]]:
        # [i][k]: the mask bit of block (s, t), 0-based, holding its 1 at
        # within-block row i and column k, 1-based (index 0 unused), at the
        # frozen offset (s·n + i − 1)·n² + t·n + k − 1 of SPermMatrix.mask
        return [[1 << ((s * n + i - 1) * n2 + t * n + k - 1) if i and k else 0
                 for k in range(n + 1)] for i in range(n + 1)]

    blocks = [(s, t, block_bits(s, t)) for s in range(n) for t in range(n)]

    def encode(a: SPermMatrix) -> bytes:
        rows, cols = a.row_perms, a.col_perms
        bits = 0
        for s, t, at in blocks:
            bits |= at[rows[s][t]][cols[t][s]]
        return bits.to_bytes(8 * nwords, "little")

    flat = memoryview(b"".join(map(encode, enumerate_matrices(n)))).cast("Q")
    total = len(flat) // nwords
    raw = b"".join(flat[w::nwords].tobytes() for w in range(nwords))
    return memoryview(raw).cast("Q", (nwords, total))


def cell_index(words: memoryview, n: int) -> CellIndex:
    """Transpose the mask words into per-cell bitsets and per-matrix cells.

    Cell c's bit sits in byte c % 64 // 8 of word c // 64, so one strided
    slice of the word-major buffer holds that byte for every matrix.
    """
    width = n * n
    total = words.shape[1]
    raw = words.tobytes()
    stride = 8 * total  # bytes of one word row
    # digits[b]: byte value -> ASCII "1" if bit b is set, else "0"
    digits = [bytes(0x31 if v >> b & 1 else 0x30 for v in range(256)) for b in range(8)]
    bitsets = [0] * (width * width)
    cells = bytearray(total * width)
    for col in range(width):
        owner = 0  # byte j: the cell of matrix j in this column
        for c in range(col, width * width, width):
            w, b = divmod(c, 64)
            flags = raw[w * stride + b // 8:(w + 1) * stride:8].translate(digits[b % 8])
            bitsets[c] = int(flags[::-1], 2)
            hits = flags.translate(bytes.maketrans(b"01", bytes((0, c))))
            owner |= int.from_bytes(hits, "little")
        cells[col::width] = owner.to_bytes(total, "little")
    return CellIndex(bitsets, bytes(cells), width)


def _partner_counts(index: CellIndex, i0: int, i1: int) -> Iterator[int]:
    """Disjoint-partner count for each matrix i in [i0, i1), over all j != i.

    A matrix covers its own cells, so bit i is in the OR and j = i never
    counts.  The OR of a row's cells is the OR of its head (all but the
    last block column) and its tail (the last n cells); the head's OR is
    reused while consecutive rows share the head bytes, and each distinct
    tail's OR is memoized.
    """
    bitsets, cells, width = index
    total = len(cells) // width
    split = width - math.isqrt(width)
    tails: dict[bytes, int] = {}
    head, head_or = None, 0
    for at in range(i0 * width, i1 * width, width):
        cut = at + split
        if cells[at:cut] != head:
            head, head_or = cells[at:cut], 0
            for c in head:
                head_or |= bitsets[c]
        tail = cells[cut:at + width]
        tail_or = tails.get(tail)
        if tail_or is None:
            tail_or = 0
            for c in tail:
                tail_or |= bitsets[c]
            tails[tail] = tail_or
        yield total - (head_or | tail_or).bit_count()


def _span_tally(index: CellIndex, i0: int, i1: int) -> Counter:
    """Tally of the partner counts of rows [i0, i1)."""
    return Counter(_partner_counts(index, i0, i1))


def check_census_cap(n: int) -> None:
    """Raise SizeLimitError if a census at block order n is past the cap."""
    if n > CENSUS_CAP:
        raise SizeLimitError(
            f"census at block order {n} means ~({n}!)^{4 * n}/2 "
            f"pair tests; capped at n <= {CENSUS_CAP}"
        )


def _tally(n: int, workers: int) -> tuple[Counter, int]:
    """Tally of the partner counts of every matrix, and the matrix count."""
    check_census_cap(n)
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    words = mask_words(n)
    total = words.shape[1]
    index = cell_index(words, n)
    if workers == 1:
        return _span_tally(index, 0, total), total
    from concurrent.futures import ProcessPoolExecutor

    # the answer does not depend on the pool size, so never fork more
    # processes than there are CPUs to run them or rows to hand out
    procs = min(workers, len(os.sched_getaffinity(0)), total)
    cuts = [total * k // procs for k in range(procs + 1)]
    with ProcessPoolExecutor(max_workers=procs) as pool:
        tally = sum(pool.map(_span_tally, [index] * procs, cuts, cuts[1:]), Counter())
    return tally, total


def run_census(n: int, workers: int = 1) -> CensusResult:
    """Count disjoint pairs over the full matrix set by cell intersection.

    The ordered count is the sum of every matrix's disjoint-partner count;
    raises ArithmeticError if that sum is odd, since each unordered pair
    is counted from both ends.  With ``workers`` > 1 the rows are tallied
    in a process pool, one contiguous span per process.
    """
    start = time.perf_counter()
    tally, total = _tally(n, workers)
    ordered = sum(count * freq for count, freq in tally.items())
    if ordered % 2:
        raise ArithmeticError(f"partner counts at block order {n} sum to odd {ordered}")
    elapsed = time.perf_counter() - start
    return CensusResult(n, ordered, ordered // 2, total, elapsed)


def degree_histogram(n: int) -> dict[int, int]:
    """Map from disjoint-partner count to how many matrices have it.

    The mass sum(count * frequency) equals the ordered pair count.
    """
    tally, _total = _tally(n, 1)
    return dict(tally)
