"""Brute-force census of disjoint matrix pairs, independent of the formula.

Every occupancy mask (n⁴ bits) is split into 64-bit words and stored in a
flat uint64 array per word, in enumeration order.  The census turns that
array on its side: one Python int per cell, with bit j set iff matrix j
covers the cell.  Matrix i shares a cell with matrix j iff bit j is set in
the OR of the bitsets of i's n² cells, so i's disjoint partners number N
minus the popcount of that OR; every pair is still tested, all of one row
at once.

The partner counts of all rows give both results: their sum is the ordered
pair count, which must be even and halves to the unordered one, and their
tally is the degree histogram.  With ``workers`` > 1 the rows are split
into even spans handled by a process pool; partial tallies are exact ints,
so the result is identical for any worker count.
"""

from __future__ import annotations

import os
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .sperm import SizeLimitError, enumerate_matrices, matrix_count

CENSUS_CAP = 3  # n=4 would be ~6e21 pair tests


@dataclass(frozen=True)
class CensusResult:
    n: int
    ordered_pairs: int
    unordered_pairs: int
    matrices_scanned: int
    elapsed_seconds: float


class CellIndex(NamedTuple):
    bitsets: list[int]  # per cell: bit j set iff matrix j covers it
    cells: bytearray  # per matrix: its cell indices, `width` bytes each
    width: int  # n², the cells of one matrix


_POOL_INDEX: CellIndex | None = None  # per-process cell index, set by _pool_init


def mask_words(n: int) -> np.ndarray:
    """All occupancy masks as a (words, count) uint64 array, enumeration order."""
    total = matrix_count(n)
    nwords = (n ** 4 + 63) // 64
    words = np.zeros((nwords, total), dtype=np.uint64)
    full = (1 << 64) - 1
    for j, a in enumerate(enumerate_matrices(n)):
        bits = a.mask.bits
        for w in range(nwords):
            words[w, j] = (bits >> (64 * w)) & full
    return words


def cell_index(words: np.ndarray, n: int) -> CellIndex:
    """Transpose the mask words into per-cell bitsets and per-matrix cells."""
    width = n * n
    total = words.shape[1]
    cells = bytearray(total * width)
    slots = np.frombuffer(cells, dtype=np.uint8).reshape(total, width)
    filled = np.zeros(total, dtype=np.uint8)
    bitsets = []
    for c in range(width * width):
        covers = words[c // 64] & np.uint64(1 << c % 64) != 0
        packed = np.packbits(covers, bitorder="little")
        bitsets.append(int.from_bytes(packed.tobytes(), "little"))
        rows = np.flatnonzero(covers)
        slots[rows, filled[rows]] = c
        filled[rows] += 1
    return CellIndex(bitsets, cells, width)


def _partner_counts(index: CellIndex, i0: int, i1: int) -> Iterator[int]:
    """Disjoint-partner count for each matrix i in [i0, i1), over all j != i.

    A matrix covers its own cells, so bit i is in the OR and j = i never
    counts.
    """
    bitsets, cells, width = index
    total = len(cells) // width
    for at in range(i0 * width, i1 * width, width):
        acc = 0
        for c in cells[at:at + width]:
            acc |= bitsets[c]
        yield total - acc.bit_count()


def _pool_init(index: CellIndex) -> None:
    global _POOL_INDEX
    _POOL_INDEX = index


def _pool_tally(span: tuple[int, int]) -> Counter:
    assert _POOL_INDEX is not None
    return Counter(_partner_counts(_POOL_INDEX, *span))


def _even_splits(total: int, chunks: int) -> list[tuple[int, int]]:
    step = -(-total // chunks)
    return [(i, min(i + step, total)) for i in range(0, total, step)]


def _tally(
    n: int, workers: int, progress: Callable[[int, int], None] | None
) -> tuple[Counter, int]:
    """Tally of the partner counts of every matrix, and the matrix count."""
    if n > CENSUS_CAP:
        raise SizeLimitError(
            f"census at block order {n} means ~{matrix_count(n) ** 2 // 2} "
            f"pair tests; capped at n <= {CENSUS_CAP}"
        )
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    words = mask_words(n)
    total = words.shape[1]
    index = cell_index(words, n)
    if workers == 1:
        tally = Counter(_partner_counts(index, 0, total))
        if progress is not None:
            progress(total, total)
        return tally, total
    # the answer does not depend on the pool size, so never fork more
    # processes than there are CPUs to run them or spans to hand out
    procs = min(workers, len(os.sched_getaffinity(0)))
    spans = _even_splits(total, procs * 4)
    with ProcessPoolExecutor(
        max_workers=min(procs, len(spans)), initializer=_pool_init, initargs=(index,)
    ) as pool:
        tally: Counter = Counter()
        done = 0
        futures = [pool.submit(_pool_tally, span) for span in spans]
        for span, fut in zip(spans, futures):
            tally.update(fut.result())
            done += span[1] - span[0]
            if progress is not None:
                progress(done, total)
    return tally, total


def run_census(
    n: int,
    workers: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> CensusResult:
    """Count disjoint pairs over the full matrix set by cell intersection.

    The ordered count is the sum of every matrix's disjoint-partner count;
    raises ArithmeticError if that sum is odd, since each unordered pair
    is counted from both ends.  ``progress``, if given, is invoked with
    (rows done, rows total) as spans complete.
    """
    start = time.perf_counter()
    tally, total = _tally(n, workers, progress)
    ordered = sum(count * freq for count, freq in tally.items())
    if ordered % 2:
        raise ArithmeticError(f"partner counts at block order {n} sum to odd {ordered}")
    elapsed = time.perf_counter() - start
    return CensusResult(n, ordered, ordered // 2, total, elapsed)


def degree_histogram(n: int, workers: int = 1) -> dict[int, int]:
    """Map from disjoint-partner count to how many matrices have it.

    The mass sum(count * frequency) equals the ordered pair count.
    """
    tally, _total = _tally(n, workers, None)
    return dict(tally)
