"""Brute-force census of disjoint matrix pairs, independent of the formula.

Every occupancy mask (n⁴ bits) is split into 64-bit words and stored in a
flat contiguous uint64 array per word, in enumeration order.  A pair is
disjoint iff the AND of the two masks is zero in every word; the scan is
vectorized with numpy over the trailing axis, one row at a time.

The pair count walks the strict upper triangle (i < j) and doubles; the
degree histogram counts disjoint partners over full rows, so its mass is a
second, independently scanned ordered count.  With ``workers`` > 1 the row
range is partitioned into contiguous chunks handled by a process pool;
partial sums are exact ints, so the result is identical for any worker
count.
"""

from __future__ import annotations

import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .sperm import SizeLimitError, enumerate_matrices, matrix_count

CENSUS_CAP = 3  # n=4 would be ~6e21 pair tests

_POOL_WORDS: np.ndarray | None = None  # per-process mask words, set by _pool_init


@dataclass(frozen=True)
class CensusResult:
    n: int
    ordered_pairs: int
    unordered_pairs: int
    matrices_scanned: int
    elapsed_seconds: float


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


def _triangular_chunk(words: np.ndarray, i0: int, i1: int) -> int:
    """Disjoint pairs (i, j) with i0 <= i < i1 and i < j < total."""
    nwords, total = words.shape
    acc = np.empty(total, dtype=np.uint64)
    tmp = np.empty(total, dtype=np.uint64)
    hits = np.empty(total, dtype=bool)
    count = 0
    for i in range(i0, min(i1, total - 1)):
        t = total - i - 1
        np.bitwise_and(words[0, i + 1:], words[0, i], out=acc[:t])
        for w in range(1, nwords):
            np.bitwise_and(words[w, i + 1:], words[w, i], out=tmp[:t])
            np.bitwise_or(acc[:t], tmp[:t], out=acc[:t])
        np.equal(acc[:t], 0, out=hits[:t])
        count += int(np.count_nonzero(hits[:t]))
    return count


def _partner_chunk(words: np.ndarray, i0: int, i1: int) -> np.ndarray:
    """Disjoint-partner count for each row i in [i0, i1), over all j != i.

    A mask always intersects itself (popcount n² > 0), so j = i never counts
    and needs no correction.
    """
    nwords, total = words.shape
    acc = np.empty(total, dtype=np.uint64)
    tmp = np.empty(total, dtype=np.uint64)
    hits = np.empty(total, dtype=bool)
    out = np.empty(i1 - i0, dtype=np.int64)
    for i in range(i0, i1):
        np.bitwise_and(words[0], words[0, i], out=acc)
        for w in range(1, nwords):
            np.bitwise_and(words[w], words[w, i], out=tmp)
            np.bitwise_or(acc, tmp, out=acc)
        np.equal(acc, 0, out=hits)
        out[i - i0] = np.count_nonzero(hits)
    return out


def _pool_init(words: np.ndarray) -> None:
    global _POOL_WORDS
    _POOL_WORDS = words


def _pool_triangular(span: tuple[int, int]) -> int:
    assert _POOL_WORDS is not None
    return _triangular_chunk(_POOL_WORDS, *span)


def _pool_partner(span: tuple[int, int]) -> np.ndarray:
    assert _POOL_WORDS is not None
    return _partner_chunk(_POOL_WORDS, *span)


def _triangular_splits(total: int, chunks: int) -> list[tuple[int, int]]:
    # Row i scans total-i-1 pairs; split so chunks carry similar pair loads.
    spans = []
    target = total * (total - 1) / 2 / max(chunks, 1)
    start, load = 0, 0.0
    for i in range(total):
        load += total - i - 1
        if load >= target and len(spans) < chunks - 1:
            spans.append((start, i + 1))
            start, load = i + 1, 0.0
    spans.append((start, total))
    return spans


def _even_splits(total: int, chunks: int) -> list[tuple[int, int]]:
    step = max(1, -(-total // max(chunks, 1)))
    return [(i, min(i + step, total)) for i in range(0, total, step)]


def _run_chunks(words, spans, chunk_fn, pool_fn, workers, progress):
    total = words.shape[1]
    results = []
    if workers == 1:
        done = 0
        for span in spans:
            results.append(chunk_fn(words, *span))
            done += span[1] - span[0]
            if progress is not None:
                progress(done, total)
    else:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_init, initargs=(words,)
        ) as pool:
            futures = [pool.submit(pool_fn, span) for span in spans]
            done = 0
            for span, fut in zip(spans, futures):
                results.append(fut.result())
                done += span[1] - span[0]
                if progress is not None:
                    progress(done, total)
    return results


def _check_scale(n: int, workers: int) -> None:
    if n > CENSUS_CAP:
        raise SizeLimitError(
            f"census at block order {n} means ~{matrix_count(n) ** 2 // 2} "
            f"pair tests; capped at n <= {CENSUS_CAP}"
        )
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")


def run_census(
    n: int,
    workers: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> CensusResult:
    """Count disjoint pairs over the full matrix set by mask intersection.

    Scans the strict upper triangle once; the ordered count is twice the
    unordered one.  ``progress``, if given, is invoked with (rows done, rows
    total) as chunks complete.
    """
    _check_scale(n, workers)
    start = time.perf_counter()
    words = mask_words(n)
    total = words.shape[1]
    chunks = 1 if workers == 1 else workers * 4
    spans = _triangular_splits(total, chunks)
    parts = _run_chunks(words, spans, _triangular_chunk, _pool_triangular,
                        workers, progress)
    unordered = sum(parts)
    ordered = 2 * unordered
    elapsed = time.perf_counter() - start
    return CensusResult(n, ordered, unordered, total, elapsed)


def degree_histogram(n: int, workers: int = 1) -> dict[int, int]:
    """Map from disjoint-partner count to how many matrices have it.

    The mass sum(count * frequency) equals the ordered pair count.
    """
    _check_scale(n, workers)
    words = mask_words(n)
    total = words.shape[1]
    chunks = 1 if workers == 1 else workers * 4
    spans = _even_splits(total, chunks)
    parts = _run_chunks(words, spans, _partner_chunk, _pool_partner, workers, None)
    hist = Counter()
    for part in parts:
        values, freqs = np.unique(part, return_counts=True)
        for v, f in zip(values, freqs):
            hist[int(v)] += int(f)
    return dict(hist)
