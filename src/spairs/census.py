"""Brute-force census of disjoint matrix pairs, independent of the formula.

``mask_words`` reads each matrix's 2n block permutations and writes, as one
byte, the cell it holds in each global column: row g of the (n², N) byte view
is column g's cell for every matrix, in enumeration order.  In a run of
matrices that share ``row_perms``, the n cells of block column t depend only
on column t of ``row_perms`` and on ``col_perms[t]``, so one cached table per
such pair maps a column permutation to those n bytes, and C-level ``map`` and
``join`` do the per-matrix work.  ``cell_index`` reads one Python int per cell
off its column's row, with bit j set iff matrix j covers the cell, and
interleaves the rows into each matrix's n² cells in global-column order.
Matrix i shares a cell with matrix j iff bit j is set in the OR of the
bitsets of i's n² cells, so i's disjoint partners number N minus the popcount
of that OR; every pair is still tested, all of one row at once.

The scan reuses shared ORs.  The first n² − n cells of a row, block columns
1 … n − 1, do not depend on the last column permutation, so in enumeration
order they repeat over runs of n! rows and their OR is kept while they do.
The last n cells, block column n, take at most n!·n^n distinct values (162
at n = 3), and the OR of each is memoized.  Both are exact in any row order.

The partner counts of all rows give both results: their sum is the ordered
pair count, which must be even and halves to the unordered one, and their
tally is the degree histogram.

Every call uses every CPU the process may run on, unless ``workers`` caps
it.  Once the cell index is built, the rows are cut into one contiguous span
per process and ``os.fork`` starts one child per span after the first; each
child inherits the index copy-on-write, tallies its span with the same
kernel and writes the tally to a pipe as decimal text.  The parent tallies
the first span, then reads and reaps every child.  Partial tallies are exact
ints, so the result is identical for any worker count; their frequencies
must sum to the matrix count, so a span tallied twice or lost is an error.
Where ``os.fork`` is missing, or another thread is alive, the scan runs in
one process.
"""

from __future__ import annotations

import math
import os
import sys
import time
from collections import Counter
from functools import cache
from itertools import groupby, permutations
from operator import attrgetter
from typing import Iterator, NamedTuple

from .sperm import Perm, SizeLimitError, enumerate_matrices

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
    """Every matrix's cells as an (n², count) uint8 memoryview, enumeration order.

    Byte j of row g is the cell that matrix j holds in global column g.  The
    benchmark wraps this function by name, so the name stays until the
    program emits its own spans (ROADMAP item 5).
    """
    n2 = n * n
    perms = list(permutations(range(1, n + 1)))

    @cache
    def column_table(t: int, block_rows: tuple[int, ...]) -> dict[Perm, bytes]:
        # p -> the cells of block column t, 0-based, under column permutation
        # p: block (s, t) holds its 1 at global row s·n + block_rows[s] − 1 and
        # global column t·n + p[s] − 1, as in SPermMatrix.mask; by column
        return {p: bytes((s * n + block_rows[s] - 1) * n2 + t * n + p[s] - 1
                         for s in sorted(range(n), key=p.__getitem__))
                for p in perms}

    chunks: list[list[bytes]] = [[] for _ in range(n)]  # per block column t
    for rows, group in groupby(enumerate_matrices(n), attrgetter("row_perms")):
        for t, cols in enumerate(zip(*map(attrgetter("col_perms"), group))):
            table = column_table(t, tuple(row[t] for row in rows))
            chunks[t].append(b"".join(map(table.__getitem__, cols)))
    streams = [b"".join(chunk) for chunk in chunks]  # n bytes per matrix each
    raw = b"".join(stream[k::n] for stream in streams for k in range(n))
    return memoryview(raw).cast("B", (n2, len(raw) // n2))


def cell_index(columns: memoryview) -> CellIndex:
    """Per-cell bitsets and per-matrix cells from the column rows of ``mask_words``.

    Cell c = r·n² + g can only sit in row g, so its bitset is row g, reversed
    to put matrix 0 last, with byte c read as "1" and every other byte as "0".
    """
    width, total = columns.shape
    raw = columns.tobytes()
    zeros = b"0" * 256
    bitsets = [0] * (width * width)
    cells = bytearray(total * width)
    for g in range(width):
        row = raw[g * total:(g + 1) * total]
        backwards = row[::-1]
        for c in range(g, width * width, width):
            bitsets[c] = int(backwards.translate(zeros[:c] + b"1" + zeros[c + 1:]), 2)
        cells[g::width] = row
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


def _fork_span(index: CellIndex, i0: int, i1: int) -> tuple[int, int]:
    """Fork a child that tallies rows [i0, i1); return its pid and its pipe's read end.

    The child writes its tally as decimal ``count freq`` pairs and leaves by
    ``os._exit``, so it never returns into the caller's stack and never
    flushes the stdio buffers it inherited.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:
        try:
            os.close(r)
            tally = _span_tally(index, i0, i1)
            text = memoryview(" ".join(f"{c} {f}" for c, f in tally.items()).encode())
            while text:
                text = text[os.write(w, text):]
            os._exit(0)
        finally:
            os._exit(1)
    os.close(w)
    return pid, r


def _read_all(fd: int) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _tally(n: int, workers: int | None) -> tuple[Counter, int]:
    """Tally of the partner counts of every matrix, and the matrix count.

    Rows are tallied in ``min(workers or CPUs, CPUs, rows)`` processes, one
    contiguous span each; raises RuntimeError if a child process fails and
    ArithmeticError if the tallies do not cover every row once.
    """
    check_census_cap(n)
    if workers is not None and workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    columns = mask_words(n)
    total = columns.shape[1]
    index = cell_index(columns)
    # the answer does not depend on the process count, so never start more
    # processes than there are CPUs to run them or rows to hand out
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))  # the CPUs this process may run on
    else:
        cpus = os.cpu_count() or 1
    # a forked child keeps only the forking thread, and any lock another
    # thread held stays held in it, so with other threads alive do not fork
    threading = sys.modules.get("threading")
    alone = threading is None or threading.active_count() == 1
    procs = min(workers or cpus, cpus, total) if hasattr(os, "fork") and alone else 1
    cuts = [total * k // procs for k in range(procs + 1)]
    children: list[tuple[int, int]] = []  # pid, read end of its pipe
    try:
        for i0, i1 in zip(cuts[1:], cuts[2:]):
            children.append(_fork_span(index, i0, i1))
        tally = _span_tally(index, 0, cuts[1])
        texts = [_read_all(fd) for _pid, fd in children]
    except BaseException:
        import signal

        for pid, _fd in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        statuses = []
        for pid, fd in children:
            os.close(fd)
            statuses.append(os.waitpid(pid, 0)[1])
    for (pid, _fd), status, text in zip(children, statuses, texts):
        code = os.waitstatus_to_exitcode(status)
        if code:
            how = f"died by signal {-code}" if code < 0 else f"exited with code {code}"
            raise RuntimeError(f"census child {pid} {how}")
        fields = text.split()
        try:
            for count, freq in zip(fields[::2], fields[1::2], strict=True):
                tally[int(count)] += int(freq)
        except ValueError:
            raise RuntimeError(f"census child {pid} sent unparseable {text[:60]!r}") from None
    if sum(tally.values()) != total:
        raise ArithmeticError(
            f"partner-count tallies at block order {n} cover "
            f"{sum(tally.values())} rows, not {total}"
        )
    return tally, total


def run_census(n: int, workers: int | None = None) -> CensusResult:
    """Count disjoint pairs over the full matrix set by cell intersection.

    The ordered count is the sum of every matrix's disjoint-partner count;
    raises ArithmeticError if that sum is odd, since each unordered pair
    is counted from both ends.  The rows are tallied on every CPU this
    process may run on, or on at most ``workers`` processes, one contiguous
    span each.
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

    The mass sum(count * frequency) equals the ordered pair count.  The rows
    are tallied on every CPU this process may run on, as in ``run_census``.
    """
    tally, _total = _tally(n, None)
    return dict(tally)
