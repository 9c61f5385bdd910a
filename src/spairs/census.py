"""Brute-force census of disjoint matrix pairs, independent of the formula.

``mask_words`` reads each matrix's 2n block permutations and writes, as one
byte, the cell it holds in each global column: row g of the (n², N) byte view
is column g's cell for every matrix, in enumeration order.  Under one
``row_perms`` tuple, the n cells of block column t depend only on column t of
``row_perms`` and on ``col_perms[t]``, so ``column_table`` maps a column
permutation to those n cells, and C-level ``map`` and ``join`` do the
per-matrix work.  ``cell_index`` reads one Python int per cell off its
column's row, with bit j set iff matrix j covers the cell.  Matrix i shares a
cell with matrix j iff bit j is set in the OR of the bitsets of i's n² cells,
so i's disjoint partners number N minus the popcount of that OR; every pair
is still tested by its own bit.

The scan walks the matrices by their block permutations, in (n!)^n groups
that share ``row_perms``.  Per block column, a group has n! ORs of that
column's n cell bitsets, one per column permutation: block column 1's are
the group's heads, and the product-ORs of block columns 2 … n's, in
enumeration order, are its tails, so row (h, r) shares a cell with exactly
the matrices in h | r.  The traversal enumerates the rows itself, and a
popcount does not depend on which bit stands for which matrix, so the count
is exact under any bit labelling of the bitsets.  ``run_census`` sums a
group's covered matrices, Σ_h (T·|h| + Σ_r |r ∖ h|) over its T tails, by a
bit-sliced count of the tails and a few popcounts per head, not one per row;
``degree_histogram`` tallies each row's count, N − |h | r|.

Every call uses every CPU the process may run on, unless ``workers`` caps
it.  Once the bitsets are built, the groups are cut into one contiguous span
per process and ``os.fork`` starts one child per span after the first; each
child inherits the bitsets copy-on-write, reduces its span and writes its row
count, partner-count sum and tally to a pipe as decimal text.  The parent
reduces the first span, then reads and reaps every child.  The parts are
exact ints, so the result is identical for any worker count; their rows
must sum to the matrix count, so a span counted twice or lost is an error.
Where ``os.fork`` is missing, or another thread is alive, the scan runs in
one process.
"""

from __future__ import annotations

import math
import os
import sys
import time
from collections import Counter
from functools import cache, reduce
from itertools import groupby, islice, permutations, product
from operator import attrgetter, or_
from typing import Iterator, NamedTuple

from .sperm import Perm, check_cap, enumerate_matrices, matrix_count

CENSUS_CAP = 3  # n=4 would be ~6e21 pair tests


class CensusResult(NamedTuple):
    n: int
    ordered_pairs: int
    unordered_pairs: int
    matrices_scanned: int
    elapsed_seconds: float


@cache
def column_table(n: int, t: int, block_rows: tuple[int, ...]) -> dict[Perm, bytes]:
    """Column permutation p -> the 0-based cells of block column t, by column.

    ``block_rows[s]`` is ``row_perms[s][t]``: block (s, t) holds its 1 at
    global row s·n + block_rows[s] − 1 and global column t·n + p[s] − 1, as in
    SPermMatrix.mask.  The keys run in lexicographic order, as in the
    enumeration.
    """
    n2 = n * n
    return {p: bytes((s * n + block_rows[s] - 1) * n2 + t * n + p[s] - 1
                     for s in sorted(range(n), key=p.__getitem__))
            for p in permutations(range(1, n + 1))}


def mask_words(n: int) -> memoryview:
    """Every matrix's cells as an (n², count) uint8 memoryview, enumeration order.

    Byte j of row g is the cell that matrix j holds in global column g.  The
    benchmark wraps this function by name, so the name stays until the
    program emits its own spans (ROADMAP item 6).
    """
    chunks: list[list[bytes]] = [[] for _ in range(n)]  # per block column t
    for rows, group in groupby(enumerate_matrices(n), attrgetter("row_perms")):
        for t, cols in enumerate(zip(*map(attrgetter("col_perms"), group))):
            table = column_table(n, t, tuple(row[t] for row in rows))
            chunks[t].append(b"".join(map(table.__getitem__, cols)))
    streams = [b"".join(chunk) for chunk in chunks]  # n bytes per matrix each
    raw = b"".join(stream[k::n] for stream in streams for k in range(n))
    return memoryview(raw).cast("B", (n * n, len(raw) // (n * n)))


def cell_index(columns: memoryview) -> list[int]:
    """Per-cell bitsets, bit j set iff matrix j covers the cell, from ``mask_words``.

    Cell c = r·n² + g can only sit in row g, so its bitset is row g, reversed
    to put matrix 0 last, with byte c read as "1" and every other byte as "0".
    """
    width, total = columns.shape
    raw = columns.tobytes()
    zeros = b"0" * 256
    bitsets = [0] * (width * width)
    for g in range(width):
        backwards = raw[g * total:(g + 1) * total][::-1]
        for c in range(g, width * width, width):
            bitsets[c] = int(backwards.translate(zeros[:c] + b"1" + zeros[c + 1:]), 2)
    return bitsets


def _order(bitsets: list[int]) -> int:
    return math.isqrt(math.isqrt(len(bitsets)))  # n, since there are n⁴ cells


def _groups(bitsets: list[int], g0: int, g1: int) -> Iterator[tuple[list[int], list[int]]]:
    """(heads, tails) for each ``row_perms`` group in [g0, g1), enumeration order.

    The group's rows are (h, r) for each head h, then each tail r, and row
    (h, r) shares a cell with exactly the matrices in h | r.
    """
    n = _order(bitsets)
    words = list(permutations(range(1, n + 1)))
    for rows in islice(product(words, repeat=n), g0, g1):
        heads, *rest = ([reduce(or_, map(bitsets.__getitem__, cells)) for cells in
                         column_table(n, t, tuple(row[t] for row in rows)).values()]
                        for t in range(n))
        tails = [0]
        for table in rest:
            tails = [r | c for r in tails for c in table]
        yield heads, tails


def _span_pairs(bitsets: list[int], g0: int, g1: int) -> tuple[int, int, Counter]:
    """Groups [g0, g1)'s row count and partner-count sum, and an empty tally.

    Slice k of a ripple-carry counter holds bit k of how many of a group's
    tails hold each matrix, so Σ_r |r ∖ h| is Σ_k 2^k·|slice k ∖ h|.
    """
    total = matrix_count(_order(bitsets))
    rows = covered = 0
    for heads, tails in _groups(bitsets, g0, g1):
        slices: list[int] = []
        for carry in tails:
            for k, s in enumerate(slices):
                slices[k], carry = s ^ carry, s & carry
            if carry:
                slices.append(carry)
        rows += len(heads) * len(tails)
        for h in heads:
            outside = ~h
            covered += len(tails) * h.bit_count()
            covered += sum((s & outside).bit_count() << k for k, s in enumerate(slices))
    return rows, total * rows - covered, Counter()


def _span_partners(bitsets: list[int], g0: int, g1: int) -> tuple[int, int, Counter]:
    """Groups [g0, g1)'s row count, partner-count sum and tally of partner counts."""
    total = matrix_count(_order(bitsets))
    tally = Counter(total - (h | r).bit_count()
                    for heads, tails in _groups(bitsets, g0, g1) for h in heads for r in tails)
    return tally.total(), sum(c * f for c, f in tally.items()), tally


def check_census_cap(n: int) -> None:
    """Raise SizeLimitError if a census at block order n is past the cap."""
    check_cap(n, CENSUS_CAP, f"census at block order {n} means ~({n}!)^{4 * n}/2 pair tests")


def _fork_span(bitsets: list[int], g0: int, g1: int, span) -> tuple[int, int]:
    """Fork a child that runs ``span`` on groups [g0, g1); return its pid and pipe's read end.

    The child writes its rows, its sum and its tally's ``count freq`` pairs
    as decimal text and leaves by ``os._exit``, so it never returns into the
    caller's stack and never flushes the stdio buffers it inherited.
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
            rows, ordered, tally = span(bitsets, g0, g1)
            fields = [rows, ordered, *(x for item in tally.items() for x in item)]
            text = memoryview(" ".join(map(str, fields)).encode())
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


def _scan(n: int, workers: int | None, span) -> tuple[int, Counter, int]:
    """The partner-count sum, the merged tally and the matrix count.

    ``span`` reduces groups [g0, g1) to their row count, sum and tally, in
    ``min(workers or CPUs, CPUs, groups)`` processes, one contiguous span
    each.  Raises RuntimeError if a child process fails, and ArithmeticError
    if the spans do not cover every row once or the sum is odd.
    """
    check_census_cap(n)
    if workers is not None and (type(workers) is not int or workers < 1):
        raise ValueError(f"worker count must be an int >= 1, got {workers!r}")
    columns = mask_words(n)
    total = columns.shape[1]
    groups = math.isqrt(total)  # (n!)^n row_perms groups of (n!)^n rows each
    bitsets = cell_index(columns)
    # the answer does not depend on the process count, so never start more
    # processes than there are CPUs to run them or groups to hand out
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))  # the CPUs this process may run on
    else:
        cpus = os.cpu_count() or 1
    # a forked child keeps only the forking thread, and any lock another
    # thread held stays held in it, so with other threads alive do not fork
    threading = sys.modules.get("threading")
    alone = threading is None or threading.active_count() == 1
    procs = min(workers or cpus, cpus, groups) if hasattr(os, "fork") and alone else 1
    cuts = [groups * k // procs for k in range(procs + 1)]
    children: list[tuple[int, int]] = []  # pid, read end of its pipe
    try:
        for g0, g1 in zip(cuts[1:], cuts[2:]):
            children.append(_fork_span(bitsets, g0, g1, span))
        rows, ordered, tally = span(bitsets, 0, cuts[1])
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
        try:
            span_rows, span_sum, *fields = map(int, text.split())
            for count, freq in zip(fields[::2], fields[1::2], strict=True):
                tally[count] += freq
        except ValueError:
            raise RuntimeError(f"census child {pid} sent unparseable {text[:60]!r}") from None
        rows, ordered = rows + span_rows, ordered + span_sum
    if rows != total:
        raise ArithmeticError(f"census spans at block order {n} cover {rows} rows, not {total}")
    if ordered % 2:
        raise ArithmeticError(f"partner counts at block order {n} sum to odd {ordered}")
    return ordered, tally, total


def run_census(n: int, workers: int | None = None) -> CensusResult:
    """Count disjoint pairs over the full matrix set by cell intersection.

    The ordered count is the sum of every matrix's disjoint-partner count,
    taken by bit-sliced counters over each ``row_perms`` group's tails;
    raises ArithmeticError if it is odd, since each unordered pair is counted
    from both ends.  The groups are scanned on every CPU this process may run
    on, or on at most ``workers`` processes, one contiguous span each.
    """
    start = time.perf_counter()
    ordered, _tally, total = _scan(n, workers, _span_pairs)
    elapsed = time.perf_counter() - start
    return CensusResult(n, ordered, ordered // 2, total, elapsed)


def degree_histogram(n: int) -> dict[int, int]:
    """Map from disjoint-partner count to how many matrices have it.

    Row (h, r)'s count is N − |h | r|, over the groups ``run_census`` sums.
    The mass sum(count * frequency) is the ordered pair count, so it must be
    even.  The groups are tallied on every CPU, as in ``run_census``.
    """
    _ordered, tally, _total = _scan(n, None, _span_partners)
    return dict(tally)
