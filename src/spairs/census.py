"""Brute-force census of disjoint matrix pairs, independent of the formula.

``mask_words`` reads each matrix's 2n block permutations and writes, as one
byte, the cell it holds in each global column: row g of the (n², N) byte view
is column g's cell for every matrix, in enumeration order.  Under one
``row_perms`` tuple, the n cells of block column t depend only on column t of
``row_perms`` and on ``col_perms[t]``, so ``column_table`` maps a column
permutation to those n cells, and C-level ``map`` and ``join`` do the
per-matrix work.  ``cell_index`` reads one Python int per cell off its
column's row, with bit j set iff matrix j covers the cell.

The scan walks the rows, matrices i, by their block permutations, in (n!)^n
groups that share ``row_perms``; lane j, bit j of every bitset, is matrix j.
Row i misses lane j iff bit j is clear in the OR of the n cell bitsets of
each of i's block columns.  In a group, block column t has n! such ORs, its
options, which depend only on t and column t of ``row_perms``, so lane j's
partner count is Σ over groups of Π over t of u_t(j), the number of column
t's options that miss j.  Each u_t is one bit-sliced counter over the lanes,
and each group's product is expanded over the counters' slices into one
bit-sliced accumulator; splitting the lanes by its slices gives the tally.
Every pair is still decided by j's own bit in i's cells, and no count
depends on which bit stands for which matrix.

Every call uses every CPU the process may run on, unless ``workers`` caps
it.  Once the bitsets are built, the groups are cut into one contiguous span
per process, and each span owns its groups' lanes.  ``os.fork`` starts one
child per span after the first; each child inherits the bitsets
copy-on-write, walks every row against its lanes and writes its row count
and tally to a pipe as decimal text.  The parent counts the first span,
then reads and reaps every child.  The parts are exact ints, so the result
is identical for any worker count.  Each span must walk every row, the
tallies must count every matrix once, and the merged tally's mass, the
ordered pair count, must be even.  Where ``os.fork`` is missing, or another
thread is alive, the scan runs in one process.
"""

from __future__ import annotations

import math
import os
import sys
import time
from collections import Counter
from functools import cache, reduce
from itertools import groupby, permutations, product
from operator import attrgetter, or_
from typing import NamedTuple

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


def _add(slices: list[int], k: int, bits: int) -> None:
    """Add 2^k to the count of each lane set in ``bits``; slice i holds bit i of every count."""
    while bits:
        slices[k], bits = slices[k] ^ bits, slices[k] & bits
        k += 1


def _span(bitsets: list[int], g0: int, g1: int) -> tuple[int, Counter]:
    """Rows walked, and the partner counts' tally, for the matrices of groups [g0, g1).

    Those matrices are lanes [g0·R, g1·R), R = (n!)^n, and every group is
    walked.  One more lane, held by no cell, is missed by every option, so
    its count is the number of rows walked.
    """
    n = math.isqrt(math.isqrt(len(bitsets)))  # there are n⁴ cells
    per_group = math.factorial(n) ** n
    lanes = (g1 - g0) * per_group
    mask = (1 << lanes) - 1
    full = mask | 1 << lanes  # the lanes and the row-counting lane
    cells = [b >> g0 * per_group & mask for b in bitsets]

    @cache
    def misses(t: int, column: Perm) -> list[int]:
        # how many of block column t's options miss each lane, bit-sliced
        slices = [0] * math.factorial(n).bit_length()
        for option in column_table(n, t, column).values():
            _add(slices, 0, full ^ reduce(or_, map(cells.__getitem__, option)))
        return slices

    acc = [0] * matrix_count(n).bit_length()  # no count exceeds the matrix count
    for group in product(permutations(range(1, n + 1)), repeat=n):
        # expand the product over the counters' slices, dropping empty terms
        terms = [(0, full)]
        for t, column in enumerate(zip(*group)):
            terms = [(w + k, b) for w, a in terms
                     for k, s in enumerate(misses(t, column)) if (b := a & s)]
        for w, a in terms:
            _add(acc, w, a)
    rows = sum((s >> lanes & 1) << k for k, s in enumerate(acc))
    parts = [(0, mask)]  # (count so far, lanes with it), split by each slice
    for k in reversed(range(len(acc))):
        parts = [(v | bit << k, b) for v, a in parts
                 for bit, b in ((1, a & acc[k]), (0, a & ~acc[k])) if b]
    return rows, Counter({v: a.bit_count() for v, a in parts})


def check_census_cap(n: int) -> None:
    """Raise SizeLimitError if a census at block order n is past the cap."""
    check_cap(n, CENSUS_CAP, f"census at block order {n} means ~({n}!)^{4 * n}/2 pair tests")


def _fork_span(bitsets: list[int], g0: int, g1: int) -> tuple[int, int]:
    """Fork a child that runs ``_span`` on groups [g0, g1); return its pid and pipe's read end.

    The child writes its rows and its tally's ``count freq`` pairs as
    decimal text and leaves by ``os._exit``, so it never returns into the
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
            rows, tally = _span(bitsets, g0, g1)
            with open(w, "wb") as pipe:
                fields = [rows, *(x for item in tally.items() for x in item)]
                pipe.write(" ".join(map(str, fields)).encode())
            os._exit(0)
        finally:
            os._exit(1)
    os.close(w)
    return pid, r


def _scan(n: int, workers: int | None) -> tuple[int, Counter, int]:
    """The ordered pair count, the merged tally and the matrix count.

    ``_span`` counts the partners of the matrices in groups [g0, g1), in
    ``min(workers or CPUs, CPUs, groups)`` processes, one contiguous span
    each; the pair count is the merged tally's mass.  Raises RuntimeError if
    a child process fails, and ArithmeticError if a span did not walk every
    row, the spans do not count every matrix once, or the mass is odd.
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
            children.append(_fork_span(bitsets, g0, g1))
        parts = [_span(bitsets, 0, cuts[1])]
        texts = [open(fd, "rb", closefd=False).read() for _pid, fd in children]
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
            rows, *fields = map(int, text.split())
            counts = Counter(dict(zip(fields[::2], fields[1::2], strict=True)))
        except ValueError:
            raise RuntimeError(f"census child {pid} sent unparseable {text[:60]!r}") from None
        parts.append((rows, counts))
    tally = Counter()
    for g0, g1, (rows, counts) in zip(cuts, cuts[1:], parts):
        if rows != total:
            raise ArithmeticError(f"census span of groups [{g0}, {g1}) at block order {n} "
                                  f"walked {rows} rows, not {total}")
        tally.update(counts)
    if tally.total() != total:
        raise ArithmeticError(f"census spans at block order {n} count {tally.total()} "
                              f"matrices, not {total}")
    ordered = sum(count * freq for count, freq in tally.items())
    if ordered % 2:
        raise ArithmeticError(f"partner counts at block order {n} sum to odd {ordered}")
    return ordered, tally, total


def run_census(n: int, workers: int | None = None) -> CensusResult:
    """Count disjoint pairs over the full matrix set by cell intersection.

    The ordered count is the sum of every matrix's disjoint-partner count,
    taken lane by lane in bit-sliced counters; raises ArithmeticError if it
    is odd, since each unordered pair is counted from both ends.  The lanes
    are counted on every CPU this process may run on, or on at most
    ``workers`` processes, one contiguous span of groups each.
    """
    start = time.perf_counter()
    ordered, _tally, total = _scan(n, workers)
    elapsed = time.perf_counter() - start
    return CensusResult(n, ordered, ordered // 2, total, elapsed)


def degree_histogram(n: int) -> dict[int, int]:
    """Map from disjoint-partner count to how many matrices have it.

    The counts are the lanes' counts that ``run_census`` sums, split by
    value.  The mass sum(count * frequency) is the ordered pair count, so it
    must be even.  The lanes are counted on every CPU, as in ``run_census``.
    """
    _ordered, tally, _total = _scan(n, None)
    return dict(tally)
