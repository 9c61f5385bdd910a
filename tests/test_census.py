import math
import os
import random
import signal
import threading
import time
from collections import Counter
from functools import cache
from itertools import groupby, islice
from operator import attrgetter

import pytest

from spairs import (
    SizeLimitError,
    cell_bitsets,
    census,
    cli,
    degree_histogram,
    enumerate_matrices,
    matrix_count,
    run_census,
)
from spairs.census import cell_index, mask_words


class TestSmallCensus:
    def test_n1_has_no_disjoint_pairs(self):
        result = run_census(1)
        assert result.matrices_scanned == 1
        assert result.ordered_pairs == 0
        assert result.unordered_pairs == 0

    def test_n2_counts(self):
        result = run_census(2)
        assert result.n == 2
        assert result.matrices_scanned == 16
        assert result.ordered_pairs == 112
        assert result.unordered_pairs == 56
        assert result.elapsed_seconds > 0

    def test_worker_count_never_changes_the_answer(self):
        reference = run_census(2, workers=1)
        for workers in (2, 3, 5, 64, None):
            result = run_census(2, workers=workers)
            assert result.ordered_pairs == reference.ordered_pairs
            assert result.unordered_pairs == reference.unordered_pairs


class TestFullCensus:
    def test_n3_counts(self, census3):
        assert census3.matrices_scanned == 46656
        assert census3.ordered_pairs == 838_501_632
        assert census3.unordered_pairs == 419_250_816

    def test_n3_parallel_agreement(self, census3, census3_two_workers):
        assert census3_two_workers.ordered_pairs == census3.ordered_pairs
        assert census3_two_workers.unordered_pairs == census3.unordered_pairs
        assert census3_two_workers.matrices_scanned == census3.matrices_scanned


class TestHistogram:
    def test_n1(self):
        assert degree_histogram(1) == {0: 1}

    def test_n2_partner_count_is_uniform(self):
        assert degree_histogram(2) == {7: 16}

    def test_n3_partner_count_is_uniform(self, histogram3, census3):
        # relabeling blocks acts transitively on matrices and preserves
        # disjointness, so one partner count fits all
        assert histogram3 == {17972: 46656}
        mass = sum(count * freq for count, freq in histogram3.items())
        assert mass == census3.ordered_pairs


def _groups(n):
    # the row_perms groups of the enumeration, (n!)^n of (n!)^n matrices each
    return math.factorial(n) ** n


def _lanes(bitsets, n, g0, g1):
    # lanes [g0·R, g1·R) of whole-range bitsets, shifted down to bit 0: the
    # bitsets the span of groups [g0, g1) builds for itself
    per_group = _groups(n)
    return [b >> g0 * per_group & (1 << (g1 - g0) * per_group) - 1 for b in bitsets]


def _cells_by_column(m):
    # a matrix's cells in global-column order: its set bits sorted by
    # (column, row); a permutation matrix has one per column
    n2 = m.n * m.n
    bits = m.mask
    return sorted((p for p in range(bits.bit_length()) if bits >> p & 1),
                  key=lambda p: (p % n2, p // n2))


class TestMaskWords:
    # byte j of row g is the cell matrix j holds in global column g, built
    # from the block permutations; SPermMatrix.mask is an independent route

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_shape_and_itemsize(self, n):
        columns = mask_words(n, 0, _groups(n))
        assert columns.shape == (n * n, matrix_count(n))
        assert columns.itemsize == 1

    def test_bytes_follow_every_mask_n2(self):
        rows = mask_words(2, 0, 4).tolist()
        for j, m in enumerate(enumerate_matrices(2)):
            assert [row[j] for row in rows] == _cells_by_column(m)

    def test_bytes_follow_sampled_masks_n3(self):
        columns = mask_words(3, 0, 216)
        total = columns.shape[1]
        raw = columns.tobytes()
        picks = set(random.Random(11).sample(range(total), 64))
        checked = 0
        for j, m in enumerate(enumerate_matrices(3)):
            if j in picks:
                assert list(raw[j::total]) == _cells_by_column(m)
                checked += 1
        assert checked == 64


@pytest.fixture(scope="module")
def bitsets3():
    return cell_index(mask_words(3, 0, 216))


class TestCellIndex:
    # the census reads its bitsets off the column rows that mask_words
    # builds from each matrix's permutations; sperm.cell_bitsets builds the
    # same bitsets from the digits of the matrix index, sharing no code

    @pytest.mark.parametrize("n", [1, 2])
    def test_bitsets_equal_the_digit_built_index(self, n):
        assert cell_index(mask_words(n, 0, _groups(n))) == cell_bitsets(n)

    def test_bitsets_equal_the_digit_built_index_n3(self, bitsets3):
        assert bitsets3 == cell_bitsets(3)

    def test_index_follows_any_enumeration_order(self, monkeypatch):
        mats = list(enumerate_matrices(2))
        random.Random(4).shuffle(mats)
        # matrices that share row_perms no longer sit in one run, so the
        # build meets each row_perms again in later runs
        assert len(list(groupby(mats, attrgetter("row_perms")))) > 4
        monkeypatch.setattr(census, "enumerate_matrices", lambda n: iter(mats))
        bitsets = cell_index(mask_words(2, 0, 4))
        for j, m in enumerate(mats):
            bits = m.mask
            assert [b >> j & 1 for b in bitsets] == [bits >> c & 1 for c in range(16)]
        # the scan walks the permutations itself, so a shuffled bit
        # labelling changes no count
        result = run_census(2)
        assert (result.ordered_pairs, result.unordered_pairs) == (112, 56)
        assert degree_histogram(2) == {7: 16}


# every span at n = 2, and at n = 3 one from the middle of the range and all
SPANS = {2: [(g0, g1) for g0 in range(5) for g1 in range(g0, 5)], 3: [(100, 103), (0, 216)]}


@pytest.mark.parametrize("n, g0, g1", [(2, g0, g1) for g0, g1 in SPANS[2] if g0 < g1]
                         + [(3, 100, 103)])
def test_a_span_builds_only_its_own_lanes(n, g0, g1, bitsets3, monkeypatch):
    # each census process builds the bitsets of its own span from its own
    # pass over the enumeration, and draws no matrix past the span's end
    whole = bitsets3 if n == 3 else cell_bitsets(n)
    drawn = Counter()
    real_enumerate = census.enumerate_matrices

    def counting_enumerate(n):
        for m in real_enumerate(n):
            drawn[n] += 1
            yield m

    monkeypatch.setattr(census, "enumerate_matrices", counting_enumerate)
    assert cell_index(mask_words(n, g0, g1)) == _lanes(whole, n, g0, g1)
    assert drawn == {n: g1 * _groups(n)}


def test_each_entry_point_builds_the_index_once(monkeypatch):
    # the benchmark wraps census.mask_words and replaces the census's own
    # enumerate_matrices binding, so both must stay on every census path;
    # each process builds its own span's bitsets, so with one CPU the
    # parent's one call draws all 16 matrices, and with two only the 8 of
    # its own span, the first two of 4 groups
    calls = Counter()
    real_words, real_enumerate = census.mask_words, census.enumerate_matrices

    def counting_words(n, g0, g1):
        calls["mask_words"] += 1
        return real_words(n, g0, g1)

    def counting_enumerate(n):
        calls["enumerate_matrices"] += 1
        for m in real_enumerate(n):
            calls["matrices"] += 1
            yield m

    monkeypatch.setattr(census, "mask_words", counting_words)
    monkeypatch.setattr(census, "enumerate_matrices", counting_enumerate)
    for cpus, matrices in ((1, 16), (2, 8)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        expected = {"mask_words": 1, "enumerate_matrices": 1, "matrices": matrices}
        for call, result in ((lambda: run_census(2).ordered_pairs, 112),
                             (lambda: degree_histogram(2), {7: 16})):
            calls.clear()
            assert call() == result
            assert calls == expected


def _with_random_bitsets(bitsets, n, seed):
    # every matrix has the same partner count, so a kernel that counts a
    # lane against the wrong cells can still give the right count; random
    # bitsets make each lane's count depend on exactly its own bits
    rng = random.Random(seed)
    return [rng.getrandbits(matrix_count(n)) for _ in bitsets]


def _reference(bitsets, n, spans):
    # per span [g0, g1) of groups, in one pass over the matrices i: the
    # tally, over its lanes j, of how many i have bit j clear in the OR of
    # the bitsets of the cells i's mask holds
    total, per_group = matrix_count(n), math.factorial(n) ** n
    lanes = {(g0, g1): (g0 * per_group, (g1 - g0) * per_group) for g0, g1 in spans}
    counters = {span: [] for span in spans}  # slice k: bit k of each lane's hits
    for m in enumerate_matrices(n):
        bits, cover = m.mask, 0
        while bits:
            low = bits & -bits
            cover |= bitsets[low.bit_length() - 1]
            bits ^= low
        for span, (lo, width) in lanes.items():
            carry = cover >> lo & (1 << width) - 1
            slices, k = counters[span], 0
            while carry:
                if k == len(slices):
                    slices.append(0)
                slices[k], carry = slices[k] ^ carry, slices[k] & carry
                k += 1
    out = {}
    for span, (lo, width) in lanes.items():
        # lane j's hits, in binary, are bit j of each slice, the highest
        # first; the i with bit j clear are the rest
        digits = [format(s, f"0{width}b") for s in reversed(counters[span])] or ["0" * width]
        out[span] = Counter(total - int("".join(bits), 2) for bits in zip(*digits))
    return out


@cache
def _case(n, seed):
    # the census's bitsets over every lane, or random ones, and their
    # reference per span
    bitsets = cell_index(mask_words(n, 0, _groups(n)))
    if seed is not None:
        bitsets = _with_random_bitsets(bitsets, n, seed)
    elif n == 3:
        # every matrix at n = 3 has 17 972 partners (TestHistogram), so the
        # census's own bitsets need no second pass over every row
        return bitsets, {(g0, g1): Counter({17972: (g1 - g0) * _groups(n)})
                         for g0, g1 in SPANS[n]}
    return bitsets, _reference(bitsets, n, SPANS[n])


def _assert_tallies(bitsets, n, reference):
    # every row walked, and the lanes' counts as the reference counts them,
    # from the span's own lanes of the bitsets
    for (g0, g1), tally in reference.items():
        assert census._span(_lanes(bitsets, n, g0, g1), g0, g1) == (matrix_count(n), tally)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_spans_partition_the_lanes(n):
    # span [g0, g1) counts lanes [g0·R, g1·R) against every row, so the two
    # spans of any cut of the groups add up to the whole range
    bitsets = _with_random_bitsets(cell_bitsets(n), n, 5)
    groups = _groups(n)
    whole = census._span(bitsets, 0, groups)
    for k in sorted({0, 1, groups // 3, groups}):
        parts = [census._span(_lanes(bitsets, n, g0, g1), g0, g1)
                 for g0, g1 in ((0, k), (k, groups))]
        assert [rows for rows, _ in parts] == [matrix_count(n)] * 2
        assert parts[0][1] + parts[1][1] == whole[1]


class TestPartnerKernel:
    # the tally of the lanes' partner counts, against the reference's

    @pytest.mark.parametrize("seed", [None, 1])
    def test_every_row_n2(self, seed):
        bitsets, reference = _case(2, seed)
        _assert_tallies(bitsets, 2, reference)

    @pytest.mark.parametrize("seed", [None, 2])
    def test_sampled_rows_n3(self, seed):
        bitsets, reference = _case(3, seed)
        _assert_tallies(bitsets, 3, reference)

    @pytest.mark.parametrize("bitset", [None, 0])
    def test_n1_has_no_cells_past_the_run_prefix(self, bitset):
        # n = 1: one cell, one group, one row and one lane, which the row
        # misses only if the cell's bitset does not hold it
        bitsets = cell_index(mask_words(1, 0, 1)) if bitset is None else [bitset]
        reference = _reference(bitsets, 1, [(0, 1)])
        assert reference[0, 1] == ({0: 1} if bitset is None else {1: 1})
        _assert_tallies(bitsets, 1, reference)


def _each_entry_point(wrap):
    # each census entry point at n = 2, while ``_span``, which both call,
    # is replaced by wrap(_span)
    for call in (lambda: run_census(2), lambda: degree_histogram(2)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(census, "_span", wrap(census._span))
            yield call


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestFork:
    @pytest.fixture
    def forks(self, monkeypatch):
        # pids of the children forked, recorded in the parent
        pids = []
        fork = os.fork

        def counting_fork():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        return pids

    @pytest.fixture
    def cpus(self, monkeypatch):
        # sets how many CPUs the census sees, so how many spans it forks
        def use(count):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                                raising=False)
        return use

    @pytest.fixture
    def many_cpus(self, cpus):
        cpus(128)

    def test_forks_never_exceed_the_cpus(self, forks):
        result = run_census(2, workers=64)
        assert (result.ordered_pairs, result.unordered_pairs) == (112, 56)
        # 4 row_perms groups at n = 2, so at most 4 spans
        assert len(forks) == min(len(os.sched_getaffinity(0)), 4) - 1
        _assert_no_children()

    def test_forks_never_exceed_the_spans(self, forks, many_cpus):
        # spans are cut at row_perms groups: 4 at n = 2, 1 at n = 1
        assert run_census(2, workers=64).ordered_pairs == 112
        assert len(forks) == 3
        assert run_census(1, workers=8).ordered_pairs == 0
        assert len(forks) == 3
        # 3 spans of 4 groups are uneven; every row is still tallied once
        result = run_census(2, workers=3)
        assert (result.ordered_pairs, result.unordered_pairs) == (112, 56)
        assert len(forks) == 5
        _assert_no_children()

    def test_failing_child_raises(self, forks, cpus):
        def wrap(real):
            def fails_in_child(index, i0, i1):
                if i0:
                    raise MemoryError("child")
                return real(index, i0, i1)
            return fails_in_child

        cpus(2)
        for call in _each_entry_point(wrap):
            with pytest.raises(RuntimeError, match="exited with code 1"):
                call()
        assert len(forks) == 2
        _assert_no_children()

    def test_killed_child_raises(self, forks, cpus):
        def wrap(real):
            def killed_in_child(index, i0, i1):
                if i0:
                    os.kill(os.getpid(), signal.SIGKILL)
                return real(index, i0, i1)
            return killed_in_child

        cpus(2)
        for call in _each_entry_point(wrap):
            with pytest.raises(RuntimeError, match=f"died by signal {signal.SIGKILL.value}"):
                call()
        assert len(forks) == 2
        _assert_no_children()

    @pytest.mark.parametrize("sent", [{"7x": 8}, {7: "8 9"}])
    def test_unparseable_child_output_raises(self, forks, cpus, sent):
        def wrap(real):
            def garbled_in_child(index, i0, i1):
                rows, tally = real(index, i0, i1)
                return (rows, Counter(sent)) if i0 else (rows, tally)
            return garbled_in_child

        cpus(2)
        for call in _each_entry_point(wrap):
            with pytest.raises(RuntimeError, match="unparseable"):
                call()
        _assert_no_children()

    def test_failing_parent_kills_and_reaps_its_children(self, forks, cpus):
        def wrap(real):
            def parent_fails_child_stalls(index, i0, i1):
                if not i0:
                    raise MemoryError("parent")
                time.sleep(30)
                return real(index, i0, i1)
            return parent_fails_child_stalls

        cpus(4)
        for call in _each_entry_point(wrap):
            start = time.perf_counter()
            with pytest.raises(MemoryError, match="parent"):
                call()
            assert time.perf_counter() - start < 10
            _assert_no_children()
        assert len(forks) == 6

    def test_a_lost_row_is_an_internal_error(self, forks, cpus):
        def wrap(real):
            def drops_a_row(index, i0, i1):
                rows, tally = real(index, i0, i1)
                return (rows if i0 else rows - 1), tally
            return drops_a_row

        cpus(2)
        for call in _each_entry_point(wrap):
            with pytest.raises(ArithmeticError, match=r"groups \[0, 2\) .* walked 15 rows, not 16"):
                call()
        # a group or a column option the kernel loses is lost to every lane,
        # so every span's count of the rows it walked falls short
        product, table = census.product, census.column_table

        def drops_a_group(*args, **kwargs):
            # the first column that fits each state: at n = 2 the first step
            # keeps 3 of 4 columns, and each state after it has one column
            # that fits, so no group reaches the full state and no row counts
            return islice(product(*args, **kwargs), 1, None)

        def drops_an_option(n, t, column):
            options = list(table(n, t, column).items())
            return dict(options[1:] if t == 0 else options)  # half of each group's rows

        def losing(name, lossy):
            # the kernel, run with census.<name> replaced by lossy
            def wrap(real):
                def lossy_span(index, i0, i1):
                    with pytest.MonkeyPatch.context() as patch:
                        patch.setattr(census, name, lossy)
                        return real(index, i0, i1)
                return lossy_span
            return wrap

        for name, lossy, rows in (("product", drops_a_group, 0),
                                  ("column_table", drops_an_option, 8)):
            for call in _each_entry_point(losing(name, lossy)):
                with pytest.raises(ArithmeticError, match=f"walked {rows} rows, not 16"):
                    call()
        assert len(forks) == 6
        _assert_no_children()

    def test_a_lost_lane_is_an_internal_error(self, forks, cpus):
        def wrap(real):
            def drops_a_lane(index, i0, i1):
                rows, tally = real(index, i0, i1)
                if i0:
                    tally[min(tally)] -= 1
                return rows, tally
            return drops_a_lane

        cpus(2)
        for call in _each_entry_point(wrap):
            with pytest.raises(ArithmeticError, match="count 15 matrices, not 16"):
                call()
        assert len(forks) == 2
        _assert_no_children()

    def test_cpu_count_without_affinity(self, forks, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        result = run_census(2)
        assert (result.ordered_pairs, result.unordered_pairs) == (112, 56)
        assert len(forks) == 3
        _assert_no_children()

    def test_serial_while_other_threads_run(self, forks, many_cpus):
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            result = run_census(2)
        finally:
            stop.set()
            thread.join()
        assert (result.ordered_pairs, result.unordered_pairs) == (112, 56)
        assert forks == []

    def test_serial_without_fork(self, many_cpus, monkeypatch):
        monkeypatch.delattr(os, "fork")
        result = run_census(2, workers=64)
        assert (result.ordered_pairs, result.unordered_pairs) == (112, 56)
        assert degree_histogram(2) == {7: 16}


def test_odd_partner_sum_is_an_internal_error(monkeypatch, capsys):
    def wrap(real):
        def one_too_many(index, i0, i1):
            # once, in the span that holds lane 0, whichever process counts
            # it: one lane's count grows by one, so the tally's mass is odd
            rows, tally = real(index, i0, i1)
            if i0 == 0 and tally:
                count = min(tally)
                tally[count] -= 1
                tally[count + 1] += 1
            return rows, tally
        return one_too_many

    for call in _each_entry_point(wrap):
        with pytest.raises(ArithmeticError, match="odd"):
            call()
    monkeypatch.setattr(census, "_span", wrap(census._span))
    assert cli.main(["count", "--n", "2", "--mode", "census"]) == 3
    assert "internal consistency check failed" in capsys.readouterr().err


class TestScaleAndErrors:
    def test_census_cap(self):
        with pytest.raises(SizeLimitError, match="capped at n <= 3"):
            run_census(4)

    def test_census_cap_far_past_it(self):
        with pytest.raises(SizeLimitError, match=r"~\(32!\)\^128/2"):
            run_census(32)

    def test_histogram_cap(self):
        with pytest.raises(SizeLimitError):
            degree_histogram(4)

    def test_bad_workers(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked before refusing the worker count")

        monkeypatch.setattr(os, "fork", no_fork)
        with pytest.raises(ValueError, match="worker count"):
            run_census(2, workers=0)
        # True == 1 and 2.0 == 2, but neither is a worker count
        for workers in (True, 2.0):
            with pytest.raises(ValueError, match=f"must be an int >= 1, got {workers}"):
                run_census(2, workers=workers)
