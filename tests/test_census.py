import os
import random
import signal
import threading
import time
from collections import Counter
from itertools import groupby
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
        columns = mask_words(n)
        assert columns.shape == (n * n, matrix_count(n))
        assert columns.itemsize == 1

    def test_bytes_follow_every_mask_n2(self):
        rows = mask_words(2).tolist()
        for j, m in enumerate(enumerate_matrices(2)):
            assert [row[j] for row in rows] == _cells_by_column(m)

    def test_bytes_follow_sampled_masks_n3(self):
        columns = mask_words(3)
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
def index3():
    return cell_index(mask_words(3))


class TestCellIndex:
    # the census reads its bitsets and cells off the column rows that
    # mask_words builds from each matrix's permutations; sperm.cell_bitsets
    # builds the same bitsets from the digits of the matrix index, sharing
    # no code

    @pytest.mark.parametrize("n", [1, 2])
    def test_bitsets_equal_the_digit_built_index(self, n):
        assert cell_index(mask_words(n)).bitsets == cell_bitsets(n)

    def test_bitsets_equal_the_digit_built_index_n3(self, index3):
        assert index3.bitsets == cell_bitsets(3)

    def test_cells_follow_every_mask_n2(self):
        index = cell_index(mask_words(2))
        assert index.width == 4
        assert len(index.cells) == 16 * 4
        for j, m in enumerate(enumerate_matrices(2)):
            assert list(index.cells[4 * j:4 * j + 4]) == _cells_by_column(m)

    def test_cells_follow_sampled_masks_n3(self, index3):
        picks = set(random.Random(5).sample(range(matrix_count(3)), 64))
        checked = 0
        for j, m in enumerate(enumerate_matrices(3)):
            if j in picks:
                assert list(index3.cells[9 * j:9 * j + 9]) == _cells_by_column(m)
                checked += 1
        assert checked == 64

    def test_index_follows_any_enumeration_order(self, monkeypatch):
        mats = list(enumerate_matrices(2))
        random.Random(4).shuffle(mats)
        # matrices that share row_perms no longer sit in one run, so the
        # build meets each row_perms again in later runs
        assert len(list(groupby(mats, attrgetter("row_perms")))) > 4
        monkeypatch.setattr(census, "enumerate_matrices", lambda n: iter(mats))
        index = cell_index(mask_words(2))
        for j, m in enumerate(mats):
            assert list(index.cells[4 * j:4 * j + 4]) == _cells_by_column(m)
            bits = m.mask
            assert [b >> j & 1 for b in index.bitsets] == [bits >> c & 1 for c in range(16)]
        result = run_census(2)
        assert (result.ordered_pairs, result.unordered_pairs) == (112, 56)


def test_each_entry_point_builds_the_index_once(monkeypatch):
    # the benchmark wraps census.mask_words and replaces the census's own
    # enumerate_matrices binding, so both must stay on every census path
    calls = Counter()
    real_words, real_enumerate = census.mask_words, census.enumerate_matrices

    def counting_words(n):
        calls["mask_words"] += 1
        return real_words(n)

    def counting_enumerate(n):
        calls["enumerate_matrices"] += 1
        for m in real_enumerate(n):
            calls["matrices"] += 1
            yield m

    monkeypatch.setattr(census, "mask_words", counting_words)
    monkeypatch.setattr(census, "enumerate_matrices", counting_enumerate)
    expected = {"mask_words": 1, "enumerate_matrices": 1, "matrices": 16}
    assert run_census(2).ordered_pairs == 112
    assert calls == expected
    calls.clear()
    assert degree_histogram(2) == {7: 16}
    assert calls == expected


def _naive_count(index, j):
    # N minus the popcount of the OR of all n² cell bitsets of row j
    bitsets, cells, width = index
    acc = 0
    for c in cells[j * width:(j + 1) * width]:
        acc |= bitsets[c]
    return len(cells) // width - acc.bit_count()


def _with_random_bitsets(index, seed):
    # every matrix has the same partner count, so a cache that hands a row
    # the OR of the wrong cells can still give the right count; random
    # bitsets make each row's count depend on exactly its own cells
    rng = random.Random(seed)
    total = len(index.cells) // index.width
    return index._replace(bitsets=[rng.getrandbits(total) for _ in index.bitsets])


class TestPartnerKernel:
    # the scan reuses the OR of a row's head and memoizes the OR of each
    # distinct tail; neither may change any row's count

    @pytest.mark.parametrize("seed", [None, 1])
    def test_every_row_n2(self, seed):
        index = cell_index(mask_words(2))
        if seed is not None:
            index = _with_random_bitsets(index, seed)
        naive = [_naive_count(index, j) for j in range(16)]
        assert list(census._partner_counts(index, 0, 16)) == naive

    @pytest.mark.parametrize("seed", [None, 2])
    def test_sampled_rows_n3(self, index3, seed):
        index = index3 if seed is None else _with_random_bitsets(index3, seed)
        total = matrix_count(3)
        kernel = list(census._partner_counts(index, 0, total))
        for j in random.Random(7).sample(range(total), 64):
            assert kernel[j] == _naive_count(index, j)
        # a span that starts inside a run of rows sharing one head
        naive = [_naive_count(index, j) for j in range(1001, 1100)]
        assert list(census._partner_counts(index, 1001, 1100)) == naive

    @pytest.mark.parametrize("seed", [None, 3])
    def test_row_shuffled_index_n2(self, seed):
        index = cell_index(mask_words(2))
        if seed is not None:
            index = _with_random_bitsets(index, seed)
        rows = [index.cells[at:at + 4] for at in range(0, 64, 4)]
        random.Random(3).shuffle(rows)
        shuffled = index._replace(cells=b"".join(rows))
        naive = [_naive_count(shuffled, j) for j in range(16)]
        assert list(census._partner_counts(shuffled, 0, 16)) == naive


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
    def many_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(128)), raising=False)

    def test_forks_never_exceed_the_cpus(self, forks):
        result = run_census(2, workers=64)
        assert (result.ordered_pairs, result.unordered_pairs) == (112, 56)
        assert len(forks) == min(len(os.sched_getaffinity(0)), 16) - 1
        _assert_no_children()

    def test_forks_never_exceed_the_spans(self, forks, many_cpus):
        assert run_census(2, workers=64).ordered_pairs == 112
        assert len(forks) == 15
        assert run_census(1, workers=8).ordered_pairs == 0
        assert len(forks) == 15
        # 5 spans of 16 rows are uneven; every row is still tallied once
        result = run_census(2, workers=5)
        assert (result.ordered_pairs, result.unordered_pairs) == (112, 56)
        assert len(forks) == 19
        _assert_no_children()

    def test_failing_child_raises(self, forks, many_cpus, monkeypatch):
        real = census._span_tally

        def fails_in_child(index, i0, i1):
            if i0:
                raise MemoryError("child")
            return real(index, i0, i1)

        monkeypatch.setattr(census, "_span_tally", fails_in_child)
        with pytest.raises(RuntimeError, match="exited with code 1"):
            run_census(2, workers=2)
        assert len(forks) == 1
        _assert_no_children()

    def test_killed_child_raises(self, forks, many_cpus, monkeypatch):
        real = census._span_tally

        def killed_in_child(index, i0, i1):
            if i0:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(index, i0, i1)

        monkeypatch.setattr(census, "_span_tally", killed_in_child)
        with pytest.raises(RuntimeError, match=f"died by signal {signal.SIGKILL.value}"):
            run_census(2, workers=2)
        _assert_no_children()

    @pytest.mark.parametrize("sent", [{"7x": 8}, {7: "8 9"}])
    def test_unparseable_child_output_raises(self, forks, many_cpus, monkeypatch, sent):
        real = census._span_tally

        def garbled_in_child(index, i0, i1):
            return Counter(sent) if i0 else real(index, i0, i1)

        monkeypatch.setattr(census, "_span_tally", garbled_in_child)
        with pytest.raises(RuntimeError, match="unparseable"):
            run_census(2, workers=2)
        _assert_no_children()

    def test_failing_parent_kills_and_reaps_its_children(self, forks, many_cpus, monkeypatch):
        real = census._span_tally

        def parent_fails_child_stalls(index, i0, i1):
            if not i0:
                raise MemoryError("parent")
            time.sleep(30)
            return real(index, i0, i1)

        monkeypatch.setattr(census, "_span_tally", parent_fails_child_stalls)
        start = time.perf_counter()
        with pytest.raises(MemoryError, match="parent"):
            run_census(2, workers=4)
        assert time.perf_counter() - start < 10
        assert len(forks) == 3
        _assert_no_children()

    def test_a_lost_row_is_an_internal_error(self, forks, many_cpus, monkeypatch):
        real = census._partner_counts

        def drops_a_row(index, i0, i1):
            counts = real(index, i0, i1)
            if i0 == 0:
                next(counts)
            yield from counts

        monkeypatch.setattr(census, "_partner_counts", drops_a_row)
        with pytest.raises(ArithmeticError, match="cover 15 rows, not 16"):
            run_census(2, workers=2)
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
    real = census._partner_counts

    def one_too_many(index, i0, i1):
        # once, at global row 0, whichever process tallies that span
        counts = real(index, i0, i1)
        if i0 == 0:
            yield next(counts) + 1
        yield from counts

    monkeypatch.setattr(census, "_partner_counts", one_too_many)
    with pytest.raises(ArithmeticError, match="odd"):
        run_census(2)
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

    def test_bad_workers(self):
        with pytest.raises(ValueError, match="worker count"):
            run_census(2, workers=0)
