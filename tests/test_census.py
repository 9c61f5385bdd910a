import pytest

from spairs import SizeLimitError, degree_histogram, matrix_count, run_census
from spairs.census import mask_words


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
        for workers in (2, 3):
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


class TestMaskWords:
    def test_word_layout(self):
        words = mask_words(2)
        assert words.shape == (1, 16)
        assert len({int(w) for w in words[0]}) == 16

    def test_multi_word_reassembly(self):
        # 81-bit masks span two words at block order 3
        words = mask_words(3)
        assert words.shape == (2, matrix_count(3))
        first = int(words[0, 0]) | (int(words[1, 0]) << 64)
        assert first.bit_count() == 9


class TestScaleAndErrors:
    def test_census_cap(self):
        with pytest.raises(SizeLimitError, match="capped at n <= 3"):
            run_census(4)

    def test_histogram_cap(self):
        with pytest.raises(SizeLimitError):
            degree_histogram(4)

    def test_bad_workers(self):
        with pytest.raises(ValueError, match="worker count"):
            run_census(2, workers=0)


def test_progress_reporting():
    calls = []
    run_census(2, workers=1, progress=lambda done, total: calls.append((done, total)))
    assert calls[-1] == (16, 16)
    assert all(total == 16 for _done, total in calls)
    assert [d for d, _t in calls] == sorted(d for d, _t in calls)
