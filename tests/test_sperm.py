import random
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spairs import (
    Bigraph,
    DisjointFamily,
    GridFormatError,
    SizeLimitError,
    SPermMatrix,
    SudokuGrid,
    build_matrix,
    cell_bitsets,
    clique_count_from_grid_count,
    count_cliques,
    count_grids,
    count_ordered,
    degree_histogram,
    enumerate_catalog,
    enumerate_matrices,
    first_violation,
    from_edges,
    is_disjoint,
    iter_grids,
    mask_is_valid,
    matrix_at,
    matrix_count,
    run_census,
    sample_family,
    sperm,
)

IDENTITY_2 = build_matrix(2, [(1, 2), (1, 2)], [(1, 2), (1, 2)])
SWAP_2 = build_matrix(2, [(2, 1), (2, 1)], [(2, 1), (2, 1)])


def perms_strategy(n):
    word = st.permutations(list(range(1, n + 1)))
    return st.tuples(
        st.lists(word, min_size=n, max_size=n),
        st.lists(word, min_size=n, max_size=n),
    )


class TestCells:
    def test_identity_cells(self):
        # block (s, t) of the all-identity matrix holds its 1 at local (t, s)
        assert IDENTITY_2.cells() == [(1, 1), (2, 3), (3, 2), (4, 4)]

    def test_identity_mask_bits(self):
        bits = IDENTITY_2.mask
        assert isinstance(bits, int)
        assert bits == (1 << 0) | (1 << 6) | (1 << 9) | (1 << 15)
        assert bits.bit_count() == 4

    def test_swap_cells(self):
        assert SWAP_2.cells() == [(2, 2), (1, 4), (4, 1), (3, 3)]


class TestBuild:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError, match=r"row_perms\[1\]"):
            build_matrix(2, [(1, 2), (1, 1)], [(1, 2), (1, 2)])
        with pytest.raises(ValueError, match=r"col_perms\[0\]"):
            build_matrix(2, [(1, 2), (1, 2)], [(2, 3), (1, 2)])
        # True == 1.0 == 1, but neither a bool nor a float is a block index
        with pytest.raises(ValueError, match=r"row_perms\[1\]"):
            build_matrix(2, [(1, 2), (True, 2)], [(1, 2), (1, 2)])
        with pytest.raises(ValueError, match=r"col_perms\[0\]"):
            build_matrix(2, [(1, 2), (1, 2)], [(1.0, 2), (1, 2)])

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError, match="need 2 row and 2 column"):
            build_matrix(2, [(1, 2)], [(1, 2), (1, 2)])

    # every public entry point that takes a block order refuses a bad one
    # through sperm.check_order, with the same message
    @pytest.mark.parametrize(
        "call,error",
        [
            pytest.param(lambda n: build_matrix(n, [], []), ValueError, id="build_matrix"),
            pytest.param(matrix_count, ValueError, id="matrix_count"),
            pytest.param(lambda n: next(enumerate_matrices(n)), ValueError,
                         id="enumerate_matrices"),
            pytest.param(lambda n: matrix_at(n, 0), ValueError, id="matrix_at"),
            pytest.param(cell_bitsets, ValueError, id="cell_bitsets"),
            pytest.param(lambda n: mask_is_valid(n, 0), ValueError, id="mask_is_valid"),
            pytest.param(sperm.board_lines, ValueError, id="board_lines"),
            pytest.param(run_census, ValueError, id="run_census"),
            pytest.param(degree_histogram, ValueError, id="degree_histogram"),
            pytest.param(enumerate_catalog, ValueError, id="enumerate_catalog"),
            pytest.param(lambda n: Bigraph(n, 0), ValueError, id="Bigraph"),
            pytest.param(lambda n: from_edges(n, [(0, 0)]), ValueError, id="from_edges"),
            pytest.param(lambda n: count_ordered(n, {}), ValueError, id="count_ordered"),
            pytest.param(lambda n: DisjointFamily(n, ()), ValueError, id="DisjointFamily"),
            pytest.param(lambda n: first_violation(SudokuGrid(n, ())), GridFormatError,
                         id="first_violation"),
            pytest.param(lambda n: next(iter_grids(n)), ValueError, id="iter_grids"),
            pytest.param(count_grids, ValueError, id="count_grids"),
            pytest.param(count_cliques, ValueError, id="count_cliques"),
            pytest.param(lambda n: sample_family(n, 0), ValueError, id="sample_family"),
            pytest.param(lambda n: clique_count_from_grid_count(288, n), ValueError,
                         id="clique_count_from_grid_count"),
        ],
    )
    # True == 1 and 2.0 == 2, but neither is a block order
    @pytest.mark.parametrize(
        "n,message",
        [
            (0, "block order must be >= 1, got 0"),
            (-1, "block order must be >= 1, got -1"),
            (True, "block order must be an int, got True"),
            (2.0, "block order must be an int, got 2.0"),
        ],
        ids=["0", "-1", "True", "2.0"],
    )
    def test_rejects_bad_order(self, call, error, n, message):
        with pytest.raises(ValueError) as caught:
            call(n)
        assert type(caught.value) is error
        assert str(caught.value) == message


class TestCounting:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, 1), (2, 16), (3, 46656), (4, 110_075_314_176)],
    )
    def test_matrix_count(self, n, expected):
        assert matrix_count(n) == expected

    def test_enumeration_is_exhaustive_and_injective(self, matrices2):
        assert len(matrices2) == 16
        assert len({m.mask for m in matrices2}) == 16
        for m in matrices2:
            assert mask_is_valid(m.n, m.mask)

    def test_enumeration_order_is_deterministic(self, matrices2):
        assert matrices2[0] == IDENTITY_2
        assert list(enumerate_matrices(2)) == matrices2

    def test_cap_refuses_n4(self):
        with pytest.raises(SizeLimitError, match=r"\(4!\)\^8"):
            list(enumerate_matrices(4))

    @pytest.mark.parametrize("build", [enumerate_matrices, cell_bitsets])
    def test_cap_far_past_it_is_a_size_limit(self, build):
        # the message states the size, so it never converts a huge int to text
        with pytest.raises(SizeLimitError, match=r"\(100!\)\^200"):
            list(build(100))


@pytest.fixture(scope="module")
def sampled3():
    """A seeded sample of (index, matrix) pairs from the order-3 enumeration."""
    picks = set(random.Random(3).sample(range(matrix_count(3)), 64))
    return [(j, m) for j, m in enumerate(enumerate_matrices(3)) if j in picks]


def _bitsets_agree_with_masks(n, indexed):
    bitsets = cell_bitsets(n)
    assert len(bitsets) == n**4
    for j, m in indexed:
        column = sum(((b >> j) & 1) << cell for cell, b in enumerate(bitsets))
        assert column == m.mask


def _bits_from_cells(m):
    n2 = m.n * m.n
    return sum(1 << ((r - 1) * n2 + c - 1) for r, c in m.cells())


class TestMaskArithmetic:
    # the mask computes its bit offsets from the permutations directly;
    # cells() is the one readable route it must agree with

    def test_every_mask_n2(self, matrices2):
        for m in matrices2:
            assert m.mask == _bits_from_cells(m)

    def test_sampled_masks_n3(self, sampled3):
        for _j, m in sampled3:
            assert m.mask == _bits_from_cells(m)


class TestCellIndex:
    # the index derives its cells from digit patterns, never from SPermMatrix
    # masks; these checks are what ties its cell convention to sperm's

    @pytest.mark.parametrize("n", [1, 2])
    def test_bitsets_match_every_mask(self, n):
        _bitsets_agree_with_masks(n, enumerate(enumerate_matrices(n)))

    def test_bitsets_match_sampled_masks_n3(self, sampled3):
        _bitsets_agree_with_masks(3, sampled3)

    def test_matrix_at_follows_enumeration(self, matrices2, sampled3):
        assert [matrix_at(2, j) for j in range(16)] == matrices2
        for j, m in sampled3:
            assert matrix_at(3, j) == m
        # the enumeration builds its matrices in C, past SPermMatrix.__new__,
        # so each must still be an SPermMatrix, not a bare tuple
        for m in matrices2 + [m for _j, m in sampled3]:
            assert type(m) is SPermMatrix

    def test_matrix_at_range(self):
        with pytest.raises(IndexError, match="outside 0..15"):
            matrix_at(2, 16)
        with pytest.raises(IndexError):
            matrix_at(2, -1)
        # True == 1.0 == 1, but neither a bool nor a float is an index
        with pytest.raises(IndexError, match="matrix index True outside 0..15"):
            matrix_at(2, True)
        with pytest.raises(IndexError, match=r"matrix index 1\.0 outside 0..15"):
            matrix_at(2, 1.0)

    def test_matrix_at_cap(self, monkeypatch):
        # refused before any n!-sized work: no word list, no count past n = 5
        for name in ("_words", "matrix_count"):
            real = getattr(sperm, name)

            def small_only(n, real=real):
                assert n <= 5, "matrix_at did work before its cap check"
                return real(n)

            monkeypatch.setattr(sperm, name, small_only)
        with pytest.raises(SizeLimitError, match="capped at n <= 3"):
            matrix_at(200, 0)

    def test_bitsets_cap(self):
        with pytest.raises(SizeLimitError, match=r"\(4!\)\^8"):
            cell_bitsets(4)


class TestDisjointness:
    def test_identity_vs_swap(self):
        assert is_disjoint(IDENTITY_2, SWAP_2)

    def test_never_self_disjoint(self, matrices2):
        assert not any(is_disjoint(m, m) for m in matrices2)

    def test_mixed_orders_rejected(self):
        other = build_matrix(1, [(1,)], [(1,)])
        with pytest.raises(ValueError, match="block orders differ"):
            is_disjoint(IDENTITY_2, other)

    def test_partner_count_is_uniform(self, matrices2):
        # every matrix has the same number of disjoint partners; the group
        # of block relabelings acts transitively and preserves disjointness
        partners = [
            sum(
                1
                for b in matrices2
                if a is not b and is_disjoint(a, b)
            )
            for a in matrices2
        ]
        assert set(partners) == {7}
        assert sum(partners) == 112


class TestMaskOracle:
    def test_valid_mask(self):
        assert mask_is_valid(2, IDENTITY_2.mask)

    def test_rejects_row_collision(self):
        # two ones in global row 1, one per block, blocks/cols still fine
        bad = (1 << 0) | (1 << 3) | (1 << 9) | (1 << 14)
        assert not mask_is_valid(2, bad)

    def test_rejects_wrong_popcount(self):
        assert not mask_is_valid(2, 0)

    @pytest.mark.parametrize(
        "bits",
        [IDENTITY_2.mask | 1 << 16, 1 << 20, -1, -IDENTITY_2.mask],
        ids=["valid-plus-bit-16", "bit-20", "minus-1", "negated-valid"],
    )
    def test_rejects_cells_outside_the_grid(self, bits):
        assert mask_is_valid(2, bits) is False

    @pytest.mark.parametrize(
        "bits", [True, 1.0, str(IDENTITY_2.mask)], ids=["bool", "float", "str"]
    )
    def test_non_int_mask_rejected(self, bits):
        with pytest.raises(ValueError, match="mask must be an int"):
            mask_is_valid(2, bits)

    def test_valid_masks_at_n2_are_the_matrices(self):
        valid = {bits for bits in range(1 << 16) if mask_is_valid(2, bits)}
        assert valid == {m.mask for m in enumerate_matrices(2)}

    def test_agrees_with_a_bit_walk_at_n3(self, masks3):
        # reference: walk the set bits, counting each one's row, column and block
        def walked(bits):
            rows, cols, blocks = [0] * 9, [0] * 9, [0] * 9
            while bits:
                low = bits & -bits
                r, c = divmod(low.bit_length() - 1, 9)
                rows[r] += 1
                cols[c] += 1
                blocks[(r // 3) * 3 + c // 3] += 1
                bits ^= low
            return rows == cols == blocks == [1] * 9

        assert all(mask_is_valid(3, bits) and walked(bits) for bits in masks3)
        rng = random.Random(3)
        for _ in range(5000):
            # a flipped cell, then a second flip: a one added, lost or moved
            flipped = rng.choice(masks3) ^ 1 << rng.randrange(81)
            twice = flipped ^ 1 << rng.randrange(81)
            noise = rng.getrandbits(81)
            for bits in (flipped, twice, noise):
                assert mask_is_valid(3, bits) == walked(bits), bits

    def test_board_lines(self):
        rows, cols, blocks = sperm.board_lines(2)
        assert rows == (0xF, 0xF0, 0xF00, 0xF000)
        assert cols == (0x1111, 0x2222, 0x4444, 0x8888)
        # (block row, block column) order
        assert blocks == (0x33, 0xCC, 0x3300, 0xCC00)
        # the cache keeps 1 and True apart, so True is still refused
        assert sperm.board_lines(1) == ((1,), (1,), (1,))
        with pytest.raises(ValueError, match="must be an int, got True"):
            sperm.board_lines(True)


@given(perms_strategy(3))
def test_random_params_yield_valid_masks(params):
    rows, cols = params
    m = build_matrix(3, rows, cols)
    assert mask_is_valid(m.n, m.mask)
    assert m.mask.bit_count() == 9


@given(perms_strategy(2), perms_strategy(2))
def test_disjointness_is_symmetric(pa, pb):
    a = build_matrix(2, *pa)
    b = build_matrix(2, *pb)
    assert is_disjoint(a, b) == is_disjoint(b, a)
