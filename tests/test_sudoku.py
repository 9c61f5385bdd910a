import math
from collections import Counter
from fractions import Fraction
from itertools import permutations
from types import SimpleNamespace

import pytest

from spairs import (
    KNOWN_GRID_COUNTS,
    DisjointFamily,
    GridFormatError,
    InvalidGridError,
    SizeLimitError,
    SudokuGrid,
    build_matrix,
    clique_count_from_grid_count,
    complete_families,
    count_cliques,
    count_grids,
    decompose,
    enumerate_matrices,
    first_violation,
    iter_grids,
    mask_is_valid,
    parse_grid,
    recompose,
    sample_family,
    sudoku,
)

VALID_4 = SudokuGrid(
    2,
    (
        (1, 2, 3, 4),
        (3, 4, 1, 2),
        (2, 1, 4, 3),
        (4, 3, 2, 1),
    ),
)


@pytest.fixture(scope="module")
def family3():
    return sample_family(3, seed=1)


class TestValidation:
    def test_valid_grid(self):
        assert first_violation(VALID_4) is None

    def test_row_violation_reported_first(self):
        grid = SudokuGrid(2, ((1, 1, 2, 3),) + VALID_4.cells[1:])
        assert first_violation(grid) == "row 1 is not a permutation of 1..4"

    def test_column_violation(self):
        rows = ((1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 4))
        assert first_violation(SudokuGrid(2, rows)) == (
            "column 1 is not a permutation of 1..4"
        )

    def test_block_violation(self):
        rows = ((1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1))
        assert first_violation(SudokuGrid(2, rows)) == (
            "block (1, 1) is not a permutation of 1..4"
        )

    @pytest.mark.parametrize(
        "swap,message",
        [
            ("cells", "column 1"),
            ("rows", "block (2, 1)"),
            ("columns", "block (1, 2)"),
        ],
    )
    def test_violations_at_n3(self, swap, message):
        # each swap keeps every earlier line intact, so the message names
        # the block by (block row, block column)
        cells = [list(row) for row in recompose(sample_family(3, 1)).cells]
        if swap == "cells":  # cells (1, 1) and (1, 2)
            cells[0][0], cells[0][1] = cells[0][1], cells[0][0]
        elif swap == "rows":  # rows 6 and 7
            cells[5], cells[6] = cells[6], cells[5]
        else:  # columns 6 and 7
            for row in cells:
                row[5], row[6] = row[6], row[5]
        grid = SudokuGrid(3, tuple(map(tuple, cells)))
        assert first_violation(grid) == f"{message} is not a permutation of 1..9"

    def test_malformed_shapes(self):
        with pytest.raises(GridFormatError, match="expected 4 rows"):
            decompose(SudokuGrid(2, ((1, 2, 3, 4),)))
        with pytest.raises(GridFormatError, match="row 2 has 3 entries"):
            decompose(SudokuGrid(2, ((1, 2, 3, 4), (1, 2, 3)) + VALID_4.cells[2:]))
        with pytest.raises(GridFormatError, match=r"cell \(1, 1\) holds 5"):
            decompose(SudokuGrid(2, ((5, 2, 3, 4),) + VALID_4.cells[1:]))
        with pytest.raises(GridFormatError, match=r"holds 0"):
            decompose(SudokuGrid(2, ((0, 2, 3, 4),) + VALID_4.cells[1:]))
        # True == 1, but a bool is not a cell value
        with pytest.raises(GridFormatError, match=r"cell \(1, 1\) holds True"):
            first_violation(SudokuGrid(1, ((True,),)))
        # a valid grid with a surplus column has every constraint group intact
        with pytest.raises(GridFormatError, match="row 1 has 5 entries"):
            first_violation(SudokuGrid(2, tuple(row + (1,) for row in VALID_4.cells)))
        # a block order below 1 has no grid, even when its n² rows line up
        for grid in (SudokuGrid(0, ()), SudokuGrid(-1, ((1,),))):
            for check in (first_violation, decompose):
                with pytest.raises(GridFormatError, match=f"must be >= 1, got {grid.n}"):
                    check(grid)
        # nor does a block order that is not an int, though 2.0 == 2 and True == 1
        for grid in (SudokuGrid(2.0, VALID_4.cells), SudokuGrid(True, ((1,),))):
            for check in (first_violation, decompose):
                with pytest.raises(GridFormatError, match=f"must be an int, got {grid.n}"):
                    check(grid)


class TestDecomposition:
    def test_layers_carry_their_value(self):
        family = decompose(VALID_4)
        assert len(family.members) == 4
        for s, member in enumerate(family.members, start=1):
            for r, c in member.cells():
                assert VALID_4.cells[r - 1][c - 1] == s

    def test_round_trip_over_every_grid(self, all_grids2):
        full = (1 << 16) - 1
        for grid in all_grids2:
            family = decompose(grid)
            masks = [m.mask for m in family.members]
            assert all(mask_is_valid(2, mk) for mk in masks)
            acc = 0
            for mk in masks:
                assert acc & mk == 0
                acc |= mk
            assert acc == full
            assert recompose(family) == grid

    def test_rejects_invalid_grid(self):
        grid = SudokuGrid(2, ((1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 1, 2), (4, 3, 2, 1)))
        with pytest.raises(InvalidGridError, match=r"block \(1, 1\)"):
            decompose(grid)

    def test_recompose_with_permuted_weights(self):
        # member s-1 holds value s, so reversing the members maps s to 5 - s
        family = decompose(VALID_4)
        relabeled = recompose(family._replace(members=family.members[::-1]))
        assert first_violation(relabeled) is None
        assert relabeled.cells[0] == (4, 3, 2, 1)

    @pytest.mark.parametrize("kept", [0, 2, 3])
    def test_recompose_refuses_a_partial_family(self, kept):
        # its sum would leave cells at 0, which is not a grid
        family = DisjointFamily(2, decompose(VALID_4).members[:kept])
        with pytest.raises(ValueError, match=f"family of {kept} members is not complete"):
            recompose(family)


class TestDisjointFamily:
    def test_overlap_rejected(self):
        a = build_matrix(2, [(1, 2), (1, 2)], [(1, 2), (1, 2)])
        with pytest.raises(ValueError, match="members 0 and 1 overlap"):
            DisjointFamily(2, (a, a))

    def test_size_cap(self):
        a = build_matrix(2, [(1, 2), (1, 2)], [(1, 2), (1, 2)])
        with pytest.raises(ValueError, match="exceeds n²"):
            DisjointFamily(2, (a,) * 5)

    def test_member_of_another_order_rejected(self):
        # a lone order-3 member has no pair to compare, so only the order
        # check catches it before recompose indexes past the 4×4 grid
        b = next(enumerate_matrices(3))
        with pytest.raises(ValueError, match="member 0 has block order 3, not 2"):
            DisjointFamily(2, (b,))
        a = build_matrix(2, [(1, 2), (1, 2)], [(1, 2), (1, 2)])
        with pytest.raises(ValueError, match="member 1 has block order 3, not 2"):
            DisjointFamily(2, (a, b))

    def test_bad_block_order_rejected(self):
        # recompose would build the 0×0 grid that first_violation rejects
        for n in (0, -1):
            with pytest.raises(ValueError, match=f"block order must be >= 1, got {n}"):
                DisjointFamily(n, ())
            with pytest.raises(ValueError, match=f"must be >= 1, got {n}"):
                DisjointFamily(members=(), n=n)
        family = decompose(VALID_4)
        with pytest.raises(ValueError, match="must be >= 1, got 0"):
            family._replace(n=0, members=())
        # nor one that is not an int: recompose read True as order 1
        for n in (True, 2.0):
            with pytest.raises(ValueError, match=f"must be an int, got {n}"):
                DisjointFamily(n, ())

    def test_complete_flag(self):
        family = decompose(VALID_4)
        assert family.complete
        assert not DisjointFamily(2, family.members[:3]).complete


class TestExhaustiveCounts:
    def test_grid_count(self, all_grids2):
        assert count_grids(2) == 288
        assert len(all_grids2) == 288
        assert len(set(all_grids2)) == 288

    def test_first_cell_is_uniform(self, all_grids2):
        for v in range(1, 5):
            assert sum(1 for g in all_grids2 if g.cells[0][0] == v) == 72

    def test_stream_starts_at_lexicographic_minimum(self, all_grids2):
        assert all_grids2[0] == VALID_4

    def test_all_grids_validate(self, all_grids2):
        assert all(first_violation(g) is None for g in all_grids2)

    def test_clique_count(self):
        assert count_cliques(2) == 12

    def test_cliques_times_orderings_equals_grids(self, all_grids2):
        families = complete_families(2)
        assert len(families) == 12
        grids = {
            recompose(f._replace(members=members))
            for f in families
            for members in permutations(f.members)
        }
        assert grids == set(all_grids2)

    def test_scale_refusals_quote_the_known_count(self):
        for call in (count_grids, count_cliques, complete_families):
            with pytest.raises(SizeLimitError, match="6.671e21"):
                call(3)
        with pytest.raises(SizeLimitError):
            next(iter_grids(3))

    def test_grid_cap_is_the_refusal_threshold(self):
        cap = sudoku.GRID_CAP
        assert count_grids(cap) == KNOWN_GRID_COUNTS[2]
        with pytest.raises(SizeLimitError, match=f"up to block order {cap};"):
            count_grids(cap + 1)


class TestKnownCounts:
    def test_9x9_constant_factorization(self):
        assert KNOWN_GRID_COUNTS[3] == (
            math.factorial(9) * 72**2 * 2**7 * 27_704_267_971
        )

    def test_clique_count_from_grid_count(self):
        assert clique_count_from_grid_count(288, 2) == 12
        assert clique_count_from_grid_count(math.factorial(4), 2) == 1
        assert (
            clique_count_from_grid_count(KNOWN_GRID_COUNTS[3], 3)
            == 18_383_222_420_692_992
        )

    def test_indivisible_count_rejected(self):
        with pytest.raises(ValueError, match="not divisible"):
            clique_count_from_grid_count(289, 2)

    def test_negative_count_rejected(self):
        # -288 is divisible by 4!, but no count of grids is negative
        with pytest.raises(ValueError, match="grid count must be >= 0, got -288"):
            clique_count_from_grid_count(-288, 2)

    @pytest.mark.parametrize("count, n", [(288.0, 2), (True, 1)], ids=["float", "bool"])
    def test_non_int_count_rejected(self, count, n):
        # both divide exactly, to 12.0 and 1, but neither is a count of grids
        with pytest.raises(ValueError, match="grid count must be an int"):
            clique_count_from_grid_count(count, n)


class TestSampler:
    def test_deterministic_for_a_seed(self):
        a = sample_family(2, seed=7)
        b = sample_family(2, seed=7)
        assert a.members == b.members

    @pytest.mark.parametrize("seed", range(5))
    def test_small_seeds_complete(self, seed):
        family = sample_family(2, seed=seed)
        assert family.complete
        assert first_violation(recompose(family)) is None

    def test_full_size_family(self, family3):
        assert family3.complete
        assert len(family3.members) == 9

    def test_sampled_grid_validates(self, family3):
        assert first_violation(recompose(family3)) is None

    def test_scale_cap(self):
        with pytest.raises(SizeLimitError, match="capped at n <= 3"):
            sample_family(4, seed=0)

    @pytest.mark.parametrize("seed", [True, 1.5, "x"])
    def test_seed_must_be_an_int(self, seed):
        with pytest.raises(ValueError, match="seed must be an int"):
            sample_family(2, seed=seed)

    def test_draw_law_at_n2(self, monkeypatch):
        # Walk every path of the draw tree by scripting randrange, and give
        # each leaf family the product of 1/k over its draws: each member is
        # uniform among the candidates left, but the family is not uniform.
        class Scripted:
            def __init__(self, script):
                self.script, self.ks = script, []

            def randrange(self, k):
                self.ks.append(k)
                i = len(self.ks) - 1
                return self.script[i] if i < len(self.script) else 0

        law: dict[tuple, Fraction] = {}
        paths = [()]
        while paths:
            rng = Scripted(paths.pop())
            scripted = SimpleNamespace(Random=lambda seed: rng)
            monkeypatch.setattr(sudoku, "random", scripted)
            members = sample_family(2, seed=0).members
            choices = rng.script + (0,) * (len(rng.ks) - len(rng.script))
            for i in range(len(rng.script), len(rng.ks)):
                paths.extend(choices[:i] + (v,) for v in range(1, rng.ks[i]))
            assert members not in law
            law[members] = Fraction(1, math.prod(rng.ks))
        assert sum(law.values()) == 1
        assert Counter(law.values()) == {Fraction(1, 224): 160, Fraction(1, 448): 128}
        cliques: Counter = Counter()
        for members, p in law.items():
            cliques[frozenset(members)] += p
        assert Counter(cliques.values()) == {Fraction(5, 56): 8, Fraction(1, 14): 4}


class TestGridIO:
    def test_round_trip(self):
        text = "2\n1 2 3 4\n3 4 1 2\n2 1 4 3\n4 3 2 1\n"
        assert parse_grid(text) == VALID_4

    def test_round_trip_9x9(self, family3):
        # the grid of sample_family(3, seed=1), whose draws are pinned per seed
        text = """3
        4 6 3 2 8 7 1 5 9
        1 9 5 6 4 3 2 7 8
        2 7 8 5 9 1 4 6 3
        6 2 9 4 7 5 3 8 1
        5 8 4 1 3 9 7 2 6
        7 3 1 8 2 6 9 4 5
        3 5 7 9 6 2 8 1 4
        9 4 6 7 1 8 5 3 2
        8 1 2 3 5 4 6 9 7
        """
        assert parse_grid(text) == recompose(family3)

    @pytest.mark.parametrize(
        "text,message",
        [
            ("", "empty grid file"),
            ("x\n1 2\n2 1", "first line must be the block order"),
            ("0\n", "block order must be >= 1"),
            ("2\n1 2 3 4\n3 4 1 2", "expected 4 grid rows"),
            ("1\none\n", "row 1 has a non-integer entry"),
            ("1\n2\n", r"cell \(1, 1\) holds 2"),
            # int() reads these, but the format has plain ASCII digits only
            ("1\n+1\n", "row 1 has a non-integer entry"),
            ("1\n\u0661\n", "row 1 has a non-integer entry"),  # Arabic-Indic one
            ("\u0661\n1\n", "first line must be the block order"),
            pytest.param(
                "4\n" + "1_0\n" * 16, "row 1 has a non-integer entry", id="1_0-is-not-10"
            ),
        ],
    )
    def test_parse_errors(self, text, message):
        with pytest.raises(GridFormatError, match=message):
            parse_grid(text)

    def test_parse_skips_blank_lines(self):
        text = "2\n\n1 2 3 4\n3 4 1 2\n\n2 1 4 3\n4 3 2 1\n"
        assert parse_grid(text) == VALID_4
