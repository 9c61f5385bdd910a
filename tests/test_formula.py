import inspect
import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from spairs import (
    Bigraph,
    CatalogEntry,
    automorphism_order,
    count_ordered,
    count_unordered,
    degree_factor,
    enumerate_catalog,
    format_rational,
    graph_weight,
    matrix_count,
    profile,
    formula,
    run_census,
    weight_table,
)

# Bucket weights frozen for both denominator conventions, k = 1..n².
AUTOMORPHISM_TABLES = {
    2: [4, Fraction(5, 2), 1, Fraction(1, 4)],
    3: [
        1296,
        720,
        Fraction(896, 3),
        101,
        29,
        Fraction(43, 6),
        Fraction(3, 2),
        Fraction(1, 4),
        Fraction(1, 36),
    ],
}
TWIN_TABLES = {
    2: [4, 3, 1, Fraction(1, 4)],
    3: [1296, 1008, 352, 125, 37, 8, 2, Fraction(1, 4), Fraction(1, 36)],
}

COUNTS = {
    "automorphism": {2: 112, 3: 838_501_632},
    "twin-classes": {2: 144, 3: 1_260_085_248},
}


def find_matching(catalog):
    # the 2-edge class whose twin classes are all singletons
    for e in catalog.buckets[2]:
        if set(e.profile.twin_class_sizes) == {1}:
            return e
    raise AssertionError("no 2-matching class found")


class TestDegreeFactor:
    def test_empty_graph(self):
        assert degree_factor(profile(Bigraph(2, 0))) == 16
        assert degree_factor(profile(Bigraph(3, 0))) == 46656

    def test_single_edge(self):
        assert degree_factor(profile(Bigraph(2, 0b1000))) == 4
        assert degree_factor(profile(Bigraph(3, 1))) == 5184

    def test_complete_graph_contributes_one(self):
        assert degree_factor(profile(Bigraph(3, 511))) == 1

    def test_truncation_is_exact(self, catalog2, catalog3):
        # degree-n and degree-(n-1) vertices contribute 0! = 1! = 1, so the
        # truncated product equals the full one over every class
        for catalog in (catalog2, catalog3):
            n = catalog.n
            for _k, e in catalog.entries():
                full = 1
                for i, d in enumerate(e.profile.degree_counts):
                    full *= math.factorial(n - i) ** d
                assert degree_factor(e.profile) == full


class TestClassWeights:
    def test_matching_weights_disagree(self, catalog2, catalog3):
        # the smallest class whose automorphisms move non-twin vertices:
        # a perfect matching admits the swap of both edges in sync
        m2 = find_matching(catalog2)
        assert automorphism_order(m2) == 2
        assert graph_weight(m2) == Fraction(1, 2)
        assert graph_weight(m2, "twin-classes") == 1

        m3 = find_matching(catalog3)
        assert automorphism_order(m3) == 2
        assert graph_weight(m3) == 288
        assert graph_weight(m3, "twin-classes") == 576

    def test_twin_shortcut_example(self, catalog3):
        # single edge at n=3: 5184 over twin denominator 2!*1!*2!*1! = 4
        e = catalog3.buckets[1][0]
        assert degree_factor(e.profile) == 5184
        assert graph_weight(e, "twin-classes") == 1296
        assert graph_weight(e) == 1296

    def test_orbit_size_must_divide_the_group(self):
        # (2!)² = 4 labelings cannot fall into an orbit of 3
        entry = CatalogEntry(0, profile(Bigraph(2, 0)), 3)
        with pytest.raises(ArithmeticError, match="does not divide"):
            automorphism_order(entry)

    def test_complete_graph_weight(self, catalog3):
        e = catalog3.buckets[9][0]
        assert graph_weight(e) == Fraction(1, 36)
        assert graph_weight(e, "twin-classes") == Fraction(1, 36)

    def test_twin_group_embeds_in_automorphism_group(self, catalog2, catalog3):
        # permuting twins is always an automorphism, so the twin product
        # divides |Aut|; the weights are ordered accordingly
        for catalog in (catalog2, catalog3):
            n = catalog.n
            for _k, e in catalog.entries():
                twin_product = 1
                for size in e.profile.twin_class_sizes:
                    twin_product *= math.factorial(size)
                aut = automorphism_order(e)
                assert aut % twin_product == 0
                assert graph_weight(e) <= graph_weight(e, "twin-classes")

    def test_graph_weight_dispatch(self, catalog2):
        e = find_matching(catalog2)
        assert graph_weight(e) == Fraction(1, 2)
        assert graph_weight(e, "twin-classes") == 1
        with pytest.raises(ValueError, match="unknown convention"):
            graph_weight(e, "orbit")


def test_one_weight_function_sized_by_its_input():
    # the convention picks only the denominator of the one per-class weight;
    # a class's profile fixes its side size, and the caller builds the catalog
    assert not hasattr(formula, "twin_class_weight")
    assert not hasattr(formula, "enumerate_catalog")
    for fn in (degree_factor, automorphism_order, graph_weight):
        assert "n" not in inspect.signature(fn).parameters
    with pytest.raises(TypeError):
        count_ordered(2)


class TestBucketWeights:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize(
        "convention,tables",
        [("automorphism", AUTOMORPHISM_TABLES), ("twin-classes", TWIN_TABLES)],
    )
    def test_tables(self, n, convention, tables, catalog2, catalog3):
        catalog = {2: catalog2, 3: catalog3}[n]
        table = weight_table(catalog, convention)
        assert [table[k] for k in range(1, n * n + 1)] == tables[n]

    def test_conventions_differ_only_where_non_twin_symmetry_lives(
        self, catalog2
    ):
        auto = weight_table(catalog2)
        twin = weight_table(catalog2, "twin-classes")
        assert {k for k in auto if auto[k] != twin[k]} == {2}
        assert twin[2] - auto[2] == Fraction(1, 2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_full_bucket_weight(self, n, catalog2, catalog3, catalog4):
        # the complete graph is alone in its bucket and both conventions
        # give 1/(n!)²
        catalog = {2: catalog2, 3: catalog3, 4: catalog4}[n]
        expected = Fraction(1, math.factorial(n) ** 2)
        assert weight_table(catalog)[n * n] == expected
        assert weight_table(catalog, "twin-classes")[n * n] == expected

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_table_keys(self, n, catalog2, catalog3, catalog4):
        # one entry per nonempty edge count; the empty graph is the
        # (n!)^(4n) term of count_ordered, not a bucket
        catalog = {2: catalog2, 3: catalog3, 4: catalog4}[n]
        for convention in ("automorphism", "twin-classes"):
            assert list(weight_table(catalog, convention)) == list(range(1, n * n + 1))


class TestCounts:
    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("convention", ["automorphism", "twin-classes"])
    def test_ordered_and_unordered(self, n, convention, catalog2, catalog3):
        catalog = {2: catalog2, 3: catalog3}[n]
        ordered = count_ordered(n, weight_table(catalog, convention))
        assert ordered == COUNTS[convention][n]
        assert count_unordered(n, weight_table(catalog, convention)) == ordered // 2

    def test_default_convention_is_automorphism(self, catalog2):
        assert count_ordered(2, weight_table(catalog2)) == 112

    def test_alternating_sum_assembly(self, catalog2):
        # ordered(2) = (2!)^8 + (2!)^6 * (-w1 + w2 - w3 + w4), per convention
        for convention, expected_tail, expected in [
            ("automorphism", Fraction(-9, 4), 112),
            ("twin-classes", Fraction(-7, 4), 144),
        ]:
            table = weight_table(catalog2, convention)
            tail = sum((-1) ** k * table[k] for k in range(1, 5))
            assert tail == expected_tail
            assert 256 + 64 * tail == expected

    def test_counts_scale_against_matrix_population(self, catalog2):
        # 16 matrices, 7 disjoint partners each
        assert count_ordered(2, weight_table(catalog2)) == matrix_count(2) * 7

    def test_n4_runs_exactly(self, catalog4):
        ordered = count_ordered(4, weight_table(catalog4))
        shortcut = count_ordered(4, weight_table(catalog4, "twin-classes"))
        assert ordered % 2 == 0 and shortcut % 2 == 0
        assert 0 < ordered < matrix_count(4) ** 2
        # the shortcut only ever inflates
        assert ordered < shortcut

    def test_odd_ordered_count_raises(self, odd_weight_table, catalog2):
        with pytest.raises(ArithmeticError, match="odd"):
            count_ordered(2, odd_weight_table(catalog2))

    @pytest.mark.parametrize(
        "odd_weight_table, message",
        [(Fraction(1, 2), "clear denominators"), (128, "negative pair count")],
        indirect=["odd_weight_table"],
        ids=["fraction", "negative"],
    )
    def test_inconsistent_ordered_count_raises(
        self, odd_weight_table, message, catalog2
    ):
        with pytest.raises(ArithmeticError, match=message):
            count_ordered(2, odd_weight_table(catalog2))

    def test_input_validation(self, catalog2):
        catalog1 = enumerate_catalog(1)
        assert count_ordered(1, weight_table(catalog1)) == run_census(1).ordered_pairs == 0
        with pytest.raises(ValueError, match=r"buckets are not 1\.\.9"):
            count_ordered(3, weight_table(catalog2))
        with pytest.raises(ValueError, match=">= 1"):
            count_ordered(0, {})
        with pytest.raises(ValueError, match="unknown convention"):
            count_ordered(2, weight_table(catalog2, "orbit"))
        # a float has no denominator, and True would count as weight 1
        with pytest.raises(ValueError, match="bucket 1 is not a Fraction or int"):
            count_ordered(2, {1: 1.0, 2: 0.5, 3: 0, 4: 0})
        with pytest.raises(ValueError, match="bucket 1 is not a Fraction or int"):
            count_ordered(2, {1: True, 2: 1, 3: 1, 4: 1})


@pytest.mark.xfail(
    strict=True,
    reason="the twin-class shortcut undercounts the symmetry of matchings, "
    "so its totals disagree with the exhaustive census",
)
def test_twin_convention_matches_census(catalog2):
    result = run_census(2)
    assert count_ordered(2, weight_table(catalog2, "twin-classes")) == result.ordered_pairs


def test_automorphism_convention_matches_census(catalog2):
    result = run_census(2)
    assert count_ordered(2, weight_table(catalog2)) == result.ordered_pairs
    assert count_unordered(2, weight_table(catalog2)) == result.unordered_pairs


def test_format_rational():
    assert format_rational(Fraction(1296)) == "1296/1"
    assert format_rational(Fraction(1, 4)) == "1/4"
    assert format_rational(Fraction(-9, 4)) == "-9/4"


def test_monte_carlo_arbitrates_n4(catalog4):
    # no census is feasible at block order 4; a seeded uniform sample of
    # pairs separates the two conventions by dozens of standard errors
    n, n2 = 4, 16
    rng = random.Random(20260816)
    words = list(permutations(range(1, n + 1)))

    def draw_mask():
        # one uniform choice among the 24 permutations per block row and column
        perms = [rng.choice(words) for _ in range(2 * n)]
        bits = 0
        for s in range(n):
            for t in range(n):
                r = s * n + perms[s][t]
                c = t * n + perms[n + t][s]
                bits |= 1 << ((r - 1) * n2 + (c - 1))
        return bits

    trials = 40_000
    hits = sum(1 for _ in range(trials) if draw_mask() & draw_mask() == 0)
    estimate = hits / trials

    pool = matrix_count(4) ** 2
    p_auto = count_ordered(4, weight_table(catalog4)) / pool
    p_twin = count_ordered(4, weight_table(catalog4, "twin-classes")) / pool
    sigma = math.sqrt(p_auto * (1 - p_auto) / trials)
    assert abs(estimate - p_auto) < 5 * sigma
    assert abs(estimate - p_twin) > 20 * sigma
