from itertools import combinations_with_replacement, permutations
from math import factorial, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spairs import (
    Bigraph,
    CatalogEntry,
    SizeLimitError,
    bigraphs,
    canonical_code,
    count_ordered,
    enumerate_catalog,
    format_code,
    from_edges,
    profile,
    to_dot,
    weight_table,
)

# ordered disjoint pairs at block order 5, as the two catalog-free DPs of
# ROADMAP item 3 compute it
ORDERED_5 = 143742419580577967949843749928960000000000


def relabel(g: Bigraph, row_map, col_map) -> Bigraph:
    return from_edges(g.n, [(row_map[r], col_map[c]) for r, c in g.edges()])


def brute_force_orbit(g: Bigraph) -> set[int]:
    perms = list(permutations(range(g.n)))
    return {relabel(g, pr, pc).code for pr in perms for pc in perms}


def min_image_buckets(n: int) -> dict[int, list[CatalogEntry]]:
    # the catalog as the minimum-image filter built it: keep a sorted row
    # tuple iff no column permutation re-sorts it to a smaller tuple
    relabeled = [
        [sum(1 << (n - 1 - p[c]) for c in range(n) if row >> (n - 1 - c) & 1)
         for row in range(1 << n)]
        for p in permutations(range(n))
    ]
    buckets = {k: [] for k in range(n * n + 1)}
    for rows in combinations_with_replacement(range(1 << n), n):
        images = {tuple(sorted(t[r] for r in rows)) for t in relabeled}
        if min(images) != rows:
            continue
        orders = factorial(n) // prod(factorial(rows.count(r)) for r in set(rows))
        code = 0
        for r in rows:
            code = (code << n) | r
        g = Bigraph(n, code)
        buckets[g.edge_count()].append(
            CatalogEntry(code, profile(g), len(images) * orders)
        )
    return buckets


class TestBigraph:
    def test_edges_round_trip(self):
        edges = [(0, 1), (1, 0), (2, 2)]
        g = from_edges(3, edges)
        assert sorted(g.edges()) == sorted(edges)
        assert g.edge_count() == 3

    def test_bit_is_msb_first(self):
        g = from_edges(2, [(0, 0)])
        assert g.code == 0b1000
        assert g.bit(0, 0) == 1
        assert g.bit(1, 1) == 0

    def test_from_edges_range_check(self):
        with pytest.raises(ValueError, match=r"edge \(2, 0\)"):
            from_edges(2, [(2, 0)])
        # an endpoint is an int: True == 1 and 0.0 == 0, but neither is a vertex
        for edge in ((True, 0), (0.0, 0), (0, False), (-1, 0)):
            with pytest.raises(ValueError, match=rf"edge \({edge[0]!r}, {edge[1]!r}\) is not"):
                from_edges(2, [edge])

    @pytest.mark.parametrize(
        "n,code,expected",
        [(2, 15, "f"), (2, 6, "6"), (3, 511, "1ff"), (4, 65535, "ffff")],
    )
    def test_format_code_width(self, n, code, expected):
        assert format_code(n, code) == expected

    @pytest.mark.parametrize("code", [-1, 16, True])
    def test_format_code_range_check(self, code):
        # the fixed width holds only for codes a Bigraph of that size accepts
        with pytest.raises(ValueError, match=r"code must be an int in 0\.\.2\^4-1"):
            format_code(2, code)


class TestProfile:
    def test_single_edge(self):
        p = profile(from_edges(2, [(0, 0)]))
        assert p.degree_counts == (2, 2, 0)
        assert p.twin_class_sizes == (1, 1, 1, 1)

    def test_complete_graph(self):
        p = profile(Bigraph(2, 15))
        assert p.degree_counts == (0, 0, 4)
        assert p.twin_class_sizes == (2, 2)

    def test_cherry(self):
        # one row vertex joined to both columns
        p = profile(Bigraph(2, 0b0011))
        assert p.degree_counts == (1, 2, 1)
        assert p.twin_class_sizes == (1, 1, 2)

    def test_empty_graph_groups_isolated_per_side(self):
        p = profile(Bigraph(3, 0))
        assert p.degree_counts == (6, 0, 0, 0)
        assert p.twin_class_sizes == (3, 3)

    def test_matches_edge_reading(self, catalog4):
        # profile reads the row masks; this reading walks the edge list:
        # degrees by counting endpoints, twins by comparing neighbor sets
        def by_edges(g):
            n, edges = g.n, g.edges()
            endpoints = [("r", r) for r, _c in edges] + [("c", c) for _r, c in edges]
            degrees = [endpoints.count((side, v)) for side in "rc" for v in range(n)]
            sides = [
                [frozenset(c for r, c in edges if r == v) for v in range(n)],
                [frozenset(r for r, c in edges if c == v) for v in range(n)],
            ]
            sizes = [nbrs.count(nb) for nbrs in sides for nb in set(nbrs)]
            return (tuple(degrees.count(d) for d in range(n + 1)), tuple(sorted(sizes)))

        graphs = [Bigraph(n, code) for n in (1, 2, 3) for code in range(1 << n * n)]
        graphs += [Bigraph(4, e.code) for _k, e in catalog4.entries()]
        for g in graphs:
            assert profile(g) == by_edges(g), format_code(g.n, g.code)

    def test_degree_sum_counts_each_edge_twice(self, catalog3):
        for k, e in catalog3.entries():
            counts = profile(Bigraph(3, e.code)).degree_counts
            assert sum(i * d for i, d in enumerate(counts)) == 2 * k


class TestCatalog:
    @pytest.mark.parametrize(
        "n,sizes",
        [
            (1, [1, 1]),
            (2, [1, 1, 3, 1, 1]),
            (3, [1, 1, 3, 6, 7, 7, 6, 3, 1, 1]),
            (4, [1, 1, 3, 6, 16, 21, 39, 44, 55, 44, 39, 21, 16, 6, 3, 1, 1]),
        ],
    )
    def test_bucket_sizes(self, n, sizes):
        catalog = enumerate_catalog(n)
        assert [catalog.sizes()[k] for k in range(n * n + 1)] == sizes

    def test_class_totals_match_burnside(
        self, burnside_class_count, catalog2, catalog3, catalog4, catalog5
    ):
        for catalog in (catalog2, catalog3, catalog4, catalog5):
            total = sum(len(v) for v in catalog.buckets.values())
            assert total == burnside_class_count(catalog.n)

    def test_n4_has_317_classes(self, catalog4):
        assert sum(len(v) for v in catalog4.buckets.values()) == 317

    def test_orbit_sizes_partition_all_masks(
        self, catalog2, catalog3, catalog4, catalog5
    ):
        for catalog in (catalog2, catalog3, catalog4, catalog5):
            mass = sum(e.orbit_size for _k, e in catalog.entries())
            assert mass == 1 << (catalog.n ** 2)

    def test_orbit_size_divides_group_order(self, catalog3, catalog4):
        for catalog in (catalog3, catalog4):
            group = factorial(catalog.n) ** 2
            for _k, e in catalog.entries():
                assert group % e.orbit_size == 0

    def test_entries_are_canonical(self, catalog2, catalog3, catalog4):
        for catalog in (catalog2, catalog3, catalog4):
            for _k, e in catalog.entries():
                assert canonical_code(Bigraph(catalog.n, e.code)) == e.code

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_orbit_marking_equals_min_image_filter(self, n):
        assert enumerate_catalog(n).buckets == min_image_buckets(n)

    @pytest.mark.parametrize(
        "full,message", [(False, "never reached"), (True, "sum to")],
        ids=["to-empty", "to-full"],
    )
    def test_walk_checks_itself(self, monkeypatch, full, message):
        # a table that sends every row to one value is no relabeling: its
        # image of every tuple is the empty graph, which the walk has passed
        # already, or the complete graph, which then lands in other orbits
        tables = bigraphs._column_tables

        def with_collapse(n):
            row = (1 << n) - 1 if full else 0
            return tables(n) + [[row] * (1 << n)]

        monkeypatch.setattr(bigraphs, "_column_tables", with_collapse)
        with pytest.raises(ArithmeticError, match=message):
            enumerate_catalog(3)

    def test_buckets_sorted_by_code(self, catalog3):
        for bucket in catalog3.buckets.values():
            codes = [e.code for e in bucket]
            assert codes == sorted(codes)

    def test_n2_canonical_codes(self, catalog2):
        assert {k: [e.code for e in v] for k, v in catalog2.buckets.items()} == {
            0: [0],
            1: [1],
            2: [3, 5, 6],
            3: [7],
            4: [15],
        }

    def test_mirror_cherries_stay_distinct(self, catalog2):
        # sides are never exchanged: the two 2-edge cherries share a profile
        # but are separate classes
        a, b, matching = catalog2.buckets[2]
        assert a.profile == b.profile
        assert a.code != b.code
        assert matching.profile.twin_class_sizes == (1, 1, 1, 1)
        assert matching.orbit_size == 2

    def test_every_n2_mask_maps_to_a_catalog_code(self, catalog2):
        codes = {e.code for _k, e in catalog2.entries()}
        for mask in range(16):
            canon = canonical_code(Bigraph(2, mask))
            assert canon in codes
            assert canon <= mask

    def test_canonical_code_is_brute_force_minimum(self):
        for code in range(512):
            g = Bigraph(3, code)
            assert canonical_code(g) == min(brute_force_orbit(g))

    def test_orbit_sizes_match_brute_force(self, catalog3):
        for _k, e in catalog3.entries():
            assert e.orbit_size == len(brute_force_orbit(Bigraph(3, e.code)))

    def test_n5_bucket_sizes(self, catalog5):
        # 5624 classes in all
        half = [1, 1, 3, 6, 16, 34, 69, 130, 234, 367, 527, 669, 755]
        assert [catalog5.sizes()[k] for k in range(26)] == half + half[::-1]

    def test_n5_ordered_count_matches_dp(self, catalog5):
        assert count_ordered(5, weight_table(catalog5)) == ORDERED_5

    def test_scale_cap(self):
        with pytest.raises(SizeLimitError, match="2\\^36"):
            enumerate_catalog(6)
        with pytest.raises(ValueError, match=">= 1"):
            enumerate_catalog(0)


@given(
    st.integers(min_value=0, max_value=511),
    st.permutations(list(range(3))),
    st.permutations(list(range(3))),
)
def test_canonical_code_is_relabeling_invariant(code, row_map, col_map):
    g = Bigraph(3, code)
    assert canonical_code(relabel(g, row_map, col_map)) == canonical_code(g)


def test_to_dot_lists_every_edge():
    dot = to_dot(Bigraph(2, 1))
    assert dot.startswith('graph "g_1" {')
    assert "r2 -- c2;" in dot
    assert dot.count(" -- ") == 1
