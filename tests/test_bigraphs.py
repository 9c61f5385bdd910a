from itertools import permutations
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spairs import (
    Bigraph,
    SizeLimitError,
    canonical_code,
    enumerate_catalog,
    format_code,
    from_edges,
    profile,
    to_dot,
)


def relabel(g: Bigraph, row_map, col_map) -> Bigraph:
    return from_edges(g.n, [(row_map[r], col_map[c]) for r, c in g.edges()])


def brute_force_orbit(g: Bigraph) -> set[int]:
    perms = list(permutations(range(g.n)))
    return {relabel(g, pr, pc).code for pr in perms for pc in perms}


def cycle_lengths(perm):
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        length, v = 0, start
        while not seen[v]:
            seen[v] = True
            v = perm[v]
            length += 1
        out.append(length)
    return out


def burnside_class_count(n: int) -> int:
    # average number of masks fixed by (row perm, col perm); a cell orbit
    # count is the gcd sum over cycle length pairs
    total = 0
    for pr in permutations(range(n)):
        rows = cycle_lengths(pr)
        for pc in permutations(range(n)):
            orbits = sum(gcd(a, b) for a in rows for b in cycle_lengths(pc))
            total += 1 << orbits
    group = len(list(permutations(range(n)))) ** 2
    assert total % group == 0
    return total // group


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

    @pytest.mark.parametrize(
        "n,code,expected",
        [(2, 15, "f"), (2, 6, "6"), (3, 511, "1ff"), (4, 65535, "ffff")],
    )
    def test_format_code_width(self, n, code, expected):
        assert format_code(n, code) == expected
        assert Bigraph(n, code).code_hex() == expected


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

    def test_class_totals_match_burnside(self, catalog2, catalog3, catalog4):
        for catalog in (catalog2, catalog3, catalog4):
            total = sum(len(v) for v in catalog.buckets.values())
            assert total == burnside_class_count(catalog.n)

    def test_n4_has_317_classes(self, catalog4):
        assert sum(len(v) for v in catalog4.buckets.values()) == 317

    def test_orbit_sizes_partition_all_masks(self, catalog2, catalog3, catalog4):
        for catalog in (catalog2, catalog3, catalog4):
            mass = sum(e.orbit_size for _k, e in catalog.entries())
            assert mass == 1 << (catalog.n ** 2)

    def test_orbit_size_divides_group_order(self, catalog3):
        import math

        group = math.factorial(3) ** 2
        for _k, e in catalog3.entries():
            assert group % e.orbit_size == 0

    def test_entries_are_canonical(self, catalog2, catalog3):
        for catalog in (catalog2, catalog3):
            for _k, e in catalog.entries():
                assert canonical_code(Bigraph(catalog.n, e.code)) == e.code

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

    def test_scale_cap(self):
        with pytest.raises(SizeLimitError, match="2\\^25"):
            enumerate_catalog(5)
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
    named = to_dot(Bigraph(2, 1), name="demo")
    assert 'graph "demo"' in named
