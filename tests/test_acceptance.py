"""Acceptance gate: one test per published target, timed where stated.

Each test records a pass/fail line through the ``acceptance_log`` fixture;
the suite prints the aggregated per-criterion verdicts at the end.  Targets
that the package cannot honestly meet are still executed, as strict xfails:
the run shows exactly which stated value disagrees with the measured one,
and a silent "fix" that made them agree would turn the xfail into a hard
XPASS failure.
"""

import json
import math
import time
from fractions import Fraction

import pytest

import spairs as sp
from spairs.cli import main as cli_main

SPEC_TWIN_TABLES = {
    2: [4, 3, 1, Fraction(1, 4)],
    3: [1296, 1008, 352, 125, 37, 8, 2, Fraction(1, 4), Fraction(1, 36)],
}


def test_criterion_01_catalog_class_counts(acceptance_log):
    start = time.perf_counter()
    sizes2 = sp.enumerate_catalog(2).sizes()
    sizes3 = sp.enumerate_catalog(3).sizes()
    elapsed = time.perf_counter() - start
    ok2 = [sizes2[k] for k in range(1, 5)] == [1, 3, 1, 1]
    ok3 = [sizes3[k] for k in range(1, 10)] == [1, 3, 6, 7, 7, 6, 3, 1, 1]
    acceptance_log(
        1,
        ok2 and ok3 and elapsed < 1.0,
        f"class counts 1,3,1,1 and 1,3,6,7,7,6,3,1,1 in {elapsed:.3f}s",
    )
    assert ok2 and ok3
    assert elapsed < 1.0


def test_criterion_02_weight_tables_bit_exact(acceptance_log, catalog2, catalog3):
    tables = {
        n: sp.weight_table(catalog, "twin-classes")
        for n, catalog in ((2, catalog2), (3, catalog3))
    }
    ok = all(
        [tables[n][k] for k in range(1, n * n + 1)] == SPEC_TWIN_TABLES[n]
        for n in (2, 3)
    )
    acceptance_log(
        2,
        ok,
        "published tables reproduced exactly under the twin-class "
        "denominator they are defined with",
    )
    for n in (2, 3):
        assert [tables[n][k] for k in range(1, n * n + 1)] == SPEC_TWIN_TABLES[n]


def test_criterion_03_formula_totals(acceptance_log, catalog2, catalog3):
    got = (
        sp.count_ordered(2, sp.weight_table(catalog2, "twin-classes")),
        sp.count_unordered(2, sp.weight_table(catalog2, "twin-classes")),
        sp.count_ordered(3, sp.weight_table(catalog3, "twin-classes")),
        sp.count_unordered(3, sp.weight_table(catalog3, "twin-classes")),
    )
    ok = got == (144, 72, 1_260_085_248, 630_042_624)
    acceptance_log(
        3,
        ok,
        "144/72 and 1260085248/630042624 under twin-classes; the "
        "census-verified totals are 112/56 and 838501632/419250816",
    )
    assert got == (144, 72, 1_260_085_248, 630_042_624)


def test_criterion_04_census_timing_and_determinism(
    acceptance_log, census3, census3_two_workers
):
    start = time.perf_counter()
    result2 = sp.run_census(2)
    elapsed2 = time.perf_counter() - start
    timing_ok = elapsed2 < 1.0 and census3.elapsed_seconds < 600
    acceptance_log(
        4,
        timing_ok,
        f"census runtimes {elapsed2:.3f}s (order 2) and "
        f"{census3.elapsed_seconds:.1f}s (order 3)",
    )
    workers_ok = (
        census3_two_workers.ordered_pairs,
        census3_two_workers.unordered_pairs,
    ) == (census3.ordered_pairs, census3.unordered_pairs)
    acceptance_log(4, workers_ok, "1 and 2 workers agree")
    assert timing_ok and workers_ok
    assert result2.matrices_scanned == 16


@pytest.mark.xfail(
    strict=True,
    reason="the stated census values assume the twin-class shortcut; an "
    "exhaustive scan measures 112/56 (order 2) and 419250816 unordered "
    "(order 3)",
)
def test_criterion_04_stated_census_values(acceptance_log, census3):
    result2 = sp.run_census(2)
    got = (result2.ordered_pairs, result2.unordered_pairs, census3.unordered_pairs)
    acceptance_log(
        4,
        got == (144, 72, 630_042_624),
        f"stated values (144, 72, 630042624) vs measured {got}",
        pinned_mismatch=True,
    )
    assert got == (144, 72, 630_042_624)


def test_criterion_05_formula_equals_census(acceptance_log, catalog2, catalog3, census3):
    result2 = sp.run_census(2)
    ok = (
        sp.count_ordered(2, sp.weight_table(catalog2)) == result2.ordered_pairs
        and sp.count_unordered(2, sp.weight_table(catalog2)) == result2.unordered_pairs
        and sp.count_ordered(3, sp.weight_table(catalog3)) == census3.ordered_pairs
        and sp.count_unordered(3, sp.weight_table(catalog3)) == census3.unordered_pairs
    )
    acceptance_log(
        5,
        ok,
        "default-convention formula matches the census at orders 2 and 3 "
        f"({result2.ordered_pairs} and {census3.ordered_pairs} ordered)",
    )
    assert ok


def test_criterion_06_matrix_enumeration(acceptance_log, matrices2):
    mats3_masks = set()
    valid3 = True
    count3 = 0
    for m in sp.enumerate_matrices(3):
        count3 += 1
        mats3_masks.add(m.mask)
        valid3 = valid3 and sp.mask_is_valid(3, m.mask)
    ok = (
        len(matrices2) == 16
        and len({m.mask for m in matrices2}) == 16
        and all(sp.mask_is_valid(2, m.mask) for m in matrices2)
        and count3 == 46656
        and len(mats3_masks) == 46656
        and valid3
        and sp.matrix_count(2) == 16
        and sp.matrix_count(3) == 46656
    )
    acceptance_log(
        6, ok, "16 and 46656 matrices, masks distinct, cell-level validator green"
    )
    assert ok


def test_criterion_07_sudoku_layer(acceptance_log):
    start = time.perf_counter()
    grids = sp.count_grids(2)
    cliques = sp.count_cliques(2)
    elapsed = time.perf_counter() - start
    derived = sp.clique_count_from_grid_count(sp.KNOWN_GRID_COUNTS[3], 3)
    ok = (
        grids == 288
        and cliques == 12
        and cliques * math.factorial(4) == grids
        and derived == 18_383_222_420_692_992
        and elapsed < 5.0
    )
    acceptance_log(
        7,
        ok,
        f"288 grids, 12 cliques, 12*4! = 288, 9x9 clique count "
        f"{derived}, in {elapsed:.3f}s",
    )
    assert ok


def test_criterion_08_property_suite(acceptance_log, burnside_class_count, catalog2, catalog3,
                                     all_grids2, matrices2):
    # degree sums count each edge twice
    psi_ok = all(
        sum(i * d for i, d in enumerate(e.profile.degree_counts)) == 2 * k
        for catalog in (catalog2, catalog3)
        for k, e in catalog.entries()
    )

    # class totals against an independent orbit count
    burnside_ok = (
        sum(catalog2.sizes().values()) == burnside_class_count(2) == 7
        and sum(catalog3.sizes().values()) == burnside_class_count(3) == 36
    )

    # every order-2 grid splits and reassembles
    round_trip_ok = all(sp.recompose(sp.decompose(g)) == g for g in all_grids2)

    # the two per-graph weight formulas agree on the full order-3 catalog:
    # full vertex product and truncated degree-power form, both over the
    # twin-class denominator
    def full_product_weight(e, n):
        num = 1
        for i, d in enumerate(e.profile.degree_counts):
            num *= math.factorial(n - i) ** d
        den = 1
        for size in e.profile.twin_class_sizes:
            den *= math.factorial(size)
        return Fraction(num, den)

    omega_ok = all(
        full_product_weight(e, 3) == sp.graph_weight(e, "twin-classes")
        for _k, e in catalog3.entries()
    )

    # disjointness is symmetric and irreflexive over the whole order-2 set
    disjoint_ok = all(
        sp.is_disjoint(a, b) == sp.is_disjoint(b, a)
        for a in matrices2
        for b in matrices2
    ) and not any(sp.is_disjoint(a, a) for a in matrices2)

    ok = psi_ok and burnside_ok and round_trip_ok and omega_ok and disjoint_ok
    acceptance_log(
        8,
        ok,
        "degree sums, orbit counts 7/36, 288 grid round-trips, weight-form "
        "equivalence, disjointness symmetry all hold",
    )
    assert psi_ok
    assert burnside_ok
    assert round_trip_ok
    assert omega_ok
    assert disjoint_ok


def test_criterion_09_order_4_formula_path(acceptance_log, catalog4, capsys):
    ordered = sp.count_ordered(4, sp.weight_table(catalog4))
    shortcut = sp.count_ordered(4, sp.weight_table(catalog4, "twin-classes"))
    code = cli_main(["count", "--n", "4", "--mode", "formula"])
    payload = json.loads(capsys.readouterr().out)["payload"]
    ok = (
        ordered == 4_588_496_253_937_193_582_592
        and shortcut == 6_860_624_236_598_230_253_568
        and code == 0
        and payload["note"] == "unverified by census"
        and payload["formula"]["ordered_pairs"] == str(ordered)
    )
    acceptance_log(
        9,
        ok,
        "order-4 counts computed exactly under both conventions and "
        "labeled unverified by census",
    )
    assert ok
