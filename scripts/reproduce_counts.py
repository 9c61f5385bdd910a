#!/usr/bin/env python3
"""Reproduce every headline number from a cold start.

Walks block orders 2 and 3 end to end: catalog sizes, bucket weight tables
under both denominator conventions, formula totals, and the brute-force
census cross-check.  Finishes with the Sudoku layer and the formula-only
order-4 counts.  Exits nonzero if any cross-check fails.
"""

import argparse
import sys

import spairs as sp


def show_order(n: int) -> bool:
    catalog = sp.enumerate_catalog(n)
    print(f"== block order {n} ==")
    print(f"matrices: {sp.matrix_count(n)}")
    sizes = catalog.sizes()
    print(f"catalog classes by edge count: {[sizes[k] for k in range(n * n + 1)]}")
    for convention in sp.CONVENTIONS:
        table = sp.weight_table(catalog, convention)
        cells = ", ".join(sp.format_rational(table[k]) for k in sorted(table))
        print(f"{convention} bucket weights: {cells}")
        print(
            f"{convention} formula: ordered {sp.count_ordered(n, catalog, convention)}"
            f", unordered {sp.count_unordered(n, catalog, convention)}"
        )
    census = sp.run_census(n)
    print(
        f"census: ordered {census.ordered_pairs}, unordered "
        f"{census.unordered_pairs}, {census.elapsed_seconds:.2f}s"
    )
    ok = census.ordered_pairs == sp.count_ordered(n, catalog)
    verdict = "match" if ok else "MISMATCH"
    print(f"formula (automorphism) vs census: {verdict}")
    print()
    return ok


def show_sudoku() -> None:
    print("== Sudoku layer ==")
    print(f"4x4 grids: {sp.count_grids(2)}")
    print(f"4x4 complete disjoint families: {sp.count_cliques(2)}")
    derived = sp.clique_count_from_grid_count(sp.KNOWN_GRID_COUNTS[3], 3)
    print(f"9x9 grids (known): {sp.KNOWN_GRID_COUNTS[3]}")
    print(f"9x9 complete disjoint families: {derived}")
    print()


def show_order_4() -> None:
    catalog = sp.enumerate_catalog(4)
    print("== block order 4 (formula only, unverified by census) ==")
    for convention in sp.CONVENTIONS:
        print(
            f"{convention}: ordered {sp.count_ordered(4, catalog, convention)}"
        )
    print()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--skip-order-3", action="store_true", help="skip the slow order-3 census"
    )
    args = parser.parse_args()

    orders = [2] if args.skip_order_3 else [2, 3]
    ok = all([show_order(n) for n in orders])
    show_sudoku()
    show_order_4()
    if not ok:
        print("cross-check FAILED", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
