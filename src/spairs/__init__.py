"""Exact counting of disjoint pairs of S-permutation matrices.

Two independent routes to the same numbers: a weighted inclusion-exclusion
over a catalog of bipartite graphs (`formula`, exact rationals) and a
brute-force bitmask census over all pairs (`census`).  The `sudoku` module
connects the disjointness structure to Sudoku-matrix counting.

`import spairs` loads none of them: a module is imported on first use of
one of its names below (PEP 562), so a census call never loads the catalog.
"""

import importlib

# each public name, under the module that defines it
_EXPORTS = {
    "bigraphs": (
        "Bigraph",
        "CatalogEntry",
        "GraphCatalog",
        "GraphProfile",
        "canonical_code",
        "enumerate_catalog",
        "format_code",
        "from_edges",
        "profile",
        "to_dot",
    ),
    "census": ("CensusResult", "degree_histogram", "run_census"),
    "formula": (
        "automorphism_order",
        "count_ordered",
        "count_unordered",
        "degree_factor",
        "format_rational",
        "graph_weight",
        "weight_table",
    ),
    "sperm": (
        "SizeLimitError",
        "SPermMatrix",
        "build_matrix",
        "cell_bitsets",
        "enumerate_matrices",
        "is_disjoint",
        "mask_is_valid",
        "matrix_at",
        "matrix_count",
    ),
    "sudoku": (
        "KNOWN_GRID_COUNTS",
        "DisjointFamily",
        "GridFormatError",
        "InvalidGridError",
        "SudokuGrid",
        "clique_count_from_grid_count",
        "complete_families",
        "count_cliques",
        "count_grids",
        "decompose",
        "first_violation",
        "iter_grids",
        "parse_grid",
        "recompose",
        "sample_family",
    ),
}
_HOME = {name: home for home, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name):
    # not cached in globals(), so spairs.X stays whatever spairs.<home>.X is
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
