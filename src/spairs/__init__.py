"""Exact counting of disjoint pairs of S-permutation matrices.

Two independent routes to the same numbers: a weighted inclusion-exclusion
over a catalog of bipartite graphs (`formula`, exact rationals) and a
brute-force bitmask census over all pairs (`census`).  The `sudoku` module
connects the disjointness structure to Sudoku-matrix counting.
"""

from .bigraphs import (
    CATALOG_CAP,
    Bigraph,
    CatalogEntry,
    GraphCatalog,
    GraphProfile,
    canonical_code,
    enumerate_catalog,
    format_code,
    from_edges,
    profile,
    to_dot,
)
from .census import CENSUS_CAP, CensusResult, degree_histogram, run_census
from .formula import (
    CONVENTIONS,
    automorphism_order,
    count_ordered,
    count_unordered,
    degree_factor,
    format_rational,
    graph_weight,
    weight_table,
)
from .sperm import (
    ENUMERATION_CAP,
    SizeLimitError,
    SPermMatrix,
    build_matrix,
    cell_bitsets,
    enumerate_matrices,
    is_disjoint,
    mask_is_valid,
    matrix_at,
    matrix_count,
)
from .sudoku import (
    KNOWN_GRID_COUNTS,
    DisjointFamily,
    GridFormatError,
    InvalidGridError,
    SudokuGrid,
    clique_count_from_grid_count,
    complete_families,
    count_cliques,
    count_grids,
    decompose,
    first_violation,
    iter_grids,
    parse_grid,
    recompose,
    sample_family,
)

__version__ = "0.1.0"

__all__ = [
    "Bigraph",
    "CatalogEntry",
    "CensusResult",
    "DisjointFamily",
    "GraphCatalog",
    "GraphProfile",
    "GridFormatError",
    "InvalidGridError",
    "SPermMatrix",
    "SizeLimitError",
    "SudokuGrid",
    "CATALOG_CAP",
    "CENSUS_CAP",
    "CONVENTIONS",
    "ENUMERATION_CAP",
    "KNOWN_GRID_COUNTS",
    "automorphism_order",
    "build_matrix",
    "canonical_code",
    "cell_bitsets",
    "clique_count_from_grid_count",
    "complete_families",
    "count_cliques",
    "count_grids",
    "count_ordered",
    "count_unordered",
    "decompose",
    "degree_factor",
    "degree_histogram",
    "enumerate_catalog",
    "enumerate_matrices",
    "first_violation",
    "format_code",
    "format_rational",
    "from_edges",
    "graph_weight",
    "is_disjoint",
    "iter_grids",
    "mask_is_valid",
    "matrix_at",
    "matrix_count",
    "parse_grid",
    "profile",
    "recompose",
    "run_census",
    "sample_family",
    "to_dot",
    "weight_table",
]
