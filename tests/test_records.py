"""The package's records are immutable values: NamedTuples compared by field."""

import pytest

import spairs as sp
from spairs.census import CellIndex, cell_index, mask_words

GRID = "2\n1 2 3 4\n3 4 1 2\n2 1 4 3\n4 3 2 1\n"


def _matrix():
    return sp.build_matrix(2, [(1, 2), (2, 1)], [(2, 1), (1, 2)])


# (record type, builder of a fresh instance, its fields in order, hashable)
RECORDS = [
    (sp.SPermMatrix, _matrix, ("n", "row_perms", "col_perms"), True),
    (sp.CensusResult, lambda: sp.CensusResult(2, 112, 56, 16, 0.0),
     ("n", "ordered_pairs", "unordered_pairs", "matrices_scanned", "elapsed_seconds"),
     False),
    (CellIndex, lambda: cell_index(mask_words(2)),
     ("bitsets", "cells", "width"), False),
    (sp.Bigraph, lambda: sp.from_edges(2, [(0, 0), (1, 1)]), ("n", "code"), True),
    (sp.GraphProfile, lambda: sp.profile(sp.from_edges(2, [(0, 1)])),
     ("degree_counts", "twin_class_sizes"), False),
    (sp.CatalogEntry, lambda: sp.enumerate_catalog(2).buckets[2][0],
     ("code", "profile", "orbit_size"), True),
    (sp.GraphCatalog, lambda: sp.enumerate_catalog(2), ("n", "buckets"), False),
    (sp.SudokuGrid, lambda: sp.parse_grid(GRID), ("n", "cells"), False),
    (sp.DisjointFamily, lambda: sp.decompose(sp.parse_grid(GRID)),
     ("n", "members"), False),
]


@pytest.mark.parametrize(
    "kind, build, fields, hashable", RECORDS, ids=[r[0].__name__ for r in RECORDS]
)
def test_records_are_immutable_values(kind, build, fields, hashable):
    a, b = build(), build()
    assert type(a) is kind
    assert isinstance(a, tuple) and a._fields == fields
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
    assert a == b and a is not b
    assert a == kind(**{field: getattr(a, field) for field in fields})
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda m: sp.DisjointFamily(n=2, members=(m, m)), "members 0 and 1 overlap"),
        (lambda m: sp.DisjointFamily(n=2, members=(m, next(sp.enumerate_matrices(3)))),
         "member 1 has block order 3, not 2"),
        (lambda m: sp.DisjointFamily(2, (m,))._replace(members=(m, m)),
         "members 0 and 1 overlap"),
    ],
    ids=["keyword-overlap", "keyword-block-order", "replace-overlap"],
)
def test_disjoint_family_checks_every_construction(make, message):
    with pytest.raises(ValueError, match=message):
        make(_matrix())
