"""The package's records are immutable values: NamedTuples compared by field."""

import pytest

import spairs as sp

GRID = "2\n1 2 3 4\n3 4 1 2\n2 1 4 3\n4 3 2 1\n"


def _matrix():
    return sp.build_matrix(2, [(1, 2), (2, 1)], [(2, 1), (1, 2)])


# (record type, builder of a fresh instance, its fields in order, hashable)
RECORDS = [
    (sp.SPermMatrix, _matrix, ("n", "row_perms", "col_perms"), True),
    (sp.CensusResult, lambda: sp.CensusResult(2, 112, 56, 16, 0.0),
     ("n", "ordered_pairs", "unordered_pairs", "matrices_scanned", "elapsed_seconds"),
     True),
    (sp.Bigraph, lambda: sp.from_edges(2, [(0, 0), (1, 1)]), ("n", "code"), True),
    (sp.GraphProfile, lambda: sp.profile(sp.from_edges(2, [(0, 1)])),
     ("degree_counts", "twin_class_sizes"), True),
    (sp.CatalogEntry, lambda: sp.enumerate_catalog(2).buckets[2][0],
     ("code", "profile", "orbit_size"), True),
    (sp.GraphCatalog, lambda: sp.enumerate_catalog(2), ("n", "buckets"), False),
    (sp.SudokuGrid, lambda: sp.parse_grid(GRID), ("n", "cells"), True),
    (sp.DisjointFamily, lambda: sp.decompose(sp.parse_grid(GRID)),
     ("n", "members"), True),
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


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: sp.Bigraph(n=True, code=1), "block order must be an int, got True"),
        (lambda: sp.Bigraph(2, 1)._replace(n=True), "block order must be an int, got True"),
        (lambda: sp.Bigraph._make((True, 1)), "block order must be an int, got True"),
        # the code is an int in 0..2^(n²)-1: -1 would read as every edge
        (lambda: sp.Bigraph(2, 16), r"code must be an int in 0\.\.2\^4-1, got 16"),
        (lambda: sp.Bigraph(2, 99), "got 99"),
        (lambda: sp.Bigraph(2, -1), "got -1"),
        (lambda: sp.Bigraph(2, True), "got True"),
        (lambda: sp.Bigraph(2, 1.0), "got 1.0"),
        (lambda: sp.Bigraph(2, 1)._replace(code=16), "got 16"),
        (lambda: sp.Bigraph._make((2, -1)), "got -1"),
    ],
    ids=["keyword", "replace", "make", "code-past-the-top", "code-99", "code-negative",
         "code-bool", "code-float", "replace-code", "make-code"],
)
def test_bigraph_checks_every_construction(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_disjoint_family_keeps_a_tuple_of_a_list_of_members():
    family = sp.DisjointFamily(2, [_matrix()])
    assert family.members == (_matrix(),)
    assert hash(family) == hash(sp.DisjointFamily(2, (_matrix(),)))
