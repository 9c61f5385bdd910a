"""Golden renderings: the full text every leaf subcommand prints, byte for byte.

Each case runs one leaf at a small input and compares stdout with the
expected text.  The census's `elapsed_seconds` line is the one field that
varies by run, so it is masked before the comparison.  Every table labels
each field with its JSON key, and a last test walks the parser and fails
if a leaf subcommand has no case here.
"""

import argparse
import json
import re

import pytest

from spairs.cli import _table, build_parser, main

GRID_4X4 = "2\n1 2 3 4\n3 4 1 2\n2 1 4 3\n4 3 2 1\n"

COUNT_TABLE = """\
n 2
mode both
formula
  convention automorphism
  ordered_pairs 112
  unordered_pairs 56
  matrix_count 16
  bucket_weights
    edges 1  weight 4/1
    edges 2  weight 5/2
    edges 3  weight 1/1
    edges 4  weight 1/4
census
  ordered_pairs 112
  unordered_pairs 56
  matrices_scanned 16
match true
"""

COUNT_JSON = """\
{
  "command": "count",
  "params": {
    "n": 2,
    "mode": "both",
    "convention": "automorphism"
  },
  "payload": {
    "n": 2,
    "mode": "both",
    "formula": {
      "convention": "automorphism",
      "ordered_pairs": "112",
      "unordered_pairs": "56",
      "matrix_count": "16",
      "bucket_weights": [
        {
          "edges": 1,
          "weight": "4/1"
        },
        {
          "edges": 2,
          "weight": "5/2"
        },
        {
          "edges": 3,
          "weight": "1/1"
        },
        {
          "edges": 4,
          "weight": "1/4"
        }
      ]
    },
    "census": {
      "ordered_pairs": "112",
      "unordered_pairs": "56",
      "matrices_scanned": "16"
    },
    "match": true
  }
}
"""

COUNT_TWIN_FORMULA_TABLE = """\
n 2
mode formula
formula
  convention twin-classes
  ordered_pairs 144
  unordered_pairs 72
  matrix_count 16
  bucket_weights
    edges 1  weight 4/1
    edges 2  weight 3/1
    edges 3  weight 1/1
    edges 4  weight 1/4
"""

CENSUS_TABLE = """\
n 2
matrices_scanned 16
ordered_pairs 112
unordered_pairs 56
elapsed_seconds <masked>
"""

GRAPHS_TABLE = """\
n 2
class_count 7
labeled_graph_count 16
bucket_sizes
  edges 0  classes 1
  edges 1  classes 1
  edges 2  classes 3
  edges 3  classes 1
  edges 4  classes 1
graphs
  edges 0  code 0  degree_counts 4 0 0  twin_class_sizes 2 2      orbit_size 1  automorphism_order 4  weight 4/1  twin_class_weight 4/1
  edges 1  code 1  degree_counts 2 2 0  twin_class_sizes 1 1 1 1  orbit_size 4  automorphism_order 1  weight 4/1  twin_class_weight 4/1
  edges 2  code 3  degree_counts 1 2 1  twin_class_sizes 1 1 2    orbit_size 2  automorphism_order 2  weight 1/1  twin_class_weight 1/1
  edges 2  code 5  degree_counts 1 2 1  twin_class_sizes 1 1 2    orbit_size 2  automorphism_order 2  weight 1/1  twin_class_weight 1/1
  edges 2  code 6  degree_counts 0 4 0  twin_class_sizes 1 1 1 1  orbit_size 2  automorphism_order 2  weight 1/2  twin_class_weight 1/1
  edges 3  code 7  degree_counts 0 2 2  twin_class_sizes 1 1 1 1  orbit_size 4  automorphism_order 1  weight 1/1  twin_class_weight 1/1
  edges 4  code f  degree_counts 0 0 4  twin_class_sizes 2 2      orbit_size 1  automorphism_order 4  weight 1/4  twin_class_weight 1/4
"""

# like every other rendering, the dot text ends in a newline
GRAPHS_DOT = """\
graph "g_0" {
  rankdir=LR;
  r1 [shape=point];
  c1 [shape=circle, label=""];
}
graph "g_1" {
  rankdir=LR;
  r1 [shape=point];
  c1 [shape=circle, label=""];
  r1 -- c1;
}
"""

SUDOKU_COUNT_TABLE = "n 2\ngrid_count 288\n"

SUDOKU_CLIQUES_TABLE = "n 2\nclique_count 12\n"

SUDOKU_SAMPLE_TABLE = """\
n 2
size 4
complete true
members
  value 1  row_perms (2,1) (2,1)  col_perms (1,2) (1,2)  cells (2,1) (1,3) (4,2) (3,4)
  value 2  row_perms (2,1) (2,1)  col_perms (2,1) (2,1)  cells (2,2) (1,4) (4,1) (3,3)
  value 3  row_perms (1,2) (1,2)  col_perms (2,1) (2,1)  cells (1,2) (2,4) (3,1) (4,3)
  value 4  row_perms (1,2) (1,2)  col_perms (1,2) (1,2)  cells (1,1) (2,3) (3,2) (4,4)
"""

SUDOKU_DECOMPOSE_TABLE = """\
n 2
members
  value 1  row_perms (1,2) (1,2)  col_perms (1,2) (1,2)  cells (1,1) (2,3) (3,2) (4,4)
  value 2  row_perms (1,2) (1,2)  col_perms (2,1) (2,1)  cells (1,2) (2,4) (3,1) (4,3)
  value 3  row_perms (2,1) (2,1)  col_perms (1,2) (1,2)  cells (2,1) (1,3) (4,2) (3,4)
  value 4  row_perms (2,1) (2,1)  col_perms (2,1) (2,1)  cells (2,2) (1,4) (4,1) (3,3)
"""


def _envelope(command: str, params: dict, payload: dict) -> str:
    # COUNT_JSON pins the JSON layout itself; these pin keys and their order
    doc = {"command": command, "params": params, "payload": payload}
    return json.dumps(doc, indent=2) + "\n"


def _graph(edges: int, degree_counts: list) -> dict:
    return {
        "edges": edges,
        "code": str(edges),
        "degree_counts": degree_counts,
        "twin_class_sizes": [1, 1],
        "orbit_size": 1,
        "automorphism_order": 1,
        "weight": "1/1",
        "twin_class_weight": "1/1",
    }


# params echoes the parsed arguments except --format
GRAPHS_JSON = _envelope(
    "graphs",
    {"n": 1},
    {
        "n": 1,
        "class_count": 2,
        "labeled_graph_count": "2",
        "bucket_sizes": [{"edges": 0, "classes": 1}, {"edges": 1, "classes": 1}],
        "graphs": [_graph(0, [2, 0]), _graph(1, [0, 2])],
    },
)


def _member(value: int, row_perm: list, col_perm: list, cells: list) -> dict:
    return {
        "value": value,
        "row_perms": [row_perm, row_perm],
        "col_perms": [col_perm, col_perm],
        "cells": cells,
    }


# the action leads the echo, then the action's arguments in declaration order
SUDOKU_SAMPLE_JSON = _envelope(
    "sudoku",
    {"action": "sample", "n": 2, "seed": 0},
    {
        "n": 2,
        "size": 4,
        "complete": True,
        "members": [
            _member(1, [2, 1], [1, 2], [[2, 1], [1, 3], [4, 2], [3, 4]]),
            _member(2, [2, 1], [2, 1], [[2, 2], [1, 4], [4, 1], [3, 3]]),
            _member(3, [1, 2], [2, 1], [[1, 2], [2, 4], [3, 1], [4, 3]]),
            _member(4, [1, 2], [1, 2], [[1, 1], [2, 3], [3, 2], [4, 4]]),
        ],
    },
)

# "{grid}" stands for a file holding GRID_4X4
CASES = [
    pytest.param(("count", "--n", "2", "--format", "table"), COUNT_TABLE, id="count"),
    pytest.param(("count", "--n", "2"), COUNT_JSON, id="count-json"),
    pytest.param(
        ("count", "--n", "2", "--mode", "formula", "--convention", "twin-classes",
         "--format", "table"),
        COUNT_TWIN_FORMULA_TABLE,
        id="count-twin-formula",
    ),
    pytest.param(("census", "--n", "2", "--format", "table"), CENSUS_TABLE, id="census"),
    pytest.param(("graphs", "--n", "2", "--format", "table"), GRAPHS_TABLE, id="graphs"),
    pytest.param(("graphs", "--n", "1", "--format", "dot"), GRAPHS_DOT, id="graphs-dot"),
    pytest.param(("graphs", "--n", "1"), GRAPHS_JSON, id="graphs-json"),
    pytest.param(
        ("sudoku", "count", "--n", "2", "--format", "table"),
        SUDOKU_COUNT_TABLE,
        id="sudoku-count",
    ),
    pytest.param(
        ("sudoku", "cliques", "--n", "2", "--format", "table"),
        SUDOKU_CLIQUES_TABLE,
        id="sudoku-cliques",
    ),
    pytest.param(
        ("sudoku", "sample", "--n", "2", "--seed", "0", "--format", "table"),
        SUDOKU_SAMPLE_TABLE,
        id="sudoku-sample",
    ),
    pytest.param(
        ("sudoku", "sample", "--n", "2", "--seed", "0"),
        SUDOKU_SAMPLE_JSON,
        id="sudoku-sample-json",
    ),
    pytest.param(
        ("sudoku", "decompose", "{grid}", "--format", "table"),
        SUDOKU_DECOMPOSE_TABLE,
        id="sudoku-decompose",
    ),
]


def _keys(value) -> set:
    """Every key of a JSON value, with those nested in dicts and list items."""
    if isinstance(value, dict):
        return set(value).union(*map(_keys, value.values()))
    if isinstance(value, list):
        return set().union(*map(_keys, value))
    return set()


def _leaves(parser: argparse.ArgumentParser, path: tuple = ()) -> list[tuple]:
    """Command paths of the parsers that take no further subcommand."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        return [path]
    return [
        leaf
        for group in groups
        for name, child in group.choices.items()
        for leaf in _leaves(child, path + (name,))
    ]


@pytest.mark.parametrize("argv, expected", CASES)
def test_rendering_is_byte_identical(capsys, tmp_path, argv, expected):
    grid = tmp_path / "grid.txt"
    grid.write_text(GRID_4X4)
    code = main([str(grid) if arg == "{grid}" else arg for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    out = re.sub(r"(?m)^(elapsed_seconds )\d+\.\d{3}$", r"\1<masked>", captured.out)
    assert out == expected


TABLE_ARGVS = [
    pytest.param(case.values[0], id=case.id)
    for case in CASES
    if case.values[0][-1] == "table"
]


@pytest.mark.parametrize("argv", TABLE_ARGVS)
def test_table_labels_are_the_json_keys(capsys, tmp_path, argv):
    # a field starts a line or follows the two or more spaces that join and
    # pad a list item's fields, and its first word is its JSON key
    grid = tmp_path / "grid.txt"
    grid.write_text(GRID_4X4)
    argv = [str(grid) if arg == "{grid}" else arg for arg in argv]
    assert main(argv[:-2]) == 0  # the same command without --format table
    payload = json.loads(capsys.readouterr().out)["payload"]
    assert main(argv) == 0
    fields = re.split(r"\n| {2,}", capsys.readouterr().out)
    assert {field.split(" ")[0] for field in fields if field} == _keys(payload)


def test_table_rule_covers_shapes_no_payload_has_yet():
    # a flat list (like a future `routes` field), false, and an empty list
    payload = {
        "ok": False,
        "routes": ["catalog", "census"],
        "block": {"items": [{"k": 1, "cells": [[1, 2], [3, 4]]}], "none": []},
    }
    assert _table(payload) == (
        "ok false\n"
        "routes catalog census\n"
        "block\n"
        "  items\n"
        "    k 1  cells (1,2) (3,4)\n"
        "  none\n"
    )


def test_list_item_fields_line_up_in_columns():
    # fields of uneven width, and items with fewer or more fields than others:
    # each field is padded to its column's widest, but a line's last is not
    payload = {
        "rows": [
            {"edges": 1, "weight": "4/1", "tag": "a"},
            {"edges": 16, "weight": "1/4"},
            {"edges": 2, "weight": "1/1024", "tag": "bb", "extra": True},
        ]
    }
    assert _table(payload) == (
        "rows\n"
        "  edges 1   weight 4/1     tag a\n"
        "  edges 16  weight 1/4\n"
        "  edges 2   weight 1/1024  tag bb  extra true\n"
    )


def test_every_leaf_subcommand_has_a_case():
    leaves = _leaves(build_parser())
    assert ("sudoku", "decompose") in leaves
    argvs = [case.values[0] for case in CASES]
    covered = {leaf for leaf in leaves for argv in argvs if argv[: len(leaf)] == leaf}
    assert covered == set(leaves)
