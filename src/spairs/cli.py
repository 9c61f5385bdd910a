"""Command-line surface.

Subcommands: graphs, count, census, sudoku.  Output goes to stdout and is
pure JSON under --format json: an envelope with the command name, a params
echo of every parsed argument except --format, and a payload.  Computed
counts and weights are serialized as decimal strings ("144", "1/4") so
consumers without big integers survive; small structural integers (n, k,
sizes, echoed flags) stay plain JSON numbers.  --format table prints each
payload field under its JSON name, through one renderer for every command;
graphs alone also has --format dot.

Exit codes are frozen for CI use:

    0   success
    2   scale cap exceeded
    3   cross-validation mismatch (formula vs census), internal
        consistency failure (an odd pair sum, an uncleared denominator)
        or a failed census process (one that could not start or that died)
    4   invalid input (bad flags, malformed or invalid grid file)

Everything that is not the requested output is written to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import zip_longest
from typing import Any

from .bigraphs import CATALOG_CAP, Bigraph, enumerate_catalog, format_code, to_dot
from .census import CENSUS_CAP, check_census_cap, run_census
from .formula import (
    CONVENTIONS,
    automorphism_order,
    count_ordered,
    format_rational,
    graph_weight,
    weight_table,
)
from .sperm import SizeLimitError, matrix_count
from .sudoku import (
    GRID_CAP,
    count_cliques,
    count_grids,
    decompose,
    parse_grid,
    sample_family,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; 2 means "scale cap" here,
    # so usage problems are remapped to exit 4 in main()
    def error(self, message):
        raise _UsageError(message)


def _family_json(family) -> list[dict[str, Any]]:
    return [
        {
            "value": i + 1,
            "row_perms": [list(p) for p in m.row_perms],
            "col_perms": [list(p) for p in m.col_perms],
            "cells": [list(cell) for cell in m.cells()],
        }
        for i, m in enumerate(family.members)
    ]


# ---------------------------------------------------------------------------
# Command implementations: each returns its payload
# ---------------------------------------------------------------------------


def _cmd_graphs(args) -> dict:
    catalog = enumerate_catalog(args.n)
    graphs = [
        {
            "edges": k,
            "code": format_code(args.n, e.code),
            "degree_counts": list(e.profile.degree_counts),
            "twin_class_sizes": list(e.profile.twin_class_sizes),
            "orbit_size": e.orbit_size,
            "automorphism_order": automorphism_order(e),
            "weight": format_rational(graph_weight(e)),
            "twin_class_weight": format_rational(graph_weight(e, "twin-classes")),
        }
        for k, e in catalog.entries()
    ]
    return {
        "n": args.n,
        "class_count": len(graphs),
        "labeled_graph_count": str(1 << (args.n * args.n)),
        "bucket_sizes": [
            {"edges": k, "classes": s} for k, s in sorted(catalog.sizes().items())
        ],
        "graphs": graphs,
    }


def _formula_block(n: int, convention: str) -> dict[str, Any]:
    table = weight_table(enumerate_catalog(n), convention)
    ordered = count_ordered(n, table)  # checked to be even
    return {
        "convention": convention,
        "ordered_pairs": str(ordered),
        "unordered_pairs": str(ordered // 2),
        "matrix_count": str(matrix_count(n)),
        "bucket_weights": [
            {"edges": k, "weight": format_rational(w)}
            for k, w in sorted(table.items())
        ],
    }


def _census_block(n: int) -> dict[str, Any]:
    res = run_census(n)
    return {
        "ordered_pairs": str(res.ordered_pairs),
        "unordered_pairs": str(res.unordered_pairs),
        "matrices_scanned": str(res.matrices_scanned),
    }


def _cmd_count(args) -> dict:
    payload: dict[str, Any] = {"n": args.n, "mode": args.mode}
    if args.mode in ("census", "both"):
        check_census_cap(args.n)  # before any formula work
    if args.mode in ("formula", "both"):
        payload["formula"] = _formula_block(args.n, args.convention)
        if args.mode == "formula" and args.n > CENSUS_CAP:
            payload["note"] = "unverified by census"
    if args.mode in ("census", "both"):
        payload["census"] = _census_block(args.n)
    if args.mode == "both":
        payload["match"] = (
            payload["formula"]["ordered_pairs"] == payload["census"]["ordered_pairs"]
            and payload["formula"]["unordered_pairs"]
            == payload["census"]["unordered_pairs"]
        )
    return payload


def _cmd_census(args) -> dict:
    res = run_census(args.n)
    return {
        "n": res.n,
        "matrices_scanned": str(res.matrices_scanned),
        "ordered_pairs": str(res.ordered_pairs),
        "unordered_pairs": str(res.unordered_pairs),
        # measurement, not a count; the one payload field that varies by run
        "elapsed_seconds": f"{res.elapsed_seconds:.3f}",
    }


def _cmd_grids(args) -> dict:
    return {"n": args.n, "grid_count": str(count_grids(args.n))}


def _cmd_cliques(args) -> dict:
    return {"n": args.n, "clique_count": str(count_cliques(args.n))}


def _cmd_decompose(args) -> dict:
    # utf-8-sig: a grid saved with a byte-order mark parses like one without
    with open(args.grid_file, "r", encoding="utf-8-sig") as fh:
        grid = parse_grid(fh.read())
    return {"n": grid.n, "members": _family_json(decompose(grid))}


def _cmd_sample(args) -> dict:
    family = sample_family(args.n, args.seed)
    return {
        "n": args.n,
        "size": len(family.members),
        "complete": family.complete,
        "members": _family_json(family),
    }


# ---------------------------------------------------------------------------
# Plain-text renderings
# ---------------------------------------------------------------------------


def _dot_graphs(payload: dict) -> str:
    n = payload["n"]
    dots = (to_dot(Bigraph(n, int(g["code"], 16))) for g in payload["graphs"])
    return "\n".join(dots) + "\n"


def _text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):  # ["a", "b"] -> a b; [[1, 2], [3, 4]] -> (1,2) (3,4)
        return " ".join(
            f"({','.join(map(_text, v))})" if isinstance(v, list) else _text(v)
            for v in value
        )
    return str(value)


def _table(payload: dict, indent: str = "") -> str:
    """Each field under its JSON name; nested dicts print two spaces deeper,
    and a list of dicts prints one line per item, its fields in columns."""
    text = ""
    for key, value in payload.items():
        if isinstance(value, dict):
            text += f"{indent}{key}\n" + _table(value, indent + "  ")
        elif isinstance(value, list) and all(isinstance(v, dict) for v in value):
            rows = [[f"{k} {_text(v)}" for k, v in i.items()] for i in value]
            # each field as wide as the widest in its column, rows of any length
            widths = [max(map(len, c)) for c in zip_longest(*rows, fillvalue="")]
            items = ("  ".join(map(str.ljust, r, widths)).rstrip() for r in rows)
            text += f"{indent}{key}\n" + "".join(f"{indent}  {i}\n" for i in items)
        else:
            text += f"{indent}{key} {_text(value)}\n"
    return text


# ---------------------------------------------------------------------------
# Parser: each leaf subcommand carries its handler (run)
# ---------------------------------------------------------------------------


def _leaf(parent, name, run, help, n_help="block order", formats=("json", "table")):
    """Add a leaf parser with its handler, --format and, unless n_help is None, --n."""
    leaf = parent.add_parser(name, help=help)
    leaf.set_defaults(run=run)
    if n_help is not None:
        leaf.add_argument("--n", type=int, default=2, help=n_help)
    leaf.add_argument("--format", choices=formats, default="json")
    return leaf


def build_parser() -> _Parser:
    parser = _Parser(prog="spairs", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    _leaf(sub, "graphs", _cmd_graphs, "catalog of bipartite graph classes",
          f"side size (cap {CATALOG_CAP})", ("json", "table", "dot"))

    count = _leaf(sub, "count", _cmd_count, "disjoint-pair counts, formula and/or census")
    count.add_argument(
        "--mode",
        choices=["formula", "census", "both"],
        default="both",
        help="both cross-validates and exits 3 on mismatch (default)",
    )
    count.add_argument(
        "--convention",
        choices=list(CONVENTIONS),
        default="automorphism",
        help="weight denominator: automorphism (census-verified) or "
        "twin-classes (shortcut tables; census refutes its totals)",
    )

    _leaf(sub, "census", _cmd_census, "brute-force pair census with timing",
          f"block order (cap {CENSUS_CAP})")

    # only the action parsers carry defaults: a group parser's defaults and
    # its subparsers' defaults override each other differently across Pythons
    action = sub.add_parser("sudoku", help="Sudoku-matrix layer").add_subparsers(
        dest="action", required=True
    )
    _leaf(action, "count", _cmd_grids, f"exhaustive grid count (n <= {GRID_CAP})")
    _leaf(action, "cliques", _cmd_cliques, f"complete disjoint families (n <= {GRID_CAP})")
    decompose = _leaf(action, "decompose", _cmd_decompose, "split a grid file into layers",
                      n_help=None)
    decompose.add_argument("grid_file")
    sample = _leaf(action, "sample", _cmd_sample, "randomized disjoint-family growth")
    sample.add_argument("--seed", type=int, default=0)
    return parser


# not echoed: the command heads the envelope, the rest select code or format
_UNECHOED = ("command", "format", "run")


def _render(args, payload: dict) -> str:
    if args.format == "json":
        params = {k: v for k, v in vars(args).items() if k not in _UNECHOED}
        envelope = {"command": args.command, "params": params, "payload": payload}
        return json.dumps(envelope, indent=2) + "\n"
    if args.format == "dot":
        return _dot_graphs(payload)
    return _table(payload)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SystemExit as exc:  # --help
        return 0 if not exc.code else 4

    try:
        payload = args.run(args)
        sys.stdout.write(_render(args, payload))
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: internal consistency check failed: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:  # a census process that could not start or died
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4

    if payload.get("match") is False:
        print("error: formula and census disagree", file=sys.stderr)
        return 3
    return 0


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
