"""Command-line surface.

Subcommands: graphs, count, census, sudoku.  Output goes to stdout (or the
--out file) and is pure JSON under --format json: an envelope with the
command name, a parameter echo, and a payload.  Computed counts and weights
are serialized as decimal strings ("144", "1/4") so consumers without big
integers survive; small structural integers (n, k, sizes, echoed flags)
stay plain JSON numbers.

Exit codes are frozen for CI use:

    0   success
    2   scale cap exceeded
    3   cross-validation mismatch (formula vs census)
    4   invalid input (bad flags, malformed or invalid grid file)

Everything that is not the requested output is written to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from .bigraphs import Bigraph, enumerate_catalog, format_code, to_dot
from .census import run_census
from .formula import (
    CONVENTIONS,
    automorphism_order,
    count_ordered,
    count_unordered,
    format_rational,
    graph_weight,
    twin_class_weight,
    weight_table,
)
from .sperm import SizeLimitError, matrix_count
from .sudoku import (
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


def _envelope(command: str, params: dict[str, Any], payload: Any) -> dict[str, Any]:
    return {"command": command, "params": params, "payload": payload}


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
# Command implementations: each returns (params echo, payload)
# ---------------------------------------------------------------------------


def _cmd_graphs(args) -> tuple[dict, dict]:
    catalog = enumerate_catalog(args.n)
    graphs = [
        {
            "edges": k,
            "code": format_code(args.n, e.code),
            "degree_counts": list(e.profile.degree_counts),
            "twin_class_sizes": list(e.profile.twin_class_sizes),
            "orbit_size": e.orbit_size,
            "automorphism_order": automorphism_order(e, args.n),
            "weight": format_rational(graph_weight(e, args.n)),
            "twin_class_weight": format_rational(
                twin_class_weight(e.profile, args.n)
            ),
        }
        for k, e in catalog.entries()
    ]
    payload = {
        "n": args.n,
        "class_count": len(graphs),
        "labeled_graph_count": str(1 << (args.n * args.n)),
        "bucket_sizes": [
            {"edges": k, "classes": s} for k, s in sorted(catalog.sizes().items())
        ],
        "graphs": graphs,
    }
    return {"n": args.n, "format": args.format}, payload


def _formula_block(n: int, convention: str) -> dict[str, Any]:
    catalog = enumerate_catalog(n)
    return {
        "convention": convention,
        "ordered_pairs": str(count_ordered(n, catalog, convention)),
        "unordered_pairs": str(count_unordered(n, catalog, convention)),
        "matrix_count": str(matrix_count(n)),
        "bucket_weights": [
            {"edges": k, "weight": format_rational(w)}
            for k, w in sorted(weight_table(catalog, convention).items())
        ],
    }


def _census_block(n: int, workers: int) -> dict[str, Any]:
    res = run_census(n, workers=workers)
    return {
        "ordered_pairs": str(res.ordered_pairs),
        "unordered_pairs": str(res.unordered_pairs),
        "matrices_scanned": str(res.matrices_scanned),
        "workers": workers,
    }


def _cmd_count(args) -> tuple[dict, dict]:
    params = {
        "n": args.n,
        "mode": args.mode,
        "convention": args.convention,
        "workers": args.workers,
    }
    payload: dict[str, Any] = {"n": args.n, "mode": args.mode}
    if args.mode in ("formula", "both"):
        payload["formula"] = _formula_block(args.n, args.convention)
        if args.mode == "formula" and args.n > 3:
            payload["note"] = "unverified by census"
    if args.mode in ("census", "both"):
        payload["census"] = _census_block(args.n, args.workers)
    if args.mode == "both":
        payload["match"] = (
            payload["formula"]["ordered_pairs"] == payload["census"]["ordered_pairs"]
            and payload["formula"]["unordered_pairs"]
            == payload["census"]["unordered_pairs"]
        )
    return params, payload


def _cmd_census(args) -> tuple[dict, dict]:
    res = run_census(args.n, workers=args.workers)
    payload = {
        "n": res.n,
        "workers": args.workers,
        "matrices_scanned": str(res.matrices_scanned),
        "ordered_pairs": str(res.ordered_pairs),
        "unordered_pairs": str(res.unordered_pairs),
        # measurement, not a count; the one payload field that varies by run
        "elapsed_seconds": f"{res.elapsed_seconds:.3f}",
    }
    return {"n": args.n, "workers": args.workers}, payload


def _cmd_sudoku(args) -> tuple[dict, dict]:
    if args.action == "count":
        total = count_grids(args.n)
        return {"action": "count", "n": args.n}, {
            "n": args.n,
            "grid_count": str(total),
        }
    if args.action == "cliques":
        cliques = count_cliques(args.n)
        return {"action": "cliques", "n": args.n}, {
            "n": args.n,
            "clique_count": str(cliques),
        }
    if args.action == "decompose":
        with open(args.grid_file, "r", encoding="utf-8") as fh:
            grid = parse_grid(fh.read())
        family = decompose(grid)
        return {"action": "decompose", "grid_file": args.grid_file}, {
            "n": grid.n,
            "members": _family_json(family),
        }
    # sample
    family = sample_family(args.n, args.seed, max_restarts=args.max_restarts)
    return {
        "action": "sample",
        "n": args.n,
        "seed": args.seed,
        "max_restarts": args.max_restarts,
    }, {
        "n": args.n,
        "size": len(family.members),
        "complete": family.complete,
        "members": _family_json(family),
    }


# ---------------------------------------------------------------------------
# Plain-text renderings
# ---------------------------------------------------------------------------


def _table_graphs(payload: dict) -> str:
    lines = [
        f"side size {payload['n']}: {payload['class_count']} classes over "
        f"{payload['labeled_graph_count']} labeled graphs",
        f"{'edges':>5}  {'code':<6} {'orbit':>5} {'aut':>4}  {'weight':>8}  "
        f"{'twin wt':>8}  profile",
    ]
    for g in payload["graphs"]:
        lines.append(
            f"{g['edges']:>5}  {g['code']:<6} {g['orbit_size']:>5} "
            f"{g['automorphism_order']:>4}  {g['weight']:>8}  "
            f"{g['twin_class_weight']:>8}  degrees {g['degree_counts']} "
            f"twins {g['twin_class_sizes']}"
        )
    return "\n".join(lines) + "\n"


def _dot_graphs(payload: dict) -> str:
    n = payload["n"]
    return "\n".join(to_dot(Bigraph(n, int(g["code"], 16))) for g in payload["graphs"])


def _table_pairs(block: dict, title: str) -> list[str]:
    lines = [title]
    lines.append(f"  ordered pairs    {block['ordered_pairs']}")
    lines.append(f"  unordered pairs  {block['unordered_pairs']}")
    return lines


def _table_count(payload: dict) -> str:
    lines = [f"block order {payload['n']}, mode {payload['mode']}"]
    if "formula" in payload:
        lines += _table_pairs(
            payload["formula"], f"formula ({payload['formula']['convention']})"
        )
        lines += [
            f"  bucket {bw['edges']}: {bw['weight']}"
            for bw in payload["formula"]["bucket_weights"]
        ]
    if "census" in payload:
        lines += _table_pairs(payload["census"], "census")
    if "match" in payload:
        lines.append(f"match: {str(payload['match']).lower()}")
    if "note" in payload:
        lines.append(f"note: {payload['note']}")
    return "\n".join(lines) + "\n"


def _table_census(payload: dict) -> str:
    return (
        f"block order {payload['n']}, workers {payload['workers']}\n"
        f"matrices scanned {payload['matrices_scanned']}\n"
        f"ordered pairs    {payload['ordered_pairs']}\n"
        f"unordered pairs  {payload['unordered_pairs']}\n"
        f"elapsed seconds  {payload['elapsed_seconds']}\n"
    )


def _table_sudoku(payload: dict) -> str:
    lines = []
    for key in ("n", "grid_count", "clique_count", "size", "complete"):
        if key in payload:
            lines.append(f"{key} {payload[key]}")
    if "members" in payload:
        for m in payload["members"]:
            cells = " ".join(f"({r},{c})" for r, c in m["cells"])
            lines.append(f"member {m['value']}: {cells}")
    return "\n".join(lines) + "\n"


_TABLES = {
    "graphs": _table_graphs,
    "count": _table_count,
    "census": _table_census,
    "sudoku": _table_sudoku,
}


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="spairs", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graphs", help="catalog of bipartite graph classes")
    p.add_argument("--n", type=int, default=2, help="side size (cap 4)")
    p.add_argument("--format", choices=["json", "table", "dot"], default="json")
    p.add_argument("--out", metavar="FILE", help="write output to FILE")

    p = sub.add_parser("count", help="disjoint-pair counts, formula and/or census")
    p.add_argument("--n", type=int, default=2, help="block order")
    p.add_argument(
        "--mode",
        choices=["formula", "census", "both"],
        default="both",
        help="both cross-validates and exits 3 on mismatch (default)",
    )
    p.add_argument(
        "--convention",
        choices=list(CONVENTIONS),
        default="automorphism",
        help="weight denominator: automorphism (census-verified) or "
        "twin-classes (shortcut tables; census refutes its totals)",
    )
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("census", help="brute-force pair census with timing")
    p.add_argument("--n", type=int, default=2, help="block order (cap 3)")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.add_argument("--out", metavar="FILE")

    p = sub.add_parser("sudoku", help="Sudoku-matrix layer")
    action = p.add_subparsers(dest="action", required=True)

    a = action.add_parser("count", help="exhaustive grid count (n=2)")
    a.add_argument("--n", type=int, default=2)

    a = action.add_parser("cliques", help="complete disjoint families (n=2)")
    a.add_argument("--n", type=int, default=2)

    a = action.add_parser("decompose", help="split a grid file into layers")
    a.add_argument("grid_file")

    a = action.add_parser("sample", help="randomized disjoint-family growth")
    a.add_argument("--n", type=int, default=2)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--max-restarts", type=int, default=1000)

    for a in action.choices.values():
        a.add_argument("--format", choices=["json", "table"], default="json")
        a.add_argument("--out", metavar="FILE")
    return parser


_COMMANDS = {
    "graphs": _cmd_graphs,
    "count": _cmd_count,
    "census": _cmd_census,
    "sudoku": _cmd_sudoku,
}


def _render(command: str, args, params: dict, payload: dict) -> str:
    if args.format == "json":
        return json.dumps(_envelope(command, params, payload), indent=2) + "\n"
    if args.format == "dot":
        return _dot_graphs(payload)
    return _TABLES[command](payload)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
        params, payload = _COMMANDS[args.command](args)
    except SizeLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: internal consistency check failed: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4

    _emit(_render(args.command, args, params, payload), args.out)
    if payload.get("match") is False:
        print("error: formula and census disagree", file=sys.stderr)
        return 3
    return 0


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
