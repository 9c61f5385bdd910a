import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from spairs import bigraphs, cli, enumerate_catalog, formula, sperm, weight_table
from spairs.cli import main

REPO = Path(__file__).resolve().parents[1]

VALID_TEXT = "2\n1 2 3 4\n3 4 1 2\n2 1 4 3\n4 3 2 1\n"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


class TestGraphs:
    def test_json_catalog(self, capsys):
        code, doc, _err = run_json(capsys, "graphs", "--n", "2")
        assert code == 0
        assert doc["command"] == "graphs"
        assert doc["params"] == {"n": 2}
        payload = doc["payload"]
        assert payload["class_count"] == 7
        assert payload["labeled_graph_count"] == "16"
        assert payload["bucket_sizes"] == [
            {"edges": k, "classes": s}
            for k, s in zip(range(5), [1, 1, 3, 1, 1])
        ]
        assert sum(g["orbit_size"] for g in payload["graphs"]) == 16

    def test_json_matching_entry(self, capsys):
        _code, doc, _err = run_json(capsys, "graphs", "--n", "2")
        matching = next(g for g in doc["payload"]["graphs"] if g["code"] == "6")
        assert matching["orbit_size"] == 2
        assert matching["automorphism_order"] == 2
        assert matching["weight"] == "1/2"
        assert matching["twin_class_weight"] == "1/1"

    def test_table(self, capsys):
        code, out, _err = run(capsys, "graphs", "--n", "2", "--format", "table")
        assert code == 0
        head, graphs = out.split("graphs\n")
        # the class counts by edge count print beside the 7 class rows
        assert head == (
            "n 2\nclass_count 7\nlabeled_graph_count 16\nbucket_sizes\n"
            + "".join(f"  edges {k}  classes {s}\n" for k, s in enumerate([1, 1, 3, 1, 1]))
        )
        assert len(graphs.splitlines()) == 7

    def test_table_columns_widen_to_fit(self, capsys):
        # at n = 4 weights reach 11 characters; every field of every class
        # row starts at the same column as in the other rows
        code, out, _err = run(capsys, "graphs", "--n", "4", "--format", "table")
        assert code == 0
        rows = out.split("graphs\n")[1].splitlines()
        assert len(rows) == 317
        starts = {tuple(m.start() for m in re.finditer(r"(?<=  )\S", r)) for r in rows}
        assert len(starts) == 1 and len(next(iter(starts))) == 8
        assert not any(row.endswith(" ") for row in rows)

    def test_dot(self, capsys):
        code, out, _err = run(capsys, "graphs", "--n", "2", "--format", "dot")
        assert code == 0
        assert out.count('graph "g_') == 7
        assert "r1 -- c1;" in out

    def test_dot_builds_the_catalog_once(self, capsys, monkeypatch):
        calls = []

        def counting(n, **kwargs):
            calls.append(n)
            return enumerate_catalog(n, **kwargs)

        monkeypatch.setattr(cli, "enumerate_catalog", counting)
        code, _out, _err = run(capsys, "graphs", "--n", "3", "--format", "dot")
        assert code == 0
        assert calls == [3]

    def test_failed_catalog_self_check_exits_3(self, capsys, monkeypatch):
        tables = bigraphs._column_tables
        monkeypatch.setattr(
            bigraphs, "_column_tables", lambda n: tables(n) + [[0] * (1 << n)]
        )
        code, out, err = run(capsys, "graphs", "--n", "3")
        assert code == 3
        assert out == ""
        assert "never reached" in err

    def test_scale_cap_exits_2(self, capsys):
        code, out, err = run(capsys, "graphs", "--n", "6")
        assert code == 2
        assert out == ""
        assert "capped at n <= 5" in err

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_block_order_below_1_exits_4(self, capsys, n):
        code, out, err = run(capsys, "graphs", "--n", n)
        assert code == 4
        assert out == ""
        assert err == f"error: block order must be >= 1, got {n}\n"


class TestCount:
    def test_both_modes_match(self, capsys):
        code, doc, err = run_json(capsys, "count", "--n", "2")
        assert code == 0
        assert err == ""
        payload = doc["payload"]
        assert payload["match"] is True
        assert payload["formula"]["convention"] == "automorphism"
        assert payload["formula"]["ordered_pairs"] == "112"
        assert payload["formula"]["unordered_pairs"] == "56"
        assert payload["census"]["ordered_pairs"] == "112"
        assert payload["formula"]["bucket_weights"][0] == {
            "edges": 1,
            "weight": "4/1",
        }

    def test_twin_convention_mismatch_exits_3(self, capsys):
        code, out, err = run(
            capsys, "count", "--n", "2", "--convention", "twin-classes"
        )
        assert code == 3
        assert "formula and census disagree" in err
        payload = json.loads(out)["payload"]
        assert payload["match"] is False
        assert payload["formula"]["ordered_pairs"] == "144"
        assert payload["formula"]["unordered_pairs"] == "72"
        assert payload["census"]["ordered_pairs"] == "112"

    def test_twin_convention_formula_only_exits_0(self, capsys):
        code, doc, _err = run_json(
            capsys,
            "count",
            "--n",
            "2",
            "--convention",
            "twin-classes",
            "--mode",
            "formula",
        )
        assert code == 0
        assert doc["payload"]["formula"]["ordered_pairs"] == "144"
        assert "match" not in doc["payload"]

    def test_census_only(self, capsys):
        code, doc, _err = run_json(capsys, "count", "--n", "2", "--mode", "census")
        assert code == 0
        assert "formula" not in doc["payload"]
        assert doc["payload"]["census"]["unordered_pairs"] == "56"

    def test_n4_formula_only_flags_unverified(self, capsys):
        code, doc, _err = run_json(capsys, "count", "--n", "4", "--mode", "formula")
        assert code == 0
        payload = doc["payload"]
        assert payload["note"] == "unverified by census"
        assert payload["formula"]["ordered_pairs"] == "4588496253937193582592"

    def test_n4_formula_table_ends_with_the_note(self, capsys):
        code, out, _err = run(
            capsys, "count", "--n", "4", "--mode", "formula", "--format", "table"
        )
        assert code == 0
        assert out.endswith("\nnote unverified by census\n")

    def test_n4_both_hits_census_cap(self, capsys):
        code, out, err = run(capsys, "count", "--n", "4")
        assert code == 2
        assert out == ""
        assert "capped" in err

    def test_census_cap_stops_before_the_formula(self, capsys, monkeypatch):
        calls = []

        def counting(n):
            calls.append(n)
            return enumerate_catalog(n)

        monkeypatch.setattr(cli, "enumerate_catalog", counting)
        for n in ("4", "5"):  # the catalog would build at both
            code, out, err = run(capsys, "count", "--n", n)
            assert code == 2
            assert out == ""
            assert "capped at n <= 3" in err
            assert calls == []

    def test_n5_formula_only_flags_unverified(self, capsys, monkeypatch, catalog5):
        monkeypatch.setattr(cli, "enumerate_catalog", lambda n: catalog5)
        code, doc, _err = run_json(capsys, "count", "--n", "5", "--mode", "formula")
        assert code == 0
        payload = doc["payload"]
        assert payload["note"] == "unverified by census"
        assert payload["formula"]["ordered_pairs"] == (
            "143742419580577967949843749928960000000000"
        )
        assert payload["formula"]["unordered_pairs"] == (
            "71871209790288983974921874964480000000000"
        )

    @pytest.mark.parametrize("mode", ["formula", "both"])
    def test_formula_builds_the_weight_table_once(self, capsys, monkeypatch, mode):
        # count_ordered sums the table the printed bucket weights come from
        calls = []

        def counting(catalog, convention="automorphism"):
            calls.append(catalog.n)
            return weight_table(catalog, convention)

        monkeypatch.setattr(formula, "weight_table", counting)
        monkeypatch.setattr(cli, "weight_table", counting)
        code, _out, _err = run(capsys, "count", "--n", "2", "--mode", mode)
        assert code == 0
        assert calls == [2]

    @pytest.mark.parametrize("convention", ["automorphism", "twin-classes"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_printed_bucket_weights_give_the_printed_counts(self, capsys, n, convention):
        # (n!)^(4n) + (n!)^(2(n+1)) · Σ_k (−1)^k w_k over the printed weights
        code, doc, _err = run_json(
            capsys, "count", "--n", str(n), "--mode", "formula", "--convention", convention
        )
        assert code == 0
        block = doc["payload"]["formula"]
        fact = math.factorial(n)
        tail = sum(
            (-1) ** bw["edges"] * Fraction(bw["weight"]) for bw in block["bucket_weights"]
        )
        ordered = fact ** (4 * n) + fact ** (2 * (n + 1)) * tail
        assert str(ordered) == block["ordered_pairs"]
        assert str(ordered / 2) == block["unordered_pairs"]

    def test_odd_formula_count_exits_3(self, capsys, odd_weight_table):
        code, out, err = run(capsys, "count", "--n", "2", "--mode", "formula")
        assert code == 3
        assert out == ""
        assert "ordered pair count is odd for n=2: 111" in err

    @pytest.mark.parametrize(
        "odd_weight_table, message",
        [
            (Fraction(1, 2), "failed to clear denominators for n=2: 223/2"),
            (128, "negative pair count for n=2: -16"),
        ],
        indirect=["odd_weight_table"],
        ids=["fraction", "negative"],
    )
    def test_inconsistent_formula_count_exits_3(
        self, capsys, odd_weight_table, message
    ):
        code, out, err = run(capsys, "count", "--n", "2", "--mode", "formula")
        assert code == 3
        assert out == ""
        assert message in err

    def test_block_order_1_matches(self, capsys):
        code, doc, err = run_json(capsys, "count", "--n", "1")
        assert code == 0
        assert err == ""
        payload = doc["payload"]
        assert payload["match"] is True
        assert payload["formula"]["ordered_pairs"] == "0"
        assert payload["census"]["ordered_pairs"] == "0"

    @pytest.mark.parametrize("mode", ["formula", "census", "both"])
    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_block_order_below_1_exits_4(self, capsys, mode, n):
        code, out, err = run(capsys, "count", "--n", n, "--mode", mode)
        assert code == 4
        assert out == ""
        assert err == f"error: block order must be >= 1, got {n}\n"

    def test_output_is_reproducible(self, capsys):
        _code, first, _err = run(capsys, "count", "--n", "2")
        _code, second, _err = run(capsys, "count", "--n", "2")
        assert first == second


class TestCensus:
    def test_json(self, capsys):
        code, doc, _err = run_json(capsys, "census", "--n", "2")
        assert code == 0
        payload = doc["payload"]
        assert payload["ordered_pairs"] == "112"
        assert payload["matrices_scanned"] == "16"
        assert re.fullmatch(r"\d+\.\d{3}", payload["elapsed_seconds"])

    def test_cap_exits_2(self, capsys):
        code, _out, err = run(capsys, "census", "--n", "4")
        assert code == 2
        assert "capped" in err

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_block_order_below_1_exits_4(self, capsys, n):
        code, out, err = run(capsys, "census", "--n", n)
        assert code == 4
        assert out == ""
        assert err == f"error: block order must be >= 1, got {n}\n"


class TestSudoku:
    def test_count(self, capsys):
        code, doc, _err = run_json(capsys, "sudoku", "count", "--n", "2")
        assert code == 0
        assert doc["payload"]["grid_count"] == "288"

    def test_cliques(self, capsys):
        code, doc, _err = run_json(capsys, "sudoku", "cliques", "--n", "2")
        assert code == 0
        assert doc["payload"]["clique_count"] == "12"

    def test_count_n3_exits_2(self, capsys):
        code, _out, err = run(capsys, "sudoku", "count", "--n", "3")
        assert code == 2
        assert "never recomputed" in err

    def test_cliques_n3_quotes_the_derived_count(self, capsys):
        # 6670903752021072936960 / 9! families, stated but not enumerated
        code, out, err = run(capsys, "sudoku", "cliques", "--n", "3")
        assert code == 2
        assert out == ""
        assert "18383222420692992" in err

    @pytest.mark.parametrize(
        "action,key", [("count", "grid_count"), ("cliques", "clique_count")]
    )
    def test_block_order_1(self, capsys, action, key):
        # one 1x1 grid, one family of one matrix: 1 = 1 * 1!
        code, doc, _err = run_json(capsys, "sudoku", action, "--n", "1")
        assert code == 0
        assert doc["payload"][key] == "1"

    @pytest.mark.parametrize("action", ["count", "cliques", "sample"])
    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_block_order_below_1_exits_4(self, capsys, action, n):
        code, out, err = run(capsys, "sudoku", action, "--n", n)
        assert code == 4
        assert out == ""
        assert err == f"error: block order must be >= 1, got {n}\n"

    def test_sample(self, capsys):
        code, doc, _err = run_json(
            capsys, "sudoku", "sample", "--n", "2", "--seed", "3"
        )
        assert code == 0
        payload = doc["payload"]
        assert payload["complete"] is True
        assert payload["size"] == 4
        assert len(payload["members"]) == 4
        assert all(len(m["cells"]) == 4 for m in payload["members"])

    def test_sample_is_reproducible(self, capsys):
        _code, first, _err = run(capsys, "sudoku", "sample", "--seed", "9")
        _code, second, _err = run(capsys, "sudoku", "sample", "--seed", "9")
        assert first == second

    @pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
    def test_decompose(self, capsys, tmp_path, bom):
        path = tmp_path / "grid.txt"
        path.write_text(bom + VALID_TEXT, encoding="utf-8")
        code, doc, _err = run_json(capsys, "sudoku", "decompose", str(path))
        assert code == 0
        members = doc["payload"]["members"]
        assert [m["value"] for m in members] == [1, 2, 3, 4]
        assert members[0]["cells"][0] == [1, 1]

    def test_decompose_invalid_grid_exits_4(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 2 3 4\n2 1 4 3\n3 4 1 2\n4 3 2 1\n")
        code, _out, err = run(capsys, "sudoku", "decompose", str(path))
        assert code == 4
        assert "block (1, 1)" in err

    def test_decompose_malformed_grid_exits_4(self, capsys, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("2\n1 2 3 4\n")
        code, _out, err = run(capsys, "sudoku", "decompose", str(path))
        assert code == 4
        assert "expected 4 grid rows" in err

    def test_decompose_missing_file_exits_4(self, capsys, tmp_path):
        code, _out, err = run(capsys, "sudoku", "decompose", str(tmp_path / "no"))
        assert code == 4
        assert "error" in err

    def test_table_format(self, capsys):
        code, out, _err = run(
            capsys, "sudoku", "count", "--n", "2", "--format", "table"
        )
        assert code == 0
        assert "grid_count 288" in out


class TestScaleCaps:
    """Every cap is one comparison of n: past it no command computes a count."""

    @pytest.fixture(autouse=True)
    def bounded_matrix_count(self, monkeypatch):
        original = sperm.matrix_count

        def bounded(n):
            assert n <= 5, f"matrix_count({n}) computed past every cap"
            return original(n)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "spairs" and (
                getattr(module, "matrix_count", None) is original
            ):
                monkeypatch.setattr(module, "matrix_count", bounded)

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--n", "1000", "--mode", "both"),
            ("count", "--n", "1000", "--mode", "census"),
            ("count", "--n", "1000", "--mode", "formula"),
            ("census", "--n", "1000"),
            ("graphs", "--n", "1000"),
            ("sudoku", "count", "--n", "1000"),
            ("sudoku", "cliques", "--n", "1000"),
            ("sudoku", "sample", "--n", "1000"),
            ("count", "--n", "32"),
            ("census", "--n", "32"),
        ],
        ids=" ".join,
    )
    def test_exits_2_without_computing(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "capped" in err or "only supported up to" in err


class TestParsing:
    def test_bad_flag_exits_4(self, capsys):
        code, _out, err = run(capsys, "count", "--n", "two")
        assert code == 4
        assert "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--n", "2", "--workers", "2"),
            ("census", "--n", "2", "--workers", "2"),
            ("sudoku", "sample", "--max-restarts", "5"),
            ("count", "--n", "2", "--out", os.devnull),
        ],
        ids=["count", "census", "sample-max-restarts", "count-out"],
    )
    def test_workers_flag_is_gone(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 4
        assert out == ""
        assert argv[-2] in err

    def test_unknown_command_exits_4(self, capsys):
        code, _out, _err = run(capsys, "frobnicate")
        assert code == 4

    def test_missing_command_exits_4(self, capsys):
        code, _out, _err = run(capsys)
        assert code == 4

    def test_help_exits_0(self, capsys):
        assert run(capsys, "--help")[0] == 0

    @pytest.mark.parametrize(
        "leaf, flags",
        [
            (["graphs"], ["--n N", "--format {json,table,dot}"]),
            (
                ["count"],
                [
                    "--n N",
                    "--format {json,table}",
                    "--mode {formula,census,both}",
                    "--convention {automorphism,twin-classes}",
                ],
            ),
            (["census"], ["--n N", "--format {json,table}"]),
            (["sudoku", "count"], ["--n N", "--format {json,table}"]),
            (["sudoku", "cliques"], ["--n N", "--format {json,table}"]),
            (["sudoku", "decompose"], ["grid_file", "--format {json,table}"]),
            (["sudoku", "sample"], ["--n N", "--format {json,table}", "--seed SEED"]),
        ],
        ids=["graphs", "count", "census", "sudoku-count", "cliques", "decompose", "sample"],
    )
    def test_leaf_help_lists_its_flags(self, capsys, leaf, flags):
        code, out, _err = run(capsys, *leaf, "--help")
        assert code == 0
        # each argument's first help line, past the usage lines and headings
        listed = re.findall(r"^  (-h, --help|\S+(?: \S+)?)(?:  |$)", out, re.M)
        assert sorted(listed) == sorted(["-h, --help", *flags])


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "spairs", "sudoku", "count", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["grid_count"] == "288"


def test_numpy_pool_and_dataclasses_are_never_imported():
    # the census forks with os.fork and loads no pool; the records are
    # NamedTuples, so dataclasses (and its inspect/ast imports) never loads
    code = (
        "import sys, spairs, spairs.cli\n"
        "assert spairs.cli.main(['count', '--n', '4', '--mode', 'formula']) == 0\n"
        "assert spairs.cli.main(['count', '--n', '2']) == 0\n"
        "for name in ('numpy', 'concurrent.futures', 'multiprocessing',\n"
        "             'dataclasses'):\n"
        "    assert name not in sys.modules, f'{name} was imported'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 0, proc.stderr
