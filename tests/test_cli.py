import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spairs import bigraphs, cli, enumerate_catalog
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
        assert doc["params"] == {"n": 2, "format": "json"}
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
        assert out.startswith("side size 2: 7 classes over 16 labeled graphs")
        assert len(out.splitlines()) == 2 + 7

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
        code, out, err = run(capsys, "graphs", "--n", "5")
        assert code == 2
        assert out == ""
        assert "error" in err


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

    def test_n4_both_hits_census_cap(self, capsys):
        code, out, err = run(capsys, "count", "--n", "4")
        assert code == 2
        assert out == ""
        assert "capped" in err

    def test_census_cap_stops_before_the_formula(self, capsys, monkeypatch):
        calls = []

        def counting(n, **kwargs):
            calls.append(n)
            return enumerate_catalog(n, **kwargs)

        monkeypatch.setattr(cli, "enumerate_catalog", counting)
        code, out, err = run(capsys, "count", "--n", "4")
        assert code == 2
        assert out == ""
        assert "capped at n <= 3" in err
        assert calls == []

    def test_table_format(self, capsys):
        code, out, _err = run(capsys, "count", "--n", "2", "--format", "table")
        assert code == 0
        assert "formula (automorphism)" in out
        assert "match: true" in out

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

    def test_table(self, capsys):
        code, out, _err = run(capsys, "census", "--n", "2", "--format", "table")
        assert code == 0
        assert out.splitlines()[0] == "block order 2"
        assert "unordered pairs  56" in out

    def test_cap_exits_2(self, capsys):
        code, _out, err = run(capsys, "census", "--n", "4")
        assert code == 2
        assert "capped" in err


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

    @pytest.mark.parametrize("action", ["count", "cliques"])
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

    @pytest.mark.parametrize("restarts", ["0", "-2"])
    def test_sample_needs_one_attempt(self, capsys, restarts):
        code, out, err = run(
            capsys, "sudoku", "sample", "--n", "2", "--max-restarts", restarts
        )
        assert code == 4
        assert out == ""
        assert "max_restarts must be >= 1" in err

    def test_sample_is_reproducible(self, capsys):
        _code, first, _err = run(capsys, "sudoku", "sample", "--seed", "9")
        _code, second, _err = run(capsys, "sudoku", "sample", "--seed", "9")
        assert first == second

    def test_decompose(self, capsys, tmp_path):
        path = tmp_path / "grid.txt"
        path.write_text(VALID_TEXT)
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


class TestParsing:
    def test_bad_flag_exits_4(self, capsys):
        code, _out, err = run(capsys, "count", "--n", "two")
        assert code == 4
        assert "error" in err

    @pytest.mark.parametrize("command", ["count", "census"])
    def test_workers_flag_is_gone(self, capsys, command):
        code, out, err = run(capsys, command, "--n", "2", "--workers", "2")
        assert code == 4
        assert out == ""
        assert "--workers" in err

    def test_unknown_command_exits_4(self, capsys):
        code, _out, _err = run(capsys, "frobnicate")
        assert code == 4

    def test_missing_command_exits_4(self, capsys):
        code, _out, _err = run(capsys)
        assert code == 4

    def test_help_exits_0(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _err = run(
            capsys, "sudoku", "count", "--n", "2", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["payload"]["grid_count"] == "288"

    def test_unwritable_out_file_exits_4(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "count", "--n", "2", "--out", str(path))
        assert code == 4
        assert out == ""
        assert err.startswith("error: ")
        assert "x.json" in err
        assert not path.exists()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "spairs", "sudoku", "count", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["grid_count"] == "288"


def test_numpy_pool_and_dataclasses_are_never_imported():
    # the process pool loads only for run_census(workers > 1); the records
    # are NamedTuples, so dataclasses (and its inspect/ast imports) never loads
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


def test_reproduce_script_without_order_3():
    proc = subprocess.run(
        [sys.executable, REPO / "scripts" / "reproduce_counts.py", "--skip-order-3"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "formula (automorphism) vs census: match" in lines
    assert "automorphism: ordered 4588496253937193582592" in lines
