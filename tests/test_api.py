"""The public surface that callers and the benchmark reach by name."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spairs

REPO = Path(__file__).resolve().parents[1]


MODULES = ("bigraphs", "census", "formula", "sperm", "sudoku")


def test_export_list_is_exact():
    names = spairs.__all__
    assert len(names) == len(set(names))
    listed = dir(spairs)
    for name in names:
        home = importlib.import_module(f"spairs.{spairs._HOME[name]}")
        obj = getattr(spairs, name)
        assert obj is getattr(home, name), name
        # a class or function must come from where the table says it does
        assert getattr(obj, "__module__", home.__name__) == home.__name__, name
        assert name in listed, name
    for module in MODULES:
        assert getattr(spairs, module) is importlib.import_module(f"spairs.{module}")
    # traced_op's install() relies on a name the package does not export
    # reading as absent, not as the census's own binding
    assert not hasattr(spairs, "mask_words")
    star: dict = {}
    exec("from spairs import *", star)
    star.pop("__builtins__")
    assert star.keys() == set(names)


def test_import_loads_a_module_on_first_use():
    code = (
        "import sys, spairs\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('spairs.'))\n"
        "print(loaded())\n"
        "spairs.degree_histogram\n"
        "print(loaded())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "['spairs.census', 'spairs.sperm']"]


def _count_pairs(stdout):
    payload = json.loads(stdout)["payload"]
    return payload["match"], [
        (payload[route]["ordered_pairs"], payload[route]["unordered_pairs"])
        for route in ("formula", "census")
    ]


# (spec, check of the op's stdout, spans it must record)
HOOK_SPECS = [
    ({"cli": ["count", "--n", "2"]},
     lambda out: _count_pairs(out) == (True, [("112", "56")] * 2),
     {"sperm.enumerate_matrices", "census.mask_words", "census.run_census",
      "bigraphs.enumerate_catalog", "formula.count_ordered",
      "formula.weight_table"}),
    ({"call": "degree_histogram", "n": 2},
     lambda out: json.loads(out) == {"7": 16},
     {"sperm.enumerate_matrices", "census.mask_words",
      "census.degree_histogram"}),
    ({"call": "pool", "n": 2, "workers": 2},
     lambda out: json.loads(out) == {"serial": "112", "pool": "112"},
     {"sperm.enumerate_matrices", "census.mask_words", "census.run_census"}),
]


@pytest.mark.parametrize(
    "spec, check, spans", HOOK_SPECS, ids=["count", "histogram", "pool"]
)
def test_benchmark_hooks_resolve(spec, check, spans):
    # traced_op wraps every function in its TARGETS by name before it runs,
    # so removing or renaming any of them fails here, not at benchmark time
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "traced_op.py"), json.dumps(spec)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["rc"] == 0
    assert check(result["stdout"])
    assert spans <= {s["name"] for s in result["spans"]}


def test_readme_quick_start_runs():
    # every line runs in order; a line whose comment is a plain int or bool
    # must evaluate to it
    text = (REPO / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope: dict = {}
    checked = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        literal = re.match(r"(\d+|True|False)(:|$)", comment.strip())
        if literal:
            value = ast.literal_eval(literal[1])
            assert eval(code, scope) == value, line
            checked.append(value)
        else:
            exec(code, scope)
    assert checked == [838501632, 1260085248, 838501632, 33345, True, True]
