#!/usr/bin/env python3
"""Smoke test of the benchmark itself; takes about two minutes.

    python3 perfbench/smoke.py

1. A minimal run of every workload (--seconds 1) prints exactly the result
   keys, every end-to-end metric of BENCHMARK.json with its unit, and no
   failed operation.
2. A traced run prints every per-layer metric with its unit.
3. With one expected value corrupted, the operation counts as failed and
   the run still ends normally with a result.
4. In a directory that holds only BENCHMARK.json and the benchmark, the run
   exits nonzero without printing a result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
KEYS = {"correct", "attempted", "failed", "metrics"}


def result_of(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == KEYS, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def check_metrics(result: dict, kind: str) -> None:
    for m in BENCH[kind]:
        got = result["metrics"].get(m["name"])
        assert got is not None, f"missing {kind} metric {m['name']}"
        assert got["unit"] == m["unit"], (m["name"], got["unit"])
        print(f"    {m['name']:<40} {got['value']:>14.6g} {got['unit']}")


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    script = cwd / "perfbench" / "run.py"
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def main() -> int:
    for workload in run.WORKLOADS:
        print(f"{workload}, minimal run")
        proc = bench("--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", "0")
        assert proc.returncode == 0, proc.stderr
        result = result_of(proc.stdout)
        assert result["correct"] and result["failed"] == 0, proc.stdout
        check_metrics(result, "end_to_end")

    print("traced run")
    proc = bench("--workload", "formula-4", "--seed", "1", "--seconds", "1",
                 "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc.stdout)
    assert result["correct"] and result["failed"] == 0, proc.stdout
    check_metrics(result, "per_layer")

    print("corrupted expected value")
    run.EXPECTED["formula-4"]["ordered_pairs"] = "0"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "formula-4", "--seed", "1", "--seconds", "1",
                         "--trace", "0"])
    assert code == 0, code
    result = result_of(out.getvalue())
    assert not result["correct"], result
    assert result["failed"] == result["attempted"] >= 1, result
    print(f"    {result['failed']} of {result['attempted']} ops failed, as expected")

    print("directory without the program")
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", "verify-3", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0, proc.stdout
    assert '"metrics"' not in proc.stdout, proc.stdout
    print(f"    exit {proc.returncode}: {proc.stderr.strip()}")
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
