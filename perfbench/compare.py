#!/usr/bin/env python3
"""Check that runs of the benchmark are steady and that two sets of runs agree.

    python3 perfbench/compare.py SET_A [SET_B]

A set is a directory holding the ``result.*.trace0.*.json`` records that
run.py writes to perfbench/out.  For each workload and end-to-end metric of
BENCHMARK.json this prints the median, the quartiles and the spread: the
distance between the quartiles, as statistics.quantiles(values, n=4) gives
them, as a share of the median.  It fails when a spread exceeds the metric's
bound (setup_s excepted), when the median of SET_B is worse than that of
SET_A by more than the bound, when an operation failed, or when one sampler
seed gave two different families anywhere in the sets.  A spread above a
third of the bound is marked "wide".  Exit status 1 on any failure.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCH = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(directory: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).glob("result.*.trace0.*.json")):
        rec = json.loads(path.read_text())
        runs.setdefault(rec["workload"], []).append(rec)
    return runs


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(d) for d in argv]
    failures = []
    digests: dict[str, set[str]] = {}
    for label, runs in zip("AB", sets):
        for workload, recs in sorted(runs.items()):
            bad = sum(not r["correct"] for r in recs)
            if bad:
                failures.append(f"{label} {workload}: {bad} runs not correct")
            for r in recs:
                for seed, ds in r["digests"].items():
                    digests.setdefault(seed, set()).update(ds)
    for seed, ds in sorted(digests.items()):
        print(f"sampler seed {seed}: {len(ds)} family digest(s) {sorted(ds)}")
        if len(ds) > 1:
            failures.append(f"sampler seed {seed} gave {len(ds)} different families")

    print(f"{'workload':<11} {'metric':<12} {'set':<3} {'runs':>4} {'median':>10} "
          f"{'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}")
    for workload in sorted(set().union(*sets)):
        for metric in BENCH["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for label, runs in zip("AB", sets):
                values = [r["metrics"][name]["value"] for r in runs.get(workload, [])]
                if len(values) < 2:
                    continue
                med, q1, q3, sp = spread(values)
                medians.append(med)
                mark = ""
                if sp > bound and name != "setup_s":
                    mark = "FAIL"
                    failures.append(f"{label} {workload} {name}: spread {sp:.3f} > {bound}")
                elif sp > bound / 3:
                    mark = "wide"
                print(f"{workload:<11} {name:<12} {label:<3} {len(values):>4} {med:>10.5g} "
                      f"{q1:>10.5g} {q3:>10.5g} {sp:>7.3f} {bound:>6} {mark}")
            if len(medians) == 2:
                change = (medians[1] - medians[0]) / medians[0]
                worse = change if metric["better"] == "lower" else -change
                verdict = "FAIL" if worse > bound else "ok"
                if worse > bound:
                    failures.append(f"{workload} {name}: B worse by {worse:.3f} > {bound}")
                print(f"{'':<11} {name:<12} B vs A {change:+.3f} {verdict}")
    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
