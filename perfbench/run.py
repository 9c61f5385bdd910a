#!/usr/bin/env python3
"""Benchmark of the spairs command line: closed-loop workloads, one client.

Run from the root of a source checkout; spairs is imported from src/:

    python3 perfbench/run.py --workload verify-3 --seed 1 --seconds 35 --trace 0

Every operation is a fresh interpreter, ``python -m spairs ...`` or a
``python -c`` that calls one public function, timed from spawn to exit: a
command-line user pays interpreter start, ``import spairs`` and the catalog
build on every call, so an in-process cache must not count as a gain.  The
output of every operation is checked against the exact published values; a
nonzero exit, a timeout or a wrong value is a failed operation.

``--trace 0`` runs the workload for ``--seconds`` and reports the end-to-end
metrics.  ``--trace 1`` follows one fixed plan over every workload, whatever
``--workload`` names: each workload's first operation runs once plain, and
its whole pass runs through ``traced_op.py``, which records spans around the
calls into each module's public functions; the run reports the per-layer
metrics.  Either way the last line of stdout is the JSON result; the lines
before it are a report, and a full record of the run goes to
``perfbench/out/``, with the spans of a traced run as JSON lines.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
PY = sys.executable

# Exact published values every operation is checked against.
EXPECTED = {
    "verify-3": {"ordered_pairs": "838501632", "unordered_pairs": "419250816"},
    "formula-4": {
        "ordered_pairs": "4588496253937193582592",
        "unordered_pairs": "2294248126968596791296",
    },
    "partners-3": {"17972": 46656},
}

# The rejection sampler takes 4 to 10 s depending on the seed, so a run over
# fresh seeds could not hold its median within any usable bound.  sample-3
# draws from this fixed pool instead, in an order set by --seed, and always
# runs whole passes over it, so every run measures the same families.  Even
# so, one pass holds only four ops, too few to keep the spread of a run
# within the bounds on a noisy machine: BENCHMARK.json does not gate it, and
# the traced plan measures the sudoku layer for every workload.
SAMPLE_SEEDS = (0, 1, 2, 3)

SETUP_CODE = "import spairs, spairs.cli"
SETUP_REPEATS = 7
OP_TIMEOUT = 90.0
RUN_LIMIT = 170.0  # every run, traced or not, ends within this many seconds
P90_MIN_OPS = 100

PARTNERS_CODE = "import json, spairs; print(json.dumps(spairs.degree_histogram(3)))"


@dataclass(frozen=True)
class Op:
    workload: str
    argv: tuple[str, ...]  # interpreter arguments of the plain operation
    spec: dict  # what traced_op.py runs for the same operation
    seed: int | None = None  # sampler seed, sample-3 only


def _cli_op(workload: str, cli: list[str], seed: int | None = None) -> Op:
    return Op(workload, ("-m", "spairs", *cli), {"cli": cli}, seed)


def workload_ops(workload: str, seed: int) -> list[Op]:
    """One pass of the workload; the run repeats whole passes."""
    if workload == "verify-3":
        return [_cli_op(workload, ["count", "--n", "3"])]
    if workload == "partners-3":
        spec = {"call": "degree_histogram", "n": 3}
        return [Op(workload, ("-c", PARTNERS_CODE), spec)]
    if workload == "formula-4":
        return [_cli_op(workload, ["count", "--n", "4", "--mode", "formula"])]
    if workload == "sample-3":
        order = list(SAMPLE_SEEDS)
        random.Random(seed).shuffle(order)
        return [
            _cli_op(workload, ["sudoku", "sample", "--n", "3", "--seed", str(s)], s)
            for s in order
        ]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("verify-3", "partners-3", "formula-4", "sample-3")


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


class WrongOutput(Exception):
    pass


def _expect(got, want, what: str) -> None:
    if got != want:
        raise WrongOutput(f"{what}: got {got!r}, expected {want!r}")


def _sudoku_digest(members: list) -> str:
    """Check a sampled family on its own and return its digest.

    Member i placed as value i+1 must fill a valid 9x9 Sudoku grid; the check
    uses only the printed cells, none of spairs' own validation.
    """
    n, n2 = 3, 9
    _expect(len(members), n2, "family size")
    grid = [[0] * n2 for _ in range(n2)]
    for i, m in enumerate(members):
        _expect(m["value"], i + 1, f"value of member {i}")
        _expect(len(m["cells"]), n2, f"cells of member {i}")
        for r, c in m["cells"]:
            if not (1 <= r <= n2 and 1 <= c <= n2) or grid[r - 1][c - 1]:
                raise WrongOutput(f"member {i} cell ({r}, {c}) is outside or taken")
            grid[r - 1][c - 1] = i + 1
    want = set(range(1, n2 + 1))
    groups = [set(row) for row in grid]
    groups += [{grid[r][c] for r in range(n2)} for c in range(n2)]
    groups += [
        {grid[bi * n + i][bj * n + j] for i in range(n) for j in range(n)}
        for bi in range(n)
        for bj in range(n)
    ]
    if any(g != want for g in groups):
        raise WrongOutput("family does not form a valid Sudoku grid")
    cells = json.dumps([m["cells"] for m in members], separators=(",", ":"))
    return hashlib.sha256(cells.encode()).hexdigest()[:16]


def check_output(workload: str, stdout: str) -> str | None:
    """Raise WrongOutput unless stdout is exactly right; sample-3 returns a digest.

    "pool" is the traced run's probe of the census process pool.
    """
    try:
        doc = json.loads(stdout)
        if workload == "pool":
            if "absent" not in doc:
                want = EXPECTED["verify-3"]["ordered_pairs"]
                _expect(doc, {"serial": want, "pool": want}, "pool census")
            return None
        if workload == "partners-3":
            _expect(doc, EXPECTED[workload], "degree histogram")
            return None
        payload = doc["payload"]
        if workload == "verify-3":
            for route in ("formula", "census"):
                for key, want in EXPECTED[workload].items():
                    _expect(payload[route][key], want, f"{route} {key}")
            _expect(payload["match"], True, "match")
            return None
        if workload == "formula-4":
            for key, want in EXPECTED[workload].items():
                _expect(payload["formula"][key], want, f"formula {key}")
            return None
        if workload == "sample-3":
            _expect(payload["complete"], True, "complete")
            return _sudoku_digest(payload["members"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise WrongOutput(f"unreadable output: {exc!r}") from None
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


@dataclass
class Exit:
    start: float
    end: float
    rc: int | None
    timed_out: bool
    rss_kb: int
    stdout: str
    stderr: str

    @property
    def wall(self) -> float:
        return self.end - self.start


def spawn(args: list[str], env: dict, timeout: float) -> Exit:
    """Run one process to its end; time it from spawn to exit.

    Output goes to files, not pipes, so that the process can be reaped with
    os.wait4, which gives its peak RSS.  On timeout the whole process group
    is killed, pool workers included.
    """
    OUT.mkdir(exist_ok=True)
    with open(OUT / "op.stdout", "w+b") as out, open(OUT / "op.stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([PY, *args], stdout=out, stderr=err, cwd=ROOT,
                                env=env, start_new_session=True)
        killed = threading.Event()

        def kill() -> None:
            if proc.returncode is None:
                killed.set()
                os.killpg(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if killed.is_set():
            _wait_group_gone(proc.pid)
        out.seek(0)
        err.seek(0)
        return Exit(start, end, proc.returncode, killed.is_set(), usage.ru_maxrss,
                    out.read().decode(errors="replace"),
                    err.read().decode(errors="replace"))


def _wait_group_gone(pgid: int, limit: float = 5.0) -> None:
    deadline = time.monotonic() + limit
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


@dataclass
class OpResult:
    id: str
    workload: str
    traced: bool
    seed: int | None
    start: float
    wall: float
    rss_kb: int
    ok: bool
    reason: str | None = None
    digest: str | None = None
    spans: list = field(default_factory=list)  # traced ops: the child's spans


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.t0 = time.perf_counter()
        self.deadline = self.t0 + RUN_LIMIT
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.ops: list[OpResult] = []
        self.setup_walls: list[float] = []
        self.spans: list[dict] = []

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        """Import the package once, byte-compiling it, and check where it came from."""
        probe = f"{SETUP_CODE}; print(spairs.__file__)"
        ex = spawn(["-c", probe], self.env, OP_TIMEOUT)
        where = Path(ex.stdout.strip() or ".").resolve()
        if ex.rc != 0 or ROOT / "src" not in where.parents:
            raise SystemExit(f"error: cannot import spairs from {ROOT / 'src'}: "
                             f"{ex.stderr.strip() or where}")

    def time_setup(self) -> None:
        """One fresh `import spairs, spairs.cli`, the fixed cost of every op."""
        ex = spawn(["-c", SETUP_CODE], self.env, OP_TIMEOUT)
        if ex.rc != 0:
            raise SystemExit(f"error: import failed: {ex.stderr.strip()}")
        self.setup_walls.append(ex.wall)
        sid = f"setup#{len(self.setup_walls)}"
        self._span(sid, "setup", ex.start, ex.end, None, sid, {})

    # -- operations ------------------------------------------------------------

    def _span(self, sid, name, start, end, parent, op, attrs) -> None:
        if self.trace:
            self.spans.append({"id": sid, "name": name, "start": start - self.t0,
                               "end": end - self.t0, "parent": parent, "op": op,
                               "attrs": attrs})

    def run_op(self, op: Op, traced: bool) -> OpResult:
        oid = f"{op.workload}#{len(self.ops)}"
        if traced:
            args = [str(HERE / "traced_op.py"), json.dumps(op.spec)]
        else:
            args = list(op.argv)
        ex = spawn(args, self.env, min(OP_TIMEOUT, self.remaining()))
        res = OpResult(oid, op.workload, traced, op.seed, ex.start - self.t0, ex.wall,
                       ex.rss_kb, ok=False)
        rc, stdout = ex.rc, ex.stdout
        try:
            if ex.timed_out:
                raise WrongOutput("timed out")
            if traced and rc == 0:
                child = json.loads(stdout.splitlines()[-1])
                res.spans = child["spans"]
                rc, stdout = child["rc"], child["stdout"]
            if rc != 0:
                raise WrongOutput(f"exit {rc}: {ex.stderr.strip()[-300:]}")
            res.digest = check_output(op.workload, stdout)
            res.ok = True
        except (WrongOutput, ValueError, IndexError, KeyError) as exc:
            res.reason = str(exc)
        self._span(oid, "op", ex.start, ex.end, None, oid,
                   {"workload": op.workload, "traced": traced, "seed": op.seed,
                    "ok": res.ok, "rss_kb": ex.rss_kb})
        for s in res.spans:
            parent = oid if s["parent"] is None else f"{oid}/{s['parent']}"
            self._span(f"{oid}/{s['id']}", s["name"], s["start"], s["end"], parent, oid,
                       s["attrs"])
        self.ops.append(res)
        return res

    def closed_loop(self) -> None:
        """Whole passes over the workload while the next is expected to fit.

        The set-up imports are spread over the run, between ops, so that
        setup_s sees the same machine as the ops do.
        """
        ops = workload_ops(self.workload, self.seed)
        start = time.perf_counter()
        self.time_setup()
        longest = 0.0
        while True:
            t = time.perf_counter()
            for op in ops:
                if self.remaining() <= 0:
                    break
                self.run_op(op, traced=False)
                due = SETUP_REPEATS * (time.perf_counter() - start) / self.seconds
                if len(self.setup_walls) < min(due, SETUP_REPEATS):
                    self.time_setup()
            end = time.perf_counter()
            longest = max(longest, end - t)
            if end - start + longest > self.seconds or self.remaining() < longest:
                return

    def traced_plan(self) -> None:
        """Each workload's first op plain, its whole pass traced, then the pool probe."""
        for workload in WORKLOADS:
            ops = workload_ops(workload, self.seed)
            self.run_op(ops[0], traced=False)
            for op in ops:
                self.run_op(op, traced=True)
        nproc = len(os.sched_getaffinity(0))
        self.run_op(Op("pool", (), {"call": "pool", "n": 3, "workers": nproc}), True)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


class Metrics:
    """Named values with unit and kind: measured, derived or computed."""

    def __init__(self):
        self.values: dict[str, tuple[float, str, str]] = {}
        self.absent: dict[str, str] = {}

    def put(self, name: str, value, unit: str, kind: str = "measured") -> None:
        if isinstance(value, float) and math.isnan(value):
            self.absent[name] = "its spans are missing: a traced op failed"
        else:
            self.values[name] = (value, unit, kind)

    def miss(self, name: str, why: str) -> None:
        self.absent[name] = why


def end_to_end(run: Run) -> Metrics:
    """Every end-to-end metric; BENCHMARK.json gates only some of them.

    On a small shared machine the speed of an op flips between two levels
    about 1.4x apart, in phases of 5 to 20 s, so the median of a run jumps
    with the share of slow phases in it.  The mean-based ops_per_s moves
    smoothly and is the one gated; op_s.p50 is reported beside it.
    """
    m = Metrics()
    good = [o for o in run.ops if o.ok]
    walls = [o.wall for o in (good or run.ops)]
    m.put("op_s.p50", statistics.median(walls), "s")
    if len(walls) >= P90_MIN_OPS:
        m.put("op_s.p90", statistics.quantiles(walls, n=10)[-1], "s")
    else:
        m.miss("op_s.p90", f"{len(walls)} ops, fewer than {P90_MIN_OPS}")
    # per second spent in ops: the set-up imports between them do not count
    m.put("ops_per_s", len(good) / sum(o.wall for o in run.ops), "1/s", "derived")
    m.put("setup_s", statistics.median(run.setup_walls), "s")
    m.put("peak_rss_mb", max(o.rss_kb for o in run.ops) / 1024, "MB")
    m.put("failed_frac", (len(run.ops) - len(good)) / len(run.ops), "frac", "derived")
    return m


def _first(op: OpResult, name: str, **attrs) -> dict | None:
    for s in op.spans:
        if s["name"] == name and all(s["attrs"].get(k) == v for k, v in attrs.items()):
            return s
    return None


def _dur(s: dict | None) -> float:
    return math.nan if s is None else s["end"] - s["start"]


def layer_of(name: str) -> str:
    if name == "import":
        return "import"
    if name == "cli.main":
        return "cli"
    return name.split(".")[0]


def layer_shares(op: OpResult) -> dict[str, float]:
    """Self seconds of each layer in one traced op; the rest is the process.

    A span's self time is its duration minus that of its direct children.
    """
    child = {}
    for s in op.spans:
        if s["parent"] is not None:
            child[s["parent"]] = child.get(s["parent"], 0.0) + _dur(s)
    own = {}
    top = 0.0
    for s in op.spans:
        own[layer_of(s["name"])] = own.get(layer_of(s["name"]), 0.0) + (
            _dur(s) - child.get(s["id"], 0.0))
        if s["parent"] is None:
            top += _dur(s)
    own["process"] = op.wall - top
    return own


def per_layer(run: Run) -> Metrics:
    m = Metrics()
    by = {}
    for o in run.ops:
        by.setdefault((o.workload, o.traced), []).append(o)

    def med(values):
        values = [v for v in values if not math.isnan(v)]
        return statistics.median(values) if values else math.nan

    verify = by[("verify-3", True)][0]
    partners = by[("partners-3", True)][0]
    formula = by[("formula-4", True)][0]
    samples = by[("sample-3", True)]
    pool = by[("pool", True)][0]

    enum = _first(verify, "sperm.enumerate_matrices")
    matrices = enum["attrs"]["matrices"] if enum else 0
    m.put("sperm.enumerate_s", _dur(enum), "s")
    m.put("sperm.matrices", matrices, "count")
    m.put("sperm.mask_s", _dur(_first(verify, "sperm.mask")), "s")

    words = _first(verify, "census.mask_words")
    census = _first(verify, "census.run_census")
    hist = _first(partners, "census.degree_histogram")
    hist_words = _first(partners, "census.mask_words")
    m.put("census.mask_words_s", _dur(words), "s")
    m.put("census.run_census_s", _dur(census), "s")
    m.put("census.histogram_s", _dur(hist), "s")
    scan = _dur(census) - _dur(words)
    hist_scan = _dur(hist) - _dur(hist_words)
    m.put("census.scan_s", scan, "s", "derived")
    m.put("census.histogram_scan_s", hist_scan, "s", "derived")
    tri, full = math.comb(matrices, 2), matrices * matrices
    m.put("census.pair_tests.count", tri, "count", "computed")
    m.put("census.pair_tests.histogram", full, "count", "computed")
    m.put("census.pair_tests_per_s.count", tri / scan, "1/s", "derived")
    m.put("census.pair_tests_per_s.histogram", full / hist_scan, "1/s", "derived")
    per_matrix = words["attrs"]["bytes_per_matrix"] if words else 0
    m.put("census.scan_bytes_computed", per_matrix * tri, "B", "computed")
    serial = _first(pool, "census.run_census", workers=1)
    pooled = next((s for s in pool.spans if s["name"] == "census.run_census"
                   and s["attrs"].get("workers", 1) != 1), None)
    if pool.ok and serial and pooled:
        m.put("census.pool_speedup", _dur(serial) / _dur(pooled), "x", "derived")
        m.put("census.pool_workers", pooled["attrs"]["workers"], "count")
    else:
        m.miss("census.pool_speedup",
               pool.reason or "run_census has no workers parameter")

    cat4 = _first(formula, "bigraphs.enumerate_catalog", n=4)
    classes = cat4["attrs"]["classes"] if cat4 else 0
    m.put("bigraphs.catalog_s.n4", _dur(cat4), "s")
    m.put("bigraphs.catalog_s.n3", _dur(_first(verify, "bigraphs.enumerate_catalog", n=3)), "s")
    m.put("bigraphs.classes.n4", classes, "count")
    m.put("bigraphs.masks_scanned.n4", 2 ** 16, "count", "computed")
    m.put("bigraphs.relabelings.n4", classes * math.factorial(4) ** 2, "count", "computed")

    m.put("formula.count_s.n4", _dur(_first(formula, "formula.count_ordered", n=4)), "s")
    m.put("formula.weight_table_s.n4", _dur(_first(formula, "formula.weight_table", n=4)), "s")

    draws = [s for o in samples for s in o.spans if s["name"] == "sudoku.sample_family"]
    m.put("sudoku.sample_s", med([_dur(s) for s in draws]), "s")
    m.put("sudoku.complete_frac",
          sum(s["attrs"]["complete"] for s in draws) / max(len(draws), 1), "frac",
          "derived")

    for w in WORKLOADS:
        plain = [o for o in by[(w, False)] if o.ok]
        traced = [o for o in by[(w, True)] if o.ok]
        call = "census.degree_histogram" if w == "partners-3" else "cli.main"
        inproc = [_dur(_first(o, call)) for o in traced]
        if w != "partners-3":
            m.put(f"cli.main_s.{w}", med(inproc), "s")
        # start-up is taken within each traced op, so that the call's own
        # run-to-run noise cancels
        m.put(f"cli.startup_s.{w}", med([o.wall - t for o, t in zip(traced, inproc)]),
              "s", "derived")
        same = [o for o in traced if plain and o.seed == plain[0].seed]
        m.put(f"trace.overhead_s.{w}",
              same[0].wall - plain[0].wall if same else math.nan, "s", "derived")
        total = {}
        for o in traced:
            for layer, sec in layer_shares(o).items():
                total[layer] = total.get(layer, 0.0) + sec
        wall = sum(o.wall for o in traced)
        for layer in sorted(total):
            m.put(f"share.{w}.{layer}", 100 * total[layer] / wall, "%", "derived")
    return m


# ---------------------------------------------------------------------------
# Environment and output
# ---------------------------------------------------------------------------


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, read directly; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "loadavg_start": list(os.getloadavg()),
    }


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spairs" / "__init__.py").is_file():
        print(f"error: no spairs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = environment()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.setup()
    if run.trace:
        for _ in range(SETUP_REPEATS):
            run.time_setup()
        run.traced_plan()
        metrics = per_layer(run)
    else:
        run.closed_loop()
        metrics = end_to_end(run)
    env["loadavg_end"] = list(os.getloadavg())

    digests = {}
    for o in run.ops:
        if o.digest:
            digests.setdefault(str(o.seed), set()).add(o.digest)
    split = sorted(s for s, d in digests.items() if len(d) > 1)
    failed = [o for o in run.ops if not o.ok]
    correct = not failed and not split

    name = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env, "correct": correct,
        "setup_s": run.setup_walls,
        "ops": [{k: v for k, v in vars(o).items() if k != "spans"} for o in run.ops],
        "digests": {s: sorted(d) for s, d in digests.items()},
        "metrics": {k: {"value": v, "unit": u, "kind": kind}
                    for k, (v, u, kind) in metrics.values.items()},
        "absent": metrics.absent,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result.{name}.{os.getpid()}.json").write_text(json.dumps(record, indent=1))
    if run.trace:
        with open(OUT / f"spans.{name}.{os.getpid()}.jsonl", "w") as fh:
            for s in run.spans:
                fh.write(json.dumps(s) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env))
    for o in run.ops:
        if not o.ok:
            print(f"failed op {o.id}: {o.reason}")
    for s, d in sorted(digests.items()):
        print(f"sampler seed {s}: family digest {' '.join(sorted(d))}")
    for s in split:
        print(f"failed: sampler seed {s} gave different families")
    for k, (v, unit, kind) in metrics.values.items():
        print(f"  {k:<40} {_fmt(v):>14} {unit:<6} {kind}")
    for k, why in metrics.absent.items():
        print(f"  {k:<40} {'absent':>14}        ({why})")

    keep = _bench_metrics("per_layer" if run.trace else "end_to_end")
    result = {
        "correct": correct,
        "attempted": len(run.ops),
        "failed": len(failed),
        "metrics": {k: {"value": metrics.values[k][0], "unit": metrics.values[k][1]}
                    for k in keep if k in metrics.values},
    }
    print(json.dumps(result))
    return 0


def _bench_metrics(kind: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


if __name__ == "__main__":
    sys.exit(main())
