"""Run one benchmark operation in this process, with spans around each layer.

    python perfbench/traced_op.py '<json spec>'

The spec is one of

    {"cli": [argv...]}                      spairs.cli.main(argv), stdout captured
    {"call": "degree_histogram", "n": 3}    spairs.degree_histogram(n) as JSON
    {"call": "pool", "n": 3, "workers": k}  run_census(n), then run_census(n, workers=k)

The spans are recorded here, in the benchmark, around calls into the public
functions of each spairs module; the program itself is not changed.  The
process prints one JSON object: {"rc", "stdout", "spans"}.  Span times are
time.perf_counter() values, the system's monotonic clock, so the parent can
place them inside its own span for this process.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import sys
import time

spans: list[dict] = []
_open: list[dict] = []


@contextlib.contextmanager
def span(name: str):
    rec = {
        "id": len(spans),
        "name": name,
        "start": time.perf_counter(),
        "end": None,
        "parent": _open[-1]["id"] if _open else None,
        "attrs": {},
    }
    spans.append(rec)
    _open.append(rec)
    try:
        yield rec["attrs"]
    finally:
        _open.pop()
        rec["end"] = time.perf_counter()


def _words(result, *args, **kwargs):
    return {"matrices": int(result.shape[1]),
            "bytes_per_matrix": int(result.shape[0] * result.itemsize)}


def _census(result, *args, **kwargs):
    return {"workers": kwargs.get("workers", args[1] if len(args) > 1 else 1),
            "ordered_pairs": str(result.ordered_pairs)}


def _catalog(result, *args, **kwargs):
    return {"n": result.n, "classes": sum(result.sizes().values())}


def _sample(result, *args, **kwargs):
    return {"complete": bool(result.complete)}


def _n(result, *args, **kwargs):
    return {"n": args[0] if args else kwargs.get("n")}


def _catalog_n(result, catalog, *args, **kwargs):
    return {"n": catalog.n}


# (module, public function, what to record about the call)
TARGETS = (
    ("census", "mask_words", _words),
    ("census", "run_census", _census),
    ("census", "degree_histogram", _n),
    ("bigraphs", "enumerate_catalog", _catalog),
    ("formula", "count_ordered", _n),
    ("formula", "count_unordered", _n),
    ("formula", "weight_table", _catalog_n),
    ("sudoku", "sample_family", _sample),
)


def _traced(name, fn, describe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with span(name) as attrs:
            result = fn(*args, **kwargs)
            attrs.update(describe(result, *args, **kwargs))
        return result
    return wrapper


def install() -> None:
    """Wrap every target wherever spairs binds it by name."""
    modules = [m for name, m in sys.modules.items()
               if name == "spairs" or name.startswith("spairs.")]
    for modname, fname, describe in TARGETS:
        orig = getattr(sys.modules[f"spairs.{modname}"], fname)
        wrapper = _traced(f"{modname}.{fname}", orig, describe)
        for m in modules:
            if getattr(m, fname, None) is orig:
                setattr(m, fname, wrapper)

    # The census builds its mask words from a lazy stream of matrices whose
    # masks are computed on first use.  Enumerating eagerly and computing the
    # cached masks up front does the same work, but in two spans of the sperm
    # layer, so that what is left in census.mask_words is the census's own
    # packing.
    census = sys.modules["spairs.census"]
    lazy = census.enumerate_matrices

    def enumerate_matrices(n, **kwargs):
        with span("sperm.enumerate_matrices") as attrs:
            mats = list(lazy(n, **kwargs))
            attrs["matrices"] = len(mats)
        with span("sperm.mask"):
            for m in mats:
                m.mask
        return iter(mats)

    census.enumerate_matrices = enumerate_matrices


def run(spec: dict) -> tuple[int, str]:
    import spairs
    import spairs.cli

    out = io.StringIO()
    if "cli" in spec:
        with contextlib.redirect_stdout(out), span("cli.main"):
            rc = spairs.cli.main(list(spec["cli"]))
        return rc, out.getvalue()
    if spec["call"] == "degree_histogram":
        return 0, json.dumps(spairs.degree_histogram(spec["n"]))
    if spec["call"] == "pool":
        if "workers" not in inspect.signature(spairs.run_census).parameters:
            return 0, json.dumps({"absent": "run_census has no workers parameter"})
        serial = spairs.run_census(spec["n"])
        pool = spairs.run_census(spec["n"], workers=spec["workers"])
        return 0, json.dumps({"serial": str(serial.ordered_pairs),
                              "pool": str(pool.ordered_pairs)})
    raise ValueError(f"unknown spec {spec!r}")


def main() -> int:
    spec = json.loads(sys.argv[1])
    with span("import"):
        import spairs  # noqa: F401
        import spairs.cli  # noqa: F401
    install()
    rc, stdout = run(spec)
    print(json.dumps({"rc": rc, "stdout": stdout, "spans": spans}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
