import math
from fractions import Fraction
from itertools import permutations

import pytest

import spairs as sp

# ---------------------------------------------------------------------------
# Shared expensive fixtures
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def catalog2():
    return sp.enumerate_catalog(2)


@pytest.fixture(scope="session")
def catalog3():
    return sp.enumerate_catalog(3)


@pytest.fixture(scope="session")
def catalog4():
    return sp.enumerate_catalog(4)


@pytest.fixture(scope="session")
def catalog5():
    return sp.enumerate_catalog(5)


@pytest.fixture(scope="session")
def burnside_class_count():
    """The number of graph classes at side size n, counted by Burnside's lemma.

    It averages over (row perm, col perm) the masks they fix, 2 to the
    number of cell orbits, which is the gcd sum over cycle length pairs; it
    shares no code with the catalog walk.
    """

    def cycle_lengths(perm):
        seen = [False] * len(perm)
        out = []
        for start in range(len(perm)):
            if seen[start]:
                continue
            length, v = 0, start
            while not seen[v]:
                seen[v] = True
                v = perm[v]
                length += 1
            out.append(length)
        return out

    def count(n: int) -> int:
        total = 0
        for pr in permutations(range(n)):
            rows = cycle_lengths(pr)
            for pc in permutations(range(n)):
                orbits = sum(math.gcd(a, b) for a in rows for b in cycle_lengths(pc))
                total += 1 << orbits
        group = math.factorial(n) ** 2
        assert total % group == 0
        return total // group

    return count


@pytest.fixture(scope="session")
def matrices2():
    return list(sp.enumerate_matrices(2))


@pytest.fixture(scope="session")
def masks3():
    return [m.mask for m in sp.enumerate_matrices(3)]


@pytest.fixture(scope="session")
def all_grids2():
    return list(sp.iter_grids(2))


@pytest.fixture(scope="session")
def census3():
    return sp.run_census(3, workers=1)


@pytest.fixture(scope="session")
def census3_two_workers():
    return sp.run_census(3, workers=2)


@pytest.fixture(scope="session")
def histogram3():
    return sp.degree_histogram(3)


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------


@pytest.fixture
def odd_weight_table(monkeypatch, request):
    """A ``weight_table`` that adds drop·(n!)^(-2(n+1)) to bucket 1, which
    lowers the ordered count by exactly ``drop`` (the indirect parameter,
    default 1): at n = 2, 112 becomes 111, 223/2 with drop 1/2, -16 with 128.
    The cli's binding is patched too, so ``count`` sums the skewed table."""
    table = sp.weight_table
    drop = getattr(request, "param", 1)

    def skewed(catalog, convention="automorphism"):
        weights = table(catalog, convention)
        weights[1] += Fraction(drop, math.factorial(catalog.n) ** (2 * (catalog.n + 1)))
        return weights

    monkeypatch.setattr("spairs.cli.weight_table", skewed)
    return skewed


# ---------------------------------------------------------------------------
# Acceptance reporting: tests record per-criterion results; a summary block
# prints one line per criterion at the end of the run.  A strict-xfail test
# records its check as a pinned mismatch: the criterion holds while that
# check disagrees, and fails if it ever agrees.
# ---------------------------------------------------------------------------

_acceptance_records: list[tuple[int, bool, str]] = []


@pytest.fixture(scope="session")
def acceptance_log():
    def record(
        criterion: int, ok: bool, detail: str, *, pinned_mismatch: bool = False
    ) -> None:
        if pinned_mismatch:
            label = "pinned mismatch now agrees" if ok else "pinned expected mismatch"
            ok, detail = not ok, f"{label}: {detail}"
        _acceptance_records.append((criterion, ok, detail))

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_records:
        return
    by_criterion: dict[int, list[tuple[bool, str]]] = {}
    for num, ok, detail in _acceptance_records:
        by_criterion.setdefault(num, []).append((ok, detail))
    terminalreporter.section("acceptance criteria")
    for num in sorted(by_criterion):
        parts = by_criterion[num]
        verdict = "PASS" if all(ok for ok, _ in parts) else "FAIL"
        detail = "; ".join(d for _, d in parts)
        terminalreporter.write_line(f"criterion {num}: {verdict} - {detail}")
