"""Exact counting of disjoint ordered/unordered S-permutation matrix pairs.

The count is an inclusion-exclusion over partial coincidence patterns.  A
pattern of k shared cells occupies k distinct blocks, and the block
positions form a bipartite graph g (block rows vs block columns, one edge
per shared cell).  Summing over all labeled graphs g on the n+n block
indices gives the exact identity

    ordered(n) = (n!)^(2n) * sum_g (-1)^(edges(g)) * prod_v (n - deg(v))!

with v running over all 2n vertices of g.  Grouping labeled graphs into
isomorphism classes (independent relabeling of the two sides) turns the
inner product into a per-class weight times the class size.  With

    degree_factor(g) = prod_{i=0}^{n-2} ((n-i)!)^(d_i)      (d_i = number of
                                                          degree-i vertices)

and class size (n!)² / |Aut(g)|, where Aut(g) is the group of
side-preserving automorphisms, the count becomes

    ordered(n) = (n!)^(2(n+1)) * sum_{k=0}^{n²} (-1)^k
                 * sum_{classes g, k edges} degree_factor(g) / |Aut(g)|.

(The degree product legitimately stops at i = n-2: degree-n and
degree-(n-1) vertices contribute 0! = 1! = 1.)  The count is taken in two
steps.  ``weight_table(catalog, convention)`` is the one place the inner
sums are taken, for k = 1..n²; the convention is chosen there and nowhere
else.  The k = 0 bucket holds only the empty graph, whose term is
(n!)^(4n), and ``count_ordered(n, table)`` is that plus (n!)^(2(n+1))
times the alternating sum of the table the caller holds.

``graph_weight(entry, convention)`` is the one per-class weight function:
the numerator is always ``degree_factor``, and the convention picks only
the denominator.  Two are implemented, because a tempting shortcut exists
and deserves an explicit, separately testable home:

* "automorphism" (the default, and the correct one): divide by |Aut(g)|,
  the order of the full side-preserving automorphism group.  This is what
  the identity above requires, and it is the convention the brute-force
  census confirms: 112 ordered pairs at block order 2, 838 501 632 at
  block order 3.

* "twin-classes": divide by the product of factorials of the sizes of
  neighborhood-equivalence classes (vertices with identical neighbor
  sets, isolated vertices grouped per side).  Permutations of twin
  vertices are automorphisms, but not necessarily all of them: a perfect
  matching on 2+2 vertices has no twins yet admits the automorphism that
  swaps both edges in sync, so the twin product (1) undercounts |Aut| (2)
  and the weight comes out double.  The shortcut is exact for many small
  graphs, which is what makes it seductive: at block order 2 it inflates
  only one of the seven class weights and yields 144 ordered pairs
  instead of 112.

Everything runs in exact rational arithmetic (fractions.Fraction over
Python's arbitrary-precision ints); the alternating sum must clear its
denominators exactly, and we assert that it does.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .bigraphs import CatalogEntry, GraphCatalog, GraphProfile
from .sperm import check_order

CONVENTIONS = ("automorphism", "twin-classes")


def degree_factor(p: GraphProfile) -> int:
    """Numerator shared by both conventions: Π_{i=0}^{n-2} ((n-i)!)^(d_i)."""
    n = len(p.degree_counts) - 1
    num = 1
    for i in range(n - 1):  # i = 0 .. n-2
        num *= math.factorial(n - i) ** p.degree_counts[i]
    return num


def automorphism_order(entry: CatalogEntry) -> int:
    """|Aut(g)| for side-preserving automorphisms: (n!)² / orbit size."""
    group = math.factorial(len(entry.profile.degree_counts) - 1) ** 2
    order, rem = divmod(group, entry.orbit_size)
    if rem:
        raise ArithmeticError(
            f"orbit size {entry.orbit_size} does not divide (n!)² = {group}"
        )
    return order


def graph_weight(entry: CatalogEntry, convention: str = "automorphism") -> Fraction:
    """Per-class weight: ``degree_factor`` over the convention's denominator,
    |Aut(g)| or the product of twin-class factorials."""
    if convention == "automorphism":
        den = automorphism_order(entry)
    elif convention == "twin-classes":
        den = math.prod(math.factorial(s) for s in entry.profile.twin_class_sizes)
    else:
        raise ValueError(
            f"unknown convention {convention!r}, expected one of {CONVENTIONS}"
        )
    return Fraction(degree_factor(entry.profile), den)


def weight_table(
    catalog: GraphCatalog, convention: str = "automorphism"
) -> dict[int, Fraction]:
    """Sum of class weights over each k-edge bucket, for k = 1..n²."""
    n = catalog.n
    return {
        k: sum((graph_weight(e, convention) for e in catalog.buckets[k]), Fraction(0))
        for k in range(1, n * n + 1)
    }


def count_ordered(n: int, table: dict[int, Fraction]) -> int:
    """Count of ordered pairs of disjoint S-permutation matrices:
    (n!)^(4n) + (n!)^(2(n+1)) · Σ_k (−1)^k · table[k].

    ``table`` is a side-size-n ``weight_table``, keyed k = 1..n².  Under the
    automorphism convention this is the true count, confirmed against the
    exhaustive census for n ≤ 3; a "twin-classes" table gives the value the
    shortcut produces (144 at n=2), which the census refutes.  The count is
    checked to be even.
    """
    check_order(n)
    if sorted(table) != list(range(1, n * n + 1)):
        raise ValueError(f"weight table buckets are not 1..{n * n}")
    for k, w in table.items():
        if not isinstance(w, Fraction) and type(w) is not int:  # no bool, no float
            raise ValueError(f"weight table bucket {k} is not a Fraction or int: {w!r}")
    fact = math.factorial(n)
    tail = sum(((-1) ** k * w for k, w in table.items()), Fraction(0))
    total = fact ** (4 * n) + fact ** (2 * (n + 1)) * tail
    if total.denominator != 1:
        raise ArithmeticError(
            f"alternating sum failed to clear denominators for n={n}: {total}"
        )
    if total < 0:
        raise ArithmeticError(f"negative pair count for n={n}: {total}")
    if total % 2:
        raise ArithmeticError(f"ordered pair count is odd for n={n}: {total}")
    return int(total)


def count_unordered(n: int, table: dict[int, Fraction]) -> int:
    """Unordered pairs: half of ``count_ordered``, checked there to be even."""
    return count_ordered(n, table) // 2


def format_rational(q: Fraction) -> str:
    """Uniform "num/den" rendering, e.g. "1296/1" or "1/4"."""
    return f"{q.numerator}/{q.denominator}"
