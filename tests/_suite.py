"""Shared diagram suite for the cross-module and acceptance tests.

The fixed members are the triangle K3 (all pairs non-commuting), the path
P3, the star K13, and the cycle complements on 5..9 vertices.  On top of
those come twenty pseudorandom connected diagrams with n <= 7, generated
from a frozen seed: a random spanning tree keeps them connected, then each
remaining pair joins with probability one third.  `suite_thresholds` and
`suite_unit` compute each member's thresholds and alpha once, for every test
module that asks.  `growth_series` counts group elements by length from the
diagram's commuting cliques alone, an oracle independent of any enumeration.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from coxcert import (
    CoxeterDiagram,
    UnitValue,
    choose_unit,
    cycle_complement,
    threshold_report,
)

K3 = CoxeterDiagram(3, frozenset({(1, 2), (1, 3), (2, 3)}))
P3 = CoxeterDiagram(3, frozenset({(1, 2), (2, 3)}))
K13 = CoxeterDiagram(4, frozenset({(1, 2), (1, 3), (1, 4)}))

SUITE_SEED = 20260814

_THRESHOLDS: dict = {}
_UNITS: dict = {}


def random_connected_diagram(rng: random.Random, n: int, rate: float = 1 / 3) -> CoxeterDiagram:
    edges = set()
    for v in range(2, n + 1):
        u = rng.randrange(1, v)
        edges.add((u, v))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if (i, j) not in edges and rng.random() < rate:
                edges.add((i, j))
    return CoxeterDiagram(n, frozenset(edges))


def acceptance_suite() -> list[tuple[str, CoxeterDiagram]]:
    members = [("K3", K3), ("P3", P3), ("K13", K13)]
    for n in range(5, 10):
        members.append((f"cc{n}", cycle_complement(n)))
    rng = random.Random(SUITE_SEED)
    for idx in range(20):
        n = rng.randrange(3, 8)
        members.append((f"rand{idx:02d}", random_connected_diagram(rng, n)))
    return members


def probe_length(n: int) -> int | None:
    """Faithfulness probe depth per the acceptance schedule; None = skip."""
    if n <= 5:
        return 8
    if n <= 7:
        return 6
    return None


def suite_thresholds(name, g):
    """threshold_report of a suite member, computed once per test session."""
    if name not in _THRESHOLDS:
        _THRESHOLDS[name] = threshold_report(g)
    return _THRESHOLDS[name]


def suite_unit(name, g, m) -> UnitValue:
    """The pipeline's alpha for a suite member over Z[sqrt(m)]."""
    key = (name, m)
    if key not in _UNITS:
        rep = suite_thresholds(name, g)
        bound = max(Fraction(1) / rep.epsilon, Fraction(rep.d_value))
        _UNITS[key] = choose_unit(m, bound)
    return _UNITS[key]


def clique_counts(g: CoxeterDiagram, max_size: int | None = None) -> list[int]:
    """c[k] = number of k-sets of pairwise commuting (non-adjacent) generators,
    for k up to max_size (all k by default) and 0 above it."""
    adjacent = [0] * (g.n + 1)
    for i, j in g.edges:
        adjacent[i] |= 1 << j
        adjacent[j] |= 1 << i
    counts = [0] * (g.n + 1)

    def grow(start: int, size: int, blocked: int) -> None:
        counts[size] += 1
        if size == max_size:
            return
        for v in range(start, g.n + 1):
            if not (blocked >> v) & 1:
                grow(v + 1, size + 1, blocked | adjacent[v])

    grow(1, 0, 0)
    return counts


def growth_series(g: CoxeterDiagram, max_len: int) -> list[int]:
    """Number of group elements of each length 0..max_len.

    The growth series of a right-angled Coxeter group is 1 / sum_k c_k
    (-t / (1 + t))^k over the commuting cliques; invert that power series.
    Cliques above max_len elements do not reach t^max_len, so none is counted.
    """
    denom = [0] * (max_len + 1)
    for k, ck in enumerate(clique_counts(g, max_len)):
        if ck == 0 or k > max_len:
            continue
        # (-t)^k (1+t)^(-k) = sum_j (-1)^(k+j) C(k+j-1, j) t^(k+j)
        for j in range(max_len - k + 1):
            binom = comb(k + j - 1, j) if k > 0 else int(j == 0)
            denom[k + j] += ck * (-1) ** (k + j) * binom
    series = [1] + [0] * max_len
    for i in range(1, max_len + 1):
        series[i] = -sum(denom[j] * series[i - j] for j in range(1, i + 1))
    return series
