"""Infinitesimal certificates: planar generators and bracket closure.

For a nondegenerate symmetric M, the matrices A with A^T M + M A = 0 form
the Lie algebra so(M), of dimension n(n-1)/2.  That equation says exactly
that A M^-1 is antisymmetric, so every element is S M for a unique
antisymmetric S.  For a vertex pair (i, j) the rotation generator fixing
the M-orthocomplement of the plane <e_i, e_j> pointwise is, up to scale,

    X_ij = E_ij M,   E_ij = e_i e_j^T - e_j e_i^T:

row i of X_ij is row j of M, row j is minus row i of M, and every other
row is zero.  planar_generator returns it in primitive integer coordinates.

bracket_closure_density stores S M by the nonzero coordinates S_ab
(a < b) of S, as a dict in which X_ij is {(i-1, j-1): 1}.  The bracket is
[S M, T M] = (S M T - T M S) M, and T M S = (S M T)^T, so the bracket of S
and T is Q - Q^T with Q = S M T.  For two coordinate matrices that is the
closed form

    [E_ab, E_cd] = M_bc E_ad - M_bd E_ac - M_ac E_bd + M_ad E_bc,

with E_qp = -E_pq and E_pp = 0, and by bilinearity the bracket of S and T
sums it over their entries: a bracket of two seeds costs O(1).

Starting from the edge generators, round k brackets every pair of the
current basis and adjoins what falls outside the span.  By bilinearity and
antisymmetry the new span is V_(k+1) = V_k + [V_k, V_k], whichever basis
represents V_k, so the dimension trace dim V_0, dim V_1, ... is fixed by
the diagram and t alone; stopping a round once the span is full appends
nothing.  Every span contains V_0, the span of the edge unit vectors, so a
bracket lies in the span exactly when its coordinates at the commuting
pairs lie in the span of the basis's coordinates there, and the echelon
runs on those short vectors (32 at cc32 rather than 496).  The closure
certifies that the span reaches all of so(M); a full span contains every
X_ij.  That is the exact, finite computation backing Zariski density of
the reflection group.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import NamedTuple

from .diagram import CoxeterDiagram, is_connected
from .errors import (
    DegenerateForm,
    IndexOutOfRange,
    NotConnected,
    SameVertex,
    UnexpectedDimension,
)
from .exactcore import Matrix, QuadElem, quad_sign
from .exactcore.linalg import bareiss_det
from .gram import evaluate_pencil, gram_pencil, minor_polynomials


def _check_pair(n: int, i: int, j: int) -> None:
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexOutOfRange(f"pair ({i}, {j}) outside 1..{n}")
    if i == j:
        raise SameVertex(f"need two distinct vertices, got {i} twice")


def _entry_fractions(x) -> tuple:
    if isinstance(x, QuadElem):
        return (x.a, x.b)
    return (Fraction(x),)


def _normalize_primitive(a: Matrix) -> Matrix:
    """Scale by a positive rational to primitive integer coordinates, then
    fix the sign so the first nonzero entry (row-major) is positive."""
    fracs = [f for row in a for x in row for f in _entry_fractions(x)]
    numer = gcd(*(f.numerator for f in fracs))
    if numer == 0:
        raise UnexpectedDimension("cannot normalize the zero matrix")
    scale = Fraction(lcm(*(f.denominator for f in fracs)), numer)
    scaled = tuple(tuple(x * scale for x in row) for row in a)
    for row in scaled:
        for x in row:
            s = quad_sign(x)
            if s > 0:
                return scaled
            if s < 0:
                return tuple(tuple(-y for y in r) for r in scaled)
    raise UnexpectedDimension("cannot normalize the zero matrix")


def planar_generator(m: Matrix, i: int, j: int) -> Matrix:
    """The generator X_ij = E_ij M of the rotations in the (e_i, e_j) plane.

    It satisfies X^T M + M X = 0 and annihilates every v with
    (Mv)_i = (Mv)_j = 0; for nondegenerate M those conditions fix it up
    to scale.  The result is scaled by a positive rational to primitive
    integer coordinates with positive leading entry.  That fixes it for
    rational M; for M over Q(sqrt m) it is fixed only up to a factor in
    Q(sqrt m), so it may differ from another generator of the same line.
    """
    n = len(m)
    _check_pair(n, i, j)
    if bareiss_det(m) == 0:
        raise DegenerateForm("the symmetric form is singular")
    rows = [tuple(x * 0 for x in m[0])] * n
    rows[i - 1] = tuple(m[j - 1])
    rows[j - 1] = tuple(-x for x in m[i - 1])
    return _normalize_primitive(tuple(rows))


# -- bracket closure -----------------------------------------------------------


class _Echelon:
    """Incremental fraction-free echelon over integer vectors."""

    def __init__(self):
        # (pivot, primitive row); each row is zero at the pivots of the rows
        # before it, so reducing in this order clears every pivot.
        self.rows: list = []

    def insert(self, vec) -> bool:
        """Add vec to the span; True when the dimension grew."""
        v = list(vec)
        for pivot, row in self.rows:
            c = v[pivot]
            if c:
                lead = row[pivot]
                v = [lead * x - c * y for x, y in zip(v, row)]
                content = gcd(*v)
                if content > 1:
                    v = [x // content for x in v]
        for pivot, x in enumerate(v):
            if x:
                self.rows.append((pivot, v))
                return True
        return False


def _bracket(s: dict, t: dict, form: list) -> dict:
    """Nonzero coordinates {(p, q): c} (p < q) of [S M, T M], for S and T
    given the same way: the closed form for [E_ab, E_cd], summed."""
    out: dict = {}
    for (a, b), x in s.items():
        row_a, row_b = form[a], form[b]
        for (c, d), y in t.items():
            xy = x * y
            for p, q, v in (
                (a, d, row_b[c]),
                (a, c, -row_b[d]),
                (b, d, -row_a[c]),
                (b, c, row_a[d]),
            ):
                if v and p != q:
                    if p < q:
                        out[p, q] = out.get((p, q), 0) + xy * v
                    else:
                        out[q, p] = out.get((q, p), 0) - xy * v
    return {pair: c for pair, c in out.items() if c}


class DensityCertificate(NamedTuple):
    """Exact record of the bracket-closure computation at one point t."""

    t: object
    seed_pairs: tuple
    dimension_trace: tuple
    final_dimension: int
    full_dimension: int
    verdict: bool


def bracket_closure_density(g: CoxeterDiagram, t) -> DensityCertificate:
    """Certify the edge X_ij bracket-generate the full orthogonal Lie algebra.

    Seeds are the planar generators of the edges (sorted); each round
    brackets all pairs of the current basis and adjoins what falls outside
    the span.  t must be rational, and M_t nondegenerate: det M_d, cached
    with the pencil's minors, must not vanish at t.  M_t is scaled by the
    denominator of t to an integer matrix, which changes no span, and
    everything is exact integer linear algebra.
    """
    if not is_connected(g):
        raise NotConnected("density certification needs a connected diagram")
    if not isinstance(t, (int, Fraction)):
        raise TypeError(f"density needs a rational parameter, got {type(t).__name__}")
    pencil = gram_pencil(g)
    if minor_polynomials(pencil)[-1](t) == 0:
        raise DegenerateForm(f"the form is singular at t = {t}")
    m = evaluate_pencil(pencil, t)
    form = [[int(x * t.denominator) for x in row] for row in m]
    n = g.n
    full_dim = n * (n - 1) // 2
    seed_pairs = tuple(g.sorted_edges())
    commuting = [(a, b) for a, b in combinations(range(n), 2) if g.commutes(a + 1, b + 1)]
    slot = {pair: k for k, pair in enumerate(commuting)}
    basis = [{(i - 1, j - 1): 1} for i, j in seed_pairs]
    # The seeds span the edge coordinates, so only the commuting ones decide
    # whether a bracket is new; the span has dimension len(basis).
    echelon = _Echelon()
    trace = [len(basis)]
    while len(basis) < full_dim:
        snapshot = len(basis)
        added = False
        for a, b in combinations(range(snapshot), 2):
            c = _bracket(basis[a], basis[b], form)
            v = [0] * len(slot)
            for pair, x in c.items():
                if pair in slot:
                    v[slot[pair]] = x
            if any(v) and echelon.insert(v):
                basis.append(c)
                added = True
                if len(basis) == full_dim:
                    break  # a full span takes no more; the round's trace entry is the same
        if not added:
            break
        trace.append(len(basis))
    return DensityCertificate(
        t=t,
        seed_pairs=seed_pairs,
        dimension_trace=tuple(trace),
        final_dimension=len(basis),
        full_dimension=full_dim,
        verdict=len(basis) == full_dim,
    )
