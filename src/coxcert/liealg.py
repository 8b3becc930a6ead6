"""Infinitesimal certificates: planar generators and the density trace.

For a nondegenerate symmetric M, the matrices A with A^T M + M A = 0 form
the Lie algebra so(M), of dimension n(n-1)/2.  That equation says exactly
that A M^-1 is antisymmetric, so every element is S M for a unique
antisymmetric S, and S -> S M is injective.  For a vertex pair (i, j) the
rotation generator fixing the M-orthocomplement of the plane <e_i, e_j>
pointwise is, up to scale,

    X_ij = E_ij M,   E_ij = e_i e_j^T - e_j e_i^T:

row i of X_ij is row j of M, row j is minus row i of M, and every other
row is zero.  planar_generator returns it in primitive integer coordinates.

Zariski density asks whether the edge generators bracket-generate so(M_t).
Let V_0 be the span of the E_ab over the edges, V_(k+1) = V_k + [V_k, V_k],
where [S, T] stands for the S' with [S M, T M] = S' M, and d(a, b) the
distance in the diagram.  Theorem: for t != 0 with M_t nonsingular, V_k is
the span of the E_ab with d(a, b) <= r_k, where r_0 = 1 and
r_(k+1) = 2 r_k + 1; at t = 0, where M_t = I, the same holds with
r_(k+1) = 2 r_k.  So dim V_k counts vertex pairs by distance, and for a
connected diagram the trace reaches n(n-1)/2 once r_k passes the diameter.

Proof.  [S M, T M] = (S M T - T M S) M, and T M S = (S M T)^T, so the
bracket of S and T is Q - Q^T with Q = S M T.  For coordinate matrices

    [E_ab, E_cd] = M_bc E_ad - M_bd E_ac - M_ac E_bd + M_ad E_bc,

with E_qp = -E_pq and E_pp = 0.  M_xy is nonzero only when x = y or x, y
are adjacent (M_xx = 1, M_xy = -t on an edge), and induct on k with
L = r_k.
  Upper bound.  Each term carries an M entry joining an index of the first
pair to one of the second, so a bracket of two pairs within distance L
lies within distance L + 1 + L = 2L + 1; by bilinearity V_(k+1) lies in
the span of the E_ad with d(a, d) <= 2L + 1.
  Lower bound.  Take a pair at L < d(a, d) <= 2L + 1 and a geodesic
a ... b c ... d with b ~ c and d(a, b) = ceil((d(a, d) - 1)/2), so both
halves lie within L.  If d(a, d) >= 3, then a != b and c != d, and no
other two of a, b, c, d are equal or adjacent, because they lie on a
geodesic: [E_ab, E_cd] = -t E_ad.  If d(a, d) = 2 (so L = 1), with middle
vertex b, then [E_ab, E_bd] = E_ad + t E_ab + t E_bd, and the two seeds
lie in V_k.  Either way E_ad lies in V_(k+1).
  t = 0.  M = I, so only the terms whose M entry has equal indices
survive: [E_ab, E_bd] = E_ad for a != d, and a bracket of two pairs
within L lies within 2L.  Splitting a geodesic of length in (L, 2L] at a
vertex b with d(a, b) = ceil(d(a, d)/2) gives every such E_ad, so the
radius is 2L.
  Dimensions.  Distinct E_ab are independent, and S -> S M_t is
injective for nonsingular M_t, so dim V_k in so(M_t) is the pair count.
The trace depends on the diagram alone; every connected diagram is dense
at every nonsingular rational t (compare Benoist and de la Harpe,
"Adherence de Zariski des groupes de Coxeter", Compositio Math. 140,
2004).
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import or_
from typing import NamedTuple

from .diagram import CoxeterDiagram, is_connected
from .errors import InputError, VerificationFailed
from .gram import minor_polynomials


def _check_pair(n: int, i: int, j: int) -> None:
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"pair ({i}, {j}) outside 1..{n}")
    if i == j:
        raise ValueError(f"need two distinct vertices, got {i} twice")


def _entry_fractions(x) -> tuple:
    from .exactcore import QuadElem

    if isinstance(x, QuadElem):
        return (x.a, x.b)
    return (Fraction(x),)


def _normalize_primitive(a: tuple) -> tuple:
    """Scale by a positive rational to primitive integer coordinates, then
    fix the sign so the first nonzero entry (row-major) is positive."""
    fracs = [f for row in a for x in row for f in _entry_fractions(x)]
    numer = gcd(*(f.numerator for f in fracs))
    if numer == 0:
        raise VerificationFailed("cannot normalize the zero matrix")
    scale = Fraction(lcm(*(f.denominator for f in fracs)), numer)
    scaled = tuple(tuple(x * scale for x in row) for row in a)
    for row in scaled:
        for x in row:
            if x > 0:
                return scaled
            if x < 0:
                return tuple(tuple(-y for y in r) for r in scaled)
    raise VerificationFailed("cannot normalize the zero matrix")


def planar_generator(m: tuple, i: int, j: int) -> tuple:
    """The generator X_ij = E_ij M of the rotations in the (e_i, e_j) plane.

    It satisfies X^T M + M X = 0 and annihilates every v with
    (Mv)_i = (Mv)_j = 0; for nondegenerate M those conditions fix it up
    to scale.  The result is scaled by a positive rational to primitive
    integer coordinates with positive leading entry.  That fixes it for
    rational M; for M over Q(sqrt m) it is fixed only up to a factor in
    Q(sqrt m), so it may differ from another generator of the same line.
    """
    from .exactcore.linalg import bareiss_det

    n = len(m)
    _check_pair(n, i, j)
    if bareiss_det(m) == 0:
        raise VerificationFailed("the symmetric form is singular")
    rows = [tuple(x * 0 for x in m[0])] * n
    rows[i - 1] = tuple(m[j - 1])
    rows[j - 1] = tuple(-x for x in m[i - 1])
    return _normalize_primitive(tuple(rows))


# -- density trace -------------------------------------------------------------


class DensityCertificate(NamedTuple):
    """The dimension trace of the bracket closure at one point t.

    dimension_trace[k] is dim V_k, the number of vertex pairs within
    distance r_k; the verdict is whether the last entry is n(n-1)/2.
    """

    dimension_trace: tuple
    full_dimension: int

    @property
    def verdict(self) -> bool:
        return self.dimension_trace[-1] == self.full_dimension


def _spread(balls: list, reach) -> list:
    """balls[v] grown by the union of reach[u] over its members u (bit u)."""
    return [
        reduce(or_, (reach[u] for u in range(1, len(balls)) if ball >> u & 1), 0)
        for ball in balls
    ]


def bracket_closure_density(g: CoxeterDiagram, t) -> DensityCertificate:
    """Certify the edge X_ij bracket-generate the full orthogonal Lie algebra.

    The trace comes from the theorem above: dim V_k counts the pairs
    a < b with d(a, b) <= r_k, where r_0 = 1 and r_(k+1) = 2 r_k + 1, or
    2 r_k at t = 0, and it stops at the first full entry.  The balls of
    radius r_k start as the diagram's closed neighbourhoods
    (noncommuting_masks); a ball of radius 2r + 1 is the union of the
    radius r + 1 balls of its radius r members, and of radius 2r, of their
    radius r balls.  The diagram is connected, so the balls fill.
    t must be rational, and M_t nondegenerate: det M_d, cached with the
    pencil's minors, must not vanish at t.
    """
    if not is_connected(g):
        raise InputError("density certification needs a connected diagram")
    if not isinstance(t, (int, Fraction)):
        raise TypeError(f"density needs a rational parameter, got {type(t).__name__}")
    if minor_polynomials(g)[-1](t) == 0:
        raise VerificationFailed(f"the form is singular at t = {t}")
    n = g.n
    full_dim = n * (n - 1) // 2
    balls = masks = g.noncommuting_masks
    trace = []
    while True:
        # Each ball holds its own centre, and each pair is seen from both ends.
        trace.append((sum(ball.bit_count() for ball in balls) - n) // 2)
        if trace[-1] == full_dim:
            break
        balls = _spread(balls, _spread(balls, masks) if t else balls)
    return DensityCertificate(tuple(trace), full_dim)
