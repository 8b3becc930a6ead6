"""The Sturm-chain root queries the thresholds used before Budan-Fourier.

Sturm's theorem counts the distinct roots of any nonzero polynomial, with
no real-rootedness assumed, so these walks are an independent check of the
package's counts, which hold only on real-rooted squarefree polynomials.
smallest_abs_root isolates on the squarefree part of p(d)p(-d) itself;
epsilon_threshold, d_threshold and observed_roots find what the package's
functions of those names find with Sturm counts in place of roots_above,
so their results must agree exactly; d_threshold bisects for D where the
package doubles, and isolates every root where the package walks only
above half its bracket.  generic_smallest_abs_root
is the walk gram._smallest_abs_root replaced: the generic root_intervals
on q(d^2) with Fraction points, Budan-Fourier counts at every point and its
symmetric Cauchy interval split at 0.  root_intervals and
refine_root_interval are the package's walks as they were before they took
integer numerators over one denominator: the same points as Fractions, so
every walk here yields the same intervals, and the tests pin the integer
walks to them.  circulant_identity_in_q_d is the cycle-complement identity
compared in Q[d], entry by entry, as cyclecheck did before one integer
evaluation decided it.  kronecker_minors is how gram found the leading
minors before the bordering recurrence: one fraction-free Bareiss pass over
M_d at d = 2^bits, past twice a Hadamard bound on every coefficient, and
the balanced base-2^bits digits of its pivots.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import comb, isqrt

from coxcert.errors import EndpointIsRoot, VerificationFailed
from coxcert.exactcore import (
    Interval,
    Poly,
    cauchy_root_bound,
    leading_principal_minors,
    poly_gcd,
    quad_sign,
    squarefree_part,
)
from coxcert.exactcore.poly import _sign_at, count_roots, poly_from_balanced_digits, roots_above, sturm_sequence
from coxcert.gram import _EPSILON_CAP, minor_polynomials, pencil_at

_REFINE_WIDTH = Fraction(1, 10**12)


def kronecker_minors(g) -> list[Poly]:
    """The leading principal minors of M_d, decoded from one integer Bareiss pass at d = 2^bits.

    Every Bareiss entry is a minor of I - dA (Sylvester).  Its d^j coefficient
    sums at most C(n, j) determinants with j columns from the 0/1 matrix A,
    each at most n^(j/2) by Hadamard.  Past twice that bound, d = 2^bits keeps
    each coefficient as one balanced digit; evaluation is a ring map and each
    Z[d] quotient is exact, so the integer pass divides exactly.
    """
    n = g.n
    bits = (2 * max(comb(n, j) * (isqrt(n**j) + 1) for j in range(n + 1))).bit_length()
    return [poly_from_balanced_digits(v, bits) for v in leading_principal_minors(pencil_at(g, 1 << bits))]


def _nonroot_point(p: Poly, lo: Fraction, hi: Fraction) -> Fraction:
    """A point near the middle of (lo, hi) that is not a root of p."""
    width = hi - lo
    point = lo + width / 2
    step = width / 4
    while _sign_at(p, point) == 0:
        point = point + step
        step = step / 2
    return point


def root_intervals(p: Poly, count_above=None, above: Fraction | None = None):
    """exactcore's root_intervals on Fraction points; count_above(x) takes one rational x."""
    count_above = count_above or partial(roots_above, p)
    bound = Fraction(*cauchy_root_bound(p))
    a_lo = count_above(-bound)
    stack = [(-bound, bound, a_lo - count_above(bound), a_lo)]
    while stack:
        lo, hi, count, a_lo = stack.pop()
        if count == 0 or (above is not None and hi <= above):
            continue
        if count == 1:
            yield Interval(lo, hi)
            continue
        mid = _nonroot_point(p, lo, hi)
        a_mid = count_above(mid)
        left = a_lo - a_mid
        stack.append((mid, hi, count - left, a_mid))
        stack.append((lo, mid, left, a_lo))


def isolate_real_roots(chain: list[Poly]) -> list[Interval]:
    return list(root_intervals(chain[0], partial(count_roots, chain)))


def refine_root_interval(p: Poly, interval: Interval, max_width: Fraction) -> Interval:
    """exactcore's refine_root_interval on Fraction points."""
    max_width = Fraction(max_width)
    if max_width <= 0:
        raise ValueError("max_width must be positive")
    lo, hi = interval.lo, interval.hi
    s_lo, s_hi = _sign_at(p, lo), _sign_at(p, hi)
    if s_lo == 0 or s_hi == 0:
        raise EndpointIsRoot("refinement endpoints must not be roots")
    if s_lo == s_hi:
        raise ValueError("p does not change sign on the interval")
    while hi - lo > max_width:
        mid = (lo + hi) / 2
        s_mid = _sign_at(p, mid)
        if s_mid == 0:
            radius = min(max_width / 2, (mid - lo) / 2, (hi - mid) / 2)
            return Interval(mid - radius, mid + radius)
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return Interval(lo, hi)


def smallest_abs_root(p: Poly):
    """(squarefree part of p(d)p(-d), first isolating interval right of 0), or None."""
    if p.degree < 1:
        return None
    mirrored = Poly(tuple(c if i % 2 == 0 else -c for i, c in enumerate(p.coeffs)))
    even = squarefree_part(p * mirrored)
    chain = sturm_sequence(even)
    for iv in root_intervals(chain[0], lambda x: count_roots(chain, x), above=0):
        if iv.lo >= 0:
            while iv.lo == 0:
                iv = refine_root_interval(even, iv, iv.width / 4)
            return even, iv
    return None


def generic_smallest_abs_root(q: Poly):
    """(q(d^2), first isolating interval right of 0) by root_intervals, or None.

    With Q(y) = roots_above(q, y) and R = Q(0), q(d^2) has Q(x^2) roots above
    x >= 0 and 2R - Q(x^2) above x < 0; those counts bisect its symmetric
    Cauchy interval, first at 0, walking only the path to the first root
    right of 0."""
    if q.degree < 1:
        return None
    even = Poly(tuple(c for a in q.coeffs for c in (a, 0)))
    twice_r = 2 * roots_above(q, Fraction(0))

    def count_above(x: Fraction) -> int:
        above_square = roots_above(q, x * x)
        return above_square if x >= 0 else twice_r - above_square

    for iv in root_intervals(even, count_above, above=0):
        if iv.lo >= 0:
            while iv.lo == 0:
                iv = refine_root_interval(even, iv, iv.width / 4)
            return even, iv
    return None


def _gcd_root_in_overlap(common: Poly, lo: Fraction, hi: Fraction) -> bool:
    if common.degree < 1:
        return False
    if common(lo) == 0 or common(hi) == 0:
        return True
    return lo < hi and count_roots(sturm_sequence(common), lo, hi) > 0


def _minimum_of_algebraics(candidates):
    items = list(candidates)
    for _ in range(256):
        items.sort(key=lambda it: it[1].lo)
        best_poly, best_iv = items[0]
        keep = [(best_poly, best_iv)]
        for f, iv in items[1:]:
            if iv.lo > best_iv.hi:
                continue
            common = poly_gcd(best_poly, f)
            lo, hi = max(best_iv.lo, iv.lo), min(best_iv.hi, iv.hi)
            if lo <= hi and _gcd_root_in_overlap(common, lo, hi):
                continue
            keep.append((f, iv))
        if len(keep) == 1:
            return best_poly, best_iv
        items = [(f, refine_root_interval(f, iv, iv.width / 16)) for f, iv in keep]
    raise VerificationFailed("could not separate candidate minima")


def epsilon_threshold(g):
    minors = minor_polynomials(g)
    candidates = [found for found in map(smallest_abs_root, minors) if found is not None]
    if not candidates:
        rho_interval = None
        epsilon = _EPSILON_CAP
    else:
        even, rho_interval = _minimum_of_algebraics(candidates)
        while rho_interval.lo <= 0 or rho_interval.width >= rho_interval.lo / 1024:
            rho_interval = refine_root_interval(even, rho_interval, rho_interval.width / 4)
        epsilon = rho_interval.lo if rho_interval.lo < 1 else _EPSILON_CAP
    assert 0 < epsilon < 1
    for p in minors:
        assert quad_sign(p(epsilon)) > 0 and quad_sign(p(-epsilon)) > 0
        assert p.degree == 0 or count_roots(sturm_sequence(p), -epsilon, epsilon) == 0
    return epsilon, rho_interval


def d_threshold(g):
    det = minor_polynomials(g)[-1]
    if det.degree < 1:
        return 1, None
    sf = squarefree_part(det)
    chain = sturm_sequence(sf)
    roots = isolate_real_roots(chain)
    # c >= 1 qualifies when it is no root and has none above it, i.e. when it
    # is above the largest root, so the qualifying integers are upward closed:
    # bisect between 0 and a bound past every root for the least of them
    below, chosen = 0, int(Fraction(*cauchy_root_bound(det))) + 2
    while chosen - below > 1:
        c = (below + chosen) // 2
        if sf(c) != 0 and count_roots(chain, Fraction(c)) == 0:
            chosen = c
        else:
            below = c
    if not roots:
        return chosen, None
    largest = roots[-1]
    while largest.hi >= chosen:
        largest = refine_root_interval(sf, largest, largest.width / 4)
    assert count_roots(chain, largest.hi) == 0
    return chosen, largest


def circulant_identity_in_q_d(at, n: int) -> bool:
    """M_d == (1+d) I + d (J + J^{n-1}) - d * (all-ones) in Q[d], M_d = at(d)."""
    d = Poly((0, 1))
    m_d = at(d)
    return all(
        m_d[i][j] == (1 + d) * (i == j) + d * ((i - j) % n in (1, n - 1)) - d for i in range(n) for j in range(n)
    )


def observed_roots(cp: Poly) -> list:
    sf = squarefree_part(cp)
    return [float(refine_root_interval(sf, iv, _REFINE_WIDTH).mid) for iv in isolate_real_roots(sturm_sequence(sf))]
