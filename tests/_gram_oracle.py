"""The Sturm-chain root queries the thresholds used before Budan-Fourier.

Sturm's theorem counts the distinct roots of any nonzero polynomial, with
no real-rootedness assumed, so these walks are an independent check of the
package's counts, which hold only on real-rooted squarefree polynomials.
smallest_abs_root isolates on the squarefree part of p(d)p(-d) itself;
epsilon_threshold, d_threshold and observed_roots repeat the package's
functions of those names step for step with Sturm counts in place of
roots_above, so their results must agree exactly.  generic_smallest_abs_root
is the walk gram._smallest_abs_root replaced: the generic root_intervals
on q(d^2) with Fraction points, Budan-Fourier counts at every point and its
symmetric Cauchy interval split at 0.
"""

from __future__ import annotations

from fractions import Fraction

from coxcert.errors import VerificationFailed
from coxcert.exactcore import Poly, cauchy_root_bound, poly_gcd, quad_sign, refine_root_interval, squarefree_part
from coxcert.exactcore.poly import count_roots, isolate_real_roots, root_intervals, roots_above, sturm_sequence
from coxcert.gram import _EPSILON_CAP, minor_polynomials

_REFINE_WIDTH = Fraction(1, 10**12)


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


def epsilon_threshold(pencil):
    minors = minor_polynomials(pencil)
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


def d_threshold(pencil):
    det = minor_polynomials(pencil)[-1]
    if det.degree < 1:
        return 1, None
    sf = squarefree_part(det)
    chain = sturm_sequence(sf)
    roots = isolate_real_roots(chain)
    limit = int(cauchy_root_bound(det)) + 2
    chosen = next(c for c in range(1, limit + 1) if sf(c) != 0 and count_roots(chain, Fraction(c)) == 0)
    if not roots:
        return chosen, None
    largest = roots[-1]
    while largest.hi >= chosen:
        largest = refine_root_interval(sf, largest, largest.width / 4)
    assert count_roots(chain, largest.hi) == 0
    return chosen, largest


def observed_roots(cp: Poly) -> list:
    sf = squarefree_part(cp)
    return [float(refine_root_interval(sf, iv, _REFINE_WIDTH).mid) for iv in isolate_real_roots(sturm_sequence(sf))]
