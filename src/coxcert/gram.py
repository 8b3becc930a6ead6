"""Symmetric matrix pencil of a diagram and its two certified thresholds.

For a diagram g the pencil M_d has ones on the diagonal, -d at every edge,
and 0 at every non-edge, so M_0 = I.  Two exact thresholds control the whole
construction:

* epsilon: a rational 0 < epsilon < 1 such that M_d is positive-definite for
  every d in [-epsilon, epsilon].  It is taken just below rho, the smallest
  absolute value of a real root of any leading principal minor of M_d
  (by Sylvester's criterion all minors are +1 at d = 0 and stay positive
  until the first root).
* D: the smallest integer >= 1 strictly greater than every real root of
  det(M_d).  For d >= D the determinant no longer vanishes and the inertia
  of M_d is constant ("stable signature"); it is read off the signs of
  det(M_d)'s coefficients.

All n minor polynomials come from one pivot-free, fraction-free Bareiss
pass over the integer matrix M_{2^bits}, with 2^bits past twice a Hadamard
bound on their coefficients: its pivots are the minors at d = 2^bits, and
their balanced base-2^bits digits are the coefficients (Kronecker
substitution).  Roots are located by Budan-Fourier counts and bisection
on real-rooted squarefree polynomials, with signs in integers; epsilon walks
(0, B) on q(y) = det(I - y A_k^2), counting nowhere past Fujiwara's bound, and
screens gcds modulo 2^61 - 1.  Final checks are re-verified exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt
from typing import NamedTuple

from .diagram import CoxeterDiagram
from .errors import VerificationFailed
from .exactcore import (
    Interval,
    Matrix,
    Poly,
    QuadElem,
    Signature,
    cauchy_root_bound,
    leading_principal_minors,
    poly_gcd,
    refine_root_interval,
    root_intervals,
    roots_above,
    squarefree_part,
)
from .exactcore.poly import _sign_at, poly_from_balanced_digits

# epsilon when the cap at 1 binds (pencils whose minors have no root in (0, 1)).
_EPSILON_CAP = Fraction(1023, 1024)


class GramPencil(NamedTuple):
    """The pencil M_d = I - dA, A the adjacency matrix of the diagram."""

    diagram: CoxeterDiagram

    @property
    def n(self) -> int:
        return self.diagram.n

    def at(self, t) -> Matrix:
        """M_t in t's own ring: 1 on the diagonal, -t at each edge, 0 elsewhere."""
        g, zero = self.diagram, t * 0
        one = zero + 1
        return tuple(
            tuple(one if i == j else -t if g.adjacent(i, j) else zero for j in g.vertices) for i in g.vertices
        )


@lru_cache(maxsize=256)
def gram_pencil(g: CoxeterDiagram) -> GramPencil:
    return GramPencil(g)


def evaluate_pencil(pencil: GramPencil, t):
    """M_t as an exact matrix; t may be int, Fraction, QuadElem or Poly (an int reads as a Fraction)."""
    if isinstance(t, int):
        t = Fraction(t)
    if not isinstance(t, (Fraction, QuadElem, Poly)):
        raise TypeError(f"evaluation point must be exact, got {type(t).__name__}")
    return pencil.at(t)


@lru_cache(maxsize=256)
def _minor_polynomials_cached(pencil: GramPencil) -> tuple[Poly, ...]:
    # Every Bareiss entry is a minor of I - dA (Sylvester).  Its d^j coefficient
    # sums at most C(n, j) determinants with j columns from the 0/1 matrix A,
    # each at most n^(j/2) by Hadamard.  Past twice that bound, d = 2^bits keeps
    # each coefficient as one balanced digit; evaluation is a ring map and each
    # Z[d] quotient is exact, so the integer pass divides exactly.
    n = pencil.n
    bits = (2 * max(comb(n, j) * (isqrt(n**j) + 1) for j in range(n + 1))).bit_length()
    minors = [poly_from_balanced_digits(v, bits) for v in leading_principal_minors(pencil.at(1 << bits))]
    for k, p in enumerate(minors, start=1):
        if not (p(Fraction(0)) == 1):
            raise VerificationFailed(f"minor {k} has constant term {p(Fraction(0))}, expected 1")
    return tuple(minors)


def minor_polynomials(pencil: GramPencil) -> list[Poly]:
    """Leading principal minors of M_d as polynomials in d (k = 1..n).

    Every minor has constant term 1 because M_0 = I.
    """
    return list(_minor_polynomials_cached(pencil))


def _half_square(p: Poly) -> Poly:
    """The primitive squarefree q with q(d^2) = 0 exactly where p(d) p(-d) = 0.

    For a minor p = det(I - d A_k), q(y) divides det(I - y A_k^2): it is
    real-rooted, with roots 1/lambda^2 > 0 for A_k's eigenvalues lambda != 0.
    """
    mirrored = Poly(tuple(c if i % 2 == 0 else -c for i, c in enumerate(p.coeffs)))
    return squarefree_part(Poly((p * mirrored).coeffs[::2]))


def _root_power_bound(q: Poly) -> Fraction:
    """U, the least power of two at or above Fujiwara's bound (Tohoku Math. J. 10, 1916)
    2 max(|a_(n-i)/a_n|^(1/i) for i < n, |a_0/(2 a_n)|^(1/n)) on q = sum a_i y^i's roots."""
    n, lead, exponents = q.degree, abs(q.leading), []
    for j, c in enumerate(map(abs, q.coeffs[:-1])):
        a = lead if j else 2 * lead
        if c:  # L, the least with 2^L >= c/a, then the least m with m i >= L, i = n - j
            log = ((c + a - 1) // a - 1).bit_length() if c > a else 1 - (a // c).bit_length()
            exponents.append(-(-log // (n - j)))
    return Fraction(2) ** (1 + max(exponents))


def _smallest_abs_root(q: Poly) -> tuple[Poly, Interval] | None:
    """Isolate min |root| of a minor as the smallest positive root of q(d^2), q its _half_square.

    Returns (q(d^2), the squarefree part of p(d)p(-d) up to a constant, and
    its isolating interval) or None when p has no real roots.  The walk is
    root_intervals(q(d^2))'s right of its split at 0, then refine_root_interval's
    while lo = 0, on integers over one denominator, counting by roots_above(q, x^2);
    where x^2 > U = _root_power_bound(q), past all q's roots, the count is 0, the sign q's leading one.
    """
    if not (count := roots_above(q, 0)):
        return None
    even, top = Poly(tuple(c for a in q.coeffs for c in (a, 0))), _root_power_bound(q)
    if roots_above(q, top) != 0:
        raise VerificationFailed(f"{q} has a root above Fujiwara's bound {top}")

    def at(f, u: int, den: int, beyond: int) -> int:  # f(q, (u/den)^2), or beyond where (u/den)^2 > U
        return beyond if u * u * top.denominator > top.numerator * den * den else f(q, u * u, den * den)
    lo, (hi, den), a_lo = 0, cauchy_root_bound(even).as_integer_ratio(), count
    while count > 1 or lo == 0:
        if count > 1:  # root_intervals' step, at _nonroot_point's point over 4 den, 8 den, ...
            scale, mid = 4, 2 * (lo + hi)
            while at(_sign_at, mid, scale * den, 1) == 0:
                scale, mid = 2 * scale, 2 * (mid + hi - lo)
            lo, hi, den = lo * scale, hi * scale, den * scale
            a_mid = at(roots_above, mid, den, 0)
            # the first root lies in (lo, mid) if a_lo > a_mid, else in (mid, hi)
            lo, hi, count, a_lo = (lo, mid, a_lo - a_mid, a_lo) if a_lo > a_mid else (mid, hi, count, a_mid)
        else:  # refine_root_interval(q(d^2), iv, iv.width / 4) from lo = 0
            lo, hi, den, radius = 0, 8 * hi, 8 * den, hi  # a root hit dead on gets width / 8 each side
            for _ in range(2):
                mid = (lo + hi) // 2
                if not (s_mid := at(_sign_at, mid, den, 1)):
                    lo, hi = mid - radius, mid + radius
                    break
                lo, hi = (mid, hi) if s_mid * q.coeffs[0] > 0 else (lo, mid)
        common = gcd(lo, hi, den)
        lo, hi, den = lo // common, hi // common, den // common
    return even, Interval(Fraction(lo, den), Fraction(hi, den))


def _gcd_root_in_overlap(f: Poly, g: Poly, lo: Fraction, hi: Fraction) -> bool:
    """Do the even squarefree f, g share a root on the closed [lo, hi], 0 <= lo?

    Their gcd is h(d^2), h the gcd of their halves: a real-rooted squarefree factor of a q."""
    h = poly_gcd(Poly(f.coeffs[::2]), Poly(g.coeffs[::2]))
    return _sign_at(h, lo * lo) == 0 or roots_above(h, lo * lo) != roots_above(h, hi * hi)


def _minimum_of_algebraics(candidates: list[tuple[Poly, Interval]]) -> tuple[Poly, Interval]:
    """The minimum among isolated positive algebraics, with its polynomial.

    Refines until one candidate's interval lies strictly below all others.
    Equal values isolated by different polynomials are recognized exactly:
    two squarefree polynomials share a root iff their gcd vanishes there.
    """
    items = list(candidates)
    for _ in range(256):
        items.sort(key=lambda it: it[1].lo)
        best_poly, best_iv = items[0]
        keep = [(best_poly, best_iv)]
        for f, iv in items[1:]:
            if iv.lo > best_iv.hi:
                continue  # strictly above the best candidate's root
            lo, hi = max(best_iv.lo, iv.lo), min(best_iv.hi, iv.hi)
            if lo <= hi and _gcd_root_in_overlap(best_poly, f, lo, hi):
                continue  # same algebraic number; best already covers it
            keep.append((f, iv))
        if len(keep) == 1:
            return best_poly, best_iv
        items = [(f, refine_root_interval(f, iv, iv.width / 16)) for f, iv in keep]
    raise VerificationFailed("could not separate candidate minima")


def epsilon_threshold(pencil: GramPencil) -> tuple[Fraction, Interval | None]:
    """(epsilon, rho interval): exact PD radius under-approximation.

    rho is the smallest absolute value of any real root of any leading
    principal minor; its isolating interval is refined until the width drops
    below rho_lower/1024.  epsilon is the interval's lower endpoint, capped
    below 1.  Before returning, positive-definiteness of M at +-epsilon and
    emptiness of the minors' root set on (-epsilon, epsilon) are re-verified
    exactly (VerificationFailed on any failure, which would indicate a bug).
    """
    minors = minor_polynomials(pencil)
    halves = [_half_square(p) for p in minors]
    candidates = [found for found in map(_smallest_abs_root, halves) if found is not None]
    if not candidates:
        rho_interval, epsilon = None, _EPSILON_CAP
    else:
        even, rho_interval = _minimum_of_algebraics(candidates)
        while rho_interval.lo <= 0 or rho_interval.width >= rho_interval.lo / 1024:
            rho_interval = refine_root_interval(even, rho_interval, rho_interval.width / 4)
        epsilon = rho_interval.lo if rho_interval.lo < 1 else _EPSILON_CAP
    _verify_epsilon(minors, halves, epsilon)
    return epsilon, rho_interval


def _verify_epsilon(minors: list[Poly], halves: list[Poly], epsilon: Fraction) -> None:
    if not (0 < epsilon < 1):
        raise VerificationFailed(f"epsilon {epsilon} outside (0, 1)")
    for k, (p, q) in enumerate(zip(minors, halves), start=1):
        for point in (epsilon, -epsilon):
            if _sign_at(p, point) <= 0:
                raise VerificationFailed(f"minor {k} not positive at d = {point}")
        # p(0) = 1, and q has a root on (0, epsilon^2] iff p has one on [-epsilon, epsilon]
        if roots_above(q, Fraction(0)) != roots_above(q, epsilon * epsilon):
            raise VerificationFailed(f"minor {k} vanishes inside [-{epsilon}, {epsilon}]")


def d_threshold(pencil: GramPencil) -> tuple[int, Interval | None]:
    """(D, largest-root interval): stable integer evaluation point.

    D = max(1, smallest integer strictly greater than every real root of
    det M_d).  Certified by a count of zero roots above a rational L
    strictly between the largest root and D.  det M_d = prod(1 - d lambda_i)
    is real-rooted but can have multiple roots (cycle complements have
    double ones), so roots_above counts, and refinement follows sign
    changes, on its squarefree part.
    """
    det = minor_polynomials(pencil)[-1]
    if det.degree < 1:
        return 1, None
    sf = squarefree_part(det)
    roots = list(root_intervals(sf))
    limit = int(cauchy_root_bound(det)) + 2
    chosen = next((x for x in range(1, limit + 1) if sf(x) != 0 and roots_above(sf, x) == 0), None)
    if chosen is None:
        raise VerificationFailed("no valid integer below the root bound")
    if not roots:
        return chosen, None
    largest = roots[-1]
    while largest.hi >= chosen:
        largest = refine_root_interval(sf, largest, largest.width / 4)
    if roots_above(sf, largest.hi) != 0:
        raise VerificationFailed("roots remain above the refined largest-root interval")
    return chosen, largest


def stable_signature(pencil: GramPencil) -> Signature:
    """Exact inertia of M_d for every d >= D, by Descartes' rule on det M_d.

    M_d = I - d*A with A the symmetric adjacency matrix, so
    det M_d = prod(1 - d*lambda_i) over A's real eigenvalues: det is
    real-rooted with constant term 1, and its positive roots, counted with
    multiplicity, are the 1/lambda_i with lambda_i > 0.  Once d is past every
    root, 1 - d*lambda_i is negative exactly for those lambda_i and positive
    for the rest, so M_d is nonsingular with q negative eigenvalues, q the
    number of positive roots.  Descartes' rule bounds that number by the
    sign changes of the coefficient sequence, with an even deficit that
    vanishes for real-rooted polynomials, so q is exactly that count.
    """
    det = minor_polynomials(pencil)[-1]
    signs = [c > 0 for c in det.coeffs if c != 0]
    q = sum(a != b for a, b in zip(signs, signs[1:]))
    return Signature(pencil.n - q, q, 0)


def pencil_char_poly(pencil: GramPencil, t) -> Poly:
    """det(x I - M_t) for a rational t, read off det M_d = sum_k c_k d^k.

    M_t = I - t*A, so det((x - 1) I + t*A) = sum_k c_k (-t)^k (x - 1)^(n - k):
    det M_d's coefficients, scaled, reversed, padded to degree n and shifted
    by x -> x - 1.
    """
    scaled = [c * (-t) ** k for k, c in enumerate(minor_polynomials(pencil)[-1].coeffs)]
    scaled += [0] * (pencil.n + 1 - len(scaled))
    return Poly(tuple(reversed(scaled)))(Poly((-1, 1)))


class ThresholdReport(NamedTuple):
    """Everything cmd_analyze prints: both thresholds plus the stable inertia."""

    epsilon: Fraction
    rho_interval: Interval | None
    d_value: int
    largest_root_interval: Interval | None
    signature: Signature


def threshold_report(pencil: GramPencil) -> ThresholdReport:
    epsilon, rho_interval = epsilon_threshold(pencil)
    d_value, largest = d_threshold(pencil)
    sig = stable_signature(pencil)
    return ThresholdReport(epsilon, rho_interval, d_value, largest, sig)
