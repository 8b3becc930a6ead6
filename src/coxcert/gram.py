"""Symmetric matrix pencil of a diagram and its two certified thresholds.

For a diagram g the pencil M_d has ones on the diagonal, -d at every edge,
and 0 at every non-edge, so M_0 = I.  Two exact thresholds control the whole
construction:

* epsilon: a rational 0 < epsilon < 1 such that M_d is positive-definite for
  every d in [-epsilon, epsilon].  It is taken just below rho, the smallest
  absolute value of a real root of any leading principal minor of M_d
  (by Sylvester's criterion all minors are +1 at d = 0 and stay positive
  until the first root).  Every minor's smallest |root| is isolated and
  they race, with one cut: for a connected diagram rho = 1/lambda_max(A) is
  det's smallest positive root (Perron-Frobenius, and interlacing: Horn and
  Johnson, Matrix Analysis, ch. 4 and 8), and the longest prefix of minors
  positive at a point past det's refined root, which puts their roots too
  far to change the race (Sylvester), is never walked.  epsilon is checked by
  the minors' signs at +-epsilon alone: they make M at +-epsilon positive
  definite (Sylvester), and M_d is affine in d, so it is positive definite
  on all of [-epsilon, epsilon] (a convex combination).
* D: the smallest integer >= 1 strictly greater than every real root of
  det(M_d).  For d >= D the determinant no longer vanishes and the inertia
  of M_d is constant ("stable signature"); it is read off the signs of
  det(M_d)'s coefficients.

All n minor polynomials come from the bordering recurrence (Samuelson,
Ann. Math. Statist. 13, 1942; Berkowitz, Inform. Process. Lett. 18, 1984)
in integers, with no division and no bound on the coefficients.  Roots are
located by Budan-Fourier counts and exactcore's one integer-grid bisection
walk on real-rooted squarefree polynomials, which takes its signs on the
walked polynomial and skips the midpoints the rational root theorem rules
out; epsilon walks q(d^2) and supplies the counts itself, on
q(y) = det(I - y A_k^2) at y = x^2, none past Fujiwara's bound, and
screens gcds modulo 2^61 - 1.
Final checks are re-verified exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import dropwhile
from operator import mul
from typing import NamedTuple

from .diagram import CoxeterDiagram, is_connected
from .errors import VerificationFailed
from .exactcore import (
    Interval,
    Poly,
    Signature,
    poly_gcd,
    refine_root_interval,
    root_intervals,
    roots_above,
    squarefree_part,
)
from .exactcore.poly import _sign_at, _sign_changes

# epsilon when the cap at 1 binds (pencils whose minors have no root in (0, 1)).
_EPSILON_CAP = Fraction(1023, 1024)


def pencil_at(g: CoxeterDiagram, t) -> tuple:
    """M_t in t's own ring: 1 on the diagonal, -t at each edge, 0 elsewhere."""
    zero = t * 0
    one, minus_t = zero + 1, -t
    return tuple(
        tuple(one if i == j else minus_t if mask >> j & 1 else zero for j in g.vertices)
        for i, mask in zip(g.vertices, g.noncommuting_masks[1:])
    )


def gram_pencil(g: CoxeterDiagram) -> CoxeterDiagram:
    """g itself: every pencil function takes the diagram."""
    return g


def evaluate_pencil(g: CoxeterDiagram, t):
    """M_t as an exact matrix; t may be int, Fraction, QuadElem or Poly (an int reads as a Fraction)."""
    from .exactcore import QuadElem

    if isinstance(t, int):
        t = Fraction(t)
    if not isinstance(t, (Fraction, QuadElem, Poly)):
        raise TypeError(f"evaluation point must be exact, got {type(t).__name__}")
    return pencil_at(g, t)


@lru_cache(maxsize=256)
def minor_polynomials(g: CoxeterDiagram) -> tuple[Poly, ...]:
    """Leading principal minors of M_d as polynomials in d (k = 1..n), cached on diagram equality.

    Every minor has constant term 1 because M_0 = I.
    """
    # p_0..p_k: det(I - d A_k)'s coefficients from d^0 up, det(x I - A_k)'s from x^k down.  Bordering A_k
    # by c, vertex k + 1's neighbours in it, gives p_j -= sum_(i <= j-2) p_i s_(j-2-i), s_j = c^T A_k^j c.
    p, minors = [1], []
    neighbours = [[j - 1 for j in g.neighbors(i)] for i in g.vertices]  # neighbours[i]: vertex i + 1's, 0-based
    for k, column in enumerate(neighbours):
        adjacent = [[j for j in row if j < k] for row in neighbours[:k]]  # A_k's rows
        v, s = [int(i in column) for i in range(k)], []  # v = c
        while len(s) < k:  # s_2t = |A^t c|^2, s_(2t+1) = (A^t c)^T A (A^t c)
            w = [sum(map(v.__getitem__, row)) for row in adjacent]
            s, v = s + [sum(map(mul, v, v)), sum(map(mul, v, w))], w
        p.append(0)
        for j in range(k + 1, 1, -1):
            p[j] -= sum(map(mul, p[: j - 1], reversed(s[: j - 1])))
        minors.append(Poly(p))
    return tuple(minors)


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

    Returns (q(d^2), the squarefree part of p(d)p(-d) up to a constant, and its isolating
    interval) or None when p has no real roots: root_intervals(q(d^2)) right of its split at 0,
    then refine_root_interval while lo = 0, counting on q at x^2; signs are q(d^2)'s own.  With
    Q(y) = roots_above(q, y) and R = Q(0), q(d^2) has R roots above 0, Q(x^2) above x > 0 and
    2R - Q(x^2) above x < 0; past U = _root_power_bound(q), above all q's roots, Q is 0.
    """
    if not (count := roots_above(q, 0)):
        return None
    even, top = Poly(tuple(c for a in q.coeffs for c in (a, 0))), _root_power_bound(q)
    if roots_above(q, top) != 0:
        raise VerificationFailed(f"{q} has a root above Fujiwara's bound {top}")
    top_u, top_den = top.as_integer_ratio()

    def count_above(u: int, den: int) -> int:
        if not u:
            return count
        above = 0 if u * u * top_den > top_u * den * den else roots_above(q, u * u, den * den)
        return above if u > 0 else 2 * count - above

    interval = next(root_intervals(even, count_above, 0))
    while interval.lo == 0:
        interval = refine_root_interval(even, interval, interval.width / 4)
    return even, interval


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


def epsilon_threshold(g: CoxeterDiagram) -> tuple[Fraction, Interval | None]:
    """(epsilon, rho interval): exact PD radius under-approximation.

    rho is the smallest absolute value of any real root of any leading
    principal minor; _candidate_race isolates it and refines its interval
    until the width drops below rho_lower/1024.  epsilon is the interval's
    lower endpoint, capped below 1.  det's half-square must first isolate
    as many real roots as its degree, since the race may walk no other
    minor.  Before returning, every minor is re-verified positive at
    +-epsilon (VerificationFailed on any failure, which would indicate a bug).
    """
    minors = minor_polynomials(g)
    det_half = _half_square(minors[-1])
    # det_half divides det(I - y A^2), so it is real-rooted, and only then are the
    # walks' Budan-Fourier counts exact; a det that is not fails here.
    if sum(1 for _ in root_intervals(det_half)) != det_half.degree:
        raise VerificationFailed(f"det's half-square {det_half} is not real-rooted")
    rho_interval = _candidate_race(g, minors, _smallest_abs_root(det_half))
    epsilon = _EPSILON_CAP if rho_interval is None or rho_interval.lo >= 1 else rho_interval.lo
    _verify_epsilon(minors, epsilon)
    return epsilon, rho_interval


def _candidate_race(
    g: CoxeterDiagram, minors: tuple[Poly, ...], det_found: tuple[Poly, Interval] | None
) -> Interval | None:
    """rho's interval under the 1024 rule: the minors' smallest |roots| raced, det's as
    found, after the Sylvester cut; None without roots.

    On a connected diagram det's root is strictly below every other minor's
    (Perron-Frobenius and interlacing), so the race ends with det's interval
    after max(H0, 4r) halvings: r rounds of four, H0 what det alone takes
    under the 1024 rule, two per quarter.  A candidate's first interval is
    never wider than its smallest root r_k (a walk interval with lo > 0 has
    lo >= hi/2), and each round quarters it twice; so with J = H0 // 4, rho+
    the refined hi and x = rho+ (1 + 16^-J) / (1 - 16^-J), a candidate with
    r_k > x lies above det's interval by round J and cannot change the
    race's bytes.  The cut drops the longest prefix p_1..p_k positive at x
    and -x unwalked: M_k is then positive definite at +-x (Sylvester), so on
    [-x, x] (M_d is affine in d), and r_1..r_k > x.  With none left, det's
    refined interval is the race's.  There is no cut on a disconnected
    diagram, where several minors can share rho, nor after an exact hit on
    det's root, where the refinement returns a quarter-wide interval centred
    on the root and so depends on the target width.
    """
    lower = minors[:-1]
    if det_found and is_connected(g):
        (even, interval), halvings = det_found, 0
        while interval.width >= interval.lo / 1024:
            quarter = interval.width / 4
            refined = refine_root_interval(even, interval, quarter)
            if (refined.lo - interval.lo) % quarter:
                break  # det's root hit exactly
            interval, halvings = refined, halvings + 2
        else:
            if j := halvings // 4:
                x = interval.hi * (16**j + 1) / (16**j - 1)
                lower = list(dropwhile(lambda p: _sign_at(p, x) > 0 and _sign_at(p, -x) > 0, lower))
                if not lower:
                    return interval
    candidates = [found for found in map(_smallest_abs_root, map(_half_square, lower)) if found is not None]
    candidates += [det_found] if det_found else []
    if not candidates:
        return None
    even, rho_interval = _minimum_of_algebraics(candidates)
    while rho_interval.width >= rho_interval.lo / 1024:
        rho_interval = refine_root_interval(even, rho_interval, rho_interval.width / 4)
    return rho_interval


def _verify_epsilon(minors: tuple[Poly, ...], epsilon: Fraction) -> None:
    """Every minor positive at +-epsilon makes M_(+-epsilon) positive definite (Sylvester), so
    M_d, affine in d, is positive definite on all of [-epsilon, epsilon] and no minor vanishes there."""
    if not (0 < epsilon < 1):
        raise VerificationFailed(f"epsilon {epsilon} outside (0, 1)")
    for k, p in enumerate(minors, start=1):
        for point in (epsilon, -epsilon):
            if _sign_at(p, point) <= 0:
                raise VerificationFailed(f"minor {k} not positive at d = {point}")


def d_threshold(g: CoxeterDiagram) -> tuple[int, Interval | None]:
    """(D, largest-root interval): stable integer evaluation point.

    D, the smallest integer >= 1 strictly greater than every real root of
    det M_d, is read off the largest root r's interval, and certified by no
    root above its refined hi.  det = prod(1 - d lambda_i) is real-rooted,
    with double roots on cycle complements, so counts and signs are taken
    on its squarefree part.  r > 0 (A != 0 has zero trace), and doubling x
    from 1 while roots lie above it brackets r in (x/2, x] in about log2 D
    counts.  The walk skips subtrees at or below x // 2; its node for r is
    the same under any bound below r.  Quarters refine it while k =
    floor(hi) > r, i.e. k > lo and sf(k), sf(lo) have opposite signs; then
    k <= r < k + 1 = D.
    """
    det = minor_polynomials(g)[-1]
    if det.degree < 1:
        return 1, None
    sf, x = squarefree_part(det), 1
    while roots_above(sf, x):
        x *= 2
    *_, largest = root_intervals(sf, above=x // 2)
    while (k := largest.hi // 1) > largest.lo and _sign_at(sf, k) * _sign_at(sf, largest.lo) < 0:
        largest = refine_root_interval(sf, largest, largest.width / 4)
    if roots_above(sf, largest.hi) != 0:
        raise VerificationFailed("roots remain above the refined largest-root interval")
    return k + 1, largest


def stable_signature(g: CoxeterDiagram) -> Signature:
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
    q = _sign_changes(minor_polynomials(g)[-1].coeffs)
    return Signature(g.n - q, q, 0)


def pencil_char_poly(g: CoxeterDiagram, t) -> Poly:
    """det(x I - M_t) for a rational t, read off det M_d = sum_k c_k d^k.

    M_t = I - t*A, so det((x - 1) I + t*A) = sum_k c_k (-t)^k (x - 1)^(n - k):
    det M_d's coefficients, scaled, reversed, padded to degree n and shifted
    by x -> x - 1.
    """
    scaled = [c * (-t) ** k for k, c in enumerate(minor_polynomials(g)[-1].coeffs)]
    scaled += [0] * (g.n + 1 - len(scaled))
    return Poly(tuple(reversed(scaled)))(Poly((-1, 1)))


class ThresholdReport(NamedTuple):
    """Everything cmd_analyze prints: both thresholds plus the stable inertia."""

    epsilon: Fraction
    rho_interval: Interval | None
    d_value: int
    largest_root_interval: Interval | None
    signature: Signature


def threshold_report(g: CoxeterDiagram) -> ThresholdReport:
    epsilon, rho_interval = epsilon_threshold(g)
    d_value, largest = d_threshold(g)
    sig = stable_signature(g)
    return ThresholdReport(epsilon, rho_interval, d_value, largest, sig)
