"""Budan-Fourier root counts and the thresholds built on them, against Sturm.

exactcore.roots_above counts the roots of a real-rooted squarefree
polynomial above a point from the signs of its derivatives there; gram's
epsilon and D and cyclecheck's observed roots isolate with it.  Sturm
chains count the distinct roots of any polynomial, so they are the oracle
here: the counts are pinned to count_roots(sturm_sequence(f), x) on
products of distinct rational linear factors, whose roots are also known
exactly, and on the squarefree parts of det(I - y A^2) for random diagrams.
The walks root_intervals and refine_root_interval, on integer numerators
over one denominator, are pinned interval for interval to their Fraction
forms in tests/_gram_oracle.py, on those products, whose roots often land
on bisection points.  The walk's root test at a midpoint, which skips the
points the rational root theorem rules out, is pinned to the sign itself.
epsilon's walk, counting on q at x^2 and taking signs on q(d^2) itself, is
pinned to the generic walk on q(d^2), and its power-of-two bound U to
Fujiwara's; it must count nothing above U.  The hypothesis
tests are derandomized, so every run sees the same cases.  A walk whose
counts are wrong (a polynomial that is not real-rooted) must fail fast,
not split forever.
"""

from __future__ import annotations

import random
import signal
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxcert import CoxeterDiagram, is_connected
from coxcert import cycle_complement, d_threshold, epsilon_threshold, gram, minor_polynomials
from coxcert.cyclecheck import _observed_roots
from coxcert.errors import VerificationFailed
from coxcert.exactcore import Interval, Poly, cauchy_root_bound, refine_root_interval, root_intervals, roots_above
from coxcert.exactcore import poly, squarefree_part
from coxcert.exactcore.poly import _sign_at, count_roots, isolate_real_roots, sturm_sequence
from coxcert.gram import _half_square, _root_power_bound, _smallest_abs_root, pencil_char_poly

import _gram_oracle as oracle
from _suite import acceptance_suite, random_connected_diagram

F = Fraction
X = Poly((0, 1))


def _product(roots) -> Poly:
    f = Poly((1,))
    for r in roots:
        f = f * (X - r)
    return f.primitive()


def _mirror(p: Poly) -> Poly:
    return Poly(tuple(c if i % 2 == 0 else -c for i, c in enumerate(p.coeffs)))


def _check_count(f: Poly, x: Fraction, roots=None) -> None:
    """roots_above(f, x) against Sturm off the roots, and against the roots when known."""
    got = roots_above(f, x)
    if roots is not None:
        assert got == sum(r > x for r in roots), (f, x)
    if f(x) != 0:
        assert got == count_roots(sturm_sequence(f), x), (f, x)


def _derivative_vanishes(f: Poly, x: Fraction) -> bool:
    g = f.derivative()
    while g.degree >= 1:
        if g(x) == 0:
            return True
        g = g.derivative()
    return False


_rational_roots = st.lists(
    st.fractions(min_value=-6, max_value=6, max_denominator=8), min_size=1, max_size=7, unique=True
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_rational_roots, st.booleans(), st.fractions(min_value=-8, max_value=8, max_denominator=20))
@example([F(-1), F(1)], False, F(0))  # f'(0) = 0
@example([F(1), F(2), F(6)], False, F(3))  # f''(3) = 0
@example([F(1), F(2)], True, F(0))  # (x^2 - 1)(x^2 - 4): f'(0) = f'''(0) = 0
def test_roots_above_on_products_of_linear_factors(roots, mirrored, point):
    if mirrored:  # +-r for each r != 0: an even or odd f, so 0 zeroes every other derivative
        roots = sorted({r for s in roots for r in (s, -s) if s != 0} or {F(1), F(-1)})
    f = _product(roots)
    ordered = sorted(roots)
    # every root, where f vanishes; the mean of the roots, where f^(deg - 1)
    # vanishes; 0; points below and above every root; the gaps' midpoints
    points = [*ordered, sum(ordered) / len(ordered), F(0), ordered[0] - 1, ordered[-1] + 1, point]
    points += [(a + b) / 2 for a, b in zip(ordered, ordered[1:])]
    for x in points:
        _check_count(f, x, roots)


def test_the_examples_reach_laguerre_s_case():
    # a derivative vanishes at a point that is not a root, and the count
    # still skips it exactly
    for roots, x in (([-1, 1], F(0)), ([1, 2, 6], F(3)), ([-2, -1, 1, 2], F(0))):
        f = _product(roots)
        assert f(x) != 0 and _derivative_vanishes(f, x)
        _check_count(f, x, roots)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_rational_roots, st.booleans())
@example([F(-1), F(0), F(1)], False)  # x^3 - x: the first midpoint 0 is a root, and so is its first nudge 1
def test_integer_walks_match_the_fraction_walks(roots, mirrored):
    if mirrored:
        roots = sorted({r for s in roots for r in (s, -s) if s != 0} or {F(1), F(-1)})
    f = _product(roots)
    for above in (None, 0) if f(0) else (None,):
        assert list(root_intervals(f, above=above)) == list(oracle.root_intervals(f, above=above)), above
    for iv in root_intervals(f):
        for width in (iv.width / 4, F(1, 3), F(1, 1000)):
            assert refine_root_interval(f, iv, width) == oracle.refine_root_interval(f, iv, width), (iv, width)


def test_a_root_at_a_bisection_point_moves_the_split():
    # x^3 - x on (-2, 2): the midpoint 0 is a root, and so is 0 + 4/4; the
    # split lands at 1 + 4/8
    f = Poly((0, -1, 0, 1))
    expected = [Interval(-2, F(-1, 4)), Interval(F(-1, 4), F(5, 8)), Interval(F(5, 8), F(3, 2))]
    assert list(root_intervals(f)) == list(oracle.root_intervals(f)) == expected


def test_refinement_landing_on_a_root_returns_a_snug_interval():
    f, iv = Poly((-1, 4)), Interval(0, 1)  # the second midpoint is the root 1/4
    for width, expected in ((F(1, 8), Interval(F(3, 16), F(5, 16))), (F(1, 3), Interval(F(1, 8), F(3, 8)))):
        assert refine_root_interval(f, iv, width) == oracle.refine_root_interval(f, iv, width) == expected


def test_refinement_from_endpoints_over_different_denominators():
    # 12x - 1 has its root 1/12 at the first midpoint of (-1/2, 2/3)
    for f, iv, root in (
        (Poly((-1, 2)), Interval(F(1, 3), F(5, 7)), F(1, 2)),
        (Poly((-1, 12)), Interval(F(-1, 2), F(2, 3)), F(1, 12)),
    ):
        for width in (F(1, 100), iv.width / 2):
            tight = refine_root_interval(f, iv, width)
            assert tight == oracle.refine_root_interval(f, iv, width), (f, width)
            assert tight.lo < root < tight.hi and tight.width <= width, (f, width)


def test_the_walks_build_fractions_only_for_what_they_return(monkeypatch):
    made = Counter()

    class CountedFraction(F):
        def __new__(cls, *args):
            made[sys._getframe(1).f_code.co_name] += 1
            return super().__new__(cls, *args)

    f, line, start = Poly((0, -1, 0, 1)) * Poly((-1, 4)), Poly((-1, 4)), Interval(0, 1)
    monkeypatch.setattr("coxcert.exactcore.poly.Fraction", CountedFraction)
    intervals = list(root_intervals(f))
    # each interval's two endpoints
    assert len(intervals) == 4 and made == {"root_intervals": 8}
    for args in ((f, intervals[2], F(1, 10**9)), (line, start, F(1, 8))):  # the second lands on the root
        made.clear()
        refine_root_interval(*args)
        assert made == {"refine_root_interval": 2}, args


def test_the_walks_keep_their_points_reduced(monkeypatch):
    # A split takes its point over 4 den, with den reduced by the gcd of its
    # interval's numerators, so a point's denominator at most doubles per
    # root test; unreduced it would grow fourfold per split.  Refinement
    # from the integers 0 and 64 stays over 2 until the width drops below 1.
    square = Poly((-2, 0, 1))
    f = square * Poly((-1414, 1000))  # roots -sqrt(2), 1.414 and sqrt(2)
    dens = []

    def spy(name: str, test):
        def spied(p: Poly, u: int, den: int = 1):
            dens.append(den)
            return test(p, u, den)

        monkeypatch.setattr(f"coxcert.exactcore.poly.{name}", spied)

    spy("_is_root", poly._is_root)
    assert list(root_intervals(f)) == list(oracle.root_intervals(f))
    assert len(dens) > 8 and all(den <= 4 * 1000 << k for k, den in enumerate(dens)), dens
    monkeypatch.undo()
    dens.clear()
    spy("_sign_at", _sign_at)
    assert refine_root_interval(square, Interval(0, 64), 1) == Interval(1, 2)
    assert dens == [1, 1, 2, 2, 2, 2, 2, 2]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.lists(st.tuples(st.integers(-12, 12), st.integers(1, 6)), min_size=1, max_size=4),
    st.lists(st.lists(st.integers(-6, 6), min_size=1, max_size=4), max_size=2),
    st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 24)), max_size=6),
    st.integers(2, 6),
)
@example([(0, 1), (-3, 2)], [], [(-9, 4)], 2)  # p(0) = 0
@example([(3, 2), (-5, 3)], [[7, 0, 1]], [(0, 5), (-7, 1)], 3)  # p(0) != 0
def test_the_root_test_is_the_sign_test(roots, extras, points, scale):
    # p = prod(b x - a) times random extra factors in Z[x]; _is_root skips the
    # points the rational root theorem rules out, and so must agree with the
    # sign at the planted roots, at 0, at random points and at all of them
    # taken unreduced, over scale * den
    p = Poly((1,))
    for a, b in roots:
        p = p * Poly((-a, b))
    for coeffs in extras:
        p = p * Poly(coeffs) if any(coeffs) else p
    for u, den in roots + points + [(0, 1)]:
        for k in (1, scale):
            assert poly._is_root(p, k * u, k * den) == (_sign_at(p, k * u, k * den) == 0), (p, u, den, k)
    assert all(poly._is_root(p, a, b) for a, b in roots), p


@contextmanager
def _within(seconds: float):
    """Raise TimeoutError, instead of hanging, once the body runs past `seconds`."""

    def stop(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_a_polynomial_without_real_roots_fails_the_walk():
    # Budan-Fourier counts the complex pair of x^2 + 1 on every (-w, w)
    with _within(1), pytest.raises(VerificationFailed, match="separation"):
        list(root_intervals(Poly((1, 0, 1))))


def test_roots_closer_than_the_guard_allows_do_not_exist():
    # the separation bound for 2^40 x^2 - x is 2^-45, below the roots' 2^-40
    f = _product([F(0), F(1, 2**40)])
    assert [iv.lo < r < iv.hi for iv, r in zip(root_intervals(f), (0, F(1, 2**40)))] == [True, True]


def _wrong_column_minors(g):
    """gram's bordering recurrence with one bug: A_k is bordered by the next vertex's column."""
    p, minors = [1], []
    neighbours = [[j - 1 for j in g.neighbors(i)] for i in g.vertices]
    for k in range(g.n):
        column = neighbours[(k + 1) % g.n]
        adjacent = [[j for j in row if j < k] for row in neighbours[:k]]
        v, s = [int(i in column) for i in range(k)], []
        while len(s) < k:
            w = [sum(map(v.__getitem__, row)) for row in adjacent]
            s, v = s + [sum(map(mul, v, v)), sum(map(mul, v, w))], w
        p.append(0)
        for j in range(k + 1, 1, -1):
            p[j] -= sum(map(mul, p[: j - 1], reversed(s[: j - 1])))
        minors.append(Poly(p))
    return minors


def test_minors_that_are_not_real_rooted_fail_epsilon(monkeypatch):
    # The mutant's cc8 minors include one with complex roots; epsilon's walk
    # on it used to split without end.
    monkeypatch.setattr(gram, "minor_polynomials", _wrong_column_minors)
    with _within(1), pytest.raises(VerificationFailed, match="separation"):
        epsilon_threshold(cycle_complement(8))


def test_a_disconnected_mutant_fails_epsilon_at_det_s_guard(monkeypatch):
    # The race walks every minor of a disconnected diagram, and on this one
    # every walk ends; only the guard on det's half-square, which runs on
    # every diagram, sees that the mutant det is not real-rooted.
    g = CoxeterDiagram(7, frozenset({(1, 3), (1, 4), (2, 3), (6, 7)}))
    assert not is_connected(g)
    monkeypatch.setattr(gram, "minor_polynomials", _wrong_column_minors)
    with _within(1), pytest.raises(VerificationFailed):
        epsilon_threshold(g)


def _half_squares(seed: int):
    """Squarefree parts of det(I - y A_k^2), one per leading block of a random diagram."""
    rng = random.Random(seed)
    g = random_connected_diagram(rng, rng.randrange(3, 13), rng.choice((0.2, 1 / 3, 0.6)))
    for p in minor_polynomials(g):
        if p.degree >= 1:
            yield squarefree_part(Poly((p * _mirror(p)).coeffs[::2])).primitive(), rng


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_roots_above_on_pencil_half_squares(seed):
    for q, rng in _half_squares(seed):
        bound = F(*cauchy_root_bound(q))
        points = [F(0), -bound, bound, F(rng.randrange(-1000, 1000), rng.randrange(1, 1000))]
        for iv in isolate_real_roots(sturm_sequence(q)):
            points += [iv.lo, iv.hi, iv.mid]
        for x in points:
            _check_count(q, x)


def _real_rooted_minor(inverse_roots) -> Poly:
    p = Poly((1,))
    for r in inverse_roots:
        p = p * Poly((1, -r))
    return p


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool), min_size=1, max_size=6))
@example([F(2), F(-1), F(-1)])  # K3's det (1 - 2d)(1 + d)^2: q = (1 - 4y)(1 - y)^2 is not squarefree
@example([F(1)])  # q = y - 1: its root is U = 2^0, and the walk's first refinement point hits it
@example([F(1, 2), F(-1, 2), F(1, 2)])  # q = y - 4, repeated: the root is U = 2^2
@example([F(1), F(1, 2), F(1)])  # q = (y - 1)(y - 4): roots at 2^0 and 2^2, below U = 2^4
@example([F(-5, 3), F(1), F(-1), F(5)])  # a bisection point is a root of q(d^2), so the walk moves off it
def test_smallest_abs_root_matches_the_sturm_walk(inverse_roots):
    # p = prod(1 - r d) is real-rooted with p(0) = 1, like a minor, and may
    # repeat roots or hold both r and -r
    p = _real_rooted_minor(inverse_roots)
    q = _half_square(p)
    even, iv = _smallest_abs_root(q)
    expected_even, expected_iv = oracle.smallest_abs_root(p)
    assert (even, iv) == (expected_even, expected_iv)
    assert (even, iv) == oracle.generic_smallest_abs_root(q)
    _check_root_power_bound(q)


def _check_root_power_bound(q: Poly) -> None:
    """U = _root_power_bound(q) is the least power of two at or above Fujiwara's
    bound F = 2 max(|a_(n-i)/a_n|^(1/i), i < n, |a_0/(2 a_n)|^(1/n)), and no root of q exceeds it."""
    top, n = _root_power_bound(q), q.degree
    assert top.numerator == 1 or top.denominator == 1
    assert (top.numerator * top.denominator).bit_count() == 1  # a power of two
    terms = [(F(abs(q.coeffs[n - i]), abs(q.leading) * (2 if i == n else 1)), i) for i in range(1, n + 1)]
    # x >= F iff (x/2)^i >= each ratio; U >= F and U/2 < F
    assert all((top / 2) ** i >= ratio for ratio, i in terms), q
    assert not all((top / 4) ** i >= ratio for ratio, i in terms), q
    assert roots_above(q, top) == 0


def test_the_walk_counts_no_roots_above_the_power_bound(monkeypatch):
    # every roots_above call the walk makes is on q at a point at most U,
    # above which the walk answers 0 itself, and every sign is taken on
    # q(d^2), the polynomial walked
    calls, signs = [], []

    def spy(f, x, b=1):
        calls.append((f, F(x) / b))
        return roots_above(f, x, b)

    def sign_spy(f, x, b=1):
        signs.append((f, F(x) / b))
        return _sign_at(f, x, b)

    monkeypatch.setattr("coxcert.gram.roots_above", spy)
    monkeypatch.setattr("coxcert.gram._sign_at", sign_spy)
    monkeypatch.setattr("coxcert.exactcore.poly._sign_at", sign_spy)
    for name, g in acceptance_suite():
        for p in minor_polynomials(g):
            q = _half_square(p)
            calls.clear()
            signs.clear()
            found = _smallest_abs_root(q)
            if q.degree < 1:
                continue
            top = _root_power_bound(q)
            assert all(f == q for f, _ in calls), name
            assert all(point <= top for _, point in calls), (name, q, top)
            assert all(f == q(X * X) for f, _ in signs), name
            assert (q, top) in calls and found == oracle.generic_smallest_abs_root(q), name


def _oracle_diagrams():
    yield from acceptance_suite()
    rng = random.Random(16)
    for idx in range(20):
        n = rng.randrange(8, 21)
        yield f"random{idx}-n{n}", random_connected_diagram(rng, n, rng.choice((0.15, 1 / 3, 0.6)))


def test_thresholds_match_the_sturm_oracle():
    for name, g in _oracle_diagrams():
        for p in minor_polynomials(g):
            q = _half_square(p)
            assert squarefree_part(q) == q, name  # else a multiple root never isolates
            assert _smallest_abs_root(q) == oracle.smallest_abs_root(p), name
            assert _smallest_abs_root(q) == oracle.generic_smallest_abs_root(q), name
        assert epsilon_threshold(g) == oracle.epsilon_threshold(g), name
        d_value, largest = d_threshold(g)
        assert (d_value, largest) == oracle.d_threshold(g), name
        for t in (F(d_value + 1), F(3, 2)):
            cp = pencil_char_poly(g, t)
            assert _observed_roots(cp) == oracle.observed_roots(cp), (name, t)


@pytest.mark.parametrize("seed, rate", [(15, 0.3), (1012, 0.35)])
def test_a_large_d_matches_the_sturm_oracle(seed, rate):
    # D = 28,664 and 11,194; the oracle bisects for D on its own Sturm counts
    g = random_connected_diagram(random.Random(seed), 32, rate)
    assert d_threshold(g) == oracle.d_threshold(g)
