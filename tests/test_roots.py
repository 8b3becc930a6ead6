"""Budan-Fourier root counts and the thresholds built on them, against Sturm.

exactcore.roots_above counts the roots of a real-rooted squarefree
polynomial above a point from the signs of its derivatives there; gram's
epsilon and D and cyclecheck's observed roots isolate with it.  Sturm
chains count the distinct roots of any polynomial, so they are the oracle
here: the counts are pinned to count_roots(sturm_sequence(f), x) on
products of distinct rational linear factors, whose roots are also known
exactly, and on the squarefree parts of det(I - y A^2) for random diagrams.
epsilon's own walk, on integer points of the positive half, is pinned to
the generic root_intervals walk it replaced, and its power-of-two bound U
to Fujiwara's; it must make no count above U.  The hypothesis tests are
derandomized, so every run sees the same cases.
"""

from __future__ import annotations

import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from coxcert import d_threshold, epsilon_threshold, gram_pencil, minor_polynomials
from coxcert.cyclecheck import _observed_roots
from coxcert.exactcore import Poly, cauchy_root_bound, roots_above, squarefree_part
from coxcert.exactcore.poly import count_roots, isolate_real_roots, sturm_sequence
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


def _half_squares(seed: int):
    """Squarefree parts of det(I - y A_k^2), one per leading block of a random diagram."""
    rng = random.Random(seed)
    g = random_connected_diagram(rng, rng.randrange(3, 13), rng.choice((0.2, 1 / 3, 0.6)))
    for p in minor_polynomials(gram_pencil(g)):
        if p.degree >= 1:
            yield squarefree_part(Poly((p * _mirror(p)).coeffs[::2])).primitive(), rng


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_roots_above_on_pencil_half_squares(seed):
    for q, rng in _half_squares(seed):
        bound = cauchy_root_bound(q)
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
    # every roots_above call the walk makes on q is at a point at most U;
    # above U the walk answers 0 itself
    calls = []

    def spy(f, x, b=1):
        calls.append((f, F(x) / b))
        return roots_above(f, x, b)

    monkeypatch.setattr("coxcert.gram.roots_above", spy)
    for name, g in acceptance_suite():
        for p in minor_polynomials(gram_pencil(g)):
            q = _half_square(p)
            calls.clear()
            found = _smallest_abs_root(q)
            if q.degree < 1:
                continue
            top = _root_power_bound(q)
            assert all(f == q for f, _ in calls), name
            assert all(point <= top for _, point in calls), (name, q, top)
            assert (q, top) in calls and found == oracle.generic_smallest_abs_root(q), name


def _oracle_diagrams():
    yield from acceptance_suite()
    rng = random.Random(16)
    for idx in range(20):
        n = rng.randrange(8, 21)
        yield f"random{idx}-n{n}", random_connected_diagram(rng, n, rng.choice((0.15, 1 / 3, 0.6)))


def test_thresholds_match_the_sturm_oracle():
    for name, g in _oracle_diagrams():
        pencil = gram_pencil(g)
        for p in minor_polynomials(pencil):
            q = _half_square(p)
            assert squarefree_part(q) == q, name  # else a multiple root never isolates
            assert _smallest_abs_root(q) == oracle.smallest_abs_root(p), name
            assert _smallest_abs_root(q) == oracle.generic_smallest_abs_root(q), name
        assert epsilon_threshold(pencil) == oracle.epsilon_threshold(pencil), name
        d_value, largest = d_threshold(pencil)
        assert (d_value, largest) == oracle.d_threshold(pencil), name
        for t in (F(d_value + 1), F(3, 2)):
            cp = pencil_char_poly(pencil, t)
            assert _observed_roots(cp) == oracle.observed_roots(cp), (name, t)

