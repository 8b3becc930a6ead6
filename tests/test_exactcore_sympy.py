"""The exact kernels against sympy, an independent implementation.

sympy is a test-only dependency: it computes block determinants, real roots
with multiplicities, squarefree parts, gcds and characteristic
polynomials by its own algorithms, and every comparison below is exact.
The Sturm root kernels run here on polynomials with repeated roots, to pin
that none of them needs a squarefree input; they are the oracle that
tests/test_roots.py holds the package's Budan-Fourier counts to.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from coxcert import (
    CoxeterDiagram,
    cycle_complement,
    d_threshold,
    evaluate_pencil,
    is_connected,
    minor_polynomials,
    stable_signature,
)
from coxcert.exactcore import (
    Poly,
    Signature,
    leading_principal_minors,
    poly_gcd,
    quad_sign,
    refine_root_interval,
    root_intervals,
    squarefree_part,
)
from coxcert.exactcore.linalg import bareiss_det, char_poly, signature_of
from coxcert.exactcore.poly import (
    _sign_at,
    count_roots,
    isolate_real_roots,
    sturm_sequence,
)

import _gram_oracle as oracle
from _gram_oracle import smallest_abs_root
from _suite import acceptance_suite, suite_thresholds

sp = pytest.importorskip("sympy")

X = sp.Symbol("x")
F = Fraction


def _from_sympy(expr) -> Poly:
    coeffs = sp.Poly(expr, X).all_coeffs()[::-1]
    return Poly(tuple(F(int(c.p), int(c.q)) for c in coeffs))


def _sympy_normal_form(f) -> Poly:
    """sympy's primitive part of f, negated if its leading coefficient is negative."""
    _content, prim = sp.Poly(f, X).primitive()
    return _from_sympy((-prim if prim.LC() < 0 else prim).as_expr())


def _to_sympy(p: Poly):
    return sp.Poly([sp.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)], X)


def _rational(q: Fraction):
    return sp.Rational(q.numerator, q.denominator)


def _sympy_inertia(a) -> Signature:
    """Eigenvalue sign counts from sympy's real roots of the char poly."""
    cp = sp.Matrix([[_rational(x) for x in row] for row in a]).charpoly(X)
    counts = {1: 0, -1: 0, 0: 0}
    for r, mult in sp.real_roots(cp, multiple=False):
        counts[1 if bool(r > 0) else -1 if bool(r < 0) else 0] += mult
    return Signature(counts[1], counts[-1], counts[0])


@st.composite
def diagrams(draw, max_n=7):
    n = draw(st.integers(min_value=3, max_value=max_n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return CoxeterDiagram(n, frozenset(p for p, keep in zip(pairs, chosen) if keep))


@st.composite
def polys_with_repeated_roots(draw):
    """Products of small integer factors raised to powers 1..3."""
    factors = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(min_value=-4, max_value=4), min_size=2, max_size=4),
                st.integers(min_value=1, max_value=3),
            ),
            min_size=1,
            max_size=3,
        )
    )
    p = Poly((1,))
    for coeffs, k in factors:
        f = Poly(coeffs)
        if f.degree >= 1:
            p = p * f**k
    return p


@st.composite
def symmetric_matrices(draw, max_n=5, entry=st.fractions(min_value=-4, max_value=4, max_denominator=4)):
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(entry)
    return tuple(tuple(row) for row in rows)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(diagrams())
def test_pencil_minors_match_sympy_block_determinants(g):
    m = sp.Matrix(
        g.n,
        g.n,
        lambda i, j: 1 if i == j else (-X if g.adjacent(i + 1, j + 1) else 0),
    )
    expected = [_from_sympy(m[:k, :k].det(method="berkowitz")) for k in range(1, g.n + 1)]
    assert minor_polynomials(g) == tuple(expected)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
))
def test_minors_of_integer_matrices_match_sympy(rows):
    m = sp.Matrix(rows)
    expected = [int(m[:k, :k].det()) for k in range(1, len(rows) + 1)]
    ints = tuple(tuple(row) for row in rows)
    for a in (tuple(tuple(F(x) for x in row) for row in rows), ints):
        assert bareiss_det(a) == expected[-1]  # with row swaps where a pivot vanishes
        if 0 in expected[:-1]:
            with pytest.raises(ValueError):
                leading_principal_minors(a)
        else:
            assert leading_principal_minors(a) == expected
    # a plain int matrix keeps int entries: every Bareiss quotient is exact
    assert type(bareiss_det(ints)) is int
    if 0 not in expected[:-1]:
        assert all(type(x) is int for x in leading_principal_minors(ints))


def test_vanishing_leading_minor_raises():
    with pytest.raises(ValueError, match="leading minor 1 vanishes"):
        leading_principal_minors(((F(0), F(1)), (F(1), F(0))))
    with pytest.raises(ValueError, match="leading minor 2 vanishes"):
        leading_principal_minors(((F(1), F(1), F(0)), (F(1), F(1), F(0)), (F(0), F(0), F(1))))
    # the last minor may vanish: it is returned, not raised
    assert leading_principal_minors(((F(1), F(1)), (F(1), F(1)))) == [F(1), F(0)]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(polys_with_repeated_roots())
def test_isolation_matches_sympy_real_roots(p):
    intervals = isolate_real_roots(sturm_sequence(p))
    roots = [r for r, _mult in sp.real_roots(_to_sympy(p), multiple=False)]
    assert len(intervals) == len(roots)
    for prev, iv in zip(intervals, intervals[1:]):
        assert prev.hi <= iv.lo
    for iv in intervals:
        assert p(iv.lo) != 0 and p(iv.hi) != 0
        lo, hi = _rational(iv.lo), _rational(iv.hi)
        inside = [r for r in roots if bool(lo < r) and bool(r < hi)]
        assert len(inside) == 1, (iv, roots)


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=8)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(polys_with_repeated_roots(), rationals, rationals)
def test_root_counts_match_sympy_distinct_roots(p, a, b):
    assume(p.degree >= 1 and a < b and p(a) != 0 and p(b) != 0)
    roots = [r for r, _mult in sp.real_roots(_to_sympy(p), multiple=False)]
    lo, hi = _rational(a), _rational(b)
    chain = sturm_sequence(p)
    assert count_roots(chain) == len(roots)
    assert count_roots(chain, a, b) == sum(bool(lo < r) and bool(r < hi) for r in roots)
    assert count_roots(chain, a) == sum(bool(r > lo) for r in roots)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(polys_with_repeated_roots())
def test_refinement_needs_an_odd_multiplicity(p):
    roots = sp.real_roots(_to_sympy(p), multiple=False)
    for iv, (root, mult) in zip(isolate_real_roots(sturm_sequence(p)), roots):
        if mult % 2 == 0:
            with pytest.raises(ValueError, match="does not change sign"):
                refine_root_interval(p, iv, iv.width / 8)
            continue
        tight = refine_root_interval(p, iv, iv.width / 8)
        assert tight.width <= iv.width / 8
        assert bool(_rational(tight.lo) < root) and bool(root < _rational(tight.hi))


def _in_normal_form(p: Poly) -> bool:
    return all(type(c) is int for c in p.coeffs) and gcd(*p.coeffs) == 1 and p.leading > 0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(polys_with_repeated_roots(), polys_with_repeated_roots(), polys_with_repeated_roots())
def test_gcds_and_squarefree_parts_are_primitive_and_match_sympy(a, b, common):
    # integer polynomials with repeated factors, sharing the factors of `common`
    p, q = a * common, b * common
    sf, g = squarefree_part(p), poly_gcd(p, q)
    assert _in_normal_form(sf) and _in_normal_form(g), (sf, g)
    assert sf == _sympy_normal_form(sp.sqf_part(_to_sympy(p)).as_expr())
    assert g == _sympy_normal_form(sp.gcd(_to_sympy(p), _to_sympy(q)).as_expr())


@settings(max_examples=30, deadline=None, derandomize=True)
@given(symmetric_matrices())
def test_char_poly_and_signature_match_sympy(a):
    m = sp.Matrix([[_rational(x) for x in row] for row in a])
    cp = m.charpoly(X)
    assert char_poly(a) == _from_sympy(cp.as_expr())
    assert signature_of(a) == _sympy_inertia(a)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(symmetric_matrices(entry=st.integers(min_value=-4, max_value=4)))
def test_char_poly_and_signature_of_int_matrices_match_sympy(a):
    cp = char_poly(a)
    assert cp == _from_sympy(sp.Matrix(a).charpoly(X).as_expr())
    assert all(type(c) is int for c in cp.coeffs)  # every Faddeev-LeVerrier division is exact
    assert signature_of(a) == _sympy_inertia(a)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(diagrams())
@example(CoxeterDiagram(4, frozenset({(1, 2), (3, 4)})))
@example(cycle_complement(5))
def test_stable_signature_is_the_inertia_at_d(g):
    # includes disconnected, edgeless and singular-adjacency diagrams, where
    # det M_d has degree below n; the two examples give det M_d a double
    # positive root, which a count of distinct roots would miss
    at_d = evaluate_pencil(g, d_threshold(g)[0])
    sig = stable_signature(g)
    assert sig == signature_of(at_d)
    assert sig == _sympy_inertia(at_d)


# -- the integer threshold paths --------------------------------------------


def _mirror(p: Poly) -> Poly:
    return Poly(tuple(c if i % 2 == 0 else -c for i, c in enumerate(p.coeffs)))


def _first_interval_right_of_zero(p: Poly):
    """What gram._smallest_abs_root returned before it followed one root."""
    even = squarefree_part(p * _mirror(p))
    for iv in isolate_real_roots(sturm_sequence(even)):
        if iv.lo >= 0:
            while iv.lo == 0:
                iv = refine_root_interval(even, iv, iv.width / 4)
            return even, iv
    return None


def _check_follow_one(p: Poly):
    # the Sturm walk, valid for any p; the package's walk, valid for the
    # real-rooted minors only, is pinned to it in test_gram.py
    found = smallest_abs_root(p)
    assert found == _first_interval_right_of_zero(p)
    roots = [abs(r) for r, _mult in sp.real_roots(_to_sympy(p), multiple=False)]
    if found is None:
        assert not roots
    else:
        iv = found[1]
        assert bool(_rational(iv.lo) < min(roots)) and bool(min(roots) < _rational(iv.hi))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=2, max_size=7))
def test_follow_one_root_matches_full_isolation(coeffs):
    # p(0) != 0, as for the minors (constant term 1): p(d) p(-d) is even
    # with no root at 0, and its squarefree part is what gets isolated
    assume(coeffs[0] != 0 and Poly(coeffs).degree >= 1)
    _check_follow_one(Poly(coeffs))


def test_follow_one_root_on_every_suite_minor():
    for name, g in acceptance_suite():
        for p in minor_polynomials(g):
            if p.degree >= 1:
                _check_follow_one(p)


def _sturm_count(chain):
    """count_above(u, den) for root_intervals, by Sturm, valid for any p."""
    return lambda u, den: count_roots(chain, u, b=den)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(polys_with_repeated_roots(), rationals)
def test_root_intervals_above_is_a_suffix_of_isolation(p, above):
    assume(p.degree >= 1)
    chain = sturm_sequence(p)
    assert list(root_intervals(chain[0], _sturm_count(chain), above=above)) == [
        iv for iv in oracle.isolate_real_roots(chain) if iv.hi > above
    ]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(polys_with_repeated_roots(), st.sampled_from([None, 0]))
def test_integer_walks_match_the_fraction_walks_on_any_polynomial(p, above):
    # Sturm counts, so p need not be real-rooted or squarefree; refinement
    # runs on the squarefree part, where every root changes sign
    assume(p.degree >= 1 and (above is None or p(0) != 0))
    chain = sturm_sequence(p)
    got = list(root_intervals(chain[0], _sturm_count(chain), above))
    assert got == list(oracle.root_intervals(chain[0], partial(count_roots, chain), above))
    sf = squarefree_part(p)
    for iv in isolate_real_roots(sturm_sequence(sf)):
        for width in (iv.width / 8, F(1, 1000)):
            assert refine_root_interval(sf, iv, width) == oracle.refine_root_interval(sf, iv, width), (iv, width)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(st.integers(min_value=-10**6, max_value=10**6), min_size=1, max_size=9),
    st.integers(min_value=-10**4, max_value=10**4),
    st.integers(min_value=1, max_value=10**4),
)
def test_integer_horner_sign_matches_fraction_evaluation(coeffs, a, b):
    p = Poly(coeffs)
    x = F(a, b)
    assert _sign_at(p, x) == quad_sign(p(x))
    for member in sturm_sequence(p) if p.degree >= 1 else [p]:
        assert all(type(c) is int for c in member.coeffs)
        assert _sign_at(member, x) == quad_sign(member(x))


def test_rho_is_the_perron_root_of_det():
    # For a connected diagram det M_d = prod(1 - d lambda_i) has its smallest
    # positive root at 1/lambda_max(A) >= 1/|lambda_min(A)|, and every proper
    # leading block has a strictly smaller spectral radius (Perron-Frobenius),
    # so that root is rho.  Only containment is checked: the interval itself
    # is refined against every minor's candidate.
    for name, g in acceptance_suite():
        assert is_connected(g)
        rho = suite_thresholds(name, g).rho_interval
        det = minor_polynomials(g)[-1]
        root = min(r for r in sp.real_roots(_to_sympy(det)) if bool(r > 0))
        assert bool(_rational(rho.lo) <= root) and bool(root <= _rational(rho.hi)), name
