"""Exact arithmetic kernel: quadratic elements, polynomials, root counting."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxcert.errors import InputError, VerificationFailed
from coxcert.exactcore import (
    Poly,
    QuadElem,
    Signature,
    cauchy_root_bound,
    leading_principal_minors,
    quad_sign,
    refine_root_interval,
    squarefree_part,
)
from coxcert.exactcore.linalg import bareiss_det, char_poly, mat_mul, signature_of
from coxcert.exactcore import poly as poly_module
from coxcert.exactcore.poly import (
    _coprime_mod_p,
    count_roots,
    isolate_real_roots,
    poly_from_balanced_digits,
    poly_gcd,
    sturm_sequence,
)

from _relations_oracle import transpose

F = Fraction


# -- QuadElem ----------------------------------------------------------------


def test_quad_sign_pinned_cases():
    assert quad_sign(QuadElem(1, -1, 2)) == -1  # sqrt 2 > 1
    assert quad_sign(QuadElem(0, 0, 5)) == 0
    assert quad_sign(QuadElem(2, -1, 3)) == 1  # 4 > 3
    assert quad_sign(QuadElem(-3, 2, 2)) == -1  # 2 sqrt 2 = 2.83 < 3
    assert quad_sign(QuadElem(F(-7, 5), 1, 2)) == 1
    assert quad_sign(F(-3, 7)) == -1
    assert quad_sign(0) == 0


def test_quad_arithmetic_and_conjugate():
    u = QuadElem(1, 1, 2)
    assert u * u == QuadElem(3, 2, 2)
    assert u * u.conjugate() == QuadElem(-1, 0, 2)
    assert (u ** 3) == QuadElem(7, 5, 2)
    assert u - u == 0
    inv = 1 / u
    assert inv * u == 1
    assert u + F(1, 2) == QuadElem(F(3, 2), 1, 2)
    assert QuadElem(4, 0, 3) == 4


def test_quad_norm_and_integrality():
    u = QuadElem(3, 2, 2)
    assert u.norm() == 1
    assert u.is_integral()
    assert not QuadElem(F(1, 2), 0, 2).is_integral()


def test_mixed_radicands_rejected():
    with pytest.raises(VerificationFailed, match=r"^cannot combine sqrt\(2\) with sqrt\(3\)$"):
        QuadElem(1, 1, 2) + QuadElem(1, 1, 3)
    with pytest.raises(VerificationFailed, match=r"^cannot combine sqrt\(2\) with sqrt\(5\)$"):
        QuadElem(0, 1, 2) * QuadElem(0, 1, 5)
    # rational-valued elements do not combine across radicands either
    with pytest.raises(VerificationFailed, match=r"^cannot combine sqrt\(2\) with sqrt\(5\)$"):
        QuadElem(2, 0, 2) + QuadElem(3, 0, 5)
    # and elements of two fields compare unequal, even where both are rational
    assert QuadElem(2, 0, 2) != QuadElem(2, 0, 5)
    assert QuadElem(2, 0, 2) == 2 and QuadElem(2, 0, 5) == 2


def test_quad_rejects_non_squarefree_radicand():
    with pytest.raises(InputError, match=r"^radicand must be squarefree with 2 <= m <= 1000000, got 8$"):
        QuadElem(1, 1, 8)


def test_quad_ordering_against_floats():
    xs = [QuadElem(a, b, 3) for a in range(-2, 3) for b in range(-2, 3)]
    for x in xs:
        for y in xs:
            assert (quad_sign(x - y) < 0) == (float(x) < float(y))
            assert (x < y, x <= y, x > y) == (float(x) < float(y), float(x) <= float(y), float(x) > float(y))


def test_quad_orders_against_rationals_both_ways():
    half, root = F(1, 2), QuadElem(0, 1, 2)
    assert half < root and root > half and not root < half
    assert 1 < root < 2 and 2 > root > 1 and root >= 1 and root <= 2
    assert -1 <= QuadElem(-1, 0, 2) <= -1 and QuadElem(1, -1, 2) < 0 < QuadElem(-1, 1, 2)
    assert F(7, 5) < root < F(3, 2) and not F(3, 2) <= root
    with pytest.raises(VerificationFailed, match=r"^cannot combine sqrt\(2\) with sqrt\(3\)$"):
        QuadElem(0, 1, 2) < QuadElem(0, 1, 3)


def test_quad_does_not_order_against_floats():
    for compare in (lambda x: x < 1.5, lambda x: 1.5 < x, lambda x: x >= 0.5, lambda x: 0.5 >= x):
        with pytest.raises(TypeError):
            compare(QuadElem(1, 1, 2))


def test_quad_hash_consistent_with_fraction():
    assert hash(QuadElem(F(3, 4), 0, 7)) == hash(F(3, 4))
    assert QuadElem(F(3, 4), 0, 7) == F(3, 4)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.tuples(
        st.fractions(max_denominator=40),
        st.fractions(max_denominator=40),
        st.fractions(max_denominator=40),
        st.fractions(max_denominator=40),
    )
)
def test_quad_sign_multiplicative(coords):
    a, b, c, d = coords
    x = QuadElem(a, b, 2)
    y = QuadElem(c, d, 2)
    assert quad_sign(x) * quad_sign(y) == quad_sign(x * y)


# -- polynomials -------------------------------------------------------------


def test_poly_basic_arithmetic():
    p = Poly((1, 0, -2))  # 1 - 2d^2
    q = Poly((0, 1))  # d
    assert (p * q).coeffs == (F(0), F(1), F(0), F(-2))
    assert p(F(1, 2)) == F(1, 2)
    assert p(0) == 1
    assert (p - p).is_zero()
    assert p.derivative() == Poly((0, -4))


def test_poly_exact_division():
    p = Poly((-1, 0, 1))  # d^2 - 1
    q = Poly((1, 1))  # d + 1
    assert p / q == Poly((-1, 1))
    with pytest.raises(ValueError):
        Poly((1, 1, 1)) / q
    # the squarefree part divides out a repeated factor: (d + 1)^3 (d - 2)
    assert squarefree_part(q**3 * Poly((-2, 1))) == Poly((-2, -1, 1))


# -- integer representation ----------------------------------------------------

nonzero_int_polys = st.lists(st.integers(min_value=-60, max_value=60), min_size=1, max_size=8).map(
    Poly
).filter(lambda p: not p.is_zero())


def _canonical(p: Poly) -> bool:
    """Coefficients are ints when integral and non-integral Fractions otherwise."""
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in p.coeffs
    )


def test_integral_coefficients_are_ints():
    assert Poly((F(2), F(1, 2), F(-4, 2))).coeffs == (2, F(1, 2), -2)
    assert [type(c) for c in Poly((F(2), F(1, 2), F(-4, 2))).coeffs] == [int, Fraction, int]
    assert (Poly((1, 1)) * F(1, 2) * 2).coeffs == (1, 1)
    assert all(type(c) is int for c in (Poly((F(1, 2), F(1, 2))) * 2).coeffs)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(nonzero_int_polys, nonzero_int_polys, st.integers(min_value=-9, max_value=9).filter(bool))
def test_integer_poly_operations_stay_exact(p, q, k):
    # the ops a threshold computation runs: none may produce a float or an
    # integral Fraction, and division must reconstruct its input
    quot, rem = divmod(p, q)
    assert quot * q + rem == p
    assert rem.is_zero() or rem.degree < q.degree
    assert (p * q) / q == p
    assert (p / k) * k == p
    for r in (quot, rem, p / k, p.primitive(), p * q, p + q, p - q, p.derivative()):
        assert _canonical(r), r
    prim = p.primitive()
    assert all(type(c) is int for c in prim.coeffs)
    assert gcd(*prim.coeffs) == 1
    assert (prim.leading > 0) == (p.leading > 0)
    assert prim * p.leading == p * prim.leading  # a rescaling of p


@settings(max_examples=150, deadline=None, derandomize=True)
@given(nonzero_int_polys, st.integers(min_value=1, max_value=10**6))
def test_primitive_takes_the_same_part_on_ints_and_on_fractions(p, a):
    # All-int coefficients take the gcd-only path; scaled by a/b with b above
    # every |a c|, every nonzero coefficient is a Fraction and the lcm path runs.
    b = 2 * a * max(abs(c) for c in p.coeffs) + 1
    scaled = Poly([Fraction(a * c, b) for c in p.coeffs])
    assert all(type(c) is Fraction for c in scaled.coeffs if c)
    content = gcd(*p.coeffs)
    assert p.primitive() == scaled.primitive() == Poly([c // content for c in p.coeffs])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(min_value=2, max_value=70).flatmap(
    lambda bits: st.tuples(
        st.just(bits),
        st.lists(st.integers(min_value=-(1 << (bits - 1)), max_value=(1 << (bits - 1)) - 1), max_size=8),
    )
))
def test_balanced_digits_invert_evaluation_at_a_power_of_two(case):
    bits, coeffs = case
    p = Poly(coeffs)
    assert poly_from_balanced_digits(p(1 << bits), bits) == p
    assert all(type(c) is int for c in poly_from_balanced_digits(p(1 << bits), bits).coeffs)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(nonzero_int_polys)
def test_cauchy_root_bound_is_an_exact_fraction(p):
    numerator, denominator = cauchy_root_bound(p)
    assert type(numerator) is int and type(denominator) is int  # biggest / lead on ints would be a float
    bound = F(numerator, denominator)
    if p.degree == 0:
        assert bound == 1
        return
    biggest = max(abs(c) for c in p.coeffs[:-1])
    assert bound == 1 + F(biggest, abs(p.leading))
    chain = sturm_sequence(p)
    assert count_roots(chain, -bound, bound) == count_roots(chain)


def test_sturm_pinned_counts():
    assert count_roots(sturm_sequence(Poly((-2, 0, 1))), F(0), F(2)) == 1
    assert count_roots(sturm_sequence(Poly((1, 0, -3, -2)))) == 2  # (1-2d)(1+d)^2
    assert count_roots(sturm_sequence(Poly((1, 0, 1)))) == 0
    with pytest.raises(VerificationFailed, match=r"^Sturm chain of the zero polynomial$"):
        sturm_sequence(Poly(()))
    with pytest.raises(VerificationFailed, match=r"^endpoint 2/1 is a root$"):
        count_roots(sturm_sequence(Poly((-4, 0, 1))), F(0), F(2))


def test_isolate_real_roots_pinned():
    p = Poly((-2, 0, 1))  # d^2 - 2
    roots = isolate_real_roots(sturm_sequence(p))
    assert len(roots) == 2
    neg = refine_root_interval(p, roots[0], F(1, 100))
    pos = refine_root_interval(p, roots[1], F(1, 100))
    assert F(-2) < neg.lo and neg.hi < F(-1)
    assert F(1) < pos.lo and pos.hi < F(2)
    assert pos.lo ** 2 < 2 < pos.hi ** 2

    roots = isolate_real_roots(sturm_sequence(Poly((1, 0, -3, -2))))  # (1-2d)(1+d)^2
    assert len(roots) == 2  # one interval per distinct root
    assert roots[0].lo < -1 < roots[0].hi
    assert roots[1].lo < F(1, 2) < roots[1].hi

    roots = isolate_real_roots(sturm_sequence(Poly((-3, 1))))  # d - 3
    assert len(roots) == 1
    assert roots[0].lo < F(3) < roots[0].hi


def test_refine_root_interval_narrows():
    p = Poly((-2, 0, 1))
    iv = isolate_real_roots(sturm_sequence(p))[1]
    tight = refine_root_interval(p, iv, F(1, 10**6))
    assert tight.width <= F(1, 10**6)
    assert tight.lo ** 2 < 2 < tight.hi ** 2


def test_refine_keeps_exact_rational_root_interior():
    p = Poly((-1, 2))  # root exactly 1/2
    [iv] = isolate_real_roots(sturm_sequence(p))
    tight = refine_root_interval(p, iv, F(1, 1000))
    assert tight.lo < F(1, 2) < tight.hi
    assert tight.width <= F(1, 1000)


# -- the gcd screen modulo 2^61 - 1 ---------------------------------------------

SCREEN_PRIME = (1 << 61) - 1


def _euclid_gcd(f: Poly, g: Poly) -> Poly:
    """poly_gcd with the modular screen off: the Euclidean algorithm alone."""
    with patch.object(poly_module, "_coprime_mod_p", lambda f, g: False):
        return poly_gcd(f, g)


def test_gcd_screen_pinned_cases():
    x = Poly((0, 1))
    shared = SCREEN_PRIME * x + 1  # vanishes to the constant 1 modulo p
    # p divides a leading coefficient: the reductions x + 1 and x + 2 are
    # coprime although f and g share p x + 1, so the screen must not decide
    f, g = shared * (x + 1), shared * (x + 2)
    assert not _coprime_mod_p(f, g) and not _coprime_mod_p(g, f)
    assert poly_gcd(f, g) == shared
    assert _coprime_mod_p(x + 1, x + 2) and poly_gcd(x + 1, x + 2) == Poly((1,))
    assert not _coprime_mod_p((x + 1) * (x + 3), (x + 1) * (x + 2))
    # coprime over Z, equal modulo p: no verdict, and Euclid finds gcd 1
    assert not _coprime_mod_p(x + 1 + SCREEN_PRIME, x + 1)
    assert poly_gcd(x + 1 + SCREEN_PRIME, x + 1) == Poly((1,))
    assert _coprime_mod_p(Poly((3,)), Poly((6,))) and poly_gcd(Poly((3,)), Poly((6,))) == Poly((1,))
    assert not _coprime_mod_p(Poly(()), x) and poly_gcd(Poly(()), 2 * x) == x
    assert not _coprime_mod_p(Poly((F(1, 2), 1)), x)  # Fraction coefficients go to Euclid


@settings(max_examples=200, deadline=None, derandomize=True)
@given(nonzero_int_polys, nonzero_int_polys, nonzero_int_polys, st.sampled_from(["coprime?", "shared", "p | lead"]))
def test_gcd_screen_matches_euclid(a, b, common, kind):
    # random pairs, pairs sharing a factor, and pairs whose leading coefficient p divides
    f, g = (a, b) if kind == "coprime?" else (a * common, b * common)
    if kind == "p | lead":
        f = f + Poly((0,) * len(f.coeffs) + (SCREEN_PRIME * (common.degree + 1),))
    verdict, expected = _coprime_mod_p(f, g), _euclid_gcd(f, g)
    if verdict:
        assert expected == Poly((1,)), (f, g)
    if kind == "p | lead":
        assert not verdict and not _coprime_mod_p(g, f), (f, g)
    if kind == "shared" and common.degree >= 1:
        assert not verdict, (f, g)
    assert poly_gcd(f, g) == expected


def test_gcd_screen_settles_coprime_integer_pairs():
    # the screen is not idle: on coprime pairs from Z[x] without p in a
    # leading coefficient it decides every one
    rng = random.Random(61)
    decided = 0
    for _ in range(200):
        f = Poly([rng.randrange(-10**30, 10**30) for _ in range(rng.randrange(2, 12))])
        g = Poly([rng.randrange(-10**30, 10**30) for _ in range(rng.randrange(2, 12))])
        if _euclid_gcd(f, g) == Poly((1,)):
            decided += _coprime_mod_p(f, g)
            assert poly_gcd(f, g) == Poly((1,))
        else:
            decided += 1
    assert decided == 200


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=2, max_size=9))
def test_sturm_whole_line_matches_isolation(coeffs):
    p = Poly(coeffs)
    if p.is_zero() or p.degree == 0:
        return
    chain = sturm_sequence(p)
    assert count_roots(chain) == len(isolate_real_roots(chain))


# -- matrices ----------------------------------------------------------------


def test_char_poly_pinned():
    ident2 = ((F(1), F(0)), (F(0), F(1)))
    assert char_poly(ident2) == Poly((1, -2, 1))
    m = ((F(1), F(-1)), (F(-1), F(1)))
    assert char_poly(m) == Poly((0, -2, 1))
    k3_at_1 = (
        (F(1), F(-1), F(-1)),
        (F(-1), F(1), F(-1)),
        (F(-1), F(-1), F(1)),
    )
    assert char_poly(k3_at_1) == Poly((4, 0, -3, 1))


def test_char_poly_constant_term_is_det():
    m = (
        (F(2), F(1), F(0)),
        (F(1), F(-1), F(3)),
        (F(0), F(3), F(1)),
    )
    n = len(m)
    assert char_poly(m)(0) == (-1) ** n * bareiss_det(m)


def test_signature_pinned():
    assert signature_of(tuple(tuple(F(int(i == j)) for j in range(3)) for i in range(3))) == Signature(3, 0, 0)
    assert signature_of(((F(1), F(0), F(0)), (F(0), F(0), F(0)), (F(0), F(0), F(-1)))) == Signature(1, 1, 1)
    k3_at_1 = (
        (F(1), F(-1), F(-1)),
        (F(-1), F(1), F(-1)),
        (F(-1), F(-1), F(1)),
    )
    assert signature_of(k3_at_1) == Signature(2, 1, 0)
    # repeated and zero eigenvalues, counted with multiplicity
    diag = tuple(tuple(F(d * (i == j)) for j in range(5)) for i, d in enumerate((2, 2, 0, 0, -1)))
    assert signature_of(diag) == Signature(2, 1, 2)


def test_signature_components_sum_to_n():
    mats = [
        ((F(0), F(1)), (F(1), F(0))),
        ((F(2), F(2)), (F(2), F(2))),
        ((F(-1), F(0), F(0)), (F(0), F(0), F(0)), (F(0), F(0), F(5))),
    ]
    for m in mats:
        sig = signature_of(m)
        assert sig.p + sig.q + sig.z == len(m)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10**6))
def test_sylvester_inertia_invariance(seed):
    import random

    rng = random.Random(seed)
    n = rng.randrange(2, 5)
    m = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = F(rng.randrange(-4, 5))
    mat = tuple(tuple(row) for row in m)
    while True:
        gmat = tuple(
            tuple(F(rng.randrange(-3, 4)) for _ in range(n)) for _ in range(n)
        )
        if bareiss_det(gmat) != 0:
            break
    congruent = mat_mul(mat_mul(transpose(gmat), mat), gmat)
    assert signature_of(congruent) == signature_of(mat)


def test_leading_principal_minors_pinned():
    m = (
        (F(2), F(1)),
        (F(1), F(3)),
    )
    assert leading_principal_minors(m) == [F(2), F(5)]


def test_bareiss_keeps_int_matrices_in_int():
    minors = leading_principal_minors(((2, 1), (1, 3)))
    assert minors == [2, 5] and all(type(x) is int for x in minors)
    det = bareiss_det(((2, 1, 0), (1, 3, 1), (0, 1, 4)))
    assert det == 18 and type(det) is int


def test_char_poly_keeps_int_matrices_in_int():
    a = ((2, 1), (1, 3))
    cp = char_poly(a)
    assert cp.coeffs == (5, -5, 1) and all(type(c) is int for c in cp.coeffs)
    assert signature_of(a) == Signature(2, 0, 0)


def test_count_roots_on_half_lines():
    chain = sturm_sequence(Poly((-2, 0, 1)))  # roots +-sqrt2
    assert count_roots(chain, F(0)) == 1
    assert count_roots(chain, F(-2)) == 2
    assert count_roots(chain, F(2)) == 0
    assert count_roots(chain, None, F(0)) == 1
