"""Pell solutions, unit selection, and the Galois conjugate bound."""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

import pytest

from coxcert import QuadElem, choose_unit, fundamental_pell, galois_pair_check, quad_sign
from coxcert.errors import InputError, VerificationFailed

F = Fraction


def _brute_force_pell(m: int, y_cap: int = 10**6):
    """Smallest y with x^2 - m y^2 = +-1; the independent oracle."""
    for y in range(1, y_cap + 1):
        for norm in (-1, 1):
            x2 = m * y * y + norm
            x = isqrt(x2)
            if x * x == x2:
                return x, y, norm
    raise AssertionError(f"no Pell solution for m={m} with y <= {y_cap}")


def _squarefree(m: int) -> bool:
    k = 2
    while k * k <= m:
        if m % (k * k) == 0:
            return False
        k += 1
    return True


def test_fundamental_pell_pinned():
    assert (lambda p: (p.x, p.y, p.norm))(fundamental_pell(2)) == (1, 1, -1)
    assert (lambda p: (p.x, p.y, p.norm))(fundamental_pell(3)) == (2, 1, 1)
    assert (lambda p: (p.x, p.y, p.norm))(fundamental_pell(13)) == (18, 5, -1)
    assert (lambda p: (p.x, p.y, p.norm))(fundamental_pell(5)) == (2, 1, -1)


def test_fundamental_pell_matches_brute_force_small():
    for m in range(2, 51):
        if not _squarefree(m):
            continue
        p = fundamental_pell(m)
        assert (p.x, p.y, p.norm) == _brute_force_pell(m)
        assert p.x * p.x - m * p.y * p.y == p.norm


def test_fundamental_pell_rejects_bad_radicand():
    for m in (4, 18, 1):
        with pytest.raises(InputError, match=rf"^need squarefree 2 <= m <= 1000000, got {m}$"):
            fundamental_pell(m)


def test_unit_has_unit_norm():
    for m in (2, 3, 5, 7, 11):
        u = fundamental_pell(m).unit()
        assert u.norm() in (1, -1)
        assert quad_sign(u - 1) > 0  # fundamental unit exceeds 1


def test_choose_unit_pinned():
    u = choose_unit(2, F(21, 10))
    assert u.value == QuadElem(1, 1, 2) and u.k == 1
    u = choose_unit(2, 3)
    assert u.value == QuadElem(3, 2, 2) and u.k == 2
    u = choose_unit(3, 1)
    assert u.value == QuadElem(2, 1, 3) and u.k == 1


def test_choose_unit_minimality():
    # the chosen power clears the bound, the previous power does not
    for m in (2, 3, 5):
        base = fundamental_pell(m).unit()
        for bound in (F(3, 2), F(7), F(100), F(12345, 7)):
            u = choose_unit(m, bound)
            assert quad_sign(u.value - bound) >= 0
            assert u.value == base ** u.k
            if u.k > 1:
                assert quad_sign(base ** (u.k - 1) - bound) < 0


def test_galois_pair_check_passes():
    u = choose_unit(2, 3)  # alpha = 3 + 2 sqrt2
    rep = galois_pair_check(u, F(1, 2))
    assert rep.product_is_unit and rep.conj_bounded
    assert rep.product in (1, -1)
    assert rep.tau == QuadElem(3, -2, 2)
    # |tau| = 3 - 2 sqrt2 = 0.17 <= 1/2
    assert quad_sign(abs(rep.tau) - F(1, 2)) <= 0


def test_galois_pair_check_rejects_small_bound():
    # alpha = 1 + sqrt2 has |tau| = sqrt2 - 1 = 0.414 > 1/100
    u = choose_unit(2, F(21, 10))
    below = r"^\|tau\(alpha\)\| exceeds epsilon = 1/100: alpha lies below 1/epsilon$"
    with pytest.raises(VerificationFailed, match=below):
        galois_pair_check(u, F(1, 100))


def test_galois_products_alternate_sign():
    # norm -1 units: product of alpha * tau(alpha) is (-1)^k
    for k in (1, 2, 3):
        base = fundamental_pell(2)
        alpha = base.unit() ** k
        prod = alpha * alpha.conjugate()
        assert prod == (-1) ** k
