"""Pell units of Z[sqrt(m)] and the Galois-conjugate bound.

The fundamental solution of x^2 - m*y^2 = +-1 comes from the continued
fraction of sqrt(m): with period length L, the convergent h_{L-1}/k_{L-1}
gives (x, y) and the norm is (-1)^L.  choose_unit takes the smallest power
alpha = (x + y*sqrt(m))^k that clears a rational bound; galois_pair_check
then certifies exactly that alpha * tau(alpha) = +-1 and |tau(alpha)| <=
epsilon, the inequality that makes the conjugate form positive-definite.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import NamedTuple

from .errors import InputError, VerificationFailed
from .exactcore import QuadElem
from .exactcore.quadratic import RADICAND_LIMIT, is_squarefree

_MAX_CF_PERIOD = 10**7
_MAX_UNIT_POWER = 10**6


class PellSolution(NamedTuple):
    """Fundamental solution of x^2 - m*y^2 = norm, norm in {+1, -1}."""

    m: int
    x: int
    y: int
    norm: int

    def unit(self) -> QuadElem:
        return QuadElem(self.x, self.y, self.m)


class UnitValue(NamedTuple):
    """alpha = base^k, the smallest power of the fundamental unit >= bound."""

    base: PellSolution
    k: int
    value: QuadElem


def fundamental_pell(m: int) -> PellSolution:
    """Continued-fraction solution of the Pell equation for squarefree m >= 2."""
    if not isinstance(m, int) or m < 2 or m > RADICAND_LIMIT or not is_squarefree(m):
        raise InputError(f"need squarefree 2 <= m <= {RADICAND_LIMIT}, got {m}")
    a0 = isqrt(m)
    # Convergents h/k of sqrt(m) = [a0; a1, a2, ...].
    h_prev, h_cur = 1, a0
    k_prev, k_cur = 0, 1
    p, q = 0, 1
    a = a0
    period = 0
    while period < _MAX_CF_PERIOD:
        p = a * q - p
        q = (m - p * p) // q
        a = (a0 + p) // q
        period += 1
        if q == 1:
            break
        h_prev, h_cur = h_cur, a * h_cur + h_prev
        k_prev, k_cur = k_cur, a * k_cur + k_prev
    else:
        raise VerificationFailed(f"continued fraction of sqrt({m}) did not close")
    x, y = h_cur, k_cur
    norm = -1 if period % 2 == 1 else 1
    if x * x - m * y * y != norm:
        raise VerificationFailed(f"Pell self-check failed for m = {m}")
    return PellSolution(m, x, y, norm)


def choose_unit(m: int, bound) -> UnitValue:
    """Smallest k >= 1 with (fundamental unit)^k >= bound, decided exactly."""
    bound = Fraction(bound)
    pell = fundamental_pell(m)
    base = pell.unit()
    value = base
    k = 1
    while value < bound:
        value = value * base
        k += 1
        if k > _MAX_UNIT_POWER:
            raise VerificationFailed(f"unit power search exceeded {_MAX_UNIT_POWER}")
    return UnitValue(pell, k, value)


class GaloisReport(NamedTuple):
    """Verdicts of the conjugate-bound check."""

    tau: QuadElem
    product: Fraction
    product_is_unit: bool
    conj_bounded: bool


def galois_pair_check(u: UnitValue, epsilon) -> GaloisReport:
    """Certify alpha * tau(alpha) = +-1 and |tau(alpha)| <= epsilon.

    Since alpha >= 1/epsilon forces |tau(alpha)| = 1/alpha <= epsilon, a
    failed inequality means alpha lies below 1/epsilon; that is reported as
    VerificationFailed.
    """
    epsilon = Fraction(epsilon)
    alpha = u.value
    tau = alpha.conjugate()
    product = alpha * tau
    product_is_unit = product in (1, -1)
    if not product_is_unit:
        raise VerificationFailed(f"alpha * tau(alpha) = {product} is not a unit")
    conj_bounded = abs(tau) <= epsilon
    if not conj_bounded:
        raise VerificationFailed(f"|tau(alpha)| exceeds epsilon = {epsilon}: alpha lies below 1/epsilon")
    return GaloisReport(tau, product.a, product_is_unit, conj_bounded)
