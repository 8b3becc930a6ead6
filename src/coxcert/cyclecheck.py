"""Closed-form spectral checks for the cycle-complement family.

For the diagram on n vertices whose free pairs are exactly the consecutive
pairs of an n-cycle, the pencil matrix is circulant:

    M_d = (1 + d) I + d (J + J^{n-1}) - d (J^0 + J^1 + ... + J^{n-1})

with J the cyclic shift.  Its eigenvalues are therefore explicit:

    1 - d (n - 3)                   once (frequency 0),
    1 + d (1 + 2 cos(2 pi k / n))   for k = 1..n-1 (k and n-k agree).

verify_cycle_example certifies three things for the diagram and threshold
D its caller holds: the circulant identity of that diagram's pencil, in
1..n vertex order, as an exact polynomial-matrix identity (a cycle
complement relabelled out of cyclic order fails it), the stable signature
(2 floor(n/3), n - 2 floor(n/3), 0), and the spectrum at t = D + 1, the
first integer past the threshold, as an exact identity of characteristic
polynomials
(see predicted_char_poly; the observed side is read off the cached det M_d
by gram.pencil_char_poly).  No verdict reads a float.  spectrum_deviation
reports, for `coxcert cycle` alone, how far the roots of the real-rooted
characteristic polynomial, isolated on its squarefree part and refined to
width 1e-12, lie from the closed-form eigenvalues as floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .diagram import CoxeterDiagram
from .exactcore import (
    Poly,
    Signature,
    refine_root_interval,
    root_intervals,
    squarefree_part,
)
from .gram import pencil_at, pencil_char_poly, stable_signature

_REFINE_WIDTH = Fraction(1, 10**12)


def _special_eigenvalue(n: int, t):
    """1 - t(n - 3), the frequency-0 eigenvalue of M_t; an int for an integer t."""
    return 1 - t * (n - 3)


def circulant_identity_ok(g: CoxeterDiagram) -> bool:
    """Check g's M_d == (1+d) I + d (J + J^{n-1}) - d * (all-ones) in Q[d] by one evaluation at d = 2^64.

    Both sides' entries are affine in d with integer coefficients of magnitude at most 2, so an entry
    of the difference is a + b d with |a|, |b| <= 4, and a + b 2^64 = 0 forces a = b = 0."""
    n = g.n
    m_big = pencil_at(g, big := 1 << 64)
    return all(
        m_big[i][j] == (1 + big) * (i == j) + big * ((i - j) % n in (1, n - 1)) - big
        for i in range(n)
        for j in range(n)
    )


class CycleReport(NamedTuple):
    """Everything verified for one member of the cycle-complement family."""

    t_checked: int
    identity_ok: bool
    signature: Signature
    expected_signature: Signature
    signature_ok: bool
    special_eigenvalue: int
    special_is_root: bool
    spectrum_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.identity_ok
            and self.signature_ok
            and self.special_is_root
            and self.spectrum_ok
        )


def predicted_char_poly(n: int, t) -> Poly:
    """(x - (1 - t(n-3))) * t^(n-1) * P((x-1-t)/t) for a rational t.

    P(y) = (C_n(y) - 2)/(y - 2) with C_0 = 2, C_1 = y, C_{k+1} = y C_k - C_{k-1},
    so C_n(2 cos a) = 2 cos(n a) and P has the roots 2 cos(2 pi k / n),
    k = 1..n-1: this is the characteristic polynomial of M_t that the
    closed-form spectrum predicts.  P has degree n-1 and integer
    coefficients c_k, and t^(n-1) P((x-1-t)/t) = sum_k c_k (x-1-t)^k t^(n-1-k)
    is evaluated by Horner in x-1-t, so an integer t keeps it in Z[x].
    """
    y = Poly((0, 1))
    prev, cheb = Poly((2,)), y
    for _ in range(n - 1):
        prev, cheb = cheb, y * cheb - prev
    shift = Poly((-1 - t, 1))
    acc, power = Poly(), 1
    for c in reversed(((cheb - 2) / (y - 2)).coeffs):
        acc = acc * shift + c * power
        power *= t
    return Poly((-_special_eigenvalue(n, t), 1)) * acc


def verify_cycle_example(g: CoxeterDiagram, d_value: int) -> CycleReport:
    """Run the full battery for g, whose threshold is d_value; see the module docstring."""
    n = g.n
    t = d_value + 1

    identity_ok = circulant_identity_ok(g)

    signature = stable_signature(g)
    third = 2 * (n // 3)
    expected = Signature(third, n - third, 0)
    signature_ok = signature == expected

    special = _special_eigenvalue(n, t)
    cp = pencil_char_poly(g, t)
    special_is_root = cp(special) == 0
    spectrum_ok = cp == predicted_char_poly(n, t)

    return CycleReport(
        t_checked=t,
        identity_ok=identity_ok,
        signature=signature,
        expected_signature=expected,
        signature_ok=signature_ok,
        special_eigenvalue=special,
        special_is_root=special_is_root,
        spectrum_ok=spectrum_ok,
    )


def _observed_roots(cp: Poly) -> list:
    """The distinct real roots of cp, a real-rooted characteristic polynomial, as floats, ascending."""
    sf = squarefree_part(cp)
    return [float(refine_root_interval(sf, iv, _REFINE_WIDTH).mid) for iv in root_intervals(sf)]


def spectrum_deviation(g: CoxeterDiagram, t) -> tuple[tuple, float]:
    """(pairs, max deviation): the closed-form eigenvalues of the n-vertex cycle complement's M_t, ascending,
    each paired as (predicted float, observed float, multiplicity) with a refined root of g's det(x I - M_t).

    The predicted values are _special_eigenvalue, once, and 1 + t + 2t cos(2 pi k / n) for k = 1..floor(n/2),
    twice but once at k = n/2.  They are distinct for n >= 5, as are the observed roots; when their counts
    differ, no pair is made and the deviation reads 0.
    """
    n = g.n
    observed = _observed_roots(pencil_char_poly(g, t))
    t = Fraction(t)
    predicted = sorted(
        [(float(_special_eigenvalue(n, t)), 1)]
        + [
            (float(1 + t) + float(2 * t) * math.cos(2.0 * math.pi * k / n), 1 if 2 * k == n else 2)
            for k in range(1, n // 2 + 1)
        ]
    )
    if len(predicted) != len(observed):
        return (), 0.0
    pairs = tuple((pv, ov, pm) for (pv, pm), ov in zip(predicted, observed))
    return pairs, max(abs(pv - ov) for pv, ov, _pm in pairs)
