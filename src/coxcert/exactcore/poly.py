"""Dense univariate polynomials over Q, with real-root tools.

Coefficients are exact rationals, kept as Python ints whenever they are
integral and as Fractions only otherwise; no operation ever yields a float.
Every polynomial the package computes with lies in Z[x]: gcds and
squarefree parts come back primitive with a positive leading coefficient,
and an integer polynomial divided exactly by a primitive one has an
integer quotient (Gauss's lemma).  A polynomial can be evaluated at any
exact point that supports ring operations (int, Fraction, QuadElem, Poly).
On top of the arithmetic this module provides squarefree parts, the
Budan-Fourier count of the roots above a point (roots_above) for a
real-rooted squarefree polynomial, which every polynomial the package
isolates is, Descartes' count of the positive roots by coefficient sign
changes (_sign_changes), exact for a real-rooted polynomial, from which
linalg and gram read inertia as a Signature, and one bisection walk on
integer numerators over a shared denominator, with counts from a callback
at (u, den) and signs on the walked polynomial itself: root_intervals
isolates the distinct real roots and refine_root_interval narrows one
interval, midpoints the rational root theorem rules out are not
evaluated, and only the intervals the walks return are Fractions.
Isolation keeps every root strictly inside its interval and every
endpoint off the root set, which the thresholds rely on.
Sturm chains (sturm_sequence, count_roots, isolate_real_roots), which need
neither, are kept only as the tests' oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial, reduce
from math import gcd as int_gcd
from typing import Iterator, NamedTuple

from ..errors import EndpointIsRoot, VerificationFailed, ZeroPolynomial


def _lcm(a: int, b: int) -> int:
    return a // int_gcd(a, b) * b


def _exact_div(c, s):
    """c / s for rationals c and s: an int when s divides c, else a Fraction."""
    if c.__class__ is int and s.__class__ is int and not c % s:
        return c // s
    return Fraction(c) / s


class Poly:
    """Polynomial as an ascending coefficient tuple (zero poly is empty)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [
            c.numerator if c.__class__ is Fraction and c.denominator == 1 else c for c in coeffs
        ]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- structure ----------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    @property
    def leading(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self.coeffs
            return len(self.coeffs) == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{i}")
        return "Poly(" + " + ".join(terms) + ")"

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs, i):
                out[j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        result = Poly((1,))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __divmod__(self, other: "Poly"):
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd = other.degree
        lead = other.coeffs[-1]
        if len(rem) <= dd:
            return Poly(), self
        quot = [0] * (len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            q = _exact_div(c, lead)
            quot[i - dd] = q
            for j, oc in enumerate(other.coeffs):
                rem[i - dd + j] = rem[i - dd + j] - q * oc
        return Poly(quot), Poly(rem)

    def __truediv__(self, other):
        """Exact division; raises if the remainder is nonzero."""
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("polynomial division by zero")
            return Poly(tuple(_exact_div(c, other) for c in self.coeffs))
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    # -- calculus and evaluation ---------------------------------------------

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def __call__(self, t):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    # -- normal forms ---------------------------------------------------------

    def primitive(self) -> "Poly":
        """Rescale by a positive rational to coprime integer coefficients.

        Preserves the sign pattern and root set exactly; used to keep Sturm
        remainder chains from ballooning and to take signs in integers.  With
        every coefficient an int, only the gcd of the coefficients is taken;
        otherwise some coefficient is a Fraction and the lcm of the
        denominators is taken too.
        """
        if not self.coeffs:
            return self
        if all(c.__class__ is int for c in self.coeffs):
            numer = int_gcd(*self.coeffs)
            return self if numer == 1 else Poly(tuple(c // numer for c in self.coeffs))
        denom = reduce(_lcm, (c.denominator for c in self.coeffs), 1)
        numer = reduce(int_gcd, (c.numerator for c in self.coeffs), 0)
        return Poly(tuple(c.numerator * (denom // c.denominator) // numer for c in self.coeffs))


def poly_from_balanced_digits(value: int, bits: int) -> Poly:
    """Undo Kronecker substitution: the p in Z[x] with p(2^bits) = value whose
    coefficients, value's balanced base-2^bits digits, lie in [-2^(bits-1), 2^(bits-1))."""
    half, coeffs = 1 << (bits - 1), []
    while value:
        coeffs.append(((value + half) & ((1 << bits) - 1)) - half)
        value = (value - coeffs[-1]) >> bits
    return Poly(coeffs)


def _positive_remainder(a: Poly, b: Poly) -> Poly:
    """|lead(b)|^k * (a mod b) for some k >= 0, by pseudo-division.

    Each step scales the running remainder by |lead(b)| before cancelling
    its top term, so the quotient digits need no division and integer
    inputs stay integer; the positive factor keeps every sign, and the
    primitive part is that of a mod b.
    """
    rem = list(a.coeffs)
    bc = b.coeffs
    dd = len(bc) - 1
    lead = bc[-1]
    scale = abs(lead)
    sign = 1 if lead > 0 else -1
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem.pop()
        if c == 0:
            continue
        if scale != 1:
            rem = [x * scale for x in rem]
        q = sign * c
        for j, bj in enumerate(bc[:-1], i - dd):
            rem[j] -= q * bj
    return Poly(rem)


def _normal_form(p: Poly) -> Poly:
    """The primitive integer multiple of a nonzero p with a positive leading coefficient."""
    p = p.primitive()
    return -p if p.coeffs[-1] < 0 else p


def _coprime_mod_p(f: Poly, g: Poly) -> bool:
    """True proves gcd(f, g) = 1 in Z[x]; False gives no verdict.  When the prime p = 2^61 - 1
    divides neither leading coefficient, gcd(f, g) keeps its degree mod p and divides both reductions."""
    p = (1 << 61) - 1
    a, b = [c % p for c in f.coeffs], [c % p for c in g.coeffs]
    if not (a and b and a[-1] and b[-1] and all(c.__class__ is int for c in a + b)):
        return False
    while b:
        inverse = pow(b[-1], -1, p)
        while len(a) >= len(b):
            top, shift = a[-1] * inverse % p, len(a) - len(b)
            a[shift:] = [(x - top * y) % p for x, y in zip(a[shift:], b)]
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Gcd, primitive with a positive leading coefficient: 1 when _coprime_mod_p says so, else by Euclid."""
    if _coprime_mod_p(f, g):
        return Poly((1,))
    a, b = f, g
    while not b.is_zero():
        a, b = b, _positive_remainder(a, b).primitive()
    return a if a.is_zero() else _normal_form(a)


def squarefree_part(p: Poly) -> Poly:
    """p divided by gcd(p, p'), primitive with a positive leading coefficient."""
    if p.is_zero():
        raise ZeroPolynomial("squarefree part of the zero polynomial")
    return _normal_form(p / poly_gcd(p, p.derivative()))


# -- intervals ----------------------------------------------------------------


class Interval:
    """Closed rational interval [lo, hi]."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = lo if lo.__class__ is Fraction else Fraction(lo)
        hi = hi if hi.__class__ is Fraction else Fraction(hi)
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __setattr__(self, name, value):
        raise AttributeError("Interval is immutable")

    def __eq__(self, other):
        if other.__class__ is not Interval:
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"Interval(lo={self.lo!r}, hi={self.hi!r})"

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __str__(self):
        return f"[{self.lo}, {self.hi}]"


# -- real-root counting ---------------------------------------------------------


def _sign_at(p: Poly, x, b: int = 1) -> int:
    """Exact sign of p(x/b), x rational and b > 0 an int, from homogenized Horner at
    x/b = a/b': b'^deg p(a/b') = sum c_i a^i b'^(deg - i), in integers for an integer p (c_0 alone at a = 0)."""
    a, b, acc, power = x.numerator, x.denominator * b, 0, 1
    for c in reversed(p.coeffs) if a else p.coeffs[:1]:
        acc = acc * a + c * power
        power *= b
    return (acc > 0) - (acc < 0)


def roots_above(f: Poly, x, b: int = 1) -> int:
    """Roots of a real-rooted squarefree f above x/b, x rational, b > 0 an int (Budan-Fourier).

    The sign variations of f(x), f'(x), f''(x), ..., zeros skipped, exceed
    that count by an even number, which is 0 for a real-rooted f (Basu,
    Pollack and Roy, Algorithms in Real Algebraic Geometry, ch. 2).
    Squarefree makes every derivative real-rooted with simple roots, so
    where one vanishes its neighbours have opposite signs (Laguerre) and
    skipping it keeps the count exact, at a root of f too.  For the point a/b,
    coprime or not, the Taylor shift of h(y) = b^deg f(y/b) by a has j-th
    coefficient b^(deg - j) f^(j)(a/b) / j!, in integers when f's are; the
    shift runs as repeated synthetic division on the descending coefficients.
    """
    a, b, taylor, power = x.numerator, x.denominator * b, [], 1
    for c in reversed(f.coeffs):
        taylor.append(c * power)
        power *= b
    n = len(taylor) - 1
    for i in range(n if a else 0):
        acc = taylor[0]
        for j in range(1, n + 1 - i):
            taylor[j] = acc = taylor[j] + a * acc
    return _sign_changes(taylor)


def _sign_changes(values) -> int:
    """Sign changes along a sequence of numbers, zeros skipped.

    On a polynomial's coefficients this is Descartes' bound on its positive
    roots counted with multiplicity, which is exact for a real-rooted one.
    """
    signs = [v > 0 for v in values if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))


class Signature(NamedTuple):
    """Inertia triple: positive, negative, and zero eigenvalue counts."""

    p: int
    q: int
    z: int = 0

    @property
    def n(self) -> int:
        return self.p + self.q + self.z

    def __str__(self):
        return f"({self.p}, {self.q}, {self.z})"


# -- Sturm chains, the tests' oracle for roots_above ----------------------------


def sturm_sequence(f: Poly) -> list[Poly]:
    """Sturm chain f, f', -rem, ... (primitive-rescaled, so in Z[x]).  For a
    non-squarefree f it ends in gcd(f, f'), which divides every member and
    is nonzero off f's roots, so the variations there are the squarefree part's."""
    if f.is_zero():
        raise ZeroPolynomial("Sturm chain of the zero polynomial")
    seq = [f.primitive()]
    d = f.derivative()
    if not d.is_zero():
        seq.append(d.primitive())
        while True:
            r = _positive_remainder(seq[-2], seq[-1])
            if r.is_zero():
                break
            seq.append((-r).primitive())
    return seq


def _variations(chain: list[Poly], x, direction: int = +1, b: int = 1) -> int:
    """Sign variations of the chain at x/b; None means the infinity of that sign."""
    if x is None:
        return _sign_changes([-p.leading if direction < 0 and p.degree % 2 else p.leading for p in chain])
    return _sign_changes([_sign_at(p, x, b) for p in chain])


def count_roots(chain: list[Poly], lo=None, hi=None, b: int = 1) -> int:
    """Distinct real roots of p on the open (lo/b, hi/b), chain = sturm_sequence(p), b > 0 an int;
    None stands for an infinity, and a finite endpoint that is a root raises."""
    for x in (lo, hi):
        if x is not None and _sign_at(chain[0], x, b) == 0:
            raise EndpointIsRoot(f"endpoint {x}/{b} is a root")
    return _variations(chain, lo, -1, b) - _variations(chain, hi, +1, b)


# -- root isolation ----------------------------------------------------------


def cauchy_root_bound(p: Poly) -> tuple[int, int]:
    """(u, den) with every real root of p strictly inside (-u/den, u/den): 1 + max |c_i| / |lead|."""
    if p.is_zero():
        raise ZeroPolynomial("root bound of the zero polynomial")
    lead = abs(p.coeffs[-1])
    return lead + max(map(abs, p.coeffs[:-1]), default=0), lead


def _separation_bits(p: Poly) -> int:
    """k with 2^-k below the distance between any two distinct real roots of p.

    Mignotte's bound (Mahler, Michigan Math. J. 11, 1964) puts that distance
    above sqrt(3) n^(-(n+2)/2) ||f||_2^(1-n) for a squarefree f in Z[x] of
    degree n; the squarefree part of p's primitive part has degree and
    Mahler measure at most p's, and the bound falls with both, so p's degree
    and 2-norm serve.  Taken in integers: n < 2^n.bit_length() and
    ||p||_2^2 < 2^s, s the bit length of the sum of squared coefficients.
    """
    n, coeffs = p.degree, p.primitive().coeffs
    return (n.bit_length() * (n + 2) + sum(c * c for c in coeffs).bit_length() * (n - 1) + 1) // 2


def _is_root(p: Poly, u: int, den: int) -> bool:
    """Is u/den, den > 0, a root of p in Z[x]?  A root a/b in lowest terms has b | lead(p) and
    a | p(0) (the rational root theorem), so p is evaluated only at such points."""
    common = int_gcd(u, den)
    possible = not u or not (p.coeffs[-1] % (den // common) or p.coeffs[0] % (u // common))
    return possible and _sign_at(p, u, den) == 0


def root_intervals(p: Poly, count_above=None, above=None) -> Iterator[Interval]:
    """Isolating intervals for the distinct real roots of p in Z[x], ascending, lazily.

    Points are integers u over a denominator den > 0 shared by an interval's
    ends and reduced with them.  count_above(u, den) counts p's distinct
    roots above a non-root u/den, by default roots_above(p, u, den) for a
    real-rooted squarefree p.  Its one sign test, _is_root, is on p itself,
    at the midpoints the rational root theorem leaves possible.  The walk
    bisects the Cauchy interval depth first from the left, so a caller that
    needs only the first intervals stops it there; with `above`, subtrees
    with hi <= above are skipped.  A midpoint that is a root moves right by
    a quarter, an eighth, ... of the width.  Only the yielded intervals are
    Fractions.  An interval narrower than the separation of p's roots that
    still counts two or more cannot hold them, so the counts are wrong (p
    not real-rooted, for the default): VerificationFailed, where the walk
    would otherwise split forever.
    """
    count_above = count_above or partial(roots_above, p)
    limit = None if above is None else above.as_integer_ratio()
    bound, den = cauchy_root_bound(p)
    separation = _separation_bits(p)
    a_lo = count_above(-bound, den)
    # (lo, hi, den, roots inside, roots above lo)
    stack = [(-bound, bound, den, a_lo - count_above(bound, den), a_lo)]
    while stack:
        lo, hi, den, count, a_lo = stack.pop()
        if count == 0 or (limit is not None and hi * limit[1] <= limit[0] * den):
            continue
        if count == 1:
            yield Interval(Fraction(lo, den), Fraction(hi, den))
            continue
        if (hi - lo) << separation <= den:
            raise VerificationFailed(f"{count} roots of {p} counted closer together than their separation")
        common = int_gcd(lo, hi, den)
        lo, hi, den = lo // common, hi // common, den // common
        scale, mid = 4, 2 * (lo + hi)  # the midpoint, over 4 den; then (mid + width/scale) over 2 scale den
        while _is_root(p, mid, scale * den):
            scale, mid = 2 * scale, 2 * (mid + hi - lo)
        lo, hi, den = lo * scale, hi * scale, den * scale
        a_mid = count_above(mid, den)
        # Right side first so the stack pops left-to-right.
        stack.append((mid, hi, den, count - a_lo + a_mid, a_mid))
        stack.append((lo, mid, den, a_lo - a_mid, a_lo))


def isolate_real_roots(chain: list[Poly]) -> list[Interval]:
    """root_intervals of p by the Sturm counts of chain = sturm_sequence(p), as a list: disjoint
    intervals, endpoints never roots, each with exactly one distinct root of p strictly inside."""
    return list(root_intervals(chain[0], lambda u, den: count_roots(chain, u, b=den)))


def refine_root_interval(p: Poly, interval: Interval, max_width) -> Interval:
    """Shrink an isolating interval below max_width, root kept strictly inside.

    The interval must isolate exactly one root of p in Z[x], of odd
    multiplicity, with non-root endpoints (as root_intervals produces for a
    squarefree p): bisection follows the sign change of p on the endpoints
    over their common denominator.  If it lands on the root exactly, a
    tight interval straddling it is returned.
    """
    width, width_den = max_width.as_integer_ratio()
    if width <= 0:
        raise ValueError("max_width must be positive")
    (lo, lo_den), (hi, hi_den) = interval.lo.as_integer_ratio(), interval.hi.as_integer_ratio()
    den = _lcm(lo_den, hi_den)
    lo, hi = lo * (den // lo_den), hi * (den // hi_den)
    s_lo, s_hi = _sign_at(p, lo, den), _sign_at(p, hi, den)
    if s_lo == 0 or s_hi == 0:
        raise EndpointIsRoot("refinement endpoints must not be roots")
    if s_lo == s_hi:
        raise ValueError("p does not change sign on the interval")
    while (hi - lo) * width_den > width * den:
        mid, lo, hi, den = lo + hi, 2 * lo, 2 * hi, 2 * den
        s_mid = _sign_at(p, mid, den)
        if s_mid == 0:
            # Rational root hit dead on; return a snug interval around it, of
            # radius min(max_width, the last width / 2) / 2, over 2 den width_den.
            centre, radius, den = 2 * mid * width_den, min(width * den, (mid - lo) * width_den), 2 * den * width_den
            return Interval(Fraction(centre - radius, den), Fraction(centre + radius, den))
        lo, hi = (mid, hi) if s_mid == s_lo else (lo, mid)
        common = int_gcd(lo, hi, den)
        lo, hi, den = lo // common, hi // common, den // common
    return Interval(Fraction(lo, den), Fraction(hi, den))
