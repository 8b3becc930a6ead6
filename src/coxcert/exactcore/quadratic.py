"""Exact arithmetic in real quadratic fields Q(sqrt(m)).

A QuadElem stores a + b*sqrt(m) with Fraction coordinates and a squarefree
integer radicand m >= 2; operands with two radicands raise VerificationFailed
and compare unequal.  Signs are decided exactly by case analysis (comparing
a^2 against m*b^2 when the coordinates disagree in sign), and x < y reads
quad_sign(x - y) < 0, so no floating point ever enters a verdict.  Floats
appear only in __float__, which exists for human-readable reporting.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, total_ordering

from ..errors import InputError, VerificationFailed

RADICAND_LIMIT = 10**6


@lru_cache(maxsize=256)
def is_squarefree(m: int) -> bool:
    """True when no prime square divides m (m >= 1)."""
    if m < 1:
        return False
    k = 2
    while k * k <= m:
        if m % (k * k) == 0:
            return False
        k += 1
    return True


def _check_radicand(m: int) -> int:
    if not isinstance(m, int) or isinstance(m, bool):
        raise InputError(f"radicand must be an int, got {m!r}")
    if m < 2 or m > RADICAND_LIMIT or not is_squarefree(m):
        raise InputError(f"radicand must be squarefree with 2 <= m <= {RADICAND_LIMIT}, got {m}")
    return m


@total_ordering
class QuadElem:
    """a + b*sqrt(m) with exact Fraction coordinates, ordered as reals."""

    __slots__ = ("a", "b", "m")

    def __init__(self, a, b, m: int):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", Fraction(b))
        object.__setattr__(self, "m", _check_radicand(m))

    def __setattr__(self, name, value):
        raise AttributeError("QuadElem is immutable")

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other) -> "QuadElem | None":
        if isinstance(other, QuadElem):
            if other.m != self.m:
                raise VerificationFailed(f"cannot combine sqrt({self.m}) with sqrt({other.m})")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadElem(other, 0, self.m)
        return None

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElem(self.a + o.a, self.b + o.b, self.m)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElem(self.a - o.a, self.b - o.b, self.m)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElem(o.a - self.a, o.b - self.b, self.m)

    def __neg__(self):
        return QuadElem(-self.a, -self.b, self.m)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElem(
            self.a * o.a + self.m * self.b * o.b,
            self.a * o.b + self.b * o.a,
            self.m,
        )

    __rmul__ = __mul__

    def inverse(self) -> "QuadElem":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("QuadElem division by zero")
        return QuadElem(self.a / n, -self.b / n, self.m)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        base = self
        result = QuadElem(1, 0, self.m)
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    # -- field-specific pieces --------------------------------------------

    def conjugate(self) -> "QuadElem":
        """Galois conjugate: sqrt(m) maps to -sqrt(m)."""
        return QuadElem(self.a, -self.b, self.m)

    def norm(self) -> Fraction:
        """Field norm a^2 - m*b^2 (a Fraction)."""
        return self.a * self.a - self.m * self.b * self.b

    def sign(self) -> int:
        """Exact sign in {-1, 0, +1}."""
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # Opposite signs: a^2 = m*b^2 would make sqrt(m) rational, impossible
        # for squarefree m >= 2, so a's sign wins exactly when a^2 > m*b^2.
        a_sign = 1 if a > 0 else -1
        return a_sign if a * a > self.m * b * b else -a_sign

    def is_integral(self) -> bool:
        """True when both coordinates are integers, i.e. self lies in Z[sqrt(m)]."""
        return self.a.denominator == 1 and self.b.denominator == 1

    # -- equality, order and sign -------------------------------------------

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return quad_sign(self - o) < 0

    def __eq__(self, other):
        if isinstance(other, QuadElem):
            return self.m == other.m and self.a == other.a and self.b == other.b
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.m))

    def __abs__(self):
        return self if self.sign() >= 0 else -self

    def __bool__(self):
        return not (self.a == 0 and self.b == 0)

    # -- rendering ----------------------------------------------------------

    def __float__(self) -> float:
        # Reporting only; verdicts never consult this.
        return float(self.a) + float(self.b) * (self.m**0.5)

    def __repr__(self):
        return f"QuadElem({self.a}, {self.b}, m={self.m})"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        sign = "+" if self.b >= 0 else "-"
        return f"{self.a} {sign} {abs(self.b)}*sqrt({self.m})"


def quad_sign(x) -> int:
    """Exact sign of an int, Fraction, or QuadElem."""
    if isinstance(x, QuadElem):
        return x.sign()
    if isinstance(x, (int, Fraction)):
        return (x > 0) - (x < 0)
    raise TypeError(f"quad_sign expects an exact scalar, got {type(x).__name__}")
