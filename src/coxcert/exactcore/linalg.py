"""Small exact linear-algebra kit over int, Fraction, QuadElem, or Poly entries.

Matrices are immutable tuples of row tuples.  Everything here is decided by
exact arithmetic.  Determinants come from fraction-free Bareiss elimination,
whose divisions are exact over any integral domain, so an int or
integer-Poly matrix stays in integers throughout.  Characteristic
polynomials of rational matrices come from the Faddeev-LeVerrier recursion
(divisions by 1..n, exact in characteristic zero), and inertia signatures
from Descartes' rule on the characteristic polynomial, which is real-rooted
for a symmetric matrix.  The package reads the stable signature off det M_d
by the same rule instead (gram.stable_signature); signature_of is kept as
its test oracle, and no command imports this module: only the tests, the
benchmark and liealg.planar_generator, which only they call, use it.
"""

from __future__ import annotations

from fractions import Fraction
from operator import floordiv, truediv
from ..errors import VerificationFailed
from .poly import Poly, Signature, _sign_changes
from .quadratic import QuadElem

Matrix = tuple

def mat(rows) -> Matrix:
    return tuple(tuple(row) for row in rows)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    inner = len(b)
    if any(len(row) != inner for row in a):
        raise ValueError("matrix shape mismatch")
    bt = tuple(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in bt:
            acc = row[0] * col[0]
            for k in range(1, inner):
                acc = acc + row[k] * col[k]
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def is_symmetric(a: Matrix) -> bool:
    n = len(a)
    return all(a[i][j] == a[j][i] for i in range(n) for j in range(i + 1, n))


def trace(a: Matrix):
    acc = a[0][0]
    for i in range(1, len(a)):
        acc = acc + a[i][i]
    return acc


def _check_single_radicand(a: Matrix) -> None:
    radicands = {x.m for row in a for x in row if isinstance(x, QuadElem)}
    if len(radicands) > 1:
        raise VerificationFailed(f"matrix mixes radicands {sorted(radicands)}")


def _exact_division(a: Matrix):
    """The division for Bareiss quotients of a: // on an int matrix, else /.

    Every quotient is exact (Sylvester's identity), so an int matrix keeps
    int entries throughout instead of turning them into floats.
    """
    return floordiv if all(isinstance(x, int) for row in a for x in row) else truediv


def bareiss_det(a: Matrix):
    """Exact determinant by fraction-free elimination (any entry type)."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    _check_single_radicand(a)
    if n == 1:
        return a[0][0]
    rows = [list(row) for row in a]
    divide = _exact_division(a)
    zero = a[0][0] * 0
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for r in range(k + 1, n):
                if not (rows[r][k] == 0):
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return zero
        pivot = rows[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = divide(pivot * rows[i][j] - rows[i][k] * rows[k][j], prev)
            rows[i][k] = zero
        prev = pivot
    det = rows[n - 1][n - 1]
    return -det if sign < 0 else det


def leading_principal_minors(a: Matrix) -> list:
    """Determinants of the top-left k-by-k blocks, k = 1..n, in one pass.

    Pivot-free Bareiss elimination: by Sylvester's identity its k-th pivot
    is exactly the k-th leading minor.  A vanishing minor other than the
    last leaves no pivot to continue with and raises ValueError.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("minors need a square matrix")
    _check_single_radicand(a)
    rows = [list(row) for row in a]
    divide = _exact_division(a)
    prev = 1
    for k in range(n - 1):
        pivot = rows[k][k]
        if pivot == 0:
            raise ValueError(f"leading minor {k + 1} vanishes")
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                rows[i][j] = divide(pivot * rows[i][j] - rows[i][k] * rows[k][j], prev)
        prev = pivot
    return [rows[k][k] for k in range(n)]


def char_poly(a: Matrix) -> Poly:
    """det(x*I - a) of a rational matrix via Faddeev-LeVerrier.

    Each division by k is exact, so an int matrix keeps int coefficients.
    """
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("characteristic polynomial needs a square matrix")
    divide = _exact_division(a)
    desc = [1]
    mk = a
    ck = -trace(mk)
    desc.append(ck)
    for k in range(2, n + 1):
        shifted = tuple(
            tuple(mk[i][j] + ck if i == j else mk[i][j] for j in range(n)) for i in range(n)
        )
        mk = mat_mul(a, shifted)
        ck = -divide(trace(mk), k)
        desc.append(ck)
    return Poly(tuple(reversed(desc)))


def signature_of(a: Matrix) -> Signature:
    """Exact inertia of a symmetric rational matrix by Descartes' rule.

    Eigenvalues of a symmetric matrix are real, so its characteristic
    polynomial is real-rooted and the sign changes of its coefficients count
    its positive roots with multiplicity, exactly: p is that count, z the
    multiplicity of the root 0 (the zero coefficients at the low end) and
    q = n - p - z.
    """
    if not is_symmetric(a):
        raise ValueError("signature needs a symmetric matrix")
    coeffs = char_poly(a).coeffs
    z = next(i for i, c in enumerate(coeffs) if c != 0)
    p = _sign_changes(coeffs)
    return Signature(p, len(a) - p - z, z)


# -- row reduction ------------------------------------------------------------


def rref(rows: list) -> tuple[list, list[int]]:
    """Reduced row echelon form with exact division; returns (rows, pivot cols).

    Pivot selection is the first nonzero entry top-down, so the output is
    deterministic for a given input ordering.
    """
    work = [list(r) for r in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(work)):
            if not (work[r][col] == 0):
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        lead = work[rank][col]
        if not (lead == 1):
            inv_row = [x / lead for x in work[rank]]
            work[rank] = inv_row
        for r in range(len(work)):
            if r != rank and not (work[r][col] == 0):
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return work[:rank], pivots


def nullspace(rows: list, ncols: int) -> list[tuple]:
    """Basis of the right kernel, one vector per free column (ascending)."""
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for free in free_cols:
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, pcol in zip(reduced, pivots):
            coeff = row[free]
            if not (coeff == 0):
                vec[pcol] = -coeff
        basis.append(tuple(vec))
    return basis
