"""Slow reference solvers for the Lie-algebra layer, used only by the tests.

solve_planar_generator finds X_ij without the closed form: it solves
{A^T M + M A = 0, A v = 0 for v in E_ij} by exact nullspaces, where E_ij is
the M-orthogonal complement of the coordinate plane, all v with
(Mv)_i = (Mv)_j = 0, demands a one-dimensional solution space and checks
its own output.  Two closures check the closed-form density trace of
coxcert.liealg by running the bracket rounds V_(k+1) = V_k + [V_k, V_k]:
oracle_density_trace on n-by-n matrices, with brackets AB - BA by mat_mul
and a Fraction echelon, seeded by the solver's generators, and
sparse_density_trace on the coordinates S_ab of S M, with the closed-form
bracket of coordinate matrices and an integer echelon, fast enough for
sampled diagrams.  hyperbolic_plane_check looks at the rank-2 action of
one edge product R_i R_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd

from coxcert.errors import (
    CoxcertError,
    DegenerateForm,
    IndexOutOfRange,
    SameVertex,
    UnexpectedDimension,
    VerificationFailed,
)
from coxcert.exactcore import Matrix, QuadElem, quad_sign
from coxcert.exactcore.linalg import bareiss_det, mat_mul, nullspace, rref
from coxcert.gram import evaluate_pencil

from _relations_oracle import transpose


class NotAnEdge(CoxcertError):
    """The requested pair is not an edge of the diagram."""


def mat_vec(a: Matrix, v) -> tuple:
    out = []
    for row in a:
        acc = row[0] * v[0]
        for k in range(1, len(v)):
            acc = acc + row[k] * v[k]
        out.append(acc)
    return tuple(out)


# The pair check and the normalizer are kept apart from coxcert.liealg's, so
# that a fault in the production normalizer cannot hide on both sides of a
# comparison with the solver.


def _check_pair(n: int, i: int, j: int) -> None:
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexOutOfRange(f"pair ({i}, {j}) outside 1..{n}")
    if i == j:
        raise SameVertex(f"need two distinct vertices, got {i} twice")


def _normalize_primitive(a: Matrix) -> Matrix:
    """Scale by a positive rational to primitive integer coordinates, then
    fix the sign so the first nonzero entry (row-major) is positive."""
    denom, numer = 1, 0
    for row in a:
        for x in row:
            for f in (x.a, x.b) if isinstance(x, QuadElem) else (Fraction(x),):
                denom = denom * f.denominator // gcd(denom, f.denominator)
                numer = gcd(numer, abs(f.numerator))
    if numer == 0:
        raise UnexpectedDimension("cannot normalize the zero matrix")
    scale = Fraction(denom, numer)
    scaled = tuple(tuple(x * scale for x in row) for row in a)
    for row in scaled:
        for x in row:
            s = quad_sign(x)
            if s > 0:
                return scaled
            if s < 0:
                return tuple(tuple(-y for y in r) for r in scaled)
    raise UnexpectedDimension("cannot normalize the zero matrix")


def orthocomplement_basis(m: Matrix, i: int, j: int) -> list:
    """Basis of E_ij = {v : (Mv)_i = (Mv)_j = 0}, n-2 vectors for nondegenerate M."""
    n = len(m)
    _check_pair(n, i, j)
    return nullspace([list(m[i - 1]), list(m[j - 1])], n)


def _form_bracket(m: Matrix, a: Matrix) -> Matrix:
    """A^T M + M A, zero exactly when A lies in the Lie algebra of M."""
    at_m = mat_mul(transpose(a), m)
    m_a = mat_mul(m, a)
    return tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(at_m, m_a))


@lru_cache(maxsize=4096)
def solve_planar_generator(m: Matrix, i: int, j: int) -> Matrix:
    """X_ij from {A^T M + M A = 0, A v = 0 for v in E_ij}, normalized.

    The second constraint says every row of A is Euclidean-orthogonal to
    E_ij, i.e. lies in the 2-dimensional kernel of the E-basis matrix; the
    rows are re-expressed in that kernel basis and the form-compatibility
    equations are solved on the reduced unknowns.
    """
    n = len(m)
    _check_pair(n, i, j)
    if bareiss_det(m) == 0:
        raise DegenerateForm("the symmetric form is singular")
    e_basis = orthocomplement_basis(m, i, j)
    if len(e_basis) != n - 2:
        raise UnexpectedDimension(f"E_{i}{j} has dimension {len(e_basis)}, expected {n - 2}")
    kernel = nullspace([list(v) for v in e_basis], n)
    if len(kernel) != 2:
        raise UnexpectedDimension(f"row space for X_{i}{j} has dimension {len(kernel)}, expected 2")
    u1, u2 = kernel
    # Unknowns: rows A[k] = x_k u1 + y_k u2.  Equations: (A^T M + M A)_{rs} = 0.
    equations = []
    for r in range(n):
        for s in range(r, n):
            # Column order: x_1..x_n then y_1..y_n.
            row = []
            for basis_vec in (u1, u2):
                for k in range(n):
                    row.append(basis_vec[r] * m[k][s] + m[r][k] * basis_vec[s])
            equations.append(row)
    solutions = nullspace(equations, 2 * n)
    if len(solutions) != 1:
        raise UnexpectedDimension(
            f"solution space for X_{i}{j} has dimension {len(solutions)}, expected 1"
        )
    sol = solutions[0]
    a_rows = []
    for k in range(n):
        xk, yk = sol[k], sol[n + k]
        a_rows.append(tuple(xk * u1[c] + yk * u2[c] for c in range(n)))
    a_mat = _normalize_primitive(tuple(a_rows))
    verify_planar(m, a_mat, e_basis)
    return a_mat


def verify_planar(m: Matrix, a: Matrix, e_basis) -> None:
    """Raise unless A is in the Lie algebra of M and annihilates E_ij."""
    if any(not (x == 0) for row in _form_bracket(m, a) for x in row):
        raise VerificationFailed("X does not satisfy A^T M + M A = 0")
    for v in e_basis:
        if any(not (x == 0) for x in mat_vec(a, v)):
            raise VerificationFailed("X does not annihilate E_ij")


def _flatten(a: Matrix) -> list:
    return [entry for row in a for entry in row]


@dataclass(frozen=True)
class BasisReport:
    """Rank of the flattened X_ij family against the full dimension."""

    rank: int
    expected: int

    @property
    def ok(self) -> bool:
        return self.rank == self.expected


def full_basis_check(m: Matrix) -> BasisReport:
    """Do the X_ij over ALL pairs span the whole Lie algebra?"""
    n = len(m)
    rows = [
        _flatten(solve_planar_generator(m, i, j))
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]
    _reduced, pivots = rref(rows)
    return BasisReport(len(pivots), n * (n - 1) // 2)


class _FractionEchelon:
    """Incremental echelon over Fraction vectors; tracks span dimension."""

    def __init__(self):
        self.rows: list = []  # (pivot index, row scaled to lead 1), pivot-sorted

    def insert(self, vec) -> bool:
        v = [Fraction(x) for x in vec]
        for pivot, row in self.rows:
            c = v[pivot]
            if c:
                v = [x - c * y for x, y in zip(v, row)]
        for pivot, x in enumerate(v):
            if x:
                self.rows.append((pivot, [y / x for y in v]))
                self.rows.sort(key=lambda pr: pr[0])
                return True
        return False

    @property
    def dimension(self) -> int:
        return len(self.rows)


def _commutator(a: Matrix, b: Matrix) -> Matrix:
    ab = mat_mul(a, b)
    ba = mat_mul(b, a)
    return tuple(tuple(x - y for x, y in zip(r1, r2)) for r1, r2 in zip(ab, ba))


def oracle_density_trace(g, t) -> tuple:
    """Span dimension after the seeds and after each bracket round, at rational t."""
    m = evaluate_pencil(g, t)
    full_dim = g.n * (g.n - 1) // 2
    echelon = _FractionEchelon()
    mats = []
    for i, j in g.sorted_edges():
        # At rational t the solver returns primitive integer coordinates.
        x = tuple(tuple(int(v) for v in row) for row in solve_planar_generator(m, i, j))
        echelon.insert(_flatten(x))
        mats.append(x)
    trace = [echelon.dimension]
    while echelon.dimension < full_dim:
        snapshot = len(mats)
        added = False
        for a, b in combinations(range(snapshot), 2):
            c = _commutator(mats[a], mats[b])
            if echelon.insert(_flatten(c)):
                mats.append(c)
                added = True
                if echelon.dimension == full_dim:
                    break  # nothing more fits; the round's entry is the same
        if not added:
            break
        trace.append(echelon.dimension)
    return tuple(trace)


class _Echelon:
    """Incremental fraction-free echelon over integer vectors."""

    def __init__(self):
        # (pivot, primitive row); each row is zero at the pivots of the rows
        # before it, so reducing in this order clears every pivot.
        self.rows: list = []

    def insert(self, vec) -> bool:
        """Add vec to the span; True when the dimension grew."""
        v = list(vec)
        for pivot, row in self.rows:
            c = v[pivot]
            if c:
                lead = row[pivot]
                v = [lead * x - c * y for x, y in zip(v, row)]
                content = gcd(*v)
                if content > 1:
                    v = [x // content for x in v]
        for pivot, x in enumerate(v):
            if x:
                self.rows.append((pivot, v))
                return True
        return False


def _bracket(s: dict, t: dict, form: list) -> dict:
    """Nonzero coordinates {(p, q): c} (p < q) of [S M, T M], for S and T
    given the same way: the closed form for [E_ab, E_cd], summed."""
    out: dict = {}
    for (a, b), x in s.items():
        row_a, row_b = form[a], form[b]
        for (c, d), y in t.items():
            xy = x * y
            for p, q, v in (
                (a, d, row_b[c]),
                (a, c, -row_b[d]),
                (b, d, -row_a[c]),
                (b, c, row_a[d]),
            ):
                if v and p != q:
                    if p < q:
                        out[p, q] = out.get((p, q), 0) + xy * v
                    else:
                        out[q, p] = out.get((q, p), 0) - xy * v
    return {pair: c for pair, c in out.items() if c}


def sparse_density_trace(g, t) -> tuple:
    """The same rounds on the coordinates S_ab of S M, at rational t.

    M_t is scaled by the denominator of t to an integer matrix, which
    changes no span.  Every span contains the edge unit vectors, so a
    bracket is new exactly when its coordinates at the commuting pairs lie
    outside the span of the basis's coordinates there.
    """
    t = Fraction(t)
    form = [[int(x * t.denominator) for x in row] for row in evaluate_pencil(g, t)]
    n = g.n
    full_dim = n * (n - 1) // 2
    commuting = [(a, b) for a, b in combinations(range(n), 2) if g.commutes(a + 1, b + 1)]
    slot = {pair: k for k, pair in enumerate(commuting)}
    basis = [{(i - 1, j - 1): 1} for i, j in g.sorted_edges()]
    echelon = _Echelon()
    trace = [len(basis)]
    while len(basis) < full_dim:
        snapshot = len(basis)
        added = False
        for a, b in combinations(range(snapshot), 2):
            c = _bracket(basis[a], basis[b], form)
            v = [0] * len(slot)
            for pair, x in c.items():
                if pair in slot:
                    v[slot[pair]] = x
            if any(v) and echelon.insert(v):
                basis.append(c)
                added = True
                if len(basis) == full_dim:
                    break  # nothing more fits; the round's entry is the same
        if not added:
            break
        trace.append(len(basis))
    return tuple(trace)


@dataclass(frozen=True)
class PlaneReport:
    """The rank-2 behavior of one edge product R_i R_j."""

    block: tuple
    block_trace: object
    trace_matches: bool
    fixes_complement: bool
    classification: str


def hyperbolic_plane_check(gs, i: int, j: int) -> PlaneReport:
    """R_i R_j fixes E_ij pointwise and acts on the (e_i, e_j) plane with
    trace 4t^2 - 2: hyperbolic for trace > 2, parabolic at t = 1 (trace 2)."""
    g = gs.diagram
    _check_pair(g.n, i, j)
    if not g.adjacent(i, j):
        raise NotAnEdge(f"({i}, {j}) is not an edge")
    product = mat_mul(gs.matrices[i - 1], gs.matrices[j - 1])
    e_basis = orthocomplement_basis(gs.form, i, j)
    fixes = all(
        all(x == y for x, y in zip(mat_vec(product, v), v)) for v in e_basis
    )
    bi, bj = i - 1, j - 1
    block = (
        (product[bi][bi], product[bi][bj]),
        (product[bj][bi], product[bj][bj]),
    )
    block_trace = product[bi][bi] + product[bj][bj]
    t = gs.t if not isinstance(gs.t, int) else Fraction(gs.t)
    expected = 4 * t * t - 2
    trace_matches = block_trace == expected
    s = quad_sign(block_trace - 2)
    classification = "hyperbolic" if s > 0 else ("parabolic" if s == 0 else "elliptic")
    return PlaneReport(block, block_trace, trace_matches, fixes, classification)
