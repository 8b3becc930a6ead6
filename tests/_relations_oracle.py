"""Point-evaluation oracle for the reflection relations.

The package checks R_i^2 = I, (R_i R_j)^2 = I on commuting pairs and
R_i^T M_d R_i = M_d once, as identities in Z[d].  `relations_at` is the
same check at one evaluation point t, run on a stored GeneratorSet: each
stored matrix is first compared with the rank-one action at t applied to I
(a mismatch is a ("generator", i, i) failure and fails all three verdicts),
and the products then run through that action.  `conjugates_to_tau` is the
Galois-map comparison: conjugating R_i(alpha) coordinate-wise gives R_i(tau).
`integral_at` reads integrality entry by entry off the stored matrices; the
package reads it off the actions' 2t alone.  `mat_eq` and `transpose` are
the entry-by-entry comparison and the transpose these checks use.
`dense_relations` is the package's Z[d] check by matrix products at
d = 2^64, one product R_i R_j per pair; the package reads the same verdicts
off the rank-one forms R_i = I + e_c u^T.  It calls
`vinberg.reflection_actions` through the module, so a test that patches the
actions there patches them for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from coxcert import vinberg
from coxcert.exactcore import QuadElem
from coxcert.gram import pencil_at
from coxcert.vinberg import (
    _POINT,
    GeneratorSet,
    RelationReport,
    expected_trace,
    reflection_actions,
    reflection_generators,
    times_reflection,
)


def transpose(a: tuple) -> tuple:
    return tuple(zip(*a))


def mat_eq(a: tuple, b: tuple) -> bool:
    """Same shape and equal entries, compared with == one by one."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for x, y in zip(ra, rb):
            if not (x == y):
                return False
    return True


@dataclass(frozen=True)
class PointRelations:
    involutions_ok: bool
    commutations_ok: bool
    orthogonality_ok: bool
    failures: tuple

    @property
    def ok(self) -> bool:
        return self.involutions_ok and self.commutations_ok and self.orthogonality_ok


def _identity_like(a):
    zero = a[0][0] * 0
    one = zero + 1
    return tuple(tuple(one if c == r else zero for c in range(len(a))) for r in range(len(a)))


def _preserves(form, action) -> bool:
    moved = times_reflection(transpose(times_reflection(form, action)), action)
    return mat_eq(transpose(moved), form)


def relations_at(gs: GeneratorSet) -> PointRelations:
    g = gs.diagram
    ident = _identity_like(gs.form)
    actions = reflection_actions(g, gs.t)
    failures = []
    for i, r_mat in enumerate(gs.matrices, start=1):
        if not mat_eq(times_reflection(ident, actions[i]), r_mat):
            failures.append(("generator", i, i))
        elif not mat_eq(times_reflection(r_mat, actions[i]), ident):
            failures.append(("involution", i, i))
    for i, j in combinations(g.vertices, 2):
        if g.commutes(i, j):
            prod = times_reflection(gs.matrices[i - 1], actions[j])
            if not mat_eq(times_reflection(times_reflection(prod, actions[i]), actions[j]), ident):
                failures.append(("commutation", i, j))
    for i in g.vertices:
        if not _preserves(gs.form, actions[i]):
            failures.append(("orthogonality", i, i))
    kinds = {kind for kind, _, _ in failures}
    defined = "generator" not in kinds
    return PointRelations(
        defined and "involution" not in kinds,
        defined and "commutation" not in kinds,
        defined and "orthogonality" not in kinds,
        tuple(failures),
    )


def conjugate_matrix(a):
    return tuple(tuple(x.conjugate() for x in row) for row in a)


def conjugates_to_tau(g, alpha) -> bool:
    """Each R_i(alpha), conjugated entry by entry, equals R_i(tau(alpha))."""
    at_alpha = reflection_generators(g, alpha).matrices
    at_tau = reflection_generators(g, alpha.conjugate()).matrices
    return all(mat_eq(conjugate_matrix(a), b) for a, b in zip(at_alpha, at_tau))


def integral_at(gs: GeneratorSet) -> bool:
    """True when every stored generator entry lies in Z[sqrt(m)] (or Z over Q)."""
    for mat_ in gs.matrices:
        for row in mat_:
            for x in row:
                if isinstance(x, QuadElem):
                    if not x.is_integral():
                        return False
                elif Fraction(x).denominator != 1:
                    return False
    return True


def _pencil_generators(g) -> tuple[dict, tuple]:
    """The actions of R_i(d) and the matrices R_i(d) at d = 2^64, one per vertex."""
    actions, ident = vinberg.reflection_actions(g, _POINT), pencil_at(g, 0)  # M_0 = I
    return actions, tuple(times_reflection(ident, actions[i]) for i in g.vertices)


def _pair_product(actions: dict, generators: tuple, i: int, j: int) -> tuple:
    """R_i R_j (R_j's action on the matrix R_i) and its trace."""
    product = times_reflection(generators[i - 1], actions[j])
    return product, sum(row[k] for k, row in enumerate(product))


def dense_relations(g) -> RelationReport:
    """verify_relations by matrix products at d = 2^64, failures in the same order."""
    actions, generators = _pencil_generators(g)
    form, ident = pencil_at(g, _POINT), pencil_at(g, 0)  # M_0 = I
    failures = []
    for i in g.vertices:
        if times_reflection(generators[i - 1], actions[i]) != ident:
            failures.append(("involution", i, i))
        # (M R_i)^T R_i = R_i^T M R_i, as M is symmetric
        if times_reflection(tuple(zip(*times_reflection(form, actions[i]))), actions[i]) != form:
            failures.append(("orthogonality", i, i))
    for i, j in combinations(g.vertices, 2):
        product, tr = _pair_product(actions, generators, i, j)
        if g.commutes(i, j):
            square = times_reflection(times_reflection(product, actions[i]), actions[j])
            if square != ident:
                failures.append(("commutation", i, j))
        if tr != expected_trace(g, i, j)(_POINT):
            failures.append(("trace", i, j))
    kinds = {kind for kind, _, _ in failures}
    return RelationReport(
        "involution" not in kinds,
        "commutation" not in kinds,
        "orthogonality" not in kinds,
        "trace" not in kinds,
        tuple(failures),
    )
