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
the entry-by-entry comparison and the transpose these checks use; the
package compares its tuple matrices with == and transposes by zip.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from coxcert.exactcore import QuadElem
from coxcert.vinberg import GeneratorSet, reflection_actions, reflection_generators, times_reflection


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
