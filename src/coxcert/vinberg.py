"""Reflection generators, their relations, and the embedding certificate.

For an evaluation point t the generator attached to vertex i is the
reflection R_i = I - 2 e_i m_i^T where m_i is the i-th column of M_t.  It is
defined once, by its rank-one right action: A * R_i negates column i of A
and adds 2t * (old column i) to each neighbor column.  The generators are
that action applied to I.

Every entry of R_i(d) is an integer polynomial in d of degree at most 1, so
R_i^2 = I, (R_i R_j)^2 = I on commuting pairs, R_i^T M_d R_i = M_d and
tr(R_i R_j) = n - 4 + 4 M_ij(d)^2 are identities in Z[d].  verify_relations
checks each once, from one product R_i R_j per pair, in integers at
d = 2^64, which separates every polynomial that arises there; holding in
Z[d], they hold at alpha and at its Galois conjugate tau alike.  R_i(t) has
entries 0, +-1 and 2t, so it is integral exactly when 2t is.  Only M_tau's
positive definiteness is decided at tau (its leading minors are the
pencil's minor polynomials at tau).

The embedding certificate keeps the report of every stage for one diagram
and one quadratic ring: thresholds, the chosen unit alpha with its Galois
checks, the Z[d] identities, integrality at alpha, compactness of the
conjugate form, the Lie bracket density trace at t = D (read off graph
distances), the faithfulness probe (sphere sizes, faithful by Vinberg's
theorem at t = D >= 1) and, for a cycle complement, its closed-form checks.
"""

from __future__ import annotations

import time
from itertools import combinations
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .cyclecheck import CycleReport, verify_cycle_example
from .diagram import CoxeterDiagram, cycle_complement, is_connected
from .errors import Disconnected, SameVertex
from .exactcore import Matrix, Poly, QuadElem, mat_eq, quad_sign, trace, transpose
from .exactcore.poly import poly_from_balanced_digits
from .gram import ThresholdReport, evaluate_pencil, gram_pencil, minor_polynomials, threshold_report
from .liealg import DensityCertificate, bracket_closure_density
from .units import GaloisReport, UnitValue, choose_unit, galois_pair_check

if TYPE_CHECKING:  # words imports this module
    from .words import FaithfulnessReport


class GeneratorSet(NamedTuple):
    """Reflection matrices for every vertex, plus the form they preserve."""

    diagram: CoxeterDiagram
    t: object
    form: Matrix
    matrices: tuple


def reflection_actions(g: CoxeterDiagram, t) -> dict:
    """Per vertex i: (column, neighbor columns, 2t), the right action of R_i.

    Right-multiplying a matrix A by the reflection R_i sends column i to its
    negative and adds 2t * (old column i) to every neighbor column; all other
    columns are untouched.  t may be any exact scalar or a polynomial in d.
    """
    two_t = 2 * t
    if isinstance(two_t, Fraction) and two_t.denominator == 1:
        two_t = two_t.numerator
    return {i: (i - 1, tuple(j - 1 for j in g.neighbors(i)), two_t) for i in g.vertices}


def reflect_row(row: tuple, action) -> tuple:
    """row * R_i for the action of R_i, in O(degree)."""
    col, neighbor_cols, two_t = action
    v = row[col]
    if not v:
        return row
    new_row = list(row)
    new_row[col] = -v
    for j in neighbor_cols:
        new_row[j] = new_row[j] + two_t * v
    return tuple(new_row)


def times_reflection(a, action):
    """A * R_i for the action of R_i, in O(rows * degree)."""
    return tuple(reflect_row(row, action) for row in a)


def reflection_generators(g: CoxeterDiagram, t) -> GeneratorSet:
    """One reflection per vertex at the exact evaluation point t."""
    form = evaluate_pencil(gram_pencil(g), t)
    ident = evaluate_pencil(gram_pencil(g), t * 0)  # M_0 = I, in t's ring
    actions = reflection_actions(g, t)
    return GeneratorSet(g, t, form, tuple(times_reflection(ident, actions[i]) for i in g.vertices))


class RelationReport(NamedTuple):
    """Verdicts of the Z[d] identities, with each failing (kind, i, j)."""

    involutions_ok: bool
    commutations_ok: bool
    orthogonality_ok: bool
    traces_ok: bool
    failures: tuple


# R_i(d) has entries 0, +-1 and +-2d.  One rank-one action at most triples
# the largest coefficient sum (l1 norm) of an entry, so R_i^2 and R_i^T M_d R_i
# have entries of l1 at most 9, (R_i R_j)^2 at most 81, tr R_i R_j at most 9n.
# Integer polynomials with coefficients below 2^63 in absolute value agree
# exactly when their values at 2^64 do, so d = 2^64 decides each identity.
_BITS = 64
_POINT = 1 << _BITS


def _pencil_generators(g: CoxeterDiagram) -> tuple[dict, tuple]:
    """The actions of R_i(d) and the matrices R_i(d) at d = 2^64, one per vertex."""
    actions, ident = reflection_actions(g, _POINT), gram_pencil(g).at(0)  # M_0 = I
    return actions, tuple(times_reflection(ident, actions[i]) for i in g.vertices)


def _pair_product(actions: dict, generators: tuple, i: int, j: int) -> tuple:
    """R_i R_j (R_j's action on the matrix R_i) and its trace."""
    product = times_reflection(generators[i - 1], actions[j])
    return product, trace(product)


def verify_relations(g: CoxeterDiagram) -> RelationReport:
    """Check R_i^2 = I, R_i^T M_d R_i = M_d, and per pair P = R_i R_j.

    Every check is an identity in Z[d], decided at d = 2^64: P^2 = I on
    commuting pairs, and tr P = expected_trace(g, i, j) on all pairs i < j.
    """
    actions, generators = _pencil_generators(g)
    form, ident = gram_pencil(g).at(_POINT), gram_pencil(g).at(0)  # M_0 = I
    failures = []
    for i in g.vertices:
        if not mat_eq(times_reflection(generators[i - 1], actions[i]), ident):
            failures.append(("involution", i, i))
        # (M R_i)^T R_i = R_i^T M R_i, as M is symmetric
        if not mat_eq(times_reflection(transpose(times_reflection(form, actions[i])), actions[i]), form):
            failures.append(("orthogonality", i, i))
    for i, j in combinations(g.vertices, 2):
        product, tr = _pair_product(actions, generators, i, j)
        if g.commutes(i, j):
            square = times_reflection(times_reflection(product, actions[i]), actions[j])
            if not mat_eq(square, ident):
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


def generators_integral(g: CoxeterDiagram, t) -> bool:
    """True when every R_i(t) has entries in Z[sqrt(m)] (or Z over Q).

    R_i(t), the action applied to I, has entries 0, +-1 and the action's 2t.
    """
    return all(
        two_t.is_integral() if isinstance(two_t, QuadElem) else Fraction(two_t).denominator == 1
        for _, neighbor_cols, two_t in reflection_actions(g, t).values()
        if neighbor_cols
    )


def trace_polynomial(g: CoxeterDiagram, i: int, j: int) -> Poly:
    """tr(R_i R_j) as an integer polynomial in d."""
    if i == j:
        raise SameVertex(f"need two distinct vertices, got {i} twice")
    return poly_from_balanced_digits(_pair_product(*_pencil_generators(g), i, j)[1], _BITS)


def expected_trace(g: CoxeterDiagram, i: int, j: int) -> Poly:
    """n - 4 + 4 M_ij(d)^2: the closed form the trace must equal."""
    if i == j:
        raise SameVertex(f"need two distinct vertices, got {i} twice")
    n = g.n
    if g.adjacent(i, j):
        return Poly((n - 4, 0, 4))
    return Poly((n - 4,))


def compact_conjugate_check(g: CoxeterDiagram, u: UnitValue) -> bool:
    """True when M_tau is positive-definite, tau the Galois conjugate of alpha.

    Its leading principal minors are the minor polynomials of the pencil
    evaluated at tau, each of whose signs is decided exactly in Q(sqrt(m)).
    That the conjugate generators preserve M_tau is the Z[d] orthogonality
    of verify_relations.
    """
    tau = u.value.conjugate()
    return all(quad_sign(p(tau)) > 0 for p in minor_polynomials(gram_pencil(g)))


class EmbeddingCertificate(NamedTuple):
    """The stage reports for one (diagram, m) pair, each kept as returned.

    cycle is None unless the diagram is cycle_complement(n) with n >= 5.
    """

    diagram: CoxeterDiagram
    m: int
    thresholds: ThresholdReport
    unit: UnitValue
    galois: GaloisReport
    relations: RelationReport
    integrality_ok: bool
    positive_definite: bool
    density: DensityCertificate
    probe: FaithfulnessReport
    cycle: CycleReport | None
    timings: dict

    def verdicts(self) -> dict:
        relations = self.relations
        out = {
            "relations_ok": relations.involutions_ok and relations.commutations_ok,
            "orthogonality_ok": relations.orthogonality_ok,
            "integrality_ok": self.integrality_ok,
            "galois_product_unit": self.galois.product_is_unit,
            "galois_conj_bounded": self.galois.conj_bounded,
            "conj_form_positive_definite": relations.orthogonality_ok and self.positive_definite,
            "trace_identity_ok": relations.traces_ok,
            "density_ok": self.density.verdict,
            "faithfulness_probe": self.probe.injective,
        }
        if self.cycle is not None:
            out["cycle_example_ok"] = self.cycle.ok
        return out

    @property
    def passed(self) -> bool:
        return all(self.verdicts().values())


def build_embedding_certificate(
    g: CoxeterDiagram, m: int = 2, probe_len: int = 4
) -> EmbeddingCertificate:
    """Run the whole pipeline for one diagram and one quadratic ring.

    Stages: thresholds -> unit choice -> Galois bound -> relations,
    orthogonality and traces over Z[d], integrality at alpha -> positive
    definiteness at tau -> density trace at D -> faithfulness
    probe.
    Deterministic: same (g, m) always yields an identical certificate.
    """
    from .words import faithfulness_probe

    if not is_connected(g):
        raise Disconnected("the embedding pipeline needs a connected diagram")
    timings: dict[str, float] = {}
    clock = time.perf_counter

    start = clock()
    thresholds = threshold_report(gram_pencil(g))
    timings["thresholds"] = clock() - start

    start = clock()
    bound = max(1 / thresholds.epsilon, thresholds.d_value)
    unit = choose_unit(m, bound)
    galois = galois_pair_check(unit, thresholds.epsilon)
    timings["unit"] = clock() - start

    start = clock()
    relations = verify_relations(g)
    integrality_ok = generators_integral(g, unit.value)
    timings["relations"] = clock() - start

    start = clock()
    positive_definite = compact_conjugate_check(g, unit)
    timings["compactness"] = clock() - start

    start = clock()
    density = bracket_closure_density(g, thresholds.d_value)
    timings["density"] = clock() - start

    start = clock()
    probe = faithfulness_probe(g, thresholds.d_value, probe_len)
    timings["faithfulness"] = clock() - start

    start = clock()
    cycle = verify_cycle_example(g.n) if g.n >= 5 and g == cycle_complement(g.n) else None
    timings["cycle"] = clock() - start

    return EmbeddingCertificate(
        g, m, thresholds, unit, galois, relations, integrality_ok, positive_definite, density, probe, cycle,
        timings,
    )
