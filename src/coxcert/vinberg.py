"""Reflection generators, their relations, and the embedding certificate.

For an evaluation point t the generator attached to vertex i is the
reflection R_i = I - 2 e_i m_i^T where m_i is the i-th column of M_t.  It is
defined once, by its rank-one right action: A * R_i negates column i of A
and adds 2t * (old column i) to each neighbor column.  The generators are
that action applied to I.

Every entry of R_i(d) is an integer polynomial in d of degree at most 1, so
R_i^2 = I, (R_i R_j)^2 = I on commuting pairs, R_i^T M_d R_i = M_d and
tr(R_i R_j) = n - 4 + 4 M_ij(d)^2 are identities in Z[d].  verify_relations
reads each off the rank-one form R_i = I + e_c u^T in O(n), building no
matrix, in integers at d = 2^64, which separates every polynomial that
arises there; holding in Z[d], they hold at alpha and at tau alike.  R_i(t)
has entries 0, +-1 and 2t, so it is integral exactly when 2t is.  Nothing is
decided at tau: M_d is affine in d, epsilon's check makes M_(+-epsilon)
positive definite and |tau| <= epsilon, so M_tau is positive definite too.

The embedding certificate keeps the report of every stage for one diagram
and one quadratic ring: thresholds, the chosen unit alpha with its Galois
checks, the Z[d] identities, integrality at alpha, the Lie bracket density
trace at t = D (read off graph distances), the faithfulness probe (sphere
sizes, faithful by Vinberg's theorem at t = D >= 1) and, for a cycle
complement, its closed-form checks.
"""

from __future__ import annotations

import time
from itertools import combinations
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .diagram import CoxeterDiagram, cycle_complement, is_connected
from .errors import InputError
from .exactcore import Poly, QuadElem, quad_sign
from .exactcore.poly import poly_from_balanced_digits
from .gram import ThresholdReport, evaluate_pencil, minor_polynomials, threshold_report
from .liealg import DensityCertificate, bracket_closure_density
from .units import GaloisReport, UnitValue, choose_unit, galois_pair_check
from .words import FaithfulnessReport, faithfulness_probe

if TYPE_CHECKING:  # cyclecheck loads only for a cycle complement
    from .cyclecheck import CycleReport


class GeneratorSet(NamedTuple):
    """Reflection matrices for every vertex, plus the form they preserve."""

    diagram: CoxeterDiagram
    t: object
    form: tuple
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
    form = evaluate_pencil(g, t)
    ident = evaluate_pencil(g, t * 0)  # M_0 = I, in t's ring
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


def _rank_one_forms(g: CoxeterDiagram) -> dict:
    """Per vertex i: (c, u) with R_i(2^64) = I + e_c u^T, c the action's column, u = e_c R_i - e_c."""
    forms = {}
    for i, action in reflection_actions(g, _POINT).items():
        e_c = tuple(int(k == action[0]) for k in range(g.n))
        forms[i] = action[0], tuple(r - e for r, e in zip(reflect_row(e_c, action), e_c))
    return forms


def _pair_trace(n: int, first: tuple, second: tuple) -> int:
    """tr R_i R_j = n + u_a + w_b + u_b w_a, for R_i = I + e_a u^T and R_j = I + e_b w^T."""
    (a, u), (b, w) = first, second
    return n + u[a] + w[b] + u[b] * w[a]


def _pair_squares_to_identity(first: tuple, second: tuple) -> bool:
    """(R_i R_j)^2 = I.  R_i R_j = I + e_a x^T + e_b w^T with x = u + u_b w, so
    (R_i R_j)^2 - I = e_a ((2 + x_a) x + x_b w)^T + e_b (w_a x + (2 + w_b) w)^T."""
    (a, u), (b, w) = first, second
    x = tuple(p + u[b] * q for p, q in zip(u, w))
    row_a = tuple((2 + x[a]) * p + x[b] * q for p, q in zip(x, w))
    row_b = tuple(w[a] * p + (2 + w[b]) * q for p, q in zip(x, w))
    if a == b:  # both rows land in row a
        return not any(p + q for p, q in zip(row_a, row_b))
    return not any(row_a + row_b)


def verify_relations(g: CoxeterDiagram) -> RelationReport:
    """Check R_i^2 = I, R_i^T M_d R_i = M_d, and per pair P = R_i R_j.

    Each is an identity in Z[d], decided at d = 2^64 on R_i = I + e_c u^T:
    R_i^2 = I + (2 + u_c) e_c u^T, and R_i^T M R_i = M + u m^T + m u^T + M_cc u u^T
    is M iff u = 0 or 2m + u = 0, as M_cc = 1; m, column c of M, is read off c's
    mask.  Per pair i < j, P^2 = I on commuting pairs, and tr P =
    expected_trace(g, i, j) on all pairs.  The closed form depends on the pair
    only through whether it commutes, so it is evaluated once for each of the
    two kinds of pair.
    """
    forms = _rank_one_forms(g)
    traces: dict = {}  # g.commutes(i, j) -> expected_trace(g, i, j)(2^64)
    failures = []
    for i, (c, u) in forms.items():
        if not any(u):
            continue
        if u[c] != -2:
            failures.append(("involution", i, i))
        mask = g.noncommuting_masks[c + 1]
        column = (1 if r == c else -_POINT * (mask >> r + 1 & 1) for r in range(g.n))  # m, at 2^64
        if any(2 * x + v for x, v in zip(column, u)):
            failures.append(("orthogonality", i, i))
    for i, j in combinations(g.vertices, 2):
        commute = g.commutes(i, j)
        if commute and not _pair_squares_to_identity(forms[i], forms[j]):
            failures.append(("commutation", i, j))
        if commute not in traces:
            traces[commute] = expected_trace(g, i, j)(_POINT)
        if _pair_trace(g.n, forms[i], forms[j]) != traces[commute]:
            failures.append(("trace", i, j))
    kinds = {kind for kind, _, _ in failures}
    verdicts = (kind not in kinds for kind in ("involution", "commutation", "orthogonality", "trace"))
    return RelationReport(*verdicts, tuple(failures))


def generators_integral(g: CoxeterDiagram, t) -> bool:
    """True when every R_i(t) (entries 0, +-1 and the action's 2t) is integral: over Z[sqrt(m)], or Z over Q."""
    return all(
        two_t.is_integral() if isinstance(two_t, QuadElem) else Fraction(two_t).denominator == 1
        for _, neighbor_cols, two_t in reflection_actions(g, t).values()
        if neighbor_cols
    )


def trace_polynomial(g: CoxeterDiagram, i: int, j: int) -> Poly:
    """tr(R_i R_j) as an integer polynomial in d."""
    expected_trace(g, i, j)  # raises on i == j or an index outside 1..n, as the closed form does
    forms = _rank_one_forms(g)
    return poly_from_balanced_digits(_pair_trace(g.n, forms[i], forms[j]), _BITS)


def expected_trace(g: CoxeterDiagram, i: int, j: int) -> Poly:
    """n - 4 + 4 M_ij(d)^2: the closed form the trace must equal."""
    if i == j:
        raise ValueError(f"need two distinct vertices, got {i} twice")
    return Poly((g.n - 4,) if g.commutes(i, j) else (g.n - 4, 0, 4))


def compact_conjugate_check(g: CoxeterDiagram, u: UnitValue) -> bool:
    """True when M_tau is positive-definite, tau the Galois conjugate of alpha.

    This is the exact oracle; production reads the verdict off epsilon's
    check and the Galois bound.  The leading principal minors of M_tau are
    the pencil's minor polynomials evaluated at tau, each of whose signs is
    decided exactly in Q(sqrt(m)).  That the conjugate generators preserve
    M_tau is the Z[d] orthogonality of verify_relations.
    """
    tau = u.value.conjugate()
    return all(quad_sign(p(tau)) > 0 for p in minor_polynomials(g))


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
            "conj_form_positive_definite": relations.orthogonality_ok and self.galois.conj_bounded,
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

    Stages: thresholds -> unit choice -> Galois bound (with epsilon's check,
    M_tau positive definite) -> relations, orthogonality and traces over
    Z[d], integrality at alpha -> density trace at D -> faithfulness probe
    -> the exact cycle-complement checks (no float spectrum).
    Deterministic: same (g, m) always yields an identical certificate.
    """
    if not is_connected(g):
        raise InputError("the embedding pipeline needs a connected diagram")
    timings: dict[str, float] = {}
    clock = time.perf_counter

    start = clock()
    thresholds = threshold_report(g)
    timings["thresholds"] = clock() - start

    start = clock()
    unit = choose_unit(m, max(1 / thresholds.epsilon, thresholds.d_value))
    galois = galois_pair_check(unit, thresholds.epsilon)
    timings["unit"] = clock() - start

    start = clock()
    relations = verify_relations(g)
    integrality_ok = generators_integral(g, unit.value)
    timings["relations"] = clock() - start

    start = clock()
    density = bracket_closure_density(g, thresholds.d_value)
    timings["density"] = clock() - start

    start = clock()
    probe = faithfulness_probe(g, thresholds.d_value, probe_len)
    timings["faithfulness"] = clock() - start

    start = clock()
    cycle = None
    if g.n >= 5 and len(g.edges) == g.n * (g.n - 3) // 2 and g == cycle_complement(g.n):
        from .cyclecheck import verify_cycle_example

        cycle = verify_cycle_example(g, thresholds.d_value)
    timings["cycle"] = clock() - start

    return EmbeddingCertificate(g, m, thresholds, unit, galois, relations, integrality_ok, density, probe, cycle, timings)
