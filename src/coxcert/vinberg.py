"""Reflection generators, their relations, and the embedding certificate.

For an evaluation point t the generator attached to vertex i is the
reflection R_i = I - 2 e_i m_i^T where m_i is the i-th column of M_t.  It is
defined once, by its rank-one right action: A * R_i negates column i of A
and adds 2t * (old column i) to each neighbor column.  The generators are
that action applied to I, and every product the checks need runs through
it: R_i^2 = I, (R_i R_j)^2 = I on commuting pairs, R_i^T M_t R_i = M_t, and
tr(R_i R_j) over Q[d].

The embedding certificate bundles every exact verdict for one diagram and
one quadratic ring: thresholds, the chosen unit alpha with its Galois
checks, generator relations at alpha, integrality, compactness of the
conjugate form (its leading minors are the pencil's minor polynomials at
tau), the trace identity as a polynomial identity in d, a Lie bracket
density check at t = D, and a short faithfulness probe.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations
from fractions import Fraction

from .diagram import CoxeterDiagram, cycle_complement, is_connected
from .errors import Disconnected, SameVertex, VerificationFailed
from .exactcore import (
    Interval,
    Matrix,
    Poly,
    QuadElem,
    Signature,
    mat_eq,
    quad_sign,
    transpose,
)
from .gram import (
    d_threshold,
    epsilon_threshold,
    evaluate_pencil,
    gram_pencil,
    minor_polynomials,
    stable_signature,
)
from .units import GaloisReport, PellSolution, UnitValue, choose_unit, galois_pair_check


@dataclass(frozen=True)
class GeneratorSet:
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


def _identity_like(a: Matrix) -> Matrix:
    zero = a[0][0] * 0
    one = zero + 1
    n = len(a)
    return tuple(tuple(one if c == r else zero for c in range(n)) for r in range(n))


def reflection_generators(g: CoxeterDiagram, t) -> GeneratorSet:
    """One reflection per vertex at the exact evaluation point t."""
    form = evaluate_pencil(gram_pencil(g), t)
    ident = _identity_like(form)
    actions = reflection_actions(g, t)
    return GeneratorSet(g, t, form, tuple(times_reflection(ident, actions[i]) for i in g.vertices))


def _preserves(form: Matrix, action) -> bool:
    """R^T M R = M, computed as ((M R)^T R)^T without assuming M symmetric."""
    moved = times_reflection(transpose(times_reflection(form, action)), action)
    return mat_eq(transpose(moved), form)


@dataclass(frozen=True)
class RelationReport:
    """Exact verdicts for the defining relations and form preservation."""

    involutions_ok: bool
    commutations_ok: bool
    orthogonality_ok: bool
    failures: tuple

    @property
    def ok(self) -> bool:
        return self.involutions_ok and self.commutations_ok and self.orthogonality_ok


def verify_relations(gs: GeneratorSet) -> RelationReport:
    """Check R_i^2 = I, (R_i R_j)^2 = I for commuting pairs, R^T M R = M.

    The products run through the action of (diagram, t), so each stored
    matrix is first compared with that action applied to I; a mismatch is a
    ("generator", i, i) failure and fails all three verdicts.
    """
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
    return RelationReport(
        defined and "involution" not in kinds,
        defined and "commutation" not in kinds,
        defined and "orthogonality" not in kinds,
        tuple(failures),
    )


def generators_integral(gs: GeneratorSet) -> bool:
    """True when every generator entry lies in Z[sqrt(m)] (or Z over Q)."""
    for mat_ in gs.matrices:
        for row in mat_:
            for x in row:
                if isinstance(x, QuadElem):
                    if not x.is_integral():
                        return False
                elif Fraction(x).denominator != 1:
                    return False
    return True


def trace_polynomial(g: CoxeterDiagram, i: int, j: int) -> Poly:
    """tr(R_i R_j) as an exact polynomial in d."""
    if i == j:
        raise SameVertex(f"need two distinct vertices, got {i} twice")
    actions = reflection_actions(g, Poly((Fraction(0), Fraction(1))))
    product = times_reflection(
        times_reflection(_identity_like(gram_pencil(g).entries), actions[i]), actions[j]
    )
    total = Poly()
    for c in range(g.n):
        total = total + product[c][c]
    return total


def expected_trace(g: CoxeterDiagram, i: int, j: int) -> Poly:
    """n - 4 + 4 M_ij(d)^2: the closed form the trace must equal."""
    if i == j:
        raise SameVertex(f"need two distinct vertices, got {i} twice")
    n = g.n
    if g.adjacent(i, j):
        return Poly((Fraction(n - 4), Fraction(0), Fraction(4)))
    return Poly((Fraction(n - 4),))


@dataclass(frozen=True)
class CompactnessReport:
    """Galois-conjugated generators against the conjugated (definite) form."""

    tau: QuadElem
    conj_generators: tuple
    conj_form: Matrix
    form_preserved: tuple
    positive_definite: bool

    @property
    def ok(self) -> bool:
        return all(self.form_preserved) and self.positive_definite


def compact_conjugate_check(g: CoxeterDiagram, u: UnitValue) -> CompactnessReport:
    """Conjugate every generator coordinate-wise and certify the compact side.

    The conjugated generators must equal the reflections at tau and preserve
    M_tau, and M_tau must be positive-definite: its leading principal minors
    are the minor polynomials of the pencil evaluated at tau, each of whose
    signs is decided exactly in Q(sqrt(m)).
    """
    alpha = u.value
    tau = alpha.conjugate()
    gens = reflection_generators(g, alpha)
    conj_mats = tuple(
        tuple(tuple(x.conjugate() for x in row) for row in mat_) for mat_ in gens.matrices
    )
    direct = reflection_generators(g, tau)
    for built, mapped in zip(direct.matrices, conj_mats):
        if not mat_eq(built, mapped):
            raise VerificationFailed("Galois map disagrees with direct construction at tau")
    actions = reflection_actions(g, tau)
    preserved = tuple(_preserves(direct.form, actions[i]) for i in g.vertices)
    positive_definite = all(quad_sign(p(tau)) > 0 for p in minor_polynomials(gram_pencil(g)))
    return CompactnessReport(tau, conj_mats, direct.form, preserved, positive_definite)


@dataclass(frozen=True)
class EmbeddingCertificate:
    """All exact verdicts for one (diagram, m) pair, plus serializable data."""

    diagram: CoxeterDiagram
    m: int
    epsilon: Fraction
    rho_interval: Interval | None
    d_value: int
    largest_root_interval: Interval | None
    signature: Signature
    pell: PellSolution
    unit_power: int
    alpha: QuadElem
    galois: GaloisReport
    relations_ok: bool
    orthogonality_ok: bool
    integrality_ok: bool
    galois_product_unit: bool
    galois_conj_bounded: bool
    conj_form_positive_definite: bool
    trace_identity_ok: bool
    density_ok: bool
    density_trace: tuple
    faithfulness_passed: bool
    faithfulness_length: int
    faithfulness_t: Fraction
    cycle_example_ok: bool | None
    timings: dict

    def verdicts(self) -> dict:
        out = {
            "relations_ok": self.relations_ok,
            "orthogonality_ok": self.orthogonality_ok,
            "integrality_ok": self.integrality_ok,
            "galois_product_unit": self.galois_product_unit,
            "galois_conj_bounded": self.galois_conj_bounded,
            "conj_form_positive_definite": self.conj_form_positive_definite,
            "trace_identity_ok": self.trace_identity_ok,
            "density_ok": self.density_ok,
            "faithfulness_probe": self.faithfulness_passed,
        }
        if self.cycle_example_ok is not None:
            out["cycle_example_ok"] = self.cycle_example_ok
        return out

    @property
    def passed(self) -> bool:
        return all(self.verdicts().values())


def build_embedding_certificate(
    g: CoxeterDiagram, m: int = 2, probe_len: int = 4
) -> EmbeddingCertificate:
    """Run the whole pipeline for one diagram and one quadratic ring.

    Stages: thresholds -> unit choice -> Galois bound -> generator relations
    and integrality at alpha -> compact conjugate check -> bracket closure
    density at D -> trace identity over all pairs -> faithfulness probe.
    Deterministic: same (g, m) always yields an identical certificate.
    """
    from .liealg import bracket_closure_density
    from .words import faithfulness_probe

    if not is_connected(g):
        raise Disconnected("the embedding pipeline needs a connected diagram")
    timings: dict[str, float] = {}
    clock = time.perf_counter

    start = clock()
    pencil = gram_pencil(g)
    epsilon, rho_interval = epsilon_threshold(pencil)
    d_value, largest = d_threshold(pencil)
    sig = stable_signature(pencil)
    timings["thresholds"] = clock() - start

    start = clock()
    bound = max(Fraction(1) / epsilon, Fraction(d_value))
    unit = choose_unit(m, bound)
    galois = galois_pair_check(unit, epsilon)
    timings["unit"] = clock() - start

    start = clock()
    gens = reflection_generators(g, unit.value)
    relations = verify_relations(gens)
    integrality_ok = generators_integral(gens)
    timings["relations"] = clock() - start

    start = clock()
    compactness = compact_conjugate_check(g, unit)
    timings["compactness"] = clock() - start

    start = clock()
    density = bracket_closure_density(g, Fraction(d_value))
    timings["density"] = clock() - start

    start = clock()
    trace_identity_ok = all(
        trace_polynomial(g, i, j) == expected_trace(g, i, j)
        for i in range(1, g.n + 1)
        for j in range(i + 1, g.n + 1)
    )
    timings["traces"] = clock() - start

    start = clock()
    probe_t = Fraction(d_value)
    probe = faithfulness_probe(g, probe_t, probe_len)
    timings["faithfulness"] = clock() - start

    start = clock()
    cycle_ok: bool | None = None
    if g.n >= 5 and g == cycle_complement(g.n):
        from .cyclecheck import verify_cycle_example

        cycle_ok = verify_cycle_example(g.n).ok
    timings["cycle"] = clock() - start

    return EmbeddingCertificate(
        diagram=g,
        m=m,
        epsilon=epsilon,
        rho_interval=rho_interval,
        d_value=d_value,
        largest_root_interval=largest,
        signature=sig,
        pell=unit.base,
        unit_power=unit.k,
        alpha=unit.value,
        galois=galois,
        relations_ok=relations.involutions_ok and relations.commutations_ok,
        orthogonality_ok=relations.orthogonality_ok,
        integrality_ok=integrality_ok,
        galois_product_unit=galois.product_is_unit,
        galois_conj_bounded=galois.conj_bounded,
        conj_form_positive_definite=compactness.ok,
        trace_identity_ok=trace_identity_ok,
        density_ok=density.verdict,
        density_trace=tuple(density.dimension_trace),
        faithfulness_passed=probe.injective,
        faithfulness_length=probe_len,
        faithfulness_t=probe_t,
        cycle_example_ok=cycle_ok,
        timings=timings,
    )
