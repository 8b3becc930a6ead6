"""Reflection generators, relations, trace identities, the compact conjugate,
and the end-to-end embedding certificate."""

from __future__ import annotations

import random
import sys
from fractions import Fraction

import pytest

from coxcert import (
    CoxeterDiagram,
    Poly,
    QuadElem,
    UnitValue,
    build_embedding_certificate,
    choose_unit,
    compact_conjugate_check,
    cycle_complement,
    evaluate_pencil,
    expected_trace,
    fundamental_pell,
    generators_integral,
    minor_polynomials,
    verify_relations,
)
from coxcert import vinberg
from coxcert.errors import Disconnected, IndexOutOfRange, SameVertex
from coxcert.exactcore import leading_principal_minors, quad_sign
from coxcert.exactcore.linalg import bareiss_det, mat_mul
from coxcert.gram import pencil_at
from coxcert.vinberg import (
    GeneratorSet,
    RelationReport,
    reflection_actions,
    reflection_generators,
    times_reflection,
    trace_polynomial,
)

from _relations_oracle import (
    conjugate_matrix,
    conjugates_to_tau,
    dense_relations,
    integral_at,
    mat_eq,
    relations_at,
    transpose,
)
from _suite import acceptance_suite, random_connected_diagram, suite_thresholds, suite_unit

F = Fraction

K3 = CoxeterDiagram(3, frozenset({(1, 2), (1, 3), (2, 3)}))
P3 = CoxeterDiagram(3, frozenset({(1, 2), (2, 3)}))


def _identity(n):
    return tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n))


def _dense_reflection(form, i):
    """R_i = I - 2 e_i m_i^T with m_i the i-th column of M_t, entry by entry."""
    n = len(form)
    zero = form[0][0] * 0
    one = zero + 1
    return tuple(
        tuple((one if c == r else zero) - (2 * form[c][i] if r == i else zero) for c in range(n))
        for r in range(n)
    )


def test_generator_rows_pinned():
    gs = reflection_generators(P3, 2)
    r2 = gs.matrices[1]
    # row 2 of R_2: -1 on the diagonal, 2t = 4 at both neighbors
    assert r2[1] == (F(4), F(-1), F(4))
    assert r2[0] == (F(1), F(0), F(0))
    assert r2[2] == (F(0), F(0), F(1))
    # vertex 1 and 3 commute, so R_1 touches only column/row pattern of vertex 2
    r1 = gs.matrices[0]
    assert r1[0] == (F(-1), F(4), F(0))


def test_relations_hold_at_integer_and_quadratic_points():
    alpha = choose_unit(2, 3).value
    for g in (K3, P3, cycle_complement(5)):
        for t in (1, 2, F(7, 3), alpha):
            rel = relations_at(reflection_generators(g, t))
            assert rel.ok
            assert rel.failures == ()


def test_zd_verdicts_match_the_point_oracle():
    for name, g in acceptance_suite():
        rel = verify_relations(g)
        assert rel.failures == () and rel.traces_ok, name
        zd = (rel.involutions_ok, rel.commutations_ok, rel.orthogonality_ok)
        d_value = suite_thresholds(name, g).d_value
        for t in (F(d_value), F(7, 3), suite_unit(name, g, 2).value):
            at_t = relations_at(reflection_generators(g, t))
            assert zd == (at_t.involutions_ok, at_t.commutations_ok, at_t.orthogonality_ok), (name, t)
            assert at_t.failures == (), (name, t)


def test_conjugating_the_generators_at_alpha_gives_those_at_tau():
    for m in (2, 3, 5):
        for name, g in acceptance_suite():
            assert conjugates_to_tau(g, suite_unit(name, g, m).value), (name, m)


def test_a_wrong_neighbour_coefficient_flips_the_verdicts(monkeypatch):
    original = vinberg.reflection_actions

    def off_by_one_at_vertex_1(g, t):
        actions = original(g, t)
        col, neighbor_cols, two_t = actions[1]
        actions[1] = (col, neighbor_cols, two_t + 1)
        return actions

    g = cycle_complement(6)
    assert build_embedding_certificate(g).passed
    monkeypatch.setattr(vinberg, "reflection_actions", off_by_one_at_vertex_1)
    rel = verify_relations(g)
    assert not rel.orthogonality_ok and not rel.traces_ok
    cert = build_embedding_certificate(g)
    assert not (cert.verdicts()["relations_ok"] and cert.verdicts()["orthogonality_ok"])
    assert not cert.passed


# cc32, P32, rand32/0.05 and rand32/0.7
WIDE = [cycle_complement(32), CoxeterDiagram(32, frozenset((i, i + 1) for i in range(1, 32)))] + [
    random_connected_diagram(random.Random(s), 32, p) for s, p in ((3, 0.05), (2, 0.7))
]


def test_rank_one_relations_match_the_dense_products():
    for g in [g for _, g in acceptance_suite()] + WIDE:
        assert verify_relations(g) == dense_relations(g), g


def _mutated_actions(original, vertex, kind):
    """reflection_actions with vertex's action changed one way."""

    def mutated(g, t):
        actions = original(g, t)
        col, neighbor_cols, two_t = actions[vertex]
        others = [k for k in range(g.n) if k != col and k not in neighbor_cols]
        actions[vertex] = {
            "2t+1": (col, neighbor_cols, two_t + 1),
            "-2t": (col, neighbor_cols, -two_t),
            "0": (col, neighbor_cols, 0),
            "drop a neighbour": (col, neighbor_cols[1:], two_t),
            "add a column": (col, neighbor_cols + tuple(others[:1]), two_t),
            "add its own column": (col, neighbor_cols + (col,), two_t),
            "move the column": ((col + 1) % g.n, neighbor_cols, two_t),
            "the identity": (col, (col,), 2),  # -e_c + 2 e_c: R_i = I, u = 0
        }[kind]
        return actions

    return mutated


def test_rank_one_relations_match_the_dense_products_on_mutants(monkeypatch):
    kinds = (
        "2t+1",
        "-2t",
        "0",
        "drop a neighbour",
        "add a column",
        "add its own column",
        "move the column",
        "the identity",
    )
    diagrams = [K3, P3, cycle_complement(6), cycle_complement(8), random_connected_diagram(random.Random(5), 7, 0.3)]
    original = vinberg.reflection_actions
    broken = set()
    for g in diagrams:
        for vertex in g.vertices:
            for kind in kinds:
                monkeypatch.setattr(vinberg, "reflection_actions", _mutated_actions(original, vertex, kind))
                rel = verify_relations(g)
                assert rel == dense_relations(g), (g, vertex, kind)
                broken.add(frozenset(k for k, _, _ in rel.failures) - {"trace"})
    # one mutant breaks an involution, one a commutation, one orthogonality alone
    assert any("involution" in failed for failed in broken)
    assert any("commutation" in failed for failed in broken)
    assert frozenset({"orthogonality"}) in broken


def test_relations_read_the_form_off_the_diagram(monkeypatch):
    # verify_relations reads column c of M at 2^64 off c's mask: with the one
    # M_t function refusing, it returns the dense products' report, failures
    # included, on the true actions and on four mutants at vertex 5, which
    # between them fail every kind of relation
    def refusing(g, t):
        raise AssertionError("pencil_at called")

    original = vinberg.reflection_actions
    for g in (WIDE[1], WIDE[2], cycle_complement(8)):  # P32, rand32/0.05, cc8
        for kind in (None, "-2t", "add a column", "move the column", "the identity"):
            if kind is not None:
                monkeypatch.setattr(vinberg, "reflection_actions", _mutated_actions(original, 5, kind))
            expected = dense_relations(g)
            with monkeypatch.context() as refused:
                refused.setattr("coxcert.gram.pencil_at", refusing)
                assert verify_relations(g) == expected, (g, kind)
        monkeypatch.setattr(vinberg, "reflection_actions", original)


def test_relations_and_traces_multiply_no_matrix(monkeypatch):
    def refusing(a, action):
        raise AssertionError("times_reflection called")

    g = cycle_complement(8)
    monkeypatch.setattr(vinberg, "times_reflection", refusing)
    assert verify_relations(g) == RelationReport(True, True, True, True, ())
    assert trace_polynomial(g, 1, 3) == Poly((4, 0, 4))  # an edge: 4d^2 - 4 + 8


def test_relations_evaluate_the_trace_closed_form_once_per_kind_of_pair(monkeypatch):
    # cc8 has 28 pairs, commuting and not; the closed form depends only on which
    calls, closed_form = [], vinberg.expected_trace
    monkeypatch.setattr(vinberg, "expected_trace", lambda g, i, j: calls.append((i, j)) or closed_form(g, i, j))
    assert verify_relations(cycle_complement(8)) == RelationReport(True, True, True, True, ())
    assert len(calls) <= 2


def test_rank_one_action_matches_dense_products():
    for name, g in acceptance_suite():
        d_value = suite_thresholds(name, g).d_value
        for t in (F(d_value), F(7, 3), suite_unit(name, g, 2).value):
            gs = reflection_generators(g, t)
            dense = [_dense_reflection(gs.form, i) for i in range(g.n)]
            assert all(mat_eq(r, d) for r, d in zip(gs.matrices, dense)), (name, t)
            actions = reflection_actions(g, t)
            for i, r_i in enumerate(dense, start=1):
                for a in (*dense, gs.form):
                    assert mat_eq(times_reflection(a, actions[i]), mat_mul(a, r_i)), (name, t, i)


def test_relations_flag_a_stored_matrix_from_another_point():
    g = cycle_complement(8)
    gs = reflection_generators(g, 2)
    swapped = (reflection_generators(g, 3).matrices[0],) + gs.matrices[1:]
    rel = relations_at(GeneratorSet(g, gs.t, gs.form, swapped))
    assert not rel.ok
    assert ("generator", 1, 1) in rel.failures


def test_involution_directly():
    gs = reflection_generators(K3, 2)
    n = K3.n
    for r in gs.matrices:
        assert mat_eq(mat_mul(r, r), _identity(n))


def test_form_preservation_directly():
    gs = reflection_generators(cycle_complement(5), 3)
    for r in gs.matrices:
        assert mat_eq(mat_mul(mat_mul(transpose(r), gs.form), r), gs.form)


def test_commuting_pairs_square_to_identity():
    g = P3
    gs = reflection_generators(g, 5)
    r1, r3 = gs.matrices[0], gs.matrices[2]
    prod = mat_mul(r1, r3)
    assert mat_eq(mat_mul(prod, prod), _identity(3))


def test_integrality_at_units_but_not_at_half():
    alpha = choose_unit(2, 3).value
    assert generators_integral(K3, alpha)
    assert generators_integral(K3, 7)
    assert not generators_integral(K3, F(1, 3))


def test_integrality_from_the_action_matches_the_matrix_oracle():
    # At t = 1/2 and t = (1 + sqrt 5)/2 the point is not integral but 2t is.
    points = [7, F(1, 3), F(1, 2), QuadElem(F(1, 2), F(1, 2), 5), QuadElem(1, F(1, 3), 2)]
    verdicts = set()
    for name, g in acceptance_suite():
        for t in [suite_unit(name, g, m).value for m in (2, 3, 5)] + points:
            verdict = generators_integral(g, t)
            assert verdict == integral_at(reflection_generators(g, t)), (name, t)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_a_non_integral_coefficient_at_alpha_flips_integrality(monkeypatch):
    original = vinberg.reflection_actions

    def half_off_at_vertex_2(g, t):
        actions = original(g, t)
        if isinstance(t, QuadElem):
            col, neighbor_cols, two_t = actions[2]
            actions[2] = (col, neighbor_cols, two_t + F(1, 2))
        return actions

    g = cycle_complement(6)
    assert build_embedding_certificate(g).integrality_ok
    monkeypatch.setattr(vinberg, "reflection_actions", half_off_at_vertex_2)
    cert = build_embedding_certificate(g)
    assert cert.verdicts()["relations_ok"] and cert.verdicts()["orthogonality_ok"]
    assert not cert.integrality_ok
    assert not cert.passed


def test_the_pipeline_evaluates_no_matrix_over_the_quadratic_field(monkeypatch):
    """Only the scalars alpha and tau are quadratic: no M_alpha, no R_i(alpha)."""
    originals = {"reflection_generators": reflection_generators, "evaluate_pencil": evaluate_pencil}
    originals["pencil_at"] = pencil_at  # the one definition of M_t, which evaluate_pencil calls

    def refusing(name):
        def at_rational_points_only(first, t, *rest):
            if isinstance(t, QuadElem):
                raise AssertionError(f"{name} called at {t}")
            return originals[name](first, t, *rest)

        return at_rational_points_only

    patched = set()
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "coxcert" or mod_name.startswith("coxcert."):
            for name, original in originals.items():
                if vars(module).get(name) is original:
                    monkeypatch.setattr(module, name, refusing(name))
                    patched.add((mod_name, name))
    # The defining modules and their users; the package namespace binds no
    # such name, its __getattr__ reads them from coxcert.gram and coxcert.vinberg.
    assert patched == {
        ("coxcert.gram", "evaluate_pencil"),
        ("coxcert.gram", "pencil_at"),
        ("coxcert.cyclecheck", "pencil_at"),
        ("coxcert.vinberg", "evaluate_pencil"),
        ("coxcert.vinberg", "reflection_generators"),
    }
    for name, g in acceptance_suite():
        cert = build_embedding_certificate(g)
        assert cert.passed and cert.integrality_ok, name


def test_trace_polynomial_pinned():
    assert trace_polynomial(K3, 1, 2) == Poly((-1, 0, 4))  # 4d^2 - 4 + 3
    assert trace_polynomial(P3, 1, 3) == Poly((-1,))  # commuting pair, n = 3
    cc5 = cycle_complement(5)
    assert trace_polynomial(cc5, 1, 3) == Poly((1, 0, 4))  # 4d^2 - 4 + 5
    assert trace_polynomial(cc5, 1, 2) == Poly((1,))  # commuting pair, n = 5


def test_trace_identity_all_pairs():
    for g in (K3, P3, cycle_complement(5), cycle_complement(6)):
        for i in range(1, g.n + 1):
            for j in range(i + 1, g.n + 1):
                assert trace_polynomial(g, i, j) == expected_trace(g, i, j)


def test_trace_polynomial_rejects_equal_vertices():
    with pytest.raises(SameVertex):
        trace_polynomial(K3, 2, 2)


def test_trace_polynomial_rejects_vertices_outside_the_diagram():
    for i, j in ((0, 1), (-1, 2), (1, 4), (4, 1)):
        with pytest.raises(IndexOutOfRange):
            expected_trace(K3, i, j)
        with pytest.raises(IndexOutOfRange):
            trace_polynomial(K3, i, j)


def test_compact_conjugate_check():
    u = choose_unit(2, 3)
    tau = u.value.conjugate()
    assert tau == QuadElem(3, -2, 2)
    assert compact_conjugate_check(K3, u)
    # the conjugate generators preserve M_tau, and the conjugated form is the
    # pencil evaluated at tau(alpha)
    assert relations_at(reflection_generators(K3, tau)).orthogonality_ok
    conj_form = conjugate_matrix(evaluate_pencil(K3, u.value))
    assert mat_eq(conj_form, evaluate_pencil(K3, tau))


def test_minors_at_tau_are_the_minor_polynomials_evaluated():
    for m in (2, 3, 5):
        for name, g in acceptance_suite():
            tau = suite_unit(name, g, m).value.conjugate()
            conj_form = evaluate_pencil(g, tau)
            at_tau = [p(tau) for p in minor_polynomials(g)]
            assert at_tau == leading_principal_minors(conj_form), (name, m)


def test_conjugate_form_indefinite_above_epsilon():
    # tau = sqrt(2) - 1 lies above cc8's positive-definite radius 1/5.
    g = cycle_complement(8)
    assert not compact_conjugate_check(g, UnitValue(fundamental_pell(2), 1, QuadElem(1, 1, 2)))
    # Bareiss oracle, one block at a time: the 7th leading minor vanishes at
    # this tau, so the one-pass elimination of leading_principal_minors stops
    form = evaluate_pencil(g, QuadElem(1, -1, 2))
    blocks = [bareiss_det(tuple(row[:k] for row in form[:k])) for k in range(1, len(form) + 1)]
    assert not all(quad_sign(p) > 0 for p in blocks)
    assert blocks[6] == 0
    with pytest.raises(ValueError, match="leading minor 7 vanishes"):
        leading_principal_minors(form)


def test_the_read_off_definiteness_matches_the_oracle():
    # The certificate reads M_tau's definiteness off epsilon's check and the
    # Galois bound; the oracle decides it from the minors at tau in Q(sqrt(m)).
    for g, m in [(g, m) for m in (2, 3, 5) for _, g in acceptance_suite()] + [(g, 2) for g in WIDE]:
        cert = build_embedding_certificate(g, m=m, probe_len=0)
        assert cert.verdicts()["conj_form_positive_definite"] == compact_conjugate_check(g, cert.unit), (g, m)


def test_certificate_end_to_end_k3():
    cert = build_embedding_certificate(K3)
    assert cert.passed
    assert cert.m == 2
    assert cert.thresholds.d_value == 1
    assert cert.thresholds.epsilon < F(1, 2)
    assert cert.unit.value == QuadElem(1, 1, 2)
    assert cert.thresholds.signature.p >= 1 and cert.thresholds.signature.q >= 1
    assert cert.verdicts()["density_ok"]
    assert "cycle_example_ok" not in cert.verdicts()


def test_certificate_cycle_member_includes_cycle_check():
    cert = build_embedding_certificate(cycle_complement(5), m=5)
    assert cert.passed
    assert cert.verdicts()["cycle_example_ok"] is True
    assert cert.unit.base.m == 5


def test_only_cycle_complements_get_a_cycle_report(monkeypatch):
    # The edge count n(n - 3)/2 is compared first; K3,3 has cc6's 9 edges and
    # is not cc6 (it is bipartite, and cc6 holds triangles), and P6 has 5.
    built, build = [], vinberg.cycle_complement
    monkeypatch.setattr(vinberg, "cycle_complement", lambda n: built.append(n) or build(n))
    k33 = CoxeterDiagram(6, frozenset((i, j) for i in (1, 2, 3) for j in (4, 5, 6)))
    assert len(k33.edges) == 9 and k33 != build(6)
    assert build_embedding_certificate(k33).cycle is None
    assert build_embedding_certificate(CoxeterDiagram(6, frozenset((i, i + 1) for i in range(1, 6)))).cycle is None
    assert built == [6]
    for n in range(5, 13):
        assert build_embedding_certificate(build(n)).cycle.n == n


def test_certificate_deterministic():
    a = build_embedding_certificate(P3)
    b = build_embedding_certificate(P3)
    assert a.thresholds.epsilon == b.thresholds.epsilon
    assert a.unit.value == b.unit.value
    assert a.density.dimension_trace == b.density.dimension_trace
    assert a.verdicts() == b.verdicts()


def test_certificate_rejects_disconnected():
    with pytest.raises(Disconnected):
        build_embedding_certificate(CoxeterDiagram(4, frozenset({(1, 2), (3, 4)})))


def test_alpha_clears_both_bounds():
    for g in (K3, P3, cycle_complement(5)):
        for m in (2, 3, 5):
            cert = build_embedding_certificate(g, m=m)
            bound = max(1 / cert.thresholds.epsilon, F(cert.thresholds.d_value))
            assert quad_sign(cert.unit.value - bound) >= 0
            assert cert.galois.product in (1, -1)
