"""Planar Lie-algebra generators, the density trace, and edge-plane dynamics.

The closed-form generators are pinned against the nullspace solver of
_liealg_oracle, and the closed-form density trace (pairs counted by graph
distance) against its two bracket closures: the n-by-n matrix closure and
the sparse closure in antisymmetric coordinates.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coxcert import (
    CoxeterDiagram,
    QuadElem,
    bracket_closure_density,
    cycle_complement,
    d_threshold,
    evaluate_pencil,
    minor_polynomials,
    serialize_diagram,
)
from coxcert.cli import main
from coxcert.errors import DegenerateForm, Disconnected, SameVertex
from coxcert.exactcore.linalg import bareiss_det, mat_mul, rref
from coxcert.liealg import planar_generator
from coxcert.vinberg import reflection_generators

from _liealg_oracle import (
    _bracket,
    _Echelon,
    full_basis_check,
    hyperbolic_plane_check,
    mat_vec,
    NotAnEdge,
    oracle_density_trace,
    orthocomplement_basis,
    solve_planar_generator,
    sparse_density_trace,
    verify_planar,
)
from _suite import acceptance_suite, random_connected_diagram

F = Fraction

K3 = CoxeterDiagram(3, frozenset({(1, 2), (1, 3), (2, 3)}))
P3 = CoxeterDiagram(3, frozenset({(1, 2), (2, 3)}))
SUITE = acceptance_suite()


def _identity(n):
    return tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n))


def _d_value(g):
    return F(d_threshold(g)[0])


def _pairs(n):
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def test_elementary_skew_for_identity_form():
    # with M = I the solution is the elementary antisymmetric matrix
    x = planar_generator(_identity(3), 1, 2)
    assert x == (
        (F(0), F(1), F(0)),
        (F(-1), F(0), F(0)),
        (F(0), F(0), F(0)),
    ) or x == (
        (F(0), F(-1), F(0)),
        (F(1), F(0), F(0)),
        (F(0), F(0), F(0)),
    )
    # sign normalization makes it deterministic: leading entry positive
    assert x[0][1] == F(1)


def test_planar_generator_satisfies_defining_equations():
    m = evaluate_pencil(K3, 1)
    for (i, j) in ((1, 2), (1, 3), (2, 3)):
        verify_planar(m, planar_generator(m, i, j), orthocomplement_basis(m, i, j))


@pytest.mark.parametrize("point", ["D", F(3, 7)], ids=["at_D", "at_3_7"])
def test_planar_generator_matches_solver(point):
    for name, g in SUITE:
        t = _d_value(g) if point == "D" else point
        m = evaluate_pencil(g, t)
        for i, j in _pairs(g.n):
            assert planar_generator(m, i, j) == solve_planar_generator(m, i, j), (name, i, j)


def test_planar_generator_proportional_to_solver_at_quadratic_point():
    # Over Q(sqrt 2) the solver takes about 45 s on the whole suite and
    # about 1 s on the members with at most four vertices.
    t = QuadElem(3, 2, 2)  # 3 + 2 sqrt 2
    for name, g in SUITE:
        if g.n > 4:
            continue
        m = evaluate_pencil(g, t)
        for i, j in _pairs(g.n):
            x = [v for row in planar_generator(m, i, j) for v in row]
            y = [v for row in solve_planar_generator(m, i, j) for v in row]
            k = next(k for k, v in enumerate(y) if v != 0)
            ratio = x[k] / y[k]
            assert all(a == ratio * b for a, b in zip(x, y)), (name, i, j)


def test_planar_generator_primitive_and_canonical():
    m = evaluate_pencil(cycle_complement(5), 2)
    x = planar_generator(m, 2, 5)
    flat = [v for row in x for v in row]
    from math import gcd

    nums = [abs(v.numerator) for v in flat]
    dens = [v.denominator for v in flat]
    assert set(dens) == {1}
    g = 0
    for v in nums:
        g = gcd(g, v)
    assert g == 1
    lead = next(v for v in flat if v != 0)
    assert lead > 0


def test_planar_generator_rejects_degenerate_form():
    # K3 pencil determinant vanishes at d = 1/2
    m = evaluate_pencil(K3, F(1, 2))
    with pytest.raises(DegenerateForm):
        planar_generator(m, 1, 2)


def test_planar_generator_rejects_same_vertex():
    with pytest.raises(SameVertex):
        planar_generator(_identity(3), 2, 2)


def test_orthocomplement_dimension():
    m = evaluate_pencil(cycle_complement(5), 3)
    basis = orthocomplement_basis(m, 1, 4)
    assert len(basis) == 3
    for v in basis:
        assert mat_vec(m, v)[0] == 0
        assert mat_vec(m, v)[3] == 0


def test_full_basis_check():
    for g, t in ((K3, 1), (P3, 2), (cycle_complement(5), 2)):
        m = evaluate_pencil(g, t)
        rep = full_basis_check(m)
        assert rep.ok
        assert rep.expected == g.n * (g.n - 1) // 2


def test_density_pinned_traces():
    cert = bracket_closure_density(P3, 2)
    assert cert.dimension_trace == (2, 3)
    assert cert.verdict

    cert = bracket_closure_density(K3, 1)
    assert cert.dimension_trace == (3,)
    assert cert.verdict

    cert = bracket_closure_density(cycle_complement(5), 2)
    assert cert.dimension_trace == (5, 10)
    assert cert.dimension_trace[-1] == cert.full_dimension == 10
    assert cert.verdict


def test_density_seed_pairs_are_edges(tmp_path, capsys):
    # `coxcert density` prints the seed pairs off the diagram it read
    path = tmp_path / "p3.diagram"
    path.write_text(serialize_diagram(P3))
    assert main(["density", str(path), "--d", "2"]) == 0
    assert "seed pairs: (1,2) (2,3)\n" in capsys.readouterr().out


def test_bracket_coordinates_match_matrix_commutator():
    # [S M, T M] = C M, with C read off the coordinates _bracket returns.
    rng = random.Random(7)
    for name, g in SUITE[:8]:
        n = g.n
        form = [[int(x) for x in row] for row in evaluate_pencil(g, 3)]
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]

        def dense(coords):
            full = [[0] * n for _ in range(n)]
            for (a, b), c in coords.items():
                full[a][b], full[b][a] = c, -c
            return tuple(map(tuple, full))

        for _ in range(3):
            s, t = ({p: c for p in pairs if (c := rng.randint(-3, 3))} for _ in range(2))
            c = _bracket(s, t, form)
            assert all(a < b and x for (a, b), x in c.items()), name
            sm, tm = mat_mul(dense(s), form), mat_mul(dense(t), form)
            commutator = [
                [x - y for x, y in zip(r1, r2)]
                for r1, r2 in zip(mat_mul(sm, tm), mat_mul(tm, sm))
            ]
            assert [list(row) for row in mat_mul(dense(c), form)] == commutator, name


def test_echelon_dimension_is_rank():
    rng = random.Random(11)
    for _ in range(20):
        echelon = _Echelon()
        rows = []
        for _ in range(12):
            if rows and rng.random() < 0.4:
                a, b = rng.choice(rows), rng.choice(rows)
                vec = [rng.randint(-5, 5) * x + rng.randint(-5, 5) * y for x, y in zip(a, b)]
            else:
                vec = [rng.choice((0, 0, 1, -2, 3, 7)) for _ in range(8)]
            before = len(rref(rows)[1])
            rows.append(vec)
            after = len(rref(rows)[1])
            assert echelon.insert(vec) == (after > before)
            assert len(echelon.rows) == after


def _path(n):
    return CoxeterDiagram(n, frozenset((i, i + 1) for i in range(1, n)))


def _cycle(n):
    return CoxeterDiagram(n, _path(n).edges | {(1, n)})


# No suite member needs more than one bracket round, so these pin brackets
# of two non-seed elements.  The traces are the same at D and at 7/3 (radii
# 1, 3, 7, ...); at t = 0 the radii are 1, 2, 4, 8, ...
MULTI_ROUND = [
    ("P5", _path(5), ("D", F(7, 3)), (4, 9, 10)),
    ("P7", _path(7), ("D", F(7, 3)), (6, 15, 21)),
    ("C8", _cycle(8), ("D", F(7, 3)), (8, 24, 28)),
    ("P9", _path(9), ("D", F(7, 3)), (8, 21, 35, 36)),
    ("P5", _path(5), (0,), (4, 7, 10)),
    ("P7", _path(7), (0,), (6, 11, 18, 21)),
    ("C8", _cycle(8), (0,), (8, 16, 28)),
    ("P9", _path(9), (0,), (8, 15, 26, 36)),
]


def test_density_trace_matches_matrix_oracle():
    for name, g in SUITE:
        t = _d_value(g)
        trace = bracket_closure_density(g, t).dimension_trace
        assert trace == oracle_density_trace(g, t) == sparse_density_trace(g, t), name
    for name, g, points, trace in MULTI_ROUND:
        for t in points:
            t = _d_value(g) if t == "D" else t
            if bareiss_det(evaluate_pencil(g, t)) == 0:
                continue
            assert bracket_closure_density(g, t).dimension_trace == trace, (name, t)
            assert oracle_density_trace(g, t) == trace, (name, t)
            assert sparse_density_trace(g, t) == trace, (name, t)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(min_value=3, max_value=12),
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from((0.0, 0.1, 0.3, 0.6)),
    st.fractions(min_value=-6, max_value=6, max_denominator=9),
)
def test_density_trace_matches_sparse_closure(n, seed, rate, t):
    # Sparse diagrams need several rounds; t = 0 (M_t = I, never singular)
    # is checked on every drawn diagram beside the drawn t.
    g = random_connected_diagram(random.Random(seed), n, rate)
    assume(minor_polynomials(g)[-1](t) != 0)
    for point in (t, F(0)):
        assert bracket_closure_density(g, point).dimension_trace == sparse_density_trace(g, point), point


def _diameter_at_most_two(n, edges) -> CoxeterDiagram:
    """The diagram with edges plus every pair at distance above 2 in it."""
    g = CoxeterDiagram(n, frozenset(edges))
    near = {v: {v, *g.neighbors(v)} for v in g.vertices}
    far = {(i, j) for i, j in combinations(g.vertices, 2) if not near[i] & near[j]}
    return CoxeterDiagram(n, g.edges | far)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.integers(min_value=3, max_value=12),
    st.integers(min_value=0, max_value=2**32),
    st.fractions(min_value=-6, max_value=6, max_denominator=9),
)
def test_diameter_two_closes_in_one_round(n, seed, t):
    # For a commuting pair a, c with a common neighbour b, [X_ab, X_bc] is
    # M_bb X_ac plus multiples of the seeds X_ab and X_bc.  So one round
    # reaches every commuting pair, whatever the nonsingular t.
    rng = random.Random(seed)
    g = _diameter_at_most_two(n, {p for p in combinations(range(1, n + 1), 2) if rng.random() < 0.4})
    assume(minor_polynomials(g)[-1](t) != 0)
    full = n * (n - 1) // 2
    expected = (full,) if len(g.edges) == full else (len(g.edges), full)
    assert bracket_closure_density(g, t).dimension_trace == expected


def test_density_rejects_disconnected_and_degenerate():
    with pytest.raises(Disconnected):
        bracket_closure_density(CoxeterDiagram(4, frozenset({(1, 2), (3, 4)})), 2)
    with pytest.raises(DegenerateForm):
        bracket_closure_density(K3, F(1, 2))
    with pytest.raises(TypeError):
        bracket_closure_density(K3, QuadElem(3, 2, 2))


def test_hyperbolic_plane_pinned():
    gs = reflection_generators(K3, 2)
    rep = hyperbolic_plane_check(gs, 1, 2)
    assert rep.block_trace == 14  # 4 t^2 - 2 at t = 2
    assert rep.trace_matches
    assert rep.fixes_complement
    assert rep.classification == "hyperbolic"


def test_parabolic_at_t_equals_one():
    gs = reflection_generators(K3, 1)
    rep = hyperbolic_plane_check(gs, 1, 3)
    assert rep.block_trace == 2
    assert rep.classification == "parabolic"


def test_plane_check_rejects_non_edge():
    gs = reflection_generators(P3, 2)
    with pytest.raises(NotAnEdge):
        hyperbolic_plane_check(gs, 1, 3)
