"""Pencil construction, epsilon/D thresholds, stable signatures.

The pinned rho values have independent closed forms: the triangle's minors
are 1, 1-d^2, (1-2d)(1+d)^2 so rho = 1/2; the path P3 gives 1-2d^2 so
rho = 1/sqrt 2; the star K13 gives 1-3d^2 so rho = 1/sqrt 3.  All membership
checks below compare squares, never floats.
"""

from __future__ import annotations

import random
from fractions import Fraction
from hashlib import sha256
from itertools import combinations

import pytest

from coxcert import gram
from coxcert import (
    CoxeterDiagram,
    Poly,
    QuadElem,
    Signature,
    cycle_complement,
    d_threshold,
    epsilon_threshold,
    evaluate_pencil,
    gram_pencil,
    minor_polynomials,
    stable_signature,
    threshold_report,
)
from coxcert.cli import main
from coxcert.diagram import is_connected, serialize_diagram
from coxcert.exactcore import Interval, leading_principal_minors, root_intervals
from coxcert.exactcore.linalg import signature_of

import _gram_oracle as oracle
from _suite import acceptance_suite, random_connected_diagram

F = Fraction

K3 = CoxeterDiagram(3, frozenset({(1, 2), (1, 3), (2, 3)}))
P3 = CoxeterDiagram(3, frozenset({(1, 2), (2, 3)}))
K13 = CoxeterDiagram(4, frozenset({(1, 2), (1, 3), (1, 4)}))


def test_pencil_entries():
    d = Poly((0, 1))
    m_d = evaluate_pencil(P3, d)
    one = Poly((1,))
    assert m_d[0][0] == one
    assert m_d[0][1] == -d  # edge (1,2)
    assert m_d[0][2] == Poly(())  # commuting pair
    assert m_d[1][2] == -d


def test_pencil_and_minors_have_int_coefficients():
    # M_d lies in Z[d], so the Bareiss pass must never leave the integers
    for _name, g in acceptance_suite() + [("cc12", cycle_complement(12))]:
        m_d = evaluate_pencil(g, Poly((0, 1)))
        assert all(type(c) is int for row in m_d for e in row for c in e.coeffs)
        for p in minor_polynomials(g):
            assert all(type(c) is int for c in p.coeffs), p


def _top_of_range() -> dict:
    """n = 32 diagrams, the largest the CLI accepts, with dense and sparse minors."""
    n, half = 32, 16
    rng = random.Random(32)
    return {
        "K32": CoxeterDiagram(n, frozenset(combinations(range(1, n + 1), 2))),
        "K16,16": CoxeterDiagram(
            n, frozenset((i, j) for i in range(1, half + 1) for j in range(half + 1, n + 1))
        ),
        "star32": CoxeterDiagram(n, frozenset((1, j) for j in range(2, n + 1))),
        "cc32": cycle_complement(n),
        "rand32-0.3": random_connected_diagram(rng, n, 0.3),
        "rand32-0.7": random_connected_diagram(rng, n, 0.7),
    }


_TOP_OF_RANGE = _top_of_range()


@pytest.mark.parametrize("name", _TOP_OF_RANGE)
def test_integer_minors_equal_the_elimination_over_z_d(name):
    # The production minors come from the bordering recurrence on integers;
    # the oracle eliminates the Poly-entry pencil over Z[d] itself.
    g = _TOP_OF_RANGE[name]
    assert minor_polynomials(g) == tuple(leading_principal_minors(evaluate_pencil(g, Poly((0, 1)))))


def _pin_set():
    """cc5-cc32, the paths P3-P32 and 300 seeded random diagrams with n = 3..32."""
    for n in range(5, 33):
        yield f"cc{n}", cycle_complement(n)
    for n in range(3, 33):
        yield f"P{n}", CoxeterDiagram(n, frozenset((i, i + 1) for i in range(1, n)))
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randrange(3, 33)
        yield f"rand{seed}", random_connected_diagram(rng, n, rng.choice((0.05, 0.15, 1 / 3, 0.6, 0.9)))


def test_minors_equal_the_kronecker_oracle():
    for name, g in _pin_set():
        minors = minor_polynomials(g)
        assert minors == tuple(oracle.kronecker_minors(g)), name
        assert all(p(0) == 1 for p in minors), name


def test_threshold_reports_pinned_on_the_pin_set():
    # sha256 of the reports' reprs, one "name repr" line each, as computed from
    # the minors of the Kronecker pass
    lines = "\n".join(f"{name} {threshold_report(gram_pencil(g))!r}" for name, g in _pin_set())
    assert sha256(lines.encode()).hexdigest() == "d976d140447435b42c0975b8ce7153f608efbd5a0e59a27ac490fb64203c74ca"


def test_evaluate_pencil_types():
    m_int = evaluate_pencil(K3, 2)
    assert m_int[0][1] == F(-2)
    m_frac = evaluate_pencil(K3, F(1, 2))
    assert m_frac[0][1] == F(-1, 2)
    alpha = QuadElem(1, 1, 2)
    m_quad = evaluate_pencil(K3, alpha)
    assert m_quad[0][1] == -alpha
    assert m_quad[0][0] == 1


def test_minor_polynomials_pinned():
    assert minor_polynomials(K3) == (
        Poly((1,)),
        Poly((1, 0, -1)),
        Poly((1, 0, -3, -2)),
    )
    assert minor_polynomials(P3) == (
        Poly((1,)),
        Poly((1, 0, -1)),
        Poly((1, 0, -2)),
    )
    # K13 determinant: 1 - 3 d^2
    assert minor_polynomials(K13)[3] == Poly((1, 0, -3))


def test_epsilon_thresholds_pinned():
    eps3, rho3 = epsilon_threshold(K3)
    assert F(1, 4) <= eps3 < F(1, 2)
    assert rho3.lo <= F(1, 2) <= rho3.hi  # rho(K3) = 1/2 exactly

    eps_p, rho_p = epsilon_threshold(P3)
    assert eps_p ** 2 < F(1, 2)  # eps < 1/sqrt2
    assert rho_p.lo ** 2 <= F(1, 2) <= rho_p.hi ** 2

    eps_s, rho_s = epsilon_threshold(K13)
    assert eps_s ** 2 < F(1, 3)
    assert rho_s.lo ** 2 <= F(1, 3) <= rho_s.hi ** 2


def test_epsilon_certified_properties():
    for g in (K3, P3, K13, cycle_complement(5), cycle_complement(6)):
        eps, rho = epsilon_threshold(g)
        assert 0 < eps < 1
        assert rho.width < rho.lo / 1024
        # every leading principal minor is strictly positive at both ends
        for p in minor_polynomials(g):
            assert p(eps) > 0
            assert p(-eps) > 0


def test_d_thresholds_pinned():
    assert d_threshold(K3)[0] == 1
    assert d_threshold(P3)[0] == 1
    D5, largest = d_threshold(cycle_complement(5))
    assert D5 == 2
    # the largest root is the golden ratio: a root of d^2 - d - 1
    phi_poly = Poly((-1, -1, 1))
    assert phi_poly(largest.lo) * phi_poly(largest.hi) < 0
    assert largest.hi < 2


def test_d_threshold_isolates_only_roots_above_half_of_d_minus_one(monkeypatch):
    # the walk skips every subtree at or below x // 2, x the least power of two
    # with no root above it, and yields the largest root last; x >= D - 1, so
    # x // 2 >= (D - 1) // 2; (1 - d^2)^2 has its largest root at D - 1 = 1 = x
    yielded = []

    def spy(*args, **kwargs):
        for interval in root_intervals(*args, **kwargs):
            yielded.append(interval)
            yield interval

    monkeypatch.setattr("coxcert.gram.root_intervals", spy)
    rng = random.Random(28)
    two_edges = CoxeterDiagram(4, frozenset({(1, 2), (3, 4)}))
    diagrams = [K3, P3, K13, two_edges] + [cycle_complement(n) for n in range(5, 13)]
    diagrams += [random_connected_diagram(rng, rng.randrange(6, 17), rng.choice((0.2, 0.5, 0.8))) for _ in range(20)]
    for g in diagrams:
        yielded.clear()
        d_value, largest = d_threshold(g)
        assert yielded and all(interval.hi > (d_value - 1) // 2 for interval in yielded), g
        assert yielded[-1].lo <= largest.lo < largest.hi <= yielded[-1].hi, g


# (D, largest-root interval) and the sha256 of `analyze` stdout for n = 32
# diagrams whose D is large, as the linear integer scan found them.
LARGE_D = {
    (15, 0.3): (
        "(28664, Interval(lo=Fraction(30776372396847, 1073741824), hi=Fraction(1231095444454113, 42949672960)))",
        "ea6d9288d2206663c8885e67f86c287dfb1e47d6293cb13b85f3bdba25e31428",
    ),
    (1012, 0.35): (
        "(11194, Interval(lo=Fraction(68053267415079, 6079643648), hi=Fraction(21777289491346481, 1945485967360)))",
        "fb406932656c226cd023ef6a876532c4340046d086dfde049ba1792c023fbd73",
    ),
}


@pytest.mark.parametrize("seed, rate", LARGE_D)
def test_a_large_d_takes_logarithmically_many_counts(seed, rate, monkeypatch, tmp_path, capsys):
    # a scan over 1, 2, 3, ... makes D + 1 counts here; doubling makes at most ceil(log2 D) + 2
    expected, digest = LARGE_D[seed, rate]
    g = random_connected_diagram(random.Random(seed), 32, rate)
    calls, count = [], gram.roots_above
    monkeypatch.setattr(gram, "roots_above", lambda *args: calls.append(args) or count(*args))
    found = d_threshold(g)
    assert repr(found) == expected
    assert len(calls) <= (found[0] - 1).bit_length() + 2
    path = tmp_path / "g.diagram"
    path.write_text(serialize_diagram(g))
    assert main(["analyze", str(path)]) == 0
    assert sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_stable_signatures_pinned():
    assert stable_signature(K3) == Signature(2, 1, 0)
    assert stable_signature(cycle_complement(5)) == Signature(2, 3, 0)
    assert stable_signature(cycle_complement(6)) == Signature(4, 2, 0)


def test_signature_constant_beyond_d():
    for g in (K3, P3, K13, cycle_complement(5)):
        D, _ = d_threshold(g)
        base = stable_signature(g)
        for t in (F(D), F(D) + F(1, 3), F(2 * D), F(10 * D)):
            assert signature_of(evaluate_pencil(g, t)) == base


def test_shared_root_across_minors():
    # two disjoint edges: minors 1, 1, 1-d^2, (1-d^2)^2 all share the root 1,
    # exercising the exact tie-breaking in the minimum-of-algebraics step
    g = CoxeterDiagram(4, frozenset({(1, 2), (3, 4)}))
    eps, rho = epsilon_threshold(g)
    assert rho.lo <= 1 <= rho.hi
    assert eps < 1


def test_edgeless_pencil_has_no_roots():
    g = CoxeterDiagram(3, frozenset())
    eps, rho = epsilon_threshold(g)
    assert rho is None
    assert eps == F(1023, 1024)
    D, largest = d_threshold(g)
    assert D == 1 and largest is None


def test_threshold_report_bundles_everything():
    rep = threshold_report(K3)
    assert rep.epsilon == epsilon_threshold(K3)[0]
    assert rep.d_value == 1
    assert rep.signature == Signature(2, 1, 0)


def test_positive_definite_inside_epsilon_band():
    # sample points strictly inside (-eps, eps): all minors positive
    g = cycle_complement(5)
    eps, _ = epsilon_threshold(g)
    for t in (F(0), eps / 2, -eps / 2, eps * F(99, 100)):
        minors = [p(t) for p in minor_polynomials(g)]
        assert all(v > 0 for v in minors)


K7_PENDANT = CoxeterDiagram(
    8, frozenset({(i, j) for i in range(1, 8) for j in range(i + 1, 8)} | {(1, 8)})
)
TIE6 = CoxeterDiagram(6, frozenset({(1, 4), (2, 6), (3, 4)}))
TIE7 = CoxeterDiagram(7, frozenset({(1, 3), (1, 4), (2, 3), (6, 7)}))

# "epsilon rho-interval D largest-root-interval signature", all certificate
# bytes: epsilon and rho depend on how the interval of the minimum is refined
# against every minor's candidate, not only on the value of rho.
PINNED_THRESHOLDS = {
    "K3": (K3, "4095/8192 [4095/8192, 32769/65536] 1 [3/8, 3/4] (2, 1, 0)"),
    "cc5": (cycle_complement(5), "65535/131072 [65535/131072, 4097/8192] 2 [25/16, 15/8] (2, 3, 0)"),
    "cc8": (cycle_complement(8), "131031/655360 [131031/655360, 327681/1638400] 3 [17/8, 51/20] (4, 4, 0)"),
    "rand05": (
        dict(acceptance_suite())["rand05"],
        "92231/262144 [92231/262144, 369073/1048576] 1 [7/16, 7/8] (4, 2, 0)",
    ),
    # rho is the Perron root of the clique, but a det-only rho changes both
    # epsilon and the interval here
    "K7+pendant": (K7_PENDANT, "543931/3276800 [543931/3276800, 43521/262144] 2 [289/160, 153/80] (6, 2, 0)"),
    # disconnected, with the minimum shared by several minors
    "tie6": (TIE6, "2895/4096 [2895/4096, 5793/8192] 2 [15/16, 5/4] (4, 2, 0)"),
    "tie7": (TIE7, "2531/4096 [2531/4096, 633/1024] 2 [25/16, 15/8] (4, 3, 0)"),
    # the scale of the benchmark's analyze inputs
    "cc12": (
        cycle_complement(12),
        "589687/5308416 [589687/5308416, 2360129/21233664] 2 [53/48, 53/36] (8, 4, 0)",
    ),
    "cc16": (
        cycle_complement(16),
        "109009989/1417674752 [109009989/1417674752, 54538209/708837376] 3 [279/208, 279/104] (10, 6, 0)",
    ),
    "cc20": (
        cycle_complement(20),
        "570172675/9697230848 [570172675/9697230848, 16782441/285212672] 6 [6165/1088, 12741/2176] (12, 8, 0)",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_THRESHOLDS))
def test_threshold_bytes_pinned(name):
    g, expected = PINNED_THRESHOLDS[name]
    rep = threshold_report(g)
    got = f"{rep.epsilon} {rep.rho_interval} {rep.d_value} {rep.largest_root_interval} {rep.signature}"
    assert got == expected


def _walks(monkeypatch) -> list:
    """The half-squares _smallest_abs_root is handed, det's first on every epsilon."""
    walked, walk = [], gram._smallest_abs_root
    monkeypatch.setattr(gram, "_smallest_abs_root", lambda q: walked.append(q) or walk(q))
    return walked


def test_the_sylvester_cut_walks_det_alone_on_most_of_the_pin_set(monkeypatch):
    # det's walk alone decides 306 of the 358 diagrams, every cycle complement
    # and short path among them; the other 52 walk 344 of their 1072 lower minors
    walked, lower = _walks(monkeypatch), {}
    for name, g in _pin_set():
        walked.clear()
        epsilon_threshold(g)
        lower[name] = (len(walked) - 1, g.n - 1)  # (lower minors walked, lower minors)
    alone = {name for name, (k, _) in lower.items() if k == 0}
    assert len(alone) == 306
    assert {f"cc{n}" for n in range(5, 33)} | {f"P{n}" for n in range(3, 11)} <= alone
    raced = [lower[name] for name in lower.keys() - alone]
    assert [sum(k for k, _ in raced), sum(n for _, n in raced)] == [344, 1072]


def _full_race(monkeypatch, g):
    """epsilon_threshold with the Sylvester cut declined at its connectivity gate, so every minor races."""
    with monkeypatch.context() as patched:
        patched.setattr(gram, "is_connected", lambda g: False)
        return epsilon_threshold(g)


def _past_the_cap():
    """cc33, cc40, cc48, P33, P40 and four random diagrams with n = 33..48."""
    yield from (cycle_complement(n) for n in (33, 40, 48))
    yield from (CoxeterDiagram(n, frozenset((i, i + 1) for i in range(1, n))) for n in (33, 40))
    rng = random.Random(48)
    for rate in (0.05, 0.15, 1 / 3, 0.6):
        yield random_connected_diagram(rng, rng.randrange(33, 49), rate)


def test_the_shortcut_gives_the_race_s_interval_past_the_cap(monkeypatch):
    # the vertex cap guards parsing only; the thresholds take any n
    for g in _past_the_cap():
        assert epsilon_threshold(g) == _full_race(monkeypatch, g), g


def _disconnected():
    yield CoxeterDiagram(4, frozenset({(1, 2), (3, 4)}))
    yield TIE6
    yield TIE7
    yield CoxeterDiagram(7, frozenset({(2, 3), (2, 4), (3, 4), (5, 6), (6, 7)}))  # K3, P3 and a point
    rng = random.Random(7)
    for _ in range(12):
        n = rng.randrange(4, 13)
        edges = frozenset((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if rng.random() < 0.2)
        g = CoxeterDiagram(n, edges)
        if g.edges and not is_connected(g):
            yield g


def _every_minor(g) -> list:
    """The half-squares a race of every minor walks: det's, then the n - 1 lower minors' in order."""
    minors = minor_polynomials(g)
    return [gram._half_square(p) for p in minors[-1:] + minors[:-1]]


def test_disconnected_diagrams_race_every_minor(monkeypatch):
    # minors can tie across components, so these are never cut
    walked = _walks(monkeypatch)
    diagrams = list(_disconnected())
    for g in diagrams:
        walked.clear()
        assert epsilon_threshold(g) == oracle.epsilon_threshold(g), g
        assert walked == _every_minor(g), g
    assert len(diagrams) >= 10


def test_an_exact_hit_on_det_s_root_falls_back_to_the_race(monkeypatch):
    # the refinement returns a quarter-wide interval centred on a root it lands
    # on; faked on the cut's first refinement of det, every minor must race
    g = cycle_complement(12)
    expected = epsilon_threshold(g)
    first = gram._smallest_abs_root(gram._half_square(minor_polynomials(g)[-1]))[1]
    refine = gram.refine_root_interval

    def snug_on_first(p, interval, max_width):
        if interval == first and max_width == first.width / 4:
            return Interval(first.mid - max_width / 2, first.mid + max_width / 2)
        return refine(p, interval, max_width)

    monkeypatch.setattr(gram, "refine_root_interval", snug_on_first)
    walked = _walks(monkeypatch)
    assert epsilon_threshold(g) == expected
    assert walked == _every_minor(g)
