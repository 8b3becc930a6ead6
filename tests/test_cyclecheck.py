"""Closed-form spectrum checks for the cycle-complement family."""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import partial

import pytest

from coxcert import (
    CoxeterDiagram,
    build_embedding_certificate,
    circulant_identity_ok,
    cycle_complement,
    evaluate_pencil,
    serialize_diagram,
    verify_cycle_example,
)
from coxcert.cli import main
from coxcert.cyclecheck import _special_eigenvalue, predicted_char_poly, spectrum_deviation
from coxcert.exactcore import Poly
from coxcert.exactcore.linalg import char_poly
from coxcert.gram import d_threshold, pencil_at, pencil_char_poly

from _gram_oracle import circulant_identity_in_q_d

F = Fraction

# Bound on the printed float deviation of the refined roots from the cosines;
# the spectrum verdict itself is the exact identity of predicted_char_poly.
DEVIATION_BOUND = 1e-9


def _predicted(n: int, t) -> list:
    """The predicted side of spectrum_deviation's pairs: (value, multiplicity), ascending."""
    return [(pv, pm) for pv, _ov, pm in spectrum_deviation(cycle_complement(n), t)[0]]


def test_predicted_spectrum_n6_t1():
    assert _special_eigenvalue(6, 1) == F(-2)
    # 1 - 3t once and 1 + t + 2 t cos(2 pi k / 6) for k = 3, 2, 1, ascending
    predicted = _predicted(6, 1)
    assert [pm for _pv, pm in predicted] == [1, 1, 2, 2]
    assert all(abs(pv - value) < 1e-12 for (pv, _pm), value in zip(predicted, (-2.0, 0.0, 1.0, 3.0)))


def test_predicted_spectrum_n5_t2_golden_ratio():
    assert _special_eigenvalue(5, 2) == F(-3)
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    predicted = _predicted(5, 2)
    assert [pm for _pv, pm in predicted] == [1, 2, 2]
    values = (-3.0, 2.0 - math.sqrt(5.0), 1.0 + 2.0 * phi)  # k = 2, then k = 1
    assert all(abs(pv - value) < 1e-12 for (pv, _pm), value in zip(predicted, values))


def test_predicted_multiplicities_sum_to_n():
    for n in range(5, 13):
        predicted = _predicted(n, 1)
        assert len(predicted) == 1 + n // 2
        assert sum(pm for _pv, pm in predicted) == n


def test_predicted_eigenvalue_sum_is_trace():
    # the pencil has unit diagonal, so the eigenvalues sum to n at every t
    for n in (5, 6, 7, 9):
        for t in (F(1), F(3, 2), F(4)):
            predicted = _predicted(n, t)
            assert predicted
            assert abs(sum(pm * pv for pv, pm in predicted) - n) < 1e-9


def test_circulant_identity():
    for n in range(5, 9):
        assert circulant_identity_ok(cycle_complement(n))


def test_the_integer_identity_check_matches_the_q_d_one():
    for n in range(5, 33):
        g = cycle_complement(n)
        assert circulant_identity_ok(g) and circulant_identity_in_q_d(partial(pencil_at, g), n), n


def _one_entry_changed(g, i: int, j: int, change):
    """t -> M_t of g, with entry (i, j) off by change(t)."""

    def at(t):
        rows = [list(row) for row in pencil_at(g, t)]
        rows[i][j] += change(t)
        return tuple(map(tuple, rows))

    return at


@pytest.mark.parametrize(
    "change",
    [lambda t: 1, lambda t: t, lambda t: -2 * t, lambda t: t - 1, lambda t: 2 - 2 * t],
    ids=["+1", "+d", "-2d", "+d-1", "+2-2d"],
)
def test_one_changed_circulant_entry_fails_the_identity(monkeypatch, change):
    # off-diagonal and diagonal, on an edge and on a cycle pair: every affine
    # change within the docstring's bound is seen by the evaluation at 2^64
    for n, i, j in ((5, 0, 2), (8, 3, 3), (12, 4, 5), (32, 31, 0)):
        g = cycle_complement(n)
        mutated = _one_entry_changed(g, i, j, change)
        monkeypatch.setattr("coxcert.cyclecheck.pencil_at", lambda g, t: mutated(t))
        assert not circulant_identity_ok(g), (n, i, j)
        assert not circulant_identity_in_q_d(mutated, n), (n, i, j)


def test_the_checks_read_the_diagram_they_are_handed():
    # cc7 with vertices 2 and 3 swapped: same n and edge count, isomorphic,
    # but {1, 2} is an edge, so M_d is not circulant in 1..n order.
    cc7 = cycle_complement(7)
    swap = {2: 3, 3: 2}
    g = CoxeterDiagram(7, frozenset((swap.get(i, i), swap.get(j, j)) for i, j in cc7.edges))
    assert len(g.edges) == len(cc7.edges) and g != cc7
    assert not circulant_identity_ok(g)
    rep = verify_cycle_example(g, d_threshold(g)[0])
    assert not rep.identity_ok and not rep.ok
    assert rep.signature_ok and rep.spectrum_ok  # relabelling keeps the spectrum
    assert build_embedding_certificate(g).cycle is None


def test_verify_cycle_n5_pinned():
    cc5 = cycle_complement(5)
    d_value = d_threshold(cc5)[0]
    assert d_value == 2
    rep = verify_cycle_example(cc5, d_value)
    assert rep.t_checked == F(3) == d_value + 1
    assert rep.identity_ok
    assert (rep.signature.p, rep.signature.q, rep.signature.z) == (2, 3, 0)
    assert rep.signature_ok
    assert rep.special_eigenvalue == F(-5)
    assert rep.special_is_root
    assert rep.spectrum_ok
    assert spectrum_deviation(cc5, rep.t_checked)[1] <= DEVIATION_BOUND
    assert rep.ok


def test_verify_cycle_small_range():
    for n in (6, 7):
        g = cycle_complement(n)
        rep = verify_cycle_example(g, d_threshold(g)[0])
        assert rep.ok, (n, rep)
        pairs, _max_deviation = spectrum_deviation(g, rep.t_checked)
        assert len(pairs) == 1 + n // 2
        # distinct observed roots, paired with the predicted multiplicities
        observed = [ov for _pv, ov, _mult in pairs]
        assert observed == sorted(set(observed))
        assert sum(mult for _pv, _ov, mult in pairs) == n
        third = 2 * (n // 3)
        assert rep.expected_signature.p == third
        assert rep.expected_signature.q == n - third


def test_a_cycle_certificate_computes_d_once(monkeypatch):
    # The cycle stage takes D from the thresholds stage.  Every coxcert module
    # that binds d_threshold gets the spy, so a copy imported by name counts too.
    calls = []

    def spy(g):
        calls.append(g)
        return d_threshold(g)

    for module in [m for name, m in sys.modules.items() if name.startswith("coxcert")]:
        if getattr(module, "d_threshold", None) is d_threshold:
            monkeypatch.setattr(module, "d_threshold", spy)
    for n in range(5, 13):
        calls.clear()
        assert build_embedding_certificate(cycle_complement(n)).cycle.ok, n
        assert len(calls) == 1, n


def test_the_cycle_complement_is_built_once(monkeypatch, capsys):
    # embed builds it for its membership test and `coxcert cycle` for its
    # input; the checks read the diagram handed to them.
    calls = []

    def spy(n):
        calls.append(n)
        return cycle_complement(n)

    for module in [m for name, m in sys.modules.items() if name.startswith("coxcert")]:
        if getattr(module, "cycle_complement", None) is cycle_complement:
            monkeypatch.setattr(module, "cycle_complement", spy)
    g = cycle_complement(9)
    assert build_embedding_certificate(g).cycle.ok
    assert calls == [9]
    calls.clear()
    assert main(["cycle", "--n", "9"]) == 0
    assert calls == [9] and capsys.readouterr().out.endswith("PASS\n")


def test_embed_and_verify_never_compute_the_float_report(tmp_path, monkeypatch, capsys):
    # the verdicts are exact; only `coxcert cycle` refines roots for its printed deviation
    def no_report(*args, **kwargs):
        raise AssertionError("the float spectrum report was computed")

    monkeypatch.setattr("coxcert.cyclecheck.spectrum_deviation", no_report)
    monkeypatch.setattr("coxcert.cyclecheck._observed_roots", no_report)
    for n in range(5, 13):
        assert build_embedding_certificate(cycle_complement(n)).cycle.ok, n
    diagram, cert = tmp_path / "cc8.diagram", tmp_path / "cc8.json"
    diagram.write_text(serialize_diagram(cycle_complement(8)))
    assert main(["embed", str(diagram), "--out", str(cert)]) == 0
    assert main(["verify", str(cert), str(diagram)]) == 0
    assert "certificate verified" in capsys.readouterr().out


def test_predicted_char_poly_is_exact():
    # the identity behind spectrum_ok off the integers; verify_cycle_example
    # checks it at D + 1 (test_acceptance criterion 6 covers n = 5..12)
    cases = [(n, t) for n in range(5, 13) for t in (F(3, 2), F(7, 3))] + [(20, F(3, 2))]
    for n, t in cases:
        cp = char_poly(evaluate_pencil(cycle_complement(n), t))
        assert cp == predicted_char_poly(n, t), (n, t)


def test_char_poly_read_off_det_matches_faddeev_leverrier():
    # verify_cycle_example takes char_poly(M_t) from the cached det M_d.
    # Faddeev-LeVerrier runs on the integer matrix b M_t = b I - a A for
    # t = a/b, and cp_M(x) = b^-n cp_bM(b x) scales back.
    for n in range(5, 21):
        g = cycle_complement(n)
        for t in (F(d_threshold(g)[0] + 1), F(3, 2), F(7, 3)):
            b = t.denominator
            scaled = tuple(tuple(int(b * e) for e in row) for row in evaluate_pencil(g, t))
            cp = Poly(tuple(F(c * b**i, b**n) for i, c in enumerate(char_poly(scaled).coeffs)))
            assert pencil_char_poly(g, t) == cp, (n, t)


def test_predicted_char_poly_detects_a_wrong_point():
    # the matrix at 3/2 does not satisfy the identity predicted at 7/3
    cp = char_poly(evaluate_pencil(cycle_complement(7), F(3, 2)))
    assert cp != predicted_char_poly(7, F(7, 3))


def test_cycle_complement_guard():
    with pytest.raises(Exception):
        cycle_complement(4)
