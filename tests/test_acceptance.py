"""Acceptance gate: the ten claims the package certifies, one line each.

Every decision below is exact.  Criterion 6 also bounds the reported float
deviation of the refined roots from the closed-form cosines by 1e-9.  Run
`pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt

from coxcert import (
    bracket_closure_density,
    build_embedding_certificate,
    compact_conjugate_check,
    cycle_complement,
    d_threshold,
    enumerate_by_length,
    evaluate_pencil,
    expected_trace,
    faithfulness_probe,
    fundamental_pell,
    galois_pair_check,
    generators_integral,
    quad_sign,
    verify_cycle_example,
    verify_relations,
)
from coxcert.cli import main as cli_main
from coxcert.cyclecheck import spectrum_deviation
from coxcert.errors import CoxcertError
from coxcert.vinberg import trace_polynomial

from _liealg_oracle import full_basis_check
from _suite import K3, acceptance_suite, probe_length, suite_thresholds, suite_unit

F = Fraction

SUITE = acceptance_suite()
DEVIATION_BOUND = 1e-9


def _verdict(num: int, name: str, failures: list) -> None:
    ok = not failures
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}): {failures[:5]}"


def test_criterion_1_relations_and_orthogonality():
    failures = []
    for name, g in SUITE:
        rel = verify_relations(g)
        if not (rel.involutions_ok and rel.commutations_ok and rel.orthogonality_ok):
            failures.append((name, rel.failures[:3]))
    _verdict(1, "relations and orthogonality", failures)


def test_criterion_2_trace_identity():
    failures = []
    for name, g in SUITE:
        for i in range(1, g.n + 1):
            for j in range(i + 1, g.n + 1):
                if trace_polynomial(g, i, j) != expected_trace(g, i, j):
                    failures.append((name, i, j))
    _verdict(2, "trace identity", failures)


def test_criterion_3_galois_chain():
    failures = []
    for m in (2, 3, 5):
        for name, g in SUITE:
            rep = suite_thresholds(name, g)
            u = suite_unit(name, g, m)
            bound = max(F(1) / rep.epsilon, F(rep.d_value))
            if quad_sign(u.value - bound) < 0:
                failures.append((name, m, "alpha below bound"))
                continue
            try:
                gal = galois_pair_check(u, rep.epsilon)
            except CoxcertError as exc:
                failures.append((name, m, f"galois: {exc}"))
                continue
            if not (gal.product_is_unit and gal.conj_bounded):
                failures.append((name, m, "galois verdicts"))
            if not compact_conjugate_check(g, u):
                failures.append((name, m, "conjugate form not compact"))
    _verdict(3, "galois chain", failures)


def test_criterion_4_integrality():
    failures = []
    for m in (2, 3, 5):
        for name, g in SUITE:
            if not generators_integral(g, suite_unit(name, g, m).value):
                failures.append((name, m))
    _verdict(4, "integrality", failures)


def test_criterion_5_indefiniteness():
    failures = []
    for name, g in SUITE:
        sig = suite_thresholds(name, g).signature
        if not (sig.p >= 1 and sig.q >= 1 and sig.z == 0):
            failures.append((name, (sig.p, sig.q, sig.z)))
    _verdict(5, "indefiniteness", failures)


def test_criterion_6_cycle_example():
    failures = []
    for n in range(5, 13):
        g = cycle_complement(n)
        rep = verify_cycle_example(g, d_threshold(g)[0])
        third = 2 * (n // 3)
        if (rep.signature.p, rep.signature.q, rep.signature.z) != (third, n - third, 0):
            failures.append((n, "signature", rep.signature))
        if not rep.identity_ok:
            failures.append((n, "circulant identity"))
        if not rep.special_is_root:
            failures.append((n, "special eigenvalue"))
        max_deviation = spectrum_deviation(g, rep.t_checked)[1]
        if not (rep.spectrum_ok and max_deviation <= DEVIATION_BOUND):
            failures.append((n, "spectrum", max_deviation))
    _verdict(6, "cycle example", failures)


def test_criterion_7_density_certificates():
    failures = []
    for name, g in SUITE:
        rep = suite_thresholds(name, g)
        t = F(rep.d_value)
        cert = bracket_closure_density(g, t)
        full = g.n * (g.n - 1) // 2
        if not (cert.verdict and cert.dimension_trace[-1] == full):
            failures.append((name, "closure", cert.dimension_trace))
        if not full_basis_check(evaluate_pencil(g, t)).ok:
            failures.append((name, "pair basis rank"))
    _verdict(7, "density certificates", failures)


def test_criterion_8_faithfulness_probe():
    failures = []
    for name, g in SUITE:
        max_len = probe_length(g.n)
        if max_len is None:
            continue
        t = F(suite_thresholds(name, g).d_value)
        rep = faithfulness_probe(g, t, max_len)
        if not rep.injective:
            failures.append((name, rep.word_counts, rep.image_counts))
        if list(rep.word_counts) != enumerate_by_length(g, max_len):
            failures.append((name, "counts disagree with enumeration"))
    expected_k3 = [1] + [3 * 2 ** (length - 1) for length in range(1, 9)]
    if enumerate_by_length(K3, 8) != expected_k3:
        failures.append(("K3", "growth formula"))
    _verdict(8, "faithfulness probe", failures)


def test_criterion_9_pell_oracle():
    failures = []
    for m in range(2, 51):
        root = isqrt(m)
        if root * root == m or any(m % (p * p) == 0 for p in range(2, root + 1)):
            continue
        found = None
        for y in range(1, 10**6 + 1):
            for norm in (-1, 1):
                square = m * y * y + norm
                x = isqrt(square)
                if x * x == square:
                    found = (x, y)
                    break
            if found:
                break
        pell = fundamental_pell(m)
        if found != (pell.x, pell.y):
            failures.append((m, found, (pell.x, pell.y)))
    _verdict(9, "pell oracle", failures)


def test_criterion_10_determinism(tmp_path, capsys):
    failures = []
    diagram = tmp_path / "k3.diagram"
    diagram.write_text("n 3\nedge 1 2\nedge 1 3\nedge 2 3\n")
    out1 = tmp_path / "first.json"
    out2 = tmp_path / "second.json"
    if cli_main(["embed", str(diagram), "--out", str(out1)]) != 0:
        failures.append("first embed failed")
    if cli_main(["embed", str(diagram), "--out", str(out2)]) != 0:
        failures.append("second embed failed")
    if out1.read_bytes() != out2.read_bytes():
        failures.append("certificates differ")
    payload = json.loads(out1.read_text())
    if payload.get("format") != "coxcert-embedding/1":
        failures.append("format tag")
    if cli_main(["verify", str(out1), str(diagram)]) != 0:
        failures.append("verify round trip")
    # independently: two in-process builds render identical payloads
    from coxcert.certificate import canonical_json, certificate_payload

    first = canonical_json(certificate_payload(build_embedding_certificate(K3, m=2, probe_len=4)))
    second = canonical_json(certificate_payload(build_embedding_certificate(K3, m=2, probe_len=4)))
    if first != second:
        failures.append("certificate payload not deterministic")
    capsys.readouterr()
    _verdict(10, "determinism", failures)
