"""Tests of the benchmark's own oracles and accounting.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracles
import run
import speed
import traced
import workloads
from workloads import Diagram, Op, cycle_complement, random_connected, triangle

PATH3 = Diagram("P3", 3, ((1, 2), (2, 3)))
STAR4 = Diagram("K13", 4, ((1, 2), (1, 3), (1, 4)))


def tiny_diagrams() -> list[Diagram]:
    rng = random.Random(7)
    return [triangle(), PATH3, STAR4, cycle_complement(5), cycle_complement(6)] + [
        random_connected(rng, n, f"rand{n}") for n in (4, 5, 6)
    ]


def tits_ball_counts(d: Diagram, max_len: int) -> list[int]:
    """Elements per length by BFS over integer matrices of the Tits representation.

    With B(e_i, e_i) = 1, B(e_i, e_j) = -1 on edges (no relation) and 0 on
    commuting pairs, s_i(v) = v - 2 B(e_i, v) e_i is a faithful
    representation of the right-angled Coxeter group, so distinct elements
    are distinct matrices.
    """
    n = d.n
    adjacent = {(i, j) for i, j in d.edges} | {(j, i) for i, j in d.edges}
    gens = []
    for i in range(1, n + 1):
        rows = [[int(r == c) for c in range(1, n + 1)] for r in range(1, n + 1)]
        rows[i - 1] = [-1 if c == i else (2 if (i, c) in adjacent else 0) for c in range(1, n + 1)]
        gens.append(rows)

    def times(a, g):
        return tuple(
            tuple(sum(a[r][k] * g[k][c] for k in range(n)) for c in range(n)) for r in range(n)
        )

    ident = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
    seen = {ident}
    frontier = [ident]
    counts = [1]
    for _ in range(max_len):
        nxt = []
        for a in frontier:
            for g in gens:
                b = times(a, g)
                if b not in seen:
                    seen.add(b)
                    nxt.append(b)
        counts.append(len(nxt))
        frontier = nxt
    return counts


@pytest.mark.parametrize("d", tiny_diagrams(), ids=lambda d: d.name)
def test_growth_series_matches_bfs(d):
    max_len = 6 if d.n <= 5 else 5
    assert oracles.growth_series(d.n, d.edges, max_len) == tits_ball_counts(d, max_len)


def test_growth_series_known_values():
    cc7 = cycle_complement(7)
    assert oracles.clique_counts(7, cc7.edges)[:3] == [1, 7, 7]
    # K3 is the free product of three Z/2: 1, 3, 6, 12, ...
    assert oracles.growth_series(3, triangle().edges, 4) == [1, 3, 6, 12, 24]


def sylvester_epsilon_ok(d: Diagram, eps: Fraction) -> bool:
    """(1 - 1/1024)/lambda_max < eps < 1/lambda_max, decided exactly."""

    def pencil(t):
        return oracles._matrix(d.n, d.edges, 1, -t)

    below_upper = oracles.positive_definite(pencil(eps)) and oracles.positive_definite(pencil(-eps))
    # Above the lower bound exactly when M at c = 1024 eps / 1023 is not
    # positive-definite and not singular there.
    c = Fraction(1024, 1023) * eps
    above_lower = not oracles.positive_definite(pencil(c)) and oracles._det(pencil(c)) != 0
    return below_upper and above_lower


def epsilon_candidates(d: Diagram) -> list[Fraction]:
    spec = oracles.Spectrum(d.n, d.edges)
    rho = Fraction(1 / spec.lam_max).limit_denominator(10**12)
    lower = rho * Fraction(1023, 1024)
    tiny = Fraction(1, 10**11)
    return [rho * Fraction(2047, 2048), rho + tiny, rho - tiny, lower - tiny, lower + tiny, rho / 2, rho * 2]


@pytest.mark.parametrize("d", tiny_diagrams() + [cycle_complement(7), cycle_complement(8)], ids=lambda d: d.name)
def test_spectral_epsilon_agrees_with_sylvester(d):
    spec = oracles.Spectrum(d.n, d.edges)
    for eps in epsilon_candidates(d):
        assert (spec.epsilon_problem(eps) is None) == sylvester_epsilon_ok(d, eps), eps


def test_exact_boundaries_at_rational_rho():
    # cc7 is 4-regular, so 1/lambda_max = 1/4 exactly; floats cannot decide here.
    spec = oracles.Spectrum(7, cycle_complement(7).edges)
    assert spec.epsilon_problem(Fraction(1, 4)) is not None
    assert spec.epsilon_problem(Fraction(1, 4) - Fraction(1, 10**15)) is None
    assert spec.epsilon_problem(Fraction(1023, 4096)) is not None
    assert spec.epsilon_problem(Fraction(1023, 4096) + Fraction(1, 10**15)) is None


@pytest.mark.parametrize("d", tiny_diagrams() + [cycle_complement(n) for n in range(7, 13)], ids=lambda d: d.name)
def test_d_and_signature_agree_with_exact_inertia(d):
    spec = oracles.Spectrum(d.n, d.edges)
    # D is the least integer >= 1 with no eigenvalue of A in (0, 1/D].
    adjacency = oracles._matrix(d.n, d.edges, 0, 1)
    positive = oracles.inertia(adjacency)[0]

    def above(c):
        return oracles.inertia(oracles._matrix(d.n, d.edges, -c, 1))[0]

    exact_d = next(k for k in range(1, 100) if above(Fraction(1, k)) == positive)
    assert spec.d_value == exact_d
    assert spec.signature_at(exact_d) == oracles.inertia(oracles._matrix(d.n, d.edges, 1, -exact_d))


def test_program_thresholds_pass_the_oracle():
    from coxcert import CoxeterDiagram, gram_pencil, threshold_report

    for d in tiny_diagrams() + [cycle_complement(n) for n in (7, 8, 9)]:
        report = threshold_report(gram_pencil(CoxeterDiagram(d.n, frozenset(d.edges))))
        spec = oracles.Spectrum(d.n, d.edges)
        assert sylvester_epsilon_ok(d, report.epsilon)
        assert oracles._threshold_problems(spec, report.epsilon, report.d_value, tuple(report.signature)) == []


# -- failed operations ---------------------------------------------------------


@pytest.fixture
def tiny_runner(tmp_path, monkeypatch):
    ops = [
        Op("embed", triangle()),
        Op("verify", triangle()),
        Op("words", cycle_complement(5), max_len=4),
    ]
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", lambda seed: ops)
    probe = speed.SpeedProbe()
    yield run.Runner("tiny", 0, tmp_path, probe)
    probe.close()


def test_clean_round_has_no_failures(tiny_runner):
    outcomes = tiny_runner.round("plain")
    assert [o.exit_code for o in outcomes] == [0, 0, 0]
    assert (tiny_runner.tally.attempted, tiny_runner.tally.failed) == (3, 0)
    assert not tiny_runner.tally.wrong_output


def test_corrupted_certificate_is_a_failed_operation(tiny_runner):
    embed, verify, _ = tiny_runner.ops
    tiny_runner.round("plain")
    path = embed.cert_path(tiny_runner.work, "plain")
    cert = json.loads(path.read_text())
    cert["density_trace"] = [2, 3]
    path.write_text(json.dumps(cert, sort_keys=True, indent=2) + "\n")

    tally = run.Tally()
    stale = run.Outcome(0, 0.0, 0.0, 0.0, "")
    tally.record("embed", stale, tiny_runner.check(embed, stale, "plain"))
    argv = [sys.executable, "-m", "coxcert", *verify.args(tiny_runner.work, "plain")]
    outcome = tiny_runner.run(argv, tiny_runner.work / "v.out")
    tally.record("verify", outcome, tiny_runner.check(verify, outcome, "plain"))
    assert outcome.exit_code == 1
    assert (tally.attempted, tally.failed) == (2, 2)
    assert tally.wrong_output


def test_wrong_word_count_is_a_failed_operation(tiny_runner):
    words = tiny_runner.ops[2]
    outcome = tiny_runner.round("plain")[2]
    counts = oracles.growth_series(5, words.diagram.edges, 4)
    assert f"word counts: {' '.join(map(str, counts))}" in outcome.stdout
    wrong = run.Outcome(0, 0.0, 0.0, 0.0, outcome.stdout.replace(f" {counts[3]} ", f" {counts[3] + 1} ", 1))
    tally = run.Tally()
    tally.record("words", wrong, tiny_runner.check(words, wrong, "plain"))
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.wrong_output


# -- tracing ---------------------------------------------------------------------


def test_traced_round_keeps_bytes_and_reports_every_layer(tiny_runner):
    plain = tiny_runner.round("plain")
    tiny_runner.round("traced", trace_dir=tiny_runner.work, untraced=plain)
    assert tiny_runner.tally.failed == 0
    lines = []
    for index in range(3):
        lines += [json.loads(line) for line in (tiny_runner.work / f"op{index}.jsonl").read_text().splitlines()]
    values = run.layer_metrics(lines)
    assert values["liealg.density_s"] > 0 and values["words.enumerate_s"] > 0
    assert values["exactcore.quad_mul.calls"] > 0 and values["words.append_letter.calls"] > 0


def test_every_per_layer_metric_has_a_source():
    recorded = {name for table in (traced.STAGES, traced.TOP_LEVEL_STAGES, traced.TIMED_KERNELS) for name, _, _ in table}
    counted = recorded | {name for name, _, _ in traced.COUNTED} | {"exactcore.quad_mul"}
    for name, _unit in run.PER_LAYER:
        if name.endswith(".calls"):
            assert name[: -len(".calls")] in counted, name
        elif name.endswith("_s"):
            assert name[: -len("_s")] in recorded, name


def test_runner_refuses_a_tree_without_sources(tmp_path):
    """A directory holding only BENCHMARK.json and bench/ gives no result."""
    bench = tmp_path / "bench"
    bench.mkdir()
    for path in Path(run.BENCH_DIR).glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((Path(run.ROOT) / "BENCHMARK.json").read_bytes())
    argv = [sys.executable, "bench/run.py", "--workload", "probe", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_factor_scales_slow_windows_to_the_reference():
    ref = speed.REFERENCE_S
    at_reference = {kind: [t, t] for kind, t in ref.items()}
    half_speed = {kind: [2 * t, 2 * t] for kind, t in ref.items()}
    assert speed.factor(at_reference) == pytest.approx(1.0)
    assert speed.factor(half_speed) == pytest.approx(0.5)
    assert speed.factor({kind: [] for kind in ref}) == 1.0


def test_speed_scaling_keeps_a_twofold_difference_in_work():
    """Fresh processes doing REPS and 2*REPS exact determinants read 1:2 scaled."""
    argv = [sys.executable, "bench/speedcheck.py", "--rounds", "3", "--reps", "200"]
    proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert 1.7 < result["scaled_ratio"] < 2.3, proc.stdout
