"""Correctness oracles for the coxcert benchmark, computed apart from the program.

Nothing here imports coxcert.  Each check returns a list of problems; an
empty list means the program's output is right.

Spectral facts.  With A the diagram's adjacency matrix, the pencil is
M_d = I - dA, and the k-th leading minor of M_d vanishes exactly at 1/lambda
for the eigenvalues lambda of the leading block A_k.  By interlacing and
Perron-Frobenius the smallest absolute root over all minors is 1/lambda_max(A),
and det M_d has its largest real root at 1/lambda_min+, the inverse of the
smallest positive eigenvalue.  So the program's thresholds must satisfy

    (1 - 1/1024) / lambda_max < epsilon < 1 / lambda_max,
    D = max(1, floor(1 / lambda_min+) + 1),
    inertia(M_D) = (#{lambda < 1/D}, #{lambda > 1/D}, 0).

These are decided with numpy eigenvalues.  When a float lies within a
relative margin of a boundary, the decision falls back to exact rational
arithmetic: Sylvester's criterion for positive-definiteness, and Descartes'
rule of signs on the characteristic polynomial (exact for real-rooted
polynomials) for inertia.

Word counts.  The growth series of a right-angled Coxeter group is
1 / sum_sigma (-t/(1+t))^|sigma|, sigma running over the sets of pairwise
commuting generators (including the empty set).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import comb, floor

import numpy as np

MARGIN = 1e-9


# -- exact rational linear algebra ---------------------------------------------


def _matrix(n: int, edges, diag, off) -> list[list[Fraction]]:
    """diag on the diagonal, off at every edge, 0 elsewhere."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = Fraction(diag)
    for i, j in edges:
        rows[i - 1][j - 1] = rows[j - 1][i - 1] = Fraction(off)
    return rows


def positive_definite(rows) -> bool:
    """Sylvester's criterion: every leading principal minor is positive.

    Elimination without row exchanges has k-th pivot D_k / D_(k-1), so all
    minors are positive exactly when every pivot is.
    """
    work = [list(r) for r in rows]
    n = len(work)
    for k in range(n):
        pivot = work[k][k]
        if pivot <= 0:
            return False
        for i in range(k + 1, n):
            factor = work[i][k] / pivot
            if factor:
                for j in range(k, n):
                    work[i][j] -= factor * work[k][j]
    return True


def _det(rows) -> Fraction:
    work = [list(r) for r in rows]
    n = len(work)
    det = Fraction(1)
    for k in range(n):
        pivot_row = next((r for r in range(k, n) if work[r][k] != 0), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], work[k]
            det = -det
        pivot = work[k][k]
        det *= pivot
        for i in range(k + 1, n):
            factor = work[i][k] / pivot
            if factor:
                for j in range(k, n):
                    work[i][j] -= factor * work[k][j]
    return det


def char_poly(rows) -> list[Fraction]:
    """Coefficients (ascending) of det(xI - S), by interpolation at x = 0..n."""
    n = len(rows)
    xs = list(range(n + 1))
    ys = []
    for x in xs:
        shifted = [[(x if i == j else 0) - rows[i][j] for j in range(n)] for i in range(n)]
        ys.append(_det(shifted))
    # Newton divided differences, then expand into monomials.
    coef = list(ys)
    for level in range(1, n + 1):
        for i in range(n, level - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - level])
    poly = [Fraction(0)] * (n + 1)
    for i in range(n, -1, -1):
        # poly = poly * (x - xs[i]) + coef[i]
        shifted = [Fraction(0)] + poly[:-1]
        poly = [s - xs[i] * p for s, p in zip(shifted, poly)]
        poly[0] += coef[i]
    return poly


def _sign_changes(coeffs) -> int:
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def inertia(rows) -> tuple[int, int, int]:
    """Exact (positive, negative, zero) eigenvalue counts of a symmetric matrix."""
    poly = char_poly(rows)
    z = next(k for k, c in enumerate(poly) if c != 0)
    reduced = poly[z:]
    p = _sign_changes(reduced)
    q = _sign_changes([c if k % 2 == 0 else -c for k, c in enumerate(reduced)])
    if p + q + z != len(rows):
        raise ArithmeticError("characteristic polynomial is not real-rooted")
    return p, q, z


# -- spectral thresholds --------------------------------------------------------


class Spectrum:
    """Eigenvalues of one diagram's adjacency matrix and the facts they fix."""

    def __init__(self, n: int, edges):
        self.n = n
        self.edges = tuple(edges)
        a = np.zeros((n, n))
        for i, j in self.edges:
            a[i - 1, j - 1] = a[j - 1, i - 1] = 1.0
        self.eigenvalues = np.linalg.eigvalsh(a)
        self.lam_max = float(self.eigenvalues[-1])
        self.d_value = self._d_value()

    def _pencil(self, d) -> list[list[Fraction]]:
        return _matrix(self.n, self.edges, 1, -Fraction(d))

    def epsilon_problem(self, eps: Fraction) -> str | None:
        """None when (1 - 1/1024)/lambda_max < eps < 1/lambda_max."""
        upper = 1.0 / self.lam_max
        lower = upper * (1 - 1 / 1024)
        x = float(eps)
        if abs(x - upper) <= MARGIN * upper:
            below_upper = positive_definite(self._pencil(eps)) and positive_definite(
                self._pencil(-eps)
            )
        else:
            below_upper = x < upper
        if not below_upper:
            return f"epsilon {eps} is not below 1/lambda_max ~ {upper:.9g}"
        if abs(x - lower) <= MARGIN * upper:
            # lower < eps  <=>  lambda_max > 1/c with c = 1024 eps / 1023
            # <=>  I - cA has a negative eigenvalue.
            above_lower = inertia(self._pencil(Fraction(1024, 1023) * eps))[1] > 0
        else:
            above_lower = x > lower
        if not above_lower:
            return f"epsilon {eps} is not above (1 - 1/1024)/lambda_max ~ {lower:.9g}"
        return None

    def _positive_count_above(self, c: Fraction) -> int:
        """Exact number of eigenvalues of A strictly greater than c."""
        return inertia(_matrix(self.n, self.edges, -c, 1))[0]

    def _d_value(self) -> int:
        positive = [float(x) for x in self.eigenvalues if x > MARGIN]
        x = 1.0 / min(positive)
        k = round(x)
        if k >= 1 and abs(x - k) <= MARGIN * max(1.0, x):
            # 1/lambda_min+ is (nearly) the integer k, so D is k or k + 1:
            # D = k exactly when no eigenvalue lies in (0, 1/k].
            in_range = self._positive_count_above(Fraction(0)) - self._positive_count_above(
                Fraction(1, k)
            )
            return k if in_range == 0 else k + 1
        return max(1, floor(x) + 1)

    def signature_at(self, d: int) -> tuple[int, int, int]:
        """Inertia of I - dA: eigenvalues below 1/d count positive."""
        cut = 1.0 / d
        if any(abs(float(x) - cut) <= MARGIN for x in self.eigenvalues):
            return inertia(self._pencil(d))
        p = sum(1 for x in self.eigenvalues if x < cut)
        return p, self.n - p, 0


# -- growth series ---------------------------------------------------------------


def clique_counts(n: int, edges) -> list[int]:
    """c[k] = number of k-sets of pairwise commuting (non-adjacent) generators."""
    adjacent = [0] * (n + 1)
    for i, j in edges:
        adjacent[i] |= 1 << j
        adjacent[j] |= 1 << i
    counts = [0] * (n + 1)

    def grow(start: int, size: int, blocked: int) -> None:
        counts[size] += 1
        for v in range(start, n + 1):
            if not (blocked >> v) & 1:
                grow(v + 1, size + 1, blocked | adjacent[v])

    grow(1, 0, 0)
    return counts


def growth_series(n: int, edges, max_len: int) -> list[int]:
    """Number of group elements of each length 0..max_len."""
    denom = [0] * (max_len + 1)
    for k, ck in enumerate(clique_counts(n, edges)):
        if ck == 0 or k > max_len:
            continue
        # (-t)^k (1+t)^(-k) = sum_j (-1)^(k+j) C(k+j-1, j) t^(k+j)
        for j in range(max_len - k + 1):
            binom = comb(k + j - 1, j) if k > 0 else int(j == 0)
            denom[k + j] += ck * (-1) ** (k + j) * binom
    series = [1] + [0] * max_len
    for i in range(1, max_len + 1):
        series[i] = -sum(denom[j] * series[i - j] for j in range(1, i + 1))
    return series


# -- checks on program output -------------------------------------------------------


def _is_cycle_complement(n: int, edges) -> bool:
    if n < 5:
        return False
    cycle = {(i, i + 1) for i in range(1, n)} | {(1, n)}
    return set(edges) == {
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if (i, j) not in cycle
    }


def _threshold_problems(spec: Spectrum, eps: Fraction, d_value: int, signature) -> list[str]:
    problems = []
    found = spec.epsilon_problem(eps)
    if found:
        problems.append(found)
    if d_value != spec.d_value:
        problems.append(f"D is {d_value}, expected {spec.d_value}")
    expected = spec.signature_at(spec.d_value)
    if tuple(signature) != expected:
        problems.append(f"signature at D is {tuple(signature)}, expected {expected}")
    if _is_cycle_complement(spec.n, spec.edges):
        k = 2 * (spec.n // 3)
        if tuple(signature) != (k, spec.n - k, 0):
            problems.append(f"cycle complement signature {tuple(signature)} is not ({k}, {spec.n - k}, 0)")
    return problems


def _quad_at_least(a: int, b: int, m: int, bound: Fraction) -> bool:
    """a + b*sqrt(m) >= bound, decided with integers."""
    p, q = bound.numerator, bound.denominator
    u, r = b * q, p - a * q  # compare u*sqrt(m) with r
    if u >= 0:
        return r <= 0 or u * u * m >= r * r
    return r <= 0 and u * u * m <= r * r


def _integer(text: str) -> int:
    value = Fraction(text)
    if value.denominator != 1:
        raise ValueError(f"{text} is not an integer")
    return value.numerator


def _unit_problems(unit: dict, eps: Fraction, d_value: int) -> list[str]:
    pell = unit["pell"]
    m, x, y, norm = pell["m"], int(pell["x"]), int(pell["y"]), pell["norm"]
    problems = []
    if norm not in (1, -1) or x * x - m * y * y != norm:
        problems.append(f"Pell pair ({x}, {y}) does not solve x^2 - {m} y^2 = {norm}")
    power = unit["power"]
    a, b = 1, 0
    for _ in range(power - 1):
        a, b = a * x + m * b * y, a * y + b * x
    bound = max(1 / eps, Fraction(d_value))
    if _quad_at_least(a, b, m, bound):
        problems.append(f"unit^{power - 1} already clears {bound}")
    a, b = a * x + m * b * y, a * y + b * x
    if not _quad_at_least(a, b, m, bound):
        problems.append(f"alpha = unit^{power} does not clear {bound}")
    alpha = unit["alpha"]
    if (_integer(alpha["a"]), _integer(alpha["b"]), alpha["m"]) != (a, b, m):
        problems.append("alpha is not the stated power of the Pell unit")
    tau = unit["tau_alpha"]
    if (_integer(tau["a"]), _integer(tau["b"])) != (a, -b):
        problems.append("tau(alpha) is not the conjugate of alpha")
    if Fraction(unit["product"]) != a * a - m * b * b or abs(a * a - m * b * b) != 1:
        problems.append("alpha * tau(alpha) is not the unit norm")
    return problems


def check_certificate(text: str, n: int, edges, spec: Spectrum, m: int, probe_len: int) -> list[str]:
    """Check one `coxcert embed` certificate against the oracles."""
    try:
        cert = json.loads(text)
        th = cert["thresholds"]
        eps = Fraction(th["epsilon"])
        d_value = th["d_value"]
        problems = []
        if cert["diagram"] != {"n": n, "edges": [list(e) for e in edges]}:
            problems.append("certificate names another diagram")
        if cert["m"] != m:
            problems.append(f"certificate ring m={cert['m']}, expected {m}")
        problems += _threshold_problems(spec, eps, d_value, th["signature"])
        problems += _unit_problems(cert["unit"], eps, d_value)
        trace = cert["density_trace"]
        full = n * (n - 1) // 2
        if not trace or trace[0] != len(edges) or trace[-1] != full:
            problems.append(f"density trace {trace} does not run from {len(edges)} to {full}")
        if any(b < a for a, b in zip(trace, trace[1:])):
            problems.append(f"density trace {trace} decreases")
        probe = cert["faithfulness_probe"]
        if probe != {"passed": True, "max_len": probe_len, "t": f"{spec.d_value}/1"}:
            problems.append(f"faithfulness probe record {probe} is wrong")
        verdicts = cert["verdicts"]
        if ("cycle_example_ok" in verdicts) != _is_cycle_complement(n, edges):
            problems.append("cycle_example_ok present on the wrong diagram")
        failing = sorted(k for k, v in verdicts.items() if v is not True)
        if failing or cert["passed"] is not True:
            problems.append(f"failing verdicts {failing}")
        return problems
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"certificate unreadable: {exc!r}"]


def _field(stdout: str, label: str) -> str:
    match = re.search(rf"^{re.escape(label)}: (.*)$", stdout, re.MULTILINE)
    if match is None:
        raise ValueError(f"no '{label}' line")
    return match.group(1)


def check_analyze(stdout: str, spec: Spectrum) -> list[str]:
    """Check `coxcert analyze` output."""
    try:
        eps = Fraction(_field(stdout, "epsilon").split()[0])
        d_value = int(_field(stdout, "D"))
        signature = tuple(int(v) for v in re.findall(r"-?\d+", _field(stdout, "signature at D")))
        return _threshold_problems(spec, eps, d_value, signature)
    except ValueError as exc:
        return [f"analyze output unreadable: {exc}"]


def check_words(stdout: str, spec: Spectrum, max_len: int, at_d: str | None) -> list[str]:
    """Check `coxcert words` output: counts, images and the probe point."""
    try:
        words = [int(v) for v in _field(stdout, "word counts").split()]
        images = [int(v) for v in _field(stdout, "image counts").split()]
        t = Fraction(_field(stdout, "t"))
        verdict = _field(stdout, "faithfulness probe")
    except ValueError as exc:
        return [f"words output unreadable: {exc}"]
    problems = []
    expected = growth_series(spec.n, spec.edges, max_len)
    if words != expected:
        problems.append(f"word counts {words}, growth series gives {expected}")
    if images != expected:
        problems.append(f"image counts {images}, growth series gives {expected}")
    want_t = Fraction(at_d) if at_d is not None else Fraction(spec.d_value)
    if t != want_t:
        problems.append(f"probe point {t}, expected {want_t}")
    if verdict != "PASS":
        problems.append(f"faithfulness probe says {verdict}")
    return problems
