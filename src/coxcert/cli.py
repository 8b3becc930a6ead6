"""Command-line front end.

Six subcommands over diagram files:

    analyze   thresholds epsilon and D plus the stable signature
    embed     run the full pipeline, emit a canonical JSON certificate
    verify    re-derive a stored certificate and compare byte-for-byte
    density   bracket-closure dimension trace at a rational parameter
    words     word counts per length and the faithfulness probe
    cycle     closed-form checks for one cycle-complement diagram

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 bad
input or usage.  Certificates are deterministic: the JSON body contains
no timing, no environment data, and all numbers in canonical form, so
the same diagram and ring always produce identical bytes.  Timings go
to stderr only.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from . import cyclecheck, gram, liealg, units, vinberg, words
from .diagram import MAX_VERTICES, cycle_complement, parse_diagram, serialize_diagram
from .errors import CoxcertError, InputError, TooManyVertices

CERTIFICATE_FORMAT = "coxcert-embedding/1"
# The certificate sections verify reads, each checked to be an object first;
# a parent comes before its children.
_SECTIONS = ("diagram", "thresholds", "unit", "unit.pell", "unit.alpha", "unit.tau_alpha", "faithfulness_probe")
# The only form _rat writes; Fraction() alone would also take "1e20000000"
# and spend minutes computing 10**20000000.
_STORED_RATIONAL = re.compile(r"-?[0-9]+/[0-9]+")
# The form the Pell coordinates x and y are written in.
_STORED_DIGITS = re.compile(r"[0-9]+")
# The forms --d and --at-d accept: an integer or p/q, optionally signed.
_USER_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


# -- canonical rendering ---------------------------------------------------


def _rat(q) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def _quad(x) -> dict:
    return {"a": _rat(x.a), "b": _rat(x.b), "m": x.m}


def _interval(iv):
    if iv is None:
        return None
    return [_rat(iv.lo), _rat(iv.hi)]


def certificate_payload(cert) -> dict:
    """The deterministic JSON body; everything exact, nothing environmental."""
    thresholds, pell = cert.thresholds, cert.unit.base
    return {
        "format": CERTIFICATE_FORMAT,
        "diagram": {
            "n": cert.diagram.n,
            "edges": [list(e) for e in cert.diagram.sorted_edges()],
        },
        "m": cert.m,
        "thresholds": {
            "epsilon": _rat(thresholds.epsilon),
            "rho_interval": _interval(thresholds.rho_interval),
            "d_value": thresholds.d_value,
            "largest_root_interval": _interval(thresholds.largest_root_interval),
            "signature": list(thresholds.signature),
        },
        "unit": {
            "pell": {
                "m": pell.m,
                "x": str(pell.x),
                "y": str(pell.y),
                "norm": pell.norm,
            },
            "power": cert.unit.k,
            "alpha": _quad(cert.unit.value),
            "tau_alpha": _quad(cert.galois.tau),
            "product": _rat(cert.galois.product),
        },
        "density_trace": list(cert.density.dimension_trace),
        "faithfulness_probe": {
            "passed": cert.probe.injective,
            "max_len": cert.probe.max_len,
            "t": _rat(cert.probe.t),
        },
        "verdicts": cert.verdicts(),
        "passed": cert.passed,
    }


def canonical_json(payload: dict) -> str:
    import json

    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# -- shared input handling -------------------------------------------------


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc


def _load_diagram(path: str):
    return parse_diagram(_read_text(path))


def _parse_fraction(text: str) -> Fraction:
    """An integer or p/q; a decimal or exponent form is refused unexpanded."""
    if _USER_RATIONAL.fullmatch(text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(f"not a rational number: {text!r} (give an integer or p/q)")


def _emit_timings(timings: dict) -> None:
    for stage, seconds in timings.items():
        print(f"# {stage}: {seconds:.3f}s", file=sys.stderr)


# -- subcommands -------------------------------------------------------------


def cmd_analyze(args) -> int:
    g = _load_diagram(args.diagram)
    report = gram.threshold_report(gram.gram_pencil(g))
    print(f"vertices: {g.n}")
    print(f"edges: {len(g.edges)}")
    eps = report.epsilon
    print(f"epsilon: {_rat(eps)} (~{float(eps):.6g})")
    if report.rho_interval is not None:
        iv = report.rho_interval
        print(f"rho interval: [{_rat(iv.lo)}, {_rat(iv.hi)}] (~{float(iv.mid):.6g})")
    else:
        print("rho interval: none (no minor has a real root)")
    print(f"D: {report.d_value}")
    if report.largest_root_interval is not None:
        iv = report.largest_root_interval
        print(f"largest root interval: [{_rat(iv.lo)}, {_rat(iv.hi)}] (~{float(iv.mid):.6g})")
    else:
        print("largest root interval: none (det M_d has no real root)")
    print(f"signature at D: {report.signature}")
    return 0


def cmd_embed(args) -> int:
    if args.probe_len < 0:
        raise InputError("--probe-len must be nonnegative")
    g = _load_diagram(args.diagram)
    if args.out and (os.path.isdir(args.out) or not os.path.isdir(os.path.dirname(os.path.abspath(args.out)))):
        raise InputError(f"cannot write {args.out}: not a file in an existing directory")
    cert = vinberg.build_embedding_certificate(g, m=args.m, probe_len=args.probe_len)
    text = canonical_json(certificate_payload(cert))
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"cannot write {args.out}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)
    _emit_timings(cert.timings)
    for name, verdict in cert.verdicts().items():
        print(f"# {name}: {'pass' if verdict else 'FAIL'}", file=sys.stderr)
    return 0 if cert.passed else 1


def _check_sections(payload: dict) -> None:
    for path in _SECTIONS:
        node = payload
        for key in path.split("."):
            node = node.get(key)
        if not isinstance(node, dict):
            raise InputError(f"certificate is malformed: {path} must be an object")


def _stored_rational(text, name: str) -> Fraction:
    """A rational of the certificate, accepted only in the form _rat writes."""
    if isinstance(text, str) and _STORED_RATIONAL.fullmatch(text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(f"certificate is malformed: {name} must be a rational p/q")


def _stored_int(value, name: str) -> int:
    """A JSON integer of the certificate; bools and floats are refused."""
    if type(value) is not int:
        raise InputError(f"certificate is malformed: {name} must be an integer, got {value!r}")
    return value


def _stored_digits(text, name: str) -> int:
    """A nonnegative integer the certificate writes as a string of digits."""
    if not (isinstance(text, str) and _STORED_DIGITS.fullmatch(text)):
        raise InputError(f"certificate is malformed: {name} must be a string of digits")
    return int(text)


def _recheck_unit_block(payload: dict) -> None:
    """Re-derive the unit data of a stored certificate from scratch.

    Independent of the byte comparison: every unit field is type-checked
    first, the Pell solution is recomputed, alpha is rebuilt as the stated
    power, and galois_pair_check decides the Galois pair against the stated
    epsilon; its tau and product must equal the stored ones.  Any mismatch
    is a verification failure.
    """
    from .errors import VerificationFailed
    from .exactcore import QuadElem

    unit = payload["unit"]
    pell_data = unit["pell"]
    m = _stored_int(pell_data["m"], "unit.pell.m")
    x, y = (_stored_digits(pell_data[c], f"unit.pell.{c}") for c in "xy")
    stated = units.PellSolution(m, x, y, _stored_int(pell_data["norm"], "unit.pell.norm"))
    power = _stored_int(unit["power"], "unit.power")

    def stored_quad(key: str):
        a, b = (_stored_rational(unit[key][c], f"unit.{key}.{c}") for c in "ab")
        return QuadElem(a, b, m)

    alpha = stored_quad("alpha")
    tau = stored_quad("tau_alpha")
    product = _stored_rational(unit["product"], "unit.product")
    epsilon = _stored_rational(payload["thresholds"]["epsilon"], "thresholds.epsilon")

    pell = units.fundamental_pell(m)
    if stated != pell:
        raise VerificationFailed(f"stored Pell solution {stated} is not fundamental for m={m}")
    # Every unit > 1 of Z[sqrt(m)] is at least 1 + sqrt(2) > 2, so the k-th
    # power has rational part >= 2^(k-1), and >= x^k for the unit x + y sqrt(m):
    # a larger power cannot match alpha, and rejecting it first bounds the
    # work by the certificate's size.
    bits = int(alpha.a).bit_length()
    if not 1 <= power <= bits or power * (pell.x.bit_length() - 1) >= bits or alpha != pell.unit() ** power:
        raise VerificationFailed("stored alpha is not the stated power of the fundamental unit")
    galois = units.galois_pair_check(units.UnitValue(pell, power, alpha), epsilon)
    if galois.tau != tau:
        raise VerificationFailed("stored tau(alpha) is not the conjugate of alpha")
    if galois.product != product:
        raise VerificationFailed("stored alpha * tau(alpha) does not match")


def cmd_verify(args) -> int:
    import json

    from .errors import VerificationFailed

    stored_text = _read_text(args.certificate)
    try:
        payload = json.loads(stored_text)
    except (ValueError, RecursionError) as exc:  # also a too long integer literal or too deep nesting
        raise InputError(f"certificate is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != CERTIFICATE_FORMAT:
        raise InputError(f"not a {CERTIFICATE_FORMAT} certificate")

    _check_sections(payload)
    g = _load_diagram(args.diagram)
    stored_diagram = payload["diagram"]
    if stored_diagram.get("n") != g.n or [list(e) for e in g.sorted_edges()] != stored_diagram.get("edges"):
        print("FAIL: certificate was issued for a different diagram", file=sys.stderr)
        return 1

    try:
        _recheck_unit_block(payload)
        m = _stored_int(payload["m"], "m")
        probe_len = _stored_int(payload["faithfulness_probe"]["max_len"], "faithfulness_probe.max_len")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"certificate is malformed: {exc!r}") from exc
    if probe_len < 0:
        raise InputError(f"certificate is malformed: faithfulness_probe.max_len is {probe_len} < 0")

    cert = vinberg.build_embedding_certificate(g, m=m, probe_len=probe_len)
    fresh_text = canonical_json(certificate_payload(cert))
    _emit_timings(cert.timings)
    if fresh_text != stored_text:
        print("FAIL: certificate does not match a fresh derivation", file=sys.stderr)
        return 1
    if not cert.passed:
        print("FAIL: re-derived certificate has failing verdicts", file=sys.stderr)
        return 1
    print("certificate verified: byte-identical re-derivation, all checks pass")
    return 0


def cmd_density(args) -> int:
    g = _load_diagram(args.diagram)
    if args.d is not None:
        t = _parse_fraction(args.d)
    else:
        t = gram.d_threshold(gram.gram_pencil(g))[0]
    cert = liealg.bracket_closure_density(g, t)
    print(f"t: {_rat(cert.t)}")
    print(f"seed pairs: {' '.join(f'({i},{j})' for i, j in cert.seed_pairs)}")
    print("dimension trace: " + " -> ".join(str(k) for k in cert.dimension_trace))
    print(f"final dimension: {cert.final_dimension} of {cert.full_dimension}")
    print("PASS" if cert.verdict else "FAIL")
    return 0 if cert.verdict else 1


def cmd_words(args) -> int:
    g = _load_diagram(args.diagram)
    if args.max_len < 0:
        raise InputError("--max-len must be nonnegative")
    if args.at_d is not None:
        t = _parse_fraction(args.at_d)
        if t < 1:
            raise InputError(f"--at-d must be at least 1, got {args.at_d}")
    counts = words.enumerate_by_length(g, args.max_len)
    print("word counts: " + " ".join(str(c) for c in counts))
    if args.at_d is None:
        t = gram.d_threshold(gram.gram_pencil(g))[0]
    report = words.faithfulness_probe(g, t, args.max_len)
    print("image counts: " + " ".join(str(c) for c in report.image_counts))
    print(f"t: {_rat(t)}")
    print(f"faithfulness probe: {'PASS' if report.injective else 'FAIL'}")
    return 0 if report.injective else 1


def cmd_cycle(args) -> int:
    if args.n > MAX_VERTICES:
        raise TooManyVertices(f"--n must be at most {MAX_VERTICES}, got {args.n}")
    g = cycle_complement(args.n)
    report = cyclecheck.verify_cycle_example(args.n, gram.d_threshold(gram.gram_pencil(g))[0])
    print(serialize_diagram(g), end="")
    print(f"D: {report.d_value}")
    print(f"circulant identity: {'pass' if report.identity_ok else 'FAIL'}")
    print(
        f"stable signature: {report.signature} expected {report.expected_signature}: "
        f"{'pass' if report.signature_ok else 'FAIL'}"
    )
    print(
        f"special eigenvalue {_rat(report.special_eigenvalue)} at t={_rat(report.t_checked)}: "
        f"{'exact root' if report.special_is_root else 'FAIL'}"
    )
    _pairs, max_deviation = cyclecheck.spectrum_deviation(report.n, report.t_checked)
    print(
        f"spectrum at t={_rat(report.t_checked)}: max deviation {max_deviation:.3g}: "
        f"{'pass' if report.spectrum_ok else 'FAIL'}"
    )
    print("PASS" if report.ok else "FAIL")
    return 0 if report.ok else 1


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxcert",
        description="Exact certification of reflection-group embeddings over real quadratic rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="thresholds epsilon and D for a diagram")
    p.add_argument("diagram", help="diagram file ('-' for stdin)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("embed", help="full pipeline, canonical JSON certificate")
    p.add_argument("diagram", help="diagram file ('-' for stdin)")
    p.add_argument("--m", type=int, default=2, help="squarefree radicand of the ring (default 2)")
    p.add_argument("--probe-len", type=int, default=4, help="faithfulness probe depth (default 4)")
    p.add_argument("--out", help="write the certificate here instead of stdout")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("verify", help="re-derive a certificate and compare bytes")
    p.add_argument("certificate", help="certificate JSON file")
    p.add_argument("diagram", help="diagram file ('-' for stdin)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("density", help="bracket-closure dimension trace")
    p.add_argument("diagram", help="diagram file ('-' for stdin)")
    p.add_argument("--d", help="rational parameter value (default: the threshold D)")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("words", help="word counts and the faithfulness probe")
    p.add_argument("diagram", help="diagram file ('-' for stdin)")
    p.add_argument("--max-len", type=int, default=8, help="maximum word length (default 8)")
    p.add_argument("--at-d", help="probe parameter (default: the threshold D)")
    p.set_defaults(func=cmd_words)

    p = sub.add_parser("cycle", help="closed-form checks for cycle_complement(n)")
    p.add_argument("--n", type=int, required=True, help=f"number of vertices (5 to {MAX_VERTICES})")
    p.set_defaults(func=cmd_cycle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CoxcertError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
