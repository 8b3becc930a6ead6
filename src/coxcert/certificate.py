"""The `coxcert-embedding/1` certificate: what `embed` writes and `verify` re-derives.

Certificates are deterministic: the JSON body contains no timing, no
environment data, and all numbers in canonical form, so the same diagram
and ring always produce identical bytes.  Timings go to stderr only.

Only the `embed` and `verify` commands import this module, so no other
command compiles it.
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction

from . import units, vinberg
from .cli import _emit_timings, _load_diagram, _rat, _read_text
from .errors import InputError, VerificationFailed
from .exactcore import QuadElem

CERTIFICATE_FORMAT = "coxcert-embedding/1"
# The certificate sections verify reads, each checked to be an object first;
# a parent comes before its children.
_SECTIONS = ("diagram", "thresholds", "unit", "unit.pell", "unit.alpha", "unit.tau_alpha", "faithfulness_probe")
# The only form _rat writes; Fraction() alone would also take "1e20000000"
# and spend minutes computing 10**20000000.
_STORED_RATIONAL = r"-?[0-9]+/[0-9]+"
# The form the Pell coordinates x and y are written in.
_STORED_DIGITS = r"[0-9]+"


# -- canonical rendering ---------------------------------------------------


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
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# -- embed -------------------------------------------------------------------


def embed(args) -> int:
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


# -- verify ------------------------------------------------------------------


def _check_sections(payload: dict) -> None:
    for path in _SECTIONS:
        node = payload
        for key in path.split("."):
            node = node.get(key)
        if not isinstance(node, dict):
            raise InputError(f"certificate is malformed: {path} must be an object")


def _stored_rational(text, name: str) -> Fraction:
    """A rational of the certificate, accepted only in the form _rat writes."""
    if isinstance(text, str) and re.fullmatch(_STORED_RATIONAL, text):
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
    if not (isinstance(text, str) and re.fullmatch(_STORED_DIGITS, text)):
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


def verify(args) -> int:
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
