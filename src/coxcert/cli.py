"""Command-line front end.

Six subcommands over diagram files:

    analyze   thresholds epsilon and D plus the stable signature
    embed     run the full pipeline, emit a canonical JSON certificate
    verify    re-derive a stored certificate and compare byte-for-byte
    density   bracket-closure dimension trace at a rational parameter
    words     word counts per length and the faithfulness probe
    cycle     closed-form checks for one cycle-complement diagram

Exit codes: 0 all checks passed, 1 a mathematical check failed, 2 bad
input or usage.  The certificate format, and the `embed` and `verify`
handlers that write and read it, live in `certificate`, which only those
two commands import.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace

from . import cyclecheck, gram, liealg, words
from .diagram import MAX_VERTICES, cycle_complement, parse_diagram, serialize_diagram
from .errors import CoxcertError, InputError, TooManyVertices

# Patterns stay strings, compiled on first use: most commands read none.
# The forms --d and --at-d accept: an integer or p/q, optionally signed.
_USER_RATIONAL = r"[+-]?[0-9]+(/[0-9]+)?"


# -- shared input handling -------------------------------------------------


def _rat(q) -> str:
    """A rational in the canonical form p/q that output and certificates use."""
    from fractions import Fraction

    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


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


def _parse_fraction(text: str):
    """The Fraction of an integer or p/q; a decimal or exponent form is refused unexpanded."""
    from fractions import Fraction

    if re.fullmatch(_USER_RATIONAL, text):
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
    from .certificate import embed

    return embed(args)


def cmd_verify(args) -> int:
    from .certificate import verify

    return verify(args)


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


# -- command table -----------------------------------------------------------

# name: (handler, positionals, options, summary).  An option is (name, type,
# default, help); a default of ... marks one that must be given.  parse_args
# reads nothing else, and help text comes from nowhere else.
COMMANDS = {
    "analyze": (cmd_analyze, ("diagram",), (), "thresholds epsilon and D for a diagram"),
    "embed": (
        cmd_embed,
        ("diagram",),
        (
            ("m", int, 2, "squarefree radicand of the ring (default 2)"),
            ("probe-len", int, 4, "faithfulness probe depth (default 4)"),
            ("out", str, None, "write the certificate here instead of stdout"),
        ),
        "full pipeline, canonical JSON certificate",
    ),
    "verify": (cmd_verify, ("certificate", "diagram"), (), "re-derive a certificate and compare bytes"),
    "density": (
        cmd_density,
        ("diagram",),
        (("d", str, None, "rational parameter value (default: the threshold D)"),),
        "bracket-closure dimension trace",
    ),
    "words": (
        cmd_words,
        ("diagram",),
        (
            ("max-len", int, 8, "maximum word length (default 8)"),
            ("at-d", str, None, "probe parameter (default: the threshold D)"),
        ),
        "word counts and the faithfulness probe",
    ),
    "cycle": (
        cmd_cycle,
        (),
        (("n", int, ..., f"number of vertices (5 to {MAX_VERTICES})"),),
        "closed-form checks for cycle_complement(n)",
    ),
}
_POSITIONALS = {"diagram": "diagram file ('-' for stdin)", "certificate": "certificate JSON file"}
_HELP = ("-h", "--help")
# A token like -1 or -.5 is a value, not an option (argparse's rule, as no option looks like a number).
_NEGATIVE_NUMBER = r"^-\d+$|^-\d*\.\d+$"


class UsageError(InputError):
    """A command line the table does not parse; its args are (command or None, message)."""


def _flag(name: str) -> str:
    return f"--{name} {name.upper().replace('-', '_')}"


def _usage(command) -> str:
    if command is None:
        return "coxcert [-h] {" + ",".join(COMMANDS) + "} ..."
    _, positionals, options, _ = COMMANDS[command]
    flags = [_flag(name) if default is ... else f"[{_flag(name)}]" for name, _, default, _ in options]
    return " ".join(["coxcert", command, "[-h]", *flags, *positionals])


def _show_help(args) -> int:
    """argparse's help at 80 columns: each help text starts in one column, at most 24."""
    if args.command is None:
        head = "\n\nExact certification of reflection-group embeddings over real quadratic rings."
        positionals = [(2, "{" + ",".join(COMMANDS) + "}", None)]
        positionals += [(4, name, spec[3]) for name, spec in COMMANDS.items()]
        options = []
    else:
        head, (_, names, options, _) = "", COMMANDS[args.command]
        positionals = [(2, name, _POSITIONALS[name]) for name in names]
        options = [(2, _flag(name), text) for name, _, _, text in options]
    options.insert(0, (2, "-h, --help", "show this help message and exit"))
    column = min(max(indent + len(left) for indent, left, _ in positionals + options) + 2, 24)
    lines = [f"usage: {_usage(args.command)}{head}"]
    for title, rows in (("positional arguments", positionals), ("options", options)):
        lines += [f"\n{title}:"] if rows else []
        for indent, left, text in rows:
            if text is None or indent + len(left) + 2 > column:  # the text goes on the next line
                lines.append(" " * indent + left)
                left = ""
            if text:
                lines.append(" " * indent + left.ljust(column - indent - 2) + "  " + text)
    print("\n".join(lines))
    return 0


def _classify(token: str, names: tuple, command):
    """One token before `--`: None for a value, else (option, its =value or None), the option None
    when names lacks it.  An option is named in full or by a unique prefix; -h may run on, as -hh."""
    if token[:1] != "-" or token == "-":
        return None
    head, eq, value = token.partition("=")
    if head in names:
        return head, value if eq else None
    if token[1] == "-":
        found = [name for name in names if name.startswith(head)]
        if len(found) > 1:
            raise UsageError(command, f"ambiguous option: {token} could match {', '.join(found)}")
        if found:
            return found[0], value if eq else None
    elif token.startswith("-h"):
        return "-h", token[2:]
    return None if re.match(_NEGATIVE_NUMBER, token) or " " in token else (None, None)


def _help(command, kind) -> SimpleNamespace:
    option, value = kind
    if value is None or option == "-h" and value and not value.strip("h"):
        return SimpleNamespace(command=command, func=_show_help)
    raise UsageError(command, f"argument -h/--help: ignored explicit argument {value!r}")


def parse_args(argv) -> SimpleNamespace:
    """The command's arguments with func its handler, or func _show_help for -h/--help; a
    command line outside the grammar raises UsageError.

    The grammar is the one argparse gave these commands.  The top level reads -h and unknown
    options up to the command, which takes the rest.  Each level classifies its tokens before
    acting on any.  An option takes the token after it unless that is an option too, and the last
    of a repeated option wins.  The first `--` makes every later token a value; a positional
    beside it must take it.  Unknown options are refused once the command has parsed without help.
    """
    argv, extras, command = list(argv), [], None
    for at, token in enumerate(argv):
        kind = None if token == "--" else _classify(token, _HELP, None)
        if kind is None:
            command = token
            break
        if kind[0]:
            return _help(None, kind)
        extras.append(token)
    if command == "--" and at == len(argv) - 1:
        command = None  # argparse drops a lone last `--`
    if command not in COMMANDS:
        invalid = f"argument command: invalid choice: {command!r} (choose from {', '.join(map(repr, COMMANDS))})"
        raise UsageError(None, invalid if command is not None else "the following arguments are required: command")
    handler, wanted, options, _ = COMMANDS[command]
    table = {f"--{name}": (name.replace("-", "_"), convert) for name, convert, _, _ in options}
    args = {name.replace("-", "_"): default for name, _, default, _ in options}
    tokens, wanted, taken = argv[at + 1 :], list(wanted), set()
    cut = tokens.index("--") if "--" in tokens else len(tokens)
    # One kind per token and one past the end: "--" for the first "--" and the end, None for a value.
    kinds = [_classify(token, (*_HELP, *table), command) for token in tokens[:cut]] + ["--"]
    kinds += [None] * (len(tokens) - cut)
    at = 0
    while at < len(tokens):
        token, kind = tokens[at], kinds[at]
        at += 1
        if kind == "--":
            before = len(extras)
            continue
        if kind is None and wanted:
            args[wanted.pop(0)] = token
            taken.add(at - 1)
        elif kind is None or kind[0] is None:
            extras.append(token)
        elif kind[0] in _HELP:
            return _help(command, kind)
        else:
            option, value = kind
            if value is None:
                if kinds[at] is not None:
                    raise UsageError(command, f"argument {option}: expected one argument")
                value, at = tokens[at], at + 1
            dest, convert = table[option]
            try:
                args[dest] = convert(value)
            except ValueError:
                raise UsageError(command, f"argument {option}: invalid {convert.__name__} value: {value!r}") from None
    if cut < len(tokens) and not taken & {cut - 1, cut + 1}:
        extras.insert(before, "--")  # only a positional beside it takes the first "--"
    missing = wanted + [option for option, (dest, _) in table.items() if args[dest] is ...]
    if missing:
        raise UsageError(command, "the following arguments are required: " + ", ".join(missing))
    if extras:
        raise UsageError(None, "unrecognized arguments: " + " ".join(extras))  # the top level reports them
    return SimpleNamespace(command=command, func=handler, **args)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        return args.func(args)
    except UsageError as exc:
        command, message = exc.args
        prog = "coxcert" if command is None else f"coxcert {command}"
        print(f"usage: {_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CoxcertError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1


# Served from `certificate`, never cached here, only for the names that
# `bench/traced.py`'s STAGES looks up in this module: the tracer then
# rewrites the one binding that `embed` and `verify` call.
_FORWARDED = ("certificate_payload", "canonical_json", "_recheck_unit_block")


def __getattr__(name: str):
    if name not in _FORWARDED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import certificate

    return getattr(certificate, name)


if __name__ == "__main__":
    sys.exit(main())
