"""The command table's parser against the argparse parser it replaced.

`cli.parse_args` must read every command line as `_cli_oracle.build_parser`
reads it under Python 3.11's argparse, the reference: the same fields, of
the same types, wherever argparse parses; where argparse exits 2, a usage
error with its stderr byte for byte; where it exits 0, help with its
stdout byte for byte, at 80 columns.  The corpus is an enumerated one,
every command with its options exact, abbreviated, `=`-joined, repeated
and placed around the positionals, and a derandomized hypothesis strategy
over the same tokens.  No command line holds `--` twice or joins it to an
option with `=`: argparse 3.11 drops a `--` from the values of every
argument, not only the first, so such a value becomes an empty list, which
no handler takes.

Later argparse releases changed how `--` is stripped and how single-dash
prefixes match, so the live comparison runs only on 3.11.  Everywhere, the
table's readings of the enumerated corpus must hash to the digest below,
which is that of argparse 3.11's readings.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxcert.cli import COMMANDS, UsageError, _show_help, main, parse_args

from _cli_oracle import build_parser

ORACLE = build_parser()
REFERENCE = sys.version_info[:2] == (3, 11)
only_on_the_reference = pytest.mark.skipif(not REFERENCE, reason="argparse 3.11 is the reference grammar")
# sha256 of canonical_readings(enumerated_corpus()), argparse 3.11's and the table's alike.
CORPUS_DIGEST = "7a75a9e197e4730883ef970d73f33c03a75f51601541c8179c960c8daa8b826d"
VALUES = ("3", "-1", "-1/2", "1_0", "x", "-")
# A stand-in for each positional: the certificate and the diagram.
POSITIONALS = {"certificate": "c", "diagram": "d"}


def argparse_reading(argv):
    """vars() of argparse's namespace, or ("help", stdout) when it exits 0 and ("error", stderr) when it exits 2."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with mock.patch.dict(os.environ, COLUMNS="80"), redirect_stdout(out), redirect_stderr(err):
            namespace = ORACLE.parse_args(argv)
    except SystemExit as exc:
        return {0: ("help", out.getvalue()), 2: ("error", err.getvalue())}[exc.code]
    return vars(namespace)


def table_reading(argv):
    """The same reading of cli.parse_args, with main's output where it parses no command."""
    try:
        namespace = parse_args(argv)
        if namespace.func is not _show_help:
            return vars(namespace)
    except UsageError:
        pass
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {0: ("help", out.getvalue()), 2: ("error", err.getvalue())}[code]


def assert_agrees(argv):
    expected, got = argparse_reading(argv), table_reading(argv)
    assert got == expected, argv
    if isinstance(expected, dict):
        assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in expected.items()}, argv


def canonical_readings(corpus) -> str:
    """The table's readings as JSON, each field with its type's name and the handler by name."""
    field = lambda v: [type(v).__name__, getattr(v, "__name__", v)]
    readings = [table_reading(argv) for argv in corpus]
    readings = [{k: field(v) for k, v in r.items()} if isinstance(r, dict) else r for r in readings]
    return json.dumps(list(zip(corpus, readings)), sort_keys=True)


def spellings(option: str):
    """--option and every longer prefix of it than `--`; the command's other options share none."""
    return [option[:k] for k in range(3, len(option) + 1)]


def enumerated_corpus():
    yield from ([], [""], ["-h"], ["--help"], ["--he"], ["-hh"], ["-hx"], ["--help=x"], ["nope"], ["--"], ["--", "analyze"])
    yield from (["--nope", "analyze", "d"], ["--nope", "analyze", "-h"], ["-x", "cycle", "--n", "5"], ["-1", "analyze"])
    for command, (_, positionals, options, _) in COMMANDS.items():
        args = [POSITIONALS[name] for name in positionals]
        yield [command, *args]
        yield [command, *args, "extra"]
        yield [command, "", *args]
        yield [command, *args[:-1]]
        yield [command, "-", *args[1:]]
        yield [command, "--", *args]
        yield [command, *args, "--"]
        yield [command, *args[:1], "--", *args[1:]]
        yield [command, "--", "-x", *args[1:]]
        for unknown in ("--nope", "-x", "--=3", "--h=x", "-h=h"):
            yield [command, *args, unknown]
            yield [command, "-h", unknown]
            yield [command, *args, unknown, "3"]
        for flag in ("-h", *spellings("--help")):
            yield [command, flag]
            yield [command, *args, flag, "--nope"]
            yield [command, "--nope", flag]
        for name, _, _, _ in options:
            for option in spellings(f"--{name}"):
                yield [command, *args, option]
                yield [command, option, "--", "-1/2", *args]
                yield [command, option, "3", "--", *args]
                yield [command, *args, option, "3", "--"]
                for value in VALUES:
                    yield [command, *args, option, value]
                    yield [command, option, value, *args]
                    yield [command, f"{option}={value}", *args]
                    yield [command, *args[:1], option, value, *args[1:]]
                    yield [command, *args, option, "3", option, value]
                    yield [command, option, value, "-h"]
                    yield [command, "-h", option, value]


@only_on_the_reference
def test_the_table_reads_the_enumerated_corpus_as_argparse_does():
    corpus = list(enumerated_corpus())
    assert len(corpus) > 1000
    for argv in corpus:
        assert_agrees(argv)


def test_the_enumerated_corpus_reads_as_under_argparse_3_11():
    readings = canonical_readings(list(enumerated_corpus()))
    assert hashlib.sha256(readings.encode()).hexdigest() == CORPUS_DIGEST


OPTIONS = sorted({prefix for spec in COMMANDS.values() for name, *_ in spec[2] for prefix in spellings(f"--{name}")})
TOKENS = st.sampled_from(
    [*COMMANDS, *POSITIONALS.values(), *VALUES, *OPTIONS, "--", "-h", "--help", "--h", "-hh", "--nope", "-x", "--=3", ""]
    + [f"{option}={value}" for option in OPTIONS[::3] for value in VALUES[:3]]
)


@only_on_the_reference
@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.lists(st.sampled_from(list(COMMANDS)), max_size=1), st.lists(TOKENS, max_size=6))
def test_the_table_reads_token_mixes_as_argparse_does(head, tail):
    argv = head + tail
    if argv.count("--") <= 1:
        assert_agrees(argv)


def test_a_usage_error_prints_the_usage_line_and_returns_2(capsys):
    assert main([]) == 2
    assert main(["cycle", "--n", "x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "usage: coxcert [-h] {analyze,embed,verify,density,words,cycle} ...",
        "coxcert: error: the following arguments are required: command",
        "usage: coxcert cycle [-h] --n N",
        "coxcert cycle: error: argument --n: invalid int value: 'x'",
    ]


HELP = {
    "--help": """usage: coxcert [-h] {analyze,embed,verify,density,words,cycle} ...

Exact certification of reflection-group embeddings over real quadratic rings.

positional arguments:
  {analyze,embed,verify,density,words,cycle}
    analyze             thresholds epsilon and D for a diagram
    embed               full pipeline, canonical JSON certificate
    verify              re-derive a certificate and compare bytes
    density             bracket-closure dimension trace
    words               word counts and the faithfulness probe
    cycle               closed-form checks for cycle_complement(n)

options:
  -h, --help            show this help message and exit
""",
    "words -h": """usage: coxcert words [-h] [--max-len MAX_LEN] [--at-d AT_D] diagram

positional arguments:
  diagram            diagram file ('-' for stdin)

options:
  -h, --help         show this help message and exit
  --max-len MAX_LEN  maximum word length (default 8)
  --at-d AT_D        probe parameter (default: the threshold D)
""",
}


def test_help_is_argparses_on_stdout_and_returns_0(capsys):
    for argv, text in HELP.items():
        assert main(argv.split()) == 0
        assert capsys.readouterr() == (text, "")


def test_an_equals_joined_double_dash_is_a_value(tmp_path, capsys):
    # argparse 3.11 read `--d=--` as an empty list, and density then died with a TypeError traceback.
    assert parse_args(["density", "d", "--d=--"]).d == "--"
    path = tmp_path / "k3.diagram"
    path.write_text("n 3\nedge 1 2\nedge 1 3\nedge 2 3\n")
    assert main(["density", str(path), "--d=--"]) == 2
    assert "not a rational number: '--'" in capsys.readouterr().err
