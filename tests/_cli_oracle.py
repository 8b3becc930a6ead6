"""The argparse parser the command line used to have, kept as the reference
for `coxcert.cli.parse_args`.

`build_parser` is the old production parser, unchanged: `parse_args` must
give the same fields, of the same types, wherever this parser parses, a
usage error wherever it exits 2 and help wherever it exits 0.
"""

from __future__ import annotations

import argparse

from coxcert.cli import cmd_analyze, cmd_cycle, cmd_density, cmd_embed, cmd_verify, cmd_words
from coxcert.diagram import MAX_VERTICES


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

