"""Run one coxcert command in this process with its stages and kernels timed.

    python3 bench/traced.py TRACE.jsonl COXCERT-ARGS...

The command goes through `coxcert.cli.main`, so the stage functions run in
the order `vinberg.build_embedding_certificate` (or the subcommand) calls
them, and stdout and any certificate file get exactly the bytes of an
untraced run.  The package source is not touched: each wrapped function is
replaced by rebinding its name in every coxcert module namespace that
holds it, which also catches calls from inside the package.

Two kinds of span are kept apart.  A stage span's time excludes the stage
spans nested in it, so the stages split the command's time; a kernel span's
time is its self time, excluding the kernel spans nested in it.  Stage spans
are written one per line; kernels, which run up to millions of times, are
written as one line each with their call count and summed self time.
Counted-only functions pay one increment per call and no clock reads.
"""

from __future__ import annotations

import json
import sys
import time

# metric name, defining module, function name.
STAGES = [
    ("cli.parse", "coxcert.diagram", "parse_diagram"),
    ("cli.render", "coxcert.cli", "certificate_payload"),
    ("cli.render", "coxcert.cli", "canonical_json"),
    ("cli.render", "coxcert.cli", "_rat"),
    ("gram.minors", "coxcert.gram", "minor_polynomials"),
    ("gram.epsilon", "coxcert.gram", "epsilon_threshold"),
    ("gram.d", "coxcert.gram", "d_threshold"),
    ("gram.signature", "coxcert.gram", "stable_signature"),
    ("units.unit", "coxcert.units", "choose_unit"),
    ("units.unit", "coxcert.units", "galois_pair_check"),
    ("units.unit", "coxcert.cli", "_recheck_unit_block"),
    ("vinberg.relations", "coxcert.vinberg", "verify_relations"),
    ("vinberg.relations", "coxcert.vinberg", "generators_integral"),
    ("vinberg.compactness", "coxcert.vinberg", "compact_conjugate_check"),
    ("vinberg.traces", "coxcert.vinberg", "trace_polynomial"),
    ("vinberg.traces", "coxcert.vinberg", "expected_trace"),
    ("liealg.density", "coxcert.liealg", "bracket_closure_density"),
    ("liealg.planar_generator", "coxcert.liealg", "planar_generator"),
    ("words.enumerate", "coxcert.words", "enumerate_by_length"),
    ("words.probe", "coxcert.words", "faithfulness_probe"),
    ("cyclecheck.cycle", "coxcert.cyclecheck", "verify_cycle_example"),
]
# Building the generators at alpha belongs to the relations stage when the
# pipeline calls it directly; inside the compactness check it stays part of
# that stage.
TOP_LEVEL_STAGES = [("vinberg.relations", "coxcert.vinberg", "reflection_generators")]
TIMED_KERNELS = [
    ("exactcore.mat_mul", "coxcert.exactcore.linalg", "mat_mul"),
    ("exactcore.nullspace", "coxcert.exactcore.linalg", "nullspace"),
    ("exactcore.leading_principal_minors", "coxcert.exactcore.linalg", "leading_principal_minors"),
    ("exactcore.signature_of", "coxcert.exactcore.linalg", "signature_of"),
    ("exactcore.char_poly", "coxcert.exactcore.linalg", "char_poly"),
    ("exactcore.sturm_sequence", "coxcert.exactcore.poly", "sturm_sequence"),
    ("exactcore.isolate_real_roots", "coxcert.exactcore.poly", "isolate_real_roots"),
    ("exactcore.refine_root_interval", "coxcert.exactcore.poly", "refine_root_interval"),
]
COUNTED = [
    ("exactcore.bareiss_det", "coxcert.exactcore.linalg", "bareiss_det"),
    ("exactcore.poly_gcd", "coxcert.exactcore.poly", "poly_gcd"),
    ("exactcore.quad_sign", "coxcert.exactcore.quadratic", "quad_sign"),
    ("words.append_letter", "coxcert.words", "append_letter"),
]


class Recorder:
    """Spans and counts of one command, kept in memory until it ends."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[dict] = []
        self.stage_stack: list[list] = []  # [span index, start, nested stage time]
        self.kernel_stack: list[list] = []  # [name, start, nested kernel time]
        self.kernel_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def stage(self, name: str, fn, top_level_only: bool = False):
        calls = self.calls
        calls.setdefault(name, 0)
        stack = self.stage_stack

        def wrapper(*args, **kwargs):
            if top_level_only and stack:
                return fn(*args, **kwargs)
            calls[name] += 1
            parent = stack[-1][0] if stack else None
            index = len(self.spans)
            self.spans.append({"name": name, "parent": parent})
            frame = [index, self.clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = self.clock()
                stack.pop()
                duration = end - frame[1]
                span = self.spans[index]
                span.update(start=frame[1], end=end, self_s=duration - frame[2])
                if stack:
                    stack[-1][2] += duration

        return wrapper

    def kernel(self, name: str, fn):
        calls = self.calls
        calls.setdefault(name, 0)
        totals = self.kernel_time
        totals.setdefault(name, 0.0)
        stack = self.kernel_stack
        clock = self.clock

        def wrapper(*args, **kwargs):
            calls[name] += 1
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                totals[name] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration

        return wrapper

    def counter(self, name: str, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def lines(self, argv: list[str], exit_code: int, wall_s: float):
        yield {"type": "command", "argv": argv, "exit": exit_code, "wall_s": wall_s}
        for index, span in enumerate(self.spans):
            yield {"type": "span", "id": index, **span}
        for name, count in self.calls.items():
            entry = {"type": "count", "name": name, "calls": count}
            if name in self.kernel_time:
                entry["self_s"] = self.kernel_time[name]
            yield entry


def rebind(original, replacement) -> int:
    """Point every coxcert module attribute that holds `original` at `replacement`."""
    bound = 0
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "coxcert" or mod_name.startswith("coxcert.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                bound += 1
    return bound


def install(recorder: Recorder) -> None:
    import coxcert  # noqa: F401  (imports every submodule)
    import coxcert.cli

    def wrap(table, make):
        for name, mod_name, attr in table:
            original = getattr(sys.modules[mod_name], attr)
            if rebind(original, make(name, original)) == 0:
                raise RuntimeError(f"{mod_name}.{attr} is bound nowhere")

    wrap(STAGES, recorder.stage)
    wrap(TOP_LEVEL_STAGES, lambda name, fn: recorder.stage(name, fn, top_level_only=True))
    wrap(TIMED_KERNELS, recorder.kernel)
    wrap(COUNTED, recorder.counter)
    quad = coxcert.exactcore.QuadElem
    counted_mul = recorder.counter("exactcore.quad_mul", quad.__mul__)
    quad.__mul__ = counted_mul
    quad.__rmul__ = counted_mul


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: traced.py TRACE.jsonl COXCERT-ARGS...", file=sys.stderr)
        return 2
    trace_path, command = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    from coxcert.cli import main as coxcert_main

    start = time.perf_counter()
    try:
        exit_code = coxcert_main(command)
    except SystemExit as exc:  # argparse usage errors
        exit_code = exc.code if isinstance(exc.code, int) else 1
    wall_s = time.perf_counter() - start
    sys.stdout.flush()
    with open(trace_path, "a", encoding="utf-8") as fh:
        for line in recorder.lines(command, exit_code, wall_s):
            fh.write(json.dumps(line) + "\n")
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
