"""Benchmark runner for the coxcert command line.

    python3 bench/run.py --workload certify|thresholds|probe --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout.  Every operation is one `coxcert`
command started as a fresh `python3 -m coxcert` process on the checkout's
`src/`, so no command reuses the in-process caches warmed by another.  One
client drives the load, closed loop: one program process at a time.

A run makes its inputs from --seed, checks each program output against
the oracles in oracles.py (computed apart from the program), and repeats
whole rounds of the workload's operations until S seconds have been
measured.  Each metric is the median over the rounds.  Times are scaled to
a reference CPU speed sampled while each command runs (speed.py), since
the clocked times on a shared CPU vary by up to 2x; the clocked values are
printed beside them.  The last line of stdout is one JSON object: correct,
attempted, failed and metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 runs each round once
untraced and once through traced.py, reports the per-layer metrics of the
traced round and its overhead against the untraced one, and demands that
both rounds print the same bytes and write the same certificates.  Trace
lines are kept under bench/_work/traces/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracles
import speed
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / "_work"

# A run must end within 180 s; no new round starts once it could pass this.
RUN_BUDGET_S = 170.0
SETUP_LAUNCHES = 21
M_RING = 2
PROBE_LEN = 4

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = [(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in SPEC["per_layer"]]


@dataclass
class Outcome:
    """One finished command: exit code, cost, what it printed, and the CPU
    speed samples taken while it ran."""

    exit_code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    speed: dict = field(default_factory=dict)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong_output: bool = False
    problems: list = field(default_factory=list)

    def record(self, label: str, outcome: Outcome, wrong: list[str]) -> None:
        """Count one operation; a non-zero exit or any oracle problem fails it."""
        self.attempted += 1
        problems = list(wrong)
        if outcome.exit_code != 0:
            problems.insert(0, f"exit code {outcome.exit_code}")
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")
        self.wrong_output = self.wrong_output or bool(wrong)


def run_command(argv: list[str], env: dict, out_path: Path, timeout: float) -> Outcome:
    """Run one process to its end; its own rusage gives CPU time and peak RSS."""
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
    )


class Runner:
    """One run: its inputs, oracle expectations, speed probe and tally."""

    def __init__(self, workload: str, seed: int, work: Path, probe: speed.SpeedProbe):
        self.ops = workloads.WORKLOADS[workload](seed)
        self.work = work
        self.probe = probe
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.tally = Tally()
        workloads.write_inputs(self.ops, work)
        diagrams = {op.diagram.name: op.diagram for op in self.ops}
        self.spectra = {name: oracles.Spectrum(d.n, d.edges) for name, d in diagrams.items()}

    def run(self, argv: list[str], out_path: Path) -> Outcome:
        mark = self.probe.mark()
        outcome = run_command(argv, self.env, out_path, max(1.0, self.deadline - time.monotonic()))
        outcome.speed = self.probe.since(mark)
        return outcome

    def setup_launches(self) -> list[Outcome]:
        """Fresh `python3 -m coxcert --help` launches, after one that fills
        the bytecode cache (which users pay once)."""
        argv = [sys.executable, "-m", "coxcert", "--help"]
        launches = []
        for _ in range(SETUP_LAUNCHES + 1):
            outcome = self.run(argv, self.work / "help.out")
            if outcome.exit_code != 0 or "usage: coxcert" not in outcome.stdout:
                raise RuntimeError(f"`coxcert --help` failed with exit code {outcome.exit_code}")
            launches.append(outcome)
        return launches[1:]

    def check(self, op: workloads.Op, outcome: Outcome, tag: str) -> list[str]:
        if outcome.exit_code != 0:
            return []
        d = op.diagram
        spec = self.spectra[d.name]
        if op.kind == "embed":
            path = op.cert_path(self.work, tag)
            if not path.is_file():
                return ["embed wrote no certificate"]
            text = path.read_text(encoding="utf-8")
            return oracles.check_certificate(text, d.n, d.edges, spec, M_RING, PROBE_LEN)
        if op.kind == "verify":
            ok = "certificate verified" in outcome.stdout
            return [] if ok else ["verify printed no success line"]
        if op.kind == "analyze":
            return oracles.check_analyze(outcome.stdout, spec)
        return oracles.check_words(outcome.stdout, spec, op.max_len, op.at_d)

    def round(self, tag: str, trace_dir: Path | None = None, untraced=None) -> list[Outcome]:
        """Run every operation once, in order, and check each output.

        A traced round writes one trace file per operation into trace_dir
        and compares each output with the untraced round's: tracing must
        not change a printed or written byte.
        """
        outcomes = []
        for index, op in enumerate(self.ops):
            args = op.args(self.work, tag)
            if trace_dir is None:
                argv = [sys.executable, "-m", "coxcert", *args]
            else:
                trace_file = trace_dir / f"op{index}.jsonl"
                argv = [sys.executable, str(BENCH_DIR / "traced.py"), str(trace_file), *args]
            outcome = self.run(argv, self.work / f"op{index}.{tag}.out")
            wrong = self.check(op, outcome, tag)
            if untraced is not None:
                wrong += self.same_bytes(op, untraced[index], outcome)
            self.tally.record(f"{op.label} ({tag})", outcome, wrong)
            outcomes.append(outcome)
        return outcomes

    def same_bytes(self, op: workloads.Op, plain: Outcome, traced: Outcome) -> list[str]:
        wrong = []
        if plain.stdout != traced.stdout:
            wrong.append("traced stdout differs from untraced stdout")
        if op.kind == "embed" and traced.exit_code == 0:
            untraced_cert = op.cert_path(self.work, "plain").read_bytes()
            if op.cert_path(self.work, "traced").read_bytes() != untraced_cert:
                wrong.append("traced certificate bytes differ")
        return wrong

    def round_metrics(self, outcomes: list[Outcome]) -> dict:
        """End-to-end values of one round, at reference speed and as clocked."""
        values: dict[str, float] = {}

        def add(key: str, amount: float) -> None:
            values[key] = values.get(key, 0.0) + amount

        for op, o in zip(self.ops, outcomes):
            f = speed.factor(o.speed)
            for prefix, scale in (("", f), ("raw_", 1.0)):
                add(f"{prefix}wall_s", o.wall_s * scale)
                add(f"{prefix}cpu_s", o.cpu_s * scale)
                add(f"{prefix}max_cmd_s", o.wall_s * scale if op.largest else 0.0)
                add(f"{prefix}{op.kind}_s", o.wall_s * scale)
        values["peak_rss_mb"] = max(o.rss_mb for o in outcomes)
        return values

    def keep_going(self, started: float, rounds: int, seconds: float, last_round: float) -> bool:
        if rounds == 0:
            return True
        remaining = self.deadline - time.monotonic()
        return time.monotonic() - started < seconds and remaining > 1.5 * last_round


def layer_metrics(trace_lines: list[dict]) -> dict:
    """Per-layer values of one traced command, named as in PER_LAYER."""
    times: dict[str, float] = {}
    calls: dict[str, int] = {}
    for entry in trace_lines:
        if entry["type"] == "span":
            times[entry["name"]] = times.get(entry["name"], 0.0) + entry["self_s"]
        elif entry["type"] == "count":
            calls[entry["name"]] = calls.get(entry["name"], 0) + entry["calls"]
            if "self_s" in entry:
                times[entry["name"]] = times.get(entry["name"], 0.0) + entry["self_s"]
    values = {}
    for name, _unit in PER_LAYER:
        if name.endswith(".calls"):
            values[name] = calls.get(name[: -len(".calls")], 0)
        elif name.endswith("_s"):
            values[name] = times.get(name[: -len("_s")], 0.0)
    return values


def medians(per_round: list[dict]) -> dict:
    return {key: statistics.median(r[key] for r in per_round) for key in per_round[0]}


def measure(runner: Runner, seconds: float) -> dict:
    launches = runner.setup_launches()
    rounds = []
    started = time.monotonic()
    last = 0.0
    while runner.keep_going(started, len(rounds), seconds, last):
        t0 = time.monotonic()
        rounds.append(runner.round("plain"))
        last = time.monotonic() - t0
    for op, o in zip(runner.ops, rounds[-1]):
        ratios = " ".join(f"{k} {v:.3f}" for k, v in speed.ratios(o.speed).items())
        print(f"  {op.label:<28} {o.wall_s:8.3f} s clocked, speed {ratios}")
    values = medians([runner.round_metrics(r) for r in rounds])
    values["setup_s"] = statistics.median(o.wall_s * speed.factor(o.speed) for o in launches)
    values["raw_setup_s"] = statistics.median(o.wall_s for o in launches)
    print(f"rounds: {len(rounds)}; setup is the median of {SETUP_LAUNCHES} launches")
    print("times are at the reference CPU speed of speed.py; raw_ values are as clocked")
    for key in sorted(values):
        if key not in dict(END_TO_END):
            print(f"{key}: {values[key]:.6g} s")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def measure_traced(runner: Runner, seconds: float, trace_out: Path) -> dict:
    """Pairs of rounds: untraced, then traced; per-layer medians over pairs."""
    pairs = []
    started = time.monotonic()
    last = 0.0
    trace_dir = runner.work / "trace"
    trace_dir.mkdir()
    with open(trace_out, "w", encoding="utf-8") as keep:
        while runner.keep_going(started, len(pairs), seconds, last):
            t0 = time.monotonic()
            plain = runner.round("plain")
            traced = runner.round("traced", trace_dir=trace_dir, untraced=plain)
            lines = []
            for index in range(len(runner.ops)):
                path = trace_dir / f"op{index}.jsonl"
                text = path.read_text(encoding="utf-8") if path.exists() else ""
                path.unlink(missing_ok=True)
                keep.write(text)
                lines.append([json.loads(line) for line in text.splitlines()])
            pairs.append((plain, traced, lines))
            last = time.monotonic() - t0
    per_round = []
    for number, (plain, traced, lines) in enumerate(pairs, start=1):
        values = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER}
        for outcome, op_lines in zip(traced, lines):
            f = speed.factor(outcome.speed)
            for name, value in layer_metrics(op_lines).items():
                values[name] += value * f if name.endswith("_s") else value
        untraced_wall = sum(o.wall_s * speed.factor(o.speed) for o in plain)
        traced_wall = sum(o.wall_s * speed.factor(o.speed) for o in traced)
        values["trace.overhead_pct"] = 100.0 * (traced_wall - untraced_wall) / untraced_wall
        per_round.append(values)
        print(
            f"pair {number}: untraced {untraced_wall:.3f} s, traced {traced_wall:.3f} s, "
            f"overhead {values['trace.overhead_pct']:.1f} %"
        )
    values = medians(per_round)
    print(f"trace lines: {trace_out}")
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="coxcert benchmark runner")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "coxcert" / "__main__.py").is_file():
        print(f"error: no coxcert sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    cpu = speed.pin_to_one_cpu()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    probe = speed.SpeedProbe()
    try:
        runner = Runner(args.workload, args.seed, work, probe)
        pinned = f"on CPU {cpu}" if cpu is not None else "not pinned to a CPU"
        print(f"workload {args.workload}, seed {args.seed}: {len(runner.ops)} operations per round, {pinned}")
        if args.trace:
            traces = WORK_ROOT / "traces"
            traces.mkdir(exist_ok=True)
            trace_out = traces / f"{args.workload}-seed{args.seed}.jsonl"
            metrics = measure_traced(runner, args.seconds, trace_out)
        else:
            metrics = measure(runner, args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        probe.close()
        shutil.rmtree(work, ignore_errors=True)
    tally = runner.tally
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(f"attempted {tally.attempted}, failed {tally.failed}")
    result = {
        "correct": not tally.wrong_output,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
