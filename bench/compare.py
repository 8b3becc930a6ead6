"""Collect sets of benchmark runs and compare two of them.

    python3 bench/compare.py collect --out DIR [--seeds 1-10]
    python3 bench/compare.py report BASE_DIR [NEW_DIR]

`collect` runs bench/run.py untraced once per seed and workload of
BENCHMARK.json (workloads interleaved, so a slow spell on the machine hits
all of them alike) and
saves each run's result line as DIR/<workload>-seed<N>.json and its whole
stdout as DIR/<workload>-seed<N>.log.

`report` prints one row per workload and end-to-end metric: the median and
quartiles of each set, the run-to-run spread (quartile distance over the
median), and, given two sets, the share of same-seed pairs the second set
won and a verdict:

    better      wins at least 9 pairs in 10 and the medians differ by more
                than the first set's quartile distance
    WORSE       the second median is worse by more than the metric's bound
    unresolved  a set's spread exceeds the bound, and not every run of the
                second set beats every run of the first
    same        otherwise

Bounds and directions come from BENCHMARK.json.  The share of failed
operations is printed per workload and set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCH_DIR, ROOT, SPEC


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(out: Path, seeds: list[int]) -> int:
    out.mkdir(parents=True, exist_ok=True)
    for seed in seeds:
        for name in (w["name"] for w in SPEC["workloads"]):
            argv = [
                sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            last = proc.stdout.strip().splitlines()[-1]
            (out / f"{name}-seed{seed}.json").write_text(last + "\n", encoding="utf-8")
            (out / f"{name}-seed{seed}.log").write_text(proc.stdout, encoding="utf-8")
            result = json.loads(last)
            shown = " ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items())
            print(f"{name} seed {seed}: failed {result['failed']}/{result['attempted']} {shown}", flush=True)
    return 0


def load_set(directory: Path) -> dict:
    """{workload: {seed: result}}"""
    runs: dict = {}
    for path in sorted(directory.glob("*-seed*.json")):
        workload, _, seed = path.stem.rpartition("-seed")
        runs.setdefault(workload, {})[int(seed)] = json.loads(path.read_text(encoding="utf-8"))
    return runs


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, spread)."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def verdict(base: list[float], new: list[float], won: int, pairs: int, sign: int, bound: float) -> str:
    """sign is 1 when lower is better, -1 when higher is."""
    b_med, b_q1, b_q3, b_spread = summary(base)
    n_med, _, _, n_spread = summary(new)
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if sign * (n_med - b_med) > bound * b_med:
        return "WORSE"
    if max(b_spread, n_spread) > bound and not all_better:
        return "unresolved"
    if pairs and won >= 0.9 * pairs and abs(n_med - b_med) > b_q3 - b_q1:
        return "better"
    return "same"


def report(base_dir: Path, new_dir: Path | None) -> int:
    sets = [load_set(base_dir)] + ([load_set(new_dir)] if new_dir else [])
    header = f"{'workload':<11} {'metric':<12} {'bound':>5}"
    for label in ("base", "new")[: len(sets)]:
        header += f" | {label + ' median':>12} {'q1':>9} {'q3':>9} {'spread':>7}"
    if new_dir:
        header += f" | {'won':>5} verdict"
    print(header)
    for workload in sorted(sets[0]):
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = f"{workload:<11} {name:<12} {bound:>5.2f}"
            columns = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for _, r in sorted(runs.get(workload, {}).items())]
                columns.append(values)
                if not values:
                    row += f" | {'-':>12} {'':>9} {'':>9} {'':>7}"
                    continue
                med, q1, q3, spread = summary(values)
                flag = "!" if spread > bound else ("~" if spread > bound / 3 else " ")
                row += f" | {med:>12.5g} {q1:>9.5g} {q3:>9.5g} {spread:>6.3f}{flag}"
            if new_dir and all(columns):
                base_runs, new_runs = sets[0][workload], sets[1].get(workload, {})
                pairs = [
                    (base_runs[s]["metrics"][name]["value"], new_runs[s]["metrics"][name]["value"])
                    for s in sorted(set(base_runs) & set(new_runs))
                ]
                sign = 1 if metric["better"] == "lower" else -1
                won = sum(1 for b, n in pairs if sign * (n - b) < 0)
                result = verdict(columns[0], columns[1], won, len(pairs), sign, bound)
                row += f" | {f'{won}/{len(pairs)}':>5} {result}"
            print(row)
        for label, runs in zip(("base", "new"), sets):
            results = list(runs.get(workload, {}).values())
            failed = sum(r["failed"] for r in results)
            attempted = sum(r["attempted"] for r in results)
            correct = all(r["correct"] for r in results)
            print(f"{workload:<11} {label} failed {failed}/{attempted} operations, correct={correct}")
    print("spread flags: ~ above a third of the bound, ! above the bound")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect", help="run the benchmark over seeds and save each result")
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", default="1-10")
    p = sub.add_parser("report", help="summarize one set or compare two")
    p.add_argument("base")
    p.add_argument("new", nargs="?")
    args = parser.parse_args(argv)
    if args.command == "collect":
        return collect(Path(args.out), parse_seeds(args.seeds))
    return report(Path(args.base), Path(args.new) if args.new else None)


if __name__ == "__main__":
    sys.exit(main())
