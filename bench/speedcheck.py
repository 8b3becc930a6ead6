"""Check that speed scaling keeps a known difference in the work done.

    python3 bench/speedcheck.py [--rounds 10] [--reps 400]

Run from the root of a source checkout.  Pinned to one CPU as run.py is,
each round starts three fresh processes that call the program's exact
`bareiss_det` on one fixed 10x10 Fraction matrix 0, REPS and 2*REPS times.
Net of the first (interpreter start and imports), the third does exactly
twice the work of the second, so its time must read twice the second's,
scaled as well as clocked.  The script prints each round's clocked and
scaled net times, then the median ratio and the spread across rounds of
the REPS command, clocked and scaled, and as its last line a JSON object
of those figures.  On a shared CPU whose speed changes between rounds the
clocked spread is the larger; the scaled ratio must stay at 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import tempfile
from pathlib import Path

import speed
from compare import summary
from run import SRC, WORK_ROOT, run_command

PROGRAM = """
import sys
from fractions import Fraction
from coxcert.exactcore.linalg import bareiss_det, mat
a = mat([[Fraction(i * 7 + j * 3 + 1, i + j + 2) for j in range(10)] for i in range(10)])
for _ in range(int(sys.argv[1])):
    bareiss_det(a)
"""


def check(rounds: int, reps: int) -> dict:
    """Clocked and scaled net times of REPS and 2*REPS determinants per round."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = speed.SpeedProbe()
    raw, scaled = [], []
    try:
        WORK_ROOT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORK_ROOT) as tmp:
            out = Path(tmp) / "out"
            for number in range(1, rounds + 1):
                clocked, at_reference = [], []
                for count in (0, reps, 2 * reps):
                    mark = probe.mark()
                    outcome = run_command([sys.executable, "-c", PROGRAM, str(count)], env, out, 120)
                    if outcome.exit_code != 0:
                        raise RuntimeError(f"determinant loop exited with {outcome.exit_code}")
                    clocked.append(outcome.wall_s)
                    at_reference.append(outcome.wall_s * speed.factor(probe.since(mark)))
                raw.append((clocked[1] - clocked[0], clocked[2] - clocked[0]))
                scaled.append((at_reference[1] - at_reference[0], at_reference[2] - at_reference[0]))
                print(
                    f"round {number}: clocked {raw[-1][0]:.3f} / {raw[-1][1]:.3f} s, "
                    f"scaled {scaled[-1][0]:.3f} / {scaled[-1][1]:.3f} s"
                )
    finally:
        probe.close()
    return {
        "raw_ratio": statistics.median(two / one for one, two in raw),
        "scaled_ratio": statistics.median(two / one for one, two in scaled),
        "raw_spread": summary([one for one, _ in raw])[3],
        "scaled_spread": summary([one for one, _ in scaled])[3],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--reps", type=int, default=400)
    args = parser.parse_args(argv)
    speed.pin_to_one_cpu()
    result = check(args.rounds, args.reps)
    for key, value in result.items():
        print(f"{key}: {value:.3f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
