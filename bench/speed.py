"""Timing that stays steady on a CPU shared with other tenants.

On a shared machine the core under the benchmark can run at half speed
for seconds at a time while a neighbour is busy.  User+sys CPU time grows
with wall time then: the core is slower, not taken away.  On the 2-vCPU
Xeon VM this benchmark was written on, five runs of one fixed workload
spread by 0.2 to 0.5 of their median in wall time, so no bound worth
having could hold.  The two vCPUs slow down independently of each other.

So the runner pins itself and every command to one CPU, and a runner
thread wakes every PERIOD_S to time one of two small fixed loops: one that
builds tuples into a set, like the word enumeration, and one of Fraction
arithmetic, like the rest of coxcert.  A sample's ratio is the loop's
REFERENCE_S time over its measured time, which is the CPU's speed relative
to the reference.  A command's speed factor is the mean ratio of the
samples taken while it ran, averaged over the two loops, and each reported
time is the measured time times that factor: the time the command would
have taken at reference speed.

REFERENCE_S holds the lowest 5th-percentile loop times seen on that VM
while a coxcert command ran, so an uncontended run there reads close to its
clocked time.  On another machine the factor also absorbs the difference
in CPU speed, as far as the loops and the program scale alike.  The
sampling thread takes a few per cent of the CPU from the commands, the same
for every version of the program.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
from fractions import Fraction

PERIOD_S = 0.01
REFERENCE_S = {"tuple": 0.000114, "fraction": 0.000635}


def _tuple_loop() -> int:
    seen = set()
    word = ()
    for i in range(400):
        word = word[-6:] + (i % 7,)
        seen.add(word)
    return len(seen)


def _fraction_loop() -> Fraction:
    x = Fraction(1, 3)
    for i in range(1, 120):
        x = (x * Fraction(i, i + 1) + 1) / 2
    return x


LOOPS = {"tuple": _tuple_loop, "fraction": _fraction_loop}


def pin_to_one_cpu() -> int | None:
    """Pin this process, its later threads and its children to one CPU.

    Returns the CPU, or None where the system refuses; the samples may then
    come from another CPU than a command's and steady the times less.
    """
    cpu = min(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return None
    return cpu


def ratios(window: dict[str, list[float]]) -> dict[str, float]:
    """Mean speed relative to the reference, per loop sampled in the window."""
    return {
        kind: statistics.mean(REFERENCE_S[kind] / t for t in samples)
        for kind, samples in window.items()
        if samples
    }


def factor(window: dict[str, list[float]]) -> float:
    """A command's speed factor: its per-loop ratios averaged."""
    per_loop = ratios(window)
    return statistics.mean(per_loop.values()) if per_loop else 1.0


class SpeedProbe:
    """Samples the speed of the CPU from a background thread until closed."""

    def __init__(self):
        self.samples = {kind: [] for kind in LOOPS}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        kinds = list(LOOPS.items())
        k = 0
        while not self._stop.wait(PERIOD_S):
            kind, loop = kinds[k % len(kinds)]
            k += 1
            start = time.perf_counter()
            loop()
            self.samples[kind].append(time.perf_counter() - start)

    def mark(self) -> dict[str, int]:
        return {kind: len(v) for kind, v in self.samples.items()}

    def since(self, mark: dict[str, int]) -> dict[str, list[float]]:
        """Loop times sampled after `mark`: the window of one command."""
        return {kind: self.samples[kind][mark[kind] :] for kind in LOOPS}

    def close(self) -> None:
        self._stop.set()
        self._thread.join()
