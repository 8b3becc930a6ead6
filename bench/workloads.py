"""Inputs of the coxcert benchmark: diagrams made from a seed, and the
commands ("operations") that one round of each workload runs.

Nothing here imports coxcert: the diagram files are written in the
program's text format by this module, so the program receives only the
generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Diagram:
    """Vertices 1..n; an edge (i, j), i < j, marks a NON-commuting pair."""

    name: str
    n: int
    edges: tuple

    def text(self) -> str:
        lines = [f"n {self.n}"] + [f"edge {i} {j}" for i, j in self.edges]
        return "\n".join(lines) + "\n"


def triangle() -> Diagram:
    return Diagram("K3", 3, ((1, 2), (1, 3), (2, 3)))


def cycle_complement(n: int) -> Diagram:
    """Every pair is an edge except the consecutive pairs of the n-cycle."""
    cycle = {(i, i + 1) for i in range(1, n)} | {(1, n)}
    edges = tuple(
        (i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if (i, j) not in cycle
    )
    return Diagram(f"cc{n}", n, edges)


def random_connected(rng: random.Random, n: int, name: str) -> Diagram:
    """A random spanning tree plus a third of the remaining pairs.

    Built like the test suite's random diagrams (random tree, then random
    extra pairs at rate one third), except that the number of extra pairs
    is fixed at its expectation.  The run time of every stage depends
    strongly on the edge count, so a fixed count keeps the work of one run
    close to that of another whatever the seed.
    """
    edges = {(rng.randrange(1, v), v) for v in range(2, n + 1)}
    rest = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if (i, j) not in edges]
    edges.update(rng.sample(rest, round(len(rest) / 3)))
    return Diagram(name, n, tuple(sorted(edges)))


@dataclass(frozen=True)
class Op:
    """One coxcert command of a round.

    `largest` marks the commands on the workload's largest input, whose
    summed wall time is reported as max_cmd_s.
    """

    kind: str  # "embed", "verify", "analyze" or "words"
    diagram: Diagram
    largest: bool = False
    max_len: int | None = None
    at_d: str | None = None

    def diagram_path(self, work: Path) -> Path:
        return work / f"{self.diagram.name}.txt"

    def cert_path(self, work: Path, tag: str) -> Path:
        return work / f"{self.diagram.name}.{tag}.cert.json"

    def args(self, work: Path, tag: str) -> list[str]:
        """coxcert arguments; `tag` keeps the certificates of two rounds apart."""
        diagram = str(self.diagram_path(work))
        if self.kind == "embed":
            return ["embed", diagram, "--out", str(self.cert_path(work, tag))]
        if self.kind == "verify":
            return ["verify", str(self.cert_path(work, tag)), diagram]
        if self.kind == "analyze":
            return ["analyze", diagram]
        args = ["words", diagram, "--max-len", str(self.max_len)]
        if self.at_d is not None:
            args += ["--at-d", self.at_d]
        return args

    @property
    def label(self) -> str:
        extra = f" len {self.max_len}" if self.max_len is not None else ""
        extra += f" at {self.at_d}" if self.at_d is not None else ""
        return f"{self.kind} {self.diagram.name}{extra}"


def certify(seed: int) -> list[Op]:
    """embed then verify (m=2, probe length 4) over K3, cc5..cc8, rand8, rand9."""
    rng = random.Random(seed)
    ladder = [triangle(), *(cycle_complement(n) for n in range(5, 9))]
    ladder += [random_connected(rng, 8, "rand8"), random_connected(rng, 9, "rand9")]
    ops = []
    for d in ladder:
        largest = d.name == "rand9"
        ops += [Op("embed", d, largest), Op("verify", d, largest)]
    return ops


def thresholds(seed: int) -> list[Op]:
    """analyze on rand14, rand16 and cc20."""
    rng = random.Random(seed)
    diagrams = [random_connected(rng, 14, "rand14"), random_connected(rng, 16, "rand16")]
    diagrams.append(cycle_complement(20))
    return [Op("analyze", d, d.name == "cc20") for d in diagrams]


def probe(seed: int) -> list[Op]:
    """words on cc7 to length 8 at D, and on cc6 to length 7 at 3/2.

    Both inputs are fixed: the probe's cost is set by the ball size, which a
    random diagram of the same n would change by large factors.
    """
    del seed
    return [
        Op("words", cycle_complement(7), True, max_len=8),
        Op("words", cycle_complement(6), max_len=7, at_d="3/2"),
    ]


WORKLOADS = {"certify": certify, "thresholds": thresholds, "probe": probe}


def write_inputs(ops: list[Op], work: Path) -> None:
    for op in ops:
        op.diagram_path(work).write_text(op.diagram.text(), encoding="utf-8")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description="Write one workload's diagram files.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write the .txt files into")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_inputs(WORKLOADS[args.workload](args.seed), out)
