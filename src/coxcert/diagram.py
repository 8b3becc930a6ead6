"""Right-angled diagrams: vertices 1..n plus a set of undirected edges.

Convention (inverted relative to the usual Coxeter graph): an EDGE means the
two generators satisfy no relation beyond being involutions, while a NON-edge
means they commute.  All group-theoretic code consumes adjacency through
``commutes`` so the convention lives in exactly one place.

The text format accepted by ``parse_diagram`` is the CLI's diagram format:

    # comment
    n 5
    edge 1 3  # a comment may close any line
    edge 2 4

First non-comment line declares the vertex count, 3 <= n <= MAX_VERTICES;
each following line adds one edge with 1 <= i < j <= n, in ASCII digits.
"""

from __future__ import annotations

from .errors import (
    DiagramSyntaxError,
    DuplicateEdge,
    IndexOutOfRange,
    InputError,
    NTooSmall,
    TooFewVertices,
    TooManyVertices,
)

# Cap on n for untrusted input, a bound on what a diagram file may ask of the
# exact pipeline, not on the mathematics; raising it is left to the owner.
MAX_VERTICES = 32


class CoxeterDiagram:
    """Immutable diagram on vertices 1..n; edges are (i, j) pairs with i < j.

    noncommuting_masks[i] has bit y set when generator y does NOT commute
    with i (y == i or edge); index 0 is an unused 0, so a generator indexes
    its own mask.
    """

    __slots__ = ("n", "edges", "noncommuting_masks")

    def __init__(self, n: int, edges):
        if n < 3:
            raise TooFewVertices(f"need at least 3 vertices, got {n}")
        normalized = set()
        for e in edges:
            i, j = e
            if not (isinstance(i, int) and isinstance(j, int)):
                raise IndexOutOfRange(f"edge {e!r} has non-integer endpoints")
            if i == j:
                raise IndexOutOfRange(f"edge ({i}, {j}) is a loop")
            if not (1 <= i <= n and 1 <= j <= n):
                raise IndexOutOfRange(f"edge ({i}, {j}) outside 1..{n}")
            normalized.add((min(i, j), max(i, j)))
        masks = [0] + [1 << v for v in range(1, n + 1)]
        for i, j in normalized:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(normalized))
        object.__setattr__(self, "noncommuting_masks", tuple(masks))

    def __setattr__(self, name, value):
        raise AttributeError("CoxeterDiagram is immutable")

    def __eq__(self, other):
        if other.__class__ is not CoxeterDiagram:
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"CoxeterDiagram(n={self.n!r}, edges={self.edges!r})"

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def adjacent(self, i: int, j: int) -> bool:
        self._check_vertex(i)
        self._check_vertex(j)
        return i != j and bool(self.noncommuting_masks[i] >> j & 1)

    def commutes(self, i: int, j: int) -> bool:
        """Generators i and j commute exactly when i != j and {i, j} is NOT an edge."""
        self._check_vertex(i)
        self._check_vertex(j)
        return not self.noncommuting_masks[i] >> j & 1

    def neighbors(self, i: int) -> tuple[int, ...]:
        self._check_vertex(i)
        return tuple(j for j in self.vertices if j != i and self.noncommuting_masks[i] >> j & 1)

    def _check_vertex(self, i: int) -> None:
        if not (1 <= i <= self.n):
            raise IndexOutOfRange(f"vertex {i} outside 1..{self.n}")


def is_connected(g: CoxeterDiagram) -> bool:
    """Breadth-first reachability from vertex 1."""
    seen = {1}
    frontier = [1]
    while frontier:
        nxt = []
        for v in frontier:
            for w in g.neighbors(v):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen) == g.n


def _digits(token: str, lineno: int, message: str) -> int:
    """The value of a string of ASCII digits [0-9]+, else DiagramSyntaxError(message)."""
    try:
        if token.isascii() and token.isdigit():
            return int(token)
    except ValueError:  # more digits than int() reads
        pass
    raise DiagramSyntaxError(lineno, message)


def parse_diagram(text) -> CoxeterDiagram:
    """Parse the diagram text format; see the module docstring."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise InputError(f"diagram is not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    n = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n is None:
            if parts[0] != "n" or len(parts) != 2:
                raise DiagramSyntaxError(lineno, f"expected 'n <INT>', got {line!r}")
            n = _digits(parts[1], lineno, f"bad vertex count {parts[1]!r}")
            if n < 3:
                raise TooFewVertices(f"line {lineno}: need at least 3 vertices, got {n}")
            if n > MAX_VERTICES:
                raise TooManyVertices(f"line {lineno}: at most {MAX_VERTICES} vertices, got {n}")
            continue
        if parts[0] != "edge" or len(parts) != 3:
            raise DiagramSyntaxError(lineno, f"expected 'edge <i> <j>', got {line!r}")
        i, j = (_digits(part, lineno, f"bad edge endpoints in {line!r}") for part in parts[1:])
        if i >= j:
            raise DiagramSyntaxError(lineno, f"edge endpoints must satisfy i < j, got {i} {j}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexOutOfRange(f"line {lineno}: edge ({i}, {j}) outside 1..{n}")
        if (i, j) in edges:
            raise DuplicateEdge(f"line {lineno}: edge ({i}, {j}) listed twice")
        edges.add((i, j))
    if n is None:
        raise DiagramSyntaxError(1, "missing 'n <INT>' line")
    return CoxeterDiagram(n, frozenset(edges))


def serialize_diagram(g: CoxeterDiagram) -> str:
    """Inverse of parse_diagram (round-trips exactly)."""
    lines = [f"n {g.n}"]
    lines.extend(f"edge {i} {j}" for i, j in g.sorted_edges())
    return "\n".join(lines) + "\n"


def cycle_complement(n: int) -> CoxeterDiagram:
    """Diagram whose edges are all pairs EXCEPT consecutive cycle pairs.

    Vertices i and i+1 (mod n, so also 1 and n) are non-adjacent, hence their
    generators commute; every other pair is an edge.  Needs n >= 5: below
    that the edge set is empty or the complement degenerates.
    """
    if n < 5:
        raise NTooSmall(f"cycle complement needs n >= 5, got {n}")
    cycle = {(i, i + 1) for i in range(1, n)} | {(1, n)}
    edges = {
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if (i, j) not in cycle
    }
    return CoxeterDiagram(n, frozenset(edges))
