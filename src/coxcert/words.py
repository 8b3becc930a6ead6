"""Words in the generators: normal forms, growth counts, faithfulness probe.

An element is represented by the lexicographically least word among the
shortest words for it.  Two rewriting moves generate the equivalence:
deleting an equal pair of letters once everything strictly between commutes
with them, and swapping adjacent commuting letters.  The normal form is
computed incrementally: appending one letter to a normal word either cancels
exactly one earlier occurrence (the letters after it all commute with it;
the exchange condition rules out deeper cascades) or gets inserted at its
lexicographically best slot by sliding left past larger commuting letters.

Both walks of the ball rest on right descent sets: Desc(w) is the set of
letters s with l(ws) < l(w), a set of pairwise commuting letters.  Growing w
by s lengthens it exactly when s is not in Desc(w), and then
Desc(ws) = {s} + (Desc(w) & C(s)), where C(s) holds the letters other than s
that commute with s.  Keeping only the growths after which s is the least
descent (no letter of Desc(w) & C(s) lies below s) builds every element v
exactly once, from v * min Desc(v) (Bjorner-Brenti, Combinatorics of Coxeter
Groups, 3.4), so each layer of a walk is the sphere of that radius, and an
element with descent mask D has a fixed number of kept growths, its fanout.
A table filled on first use maps a descent mask to its kept growths.

So the sphere sizes depend on the masks alone: sphere k + 1 has
sum_D count_k(D) * fanout(D) elements, where count_k(D) is the number of
elements of sphere k with mask D, and the children's masks give count_(k+1).
`_sphere_sizes` counts the masks so, layer by layer, before either walk
builds anything.  It stops at the first empty layer, which only a finite
group has, and refuses a radius above MAX_BALL_ELEMENTS (past that, a ball
of an infinite group, having an element of every length, holds too many
elements anyway) and, as soon as the running total passes it, a ball over
MAX_BALL_ELEMENTS, so a refused ball is never built.

`enumerate_by_length` returns those sizes and checks them against normal
forms, independently of any matrix model.  Each layer maps a normal form to
its descent mask and is grown by the kept growths only, so `append_letter`
never cancels on this path: every call lengthens the word by one letter, up
to length max_len - 2, and each layer must hold as many distinct normal
forms as the count says.

The faithfulness probe takes its word counts from the same sizes and builds
no words: it walks the same kept growths and keys each element by one
scalar, key(w) = x * R_w * y, for a fixed row x and a fixed column y,
instead of by its matrix R_w.  Right-multiplying by R_s negates entry s of
the row r = x * R_w and adds 2t times that entry to each neighbour entry,
so, for u != s,

    key(ws) = key(w) - c_s * r_s,  c_s = 2 y_s - 2t * sum_{j in N(s)} y_j,
    key(wsu) = key(w) - e_su * r_s - c_u * r_u,  e_su = c_s + [u in N(s)] 2t c_u,

with c_s fixed per letter and e_su per two-step growth (each kept growth by
s, then each kept growth by u of the child's mask), kept in a second table
filled on first use.  One walk, `_key_chunks`, streams the keys in ball
order, layer after layer, each layer's elements parent by parent in the
order of the growths.  O(degree) rows x * R_w are built only for lengths
1..max_len - 2; on one of length max_len - 2, q_j = key(w) - c_j * r_j gives
key(ws) = q_s and key(wsu) = q_u - e_su * r_s, so the last two layers, most
of the ball, cost at most one product per element, made a chunk of parent
rows at a time.  The probe feeds the pieces to one set and checks their
counts per length against the sphere sizes.  Equal matrices give equal rows
and so equal keys, so when the set holds one key per element, every element
is its own image, and no list of the ball's keys is made.  Otherwise the
walk runs again for that list, and only the elements sharing a key have
their matrices rebuilt and compared, along parent chains recomputed, not
stored: a bisect into the prefix sums of the fanouts of the layer before an
element gives its parent, and an index into its growths its letter.  The
counts are exact for every choice of x and y.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import NamedTuple

from .diagram import CoxeterDiagram
from .errors import BallTooLarge, IndexOutOfRange, VerificationFailed
from .exactcore import quad_sign
from .vinberg import reflect_row, reflection_actions, times_reflection

Word = tuple

# Most group elements a ball enumeration may hold; cc7 to length 8 has 536,131.
MAX_BALL_ELEMENTS = 1_000_000
_CHUNK_ROWS = 1024  # parent rows per piece of the faithfulness probe's last two layers


def append_letter(nf: Word, letter: int, g: CoxeterDiagram) -> Word:
    """Normal form of (normal word nf) * generator letter, in O(len(nf))."""
    if not isinstance(letter, int) or not (1 <= letter <= g.n):
        raise IndexOutOfRange(f"letter {letter!r} outside 1..{g.n}")
    mask = g.noncommuting_masks[letter]
    suffix_start = 0
    for q in range(len(nf) - 1, -1, -1):
        y = nf[q]
        if y == letter:
            # Everything right of q commutes with `letter`, so the pair
            # cancels; the remaining word is renormalized because deleting
            # a letter can unlock lex-improving swaps among the survivors.
            shorter = nf[:q] + nf[q + 1 :]
            renorm: Word = ()
            for x in shorter:
                renorm = append_letter(renorm, x, g)
            return renorm
        if (mask >> y) & 1:
            suffix_start = q + 1
            break
    # `letter` may sit anywhere inside the maximal commuting suffix; the
    # lexicographically least choice is right before the first larger letter.
    pos = len(nf)
    for p in range(suffix_start, len(nf)):
        if letter < nf[p]:
            pos = p
            break
    return nf[:pos] + (letter,) + nf[pos:]


class _Growths(dict):
    """Descent mask -> its kept growths, filled on first use: per letter s that
    the mask lets grow, s's entry of `entries` followed by the child's descent
    mask.  The fanout of a mask is the length of its tuple."""

    def __init__(self, g: CoxeterDiagram, entries):
        super().__init__()
        noncommuting = g.noncommuting_masks
        # Per letter s: its entry, its bit, the mask of s and the letters below s
        # commuting with it (a growth by s is kept when Desc(w) misses it), C(s).
        self.rules = tuple(
            (entry, 1 << s, (1 << s) | (((1 << s) - 1) & ~noncommuting[s]), ~noncommuting[s])
            for s, entry in zip(g.vertices, entries)
        )

    def __missing__(self, desc: int) -> tuple:
        kept = self[desc] = tuple(
            (*entry, bit | (desc & commuting)) for entry, bit, blocked, commuting in self.rules if not desc & blocked
        )
        return kept


def _sphere_sizes(growths: _Growths, max_len: int) -> list[int]:
    """The sizes of the spheres of radius 0..max_len, from the descent masks
    alone (see the module docstring), padded with zeros past the first empty
    one.  Raises BallTooLarge when max_len or the ball exceeds
    MAX_BALL_ELEMENTS, each sphere counted before the next is."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    if max_len > MAX_BALL_ELEMENTS:
        raise BallTooLarge(f"radius {max_len} is above the cap of {MAX_BALL_ELEMENTS} ball elements")
    sizes = [1]
    total = 1
    counts = {0: 1}  # descent mask -> its number of elements in the last sphere counted
    while len(sizes) <= max_len:
        size = sum(count * len(growths[desc]) for desc, count in counts.items())
        total += size
        if total > MAX_BALL_ELEMENTS:
            raise BallTooLarge(f"the ball has more than {MAX_BALL_ELEMENTS} elements")
        if not size:
            break
        sizes.append(size)
        if len(sizes) <= max_len:  # the last sphere's masks are never read
            nxt: dict = {}
            for desc, count in counts.items():
                for *_, child in growths[desc]:
                    nxt[child] = nxt.get(child, 0) + count
            counts = nxt
    return sizes + [0] * (max_len + 1 - len(sizes))


def enumerate_by_length(g: CoxeterDiagram, max_len: int) -> list[int]:
    """Count distinct group elements of each length 0..max_len.

    The counts are `_sphere_sizes`, so an over-cap ball is refused before
    any normal form is built.  They are then checked breadth-first over
    normal forms, each layer mapping a normal form to its descent mask: a
    word is grown only by its kept growths (see the module docstring), so
    every `append_letter` call lengthens its word, none cancels, and each
    layer up to length max_len - 2 must hold as many distinct normal forms
    as counted, else VerificationFailed.
    """
    growths = _Growths(g, [(s,) for s in g.vertices])
    counts = _sphere_sizes(growths, max_len)
    layer = {(): 0}
    for length in range(1, max_len - 1):
        if not counts[length]:
            break
        layer = {append_letter(word, s, g): child for word, desc in layer.items() for s, child in growths[desc]}
        if len(layer) != counts[length]:
            raise VerificationFailed(f"{len(layer)} normal forms of length {length}, counted {counts[length]}")
    return counts


class _TwoSteps(dict):
    """Descent mask -> its two-step growths, filled on first use: per kept
    growth by s, then per kept growth by u of the child's mask, in order,
    the triple (col_s, e_su, col_u) of the module docstring."""

    def __init__(self, growths: _Growths):
        super().__init__()
        self.growths = growths

    def __missing__(self, desc: int) -> tuple:
        kept = []
        for _, (col_s, neighbour_cols, two_t), _, c_s, child in self.growths[desc]:
            near = frozenset(neighbour_cols)
            seconds = self.growths[child]
            kept += [(col_s, c_s + two_t * c_u if col_u in near else c_s, col_u) for _, _, col_u, c_u, _ in seconds]
        kept = self[desc] = tuple(kept)
        return kept


class FaithfulnessReport(NamedTuple):
    """Word counts versus matrix-image counts per length."""

    t: object
    max_len: int
    word_counts: tuple
    image_counts: tuple
    total_words: int
    total_images: int

    @property
    def injective(self) -> bool:
        return self.word_counts == self.image_counts and self.total_words == self.total_images


def _start_vector(n: int) -> tuple:
    """The row x = (1, ..., n) whose images x * R_w are walked."""
    return tuple(range(1, n + 1))


def _key_vector(n: int) -> tuple:
    """The column y, y_j = 2^(20+3j) + 7j + 1, that turns x * R_w into a key."""
    return tuple((1 << (20 + 3 * j)) + 7 * j + 1 for j in range(n))


def _parent(i: int, length: int, layer_starts: list, masks: list, offsets: list, growths: _Growths) -> tuple:
    """The parent index of element i, of length >= 1, and the growth that made
    it: a bisect into `offsets[length - 1]`, the index of each parent's first
    child, then an index into the growths of the parent's descent mask."""
    firsts = offsets[length - 1]
    p = bisect_right(firsts, i) - 1
    return layer_starts[length - 1] + p, growths[masks[length - 1][p]][i - firsts[p]]


def _key_chunks(start, y, steps, growths: _Growths, two_steps: _TwoSteps, max_len: int, masks: list):
    """The ball's keys as (length, keys) pieces in ball order: each walked
    layer, then per _CHUNK_ROWS rows of the last one, their children's keys
    and their grandchildren's.  Appends each grown layer's masks to `masks`."""
    keys, rows, descs, length = [sum(a * b for a, b in zip(start, y))], [start], [0], 0
    yield length, keys
    while length < max_len - 2 and rows:
        layer = zip(rows, keys, descs)
        masks.append(descs)
        keys, rows, descs, length = [], [], [], length + 1
        for row, key, desc in layer:
            for _, action, col, step, child_desc in growths[desc]:
                keys.append(key - step * row[col])
                rows.append(reflect_row(row, action))
                descs.append(child_desc)
        yield length, keys
    if max_len and rows:
        # The last two layers (one at radius 1) in bulk, _CHUNK_ROWS parents at a time.
        masks.append(descs)
        for lo in range(0, len(rows), _CHUNK_ROWS):
            part = slice(lo, lo + _CHUNK_ROWS)
            layer = zip(rows[part], keys[part], descs[part])
            last = [(row, [key - c * v for c, v in zip(steps, row)], d) for row, key, d in layer]
            yield length + 1, [q[col] for _, q, d in last for _, _, col, _, _ in growths[d]]
            if length + 2 <= max_len:
                yield length + 2, [q[u] - e_su * row[s] for row, q, d in last for s, e_su, u in two_steps[d]]


def faithfulness_probe(g: CoxeterDiagram, t, max_len: int) -> FaithfulnessReport:
    """Exact injectivity probe on the ball of radius max_len.

    Its word counts are `_sphere_sizes`, so an over-cap ball is refused
    before any row is built, and they are compared with the number of
    distinct matrices R_w at the evaluation point t (t >= 1), per length and
    in total.  Keys each element by the scalar x * R_w * y, for the row x of
    `_start_vector` and the column y of `_key_vector`, streaming the pieces
    of `_key_chunks` into one set; other key counts per length than the
    sphere sizes raise VerificationFailed.  Only when keys collide does it
    walk again for the ball's key list, and build matrices for the elements
    sharing a key, along the chains `_parent` recovers (see the module
    docstring).  Stops at the first empty layer.
    """
    if quad_sign(t - 1) < 0:
        raise ValueError(f"probe needs t >= 1, got {t}")
    n = g.n
    actions = reflection_actions(g, t)
    start = _start_vector(n)
    y = _key_vector(n)
    # The key step c_j per column j (letter j + 1); per letter s: s, its action, its column, c_s.
    steps = [2 * y[col] - two_t * sum(y[j] for j in near) for col, near, two_t in map(actions.get, g.vertices)]
    entries = [(s, actions[s], s - 1, steps[s - 1]) for s in g.vertices]
    growths = _Growths(g, entries)
    word_counts = _sphere_sizes(growths, max_len)
    two_steps = _TwoSteps(growths)
    walk = (start, y, steps, growths, two_steps, max_len)
    seen, sizes = set(), [0] * (max_len + 1)
    for length, piece in _key_chunks(*walk, []):
        seen.update(piece)
        sizes[length] += len(piece)
    if sizes != word_counts:
        raise VerificationFailed(f"the walk gave {sizes} keys per length, the descent masks {word_counts}")
    image_counts = list(word_counts)
    total_words = total_images = sum(word_counts)
    if len(seen) < total_words:
        del seen
        masks: list = []  # the descent masks of every layer that was grown, layer by layer
        # The ball's keys in one list, in ball order: the pieces stably sorted by length.
        keys = [key for _, piece in sorted(_key_chunks(*walk, masks), key=lambda p: p[0]) for key in piece]
        layer_starts = list(accumulate(word_counts, initial=0))
        # `_parent` reads the masks of every parent layer; the last one's are made only here.
        masks.append([child for d in masks[-1] for *_, child in growths[d]])
        offsets = [
            list(accumulate((len(growths[d]) for d in layer_masks), initial=layer_starts[k + 1]))
            for k, layer_masks in enumerate(masks)
        ]
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        built = {0: ident}

        def image(i: int, length: int):
            chain = []
            while i not in built:
                parent, growth = _parent(i, length, layer_starts, masks, offsets, growths)
                chain.append((i, growth[1]))
                i, length = parent, length - 1
            mat = built[i]
            for j, action in reversed(chain):
                mat = built[j] = times_reflection(mat, action)
            return mat

        groups: dict = {}
        for i, key in enumerate(keys):
            groups.setdefault(key, []).append(i)
        for members in groups.values():
            if len(members) > 1:
                lengths_by_image: dict = {}
                for i in members:
                    length = bisect_right(layer_starts, i) - 1
                    image_counts[length] -= 1
                    lengths_by_image.setdefault(image(i, length), set()).add(length)
                total_images -= len(members) - len(lengths_by_image)
                for lengths in lengths_by_image.values():
                    for length in lengths:
                        image_counts[length] += 1
    return FaithfulnessReport(
        t=t,
        max_len=max_len,
        word_counts=tuple(word_counts),
        image_counts=tuple(image_counts),
        total_words=total_words,
        total_images=total_images,
    )
