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
Both walks read two tables, filled on first use, from a descent mask to its
kept growths and to its two-step growths (each kept growth by s, then each
kept growth by u of the child's mask); summed over layer max_len - 2, their
lengths, the fanouts, size the last two layers, which neither walk builds.

`enumerate_by_length` counts the ball by normal forms, independently of any
matrix model.  Each layer maps a normal form to its descent mask and is
grown by the kept growths only, so `append_letter` never cancels on this
path: every call lengthens the word by one letter, up to length max_len - 2.

The faithfulness probe builds no words: it walks the same kept growths and
keys each element by one scalar, key(w) = x * R_w * y, for a fixed row x
and a fixed column y, instead of by its matrix R_w.  Right-multiplying by
R_s negates entry s of the row r = x * R_w and adds 2t times that entry to
each neighbour entry, so, for u != s,

    key(ws) = key(w) - c_s * r_s,  c_s = 2 y_s - 2t * sum_{j in N(s)} y_j,
    key(wsu) = key(w) - e_su * r_s - c_u * r_u,  e_su = c_s + [u in N(s)] 2t c_u,

with c_s fixed per letter and e_su per two-step growth.  The ball is one
list of keys, layer after layer, each layer's elements coming parent by
parent in the order of the growths.  O(degree) rows x * R_w are built only
for lengths 1..max_len - 2; on one of length max_len - 2, q_j = key(w) -
c_j * r_j gives key(ws) = q_s and key(wsu) = q_u - e_su * r_s, so the last
two layers, most of the ball, cost at most one product and one list entry
per element, appended in bulk.  Equal matrices give equal rows and so
equal keys, so when the keys form a set of their own length, every element
is its own image.  Otherwise only the elements sharing a key have their
matrices rebuilt and compared, along parent chains recomputed, not stored:
a bisect into the prefix sums of the fanouts of the layer before an
element gives its parent, and an index into its growths its letter.  The
counts are exact for every choice of x and y.

Both walks stop at the first empty layer, which only a finite group has, and
refuse a radius above MAX_BALL_ELEMENTS: past that, a ball of an infinite
group, having an element of every length, holds too many elements anyway.
While a walk builds a layer it also sums the fanouts of its elements, the
size of the next sphere, and the last two are sized before anything more is
built, so a ball over MAX_BALL_ELEMENTS is refused before it is built.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from typing import NamedTuple

from .diagram import CoxeterDiagram
from .errors import BallTooLarge, IndexOutOfRange
from .exactcore import quad_sign
from .vinberg import reflect_row, reflection_actions, times_reflection

Word = tuple

# Most group elements a ball enumeration may hold; cc7 to length 8 has 536,131.
MAX_BALL_ELEMENTS = 1_000_000


def _check_ball_size(count: int) -> None:
    if count > MAX_BALL_ELEMENTS:
        raise BallTooLarge(f"the ball has more than {MAX_BALL_ELEMENTS} elements")


def _check_radius(max_len: int) -> None:
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    if max_len > MAX_BALL_ELEMENTS:
        raise BallTooLarge(f"radius {max_len} is above the cap of {MAX_BALL_ELEMENTS} ball elements")


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


class _TwoSteps(dict):
    """Descent mask -> its two-step growths, filled on first use: per kept
    growth, `pair` of it and the kept growths of its child's mask, in order."""

    def __init__(self, growths: _Growths, pair):
        super().__init__()
        self.growths, self.pair = growths, pair

    def __missing__(self, desc: int) -> tuple:
        growths, pair = self.growths, self.pair
        kept = self[desc] = tuple(x for first in growths[desc] for x in pair(first, growths[first[-1]]))
        return kept


def enumerate_by_length(g: CoxeterDiagram, max_len: int) -> list[int]:
    """Count distinct group elements of each length 0..max_len.

    Breadth-first over normal forms, each layer mapping a normal form to its
    descent mask; a word is grown only by its kept growths (see the module
    docstring), so every `append_letter` call lengthens its word, none
    cancels, and no element is built twice.  Normal forms are built only to
    length max_len - 2; the last two spheres are the sums of their fanouts
    and of their two-step fanouts.  Stops at the first empty layer and pads
    the counts with zeros.  Raises BallTooLarge when max_len or the ball
    exceeds MAX_BALL_ELEMENTS, counting each sphere, sized by the fanouts,
    before its words would be built.
    """
    _check_radius(max_len)
    if not max_len:
        return [1]
    growths = _Growths(g, [(s,) for s in g.vertices])
    counts = [1]
    total = 1
    layer = {(): 0}
    ahead = len(growths[0])  # the size of the sphere after `layer`
    _check_ball_size(total + ahead)
    for _ in range(max_len - 2):
        if not ahead:
            break
        nxt: dict = {}
        ahead = 0
        for word, desc in layer.items():
            for s, child_desc in growths[desc]:
                nxt[append_letter(word, s, g)] = child_desc
                ahead += len(growths[child_desc])
            _check_ball_size(total + len(nxt) + ahead)
        counts.append(len(nxt))
        total += len(nxt)
        layer = nxt
    counts.append(ahead)
    if max_len > 1:
        two_steps = _TwoSteps(growths, lambda first, seconds: seconds)
        counts.append(sum(len(two_steps[desc]) for desc in layer.values()))
        _check_ball_size(total + ahead + counts[-1])
    return counts + [0] * (max_len + 1 - len(counts))


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


def faithfulness_probe(g: CoxeterDiagram, t, max_len: int) -> FaithfulnessReport:
    """Exact injectivity probe on the ball of radius max_len.

    Walks the ball by descent sets, so word counts need no normal forms, and
    compares them with the number of distinct matrices R_w at the evaluation
    point t (t >= 1), per length and in total.  Each element is keyed by the
    scalar x * R_w * y, for the row x of `_start_vector` and the column y of
    `_key_vector`.  It builds rows x * R_w only for lengths 1..max_len - 2,
    whose last layer gives the keys of the next two in bulk, and matrices
    only for elements sharing a key, along the chains `_parent` recovers
    (see the module docstring).  Stops at the first empty layer.
    Raises BallTooLarge when max_len or the ball exceeds MAX_BALL_ELEMENTS,
    counting each layer, sized by the fanouts, before it is built.
    """
    if quad_sign(t - 1) < 0:
        raise ValueError(f"probe needs t >= 1, got {t}")
    _check_radius(max_len)
    n = g.n
    actions = reflection_actions(g, t)
    start = _start_vector(n)
    y = _key_vector(n)
    # The key step c_j per column j (letter j + 1); per letter s: s, its action, its column, c_s.
    steps = [2 * y[col] - two_t * sum(y[j] for j in near) for col, near, two_t in map(actions.get, g.vertices)]
    entries = [(s, actions[s], s - 1, steps[s - 1]) for s in g.vertices]
    growths = _Growths(g, entries)

    def grandchildren(first, seconds) -> list:  # col_s, e_su, col_u: see the module docstring
        _, (col_s, neighbour_cols, two_t), _, c_s, _ = first
        near = frozenset(neighbour_cols)
        return [(col_s, c_s + two_t * c_u if col_u in near else c_s, col_u) for _, _, col_u, c_u, _ in seconds]

    two_steps = _TwoSteps(growths, grandchildren)
    keys = [sum(a * b for a, b in zip(start, y))]
    layer_starts = [0, 1]
    masks = []  # the descent masks of every layer that was grown, layer by layer
    rows, descs = [start], [0]
    if max_len:
        _check_ball_size(1 + len(growths[0]))
    for _ in range(max_len - 2):
        if not rows:
            break
        # Exhausted, the iterator over `rows` lets the rows of that layer go.
        layer = zip(rows, keys[layer_starts[-2] :], descs)
        masks.append(descs)
        rows, descs = [], []
        ahead = 0  # the part of the next layer's size counted so far
        for row, key, desc in layer:
            for _, action, col, step, child_desc in growths[desc]:
                keys.append(key - step * row[col])
                rows.append(reflect_row(row, action))
                descs.append(child_desc)
                ahead += len(growths[child_desc])
            _check_ball_size(len(keys) + ahead)
        layer_starts.append(len(keys))
    if max_len and rows:
        # The last two layers (one at radius 1) in bulk, sized from the masks first.
        if max_len > 1:
            _check_ball_size(len(keys) + sum(len(growths[d]) + len(two_steps[d]) for d in descs))
        layer = zip(rows, keys[layer_starts[-2] :], descs)
        last = [(row, [key - c * v for c, v in zip(steps, row)], d) for row, key, d in layer]
        masks.append(descs)
        keys += [q[col] for _, q, d in last for _, _, col, _, _ in growths[d]]
        layer_starts.append(len(keys))
        if max_len > 1:
            masks.append([child for d in descs for *_, child in growths[d]])
            keys += [q[u] - e_su * row[s] for row, q, d in last for s, e_su, u in two_steps[d]]
            layer_starts.append(len(keys))
    word_counts = [b - a for a, b in zip(layer_starts, layer_starts[1:])]
    word_counts += [0] * (max_len + 1 - len(word_counts))

    image_counts = list(word_counts)
    total_images = len(keys)
    if len(set(keys)) < len(keys):
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
        total_words=len(keys),
        total_images=total_images,
    )
