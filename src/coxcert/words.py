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
Both walks read one table, filled on first use, from a descent mask to its
kept growths; a fanout is the length of that tuple.

`enumerate_by_length` counts the ball by normal forms, independently of any
matrix model.  Each layer maps a normal form to its descent mask and is
grown by the kept growths only, so `append_letter` never cancels on this
path: every call lengthens the word by one letter.  The last sphere needs
no words at all: its size is the sum of the fanouts of the layer before it,
so normal forms are built only to length max_len - 1, and the largest
layer of the ball gets no tuple and no table entry.

The faithfulness probe builds no words: it walks the same kept growths and
keys each element by one scalar, key(w) = x * R_w * y, for a fixed row x
and a fixed column y, instead of by its matrix R_w.  Right-multiplying by
R_s negates entry s of the row x * R_w and adds 2t times that entry to each
neighbour entry, so

    key(ws) = key(w) - c_s * (x * R_w)_s,  c_s = 2 y_s - 2t * sum_{j in N(s)} y_j,

with c_s fixed per letter.  The ball is one list of keys, layer after layer,
each layer's elements coming parent by parent in the order of the growths.
A child's O(degree) row, and its descent mask, are kept only when the walk
goes on to a further layer: the last layer, most of the ball, costs one
subtraction and one list entry per element and is appended in bulk.  Equal
matrices give equal rows and so equal keys; hence distinct keys mean
distinct matrices, and when the keys form a set of their own length, every
element is its own image.  Otherwise only the elements sharing a key have
their matrices rebuilt and compared, along parent chains that are
recomputed, not stored: a bisect into the prefix sums of the fanouts of the
layer before an element gives its parent, and an index into the parent's
growths its letter.  The counts are exact for every choice of x and y.

Both walks stop at the first empty layer, which only a finite group has, and
refuse a radius above MAX_BALL_ELEMENTS: past that, a ball of an infinite
group, having an element of every length, holds too many elements anyway.
While a walk builds a layer it also sums the fanouts of its elements, the
size of the next sphere, so a ball over MAX_BALL_ELEMENTS is refused before
that sphere is built.
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


def enumerate_by_length(g: CoxeterDiagram, max_len: int) -> list[int]:
    """Count distinct group elements of each length 0..max_len.

    Breadth-first over normal forms, each layer mapping a normal form to its
    descent mask; a word is grown only by its kept growths (see the module
    docstring), so every `append_letter` call lengthens its word, none
    cancels, and no element is built twice.  Normal forms are built only to
    length max_len - 1: the sphere of radius max_len is counted as the sum
    of the fanouts of the layer before it.  Stops at the first empty layer
    and pads the counts with zeros.  Raises BallTooLarge when max_len or the
    ball exceeds MAX_BALL_ELEMENTS, counting the next sphere, sized by the
    fanouts, while a layer is built.
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
    for _ in range(max_len - 1):
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
    `_key_vector`; rows x * R_w are built only for layers grown further, and
    the matrices only of elements sharing a key, along the chains `_parent`
    recovers (see the module docstring).  Stops at the first empty layer.
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
    # Per letter s: s, its action, its column and the key step c_s.
    entries = []
    for s in g.vertices:
        col, neighbour_cols, two_t = action = actions[s]
        entries.append((s, action, col, 2 * y[col] - two_t * sum(y[j] for j in neighbour_cols)))
    growths = _Growths(g, entries)
    keys = [sum(a * b for a, b in zip(start, y))]
    layer_starts = [0, 1]
    masks = []  # the descent masks of every layer that was grown, layer by layer
    rows, descs = [start], [0]
    if max_len:
        _check_ball_size(1 + len(growths[0]))
    for length in range(1, max_len + 1):
        if not rows:
            break
        # Exhausted, the iterator over `rows` lets the rows of that layer go.
        layer = zip(rows, keys[layer_starts[-2] :], descs)
        masks.append(descs)
        rows, descs = [], []
        if length == max_len:
            keys += [key - step * row[col] for row, key, desc in layer for _, _, col, step, _ in growths[desc]]
        else:
            ahead = 0  # the part of the next layer's size counted so far
            for row, key, desc in layer:
                for _, action, col, step, child_desc in growths[desc]:
                    keys.append(key - step * row[col])
                    rows.append(reflect_row(row, action))
                    descs.append(child_desc)
                    ahead += len(growths[child_desc])
                _check_ball_size(len(keys) + ahead)
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
