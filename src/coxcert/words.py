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
Both walks read one table of per-letter masks and one table of fanouts.

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

with c_s fixed per letter: a child's key costs O(1) from its parent's row
and key.  The O(degree) row of a child is built only when the walk goes on
to a further layer, so the last layer, most of the ball, holds keys, parent
indices and letters and no rows.  Equal matrices give equal rows and so
equal keys; hence distinct keys mean distinct matrices, and matrices are
compared, after rebuilding them along the parent chain, only among elements
whose keys coincide.  The counts are exact for every choice of x and y.

Both walks stop at the first empty layer, which only a finite group has, and
refuse a radius above MAX_BALL_ELEMENTS: past that, a ball of an infinite
group, having an element of every length, holds too many elements anyway.
While a walk builds a layer it also sums the fanouts of its elements, the
size of the next sphere, so a ball over MAX_BALL_ELEMENTS is refused before
that sphere is built.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
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


def _letter_masks(g: CoxeterDiagram) -> tuple:
    """Per letter s: s, its bit, the mask of s and the letters below s that
    commute with it (growth by s is kept only when Desc(w) misses it), and
    the mask of the letters that commute with s."""
    noncommuting = g.noncommuting_masks
    return tuple(
        (s, 1 << s, (1 << s) | (((1 << s) - 1) & ~noncommuting[s]), ~noncommuting[s]) for s in g.vertices
    )


class _Fanout(dict):
    """Descent mask -> the number of kept growths of an element with that
    mask, its children in the next sphere; filled on first use."""

    def __init__(self, masks: tuple):
        super().__init__()
        self.blocked = tuple(blocked for _, _, blocked, _ in masks)

    def __missing__(self, desc: int) -> int:
        count = self[desc] = sum(not desc & blocked for blocked in self.blocked)
        return count


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
    masks = _letter_masks(g)
    fanout = _Fanout(masks)
    counts = [1]
    total = 1
    layer = {(): 0}
    ahead = fanout[0]  # the size of the sphere after `layer`
    _check_ball_size(total + ahead)
    for _ in range(max_len - 1):
        if not ahead:
            break
        nxt: dict = {}
        ahead = 0
        for word, desc in layer.items():
            for s, bit, blocked, commuting in masks:
                if not desc & blocked:
                    child_desc = bit | (desc & commuting)
                    nxt[append_letter(word, s, g)] = child_desc
                    ahead += fanout[child_desc]
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


def faithfulness_probe(g: CoxeterDiagram, t, max_len: int) -> FaithfulnessReport:
    """Exact injectivity probe on the ball of radius max_len.

    Walks the ball by descent sets (see the module docstring), so word
    counts need no normal forms, and compares them with the number of
    distinct matrices R_w at the evaluation point t (t >= 1), per length and
    in total.  Each element gets the scalar key x * R_w * y, for the row x of
    `_start_vector` and the column y of `_key_vector`; the ball-wide table
    holds that key, one parent index and one letter per element.  Since R_s
    negates entry s of a row and adds 2t times it to each neighbour entry,
    key(ws) = key(w) - c_s * (x * R_w)_s with c_s = 2 y_s - 2t * (sum of y_j
    over the neighbours j of s), so a child's key costs O(1) from its
    parent's row.  Rows x * R_w are built, in O(degree), only for a layer
    that will itself be grown: the last layer, most of the ball, keeps keys
    alone.  Equal rows give equal keys, so distinct keys mean distinct
    matrices; the matrices of elements sharing a key are rebuilt from their
    parent chains and compared exactly.  Stops at the first empty layer.
    Raises BallTooLarge when max_len or the ball exceeds MAX_BALL_ELEMENTS,
    counting the next layer, sized by the fanouts, while rows are built.
    """
    if quad_sign(t - 1) < 0:
        raise ValueError(f"probe needs t >= 1, got {t}")
    _check_radius(max_len)
    n = g.n
    actions = reflection_actions(g, t)
    masks = _letter_masks(g)
    fanout = _Fanout(masks)
    start = _start_vector(n)
    y = _key_vector(n)
    # Per letter s: s, its action, its column, the key step c_s, and the
    # masks of `_letter_masks`.
    steps = []
    for s, bit, blocked, commuting in masks:
        col, neighbour_cols, two_t = action = actions[s]
        step = 2 * y[col] - two_t * sum(y[j] for j in neighbour_cols)
        steps.append((s, action, col, step, bit, blocked, commuting))
    start_key = sum(a * b for a, b in zip(start, y))
    first = {start_key: 0}  # key -> index of the first element with that key
    shared: dict = {}  # key -> indices of every element with that key, if several
    parent = array("L", [0])
    letter_of = bytearray(1)
    layer_starts = [0]
    layer = [(start, start_key, 0)]
    for length in range(1, max_len + 1):
        if not layer:
            break
        index = layer_starts[-1]
        layer_starts.append(len(letter_of))
        grow_rows = length < max_len
        nxt = []
        ahead = 0  # the part of the next layer's size counted so far
        for row, key, desc in layer:
            for s, action, col, step, bit, blocked, commuting in steps:
                if desc & blocked:
                    continue
                child_key = key - step * row[col]
                child_index = len(letter_of)
                parent.append(index)
                letter_of.append(s)
                if grow_rows:
                    child_desc = bit | (desc & commuting)
                    ahead += fanout[child_desc]
                    nxt.append((reflect_row(row, action), child_key, child_desc))
                earlier = first.setdefault(child_key, child_index)
                if earlier != child_index:
                    shared.setdefault(child_key, [earlier]).append(child_index)
            _check_ball_size(len(letter_of) + ahead)
            index += 1
        layer = nxt
    layer_starts.append(len(letter_of))
    word_counts = [layer_starts[k + 1] - layer_starts[k] for k in range(len(layer_starts) - 1)]
    word_counts += [0] * (max_len + 1 - len(word_counts))

    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    built = {0: ident}

    def image(i: int):
        chain = []
        while i not in built:
            chain.append(i)
            i = parent[i]
        mat = built[i]
        for j in reversed(chain):
            mat = times_reflection(mat, actions[letter_of[j]])
            built[j] = mat
        return mat

    image_counts = list(word_counts)
    total_images = len(letter_of)
    for members in shared.values():
        lengths_by_image: dict = {}
        for i in members:
            length = bisect_right(layer_starts, i) - 1
            lengths_by_image.setdefault(image(i), []).append(length)
        total_images -= len(members) - len(lengths_by_image)
        for lengths in lengths_by_image.values():
            for length in lengths:
                image_counts[length] -= 1
            for length in set(lengths):
                image_counts[length] += 1
    return FaithfulnessReport(
        t=t,
        max_len=max_len,
        word_counts=tuple(word_counts),
        image_counts=tuple(image_counts),
        total_words=len(letter_of),
        total_images=total_images,
    )
