"""Words in the generators: normal forms, growth counts, faithfulness verdict.

An element is represented by the lexicographically least word among the
shortest words for it.  Two rewriting moves generate the equivalence:
deleting an equal pair of letters once everything strictly between commutes
with them, and swapping adjacent commuting letters.  The normal form is
computed incrementally: appending one letter to a normal word either cancels
exactly one earlier occurrence (the letters after it all commute with it;
the exchange condition rules out deeper cascades) or gets inserted at its
lexicographically best slot by sliding left past larger commuting letters.

The ball counts rest on right descent sets: Desc(w) is the set of letters s
with l(ws) < l(w), a set of pairwise commuting letters.  Growing w by s
lengthens it exactly when s is not in Desc(w), and then
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
`_sphere_sizes` counts the masks so, layer by layer, before anything is
built.  It stops at the first empty layer, which only a finite group has,
and refuses a radius above MAX_BALL_ELEMENTS (past that, a ball of an
infinite group, having an element of every length, holds too many elements
anyway) and, as soon as the running total passes it, a ball over
MAX_BALL_ELEMENTS, so a refused ball is never built.

`enumerate_by_length` returns those sizes and checks them against normal
forms, independently of any matrix model.  Each layer maps a normal form to
its descent mask and is grown by the kept growths only, so `append_letter`
never cancels on this path: every call lengthens the word by one letter, up
to length max_len - 2, and each layer must hold as many distinct normal
forms as the count says.

The faithfulness verdict rests on a theorem, not on a walk.  The probe runs
only at t >= 1.  There the transposed action R_s^T x = x - x_s * (2 M_t e_s)
has the coordinate functionals as roots, linearly independent even where
M_t is singular, and the Cartan matrix a_st = 2 (M_t)_st: 2 on the
diagonal, 0 on every non-edge (m_st = 2), and -2t on every edge, with
a_st * a_ts = 4t^2 >= 4 (m_st = infinity).  By Vinberg ("Discrete linear
groups generated by reflections", Izv. Akad. Nauk SSSR 35, 1971; at t = 1
Tits' theorem, Humphreys, Reflection Groups and Coxeter Groups, 5.3-5.4)
these reflections generate the right-angled Coxeter group of the diagram,
acting faithfully, and w -> R_w, which is w -> (R_(w^-1))^T, has the same
kernel.  So distinct elements have distinct matrices, and
`faithfulness_probe` returns the sphere sizes as both the word counts and
the image counts, building no row, key or set.  The finite walk the verdict
once rested on, which keys every ball element by the scalar x * R_w * y and
compares the keys, is the test oracle `key_walk_probe` in
tests/_words_oracle.py; the tests check the theorem with it.  Without the
walk, the benchmark's `probe` workload (`words` on cc7 to length 8 and on
cc6 to length 7) went from 0.40 to 0.20 s wall time and from 61.6 to
31.1 MB peak RSS (medians of 10 alternated pairs, shared 2-vCPU VM).
"""

from __future__ import annotations

from typing import NamedTuple

from .diagram import CoxeterDiagram
from .errors import BallTooLarge, IndexOutOfRange, VerificationFailed
from .exactcore import quad_sign

Word = tuple

# Most group elements a ball enumeration may hold; cc7 to length 8 has 536,131.
MAX_BALL_ELEMENTS = 1_000_000


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


def faithfulness_probe(g: CoxeterDiagram, t, max_len: int) -> FaithfulnessReport:
    """Word counts and matrix-image counts of the ball of radius max_len, at
    the evaluation point t (t >= 1, else ValueError).

    Both are `_sphere_sizes`, so an over-cap ball is refused as by
    `enumerate_by_length`.  The image counts equal the word counts by
    Vinberg's theorem: at t >= 1 the Cartan matrix 2 M_t has 2 on the
    diagonal, 0 on non-edges and a_st * a_ts = 4t^2 >= 4 on edges, so
    w -> R_w is faithful (see the module docstring).  The key walk that once
    checked this on the ball is the test oracle `key_walk_probe` in
    tests/_words_oracle.py.  Dropping it took the benchmark's `probe`
    workload from 0.40 to 0.20 s wall time and from 61.6 to 31.1 MB peak RSS.
    """
    if quad_sign(t - 1) < 0:
        raise ValueError(f"probe needs t >= 1, got {t}")
    counts = tuple(_sphere_sizes(_Growths(g, [(s,) for s in g.vertices]), max_len))
    total = sum(counts)
    return FaithfulnessReport(t, max_len, counts, counts, total, total)
