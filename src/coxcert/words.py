"""Words in the generators: normal forms, growth counts, faithfulness verdict.

An element is represented by the lexicographically least word among the
shortest words for it.  Two rewriting moves generate the equivalence:
deleting an equal pair of letters once everything strictly between commutes
with them, and swapping adjacent commuting letters.  The normal form is
computed incrementally, by one scan of the normal word from the right over
the letters that commute with the appended one: the scan stops at the first
letter that does not, and the appended letter either cancels it, when it is
the same letter (the exchange condition rules out deeper cascades, and the
survivors stay in normal form), or goes in at its lexicographically best slot: right before the leftmost larger
letter the scan passed, or at the end if it passed none.

The sphere sizes come from the growth series of a right-angled Coxeter
group, W(t) = 1 / f(-t / (1 + t)), where f(x) = sum_k c_k x^k and c_k counts
the sets of k pairwise commuting letters (Chiswell, "The growth series of a
graph product", Bull. London Math. Soc. 26, 1994; Davis, The Geometry and
Topology of Coxeter Groups, ch. 17).  Multiplied through by (1 + t)^n it is
W = (1 + t)^n / Q(t), with Q(t) = sum_k c_k (-t)^k (1 + t)^(n - k), a
polynomial of degree n with Q_0 = 1, so sphere j is
C(n, j) - sum_(i = 1..min(j, n)) Q_i * a_(j - i), a recurrence of order n.
Q_j needs only c_0..c_j, so `_sphere_sizes` counts the commuting sets one
size at a time, just before the sphere that needs them.  Past sphere n the
recurrence is homogeneous, so once n + 1 spheres in a row are equal every
later one is too, and those are filled in at once.  It stops at the first
empty sphere, which only a finite group has, and refuses a radius above
MAX_BALL_ELEMENTS (past that, a ball of an infinite group, having an
element of every length, holds too many elements anyway) and, as soon as
the running total passes it, a ball over MAX_BALL_ELEMENTS, so a refused
ball is never built.

`enumerate_by_length` returns those sizes and checks them against normal
forms, independently of any matrix model and of the count.  Let F(w), the
follow state of a normal form w, be the letters s that `append_letter(w, s)`
puts last; a prefix of a normal form is one, so the normal forms of length
k + 1 are the w + (s,), |w| = k, s in F(w).  For x in F(w), F(w + (x,)) =
(N[x] - {x}) | (F(w) & C(x) & {s > x}), N[x] the letters not commuting with
x (x among them), C(x) the rest: the scan for s stops at x if s is in N[x],
cancelling if s = x, and else passes x, leaving s last only if x < s, and
scans w as for w alone.  So F(w) decides every later append, and each
layer up to length max_len - 2 and MAX_BALL_ELEMENTS letters in all is
counted by state, from one representative word and multiplicity each.

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
the image counts, building no matrix or set.  The tests check the theorem
on finite balls against `matrix_image_probe` in tests/_words_oracle.py,
which counts the distinct matrices R_w of every ball element.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .diagram import CoxeterDiagram
from .errors import InputError, VerificationFailed

Word = tuple

# Most group elements a ball enumeration may hold; cc7 to length 8 has 536,131.
MAX_BALL_ELEMENTS = 1_000_000


def append_letter(nf: Word, letter: int, g: CoxeterDiagram) -> Word:
    """Normal form of (normal word nf) * generator letter, in one scan of nf
    from the right, O(len(nf)).

    The scan walks the maximal suffix of letters commuting with `letter` and
    stops at the first letter that does not.  If that letter is `letter`
    itself the pair cancels, and nf without it is the normal form: it is
    reduced, being one letter shorter, and a lex-smaller reduced word u for
    the product would give one for nf's element, u + (letter,) if u departs
    from nf before that slot, else u with `letter` put back there (u's tail
    then has the letters of nf's, which all commute with `letter`).
    Otherwise `letter` goes right before the leftmost larger letter of the
    suffix, remembered on the way, or at the end, where one concatenation
    appends it: the common case when the word is grown at its end.
    """
    if not isinstance(letter, int) or not (1 <= letter <= g.n):
        raise ValueError(f"letter {letter!r} outside 1..{g.n}")
    mask = g.noncommuting_masks[letter]  # has letter's own bit
    pos = q = len(nf)
    for y in reversed(nf):
        q -= 1  # y is nf[q]
        if mask >> y & 1:
            if y == letter:
                # Everything right of q commutes with `letter`, so the pair
                # cancels, and the survivors are already in normal form.
                return nf[:q] + nf[q + 1 :]
            break
        if letter < y:
            pos = q
    if pos == len(nf):
        return nf + (letter,)
    return nf[:pos] + (letter,) + nf[pos:]


def _sphere_sizes(g: CoxeterDiagram, max_len: int) -> list[int]:
    """The sizes of the spheres of radius 0..max_len, from the growth series
    (see the module docstring), padded with zeros past the first empty one.
    Raises InputError when max_len or the ball exceeds MAX_BALL_ELEMENTS,
    each sphere counted before the next is."""
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    if max_len > MAX_BALL_ELEMENTS:
        raise InputError(f"radius {max_len} is above the cap of {MAX_BALL_ELEMENTS} ball elements")
    n = g.n
    # A commuting set grows by a free letter v above its largest, which then
    # leaves free the free letters above v that commute with v.
    later = {1 << v: ~g.noncommuting_masks[v] & -(2 << v) for v in g.vertices}
    free_counts = {(1 << (n + 1)) - 2: 1}  # free letters -> commuting sets of the last size counted
    cliques, q, sizes, total = [1], [1], [1], 1
    while len(sizes) <= max_len:
        j = len(sizes)
        if j <= n:
            grown: dict = {}
            for free, count in free_counts.items():
                rest = free
                while rest:
                    low = rest & -rest
                    rest ^= low
                    child = free & later[low]
                    grown[child] = grown.get(child, 0) + count
            free_counts = grown
            cliques.append(sum(grown.values()))
            q.append(sum((-1) ** k * c * comb(n - k, j - k) for k, c in enumerate(cliques)))
        size = comb(n, j) - sum(q[i] * sizes[j - i] for i in range(1, min(j, n) + 1))
        total += size
        if total > MAX_BALL_ELEMENTS:
            raise InputError(f"the ball has more than {MAX_BALL_ELEMENTS} elements")
        if not size:
            break
        sizes.append(size)
        if j > n and sizes[-n - 1 :].count(size) == n + 1:  # every later sphere repeats; add those the cap allows
            repeats = min(max_len + 1 - len(sizes), (MAX_BALL_ELEMENTS - total) // size)
            sizes, total = sizes + [size] * repeats, total + size * repeats
    return sizes + [0] * (max_len + 1 - len(sizes))


def enumerate_by_length(g: CoxeterDiagram, max_len: int) -> list[int]:
    """Count distinct group elements of each length 0..max_len.

    The counts are `_sphere_sizes`, so an over-cap ball is refused before
    any normal form is built.  Each checked layer (see the module
    docstring) must then hold the sum of |F| times multiplicity over the
    states of the layer before, each (state, letter) move read once with
    `append_letter`, else VerificationFailed; the identity's state is read
    only once a layer is checked.
    """
    counts = _sphere_sizes(g, max_len)

    def follow(w):  # F(w)
        return tuple(s for s in g.vertices if append_letter(w, s, g) == w + (s,))

    layer, moves, letters = {}, {}, 0  # F -> [representative, multiplicity]; (F, s) -> F(rep + (s,))
    for length in range(1, max_len - 1):
        letters += length * counts[length]
        if not counts[length] or letters > MAX_BALL_ELEMENTS:
            break
        grown: dict = {}
        for state, (word, mult) in layer.items():
            for s in state:
                if (state, s) not in moves:
                    moves[state, s] = follow(word + (s,))
                grown.setdefault(moves[state, s], [word + (s,), 0])[1] += mult
        layer = grown or {follow(()): [(), 1]}  # empty only before the first layer
        if (total := sum(len(state) * mult for state, (_, mult) in layer.items())) != counts[length]:
            raise VerificationFailed(f"{total} normal forms of length {length}, counted {counts[length]}")
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
    the evaluation point t, an exact real number (t >= 1, else ValueError).

    Both are `_sphere_sizes`, so an over-cap ball is refused as by
    `enumerate_by_length`; they are the image counts as well, w -> R_w
    being faithful at t >= 1 by Vinberg's theorem (see the module docstring).
    """
    if t < 1:
        raise ValueError(f"probe needs t >= 1, got {t}")
    counts = tuple(_sphere_sizes(g, max_len))
    total = sum(counts)
    return FaithfulnessReport(t, max_len, counts, counts, total, total)
