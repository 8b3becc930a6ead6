"""Words in the generators: canonical normal forms and exact enumeration.

An element is represented by the lexicographically least word among the
shortest words for it.  Two rewriting moves generate the equivalence:
deleting an equal pair of letters once everything strictly between commutes
with them, and swapping adjacent commuting letters.  The normal form is
computed incrementally: appending one letter to a normal word either cancels
exactly one earlier occurrence (the letters after it all commute with it;
the exchange condition rules out deeper cascades) or gets inserted at its
lexicographically best slot by sliding left past larger commuting letters.

Enumeration deduplicates by normal form, so the counts are independent of
any matrix model; the faithfulness probe then maps every element through the
reflection matrices and demands exactly as many distinct images.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .diagram import CoxeterDiagram
from .errors import IndexOutOfRange
from .exactcore import quad_sign
from .vinberg import reflection_actions, times_reflection

Word = tuple


@lru_cache(maxsize=256)
def _noncommuting_masks(g: CoxeterDiagram) -> tuple:
    """masks[i] has bit y set when letter y does NOT commute with i (y == i or edge)."""
    masks = [0] * (g.n + 1)
    for i in g.vertices:
        m = 1 << i
        for j in g.neighbors(i):
            m |= 1 << j
        masks[i] = m
    return tuple(masks)


def _check_letters(w, n: int) -> None:
    for x in w:
        if not isinstance(x, int) or not (1 <= x <= n):
            raise IndexOutOfRange(f"letter {x!r} outside 1..{n}")


def append_letter(nf: Word, letter: int, g: CoxeterDiagram) -> Word:
    """Normal form of (normal word nf) * generator letter, in O(len(nf))."""
    if not isinstance(letter, int) or not (1 <= letter <= g.n):
        raise IndexOutOfRange(f"letter {letter!r} outside 1..{g.n}")
    masks = _noncommuting_masks(g)
    mask = masks[letter]
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


def normal_form(w, g: CoxeterDiagram) -> Word:
    """Canonical form: shortest, then lexicographically least.

    Idempotent, and two words get the same normal form exactly when they
    represent the same group element.
    """
    _check_letters(w, g.n)
    nf: Word = ()
    for letter in w:
        nf = append_letter(nf, letter, g)
    return nf


def enumerate_by_length(g: CoxeterDiagram, max_len: int) -> list[int]:
    """Count distinct group elements of each length 0..max_len.

    Breadth-first over normal forms; deduplication uses the normal form
    itself, never a matrix image.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    counts = [1]
    layer = {()}
    for target in range(1, max_len + 1):
        nxt = set()
        for word in layer:
            for letter in g.vertices:
                grown = append_letter(word, letter, g)
                if len(grown) == target:
                    nxt.add(grown)
        counts.append(len(nxt))
        layer = nxt
    return counts


@dataclass(frozen=True)
class FaithfulnessReport:
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
    """Exact injectivity probe on the ball of radius max_len.

    Enumerates elements by normal form, carries each element's matrix image
    at the evaluation point t (t >= 1), and compares counts per length and in
    total.  Entries stay integers whenever t is an integer, so the check is
    exact overflow-free arithmetic either way.
    """
    if isinstance(t, int):
        t = Fraction(t)
    if quad_sign(t - 1) < 0:
        raise ValueError(f"probe needs t >= 1, got {t}")
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    n = g.n
    use_int = isinstance(t, Fraction) and t.denominator == 1
    if use_int:
        ident = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    else:
        ident = tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))
    actions = reflection_actions(g, t)
    layer = {(): ident}
    word_counts = [1]
    image_counts = [1]
    seen_images = {ident}
    total_words = 1
    for target in range(1, max_len + 1):
        nxt: dict = {}
        for word, image in layer.items():
            for letter in g.vertices:
                grown = append_letter(word, letter, g)
                if len(grown) == target and grown not in nxt:
                    nxt[grown] = times_reflection(image, actions[letter])
        word_counts.append(len(nxt))
        images = set(nxt.values())
        image_counts.append(len(images))
        seen_images.update(images)
        total_words += len(nxt)
        layer = nxt
    return FaithfulnessReport(
        t=t,
        max_len=max_len,
        word_counts=tuple(word_counts),
        image_counts=tuple(image_counts),
        total_words=total_words,
        total_images=len(seen_images),
    )
