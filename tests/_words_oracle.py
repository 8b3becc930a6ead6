"""Slow references for the ball walks of `words`, by renormalising normal forms.

`normal_form_layers` grows every normal form by every letter with
`append_letter`, which cancels and renormalises whenever the letter is a
descent, and keeps the words that got longer: it knows nothing of descent
masks, so it checks `words.enumerate_by_length`.  `matrix_image_probe` is
the reference for `words.faithfulness_probe`: it enumerates the ball the
same way, carries every element's full matrix R_w at t, and counts distinct
matrices per length and over the ball.  It shares no enumeration or keying
code with the production probe, which walks descent sets and keys elements
by the scalar x * R_w * y.  `normal_form` folds a whole word with
`append_letter`, checking its letters first.
"""

from __future__ import annotations

from fractions import Fraction

from coxcert import append_letter
from coxcert.errors import IndexOutOfRange
from coxcert.exactcore import quad_sign
from coxcert.vinberg import reflection_actions, times_reflection
from coxcert.words import FaithfulnessReport


def _check_letters(w, n: int) -> None:
    for x in w:
        if not isinstance(x, int) or not (1 <= x <= n):
            raise IndexOutOfRange(f"letter {x!r} outside 1..{n}")


def normal_form(w, g) -> tuple:
    """Canonical form: shortest, then lexicographically least.

    Idempotent, and two words get the same normal form exactly when they
    represent the same group element.
    """
    _check_letters(w, g.n)
    nf: tuple = ()
    for letter in w:
        nf = append_letter(nf, letter, g)
    return nf


def normal_form_layers(g, max_len: int) -> list[set]:
    """The spheres of radius 0..max_len of g's group, as sets of normal forms."""
    layers = [{()}]
    for target in range(1, max_len + 1):
        grown = (append_letter(word, letter, g) for word in layers[-1] for letter in g.vertices)
        layers.append({word for word in grown if len(word) == target})
    return layers


def matrix_image_probe(g, t, max_len: int) -> FaithfulnessReport:
    if isinstance(t, int):
        t = Fraction(t)
    if quad_sign(t - 1) < 0:
        raise ValueError(f"probe needs t >= 1, got {t}")
    n = g.n
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
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
