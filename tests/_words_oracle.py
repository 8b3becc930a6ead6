"""Slow references for the ball walks of `words`, by renormalising normal forms
and by whole matrices.

`normal_form_layers` grows every normal form by every letter with
`append_letter`, which cancels and renormalises whenever the letter is a
descent, and keeps the words that got longer: it knows nothing of
follow states, so it checks `words.enumerate_by_length`.  `image_layers`
enumerates the ball the same way and carries every element's full matrix
R_w at t: in packed integers for rational t (`_packed_integer_images`), and
as exact matrices for t in Q(sqrt m).  `matrix_image_probe` counts its
distinct images per length and over the ball, so it checks the theorem
`words.faithfulness_probe` takes its verdict from; `exact_ball` keeps that
report for the test session.  `image_layers` skips each letter that
shortens a word before renormalising (`_lengthens`).  `normal_form` folds a
whole word with `append_letter`, checking its letters first.
"""

from __future__ import annotations

from fractions import Fraction

from coxcert import append_letter
from coxcert.exactcore import quad_sign
from coxcert.vinberg import reflection_actions, times_reflection
from coxcert.words import FaithfulnessReport


def _check_letters(w, n: int) -> None:
    for x in w:
        if not isinstance(x, int) or not (1 <= x <= n):
            raise ValueError(f"letter {x!r} outside 1..{n}")


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


def _lengthens(word: tuple, letter: int, g) -> bool:
    """Whether word * letter is longer than the reduced word: no copy of
    letter in it commutes past every letter to its right (Tits)."""
    for y in reversed(word):
        if y == letter:
            return False
        if not g.commutes(y, letter):
            return True
    return True


def _packed_integer_images(n: int, t: Fraction, max_len: int):
    """The identity and the step A -> A * R_i for rational t, in integers.

    With b = t's denominator, b^max_len * R_w is an integer matrix for
    every word w of length at most max_len, so the ball is carried at that
    common power and its images compare like the R_w.  An entry of R_w is
    at most (1 + |2t|)^max_len in absolute value, so one of b^max_len * R_w
    is below 2^(width - 1); each column is packed into one int with its
    entries as balanced digits of `width` bits, equal packings are equal
    matrices, and a step is a few big-integer operations.  The 2t * (old
    column i) a step adds has integer entries, so its digits divide by b
    exactly.
    """
    b = t.denominator
    width = max_len * (b + abs(2 * t.numerator)).bit_length() + 1
    ident = tuple(b**max_len << (width * i) for i in range(n))

    def step(columns: tuple, action) -> tuple:
        col, neighbor_cols, two_t = action
        old = columns[col]
        added = int(two_t * b) * old // b
        out = list(columns)
        out[col] = -old
        for j in neighbor_cols:
            out[j] += added
        return tuple(out)

    return ident, step


def image_layers(g, t, max_len: int):
    """The spheres of radius 0..max_len, each a dict from normal form to image.

    The image is, for rational t, b^max_len * R_w packed by column as
    `_packed_integer_images` says, and otherwise R_w at t.
    """
    n = g.n
    if isinstance(t, Fraction):
        ident, step = _packed_integer_images(n, t, max_len)
    else:
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        step = times_reflection
    actions = reflection_actions(g, t)
    layer = {(): ident}
    yield layer
    for target in range(1, max_len + 1):
        nxt: dict = {}
        for word, image in layer.items():
            for letter in g.vertices:
                if not _lengthens(word, letter, g):
                    continue
                grown = append_letter(word, letter, g)
                if len(grown) == target and grown not in nxt:
                    nxt[grown] = step(image, actions[letter])
        yield nxt
        layer = nxt


def _image_report(t, max_len: int, layers) -> FaithfulnessReport:
    """The word and distinct-image counts of the spheres `layers`, per length and in total."""
    word_counts = []
    image_counts = []
    seen_images = set()
    for layer in layers:
        word_counts.append(len(layer))
        images = set(layer.values())
        image_counts.append(len(images))
        seen_images.update(images)
    total_words = sum(word_counts)
    return FaithfulnessReport(
        t=t,
        max_len=max_len,
        word_counts=tuple(word_counts),
        image_counts=tuple(image_counts),
        total_words=total_words,
        total_images=len(seen_images),
    )


def matrix_image_probe(g, t, max_len: int) -> FaithfulnessReport:
    if isinstance(t, int):
        t = Fraction(t)
    if quad_sign(t - 1) < 0:
        raise ValueError(f"probe needs t >= 1, got {t}")
    return _image_report(t, max_len, image_layers(g, t, max_len))


_EXACT_BALLS: dict = {}


def exact_ball(g, t, max_len: int) -> FaithfulnessReport:
    """The `matrix_image_probe` report of the ball, kept for the test session."""
    case = (g, t, max_len)
    if case not in _EXACT_BALLS:
        _EXACT_BALLS[case] = matrix_image_probe(g, t, max_len)
    return _EXACT_BALLS[case]
