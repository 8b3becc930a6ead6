"""Slow references for the ball walks of `words`, by renormalising normal forms
and by keying elements with a scalar.

`normal_form_layers` grows every normal form by every letter with
`append_letter`, which cancels and renormalises whenever the letter is a
descent, and keeps the words that got longer: it knows nothing of descent
masks, so it checks `words.enumerate_by_length`.  `image_layers`
enumerates the ball the same way and carries every element's full matrix
R_w at t, in packed integers for rational t (`_packed_integer_images`);
`matrix_image_probe` counts its distinct matrices per length and over the
ball; `exact_ball` counts them once per ball over exact matrices, with the
scalars x * R_w * y besides, and keeps both for every test that asks.
`image_layers` skips each letter that shortens a word before renormalising
(`_lengthens`).  `normal_form` folds a whole word with `append_letter`,
checking its letters first.

`words.faithfulness_probe` takes its verdict from Vinberg's theorem and
builds nothing; `key_walk_probe` is the finite check that the theorem
holds on a ball.  It walks the kept growths of `words._Growths` and keys
each element by one scalar, key(w) = x * R_w * y, for a fixed row x and a
fixed column y, instead of by its matrix R_w.  It shares no enumeration or
keying code with `image_layers`.  Right-multiplying by R_s negates entry s
of the row r = x * R_w and adds 2t times that entry to each neighbour
entry, so, for u != s,

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
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from operator import mul

from coxcert import append_letter
from coxcert.errors import IndexOutOfRange, VerificationFailed
from coxcert.exactcore import quad_sign
from coxcert.vinberg import reflect_row, reflection_actions, times_reflection
from coxcert.words import FaithfulnessReport, _Growths, _sphere_sizes

_CHUNK_ROWS = 1024  # parent rows per piece of the key walk's last two layers


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


def image_layers(g, t, max_len: int, packed: bool = True):
    """The spheres of radius 0..max_len, each a dict from normal form to image.

    The image is R_w at t, or, for rational t when `packed`, b^max_len * R_w
    packed by column as `_packed_integer_images` says.
    """
    n = g.n
    if packed and isinstance(t, Fraction):
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


def exact_ball(g, t, max_len: int, x: tuple, y: tuple) -> tuple:
    """One pass of `image_layers` over exact matrices R_w, kept for the test
    session: the `matrix_image_probe` report of the ball (t >= 1), and per
    sphere the Counter of the scalars x * R_w * y."""
    case = (g, t, max_len, x, y)
    if case not in _EXACT_BALLS:
        products = []

        def recording(layers):
            for layer in layers:
                products.append(Counter(sum(map(mul, x, [sum(map(mul, row, y)) for row in m])) for m in layer.values()))
                yield layer

        report = _image_report(t, max_len, recording(image_layers(g, t, max_len, packed=False)))
        _EXACT_BALLS[case] = report, products
    return _EXACT_BALLS[case]


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


def key_walk_probe(g, t, max_len: int) -> FaithfulnessReport:
    """Exact injectivity check on the ball of radius max_len, by key walk.

    Its word counts are `words._sphere_sizes`, so an over-cap ball is refused
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
