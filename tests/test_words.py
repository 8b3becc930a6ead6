"""Normal forms, growth counts, and the faithfulness probe.

The independent oracle for normal forms is a breadth-first closure over the
two rewriting moves (cancel an adjacent equal pair, swap an adjacent
commuting pair): it finds the true shortest length and the lexicographically
least shortest word with no shortcuts, so any disagreement indicts the
incremental algorithm.  Growth counts are checked against the clique
polynomial's growth series and against the renormalising normal-form walk
in `_words_oracle`.  The probe's verdict rests on Vinberg's theorem, so its
report is pinned against that module's normal-form, whole-matrix ball,
`matrix_image_probe`, which also checks the theorem itself on random
diagrams and counts colliding images when the reflections are swapped for
commuting ones.
"""

from __future__ import annotations

import random
import re
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxcert import (
    CoxeterDiagram,
    QuadElem,
    append_letter,
    bracket_closure_density,
    cycle_complement,
    d_threshold,
    enumerate_by_length,
    faithfulness_probe,
)
from coxcert import words
from coxcert.errors import InputError, VerificationFailed
from coxcert.vinberg import reflection_actions, times_reflection

import _words_oracle as oracle
from _suite import acceptance_suite, growth_series, probe_length, random_connected_diagram, suite_thresholds
from _words_oracle import (
    _packed_integer_images,
    exact_ball,
    matrix_image_probe,
    normal_form,
    normal_form_layers,
)

F = Fraction

K3 = CoxeterDiagram(3, frozenset({(1, 2), (1, 3), (2, 3)}))
P3 = CoxeterDiagram(3, frozenset({(1, 2), (2, 3)}))
CC5 = cycle_complement(5)


def _closure_canonical(w, g):
    seen = {tuple(w)}
    frontier = [tuple(w)]
    while frontier:
        nxt = []
        for word in frontier:
            for i in range(len(word) - 1):
                a, b = word[i], word[i + 1]
                if a == b:
                    v = word[:i] + word[i + 2 :]
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
                if g.commutes(a, b):
                    v = word[:i] + (b, a) + word[i + 2 :]
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
        frontier = nxt
    shortest = min(len(v) for v in seen)
    return min(v for v in seen if len(v) == shortest)


def test_normal_form_pinned():
    assert normal_form((1, 1), K3) == ()
    assert normal_form((2, 1, 1, 2), K3) == ()
    assert normal_form((3, 1), P3) == (1, 3)  # commuting pair sorted
    assert normal_form((1, 3, 1), P3) == (3,)
    assert normal_form((2, 3, 1), CC5) == (2, 3, 1)
    # letter 2 commutes with both 3 and 1, so it floats to the front
    assert normal_form((3, 1, 2), CC5) == (2, 3, 1)


def test_normal_form_idempotent_and_letter_checked():
    w = (1, 2, 3, 2, 1)
    nf = normal_form(w, K3)
    assert normal_form(nf, K3) == nf
    with pytest.raises(ValueError, match=r"^letter 4 outside 1\.\.3$"):
        normal_form((1, 4), K3)
    with pytest.raises(ValueError, match=r"^letter 0 outside 1\.\.3$"):
        append_letter((), 0, K3)


def test_normal_form_matches_closure_oracle_exhaustive():
    for g in (K3, P3, CC5):
        for length in range(5):
            for w in product(range(1, g.n + 1), repeat=length):
                assert normal_form(w, g) == _closure_canonical(w, g)


def test_normal_form_matches_closure_oracle_random_longer():
    rng = random.Random(11)
    star = CoxeterDiagram(4, frozenset({(1, 2), (1, 3), (1, 4)}))
    randoms = [random_connected_diagram(random.Random(seed), n) for seed, n in enumerate(range(4, 8))]
    for g in (K3, P3, CC5, star, *randoms):
        for _ in range(200):
            w = tuple(rng.randint(1, g.n) for _ in range(rng.randint(5, 9)))
            assert normal_form(w, g) == _closure_canonical(w, g)


def test_cancelling_appends_match_closure_oracle():
    # every ball element times every letter of its right descent set: the
    # pair cancels, and dropping the cancelled letter leaves the normal form
    star = CoxeterDiagram(4, frozenset({(1, 2), (1, 3), (1, 4)}))
    randoms = [random_connected_diagram(random.Random(seed), n) for seed, n in enumerate(range(4, 8))]
    cancelled = 0
    for g in (K3, P3, CC5, star, *randoms):
        for layer in normal_form_layers(g, 5 if g.n < 6 else 4):
            for w in layer:
                for s in g.vertices:
                    expected = _closure_canonical(w + (s,), g)
                    if len(expected) < len(w):
                        cancelled += 1
                        assert append_letter(w, s, g) == expected, (g, w, s)
    assert cancelled == 3410


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=1, max_value=5), max_size=10))
def test_append_letter_agrees_with_refold(word):
    # folding letter by letter equals normalizing the whole word at once
    nf = ()
    for letter in word:
        nf = append_letter(nf, letter, CC5)
    assert nf == normal_form(tuple(word), CC5)


def test_counts_pinned():
    assert enumerate_by_length(K3, 4) == [1, 3, 6, 12, 24]
    assert enumerate_by_length(P3, 3) == [1, 3, 5, 8]
    assert enumerate_by_length(CC5, 3) == [1, 5, 15, 40]


def test_k3_counts_formula():
    counts = enumerate_by_length(K3, 8)
    for ell in range(1, 9):
        assert counts[ell] == 3 * 2 ** (ell - 1)


def test_counts_match_brute_force_distinct_elements():
    for g in (P3, CC5):
        for max_len in (3,):
            counts = enumerate_by_length(g, max_len)
            forms = set()
            for length in range(max_len + 1):
                for w in product(range(1, g.n + 1), repeat=length):
                    forms.add(_closure_canonical(w, g))
            by_len = [0] * (max_len + 1)
            for f in forms:
                if len(f) <= max_len:
                    by_len[len(f)] += 1
            assert counts == by_len


def test_descent_mask_of_a_grown_normal_form():
    # Desc(ws) = {s} + (Desc(w) & C(s)) for s outside Desc(w), on every normal
    # form of length at most 5: `append_letter` cancels exactly at descents.
    for name, g in acceptance_suite():

        def descents(w):
            return {s for s in g.vertices if len(append_letter(w, s, g)) < len(w)}

        for layer in normal_form_layers(g, 4):
            for w in layer:
                desc = descents(w)
                for s in set(g.vertices) - desc:
                    expected = {s} | {y for y in desc if g.commutes(y, s)}
                    assert descents(append_letter(w, s, g)) == expected, (name, w, s)


def _follow(w, g):
    """F(w): the letters `append_letter` puts last after w."""
    return tuple(s for s in g.vertices if append_letter(w, s, g) == w + (s,))


def test_follow_state_decides_every_later_append():
    # The module docstring's lemma, against `append_letter` itself: normal
    # forms of length at most 4 with one follow state F have, for each s in
    # F, one state after s, namely (N[s] - {s}) | (F & C(s) & {t > s}).
    for name, g in acceptance_suite():
        after = {}
        for layer in normal_form_layers(g, 4):
            for w in layer:
                state = _follow(w, g)
                for s in state:
                    expected = tuple(
                        t for t in g.vertices if t != s and (not g.commutes(s, t) or t > s and t in state)
                    )
                    assert after.setdefault((state, s), _follow(w + (s,), g)) == expected, (name, w, s)
        assert len(after) < sum(map(len, normal_form_layers(g, 4))), name


def _checked_total(monkeypatch, g, max_len, sizes, length, change):
    """The normal forms `enumerate_by_length` counts at `length`, read off
    the VerificationFailed it raises when the count there is moved by
    `change`, or None when it checks no layer of that length."""
    sizes = list(sizes)
    sizes[length] += change
    monkeypatch.setattr(words, "_sphere_sizes", lambda _g, _max_len: list(sizes))
    try:
        enumerate_by_length(g, max_len)
    except VerificationFailed as exc:
        total, checked, counted = re.fullmatch(r"(\d+) normal forms of length (\d+), counted (\d+)", str(exc)).groups()
        assert (int(checked), int(counted)) == (length, sizes[length])
        return int(total)
    return None


def _walk_cases():
    cases = [(name, g, probe_length(g.n) or 4) for name, g in acceptance_suite()]
    cases.append(("edgeless5", CoxeterDiagram(5, frozenset()), 7))
    assert ("cc7", cycle_complement(7), 6) in cases
    return cases


def test_enumeration_layers_are_the_normal_forms(monkeypatch):
    # Every layer total the follow states give, up to length max_len - 2,
    # is the sphere of the renormalising walk, which grows every normal
    # form by every letter.
    for name, g, max_len in _walk_cases():
        sizes = [len(layer) for layer in normal_form_layers(g, max_len)]
        for length in range(1, max_len - 1):
            assert _checked_total(monkeypatch, g, max_len, sizes, length, 1) == sizes[length], (name, length)
        assert _checked_total(monkeypatch, g, max_len, sizes, max_len - 1, 1) is None, name


def test_normal_forms_obey_the_follow_rule():
    # In a normal form a letter s never follows itself, and never follows a
    # larger letter it commutes with: F(w + (x,)) holds no such letter.
    for name, g in acceptance_suite():
        pairs = 0
        for layer in normal_form_layers(g, 5 if g.n < 6 else 4):
            for w in layer:
                for y, s in zip(w, w[1:]):
                    pairs += 1
                    assert s != y and (s > y or not g.commutes(s, y)), (name, w)
        assert pairs, name


def test_enumeration_builds_no_word_of_the_last_length(monkeypatch):
    # The spheres of radius L - 1 and L are counted, not built: each move is
    # read from a representative of the layer before the last one checked,
    # so no representative is longer than L - 3 and no word built longer
    # than L - 2, and none at all is built for L <= 2.
    built, grown = [], []
    real = words.append_letter

    def spy(nf, letter, g):
        built.append(len(nf))
        grown.append(len(word := real(nf, letter, g)))
        return word

    monkeypatch.setattr(words, "append_letter", spy)
    for name, g in acceptance_suite():
        for max_len in (1, 2, 3, probe_length(g.n) or 4):
            built.clear()
            grown.clear()
            assert enumerate_by_length(g, max_len) == growth_series(g, max_len), (name, max_len)
            assert (max_len <= 2) == (built == []), (name, max_len)
            assert max(built, default=0) <= max(max_len - 3, 0), (name, max_len)
            assert max(grown, default=0) <= max(max_len - 2, 0), (name, max_len)


def test_cc7_counts_to_length_8(monkeypatch):
    # The `probe` benchmark's ball; its last sphere holds 424,235 of its
    # 536,131 elements.  Its layers up to length 6 hold 133,966 letters,
    # within MAX_BALL_ELEMENTS, so all six are checked: the identity's
    # state and each of 58 (state, letter) moves read once, 7 calls each,
    # 413 calls where growing each of the 23,352 normal forms took 24,102.
    lengths = []
    real = words.append_letter
    monkeypatch.setattr(words, "append_letter", lambda nf, s, g: lengths.append(len(nf) + 1) or real(nf, s, g))
    expected = [1, 7, 35, 168, 805, 3857, 18480, 88543, 424235]
    assert growth_series(cycle_complement(7), 8) == expected
    assert enumerate_by_length(cycle_complement(7), 8) == expected
    assert max(lengths) <= 6
    assert len(lengths) == 7 + 7 * 58 == 413


def test_cross_check_stops_at_the_letter_cap(monkeypatch):
    # K3's spheres hold 3 * 2^(k-1) elements, so its layers of length 1..5
    # hold 3, 15, 51, 147 and 387 letters in all; the radius-7 ball has 382
    # elements.  The layer that would pass the cap is not checked, and the
    # counts are the sphere sizes all the same.  A count made one smaller
    # keeps its layer within the cap, and one larger keeps it past the cap,
    # so they show which layers are checked.
    sizes = growth_series(K3, 7)
    for cap, longest in ((382, 4), (386, 4), (387, 5)):
        monkeypatch.setattr("coxcert.words.MAX_BALL_ELEMENTS", cap)
        assert enumerate_by_length(K3, 7) == sizes, cap
        assert _checked_total(monkeypatch, K3, 7, sizes, longest, -1) == sizes[longest], cap
        assert _checked_total(monkeypatch, K3, 7, sizes, longest + 1, 1) is None, cap
        monkeypatch.undo()


def test_the_long_thin_ball_reads_each_move_once(monkeypatch):
    # One edge and an isolated vertex, to radius 249,990: about 706 layers
    # fit MAX_BALL_ELEMENTS letters, and their four follow states have seven
    # moves, so the check reads the identity's state and each move once,
    # 3 + 7 * 3 calls, where growing every word took 2,823.
    calls = []
    real = words.append_letter
    monkeypatch.setattr(words, "append_letter", lambda nf, s, g: calls.append(len(nf)) or real(nf, s, g))
    counts = enumerate_by_length(CoxeterDiagram(3, frozenset({(1, 2)})), 249_990)
    assert counts[:3] == [1, 3, 4] and counts.count(4) == 249_989
    assert len(calls) == 24 and max(calls) <= 2


def test_repeating_spheres_are_filled_in_up_to_the_cap(monkeypatch):
    # One edge and an isolated vertex: from radius 2 on every sphere has four
    # elements, so after n + 1 equal spheres the rest of the ball is filled in
    # at once, still refused where the running total passes the cap: the radius-300
    # ball has 1 + 3 + 4 * 299 = 1200 elements.
    g = CoxeterDiagram(3, frozenset({(1, 2)}))
    monkeypatch.setattr("coxcert.words.MAX_BALL_ELEMENTS", 1200)
    assert list(faithfulness_probe(g, 1, 300).word_counts) == growth_series(g, 300)
    monkeypatch.setattr("coxcert.words.MAX_BALL_ELEMENTS", 1199)
    with pytest.raises(InputError, match="^the ball has more than 1199 elements$"):
        faithfulness_probe(g, 1, 300)


def test_counts_match_renormalising_walk():
    for name, g, max_len in _walk_cases():
        expected = [len(layer) for layer in normal_form_layers(g, max_len)]
        assert enumerate_by_length(g, max_len) == expected, name


def test_faithfulness_probe_pinned():
    rep = faithfulness_probe(K3, 2, 4)
    assert rep.injective
    assert rep.word_counts == (1, 3, 6, 12, 24)
    assert rep.word_counts == rep.image_counts
    assert rep.total_words == rep.total_images == 46


def test_faithfulness_probe_quadratic_point():
    rep = faithfulness_probe(P3, QuadElem(1, 1, 2), 4)
    assert rep.injective


def test_faithfulness_probe_rational_point():
    rep = faithfulness_probe(CC5, F(3, 2), 4)
    assert rep.injective


def test_faithfulness_probe_rejects_small_t():
    with pytest.raises(ValueError):
        faithfulness_probe(K3, F(1, 2), 3)
    with pytest.raises(ValueError):
        faithfulness_probe(P3, QuadElem(1, -1, 2), 2)  # sqrt(2) - 1 < 1


def test_ball_cap_counts_every_element(monkeypatch):
    # The K3 ball of radius 4 has 46 elements: it fits a cap of 46, not 45.
    monkeypatch.setattr("coxcert.words.MAX_BALL_ELEMENTS", 46)
    assert sum(enumerate_by_length(K3, 4)) == 46
    assert faithfulness_probe(K3, 2, 4).total_words == 46
    monkeypatch.setattr("coxcert.words.MAX_BALL_ELEMENTS", 45)
    with pytest.raises(InputError, match="^the ball has more than 45 elements$"):
        enumerate_by_length(K3, 4)
    with pytest.raises(InputError, match="^the ball has more than 45 elements$"):
        faithfulness_probe(K3, 2, 4)


def test_a_radius_one_ball_is_sized_before_its_only_layer(monkeypatch):
    # At radius 1 the ball, the identity and its 3 children, is sized
    # before anything is built.
    monkeypatch.setattr("coxcert.words.MAX_BALL_ELEMENTS", 3)
    with pytest.raises(InputError, match="^the ball has more than 3 elements$"):
        faithfulness_probe(K3, 2, 1)
    monkeypatch.setattr("coxcert.words.MAX_BALL_ELEMENTS", 4)
    assert faithfulness_probe(K3, 2, 1).word_counts == (1, 3)


def test_a_radius_two_ball_is_sized_from_the_identity(monkeypatch):
    # At radius 2 the enumeration checks no layer: the ball, 1 + 3 + 6
    # elements, is counted, and no normal form is built, under the cap or
    # over it.
    built = []
    real_letter = words.append_letter
    monkeypatch.setattr(words, "append_letter", lambda *a: built.append(a) or real_letter(*a))
    monkeypatch.setattr("coxcert.words.MAX_BALL_ELEMENTS", 10)
    assert enumerate_by_length(K3, 2) == [1, 3, 6]
    assert faithfulness_probe(K3, 2, 2).word_counts == (1, 3, 6)
    monkeypatch.setattr("coxcert.words.MAX_BALL_ELEMENTS", 9)
    with pytest.raises(InputError, match="^the ball has more than 9 elements$"):
        enumerate_by_length(K3, 2)
    with pytest.raises(InputError, match="^the ball has more than 9 elements$"):
        faithfulness_probe(K3, 2, 2)
    assert built == []


def test_probe_refuses_an_over_cap_ball_before_building_its_rows():
    # cc32 at D to radius 5 has more than MAX_BALL_ELEMENTS elements; the
    # sphere sizes, counted from the growth series, refuse it.
    g = cycle_complement(32)
    d = d_threshold(g)[0]
    with pytest.raises(InputError, match=f"^the ball has more than {words.MAX_BALL_ELEMENTS} elements$"):
        faithfulness_probe(g, d, 5)


def test_enumeration_refuses_an_over_cap_ball_before_building_its_words(monkeypatch):
    # The same cc32 ball: its sphere sizes come from the growth series alone,
    # so the refusal comes before any normal form is built; sized from the
    # words of length 3 it came after 29,760 normal forms, and counting only
    # the words already made, after about 1,000,000.
    g = cycle_complement(32)
    real = words.append_letter
    calls = 0

    def counting(nf, letter, g):
        nonlocal calls
        calls += 1
        if calls > 0:
            raise AssertionError("the enumeration built words for a ball it refuses")
        return real(nf, letter, g)

    monkeypatch.setattr(words, "append_letter", counting)
    with pytest.raises(InputError, match=f"^the ball has more than {words.MAX_BALL_ELEMENTS} elements$"):
        enumerate_by_length(g, 5)


def _probe_cases():
    for name, g in acceptance_suite():
        max_len = probe_length(g.n)
        if max_len is not None:
            for t in (suite_thresholds(name, g).d_value, F(3, 2)):
                yield name, g, t, max_len
    yield "P3", P3, QuadElem(1, 1, 2), 8
    # (Z/2)^4 ends at length 4 with its longest element, so the balls of
    # radius 5, 6 and 7 pad one, two and three empty spheres.
    edgeless = CoxeterDiagram(4, frozenset())
    for max_len in (4, 5, 6, 7):
        yield "edgeless4", edgeless, F(3, 2), max_len


def _pin_mismatches() -> list:
    """The `_probe_cases` on which the production report differs from the
    whole-matrix report of `exact_ball`."""
    mismatches = []
    for name, g, t, max_len in _probe_cases():
        if faithfulness_probe(g, t, max_len) != exact_ball(g, t, max_len):
            mismatches.append((name, t, max_len))
    return mismatches


def test_probe_report_is_the_exact_ball_report():
    # The production report, the sphere sizes twice, is the whole-matrix
    # oracle's on every case, the edgeless radii and the quadratic point included.
    assert _pin_mismatches() == []


def test_an_off_by_one_sphere_fails_the_exact_ball_pin(monkeypatch):
    # The pin sees a sphere size one too large, even the padding past the
    # longest element of (Z/2)^4.
    real = words._sphere_sizes

    def off_by_one(g, max_len):
        sizes = real(g, max_len)
        return sizes[:-1] + [sizes[-1] + 1]

    monkeypatch.setattr(words, "_sphere_sizes", off_by_one)
    assert len(_pin_mismatches()) == len(list(_probe_cases()))


def test_probe_counts_colliding_images_like_the_oracle(monkeypatch):
    # Act with the commuting reflections of the edgeless diagram, whose images
    # form (Z/2)^n: equal matrices then arise within a length and across
    # lengths, and the whole-matrix oracle counts the 2^n of them.
    def commuting_actions(g, t):
        return reflection_actions(CoxeterDiagram(g.n, frozenset()), t)

    monkeypatch.setattr(oracle, "reflection_actions", commuting_actions)
    for g in (K3, P3, CC5):
        rep = matrix_image_probe(g, 2, 5)
        assert not rep.injective
        assert rep.total_images == 2**g.n
        assert rep.image_counts[:2] == (1, g.n)


def _unpack(column: int, width: int, n: int) -> tuple:
    """The n balanced digits of `width` bits of a packed column, lowest first."""
    digits = []
    for _ in range(n):
        digit = column & ((1 << width) - 1)
        if digit >> (width - 1):
            digit -= 1 << width
        digits.append(digit)
        column = (column - digit) >> width
    return tuple(digits)


def test_packed_oracle_images_are_the_scaled_matrices():
    # At t = 5/4, 2t is not an integer, so each step's division by b is
    # exact only because the scaled images are integral; R_1 R_3 repeated
    # drives the entries up, and decoding at the width the oracle documents
    # checks that every entry of b^max_len * R_w fits its digit.
    t, max_len, g = F(5, 4), 8, CC5
    b = t.denominator
    width = max_len * (b + 2 * t.numerator).bit_length() + 1
    ident, step = _packed_integer_images(g.n, t, max_len)
    actions = reflection_actions(g, t)
    rng = random.Random(5)
    words_ = [(1, 3) * (max_len // 2)] + [tuple(rng.choices(g.vertices, k=max_len)) for _ in range(40)]
    for w in words_:
        packed = ident
        exact = tuple(tuple(F(int(i == j)) for j in range(g.n)) for i in range(g.n))
        for k, letter in enumerate(w, start=1):
            packed = step(packed, actions[letter])
            exact = times_reflection(exact, actions[letter])
            scaled_columns = tuple(zip(*((b**max_len * x for x in row) for row in exact)))
            assert tuple(_unpack(c, width, g.n) for c in packed) == scaled_columns, w[:k]


def test_counts_match_growth_series():
    for name, g in acceptance_suite():
        max_len = probe_length(g.n) or 4
        expected = growth_series(g, max_len)
        assert enumerate_by_length(g, max_len) == expected, name
        assert list(faithfulness_probe(g, 2, max_len).word_counts) == expected, name


def test_counts_on_the_worst_32_vertex_families():
    # The nearly free diagrams, whose radius-5 balls come closest to the cap:
    # the edgeless one, the path and a spanning tree with few more edges.
    # Each ball fits to radius 5 and is refused at radius 6, sphere 6 being
    # the one whose running total passes MAX_BALL_ELEMENTS.
    path = CoxeterDiagram(32, frozenset((i, i + 1) for i in range(1, 32)))
    sparse = random_connected_diagram(random.Random(9), 32, 0.02)
    for name, g in (("edgeless32", CoxeterDiagram(32, frozenset())), ("P32", path), ("rand32/0.02", sparse)):
        expected = growth_series(g, 5)
        assert sum(expected) <= words.MAX_BALL_ELEMENTS, name
        assert list(faithfulness_probe(g, 1, 5).word_counts) == expected, name
        with pytest.raises(InputError, match=f"^the ball has more than {words.MAX_BALL_ELEMENTS} elements$"):
            faithfulness_probe(g, 1, 6)
        with pytest.raises(InputError, match=f"^the ball has more than {words.MAX_BALL_ELEMENTS} elements$"):
            enumerate_by_length(g, 40)


def test_counts_of_the_finite_group_stop_at_its_longest_element(monkeypatch):
    # No edges: every pair commutes, the group is (Z/2)^5 and layer k has C(5, k).
    free = CoxeterDiagram(5, frozenset())
    expected = [1, 5, 10, 10, 5, 1, 0, 0]
    assert growth_series(free, 7) == expected
    assert enumerate_by_length(free, 7) == expected
    rep = faithfulness_probe(free, 2, 7)
    assert list(rep.word_counts) == expected
    assert rep.injective and rep.total_images == 32
    # The 32-element ball fits any cap from 32 up, but a radius above the cap
    # is refused even though the ball stops growing at length 5.
    monkeypatch.setattr("coxcert.words.MAX_BALL_ELEMENTS", 40)
    padded = expected + [0] * 33
    assert enumerate_by_length(free, 40) == padded
    assert list(faithfulness_probe(free, 2, 40).image_counts) == padded
    with pytest.raises(InputError, match="^radius 41 is above the cap of 40 ball elements$"):
        enumerate_by_length(free, 41)
    with pytest.raises(InputError, match="^radius 41 is above the cap of 40 ball elements$"):
        faithfulness_probe(free, 2, 41)


def test_a_negative_radius_is_misuse():
    with pytest.raises(ValueError, match=r"^max_len must be >= 0$"):
        enumerate_by_length(K3, -1)
    with pytest.raises(ValueError, match=r"^max_len must be >= 0$"):
        faithfulness_probe(K3, 2, -1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.integers(min_value=3, max_value=6),
    st.integers(min_value=0, max_value=2**32),
    st.fractions(min_value=1, max_value=6, max_denominator=12),
    st.integers(min_value=0, max_value=4),
)
def test_probe_is_injective_as_tits_vinberg_says(n, seed, t, max_len):
    # At t >= 1 the form M_t has B(e_s, e_s) = 1, B = 0 on commuting pairs and
    # B = -t <= -1 on the others, so by Vinberg's theorem (Humphreys, Reflection
    # Groups and Coxeter Groups, 5.3-5.4) the representation is faithful; the
    # word counts come from the clique polynomial, independently of any walk.
    # The production report takes the theorem for granted, and the oracle,
    # counting distinct matrices, checks it.
    g = random_connected_diagram(random.Random(seed), n)
    rep = faithfulness_probe(g, t, max_len)
    assert rep.injective
    assert list(rep.word_counts) == growth_series(g, max_len)
    assert matrix_image_probe(g, t, max_len) == rep


def test_probe_memory_holds_nothing_of_the_ball():
    # The production probe counts commuting sets only: its tracemalloc peak
    # on the 536,131-element ball is about 2 KB.
    g = cycle_complement(7)
    tracemalloc.start()
    try:
        rep = faithfulness_probe(g, 2, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.injective and rep.total_words == 536_131
    assert peak < 1_000_000, peak


def test_an_int_d_gives_what_its_fraction_gives():
    # the pipeline passes D as an int, which must act as the rational D
    for name, g in acceptance_suite():
        d_value = suite_thresholds(name, g).d_value
        assert faithfulness_probe(g, d_value, 4) == faithfulness_probe(g, Fraction(d_value), 4), name
        assert bracket_closure_density(g, d_value) == bracket_closure_density(g, Fraction(d_value)), name
