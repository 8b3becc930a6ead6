"""Normal forms, growth counts, and the faithfulness probe.

The independent oracle for normal forms is a breadth-first closure over the
two rewriting moves (cancel an adjacent equal pair, swap an adjacent
commuting pair): it finds the true shortest length and the lexicographically
least shortest word with no shortcuts, so any disagreement indicts the
incremental algorithm.  Growth counts are checked against the clique
polynomial's growth series and against the renormalising normal-form walk
in `_words_oracle`.  The probe's verdict rests on Vinberg's theorem, so its
report is pinned against that module's normal-form, whole-matrix ball, and
the theorem itself is checked by the module's key walk, `key_walk_probe`,
whose own tests (chunking, dropped pieces, forced collisions, memory, key
formulas) patch that module, not `words`.
"""

from __future__ import annotations

import random
import tracemalloc
from collections import Counter
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
    gram_pencil,
)
from coxcert import words
from coxcert.cli import main
from coxcert.diagram import serialize_diagram
from coxcert.errors import BallTooLarge, IndexOutOfRange, VerificationFailed
from coxcert.vinberg import reflection_actions, times_reflection

import _words_oracle as oracle
from _suite import acceptance_suite, growth_series, probe_length, random_connected_diagram, suite_thresholds
from _words_oracle import (
    _packed_integer_images,
    exact_ball,
    key_walk_probe,
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
    with pytest.raises(IndexOutOfRange):
        normal_form((1, 4), K3)
    with pytest.raises(IndexOutOfRange):
        append_letter((), 0, K3)


def test_normal_form_matches_closure_oracle_exhaustive():
    for g in (K3, P3, CC5):
        for length in range(5):
            for w in product(range(1, g.n + 1), repeat=length):
                assert normal_form(w, g) == _closure_canonical(w, g)


def test_normal_form_matches_closure_oracle_random_longer():
    rng = random.Random(11)
    star = CoxeterDiagram(4, frozenset({(1, 2), (1, 3), (1, 4)}))
    for g in (K3, P3, CC5, star):
        for _ in range(200):
            w = tuple(rng.randint(1, g.n) for _ in range(rng.randint(5, 9)))
            assert normal_form(w, g) == _closure_canonical(w, g)


@settings(max_examples=150, deadline=None)
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
    # form of length at most 5; both ball walks rest on this rule.
    for name, g in acceptance_suite():

        def descents(w):
            return {s for s in g.vertices if len(append_letter(w, s, g)) < len(w)}

        for layer in normal_form_layers(g, 4):
            for w in layer:
                desc = descents(w)
                for s in set(g.vertices) - desc:
                    expected = {s} | {y for y in desc if g.commutes(y, s)}
                    assert descents(append_letter(w, s, g)) == expected, (name, w, s)


def test_enumeration_never_cancels(monkeypatch):
    # Grown only past its descent set, a normal form always gets longer, so
    # `append_letter` never takes its cancelling, renormalising branch.
    changes = []
    real = words.append_letter

    def spy(nf, letter, g):
        grown = real(nf, letter, g)
        changes.append(len(grown) - len(nf))
        return grown

    monkeypatch.setattr(words, "append_letter", spy)
    for g in (CC5, P3, K3):
        changes.clear()
        enumerate_by_length(g, 6)
        assert changes and set(changes) == {1}, g


def test_enumeration_builds_no_word_of_the_last_length(monkeypatch):
    # The spheres of radius L - 1 and L are counted from the fanouts and the
    # two-step fanouts of length L - 2, so no normal form longer than L - 2 is
    # ever built, and none at all for L <= 2.
    lengths = []
    real = words.append_letter

    def spy(nf, letter, g):
        grown = real(nf, letter, g)
        lengths.append(len(grown))
        return grown

    monkeypatch.setattr(words, "append_letter", spy)
    for name, g in acceptance_suite():
        for max_len in (1, 2, probe_length(g.n) or 4):
            lengths.clear()
            assert enumerate_by_length(g, max_len) == growth_series(g, max_len), (name, max_len)
            assert max(lengths, default=0) == max(max_len - 2, 0), (name, max_len)


def test_cc7_counts_to_length_8():
    # The `probe` benchmark's ball; its last sphere, 424,235 of 536,131
    # elements, is the sum of the fanouts of length 7.
    expected = [1, 7, 35, 168, 805, 3857, 18480, 88543, 424235]
    assert growth_series(cycle_complement(7), 8) == expected
    assert enumerate_by_length(cycle_complement(7), 8) == expected


def test_counts_match_renormalising_walk():
    cases = [(name, g, probe_length(g.n) or 4) for name, g in acceptance_suite()]
    cases.append(("edgeless5", CoxeterDiagram(5, frozenset()), 7))
    assert ("cc7", cycle_complement(7), 6) in cases
    for name, g, max_len in cases:
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


def test_ball_cap_counts_every_element(monkeypatch):
    # The K3 ball of radius 4 has 46 elements: it fits a cap of 46, not 45.
    monkeypatch.setattr("coxcert.words.MAX_BALL_ELEMENTS", 46)
    assert sum(enumerate_by_length(K3, 4)) == 46
    assert faithfulness_probe(K3, 2, 4).total_words == 46
    monkeypatch.setattr("coxcert.words.MAX_BALL_ELEMENTS", 45)
    with pytest.raises(BallTooLarge):
        enumerate_by_length(K3, 4)
    with pytest.raises(BallTooLarge):
        faithfulness_probe(K3, 2, 4)


def test_a_radius_one_ball_is_sized_before_its_only_layer(monkeypatch):
    # At radius 1 the first layer is also the last one, built in bulk, so the
    # ball, the identity and its 3 children, is sized from the identity's
    # fanout before that layer is built.
    monkeypatch.setattr("coxcert.words.MAX_BALL_ELEMENTS", 3)
    with pytest.raises(BallTooLarge):
        faithfulness_probe(K3, 2, 1)
    monkeypatch.setattr("coxcert.words.MAX_BALL_ELEMENTS", 4)
    assert faithfulness_probe(K3, 2, 1).word_counts == (1, 3)


def test_a_radius_two_ball_is_sized_from_the_identity(monkeypatch):
    # At radius 2 both walks, the enumeration and the oracle's key walk, take
    # their last two layers straight from the identity: the ball, 1 + 3 + 6
    # elements, is sized from its masks, and neither a row nor a normal form
    # is built, under the cap or over it.
    built = []
    real_row, real_letter = oracle.reflect_row, words.append_letter
    monkeypatch.setattr(oracle, "reflect_row", lambda *a: built.append(a) or real_row(*a))
    monkeypatch.setattr(words, "append_letter", lambda *a: built.append(a) or real_letter(*a))
    monkeypatch.setattr("coxcert.words.MAX_BALL_ELEMENTS", 10)
    assert enumerate_by_length(K3, 2) == [1, 3, 6]
    assert faithfulness_probe(K3, 2, 2).word_counts == (1, 3, 6)
    assert key_walk_probe(K3, 2, 2).word_counts == (1, 3, 6)
    monkeypatch.setattr("coxcert.words.MAX_BALL_ELEMENTS", 9)
    with pytest.raises(BallTooLarge):
        enumerate_by_length(K3, 2)
    with pytest.raises(BallTooLarge):
        faithfulness_probe(K3, 2, 2)
    with pytest.raises(BallTooLarge):
        key_walk_probe(K3, 2, 2)
    assert built == []


def test_probe_builds_rows_only_for_layers_it_grows(monkeypatch):
    # The oracle's key walk builds one row per element of lengths
    # 1..max_len - 2; the last two layers get keys alone.
    g = cycle_complement(7)
    real = oracle.reflect_row
    calls = 0

    def counting(row, action):
        nonlocal calls
        calls += 1
        return real(row, action)

    monkeypatch.setattr(oracle, "reflect_row", counting)
    rep = key_walk_probe(g, 2, 6)
    assert list(rep.word_counts) == growth_series(g, 6)
    assert calls == sum(rep.word_counts[1:5])


def test_recovered_parent_chains_spell_the_ball(monkeypatch):
    # A zero start row keys every element alike, so every element but the
    # identity has its parent and letter recomputed by the key walk's
    # `_parent`.  Spelled out along those chains, each layer holds words of
    # its own length with pairwise distinct normal forms, as many as the
    # growth series says.
    recovered = {}
    real = oracle._parent

    def recording(i, *ball):
        recovered[i] = real(i, *ball)
        return recovered[i]

    monkeypatch.setattr(oracle, "_start_vector", _zeros)
    monkeypatch.setattr(oracle, "_parent", recording)
    expected = growth_series(CC5, 5)
    assert list(key_walk_probe(CC5, 2, 5).word_counts) == expected
    assert sorted(recovered) == list(range(1, sum(expected)))
    spelled = [()]
    for i in range(1, sum(expected)):
        parent, growth = recovered[i]
        spelled.append(spelled[parent] + (growth[0],))
    start = 0
    for length, count in enumerate(expected):
        forms = {normal_form(w, CC5) for w in spelled[start : start + count]}
        assert len(forms) == count and {len(f) for f in forms} == {length}, length
        start += count


def test_probe_refuses_an_over_cap_ball_before_building_its_rows(monkeypatch):
    # cc32 at D to radius 5 has more than MAX_BALL_ELEMENTS elements.  The
    # sphere sizes are counted from the descent masks before the walk starts,
    # so the refusal comes before any row is built; sized from the masks of
    # length 3 it came after 29,760 rows, and counting only the elements
    # already made, after 891,840 rows and about 1.3 GB.  The production
    # probe builds no row at all; the oracle's key walk refuses as early.
    g = cycle_complement(32)
    real = oracle.reflect_row
    calls = 0

    def counting(row, action):
        nonlocal calls
        calls += 1
        if calls > 0:
            raise AssertionError("the probe built rows for a ball it refuses")
        return real(row, action)

    monkeypatch.setattr(oracle, "reflect_row", counting)
    d = d_threshold(gram_pencil(g))[0]
    with pytest.raises(BallTooLarge, match=f"more than {words.MAX_BALL_ELEMENTS} elements"):
        faithfulness_probe(g, d, 5)
    with pytest.raises(BallTooLarge, match=f"more than {words.MAX_BALL_ELEMENTS} elements"):
        key_walk_probe(g, d, 5)


def test_enumeration_refuses_an_over_cap_ball_before_building_its_words(monkeypatch):
    # The same cc32 ball: its sphere sizes come from the descent masks alone,
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
    with pytest.raises(BallTooLarge, match=f"more than {words.MAX_BALL_ELEMENTS} elements"):
        enumerate_by_length(g, 5)


def _probe_cases():
    for name, g in acceptance_suite():
        max_len = probe_length(g.n)
        if max_len is not None:
            for t in (suite_thresholds(name, g).d_value, F(3, 2)):
                yield name, g, t, max_len
    yield "P3", P3, QuadElem(1, 1, 2), 8
    # (Z/2)^4 ends at length 4, so the last two layers, taken in bulk from
    # length max_len - 2, are: at radius 4, the last one holding the longest
    # element; at radius 5, the last non-empty one and an empty one; at radius
    # 6, both empty; radius 7 stops at the first empty layer before them.
    edgeless = CoxeterDiagram(4, frozenset())
    for max_len in (4, 5, 6, 7):
        yield "edgeless4", edgeless, F(3, 2), max_len


def _zeros(n):
    return (0,) * n


def _e1(n):
    return (1,) + (0,) * (n - 1)


def _pin_mismatches() -> list:
    """The `_probe_cases` on which the production report differs from the
    whole-matrix report of `exact_ball`."""
    mismatches = []
    for name, g, t, max_len in _probe_cases():
        expected, _ = exact_ball(g, t, max_len, oracle._start_vector(g.n), oracle._key_vector(g.n))
        if faithfulness_probe(g, t, max_len) != expected:
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

    def off_by_one(growths, max_len):
        sizes = real(growths, max_len)
        return sizes[:-1] + [sizes[-1] + 1]

    monkeypatch.setattr(words, "_sphere_sizes", off_by_one)
    assert len(_pin_mismatches()) == len(list(_probe_cases()))


def test_probe_matches_matrix_image_oracle(monkeypatch):
    # The oracle's key walk: a zero start row or key column keys every element
    # alike, and e1 keys many alike, so those runs count every image through
    # the rebuilt matrices.
    default = (oracle._start_vector, oracle._key_vector)
    vectors = (default, (_zeros, default[1]), (_e1, default[1]), (default[0], _zeros), (default[0], _e1))
    for name, g, t, max_len in _probe_cases():
        expected, _ = exact_ball(g, t, max_len, default[0](g.n), default[1](g.n))
        for start, key in vectors:
            monkeypatch.setattr(oracle, "_start_vector", start)
            monkeypatch.setattr(oracle, "_key_vector", key)
            assert key_walk_probe(g, t, max_len) == expected, (name, t, start(g.n), key(g.n))


def test_probe_keys_are_x_r_w_y_of_the_oracle_matrices(monkeypatch):
    # Every key of the ball, from a built row or from the bulk steps over the
    # last two layers (key(ws) and key(wsu) by c_s and e_su), is x * R_w * y
    # for the oracle's matrix R_w of an element of its length: layer by layer
    # the keys and those products agree as multisets.  The keys are taken
    # from the pieces each walk of the oracle's key walk streams, per length.
    walks = []
    real = oracle._key_chunks

    def capturing(*args):
        walks.append(layers := {})
        for length, piece in real(*args):
            layers.setdefault(length, []).extend(piece)
            yield length, piece

    monkeypatch.setattr(oracle, "_key_chunks", capturing)
    for name, g, t, max_len in _probe_cases():
        walks.clear()
        key_walk_probe(g, t, max_len)
        _, products = exact_ball(g, t, max_len, oracle._start_vector(g.n), oracle._key_vector(g.n))
        assert walks
        for layers in walks:
            assert set(layers) <= set(range(len(products))), (name, t, max_len)
            for length, expected in enumerate(products):
                assert Counter(layers.get(length, [])) == expected, (name, t, max_len, length)


@pytest.mark.parametrize("chunk_rows", [1, 3])
def test_probe_in_small_chunks_matches_the_oracle(monkeypatch, chunk_rows):
    # The key walk's last two layers come a few parent rows at a time; the
    # counts do not depend on the chunk size, with distinct keys or with keys
    # forced to collide.
    monkeypatch.setattr(oracle, "_CHUNK_ROWS", chunk_rows)
    default = (oracle._start_vector, oracle._key_vector)
    for name, g, t, max_len in _probe_cases():
        expected, _ = exact_ball(g, t, max_len, default[0](g.n), default[1](g.n))
        for start in (default[0], _zeros):
            monkeypatch.setattr(oracle, "_start_vector", start)
            assert key_walk_probe(g, t, max_len) == expected, (name, t, max_len, start(g.n))


def test_a_dropped_piece_of_keys_fails_the_probe(monkeypatch, tmp_path):
    # The key walk checks its keys per length against the sphere sizes, so a
    # walk that loses a piece, here its last one, cannot pass; run in place of
    # the probe, it makes the command line exit 1.
    real = oracle._key_chunks

    def dropping(*args):
        yield from list(real(*args))[:-1]

    monkeypatch.setattr(oracle, "_key_chunks", dropping)
    with pytest.raises(VerificationFailed, match="keys per length"):
        key_walk_probe(CC5, 2, 4)
    monkeypatch.setattr("coxcert.cli.faithfulness_probe", key_walk_probe)
    path = tmp_path / "cc5.diagram"
    path.write_text(serialize_diagram(CC5))
    assert main(["words", str(path), "--max-len", "4"]) == 1


def test_probe_counts_colliding_images_like_the_oracle(monkeypatch):
    # Act with the commuting reflections of the edgeless diagram, whose images
    # form (Z/2)^n: equal matrices then arise within a length and across lengths.
    def commuting_actions(g, t):
        return reflection_actions(CoxeterDiagram(g.n, frozenset()), t)

    monkeypatch.setattr(oracle, "reflection_actions", commuting_actions)
    for g in (K3, P3, CC5):
        rep = key_walk_probe(g, 2, 5)
        assert rep == matrix_image_probe(g, 2, 5)
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
    with pytest.raises(BallTooLarge):
        enumerate_by_length(free, 41)
    with pytest.raises(BallTooLarge):
        faithfulness_probe(free, 2, 41)


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
    # The production report takes the theorem for granted, and the oracle's
    # key walk, counting distinct keys and matrices, checks it.
    g = random_connected_diagram(random.Random(seed), n)
    rep = faithfulness_probe(g, t, max_len)
    assert rep.injective
    assert list(rep.word_counts) == growth_series(g, max_len)
    assert key_walk_probe(g, t, max_len) == rep


def test_probe_memory_stays_below_the_row_keyed_table():
    # tracemalloc peak of the same key walk when every element kept its row in
    # the ball-wide table: 44,659,891 bytes (Python 3.11); keyed by one scalar
    # it was about 21.1 MB with a parent and a letter per element, 13.5 MB with
    # one list of keys, and is about 11.3 MB with the keys streamed into one
    # set, so the bound is 60 % of the row-keyed peak.
    g = cycle_complement(7)
    tracemalloc.start()
    try:
        rep = key_walk_probe(g, 2, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.injective and rep.total_words == sum(growth_series(g, 7))
    assert peak < 0.6 * 44_659_891, peak


def test_probe_memory_streams_the_keys_into_one_set():
    # tracemalloc peak of the same key walk with every key in one list beside
    # the set and one q-list per row of length 6: 59,079,472 bytes (Python
    # 3.11); with the keys streamed into the set in chunks it is about 43.4 MB.
    g = cycle_complement(7)
    tracemalloc.start()
    try:
        rep = key_walk_probe(g, 2, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.injective and rep.total_words == 536_131
    assert peak < 0.8 * 59_079_472, peak


def test_probe_memory_holds_nothing_of_the_ball():
    # The production probe counts descent masks only: its tracemalloc peak on
    # the 536,131-element ball is about 5 KB, where the key walk's is 43.4 MB.
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
