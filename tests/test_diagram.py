"""Diagram parsing, adjacency/commutation convention, cycle complements."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxcert import CoxeterDiagram, cycle_complement, is_connected, parse_diagram, serialize_diagram
from coxcert.errors import (
    DiagramSyntaxError,
    DuplicateEdge,
    IndexOutOfRange,
    InputError,
    NTooSmall,
    TooFewVertices,
    TooManyVertices,
)


def test_parse_basic():
    g = parse_diagram("# triangle\nn 3\nedge 1 2\nedge 1 3\nedge 2 3\n")
    assert g.n == 3
    assert g.sorted_edges() == [(1, 2), (1, 3), (2, 3)]


def test_parse_accepts_bytes_and_blank_lines():
    g = parse_diagram(b"\nn 4\n\nedge 1 4\n# comment\nedge 2 3\n")
    assert g.n == 4
    assert g.sorted_edges() == [(1, 4), (2, 3)]


def test_parse_refuses_undecodable_bytes():
    with pytest.raises(InputError, match="not UTF-8 text"):
        parse_diagram(b"\xff")


_VALID_TEXTS = [
    b"# triangle\nn 3\nedge 1 2\nedge 1 3\nedge 2 3\n",
    b"\nn 4\n\nedge 1 4\n# comment\nedge 2 3\n",
    serialize_diagram(cycle_complement(7)).encode(),
]


@st.composite
def mutated_texts(draw):
    """A valid diagram text with a few bytes replaced, inserted or deleted."""
    data = bytearray(draw(st.sampled_from(_VALID_TEXTS)))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        pos = draw(st.integers(min_value=0, max_value=len(data)))
        chunk = draw(st.binary(min_size=1, max_size=4))
        kind = draw(st.sampled_from(("replace", "insert", "delete")))
        if kind == "insert":
            data[pos:pos] = chunk
        elif kind == "delete":
            del data[pos : pos + len(chunk)]
        else:
            data[pos : pos + len(chunk)] = chunk
    return bytes(data)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.one_of(st.binary(max_size=64), mutated_texts()))
def test_parse_returns_a_diagram_or_raises_input_error(data):
    for text in (data, data.decode("utf-8", errors="replace")):
        try:
            g = parse_diagram(text)
        except InputError:
            continue
        assert isinstance(g, CoxeterDiagram)


def test_commutes_is_inverse_of_adjacent():
    g = parse_diagram("n 3\nedge 1 2\nedge 2 3\n")
    assert g.adjacent(1, 2) and not g.commutes(1, 2)
    assert not g.adjacent(1, 3) and g.commutes(1, 3)
    assert not g.commutes(2, 2)  # a generator never commutes freely with itself


def test_neighbors_and_degree():
    g = parse_diagram("n 4\nedge 1 2\nedge 1 3\nedge 1 4\n")
    assert g.neighbors(1) == (2, 3, 4)
    assert g.neighbors(2) == (1,)


def test_parse_errors():
    with pytest.raises(DiagramSyntaxError):
        parse_diagram("edge 1 2\n")  # n must come first
    with pytest.raises(DiagramSyntaxError):
        parse_diagram("n 3\nedge 2 1\n")  # order i < j enforced
    with pytest.raises(DiagramSyntaxError):
        parse_diagram("n 3\nedge 1 1\n")
    with pytest.raises(DiagramSyntaxError):
        parse_diagram("n 3\nvertex 1\n")
    with pytest.raises(IndexOutOfRange):
        parse_diagram("n 3\nedge 1 4\n")
    with pytest.raises(DuplicateEdge):
        parse_diagram("n 3\nedge 1 2\nedge 1 2\n")
    with pytest.raises(TooFewVertices):
        parse_diagram("n 2\n")
    with pytest.raises(TooManyVertices):
        parse_diagram("n 33\n")
    assert parse_diagram("n 32\n").n == 32


def test_parse_cuts_each_line_at_its_comment():
    g = parse_diagram("n 3  # a path\nedge 1 2  # note\nedge 2 3#x\n  # indented\n")
    assert g.n == 3
    assert g.sorted_edges() == [(1, 2), (2, 3)]


@pytest.mark.parametrize(
    "text",
    [
        "n 1_0\n",  # int() reads the underscore as a digit separator
        "n \uff13\n",  # fullwidth 3
        "n 3\nedge 1 \u0662\n",  # Arabic-Indic 2
        "n +3\n",
        "n 3\nedge 1 +2\n",
        "n " + "1" * 5000 + "\n",  # more digits than int() reads
        "n 3\nedge 1 " + "2" * 5000 + "\n",
    ],
)
def test_integers_are_ascii_digits_only(text):
    with pytest.raises(DiagramSyntaxError):
        parse_diagram(text)


def test_syntax_error_reports_line_number():
    with pytest.raises(DiagramSyntaxError) as exc:
        parse_diagram("n 3\nedge 1 2\nedge 3 2\n")
    assert "line 3" in str(exc.value)


def test_serialize_round_trip():
    g = parse_diagram("n 5\nedge 2 5\nedge 1 3\n")
    text = serialize_diagram(g)
    assert parse_diagram(text) == g
    assert text == "n 5\nedge 1 3\nedge 2 5\n"


def test_is_connected():
    assert is_connected(parse_diagram("n 3\nedge 1 2\nedge 2 3\n"))
    assert not is_connected(parse_diagram("n 4\nedge 1 2\nedge 3 4\n"))
    assert not is_connected(parse_diagram("n 3\nedge 1 2\n"))


def test_cycle_complement_five_pinned():
    g = cycle_complement(5)
    assert g.n == 5
    assert g.sorted_edges() == [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)]


def test_cycle_complement_edge_count():
    # all pairs minus the n consecutive pairs
    for n in range(5, 10):
        g = cycle_complement(n)
        assert len(g.edges) == n * (n - 1) // 2 - n
        for i in range(1, n):
            assert g.commutes(i, i + 1)
        assert g.commutes(1, n)
        assert is_connected(g)


def test_cycle_complement_rejects_small_n():
    with pytest.raises(NTooSmall):
        cycle_complement(4)


def test_diagram_constructor_normalizes_and_validates():
    g = CoxeterDiagram(3, frozenset({(2, 1)}))
    assert g.sorted_edges() == [(1, 2)]
    with pytest.raises(IndexOutOfRange):
        CoxeterDiagram(3, frozenset({(1, 5)}))
    with pytest.raises(TooFewVertices):
        CoxeterDiagram(2, frozenset())
