"""Property tests for the graph parsers: any text parses or raises ValueError."""

import os

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from zfforge.cli import load_graph
from zfforge.graphs import (ORDER_CAP, Graph, emit_graph6, from_edges, named_graphs,
                            parse_edgelist, parse_graph6)

# graph6 bytes are chr(63)..chr(126), and the header byte "~" selects the
# long size form; the range reaches a little past both ends
graph6_like = st.text(st.characters(min_codepoint=58, max_codepoint=130), max_size=40)
number = st.one_of(st.integers(-3, 80), st.integers(),
                   st.from_regex(r"-?[0-9]{1,25}", fullmatch=True))
edge_line = st.one_of(st.tuples(number, number).map(lambda p: f"{p[0]} {p[1]}"),
                      st.text(max_size=12))
edgelist_like = st.lists(edge_line, max_size=8).map("\n".join)
named_like = st.tuples(st.sampled_from(named_graphs()),
                       st.lists(number, max_size=4)).map(
    lambda t: t[0] + ":" + ",".join(str(p) for p in t[1]))


def _parses_or_value_error(parse, text):
    try:
        g = parse(text)
    except ValueError:
        return
    assert isinstance(g, Graph) and 0 <= g.n <= ORDER_CAP


@settings(max_examples=150)
@given(st.one_of(st.text(), graph6_like))
def test_parse_graph6_parses_or_raises_value_error(text):
    _parses_or_value_error(parse_graph6, text)


@settings(max_examples=150)
@given(st.one_of(st.text(), edgelist_like))
def test_parse_edgelist_parses_or_raises_value_error(text):
    _parses_or_value_error(parse_edgelist, text)


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.text(), graph6_like, named_like))
def test_load_graph_parses_or_raises_value_error(tmp_path, monkeypatch, text):
    # an existing path is read as a file; that branch is tested in test_cli
    monkeypatch.chdir(tmp_path)
    try:
        exists = os.path.exists(text)
    except ValueError:
        exists = False
    assume(not exists)
    _parses_or_value_error(load_graph, text)


@st.composite
def graphs(draw):
    n = draw(st.integers(0, ORDER_CAP))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.integers(0, (1 << len(pairs)) - 1))
    return from_edges(n, [p for k, p in enumerate(pairs) if chosen >> k & 1])


@settings(max_examples=100)
@given(graphs())
def test_graph6_roundtrip(g):
    assert parse_graph6(emit_graph6(g)) == g
