"""The in-repo digraph enumerates exactly as networkx does.

``repro.sfg.digraph`` replaced networkx under the signal flow graph;
these properties compare the two on random graphs (self-loops included):
the SCC yield order, the condensed topological order, and the set of
elementary cycles.  networkx is not a dependency, so the module skips
where it is not installed; ``test_sfg_order.py`` pins the orders of the
bundled designs without it.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sfg.digraph import (DiGraph, condensed_components, simple_cycles,
                               strongly_connected_components)

nx = pytest.importorskip("networkx")

MAX_NODES = 9


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=0, max_value=MAX_NODES))
    if n == 0:
        return 0, []
    node = st.integers(min_value=0, max_value=n - 1)
    return n, draw(st.lists(st.tuples(node, node), max_size=3 * n))


def _both(n, edges):
    """The same graph built in the same insertion order, twice."""
    ours = DiGraph()
    theirs = nx.DiGraph()
    for v in range(n):
        ours.add_node(v)
        theirs.add_node(v)
    for u, v in edges:
        ours.add_edge(u, v)
        theirs.add_edge(u, v)
    return ours, theirs


def _rotated(cycle):
    i = cycle.index(min(cycle))
    return tuple(cycle[i:] + cycle[:i])


def _assert_same(n, edges):
    ours, theirs = _both(n, edges)
    assert ours.number_of_edges() == theirs.number_of_edges()
    assert ([frozenset(c) for c in strongly_connected_components(ours)]
            == [frozenset(c)
                for c in nx.strongly_connected_components(theirs)])
    cond = nx.condensation(theirs)
    assert ([frozenset(c) for c in condensed_components(ours)]
            == [frozenset(cond.nodes[c]["members"])
                for c in nx.topological_sort(cond)])
    assert (sorted(_rotated(c) for c in simple_cycles(ours))
            == sorted(_rotated(c) for c in nx.simple_cycles(theirs)))


@given(edge_lists())
@settings(max_examples=300, deadline=None)
def test_matches_networkx(graph):
    _assert_same(*graph)


def test_matches_networkx_on_seeded_graphs():
    rng = random.Random(2024)
    for _ in range(500):
        n = rng.randint(1, MAX_NODES)
        edges = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(rng.randint(0, 3 * n))]
        _assert_same(n, edges)


def test_repeated_edge_keeps_first_position():
    g = DiGraph()
    for u, v in [(0, 1), (0, 2), (0, 1)]:
        g.add_edge(u, v)
    assert list(g.succ[0]) == [1, 2]
    assert g.number_of_edges() == 2
