"""Helpers and plain-enumeration oracles that more than one test file uses.

Each is written once, here; tests/test_tooling.py fails when a test file
defines one of these names again.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import networkx as nx
from hypothesis import strategies as st

from chipwidth.graphs import Graph, bits_list


def mask(*vs: int) -> int:
    out = 0
    for v in vs:
        out |= 1 << v
    return out


def complete_graph(k: int) -> Graph:
    return Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


@st.composite
def connected_graphs(draw, min_n: int = 1, max_n: int = 8) -> Graph:
    n = draw(st.integers(min_n, max_n))
    # a random spanning tree keeps the graph connected; extra edges on top
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = list(combinations(range(n), 2))
    edges += draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)


def hitting_set_oracle(elements: tuple[int, ...], n: int) -> tuple[int, int]:
    """Smallest hitting set by plain subset enumeration: its size and the
    lexicographically least one (combinations come in that order)."""
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            s = mask(*combo)
            if all(s & e for e in elements):
                return size, s
    raise AssertionError("unhittable family")


def treewidth_oracle(g: Graph) -> int:
    """Treewidth by the elimination recurrence over every vertex subset:
    TW(S) = min over v in S of max(TW(S - v), |Q(S - v, v)|), where Q(S, v)
    holds the vertices outside S + v that v reaches through S."""

    def q_size(s: int, v: int) -> int:
        comp, frontier = 1 << v, 1 << v
        while frontier:
            reach = g.neighborhood(frontier) & ~comp
            comp |= reach
            frontier = reach & s
        return (comp & ~s).bit_count() - 1

    @lru_cache(maxsize=None)
    def tw(s: int) -> int:
        if s == 0:
            return -1
        return min(max(tw(s & ~(1 << v)), q_size(s & ~(1 << v), v))
                   for v in bits_list(s))

    return tw(g.full_mask)
