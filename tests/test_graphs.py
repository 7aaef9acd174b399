"""Graph core: family generators, automorphisms, .gr format."""

from __future__ import annotations

import itertools
import json
import random
import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipwidth.cli import main
from chipwidth.graphs import (
    FamilyMeta,
    FormatError,
    Graph,
    GraphError,
    InvalidFamilyError,
    MAX_GROUP_ORDER,
    automorphism_group,
    bits_list,
    family_graphs,
    grid_lines,
    make_family,
    read_gr,
    write_gr,
)
from chipwidth.graphs import _family_edges
from chipwidth.treewidth import exact_treewidth


def prism(m: int, n: int) -> Graph:
    return make_family("stacked_prism", m, n)


def torus(m: int, n: int) -> Graph:
    return make_family("toroidal_grid", m, n)


def grid(m: int, n: int) -> Graph:
    return make_family("grid", m, n)


# --- family generators ----------------------------------------------------------


def test_elementary_counts():
    # a path is the one-column grid G(k,1) and a cycle the prism Y(k,1)
    p = grid(5, 1)
    assert p.n == 5 and p.edges == ((0, 1), (1, 2), (2, 3), (3, 4))
    c = prism(6, 1)
    assert c.n == 6 and len(c.edges) == 6
    assert all(c.degree(v) == 2 for v in range(6))
    assert c.family == FamilyMeta("stacked_prism", 6, 1)
    assert grid(1, 1).n == 1 and not grid(1, 1).edges


def test_grid_2x3_frozen_edges():
    g = grid(2, 3)
    assert g.n == 6
    assert set(g.edges) == {(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)}
    assert g.family == FamilyMeta("grid", 2, 3)


def test_family_edge_counts():
    # grid m(n-1) + n(m-1); prism mn + m(n-1); torus 2mn
    assert len(grid(3, 4).edges) == 3 * 3 + 4 * 2
    assert len(prism(5, 3).edges) == 25
    assert len(torus(4, 3).edges) == 24
    assert prism(5, 3).n == 15


def test_family_degree_profiles():
    t = torus(4, 3)
    assert all(t.degree(v) == 4 for v in range(t.n))
    y = prism(5, 3)
    ends = [d for d in (y.degree(v) for v in range(y.n)) if d == 3]
    assert len(ends) == 2 * 5  # first and last column
    g = grid(3, 3)
    assert sorted(g.degree(v) for v in range(9)).count(2) == 4  # corners


def test_elementary_rejects_bad_sizes():
    # a cycle Y(k,1) needs 3 vertices, a path G(k,1) 1, and neither is a kind
    for kind, m in (("stacked_prism", 2), ("grid", 0)):
        with pytest.raises(InvalidFamilyError, match="needs m >= "):
            make_family(kind, m, 1)
    for kind in ("path", "cycle", "clique"):
        with pytest.raises(InvalidFamilyError, match="unknown family kind"):
            make_family(kind, 4, 1)


def test_family_rejects_bad_sizes():
    for kind, m, n in (("stacked_prism", 2, 3), ("toroidal_grid", 3, 2), ("grid", 0, 3),
                       ("grid", 3, 0)):
        with pytest.raises(InvalidFamilyError, match="needs m >= "):
            make_family(kind, m, n)
    with pytest.raises(InvalidFamilyError, match="unknown family kind"):
        make_family("moebius", 3, 3)


def test_product_matches_family_generators():
    # the family formulas against networkx's product of their factors, with
    # (a, b) at a*n + b, for every grid, prism and torus of at most 20
    # vertices, which family_graphs enumerates once each
    factors = {"grid": (nx.path_graph, nx.path_graph),
               "stacked_prism": (nx.cycle_graph, nx.path_graph),
               "toroidal_grid": (nx.cycle_graph, nx.cycle_graph)}
    fams = []
    for kind, (first, second) in factors.items():
        for m in range(3 if first is nx.cycle_graph else 1, 21):
            for n in range(3 if second is nx.cycle_graph else 1, 20 // m + 1):
                product = nx.cartesian_product(first(m), second(n))
                want = {tuple(sorted((a * n + b, c * n + d))) for (a, b), (c, d) in product.edges}
                fam = FamilyMeta(kind, m, n)
                assert set(_family_edges(fam)) == want, fam
                assert set(make_family(kind, m, n).edges) == want
                fams.append(fam)
    assert len(fams) == 66 + 36 + 10
    swept = [g.family for g in family_graphs(20)]
    assert len(swept) == len(fams) and set(swept) == set(fams)


def test_graph_refuses_family_metadata_that_does_not_fit():
    t = torus(4, 3)
    perm = list(range(1, 12)) + [0]
    with pytest.raises(InvalidFamilyError, match="not those of toroidal_grid 4 3"):
        Graph(12, t.relabeled(perm).edges, t.family)
    c5 = prism(5, 1)
    with pytest.raises(InvalidFamilyError, match="not those of grid 5 1"):
        Graph(5, c5.edges, FamilyMeta("grid", 5, 1))
    # the label that fits is kept
    assert Graph(5, c5.edges, FamilyMeta("stacked_prism", 5, 1)).family == c5.family
    # a path or a cycle is no kind of its own
    for kind in ("path", "cycle"):
        with pytest.raises(InvalidFamilyError, match="unknown family kind"):
            FamilyMeta(kind, 5, 1)


def test_graph_constructor_rejects_loops():
    with pytest.raises(GraphError):
        Graph(3, [(0, 0), (0, 1), (1, 2)])
    # and the other graphs it cannot build
    with pytest.raises(GraphError, match="at least one vertex"):
        Graph(0, [])
    with pytest.raises(GraphError, match="out of range"):
        Graph(2, [(0, 2)])
    with pytest.raises(GraphError, match="permutation"):
        Graph(3, [(0, 1), (1, 2)]).relabeled([0, 0, 1])


def test_graph_dedups_parallel_edges():
    g = Graph(3, [(0, 1), (1, 0), (1, 2)])
    assert len(g.edges) == 2


# --- rows, columns, neighborhoods ---------------------------------------------


def test_grid_lines_prism():
    rows, cols = grid_lines(prism(5, 3))
    assert len(rows) == 5 and len(cols) == 3
    assert bits_list(cols[1]) == [i * 3 + 1 for i in range(5)]
    assert bits_list(rows[2]) == [6, 7, 8]
    # a column cut by a crossing row loses exactly their common vertex
    assert bits_list(cols[1] & ~rows[2]) == [1, 4, 10, 13]


def test_grid_lines_torus_and_grid():
    rows, cols = grid_lines(torus(4, 3))
    assert len(bits_list(cols[0])) == 4
    assert all(r & c and (r & c).bit_count() == 1 for r in rows for c in cols)
    assert bits_list(grid_lines(grid(3, 4))[0][0]) == [0, 1, 2, 3]
    # rows and columns each partition the vertices
    full = torus(4, 3).full_mask
    assert sum(rows) == sum(cols) == full


def test_grid_lines_errors():
    # a path is the one-column grid; an unlabelled graph has no lines
    rows, cols = grid_lines(grid(4, 1))
    assert rows == [1, 2, 4, 8] and cols == [15]
    with pytest.raises(InvalidFamilyError):
        grid_lines(Graph(4, [(0, 1), (1, 2), (2, 3)]))
    with pytest.raises(InvalidFamilyError):
        grid_lines(prism(5, 3).relabeled(list(range(15))))


def test_neighborhood_and_connectivity():
    c = prism(5, 1)
    assert sorted(bits_list(c.neighborhood(1 << 0))) == [1, 4]
    assert c.is_connected()
    assert c.adj[0] >> 4 & 1 and not c.adj[0] >> 2 & 1


# --- automorphisms ----------------------------------------------------------------


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def assert_group_is_aut(g: Graph) -> list[list[int]]:
    # every listed permutation keeps the edges, the list is a group with the
    # identity first, and its order is networkx's count (identity past the cap)
    group = automorphism_group(g)
    assert group[0] == list(range(g.n))
    elements = {tuple(p) for p in group}
    assert len(elements) == len(group)
    for p in group:
        assert sorted(p) == list(range(g.n))
        assert {tuple(sorted((p[u], p[v]))) for u, v in g.edges} == set(g.edges)
        assert all(tuple(p[x] for x in q) in elements for q in group)
    matcher = nx.algorithms.isomorphism.GraphMatcher(to_networkx(g), to_networkx(g))
    count = sum(1 for _ in itertools.islice(matcher.isomorphisms_iter(), MAX_GROUP_ORDER + 1))
    assert len(group) == (count if count <= MAX_GROUP_ORDER else 1)
    return group


@st.composite
def connected_graphs(draw) -> Graph:
    n = draw(st.integers(1, 8))
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = list(itertools.combinations(range(n), 2))
    edges += draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(connected_graphs())
def test_automorphism_group_matches_networkx(g):
    assert_group_is_aut(g)


def test_automorphism_group_of_family_graphs():
    rng = random.Random(13)
    for g in family_graphs(20):
        group = assert_group_is_aut(g)
        # a relabelled copy has the conjugate group
        perm = list(range(g.n))
        rng.shuffle(perm)
        back = sorted(range(g.n), key=perm.__getitem__)
        conjugate = {tuple(perm[p[back[x]]] for x in range(g.n)) for p in group}
        moved = automorphism_group(g.relabeled(perm))
        assert {tuple(p) for p in moved} == conjugate
        assert moved[0] == list(range(g.n))


def test_automorphism_group_orders():
    # the transpose of a square grid, the cube Q3 = Y4,2, K3 x K3 = T3,3,
    # Q4 = T4,4, D5 x D5 with the transpose on T5,5, D8 x Z2 on Y8,4, the
    # 6! of K_{1,6}, under the cap, and the 4 of G40,30, whose 1,200 vertices
    # the backtracking must not take one stack frame each
    star6 = Graph(7, [(0, v) for v in range(1, 7)])
    for g, order in ((grid(5, 5), 8), (prism(4, 2), 48), (torus(3, 3), 72),
                     (torus(4, 4), 384), (torus(5, 5), 200), (prism(8, 4), 32),
                     (star6, 720), (grid(40, 30), 4)):
        assert len(automorphism_group(g)) == order, g


def test_automorphism_group_cap():
    # K_{1,12} has 12! automorphisms; the chain knows the order before it
    # builds an element and returns the identity alone
    star = Graph(13, [(0, v) for v in range(1, 13)])
    t0 = time.perf_counter()
    assert automorphism_group(star) == [list(range(13))]
    assert time.perf_counter() - t0 < 1.0
    assert exact_treewidth(star).group_order == 1


# --- .gr format -----------------------------------------------------------------


def test_gr_round_trip_byte_identical():
    for g in (grid(3, 3), prism(5, 3), torus(4, 3), grid(5, 1)):
        text = write_gr(g)
        again = write_gr(read_gr(text))
        assert text == again


def test_gr_preserves_family_metadata():
    g = read_gr(write_gr(prism(6, 3)))
    assert g.family == FamilyMeta("stacked_prism", 6, 3)
    bare = read_gr("p tw 3 2\n1 2\n2 3\n")
    assert bare.family is None and bare.n == 3


def _random_connected(rng: random.Random, n: int, p: float) -> Graph:
    while True:
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        if g.is_connected():
            return g


def test_gr_drops_family_comment_that_does_not_match_edges(tmp_path, capsys):
    # a T4,3 comment on another 12-vertex graph must not label it: the
    # claims table, the brambles and the stock divisors all trust the label
    rng = random.Random(0)
    graphs = [_random_connected(rng, 12, 0.3) for _ in range(300)]
    for g in graphs:
        lying = read_gr("c family toroidal_grid 4 3\n" + write_gr(g))
        assert lying.family is None
        assert exact_treewidth(lying).treewidth == exact_treewidth(g).treewidth
    path = tmp_path / "lying.gr"
    path.write_text("c family toroidal_grid 4 3\n" + write_gr(graphs[0]))
    assert main(["tw", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["claim"]["graph"] == "graph(12v)"
    # relabelled family graphs keep their shape but not their metadata
    t = torus(4, 3)
    relabelled = t.relabeled(list(range(1, 12)) + [0])
    assert read_gr("c family toroidal_grid 4 3\n" + write_gr(relabelled)).family is None
    assert read_gr(write_gr(t)).family == FamilyMeta("toroidal_grid", 4, 3)
    assert read_gr("c family cycle 5 1\np tw 5 4\n1 2\n2 3\n3 4\n4 5\n").family is None
    # there is no product kind, so its comment is ignored
    path12 = Graph(12, [(v, v + 1) for v in range(11)])
    assert read_gr("c family product 3 4\n" + write_gr(path12)).family is None


def test_gr_rejections():
    with pytest.raises(FormatError):
        read_gr("p tw 3 5\n1 2\n2 3\n")  # wrong edge count
    with pytest.raises(FormatError):
        read_gr("p tw 3 2\n0 1\n1 2\n")  # vertex id 0
    with pytest.raises(FormatError):
        read_gr("p tw 3 2\n1 4\n1 2\n")  # vertex out of range
    with pytest.raises(FormatError):
        read_gr("p tw 3 2\n2 2\n1 2\n")  # loop
    with pytest.raises(FormatError):
        read_gr("p tw 3 2\n1 2\n1 2\n")  # parallel edge
    with pytest.raises(FormatError, match="needs at least 3 edges"):
        read_gr("p tw 4 2\n1 2\n3 4\n")  # too few edges to be connected
    with pytest.raises(FormatError, match="not connected"):
        read_gr("p tw 4 3\n1 2\n2 3\n1 3\n")  # a triangle and a lone vertex
    with pytest.raises(FormatError, match="line 1: edge before problem line"):
        read_gr("1 2\n2 3\n")
    with pytest.raises(FormatError, match="missing problem line"):
        read_gr("c no graph here\n")
    with pytest.raises(FormatError, match="line 2: repeated problem line"):
        read_gr("p tw 2 1\np tw 2 1\n1 2\n")
    with pytest.raises(FormatError, match="line 1: expected 'p tw <n> <m>'"):
        read_gr("p td 2 1\n1 2\n")
    with pytest.raises(FormatError, match="at least one vertex"):
        read_gr("p tw 0 0\n")
    with pytest.raises(FormatError, match="line 2: expected 'u v'"):
        read_gr("p tw 3 2\n1 2 3\n2 3\n")
    with pytest.raises(FormatError, match="line 3"):
        read_gr("p tw 3 2\n\n1 x\n2 3\n")  # a blank line counts
    with pytest.raises(FormatError, match="line 1"):
        read_gr("p tw 3 x\n")  # edge count not a number
    with pytest.raises(FormatError, match="line 2"):
        read_gr("p tw 3 2\n1 a\n2 3\n")  # vertex not a number
    # a number is an optional minus sign and ASCII digits, not all that int() takes
    with pytest.raises(FormatError, match="line 1"):
        read_gr("p tw 1_0 9\n" + "".join(f"{v} {v + 1}\n" for v in range(1, 10)))
    with pytest.raises(FormatError, match="line 2"):
        read_gr("p tw 3 2\n1 +2\n2 3\n")
    with pytest.raises(FormatError, match="line 2"):
        read_gr("p tw 3 2\n1 \u0663\n2 3\n")  # ARABIC-INDIC DIGIT THREE
    # a family comment with such a number is ignored, as a non-integer one is
    path = "p tw 10 9\n" + "".join(f"{v} {v + 1}\n" for v in range(1, 10))
    assert read_gr("c family grid 1_0 1\n" + path).family is None
    assert read_gr("c family grid 10 1\n" + path).family == FamilyMeta("grid", 10, 1)
    # a path is labelled as the grid G10,1: a path comment names no kind
    assert read_gr("c family path 10 1\n" + path).family is None


def test_gr_header_too_few_edges_fails_at_once():
    # a header with fewer than n - 1 edges is refused before its vertex
    # count sizes anything (10**7 vertices took 169 MB when it was not)
    t0 = time.perf_counter()
    with pytest.raises(FormatError, match="line 1: a connected graph on 10000000 vertices"):
        read_gr("p tw 10000000 0\n")
    with pytest.raises(FormatError, match="line 2"):
        read_gr("c a comment\np tw 10000000 9999997\n1 2\n")
    assert time.perf_counter() - t0 < 0.1
    assert read_gr("p tw 1 0\n").n == 1
