"""Graph core: family generators, products, isomorphism, .gr format."""

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
    are_isomorphic,
    automorphism_group,
    bits_list,
    cartesian_product,
    family_graphs,
    line_vertices,
    make_elementary,
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


# --- elementary and family generators ----------------------------------------


def test_elementary_counts():
    p = make_elementary("path", 5)
    assert p.n == 5 and len(p.edges) == 4
    c = make_elementary("cycle", 6)
    assert c.n == 6 and len(c.edges) == 6
    assert all(c.degree(v) == 2 for v in range(6))
    assert make_elementary("path", 1).n == 1


def test_elementary_rejects_bad_sizes():
    with pytest.raises(InvalidFamilyError):
        make_elementary("cycle", 2)
    with pytest.raises(InvalidFamilyError):
        make_elementary("path", 0)
    with pytest.raises(InvalidFamilyError):
        make_elementary("clique", 4)


def test_grid_2x3_frozen_edges():
    g = grid(2, 3)
    assert g.n == 6
    assert g.edge_set == {(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)}
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


def test_family_rejects_bad_sizes():
    with pytest.raises(InvalidFamilyError):
        prism(2, 3)
    with pytest.raises(InvalidFamilyError):
        torus(3, 2)
    with pytest.raises(InvalidFamilyError):
        grid(0, 3)
    with pytest.raises(InvalidFamilyError):
        make_family("moebius", 3, 3)


def test_product_matches_family_generators():
    # the family formulas against the product of their factors, for every
    # grid, prism and torus of at most 20 vertices, which family_graphs
    # enumerates once each
    factors = {"grid": ("path", "path"), "stacked_prism": ("cycle", "path"),
               "toroidal_grid": ("cycle", "cycle")}
    fams = []
    for kind, (first, second) in factors.items():
        for m in range(3 if first == "cycle" else 1, 21):
            for n in range(3 if second == "cycle" else 1, 20 // m + 1):
                cp = cartesian_product(make_elementary(first, m), make_elementary(second, n))
                assert cp.family is None
                fam = FamilyMeta(kind, m, n)
                assert set(_family_edges(fam)) == cp.edge_set, fam
                assert make_family(kind, m, n).edge_set == cp.edge_set
                fams.append(fam)
    assert len(fams) == 66 + 36 + 10
    swept = [g.family for g in family_graphs(20)]
    assert len(swept) == len(fams) and set(swept) == set(fams)


def test_graph_refuses_family_metadata_that_does_not_fit():
    t = torus(4, 3)
    perm = list(range(1, 12)) + [0]
    with pytest.raises(InvalidFamilyError, match="not those of toroidal_grid 4 3"):
        Graph(12, t.relabeled(perm).edges, t.family)
    c5 = make_elementary("cycle", 5)
    with pytest.raises(InvalidFamilyError, match="not those of path 5 1"):
        Graph(5, c5.edges, FamilyMeta("path", 5, 1))
    # the label that fits is kept
    assert Graph(5, c5.edges, FamilyMeta("cycle", 5, 1)).family == c5.family


def test_graph_constructor_rejects_loops():
    with pytest.raises(GraphError):
        Graph(3, [(0, 0), (0, 1), (1, 2)])


def test_graph_dedups_parallel_edges():
    g = Graph(3, [(0, 1), (1, 0), (1, 2)])
    assert len(g.edges) == 2


# --- rows, columns, neighborhoods ---------------------------------------------


def test_line_vertices_prism():
    y = prism(5, 3)
    col = bits_list(line_vertices(y, "column", 1))
    assert col == [i * 3 + 1 for i in range(5)]
    row = bits_list(line_vertices(y, "row", 2))
    assert row == [6, 7, 8]


def test_line_vertices_torus_and_grid():
    t = torus(4, 3)
    assert len(bits_list(line_vertices(t, "column", 0))) == 4
    g = grid(3, 4)
    assert bits_list(line_vertices(g, "row", 0)) == [0, 1, 2, 3]


def test_line_vertices_errors():
    y = prism(5, 3)
    with pytest.raises(InvalidFamilyError):
        line_vertices(y, "column", 3)
    with pytest.raises(InvalidFamilyError):
        line_vertices(y, "diagonal", 0)
    with pytest.raises(InvalidFamilyError):
        line_vertices(make_elementary("path", 4), "row", 0)


def test_neighborhood_and_connectivity():
    c = make_elementary("cycle", 5)
    assert sorted(bits_list(c.neighborhood(1 << 0))) == [1, 4]
    assert c.is_connected()
    assert c.has_edge(0, 4) and not c.has_edge(0, 2)


# --- isomorphism ---------------------------------------------------------------


def test_isomorphic_under_relabeling():
    rng = random.Random(7)
    for g in (grid(3, 4), prism(4, 2), torus(4, 3)):
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert are_isomorphic(g, g.relabeled(perm))


def test_grid_transpose_isomorphic():
    assert are_isomorphic(grid(3, 4), grid(4, 3))


def test_non_isomorphic_same_degree_sequence():
    # triangular prism vs K_3,3 minus nothing: both 3-regular on 6 vertices
    k33 = Graph(6, [(i, 3 + j) for i in range(3) for j in range(3)])
    assert not are_isomorphic(prism(3, 2), k33)
    assert not are_isomorphic(make_elementary("path", 5), make_elementary("cycle", 5))


@st.composite
def graph_pairs(draw) -> tuple[Graph, Graph]:
    # same vertex and edge counts, so the cheap count checks rarely decide;
    # h is a relabelled g, a relabelled g with one edge moved, or a fresh graph
    n = draw(st.integers(1, 8))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [p for p, k in zip(pairs, keep) if k]
    g = Graph(n, edges)
    how = draw(st.sampled_from(["relabel", "move", "fresh"]))
    h_edges = list(edges)
    if how == "move" and 0 < len(edges) < len(pairs):
        h_edges.remove(draw(st.sampled_from(edges)))
        h_edges.append(draw(st.sampled_from([p for p in pairs if p not in edges])))
    elif how == "fresh" and pairs:
        h_edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                                min_size=len(edges), max_size=len(edges)))
    return g, Graph(n, h_edges).relabeled(draw(st.permutations(range(n))))


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


@settings(max_examples=400, deadline=None, derandomize=True)
@given(graph_pairs())
def test_isomorphism_matches_networkx(pair):
    g, h = pair
    ok, mapping = are_isomorphic(g, h, return_mapping=True)
    assert ok == nx.is_isomorphic(to_networkx(g), to_networkx(h))
    if ok:
        assert sorted(mapping) == list(range(g.n))
        assert sorted(tuple(sorted((mapping[u], mapping[v]))) for u, v in g.edges) \
            == sorted(h.edges)


# --- automorphisms ----------------------------------------------------------------


def assert_group_is_aut(g: Graph) -> list[list[int]]:
    # every listed permutation keeps the edges, the list is a group with the
    # identity first, and its order is networkx's count (identity past the cap)
    group = automorphism_group(g)
    assert group[0] == list(range(g.n))
    elements = {tuple(p) for p in group}
    assert len(elements) == len(group)
    for p in group:
        assert sorted(p) == list(range(g.n))
        assert {tuple(sorted((p[u], p[v]))) for u, v in g.edges} == g.edge_set
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
    # Q4 = T4,4, D5 x D5 with the transpose on T5,5, D8 x Z2 on Y8,4, and
    # the 6! of K_{1,6}, under the cap
    star6 = Graph(7, [(0, v) for v in range(1, 7)])
    for g, order in ((grid(5, 5), 8), (prism(4, 2), 48), (torus(3, 3), 72),
                     (torus(4, 4), 384), (torus(5, 5), 200), (prism(8, 4), 32),
                     (star6, 720)):
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
    for g in (grid(3, 3), prism(5, 3), torus(4, 3), make_elementary("path", 5)):
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
    # trusting a T4,3 comment on another 12-vertex graph would restrict the
    # treewidth search's root moves to orbit representatives of the wrong
    # graph; several of these graphs then get a wrong exact width
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
    with pytest.raises(FormatError):
        read_gr("p tw 4 2\n1 2\n3 4\n")  # disconnected
    with pytest.raises(FormatError):
        read_gr("1 2\n2 3\n")  # missing problem line
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
    assert read_gr("c family path 1_0 1\n" + path).family is None
    assert read_gr("c family path 10 1\n" + path).family == FamilyMeta("path", 10, 1)
