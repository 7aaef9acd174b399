"""Brambles: classification, exact hitting sets, family generators, format."""

from __future__ import annotations

import hashlib
from functools import reduce
from itertools import combinations
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipwidth import brambles
from chipwidth.brambles import (
    Bramble,
    BrambleError,
    ElementLimitError,
    WrongRegimeError,
    _element_holders,
    _family_index,
    _greedy_hitting_set,
    _HittingSearch,
    classify_family,
    gen_balanced_bramble,
    gen_grid_bramble,
    gen_prism_b1,
    gen_prism_b2,
    gen_prism_collapsed,
    gen_torus_cde,
    gen_torus_fg,
    is_connected_set,
    min_hitting_set,
    read_bramble,
    sets_touch,
    write_bramble,
)
from chipwidth.graphs import (
    Graph,
    InvalidFamilyError,
    automorphism_group,
    bits_list,
    family_graphs,
    grid_lines,
    make_family,
)
from chipwidth.treewidth import covering_bag, exact_treewidth, family_claims

from oracles import complete_graph, connected_graphs, hitting_set_oracle, mask, treewidth_oracle


def pairwise_classification(g: Graph, elements: list[int]) -> tuple[str, tuple | None]:
    """classify_family by the direct test of every pair, in index order, with
    no symmetry: the plain scan the symmetric path must agree with."""
    for i, e in enumerate(elements):
        if not is_connected_set(g, e):
            return "not_bramble", (i, i)
    disjoint = None
    for i, j in combinations(range(len(elements)), 2):
        if not sets_touch(g, elements[i], elements[j]):
            return "not_bramble", (i, j)
        if disjoint is None and not elements[i] & elements[j]:
            disjoint = (i, j)
    return ("strict_bramble", None) if disjoint is None else ("bramble", disjoint)


def plain_root_hitting_set(b: Bramble) -> tuple[int, int, int]:
    """min_hitting_set with no symmetry: every size's decision search starts
    at the plain root. Its order, witness and search nodes."""
    search = _HittingSearch(b)
    full = (1 << b.graph.n) - 1
    upper = _greedy_hitting_set(search.holders, search.everything).bit_count()
    k = search.degree_bound(search.everything, full)
    while k < upper and not search.exists(search.everything, k, full):
        k += 1
    return k, search.lex_least(k), search.nodes


def permuted(p: list[int], e: int) -> int:
    return sum(1 << p[v] for v in bits_list(e))


# --- predicates ------------------------------------------------------------------


def test_connected_set_and_touching():
    p4 = make_family("grid", 4, 1)
    assert is_connected_set(p4, mask(0, 1, 2))
    assert not is_connected_set(p4, mask(0, 2))
    with pytest.raises(ValueError, match="empty"):
        is_connected_set(p4, 0)
    with pytest.raises(ValueError, match="outside the graph"):
        is_connected_set(p4, mask(3, 4))
    assert sets_touch(p4, mask(0), mask(1))  # edge joins them
    assert sets_touch(p4, mask(0, 1), mask(1, 2))  # shared vertex
    assert not sets_touch(p4, mask(0), mask(3))


def test_classify_not_a_bramble():
    p4 = make_family("grid", 4, 1)
    c = classify_family(p4, (mask(0), mask(3)))
    assert c.verdict == "not_bramble" and c.counterexample == (0, 1)
    c = classify_family(p4, (mask(0, 2), mask(1)))
    assert c.verdict == "not_bramble" and c.counterexample == (0, 0)


def test_classify_bramble_not_strict():
    c4 = make_family("stacked_prism", 4, 1)
    c = classify_family(c4, (mask(0, 1), mask(2, 3)))
    assert c.verdict == "bramble" and c.counterexample == (0, 1)


def test_classify_strict():
    g = make_family("grid", 3, 3)
    c = classify_family(g, gen_grid_bramble(g).elements)
    assert c.verdict == "strict_bramble" and c.counterexample is None


def test_classify_edge_inputs():
    # no elements: no pair can fail
    c = classify_family(make_family("grid", 4, 1), [])
    assert c.verdict == "strict_bramble" and c.counterexample is None
    # a one-pass iterator is read once, like the tuple; vertex 0 misses the
    # cross of row 2 and column 2
    fg, grid = make_family("toroidal_grid", 4, 3), make_family("grid", 4, 4)
    for g, elements, verdict in (
        (fg, gen_torus_fg(fg).elements, "bramble"),
        (grid, gen_grid_bramble(grid).elements + (mask(0),), "not_bramble"),
    ):
        c = classify_family(g, iter(elements))
        assert c == classify_family(g, elements) and c.verdict == verdict
    # a vertex outside the graph is an error, once no earlier element failed
    p4 = make_family("grid", 4, 1)
    with pytest.raises(ValueError):
        classify_family(p4, (mask(0, 1), mask(3, 4)))
    assert classify_family(p4, (mask(0, 2), mask(4))).counterexample == (0, 0)
    # an empty element is paired with itself
    c = classify_family(p4, (mask(0, 1), 0, mask(2)))
    assert (c.verdict, c.counterexample) == ("not_bramble", (1, 1))


@st.composite
def element_families(draw) -> tuple[Graph, list[int]]:
    g = draw(connected_graphs(min_n=2, max_n=9))
    elements = []
    for _ in range(draw(st.integers(1, 10))):
        # grow a connected set from a root; now and then a raw mask, which
        # may be disconnected
        if draw(st.integers(0, 9)) == 0:
            elements.append(draw(st.integers(1, g.full_mask)))
            continue
        e = 1 << draw(st.integers(0, g.n - 1))
        for _ in range(draw(st.integers(0, g.n - 1))):
            e |= 1 << draw(st.sampled_from(bits_list(g.neighborhood(e))))
        elements.append(e)
    return g, elements


@settings(max_examples=300, deadline=None, derandomize=True)
@given(element_families())
def test_classify_matches_pairwise_reference(family):
    g, elements = family
    c = classify_family(g, elements)
    assert (c.verdict, c.counterexample) == pairwise_classification(g, elements)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(9, 40).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=40))
))
def test_element_holders_by_definition(family):
    # bit i of holders[v] is set exactly when element i holds vertex v, on
    # more than one byte of vertices and of elements
    n, elements = family
    holders = _element_holders(elements, n)
    assert len(holders) == n
    for v in range(n):
        assert holders[v] == sum(1 << i for i, e in enumerate(elements) if e >> v & 1)


# --- exact minimum hitting sets ----------------------------------------------------


def test_hitting_set_k4_edges():
    k4 = complete_graph(4)
    b = Bramble.from_elements(k4, [mask(i, j) for i, j in k4.edges])
    cert = min_hitting_set(b)
    assert (cert.order, cert.witness) == hitting_set_oracle(b.elements, 4)
    assert bits_list(cert.witness) == [0, 1, 2]  # lexicographically least cover


def test_hitting_set_k5_triples():
    k5 = complete_graph(5)
    b = Bramble.from_elements(k5, [mask(*c) for c in combinations(range(5), 3)])
    assert classify_family(k5, b.elements).verdict == "strict_bramble"
    cert = min_hitting_set(b)
    assert (cert.order, cert.witness) == hitting_set_oracle(b.elements, 5)
    assert cert.order == 3


@st.composite
def set_families(draw) -> Bramble:
    # arbitrary vertex sets, not only brambles: singletons and pairs, sets
    # that miss each other, and duplicates that from_elements drops
    n = draw(st.integers(1, 12))
    small = st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 3))
    any_size = st.sets(st.integers(0, n - 1), min_size=1)
    sets = draw(st.lists(st.one_of(small, any_size), min_size=1, max_size=14))
    return Bramble.from_elements(Graph(n, []), [mask(*e) for e in sets])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(set_families())
def test_hitting_set_matches_oracle(b):
    cert = min_hitting_set(b)
    assert (cert.order, cert.witness) == hitting_set_oracle(b.elements, b.graph.n)


def test_hitting_set_rejects_bad_elements():
    # Bramble checks its elements where it is built, so min_hitting_set
    # never sees an empty element (which once made the greedy bound loop
    # forever) or a vertex outside the graph
    g = make_family("grid", 2, 1)
    for elements, message in (((1, 0), "empty element"),
                              ((1, 4), "outside the graph"),
                              ((1, -1), "outside the graph")):
        with pytest.raises(BrambleError, match=message):
            Bramble(g, elements)


SYMMETRIC_GRAPHS = (
    make_family("grid", 3, 3),
    make_family("grid", 4, 2),
    make_family("stacked_prism", 4, 2),
    make_family("stacked_prism", 6, 1),
    make_family("stacked_prism", 3, 3),
    make_family("toroidal_grid", 3, 3),
    make_family("toroidal_grid", 4, 3),
    complete_graph(5),
)


@st.composite
def symmetric_families(draw) -> tuple[Graph, list[int]]:
    # connected seed sets closed under the graph's automorphisms, in a drawn
    # order; then as they are, with some elements dropped (some generators
    # no longer map the family onto itself), relabelled, or with an element
    # repeated (the fast path must step aside)
    g = draw(st.sampled_from(SYMMETRIC_GRAPHS))
    group = automorphism_group(g)
    family = set()
    for _ in range(draw(st.integers(1, 3))):
        e = 1 << draw(st.integers(0, g.n - 1))
        for _ in range(draw(st.integers(0, g.n - 1))):
            e |= 1 << draw(st.sampled_from(bits_list(g.neighborhood(e) & ~e or e)))
        family.update(permuted(p, e) for p in group)
    elements = draw(st.permutations(sorted(family)))
    variant = draw(st.sampled_from(("closed", "dropped", "relabeled", "repeated")))
    if variant == "dropped" and len(elements) > 1:
        for _ in range(draw(st.integers(1, len(elements) // 2))):
            del elements[draw(st.integers(0, len(elements) - 1))]
    elif variant == "relabeled":
        p = draw(st.permutations(range(g.n)))
        g, elements = g.relabeled(p), [permuted(p, e) for e in elements]
    elif variant == "repeated":
        elements.insert(draw(st.integers(0, len(elements))), draw(st.sampled_from(elements)))
    return g, elements


@settings(max_examples=300, deadline=None, derandomize=True)
@given(symmetric_families())
def test_symmetric_paths_match_plain_references(family):
    g, elements = family
    c = classify_family(g, elements)
    assert (c.verdict, c.counterexample) == pairwise_classification(g, elements)
    b = Bramble(g, tuple(elements))
    cert = min_hitting_set(b)
    assert (cert.order, cert.witness) == plain_root_hitting_set(b)[:2]


def test_stock_bramble_with_an_element_dropped():
    # without one element the family loses most of its symmetry: Γ drops
    # the generators that map another element onto the missing one, and
    # both calls still agree with the plain references
    for kind, m, n, gen in (("toroidal_grid", 5, 3, gen_torus_cde),
                            ("toroidal_grid", 4, 3, gen_torus_fg),
                            ("stacked_prism", 6, 3, gen_prism_collapsed)):
        g = make_family(kind, m, n)
        elements = gen(g).elements
        for i in (0, len(elements) // 2):
            dropped = elements[:i] + elements[i + 1:]
            whole_orbits = _family_index(g, elements)[0]
            assert len(_family_index(g, dropped)[0]) > len(whole_orbits)
            c = classify_family(g, dropped)
            assert (c.verdict, c.counterexample) == pairwise_classification(g, list(dropped))
            b = Bramble(g, dropped)
            cert = min_hitting_set(b)
            assert (cert.order, cert.witness) == plain_root_hitting_set(b)[:2], (kind, m, n, i)


def test_classify_and_order_transpose_once(monkeypatch):
    # the family index sorts and transposes the elements once, for
    # classification's Γ-orbit check, for the full scan that the symmetric
    # but not strict torus_fg falls through to, and for the hitting-set
    # search
    calls = []
    holders = brambles._element_holders
    monkeypatch.setattr(brambles, "_element_holders",
                        lambda elements, n: calls.append(n) or holders(elements, n))
    for kind, m, n, gen, verdict in (("toroidal_grid", 4, 3, gen_torus_fg, "bramble"),
                                     ("toroidal_grid", 5, 3, gen_torus_cde, "strict_bramble")):
        b = gen(make_family(kind, m, n))
        brambles._family_index.cache_clear()
        calls.clear()
        assert classify_family(b.graph, b.elements).verdict == verdict
        min_hitting_set(b)
        assert len(calls) == 1, (kind, m, n)


def test_repeated_element_keeps_a_family_group():
    # a repeat counts twice in the holder counts, so Γ keeps only the
    # automorphisms that keep those counts: T5,3 torus_cde with element 0
    # again has 8 vertex orbits, not the 15 singletons of a trivial Γ
    g = make_family("toroidal_grid", 5, 3)
    elements = gen_torus_cde(g).elements
    b = Bramble(g, elements + elements[:1])
    assert len(_family_index(g, b.elements)[0]) == 8
    cert = min_hitting_set(b)
    # row 0 plus (1, 0) and (1, 1)
    assert (cert.order, cert.witness, cert.nodes) == (5, 0b11111, 179)
    assert plain_root_hitting_set(b) == (5, 0b11111, 280)


def image_of(p: list[int]):
    """e -> permuted(p, e) for sets of at most 16 vertices, by one table per
    byte of e."""
    low, high = [0], [0]
    for v, w in enumerate(p):
        table = low if v < 8 else high
        table += [t | 1 << w for t in table]
    return lambda e: low[e & 255] | high[e >> 8]


def test_symmetry_orbits_are_the_whole_stabilizers():
    # Γ is offered every automorphism, so its vertex orbits are those of the
    # family's whole stabilizer, found here by checking each automorphism on
    # every element. T5,3 torus_cde without element 0 is the case a smaller
    # candidate set misses: its stabilizer has order 2 and 8 vertex orbits
    checked = 0
    for g in family_graphs(16):
        group = automorphism_group(g)
        for gen in (gen_grid_bramble, gen_prism_b1, gen_prism_b2, gen_prism_collapsed,
                    gen_torus_cde, gen_torus_fg, gen_balanced_bramble):
            try:
                elements = gen(g).elements
            except (WrongRegimeError, InvalidFamilyError):
                continue
            for family in filter(None, (elements, elements[1:])):
                present = set(family)
                keeps = [p for p in group if present.issuperset(map(image_of(p), family))]
                orbits = sorted({reduce(or_, (1 << p[v] for p in keeps)) for v in range(g.n)},
                                key=lambda o: o & -o)
                assert _family_index(g, family)[0] == orbits, (g, gen.__name__)
                checked += 1
    assert checked == 286


def test_collapsed_prism_symmetry_on_y84():
    # the open-line witness keeps only 4 of Y8,4's 32 automorphisms; Γ must
    # find exactly their orbits, and a stray automorphism would break the
    # order or the witness
    g = make_family("stacked_prism", 8, 4)
    b = gen_prism_collapsed(g)
    group = automorphism_group(g)
    present = set(b.elements)
    keeps = [p for p in group if all(permuted(p, e) in present for e in b.elements)]
    assert (len(group), len(keeps)) == (32, 4)
    # in order of their least vertex
    orbits = sorted({reduce(or_, (1 << p[v] for p in keeps)) for v in range(g.n)},
                    key=lambda o: o & -o)
    assert _family_index(g, b.elements)[0] == orbits
    assert classify_family(g, b.elements).verdict == "strict_bramble"
    cert = min_hitting_set(b)
    order, witness, plain_nodes = plain_root_hitting_set(b)
    assert (cert.order, cert.witness) == (order, witness) and order == 7
    assert cert.nodes < plain_nodes


# (kind, m, n, generator): order, lex-least witness, search nodes
STOCK_ORDERS = {
    ("grid", 4, 4, gen_grid_bramble): (4, [0, 1, 2, 3], 25),
    ("grid", 5, 5, gen_grid_bramble): (5, [0, 1, 2, 3, 4], 160),
    ("stacked_prism", 7, 3, gen_prism_b1): (6, [0, 1, 2, 3, 4, 5], 490),
    ("stacked_prism", 5, 4, gen_prism_b2): (5, [0, 4, 8, 12, 16], 351),
    ("toroidal_grid", 4, 3, gen_torus_fg): (6, [0, 1, 2, 3, 4, 5], 116),
    ("toroidal_grid", 5, 3, gen_torus_cde): (5, [0, 1, 2, 3, 4], 76),
    ("toroidal_grid", 6, 3, gen_torus_cde): (5, [0, 1, 3, 4, 8], 148),
    ("toroidal_grid", 5, 3, gen_balanced_bramble): (6, [0, 1, 2, 3, 7, 8], 260),
    ("stacked_prism", 7, 4, gen_prism_b2): (7, [0, 1, 2, 3, 4, 5, 6], 4588),
    ("stacked_prism", 4, 2, gen_prism_collapsed): (3, [0, 1, 4], 10),
    ("stacked_prism", 6, 3, gen_prism_collapsed): (5, [0, 1, 2, 6, 7], 189),
}


# (kind, m, n, generator): element count and sha256 of the element tuple,
# first 16 hex digits; the element order fixes classify's counterexample
# indices, so generators must keep it
GENERATED_ELEMENTS = {
    ("grid", 4, 5, gen_grid_bramble): (20, "9a866aef274ed731"),
    ("stacked_prism", 7, 3, gen_prism_b1): (315, "645370625434198f"),
    ("stacked_prism", 5, 4, gen_prism_b2): (560, "d9a0ac38b3d0f911"),
    ("stacked_prism", 6, 3, gen_prism_collapsed): (285, "3e008b43c21bf624"),
    ("toroidal_grid", 5, 4, gen_torus_fg): (1160, "ac650f1e873d31bc"),
    ("toroidal_grid", 4, 3, gen_balanced_bramble): (696, "0140ab52e6e10748"),
    ("toroidal_grid", 5, 3, gen_torus_cde): (345, "8cb484385fe27ffb"),
    ("toroidal_grid", 6, 3, gen_torus_cde): (1008, "ca7069c36d5c926b"),
    ("toroidal_grid", 7, 3, gen_torus_cde): (2667, "55eb0e003949607f"),
    ("toroidal_grid", 6, 4, gen_torus_cde): (10560, "03c82cf2dccb4062"),
}


def test_generated_elements_pinned():
    for (kind, m, n, gen), want in GENERATED_ELEMENTS.items():
        elements = gen(make_family(kind, m, n)).elements
        digest = hashlib.sha256(",".join(map(str, elements)).encode()).hexdigest()[:16]
        assert (len(elements), digest) == want, (kind, m, n, gen.__name__)


def test_stock_orders_pinned():
    # certificates must stay byte-identical, and nodes pin the decision
    # search's work so that it cannot grow silently. prism_b2 on Y7,4
    # (order 7) is what gen_prism_collapsed lifts to Y8,4
    for (kind, m, n, gen), want in STOCK_ORDERS.items():
        cert = min_hitting_set(gen(make_family(kind, m, n)))
        assert (cert.order, bits_list(cert.witness), cert.nodes) == want, (kind, m, n)


def test_orbital_root_saves_nodes_on_stock():
    # the plain root finds the same order and witness with more nodes
    for kind, m, n, gen in STOCK_ORDERS:
        b = gen(make_family(kind, m, n))
        cert = min_hitting_set(b)
        order, witness, plain_nodes = plain_root_hitting_set(b)
        assert (cert.order, cert.witness) == (order, witness)
        assert cert.nodes < plain_nodes, (kind, m, n)


def test_orbital_root_never_wider_than_the_plain_root():
    # the root branches only on the orbits that meet the smallest element,
    # each holding one of its vertices, so it has no more children than the
    # plain root; without element 0, Y7,4 prism_b2 keeps a Γ of order 2
    # with 16 vertex orbits, more than its smallest element has vertices
    g = make_family("stacked_prism", 7, 4)
    b = Bramble(g, gen_prism_b2(g).elements[1:])
    cert = min_hitting_set(b)
    order, witness, plain_nodes = plain_root_hitting_set(b)
    assert (cert.order, cert.witness) == (order, witness) and order == 6
    assert (cert.nodes, plain_nodes) == (24861, 26437)


def test_collapsed_prism_bramble_is_the_lifted_b2():
    # each element of prism_b2 on Y(2n-1, n) lifts to one element on
    # Y(2n, n); the lifts are a strict bramble with the same order
    for n in (2, 3):
        g = make_family("stacked_prism", 2 * n, n)
        b = gen_prism_collapsed(g)
        small = gen_prism_b2(make_family("stacked_prism", 2 * n - 1, n))
        assert len(b) == len(small) and family_claims(g).witness is gen_prism_collapsed
        assert classify_family(g, b.elements).verdict == "strict_bramble"
        assert min_hitting_set(b).order == min_hitting_set(small).order == 2 * n - 1


def test_witness_hits_everything():
    g = make_family("stacked_prism", 5, 3)
    b = gen_prism_b2(g)
    cert = min_hitting_set(b)
    assert all(cert.witness & e for e in b.elements)
    assert cert.witness.bit_count() == cert.order


# --- family generators ----------------------------------------------------------------


def test_grid_bramble_crosses():
    g = make_family("grid", 3, 4)
    b = gen_grid_bramble(g)
    assert len(b) == 12
    rows, cols = grid_lines(g)
    cross = rows[1] | cols[2]
    assert cross in b.elements
    assert min_hitting_set(b).order == 3
    assert classify_family(g, b.elements).verdict == "strict_bramble"


def test_prism_b1_structure_and_order():
    g = make_family("stacked_prism", 7, 3)
    b = gen_prism_b1(g)
    assert len(b) == 315
    assert classify_family(g, b.elements).verdict == "strict_bramble"
    assert min_hitting_set(b).order == 6


def test_prism_b2_order():
    g = make_family("stacked_prism", 5, 3)
    b = gen_prism_b2(g)
    assert len(b) == 285
    assert classify_family(g, b.elements).verdict == "strict_bramble"
    assert min_hitting_set(b).order == 5


def test_torus_cde_margin_two_order():
    # at column margin two the three shapes degenerate enough that one full
    # row plus two neighbours meets every element, capping the order at 5
    g = make_family("toroidal_grid", 5, 3)
    b = gen_torus_cde(g)
    assert len(b) == 345
    assert classify_family(g, b.elements).verdict == "strict_bramble"
    s = grid_lines(g)[0][0] | mask(3, 4)  # row 0, (1,0) and (1,1)
    assert all(s & e for e in b.elements)
    assert min_hitting_set(b).order == 5


def test_torus_cde_wide_margin_order():
    # with four spare columns every small transversal misses some element
    g = make_family("toroidal_grid", 7, 3)
    b = gen_torus_cde(g)
    assert classify_family(g, b.elements).verdict == "strict_bramble"
    assert min_hitting_set(b).order == 6


def test_torus_fg_non_strict_order():
    g = make_family("toroidal_grid", 4, 3)
    b = gen_torus_fg(g)
    assert len(b) == 180
    c = classify_family(g, b.elements)
    assert c.verdict == "bramble" and c.counterexample is not None
    i, j = c.counterexample
    assert not (b.elements[i] & b.elements[j])
    cert = min_hitting_set(b)
    assert cert.order == 6
    rows, _ = grid_lines(g)
    two_rows = rows[0] | rows[1]
    assert all(two_rows & e for e in b.elements)


def test_balanced_bramble_certifies_torus_margin_two(monkeypatch):
    # every connected 8-set of the 15 vertices holds a majority, so any two
    # share a vertex; hitting them all takes 2n = 6 vertices, one more than
    # the stock torus_cde family reaches here
    g = make_family("toroidal_grid", 5, 3)
    b = gen_balanced_bramble(g)
    assert len(b) == 3990
    assert all(e.bit_count() == 8 and is_connected_set(g, e) for e in b.elements)
    assert classify_family(g, b.elements).verdict == "strict_bramble"
    cert = min_hitting_set(b)
    assert cert.order == 6
    assert cert.witness.bit_count() == 6
    assert all(cert.witness & e for e in b.elements)
    monkeypatch.setattr(brambles, "DEFAULT_ELEMENT_LIMIT", 100)
    with pytest.raises(ElementLimitError):
        gen_balanced_bramble(g)


def test_balanced_bramble_matches_subset_enumeration():
    for g in (make_family("grid", 3, 3), make_family("stacked_prism", 4, 2),
              make_family("stacked_prism", 7, 1)):
        size = g.n // 2 + 1
        want = {mask(*c) for c in combinations(range(g.n), size)
                if is_connected_set(g, mask(*c))}
        b = gen_balanced_bramble(g)
        assert len(b) == len(want) and set(b.elements) == want


@settings(max_examples=150, deadline=None, derandomize=True)
@given(connected_graphs(min_n=2))
def test_balanced_bramble_order_oracle(g):
    # on any connected graph: strict, exact order and lex-least witness,
    # and a bag of every decomposition covers it; strict order <= tw is an
    # observation on these graphs, not a theorem (see STRICT_OVERSHOOT)
    b = gen_balanced_bramble(g)
    assert classify_family(g, b.elements).verdict == "strict_bramble"
    cert = min_hitting_set(b)
    assert (cert.order, cert.witness) == hitting_set_oracle(b.elements, g.n)
    assert cert.order <= treewidth_oracle(g)
    td = exact_treewidth(g).decomposition
    hit = covering_bag(td, b)
    assert td.bags[hit.node] == hit.bag
    assert all(hit.bag & e for e in b.elements)
    assert not any(all(bag & e for e in b.elements) for bag in td.bags[:hit.node])


def test_generator_regime_errors():
    with pytest.raises(WrongRegimeError):
        gen_prism_b1(make_family("stacked_prism", 5, 3))  # needs 2n < m
    with pytest.raises(WrongRegimeError):
        gen_prism_b2(make_family("stacked_prism", 7, 3))  # needs m < 2n
    for m in (5, 7):
        with pytest.raises(WrongRegimeError):
            gen_prism_collapsed(make_family("stacked_prism", m, 3))  # needs m = 2n
    with pytest.raises(WrongRegimeError):
        gen_torus_cde(make_family("toroidal_grid", 4, 3))  # needs m >= n+2
    with pytest.raises(WrongRegimeError):
        gen_torus_fg(make_family("toroidal_grid", 5, 3))  # needs m = n+1
    with pytest.raises(InvalidFamilyError):
        gen_grid_bramble(make_family("toroidal_grid", 4, 3))


def test_generator_element_cap(monkeypatch):
    monkeypatch.setattr(brambles, "DEFAULT_ELEMENT_LIMIT", 10)
    with pytest.raises(ElementLimitError):
        gen_prism_b1(make_family("stacked_prism", 7, 3))


def test_bramble_needs_elements():
    g = make_family("grid", 3, 1)
    with pytest.raises(BrambleError, match="at least one element"):
        Bramble.from_elements(g, [])
    with pytest.raises(BrambleError, match="at least one element"):
        Bramble(g, ())


# --- file format -----------------------------------------------------------------------


def test_bramble_format_round_trip():
    g = make_family("grid", 3, 3)
    b = gen_grid_bramble(g)
    text = write_bramble(b)
    back = read_bramble(text, g)
    assert set(back.elements) == set(b.elements)
    assert write_bramble(back) == text  # canonical order makes bytes stable


def test_bramble_format_rejections():
    g = make_family("grid", 3, 3)
    with pytest.raises(BrambleError):
        read_bramble("b 1 5\n1 2\n", g)  # vertex count mismatch
    with pytest.raises(BrambleError):
        read_bramble("b 2 9\n1 2\n", g)  # element count mismatch
    with pytest.raises(BrambleError):
        read_bramble("b 1 9\n1 99\n", g)  # vertex out of range
    with pytest.raises(BrambleError, match="line 1"):
        read_bramble("b x 4\n", g)  # element count not a number
    with pytest.raises(BrambleError, match="line 2"):
        read_bramble("b 1 9\n1 y\n", g)  # vertex not a number
    with pytest.raises(BrambleError, match="line 4"):
        read_bramble("b 1 9\nc a comment\n\n1 y\n", g)  # skipped lines count
    with pytest.raises(BrambleError, match="line 2"):
        read_bramble("b 1 9\n1 2 +3\n", g)  # a plus sign
    with pytest.raises(BrambleError, match="line 3: repeated element"):
        read_bramble("b 2 9\n1 2\n2 1\n", g)
    with pytest.raises(BrambleError, match="line 2: expected 'b <elements> <vertices>'"):
        read_bramble("c an element first\n1 2\nb 1 9\n", g)
    with pytest.raises(BrambleError, match="missing header line"):
        read_bramble("c no bramble here\n", g)
