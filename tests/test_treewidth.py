"""Treewidth: validation, exact solver, covering bags, bounds, .td format."""

from __future__ import annotations

import hashlib
import random
from functools import partial

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chipwidth import graphs
from chipwidth.brambles import (
    Bramble,
    BrambleError,
    classify_family,
    gen_balanced_bramble,
    gen_grid_bramble,
    gen_prism_b1,
    gen_prism_b2,
    gen_prism_collapsed,
    gen_torus_cde,
    gen_torus_fg,
    min_hitting_set,
)
from chipwidth.chipfiring import gen_winning_divisor, is_winning_divisor
from chipwidth.graphs import (
    FamilyMeta,
    Graph,
    InvalidFamilyError,
    automorphism_group,
    family_graphs,
    iter_bits,
    make_family,
)
from chipwidth.treewidth import (
    DecompositionError,
    NotATreeError,
    SolverLimits,
    TdFormatError,
    TreeDecomposition,
    ValidationReport,
    _Budget,
    _decide_width,
    contraction_degeneracy,
    covering_bag,
    decomposition_from_elimination_order,
    degeneracy,
    exact_treewidth,
    family_bramble,
    family_claims,
    min_fill_order,
    read_td,
    validate_tree_decomposition,
    write_td,
)

from oracles import connected_graphs, mask, to_networkx, treewidth_oracle

P3 = make_family("grid", 3, 1)


# --- validation ----------------------------------------------------------------


def test_validate_accepts_solver_output():
    g = make_family("grid", 3, 3)
    res = exact_treewidth(g)
    report = validate_tree_decomposition(g, res.decomposition)
    assert report.valid and report.condition is None


def test_validate_condition1_vertex_missing():
    td = TreeDecomposition((mask(0, 1), mask(1)), ((0, 1),), 3)
    report = validate_tree_decomposition(P3, td)
    assert not report.valid and report.condition == 1 and report.witness == 2


def test_validate_condition2_edge_uncovered():
    td = TreeDecomposition((mask(0, 1), mask(2)), ((0, 1),), 3)
    report = validate_tree_decomposition(P3, td)
    assert not report.valid and report.condition == 2 and report.witness == (1, 2)


def test_validate_condition3_disconnected_trace():
    td = TreeDecomposition((mask(0, 1), mask(1, 2), mask(0)), ((0, 1), (1, 2)), 3)
    report = validate_tree_decomposition(P3, td)
    assert not report.valid and report.condition == 3 and report.witness == 0


def test_validate_rejects_non_tree():
    # a structure that is no tree is refused where it is built, so the
    # validator never sees one
    with pytest.raises(NotATreeError, match="no nodes"):
        TreeDecomposition((), (), 3)
    with pytest.raises(NotATreeError, match="3 nodes need 2 tree edges, got 3"):
        TreeDecomposition((mask(0, 1), mask(1, 2), mask(0, 2)), ((0, 1), (1, 2), (0, 2)), 3)
    for edges in (((0, 1), (0, 1)), ((0, 1), (1, 0))):
        with pytest.raises(NotATreeError, match="repeated"):
            TreeDecomposition((mask(0, 1), mask(1, 2), mask(2)), edges, 3)
    with pytest.raises(NotATreeError, match=r"bad tree edge \(1, 1\)"):
        TreeDecomposition((mask(0, 1), mask(1, 2)), ((1, 1),), 3)
    with pytest.raises(NotATreeError, match="do not connect"):
        TreeDecomposition((mask(0, 1), mask(1, 2), mask(2), mask(0)), ((0, 1), (1, 2), (2, 0)), 3)


def test_validate_rejects_decomposition_of_another_graph():
    # a decomposition for 4 vertices is not judged on the 3 vertices of P3,
    # and one naming vertex 3 of 3 is refused where it is built
    td = TreeDecomposition((mask(0, 1), mask(1, 2)), ((0, 1),), 4)
    with pytest.raises(DecompositionError, match="for 4 vertices, graph has 3"):
        validate_tree_decomposition(P3, td)
    for bags in ((mask(0, 1), mask(1, 2, 3)), (mask(0, 1), -1)):
        with pytest.raises(DecompositionError, match="vertex outside the graph"):
            TreeDecomposition(bags, ((0, 1),), 3)


def reference_validate(g: Graph, td: TreeDecomposition) -> ValidationReport:
    """The three conditions checked directly: condition 3 by a search from
    the first node holding v, over the nodes that hold v."""
    k = td.num_bags
    for v in range(g.n):
        if not any(b >> v & 1 for b in td.bags):
            return ValidationReport(False, 1, v)
    for u, v in g.edges:
        if not any(b >> u & 1 and b >> v & 1 for b in td.bags):
            return ValidationReport(False, 2, (u, v))
    nbr = [[] for _ in range(k)]
    for a, b in td.edges:
        nbr[a].append(b)
        nbr[b].append(a)
    for v in range(g.n):
        holding = [i for i in range(k) if td.bags[i] >> v & 1]
        seen = {holding[0]}
        stack = [holding[0]]
        while stack:
            x = stack.pop()
            for y in nbr[x]:
                if y not in seen and td.bags[y] >> v & 1:
                    seen.add(y)
                    stack.append(y)
        if len(seen) != len(holding):
            return ValidationReport(False, 3, v)
    return ValidationReport(True)


def test_validate_matches_reference_on_random_trees():
    # random graphs and bag trees, with nine edges in ten put in some bag
    # so that each verdict comes up often
    rng = random.Random(20260319)
    failures = {1: 0, 2: 0, 3: 0, None: 0}
    for _ in range(3000):
        n = rng.randint(1, 7)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4])
        k = rng.randint(1, 6)
        bags = [mask(*(v for v in range(n) if rng.random() < 0.3)) for _ in range(k)]
        for u, v in g.edges:
            if rng.random() < 0.9:
                bags[rng.randrange(k)] |= mask(u, v)
        edges = tuple((i, rng.randrange(i)) for i in range(1, k))
        td = TreeDecomposition(tuple(bags), edges, n)
        report = validate_tree_decomposition(g, td)
        assert report == reference_validate(g, td), td
        failures[report.condition] += 1
    assert min(failures.values()) >= 100, failures


def test_width_is_largest_bag_minus_one():
    td = TreeDecomposition((mask(0, 1), mask(1, 2)), ((0, 1),), 3)
    assert td.width == 1 and td.num_bags == 2


# --- elimination orders and heuristics -----------------------------------------


def test_decomposition_from_elimination_order_cycle():
    c5 = make_family("stacked_prism", 5, 1)
    td = decomposition_from_elimination_order(c5, [0, 1, 2, 3, 4])
    assert validate_tree_decomposition(c5, td).valid
    assert td.width == 2
    for order in ([0, 1, 2, 3], [0, 1, 2, 3, 3]):
        with pytest.raises(DecompositionError, match="permutation"):
            decomposition_from_elimination_order(c5, order)


def test_decomposition_of_a_disconnected_graph():
    # a bag with no remaining neighbour ends its component and is chained to
    # the next bag; eliminating 3 first joins 2 and 4, hence width 2
    g = Graph(6, [(0, 1), (2, 3), (3, 4)])
    for order, width in ((list(range(6)), 1), (list(range(5, -1, -1)), 1),
                         ([1, 5, 3, 0, 2, 4], 2)):
        td = decomposition_from_elimination_order(g, order)
        assert validate_tree_decomposition(g, td).valid, order
        assert td.width == width, order


def test_degeneracy_values():
    assert degeneracy(make_family("grid", 5, 1)) == 1
    assert degeneracy(make_family("grid", 3, 4)) == 2
    assert degeneracy(make_family("toroidal_grid", 4, 3)) == 4
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert degeneracy(k4) == 3


def test_contraction_degeneracy_values():
    # the minor bound reaches the width where degeneracy falls short
    for kind, m, n, want in (("grid", 5, 4, 4),
                             ("toroidal_grid", 4, 4, 6),
                             ("toroidal_grid", 6, 3, 5),
                             ("stacked_prism", 6, 3, 4),
                             ("stacked_prism", 8, 4, 4)):
        assert contraction_degeneracy(make_family(kind, m, n)) == want, (kind, m, n)
    assert contraction_degeneracy(make_family("grid", 1, 1)) == 0
    assert contraction_degeneracy(make_family("grid", 2, 1)) == 1
    assert contraction_degeneracy(make_family("stacked_prism", 7, 1)) == 2


def test_min_fill_upper_bound():
    order, width = min_fill_order(make_family("grid", 4, 1))
    assert width == 1 and sorted(order) == [0, 1, 2, 3]
    g = make_family("grid", 3, 3)
    _, w = min_fill_order(g)
    assert w >= exact_treewidth(g).treewidth


# --- exact solver ---------------------------------------------------------------


def test_exact_small_graphs():
    assert exact_treewidth(make_family("grid", 5, 1)).treewidth == 1
    assert exact_treewidth(make_family("stacked_prism", 6, 1)).treewidth == 2
    k4 = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert exact_treewidth(k4).treewidth == 3
    assert exact_treewidth(make_family("grid", 2, 2)).treewidth == 2


def test_exact_result_invariants():
    # the minor bound meets the min-fill width on G3,3, so no search runs
    res = exact_treewidth(make_family("grid", 3, 3))
    assert res.treewidth == 3
    assert res.proof_status == "exact" and res.lower == res.upper == 3
    assert res.decomposition.width == 3
    assert validate_tree_decomposition(make_family("grid", 3, 3), res.decomposition).valid
    assert res.states == 0 and res.minor_lower == 3 and res.elapsed >= 0.0
    # on Y5,4 the minor proves 4 and the search refutes width 4
    res = exact_treewidth(make_family("stacked_prism", 5, 4))
    assert (res.proof_status, res.lower, res.minor_lower) == ("exact", 5, 4)
    assert res.states > 0


def test_state_cap_degrades_to_bounds():
    # a tiny state cap stops the search mid-way; the result must still be an
    # honest interval around the known width with a valid decomposition
    limits = SolverLimits(max_states=10)
    for kind, m, n, known in (("toroidal_grid", 5, 3, 6),
                              ("stacked_prism", 6, 3, 6),
                              ("stacked_prism", 5, 4, 5)):
        g = make_family(kind, m, n)
        res = exact_treewidth(g, limits)
        assert res.proof_status == "bounds_only"
        assert res.lower <= known <= res.upper
        assert res.treewidth == res.upper == res.decomposition.width
        assert validate_tree_decomposition(g, res.decomposition).valid
        assert res.states <= limits.max_states + 1
    # the minor settles T4,4 before the cap can bite
    res = exact_treewidth(make_family("toroidal_grid", 4, 4), limits)
    assert (res.proof_status, res.lower, res.upper, res.states) == ("exact", 6, 6, 0)


def test_lower_bound_hint_is_gone():
    # a lower bound enters the search only as a checked witness bramble
    with pytest.raises(TypeError):
        SolverLimits(lower_bound_hint=3)


# tw 4, degeneracy 3, min-fill width 5: a lower bound of 5 taken on trust
# would skip past the true width
HINT_TRAP = Graph(10, [(0, 2), (0, 7), (1, 2), (1, 5), (1, 6), (1, 8), (2, 4), (2, 5),
                       (3, 4), (3, 5), (3, 6), (3, 7), (4, 6), (4, 9), (5, 8), (5, 9),
                       (7, 8), (8, 9)])


def test_balanced_witness_on_hint_trap():
    assert degeneracy(HINT_TRAP) == 3 and min_fill_order(HINT_TRAP)[1] == 5
    res = exact_treewidth(HINT_TRAP, witness=gen_balanced_bramble(HINT_TRAP))
    assert (res.proof_status, res.lower, res.upper) == ("exact", 4, 4)
    assert res.witness_lower == 2
    assert validate_tree_decomposition(HINT_TRAP, res.decomposition).valid


# a strict bramble of order 3 on a graph of treewidth 2: strictness does not
# lift the bound above order - 1
STRICT_OVERSHOOT = Graph(7, [(0, 1), (0, 2), (0, 4), (0, 5), (1, 2), (2, 3), (2, 6),
                             (3, 4), (4, 5), (4, 6)])
STRICT_OVERSHOOT_ELEMENTS = [
    (2, 3, 4, 5, 6), (3, 4, 5, 6), (1, 2, 4, 5, 6), (1, 2, 3, 6), (1, 2, 3, 4, 5),
    (0, 2, 4, 5, 6), (0, 2, 3, 5, 6), (0, 2, 3, 4, 6), (0, 2, 3, 4, 5), (0, 1, 4, 5, 6),
    (0, 1, 5), (0, 1, 3, 4, 6), (0, 1, 2, 4, 6), (0, 1, 2, 3, 4),
]


def test_strict_witness_proves_order_minus_one():
    g = STRICT_OVERSHOOT
    b = Bramble.from_elements(g, [mask(*e) for e in STRICT_OVERSHOOT_ELEMENTS])
    assert classify_family(g, b.elements).verdict == "strict_bramble"
    assert min_hitting_set(b).order == 3
    plain = exact_treewidth(g)
    assert (plain.proof_status, plain.treewidth) == ("exact", 2)
    res = exact_treewidth(g, witness=b)
    assert (res.proof_status, res.treewidth, res.witness_lower) == ("exact", 2, 2)


def test_search_starts_at_the_witness_bound():
    # with no states to spend, lower is what the checked witness proved
    g = make_family("stacked_prism", 6, 3)
    res = exact_treewidth(g, SolverLimits(max_states=0), family_bramble(g))
    assert (res.proof_status, res.lower, res.witness_lower) == ("bounds_only", 4, 4)
    # with no witness, lower is what the minor proved
    res = exact_treewidth(g, SolverLimits(max_states=0))
    assert (res.proof_status, res.lower, res.witness_lower) == ("bounds_only", 4, 0)
    assert res.minor_lower == 4


def test_witness_is_checked_on_the_graph():
    g = make_family("grid", 3, 3)
    res = exact_treewidth(g, witness=gen_grid_bramble(make_family("grid", 3, 3)))
    assert (res.proof_status, res.treewidth, res.witness_lower) == ("exact", 3, 2)
    # a bramble over another graph on as many vertices
    with pytest.raises(BrambleError, match="another graph"):
        exact_treewidth(g, witness=gen_balanced_bramble(make_family("stacked_prism", 9, 1)))
    # opposite corners do not touch, and {0, 2} is not connected
    for elements in ([mask(0), mask(8)], [mask(0, 2), mask(0, 1)]):
        with pytest.raises(BrambleError, match="not a bramble"):
            exact_treewidth(g, witness=Bramble.from_elements(g, elements))
    # the graph itself must be connected
    with pytest.raises(ValueError, match="connected graph"):
        exact_treewidth(Graph(4, [(0, 1), (2, 3)]))


def test_witness_check_and_search_build_one_group(monkeypatch):
    # T5,3 checks its torus_cde witness, whose symmetry group starts from
    # the automorphism group, and then searches; automorphism_group keeps
    # the group, and _search_order runs once per build
    calls = []
    search_order = graphs._search_order
    monkeypatch.setattr(graphs, "_search_order", lambda g: calls.append(g) or search_order(g))
    g = make_family("toroidal_grid", 5, 3)
    res = exact_treewidth(g, witness=family_bramble(g))
    assert (res.proof_status, res.treewidth, res.states, res.group_order) == ("exact", 6, 45, 60)
    assert calls == [g]


def test_relabeling_invariance():
    rng = random.Random(11)
    for g in (make_family("grid", 3, 3),
              make_family("stacked_prism", 4, 2),
              make_family("stacked_prism", 5, 1)):
        want = exact_treewidth(g).treewidth
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert exact_treewidth(g.relabeled(perm)).treewidth == want


def test_torus_square_value():
    assert exact_treewidth(make_family("toroidal_grid", 3, 3)).treewidth == 5


@settings(max_examples=100, deadline=None, derandomize=True)
@given(connected_graphs(max_n=10))
def test_contraction_degeneracy_is_between_degeneracy_and_width(g):
    bound = contraction_degeneracy(g)
    res = exact_treewidth(g)
    assert degeneracy(g) <= bound <= res.treewidth
    assert res.minor_lower == bound and res.proof_status == "exact"


def test_minor_bound_on_family_graphs():
    # every family graph up to 20 vertices: the minor never overshoots
    for g in family_graphs(20):
        res = exact_treewidth(g)
        assert res.proof_status == "exact", g
        assert degeneracy(g) <= res.minor_lower <= res.treewidth, g


@settings(max_examples=60, deadline=None, derandomize=True)
@given(connected_graphs(max_n=7))
def test_exact_matches_brute_force_and_min_fill(g):
    res = exact_treewidth(g)
    want = treewidth_oracle(g)
    assert res.proof_status == "exact" and res.treewidth == want
    # the heuristic bounds often meet on graphs this small, so ask the search
    # itself both sides of the question as well
    images = identity_images(g)
    ok, order = _decide_width(g, want, _Budget(10**6, None), images)
    assert ok and decomposition_from_elimination_order(g, order).width <= want
    if want > 0:
        assert _decide_width(g, want - 1, _Budget(10**6, None), images) == (False, None)
    nx_width, _ = nx.algorithms.approximation.treewidth_min_fill_in(to_networkx(g))
    assert res.treewidth <= nx_width


@settings(max_examples=80, deadline=None, derandomize=True)
@given(connected_graphs(max_n=9))
def test_balanced_witness_keeps_width_and_status(g):
    # the balanced family is a strict bramble on any graph; as a witness it
    # may only move where the search starts
    b = gen_balanced_bramble(g)
    plain = exact_treewidth(g)
    res = exact_treewidth(g, witness=b)
    assert (res.treewidth, res.proof_status) == (plain.treewidth, plain.proof_status)
    assert res.witness_lower == min_hitting_set(b).order - 1
    assert res.lower >= res.witness_lower
    assert validate_tree_decomposition(g, res.decomposition).valid


# --- the path-kept elimination graph against the component-based search ----------


def identity_images(g: Graph) -> list[list[int]]:
    """The image table of the identity group alone: one column."""
    return [[1 << v] for v in range(g.n)]


def oracle_fill_neighborhoods(adj, s_mask: int, outside: int) -> list[int]:
    """Q(S, v) for every v outside S, from the components of S."""
    comps = []
    rem = s_mask
    while rem:
        comp = frontier = rem & -rem
        reach_all = 0
        while frontier:
            reach = 0
            for u in iter_bits(frontier):
                reach |= adj[u]
            reach_all |= reach
            frontier = reach & s_mask & ~comp
            comp |= frontier
        comps.append((comp, reach_all))
        rem &= ~comp
    out = [0] * len(adj)
    for v in iter_bits(outside):
        q = adj[v]
        for comp, reach in comps:
            if comp & adj[v]:
                q |= reach
        out[v] = q & ~s_mask & ~(1 << v)
    return out


def oracle_decide_width(g: Graph, k: int, budget: _Budget):
    """The width search as it was before it kept the elimination graph:
    Q(S, v) is rebuilt from the components of S at every state."""
    n, full, adj = g.n, g.full_mask, g.adj
    failed: set[int] = set()
    path: list[int] = []

    def dfs(s_mask: int, depth: int):
        if n - depth <= k + 1:
            return True
        if s_mask in failed:
            return False
        if not budget.tick():
            return None
        outside = full & ~s_mask
        q = oracle_fill_neighborhoods(adj, s_mask, outside)
        cand = [(q[v].bit_count(), v) for v in iter_bits(outside) if q[v].bit_count() <= k]
        forced = -1
        for v in iter_bits(outside):
            qv = q[v]
            if all(not qv & ~(1 << u) & ~q[u] for u in iter_bits(qv)):
                if qv.bit_count() > k:
                    failed.add(s_mask)
                    return False
                if forced < 0:
                    forced = v
        if forced >= 0:
            res = dfs(s_mask | (1 << forced), depth + 1)
            if res:
                path.append(forced)
            elif res is False:
                failed.add(s_mask)
            return res
        for _, v in sorted(cand):
            res = dfs(s_mask | (1 << v), depth + 1)
            if res:
                path.append(v)
                return True
            if res is None:
                return None
        failed.add(s_mask)
        return False

    if n <= k + 1:
        return True, sorted(range(n))
    for r in range(n):
        if g.degree(r) > k:
            continue
        res = dfs(1 << r, 1)
        if res:
            path.append(r)
            prefix = path[::-1]
            return True, prefix + sorted(set(range(n)) - set(prefix))
        if res is None:
            return None, None
    return False, None


@settings(max_examples=120, deadline=None, derandomize=True)
@given(connected_graphs(max_n=9), st.integers(0, 60))
def test_search_matches_component_oracle(g, cap):
    # same verdict, same witness order and the same number of counted
    # states at every width, with and without a state cap cutting it short
    for k in range(g.n):
        for max_states in (10**6, cap):
            ours, theirs = _Budget(max_states, None), _Budget(max_states, None)
            got = _decide_width(g, k, ours, identity_images(g))
            want = oracle_decide_width(g, k, theirs)
            assert got == want and ours.states == theirs.states, (k, max_states)


# sha256 of write_td, first 16 hex digits, recorded from the component-based
# search; any change to the witness order shows up here. The states count
# the search from the contraction degeneracy, with its failed prefixes
# memoized up to the graph's symmetry; G5,4 and T4,4 need no search.
PINNED_SEARCHES = [
    ("grid", 5, 4, None, "exact", 4, 4, 0, "353917de3377ffc5"),
    ("toroidal_grid", 4, 4, None, "exact", 6, 6, 0, "b72123f1f791cc82"),
    ("toroidal_grid", 5, 3, None, "exact", 6, 6, 45, "996265c7e92f6664"),
    ("toroidal_grid", 6, 3, None, "exact", 6, 6, 134, "6b4cc05bd2301155"),
    ("stacked_prism", 8, 4, 4000, "bounds_only", 4, 8, 4001, "9a16d6b6f979c40b"),
]


@pytest.mark.parametrize("kind,m,n,cap,status,lower,upper,states,td_digest", PINNED_SEARCHES)
def test_search_pinned_on_family_graphs(kind, m, n, cap, status, lower, upper, states,
                                        td_digest):
    limits = SolverLimits() if cap is None else SolverLimits(max_states=cap)
    res = exact_treewidth(make_family(kind, m, n), limits)
    assert (res.proof_status, res.lower, res.upper, res.states) == (status, lower, upper, states)
    # the group is built only for a search: G5,4 and T4,4 (group 384) run none
    if states == 0:
        assert res.group_order == 1
    digest = hashlib.sha256(write_td(res.decomposition).encode()).hexdigest()[:16]
    assert digest == td_digest


def test_search_pinned_on_relabeled_family_graph():
    # the group comes from the edges, so a relabelled torus without its
    # metadata keeps its symmetry (1590 states with the identity alone)
    g = make_family("toroidal_grid", 5, 3)
    perm = list(range(g.n))
    random.Random(11).shuffle(perm)
    res = exact_treewidth(g.relabeled(perm))
    assert (res.proof_status, res.lower, res.upper, res.states) == ("exact", 6, 6, 45)
    assert res.group_order == 60
    digest = hashlib.sha256(write_td(res.decomposition).encode()).hexdigest()[:16]
    assert digest == "f7dbbea5b36d00df"


def test_identity_group_search_pinned(monkeypatch):
    # a group past the cap becomes the identity, a table of one column,
    # and searches T5,3 and T6,3 with the plain memo: more states, and the
    # decompositions of the symmetric search
    pinned = {(kind, m, n): digest for kind, m, n, *_, digest in PINNED_SEARCHES}
    monkeypatch.setattr(graphs, "MAX_GROUP_ORDER", 1)
    automorphism_group.cache_clear()
    try:
        for m, states in ((5, 1590), (6, 5144)):
            res = exact_treewidth(make_family("toroidal_grid", m, 3))
            assert (res.proof_status, res.treewidth, res.states, res.group_order) == (
                "exact", 6, states, 1)
            digest = hashlib.sha256(write_td(res.decomposition).encode()).hexdigest()[:16]
            assert digest == pinned["toroidal_grid", m, 3]
    finally:
        automorphism_group.cache_clear()


# --- symmetry of the family graphs -------------------------------------------------


def test_first_move_keys_are_the_family_orbits():
    # the memo key of a first move v is the least vertex of its orbit, so
    # one first move per orbit costs a state: a torus is vertex transitive,
    # a prism has one orbit per column pair j, n-1-j, and a grid one per row
    # and column pair, merged with its transpose when the grid is square
    for g in family_graphs(30):
        fam = g.family
        m, n = fam.m, fam.n
        rows, cols = range((m + 1) // 2), range((n + 1) // 2)
        want = {
            "toroidal_grid": [0],
            "stacked_prism": list(cols),
            "grid": [i * n + j for i in rows for j in cols if m != n or i <= j],
        }[fam.kind]
        keys = {min(p[v] for p in automorphism_group(g)) for v in range(g.n)}
        assert sorted(keys) == want, fam
    # orders 4mn, 4m and 4 off the square and cube cases
    for kind, order in (("toroidal_grid", 80), ("stacked_prism", 20), ("grid", 4)):
        assert len(automorphism_group(make_family(kind, 5, 4))) == order


def assert_symmetric_memo_matches_identity_search(g: Graph) -> None:
    # skipping prefixes whose image was refuted drops only infeasible
    # subtrees: same verdict and order at every width, never more states
    images = [[1 << p[v] for p in automorphism_group(g)] for v in range(g.n)]
    for k in range(g.n):
        ours, plain = _Budget(10**7, None), _Budget(10**7, None)
        got = _decide_width(g, k, ours, images)
        want = _decide_width(g, k, plain, identity_images(g))
        assert got == want and ours.states <= plain.states, (g, k)


def test_symmetric_memo_matches_identity_search():
    rng = random.Random(17)
    for g in family_graphs(20):
        assert_symmetric_memo_matches_identity_search(g)
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert_symmetric_memo_matches_identity_search(g.relabeled(perm))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(connected_graphs(max_n=9))
def test_symmetric_memo_on_random_graphs(g):
    assume(len(automorphism_group(g)) > 1)
    assert_symmetric_memo_matches_identity_search(g)


def random_connected_graph(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return edges


# 12 vertices and 25 edges, of treewidth 4: below the T4,3 interval [5, 6]
FALSE_TORUS = [(0, 1), (0, 2), (0, 5), (0, 6), (0, 7), (0, 9), (1, 4), (1, 5), (1, 6),
               (1, 10), (2, 3), (2, 4), (2, 8), (2, 10), (3, 5), (3, 11), (4, 5), (4, 6),
               (4, 7), (4, 8), (4, 11), (5, 7), (6, 9), (7, 10), (8, 11)]


def test_unverified_metadata_is_not_trusted():
    # a label that does not fit the edges is refused where the Graph is
    # built, so no search, generator or claim can read it
    lying = FamilyMeta("toroidal_grid", 4, 3)
    with pytest.raises(InvalidFamilyError, match="not those of toroidal_grid 4 3"):
        Graph(12, FALSE_TORUS, lying)
    res = exact_treewidth(Graph(12, FALSE_TORUS))
    assert (res.proof_status, res.treewidth) == ("exact", 4)
    rng = random.Random(5)
    for _ in range(300):
        with pytest.raises(InvalidFamilyError):
            Graph(12, random_connected_graph(rng, 12, 0.25), lying)


# --- covering bags ----------------------------------------------------------------


def test_covering_bag_grid():
    g = make_family("grid", 3, 3)
    td = exact_treewidth(g).decomposition
    b = gen_grid_bramble(g)
    hit = covering_bag(td, b)
    assert td.bags[hit.node] == hit.bag
    assert all(hit.bag & e for e in b.elements)


def test_covering_bag_torus():
    g = make_family("toroidal_grid", 4, 3)
    td = exact_treewidth(g).decomposition
    b = gen_torus_fg(g)
    hit = covering_bag(td, b)
    assert all(hit.bag & e for e in b.elements)
    assert hit.bag.bit_count() >= min_hitting_set(b).order


def test_covering_bag_refusals():
    # on P3 with bags {0, 1} and {1, 2}: a decomposition that fails a
    # condition is refused, and a family whose elements {0} and {2} do not
    # touch, so no bag meets both, is no bramble
    td = TreeDecomposition((mask(0, 1), mask(1, 2)), ((0, 1),), 3)
    uncovered = TreeDecomposition((mask(0, 1), mask(2)), ((0, 1),), 3)
    with pytest.raises(DecompositionError, match="condition 2 fails"):
        covering_bag(uncovered, Bramble.from_elements(P3, [mask(1)]))
    with pytest.raises(RuntimeError, match="not a bramble"):
        covering_bag(td, Bramble.from_elements(P3, [mask(0), mask(2)]))
    assert covering_bag(td, Bramble.from_elements(P3, [mask(0, 1), mask(2)])).node == 1


# --- family claims and their witnesses --------------------------------------------


# one graph per row of the claims table: interval, witness generator, style
CLAIMS_TABLE = [
    (("grid", 3, 4), (3, 3, gen_grid_bramble, None)),
    (("grid", 1, 4), (1, 1, None, None)),
    (("grid", 1, 1), (0, 0, None, None)),
    (("stacked_prism", 7, 3), (6, 6, gen_prism_b1, "row_twos")),
    (("stacked_prism", 5, 3), (5, 5, gen_prism_b2, "column_ones")),
    (("stacked_prism", 6, 3), (5, 6, gen_prism_collapsed, "column_ones")),
    (("toroidal_grid", 6, 3), (6, 6, gen_torus_cde, "row_twos")),
    (("toroidal_grid", 3, 6), (6, 6, None, "column_twos")),
    (("toroidal_grid", 4, 4), (6, 7, None, "row_twos")),
    (("toroidal_grid", 4, 3), (5, 6, gen_torus_fg, "row_twos")),
    (("toroidal_grid", 3, 4), (5, 6, None, "column_twos")),
]


@pytest.mark.parametrize("family, want", CLAIMS_TABLE,
                         ids=[f"{k}-{m}-{n}" for (k, m, n), _ in CLAIMS_TABLE])
def test_family_claims_table(family, want):
    claims = family_claims(make_family(*family))
    assert (claims.low, claims.high, claims.witness, claims.style) == want


def test_family_claims_hold_on_small_family_graphs():
    # every family graph up to 20 vertices: the exact width lies in the
    # claimed interval, the witness is checked below it, and the stock
    # divisor wins
    for g in family_graphs(20):
        claims = family_claims(g)
        res = exact_treewidth(g, witness=family_bramble(g))
        assert res.proof_status == "exact", g
        assert res.witness_lower <= claims.low <= res.treewidth <= claims.high, g
        if claims.style is not None:
            assert is_winning_divisor(g, gen_winning_divisor(g, claims.style))[0], g


def test_family_claims_refuse_unverified_metadata():
    # FALSE_TORUS has treewidth 4, below the torus interval [5, 6]: a torus
    # label on it is refused where the Graph is built, and without one no
    # caller gets a claim, a bramble or a divisor over rows that are not there
    with pytest.raises(InvalidFamilyError, match="not those of toroidal_grid 4 3"):
        Graph(12, FALSE_TORUS, FamilyMeta("toroidal_grid", 4, 3))
    g = Graph(12, FALSE_TORUS)
    winning = partial(gen_winning_divisor, style="row_twos")
    for call in (family_claims, family_bramble, gen_torus_fg, winning):
        with pytest.raises(InvalidFamilyError):
            call(g)
    with pytest.raises(InvalidFamilyError):
        family_claims(Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]))
    # a labelled cycle is the prism Y5,1, whose claims hold: tw 2, gon 2
    claims = family_claims(make_family("stacked_prism", 5, 1))
    assert (claims.low, claims.high, claims.style) == (2, 2, "row_twos")


def test_family_witness_grid_and_prism():
    g = make_family("grid", 3, 4)
    claims, b = family_claims(g), family_bramble(g)
    res = exact_treewidth(g, witness=b)
    assert (claims.low, claims.high, res.treewidth) == (3, 3, 3)
    assert claims.witness is gen_grid_bramble and res.witness_lower == 2
    assert min_hitting_set(b).order == 3
    g = make_family("stacked_prism", 7, 2)
    claims = family_claims(g)
    res = exact_treewidth(g, witness=family_bramble(g))
    assert (claims.low, claims.high, res.proof_status, res.treewidth) == (4, 4, "exact", 4)


def test_family_witness_open_interval_prism():
    g = make_family("stacked_prism", 4, 2)
    claims, b = family_claims(g), family_bramble(g)
    res = exact_treewidth(g, witness=b)
    assert (claims.low, claims.high) == (3, 4)
    assert claims.witness is gen_prism_collapsed and res.witness_lower == 2
    assert min_hitting_set(b).order == 3
    assert res.proof_status == "exact" and claims.low <= res.treewidth <= claims.high


def test_family_witness_square_torus():
    g = make_family("toroidal_grid", 4, 4)
    claims = family_claims(g)
    assert (claims.low, claims.high) == (6, 7)
    assert family_bramble(g) is None
    res = exact_treewidth(g)
    assert (res.proof_status, res.treewidth) == ("exact", 6)


def test_family_witness_torus_margin_two():
    # the stock four-piece torus family tops out at order 5 on this instance,
    # one short of the predicted width; the exact solver still lands inside
    g = make_family("toroidal_grid", 5, 3)
    claims, b = family_claims(g), family_bramble(g)
    res = exact_treewidth(g, witness=b)
    assert (claims.low, claims.high, res.proof_status, res.treewidth) == (6, 6, "exact", 6)
    assert claims.witness is gen_torus_cde and res.witness_lower == 4
    assert min_hitting_set(b).order == 5


# --- .td format ----------------------------------------------------------------------


def test_td_round_trip_byte_identical():
    for g in (make_family("grid", 3, 3), make_family("toroidal_grid", 4, 3)):
        td = exact_treewidth(g).decomposition
        text = write_td(td)
        assert write_td(read_td(text)) == text


def test_td_round_trip_preserves_validity():
    g = make_family("stacked_prism", 5, 3)
    td = exact_treewidth(g).decomposition
    again = read_td(write_td(td))
    assert validate_tree_decomposition(g, again).valid
    assert again.width == td.width


def test_td_rejections():
    with pytest.raises(TdFormatError):
        read_td("b 1 1 2\n")  # bag before header
    with pytest.raises(TdFormatError):
        read_td("s td 2 2 3\nb 1 1 2\n")  # missing bag 2
    with pytest.raises(TdFormatError):
        read_td("s td 1 2 3\nb 1 1 2\nb 1 2 3\n")  # repeated bag id
    with pytest.raises(TdFormatError):
        read_td("s td 1 2 3\nb 2 1 2\n")  # bag id out of range
    with pytest.raises(TdFormatError):
        read_td("s td 1 2 3\nb 1 1 4\n")  # vertex out of range
    with pytest.raises(TdFormatError):
        read_td("s td 1 3 3\nb 1 1 2\n")  # declared bag size wrong
    with pytest.raises(TdFormatError):
        read_td("s td 2 2 3\ns td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")  # two headers
    with pytest.raises(TdFormatError, match="line 1"):
        read_td("s td 1 2 x\n")  # vertex count not a number
    with pytest.raises(TdFormatError, match="line 2"):
        read_td("s td 1 2 3\nb\n")  # bag line without an id
    with pytest.raises(TdFormatError, match="line 2"):
        read_td("s td 1 3 3\nb 1 1 2 +3\n")  # a plus sign
    with pytest.raises(TdFormatError, match="line 4"):
        read_td("s td 1 3 3\nc a comment\n\nb 1 1 2 +3\n")  # skipped lines count
    with pytest.raises(TdFormatError, match="line 1"):
        read_td("s td 1 2 1_0\nb 1 1 2\n")  # an underscore
    with pytest.raises(TdFormatError):
        read_td("s td 0 0 2\n")  # no bags
    with pytest.raises(TdFormatError, match="line 1: negative vertex count"):
        read_td("s td 1 0 -3\nb 1\n")
    with pytest.raises(TdFormatError, match="line 1: expected 's td"):
        read_td("s td 1 2\nb 1 1 2\n")
    with pytest.raises(TdFormatError, match="line 4: expected tree edge"):
        read_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2 2\n")
    with pytest.raises(TdFormatError, match="line 4: tree edge out of range"):
        read_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 3\n")
    with pytest.raises(TdFormatError, match="missing solution line"):
        read_td("c no decomposition here\n")
