"""Chip-firing: reduction, equivalence, the gonality game, divisor format."""

from __future__ import annotations

import hashlib
import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipwidth import chipfiring
from chipwidth.chipfiring import (
    ChipFiringError,
    Divisor,
    FiringScript,
    GonalityResult,
    apply_firing_script,
    exact_gonality,
    gen_winning_divisor,
    is_winning_divisor,
    q_reduce,
    read_divisor,
    write_divisor,
)
from chipwidth.graphs import (
    Graph,
    InvalidFamilyError,
    make_family,
)

C4 = make_family("stacked_prism", 4, 1)


def complete_graph(k: int) -> Graph:
    return Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


# --- divisors and scripts -------------------------------------------------------


def test_divisor_constructors():
    d = Divisor((0, 2, 0, -1))
    assert d.degree == 1
    assert not d.is_effective
    assert Divisor((0,) * C4.n).degree == 0
    # the length is checked where a divisor meets a graph
    with pytest.raises(ChipFiringError, match="divisor has 3 entries"):
        apply_firing_script(C4, Divisor((1, 2, 3)), FiringScript((0,) * C4.n))


def test_script_normalization():
    s = FiringScript((2, -1, 0, 3))
    assert s.normalized().counts == (3, 0, 1, 4)
    with pytest.raises(ChipFiringError, match="script has 2 entries"):
        apply_firing_script(C4, Divisor((0,) * C4.n), FiringScript((1, 2)))


def test_apply_single_fire():
    d = Divisor((3, 0, 0, 0))
    s = FiringScript((1, 0, 0, 0))
    assert apply_firing_script(C4, d, s).chips == (1, 1, 0, 1)


def test_apply_preserves_degree():
    d = Divisor((1, -2, 5, 0))
    s = FiringScript((4, 0, -3, 2))
    assert apply_firing_script(C4, d, s).degree == d.degree


def test_global_fire_is_identity():
    d = Divisor((1, 2, 0, -1))
    s = FiringScript((1, 1, 1, 1))
    assert apply_firing_script(C4, d, s).chips == d.chips


# --- q-reduction -----------------------------------------------------------------


def test_q_reduce_cycle_fixture():
    reduced, script = q_reduce(C4, Divisor((0, 1, 0, 1)), 0)
    assert reduced.chips == (2, 0, 0, 0)
    assert apply_firing_script(C4, Divisor((0, 1, 0, 1)), script).chips == reduced.chips
    assert min(script.counts) == 0


def test_q_reduce_handles_debt():
    p2 = make_family("grid", 2, 1)
    reduced, _ = q_reduce(p2, Divisor((0, -1)), 0)
    assert reduced.chips == (-1, 0)  # debt moves to q, the rest is effective


def test_q_reduce_idempotent():
    d = Divisor((5, -2, 1, 0))
    once, _ = q_reduce(C4, d, 0)
    twice, script = q_reduce(C4, once, 0)
    assert twice.chips == once.chips
    assert script.counts == (0, 0, 0, 0)


def test_q_reduce_other_base_vertex():
    reduced, _ = q_reduce(C4, Divisor((0, 1, 0, 1)), 2)
    assert reduced.chips == (0, 0, 2, 0)
    for q in (-1, 4):
        with pytest.raises(ChipFiringError, match="out of range"):
            q_reduce(C4, Divisor((0, 1, 0, 1)), q)


def test_equivalence_and_witness_script():
    # equivalent divisors have one reduced form at vertex 0, and the
    # difference of their reduction scripts moves the one to the other
    d1, d2 = Divisor((2, 0, 0, 0)), Divisor((0, 1, 0, 1))
    (r1, s1), (r2, s2) = q_reduce(C4, d1, 0), q_reduce(C4, d2, 0)
    assert r1.chips == r2.chips == (2, 0, 0, 0)
    script = FiringScript(tuple(a - b for a, b in zip(s1.counts, s2.counts)))
    assert apply_firing_script(C4, d1, script).chips == (0, 1, 0, 1)


def test_inequivalent_single_chips():
    # one chip on each of two vertices: the reduced forms at 0 differ
    r1, _ = q_reduce(C4, Divisor((1, 0, 0, 0)), 0)
    r2, _ = q_reduce(C4, Divisor((0, 1, 0, 0)), 0)
    assert r1.chips != r2.chips


# --- the gonality game -------------------------------------------------------------


def test_winning_checks_on_triangle():
    c3 = make_family("stacked_prism", 3, 1)
    wins, fail = is_winning_divisor(c3, Divisor((1, 1, 0)))
    assert wins and fail is None
    wins, fail = is_winning_divisor(c3, Divisor((1, 0, 0)))
    assert not wins and fail is not None
    with pytest.raises(ChipFiringError):
        is_winning_divisor(c3, Divisor((2, -1, 0)))


def test_gonality_small_graphs():
    assert exact_gonality(make_family("grid", 4, 1)).gonality == 1
    assert exact_gonality(C4).gonality == 2
    assert exact_gonality(make_family("stacked_prism", 5, 1)).gonality == 2
    assert exact_gonality(complete_graph(4)).gonality == 3


def test_gonality_prism_with_losing_proof():
    y = make_family("stacked_prism", 4, 2)
    res = exact_gonality(y)
    assert res.gonality == 4 and res.status == "exact"
    assert res.winning_divisor is not None
    assert is_winning_divisor(y, res.winning_divisor)[0]
    # everything one degree down loses, with a named refuting vertex each
    assert len(res.losing_proof) == comb(y.n + 2, 3)
    chips, fail_v = res.losing_proof[17]
    assert sum(chips) == 3 and 0 <= fail_v < y.n
    assert not is_winning_divisor(y, Divisor(chips))[0]


def test_gonality_budget_degrades_to_lower_bound(monkeypatch):
    monkeypatch.setattr(chipfiring, "ENUMERATION_CAP", 3)
    res = exact_gonality(C4)
    assert res.status == "lower_bound_only" and res.gonality is None
    assert res.lower == 1


@st.composite
def connected_graphs(draw, max_n: int = 9) -> Graph:
    n = draw(st.integers(1, max_n))
    # a random spanning tree keeps the graph connected; extra edges on top
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    pairs = list(itertools.combinations(range(n), 2))
    edges += draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph(n, edges)


@st.composite
def graphs_with_effective_divisors(draw) -> tuple[Graph, Divisor]:
    g = draw(connected_graphs())
    degree = draw(st.integers(0, 6))
    chips = [0] * g.n
    for v in draw(st.lists(st.integers(0, g.n - 1), min_size=degree, max_size=degree)):
        chips[v] += 1
    return g, Divisor(tuple(chips))


def rescan_reduce(g: Graph, chips: tuple[int, ...], q: int) -> tuple[int, ...]:
    """q-reduced form of a divisor that is effective off q, by a burning
    loop that rescans every unburnt vertex until the burnt set is stable."""
    chips = list(chips)
    while True:
        burnt = 1 << q
        growing = True
        while growing:
            growing = False
            for v in range(g.n):
                if not burnt >> v & 1 and chips[v] < (g.adj[v] & burnt).bit_count():
                    burnt |= 1 << v
                    growing = True
        if burnt == g.full_mask:
            return tuple(chips)
        for v in range(g.n):
            if not burnt >> v & 1:
                for u in g.neighbors(v):
                    if burnt >> u & 1:
                        chips[v] -= 1
                        chips[u] += 1


def reference_losing_vertex(g: Graph, d: Divisor) -> tuple[int | None, int]:
    """The game by definition: q-reduce d - (v) at every vertex v in turn,
    with q_reduce checked against rescan_reduce. Returns the first v left
    in debt (or None) and the reductions made at vertices with d(v) = 0."""
    reductions = 0
    for v in range(g.n):
        attacked = list(d.chips)
        attacked[v] -= 1
        reduced, _ = q_reduce(g, Divisor(tuple(attacked)), v)
        assert reduced.chips == rescan_reduce(g, tuple(attacked), v)
        reductions += d.chips[v] == 0
        if reduced.chips[v] < 0:
            return v, reductions
    return None, reductions


def reference_effective_divisors(n: int, degree: int):
    """Chip tuples of one degree in ascending lexicographic order, by the
    prefix recursion."""

    def rec(prefix, left, slots):
        if slots == 1:
            yield tuple(prefix + [left])
            return
        for c in range(left + 1):
            yield from rec(prefix + [c], left - c, slots - 1)

    yield from rec([], degree, n)


def reference_gonality(g: Graph) -> tuple[int, tuple[int, ...], list, int, int]:
    """Least winning degree by enumeration with reference_losing_vertex:
    (gonality, winner, losing proof one degree down, divisors checked,
    reductions at vertices with d(v) = 0)."""
    checked = reductions = 0
    last_losing: list = []
    for k in range(g.n + 1):
        losing = []
        for chips in reference_effective_divisors(g.n, k):
            checked += 1
            fail_v, made = reference_losing_vertex(g, Divisor(chips))
            reductions += made
            if fail_v is None:
                return k, chips, last_losing, checked, reductions
            losing.append((chips, fail_v))
        last_losing = losing
    raise AssertionError("one chip on every vertex always wins")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(graphs_with_effective_divisors())
def test_winning_test_matches_reduction_at_every_vertex(case):
    g, d = case
    fail_v, _ = reference_losing_vertex(g, d)
    assert is_winning_divisor(g, d) == (fail_v is None, fail_v)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(connected_graphs(max_n=6))
def test_gonality_matches_reference_enumeration(g):
    gon, winner, losing, checked, reductions = reference_gonality(g)
    res = exact_gonality(g)
    assert res.status == "exact" and res.gonality == gon == res.lower
    assert res.winning_divisor == Divisor(winner)
    assert list(res.losing_proof) == losing
    assert res.divisors_checked == checked
    assert res.reductions == reductions


def effective_divisors(n: int, degree: int, run: int | None = None) -> list[tuple[int, ...]]:
    """Every divisor of one degree from chipfiring._divisor_rows, built in
    runs of `run` rows (one run when None) and cut into chip tuples."""
    count = comb(n + degree - 1, degree)
    run = run or count
    sums = itertools.combinations_with_replacement(range(degree + 1), n - 1)
    data = b"".join(chipfiring._divisor_rows(sums, degree, min(run, count - done))
                    for done in range(0, count, run))
    return list(zip(*[iter(data)] * n))


def test_effective_divisor_order_unchanged():
    # n = 1 and degree 0 are in the ranges; degree 255 fills a byte lane, so
    # a borrow between lanes would show there
    cases = [(n, degree) for n in range(1, 9) for degree in range(7)] + [(1, 255), (2, 255)]
    for n, degree in cases:
        want = list(reference_effective_divisors(n, degree))
        assert effective_divisors(n, degree) == want
        assert effective_divisors(n, degree, run=5) == want
        assert len(want) == comb(n + degree - 1, degree)


@pytest.mark.parametrize("kind,m,n,reductions", [
    # the q_reduce calls of one reduction at every vertex, minus those at
    # vertices with d(v) >= 1: 240 - 60 and 3,194 - 1,071
    ("stacked_prism", 4, 2, 180),
    ("toroidal_grid", 3, 3, 2123),
])
def test_reductions_counter_pinned(kind, m, n, reductions):
    g = make_family(kind, m, n)
    assert exact_gonality(g).reductions == reductions
    assert reference_gonality(g)[4] == reductions


def scalar_gonality(g: Graph, max_degree: int | None = None) -> GonalityResult:
    """exact_gonality with one scalar winning test per divisor, as it ran
    before the bit-sliced first burn: the reference for the batched one."""
    nbrs = chipfiring._neighbor_lists(g, "the gonality game")
    if max_degree is None:
        max_degree = g.n
    checked = 0
    reductions = 0
    last_losing: list = []
    for k in range(max_degree + 1):
        count = comb(g.n + k - 1, k) if k else 1
        if checked + count > chipfiring.ENUMERATION_CAP:
            return GonalityResult(None, "lower_bound_only", None,
                                  tuple(last_losing), k, checked, reductions)
        losing = []
        for chips in effective_divisors(g.n, k):
            checked += 1
            fail_v = chipfiring._losing_vertex(nbrs, chips)
            if fail_v is None:
                reductions += chips.count(0)
                return GonalityResult(k, "exact", Divisor(chips),
                                      tuple(last_losing), k, checked, reductions)
            reductions += chips[:fail_v + 1].count(0)
            losing.append((chips, fail_v))
        last_losing = losing
    return GonalityResult(None, "lower_bound_only", None,
                          tuple(last_losing), max_degree + 1, checked, reductions)


def random_connected_graph(rng: random.Random) -> Graph:
    n = rng.randint(7, 12)
    edges = {(rng.randrange(v), v) for v in range(1, n)}  # a spanning tree
    p = rng.uniform(0.1, 0.45)
    edges |= {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    return Graph(n, sorted(edges))


def wheel_with_leaves(rim: int, leaves: int) -> Graph:
    """Hub 0 on a rim cycle 1..rim, plus a pendant vertex on each of the
    first `leaves` rim vertices."""
    edges = [(0, v) for v in range(1, rim + 1)]
    edges += [(v, v % rim + 1) for v in range(1, rim + 1)]
    edges += [(v, rim + v) for v in range(1, leaves + 1)]
    return Graph(rim + leaves + 1, edges)


def clique_with_tail(k: int, tail: int) -> Graph:
    """K_k with a path of `tail` more vertices hanging off vertex k - 1."""
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(v, v + 1) for v in range(k - 1, k + tail - 1)]
    return Graph(k + tail, edges)


def test_batched_gonality_matches_scalar_loop(monkeypatch):
    first_burn = chipfiring._first_burn
    marks = {"0": 0, "1": 0}

    def counted(nbrs, data, k):
        settled = first_burn(nbrs, data, k)
        marks["0"] += settled.count("0")
        marks["1"] += settled.count("1")
        return settled

    monkeypatch.setattr(chipfiring, "_first_burn", counted)
    rng = random.Random(20)
    graphs = [random_connected_graph(rng) for _ in range(40)]
    # degree-1 vertices beside hubs of degree 5 to 8
    graphs += [wheel_with_leaves(8, 3), wheel_with_leaves(5, 5), clique_with_tail(6, 2)]
    for g in graphs:
        res = exact_gonality(g)
        assert res == scalar_gonality(g)
        assert res.status == "exact"
        low = exact_gonality(g, max_degree=res.gonality - 1)
        assert low == scalar_gonality(g, max_degree=res.gonality - 1)
        assert low.status == "lower_bound_only"
    # runs were burnt, and some of their divisors fell back to the scalar test
    assert marks["1"] > 10_000 and marks["0"] > 1_000


@pytest.mark.parametrize("kind,m,n", [
    ("stacked_prism", 4, 2),
    ("toroidal_grid", 3, 3),
    ("toroidal_grid", 4, 3),
    ("stacked_prism", 5, 3),
    ("toroidal_grid", 5, 3),
])
def test_batched_gonality_matches_scalar_loop_on_families(kind, m, n):
    g = make_family(kind, m, n)
    assert exact_gonality(g) == scalar_gonality(g)


@pytest.mark.parametrize("length", [64, 65, 128, 129])
def test_batched_gonality_matches_scalar_loop_at_run_boundaries(length):
    # the cycle's length is its degree-1 count: exactly the head, the head
    # and one divisor more, the head and one run, and one divisor past that
    g = make_family("stacked_prism", length, 1)
    assert exact_gonality(g) == scalar_gonality(g)


@pytest.mark.parametrize("kind,m,n,digest,checked,reductions", [
    # recorded before the bit-sliced first burn: sha256 of repr(losing_proof)
    ("toroidal_grid", 4, 3,
     "c5b681b273b4a627beb8ebc939ac822aaff715153857b9cce6759131504f8a5d", 6204, 6359),
    ("stacked_prism", 5, 3,
     "f671a18e4c17c1bc9ca751f548ac043d455de9a8368977ee5897727dd1884237", 8802, 9082),
    ("toroidal_grid", 5, 3,
     "58fb1d19d9831b02974273c565bb2e637c4a2d984aed2730514d7d3a9e0ae9ce", 15520, 15714),
], ids=["T4,3", "Y5,3", "T5,3"])
def test_losing_proof_pinned(kind, m, n, digest, checked, reductions):
    res = exact_gonality(make_family(kind, m, n))
    assert hashlib.sha256(repr(res.losing_proof).encode()).hexdigest() == digest
    assert (res.divisors_checked, res.reductions) == (checked, reductions)


@pytest.mark.parametrize("kind,m,n", [("toroidal_grid", 4, 3), ("toroidal_grid", 5, 3)])
def test_first_burn_settles_most_divisors(monkeypatch, kind, m, n):
    losing_vertex = chipfiring._losing_vertex
    calls = 0

    def counted(nbrs, chips):
        nonlocal calls
        calls += 1
        return losing_vertex(nbrs, chips)

    monkeypatch.setattr(chipfiring, "_losing_vertex", counted)
    res = exact_gonality(make_family(kind, m, n))
    # 469 of 6,204 and 607 of 15,520 reach the scalar test
    assert 0 < calls * 10 < res.divisors_checked


def test_negative_max_degree_refused():
    with pytest.raises(ChipFiringError, match="max_degree"):
        exact_gonality(C4, max_degree=-1)
    assert exact_gonality(C4, max_degree=0).lower == 1


def test_gonality_t44_exact_with_full_losing_proof():
    t44 = make_family("toroidal_grid", 4, 4)
    res = exact_gonality(t44)
    assert res.status == "exact" and res.gonality == 8 and res.lower == 8
    assert res.divisors_checked == 245254 and res.reductions == 254135
    winner = res.winning_divisor
    assert winner.degree == 8 and is_winning_divisor(t44, winner) == (True, None)
    proof = res.losing_proof
    assert len(proof) == comb(t44.n + 6, 7) == 170544
    assert len({chips for chips, _ in proof}) == len(proof)
    assert all(sum(chips) == 7 and min(chips) >= 0 and chips[v] == 0 for chips, v in proof)
    for chips, v in random.Random(44).sample(proof, 16):
        attacked = list(chips)
        attacked[v] -= 1
        reduced, _ = q_reduce(t44, Divisor(tuple(attacked)), v)
        assert reduced.chips[v] < 0


def test_disconnected_graph_refused():
    two_edges = Graph(4, [(0, 1), (2, 3)])
    with pytest.raises(ChipFiringError):
        is_winning_divisor(two_edges, Divisor((1, 0, 1, 0)))
    with pytest.raises(ChipFiringError):
        exact_gonality(two_edges)
    with pytest.raises(ChipFiringError):
        q_reduce(two_edges, Divisor((0,) * two_edges.n), 0)


def test_winning_generators_families():
    cases = [
        ("stacked_prism", 5, 3, "column_ones", 5),
        ("stacked_prism", 5, 3, "row_twos", 6),
        ("stacked_prism", 7, 2, "row_twos", 4),
        ("toroidal_grid", 4, 3, "row_twos", 6),
        ("toroidal_grid", 4, 3, "column_twos", 8),
        ("toroidal_grid", 5, 3, "row_twos", 6),
    ]
    for kind, m, n, style, degree in cases:
        g = make_family(kind, m, n)
        d = gen_winning_divisor(g, style)
        assert d.degree == degree
        assert is_winning_divisor(g, d)[0]


def test_winning_generator_index_shift():
    g = make_family("stacked_prism", 5, 3)
    d = gen_winning_divisor(g, "column_ones", index=2)
    assert d.degree == 5 and is_winning_divisor(g, d)[0]


def test_winning_generator_rejections():
    with pytest.raises(InvalidFamilyError):
        gen_winning_divisor(make_family("toroidal_grid", 4, 3), "column_ones")
    with pytest.raises(InvalidFamilyError):
        gen_winning_divisor(make_family("grid", 3, 3), "row_twos")
    c5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    with pytest.raises(InvalidFamilyError, match="needs a family graph"):
        gen_winning_divisor(c5, "row_twos")
    with pytest.raises(InvalidFamilyError, match="column index 3 out of range for n=3"):
        gen_winning_divisor(make_family("stacked_prism", 5, 3), "column_ones", index=3)
    with pytest.raises(InvalidFamilyError, match="row index -1 out of range for m=4"):
        gen_winning_divisor(make_family("toroidal_grid", 4, 3), "row_twos", index=-1)
    # a labelled cycle is the prism Y5,1, whose one-vertex rows take two chips
    y51 = make_family("stacked_prism", 5, 1)
    assert gen_winning_divisor(y51, "row_twos", index=4).chips == (0, 0, 0, 0, 2)


# --- divisor file format -----------------------------------------------------------------


def test_divisor_format_round_trip():
    d = Divisor((2, 0, -1, 3))
    text = write_divisor(C4, d)
    assert read_divisor(text, C4).chips == d.chips
    assert write_divisor(C4, read_divisor(text, C4)) == text


def test_divisor_format_rejections():
    with pytest.raises(ChipFiringError):
        read_divisor("d 4 2\n1 1\n", C4)  # declared degree wrong
    with pytest.raises(ChipFiringError):
        read_divisor("d 5 1\n1 1\n", C4)  # vertex count mismatch
    with pytest.raises(ChipFiringError):
        read_divisor("d 4 2\n1 1\n1 1\n", C4)  # vertex assigned twice
    with pytest.raises(ChipFiringError):
        read_divisor("d 4 1\n9 1\n", C4)  # vertex out of range
    with pytest.raises(ChipFiringError, match="line 1: expected 'd <vertices> <degree>'"):
        read_divisor("1 1\n", C4)  # a body line before the header
    with pytest.raises(ChipFiringError, match="missing header line"):
        read_divisor("c no divisor here\n", C4)
    with pytest.raises(ChipFiringError, match="line 2: expected '<vertex> <chips>'"):
        read_divisor("d 4 1\n1 1 1\n", C4)
    with pytest.raises(ChipFiringError, match="line 1"):
        read_divisor("d 2 x\n", C4)  # degree not a number
    with pytest.raises(ChipFiringError, match="line 1"):
        read_divisor("d 4 1_0\n1 1_0\n", C4)  # underscores
    with pytest.raises(ChipFiringError, match="line 2"):
        read_divisor("d 4 3\n1 +3\n", C4)  # a plus sign
    with pytest.raises(ChipFiringError, match="line 4"):
        read_divisor("d 4 3\nc a comment\n\n1 +3\n", C4)  # skipped lines count
    with pytest.raises(ChipFiringError, match="line 2"):
        read_divisor("d 4 3\n1 \u0663\n", C4)  # ARABIC-INDIC DIGIT THREE
    assert read_divisor("d 4 -1\n1 -1\n", C4).chips == (-1, 0, 0, 0)  # chips stay signed
