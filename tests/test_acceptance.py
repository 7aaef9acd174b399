"""Acceptance criteria, one test and one printed PASS/FAIL line per criterion.

Every numeric check is exact integer equality.
"""

from __future__ import annotations

import random
from math import comb

from chipwidth.brambles import (
    Bramble,
    classify_family,
    gen_balanced_bramble,
    gen_grid_bramble,
    gen_prism_b1,
    gen_prism_b2,
    gen_torus_cde,
    gen_torus_fg,
    min_hitting_set,
    sets_touch,
)
from chipwidth.chipfiring import (
    Divisor,
    FiringScript,
    apply_firing_script,
    exact_gonality,
    gen_winning_divisor,
    is_winning_divisor,
    q_reduce,
)
from chipwidth.graphs import (
    Graph,
    bits_list,
    make_family,
    read_gr,
    write_gr,
)
from chipwidth.treewidth import (
    SolverLimits,
    TreeDecomposition,
    covering_bag,
    exact_treewidth,
    min_fill_order,
    decomposition_from_elimination_order,
    family_bramble,
    family_claims,
    read_td,
    validate_tree_decomposition,
    write_td,
)

from oracles import hitting_set_oracle


def _finish(number: int, name: str, failures: list[str]) -> None:
    verdict = "PASS" if not failures else "FAIL [" + "; ".join(failures) + "]"
    print(f"ACCEPTANCE {number} ({name}): {verdict}")
    assert not failures, f"criterion {number} ({name}): " + "; ".join(failures)


def _check(failures: list[str], ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)


def fam(kind: str, m: int, n: int) -> Graph:
    return make_family(kind, m, n)


# --- criterion 1: treewidth benchmarks ------------------------------------------


def test_criterion_1_treewidth_benchmarks():
    failures: list[str] = []
    fixtures = [
        ("grid", 3, 3, 3),
        ("stacked_prism", 4, 2, 3),
        ("stacked_prism", 6, 3, 6),
        ("toroidal_grid", 4, 3, 5),
        ("toroidal_grid", 5, 4, 8),
    ]
    for kind, m, n, want in fixtures:
        res = exact_treewidth(fam(kind, m, n))
        label = f"tw({kind} {m},{n})"
        _check(failures, res.proof_status == "exact", f"{label} not exact")
        _check(failures, res.treewidth == want, f"{label} = {res.treewidth}, want {want}")
        _check(failures, res.elapsed <= 60.0, f"{label} took {res.elapsed:.1f}s")
        _check(failures,
               validate_tree_decomposition(fam(kind, m, n), res.decomposition).valid,
               f"{label} decomposition invalid")

    # stretch instance: 32 vertices, searched under a wall budget; an
    # interval answer is acceptable as long as it pins 8 inside
    big = fam("stacked_prism", 8, 4)
    # the witness is prism_b2 of Y7,4 lifted through a row merge: checked on
    # Y8,4 itself, a strict bramble of order 7, so tw >= 6 by duality
    res = exact_treewidth(big, SolverLimits(time_budget=45.0), family_bramble(big))
    _check(failures, res.witness_lower == 6, f"Y8,4 witness proves {res.witness_lower}")
    _check(failures, res.lower >= 6, f"Y8,4 lower {res.lower} below its witness")
    if res.proof_status == "exact":
        _check(failures, res.treewidth == 8, f"tw(Y8,4) = {res.treewidth}, want 8")
    else:
        _check(failures, res.lower <= 8 <= res.upper,
               f"tw(Y8,4) bounds [{res.lower},{res.upper}] exclude 8")
    _finish(1, "treewidth benchmarks", failures)


# --- criterion 2: width formula spot checks --------------------------------------


def test_criterion_2_width_formula_spot_checks():
    failures: list[str] = []
    cases = [
        ("stacked_prism", 7, 2, min(7, 2 * 2)),
        ("stacked_prism", 5, 3, min(5, 2 * 3)),
        ("toroidal_grid", 5, 3, 2 * min(5, 3)),
    ]
    for kind, m, n, want in cases:
        res = exact_treewidth(fam(kind, m, n))
        _check(failures, res.proof_status == "exact" and res.treewidth == want,
               f"tw({kind} {m},{n}) = {res.treewidth}, want {want}")
        _check(failures, res.elapsed <= 120.0, f"tw({kind} {m},{n}) too slow")
    _finish(2, "width formula spot checks", failures)


# --- criterion 3: bramble order certificates ---------------------------------------


def test_criterion_3_bramble_order_certificates():
    failures: list[str] = []
    cases = [
        ("grid", gen_grid_bramble, 3, 4, 3, True),
        ("stacked_prism", gen_prism_b1, 7, 3, 6, True),
        ("stacked_prism", gen_prism_b2, 5, 3, 5, True),
        ("toroidal_grid", gen_balanced_bramble, 5, 3, 6, True),
        ("toroidal_grid", gen_torus_fg, 4, 3, 6, False),
    ]
    for kind, gen, m, n, want_order, want_strict in cases:
        g = fam(kind, m, n)
        b = gen(g)
        cls = classify_family(g, b.elements)
        want_verdict = "strict_bramble" if want_strict else "bramble"
        _check(failures, cls.verdict == want_verdict,
               f"{gen.__name__} on {kind} {m},{n}: classified {cls.verdict}")
        cert = min_hitting_set(b)
        _check(failures, cert.order == want_order,
               f"{gen.__name__} on {kind} {m},{n}: order {cert.order}, want {want_order}")
    _finish(3, "bramble order certificates", failures)


# --- criterion 4: duality between brambles and decompositions ------------------------


def test_criterion_4_bramble_decomposition_duality():
    failures: list[str] = []
    pairs = [
        ("grid", 3, 3, gen_grid_bramble),
        ("grid", 3, 4, gen_grid_bramble),
        ("stacked_prism", 7, 2, gen_prism_b1),
        ("stacked_prism", 7, 3, gen_prism_b1),
        ("stacked_prism", 5, 3, gen_prism_b2),
        ("toroidal_grid", 5, 3, gen_torus_cde),
        ("toroidal_grid", 4, 3, gen_torus_fg),
        ("toroidal_grid", 5, 4, gen_torus_fg),
    ]
    for kind, m, n, gen in pairs:
        g = fam(kind, m, n)
        label = f"{kind} {m},{n}"
        b = gen(g)
        res = exact_treewidth(g)
        order = min_hitting_set(b).order
        strict = classify_family(g, b.elements).verdict == "strict_bramble"
        _check(failures, order - 1 <= res.treewidth,
               f"{label}: order {order} - 1 exceeds tw {res.treewidth}")
        # an observation on these fixtures, not duality: a strict bramble
        # can reach order tw + 1 (STRICT_OVERSHOOT in test_treewidth.py)
        if strict:
            _check(failures, order <= res.treewidth,
                   f"{label}: strict order {order} exceeds tw {res.treewidth}")
        # the theorem: strict order <= gon <= the degree of a winning divisor
        style = family_claims(g).style
        if strict and style is not None:
            d = gen_winning_divisor(g, style)
            _check(failures, is_winning_divisor(g, d)[0],
                   f"{label}: stock {style} divisor does not win")
            _check(failures, order <= d.degree,
                   f"{label}: strict order {order} exceeds gon <= {d.degree}")
        hit = covering_bag(res.decomposition, b)
        _check(failures, all(hit.bag & e for e in b.elements),
               f"{label}: covering bag misses an element")
    _finish(4, "bramble vs decomposition duality", failures)


# --- criterion 5: gonality ------------------------------------------------------------


def test_criterion_5_gonality():
    failures: list[str] = []

    y42 = fam("stacked_prism", 4, 2)
    res = exact_gonality(y42)
    _check(failures, res.status == "exact" and res.gonality == 4,
           f"gon(Y4,2) = {res.gonality}, want 4")
    _check(failures, len(res.losing_proof) == comb(y42.n + 2, 3),
           f"degree-3 losing proof has {len(res.losing_proof)} entries")
    _check(failures, all(sum(chips) == 3 for chips, _ in res.losing_proof),
           "losing proof entry with wrong degree")
    sampled = res.losing_proof[:: max(1, len(res.losing_proof) // 10)]
    _check(failures,
           all(not is_winning_divisor(y42, Divisor(chips))[0] for chips, _ in sampled),
           "sampled losing entry actually wins")

    t33 = fam("toroidal_grid", 3, 3)
    res33 = exact_gonality(t33)
    _check(failures, res33.status == "exact" and res33.gonality == 6,
           f"gon(T3,3) = {res33.gonality}, want 6")

    winners = [
        ("stacked_prism", 5, 3, ("column_ones", "row_twos")),
        ("stacked_prism", 7, 2, ("column_ones", "row_twos")),
        ("toroidal_grid", 4, 3, ("row_twos", "column_twos")),
        ("toroidal_grid", 5, 3, ("row_twos", "column_twos")),
    ]
    for kind, m, n, styles in winners:
        g = fam(kind, m, n)
        for style in styles:
            d = gen_winning_divisor(g, style)
            _check(failures, is_winning_divisor(g, d)[0],
                   f"{style} loses on {kind} {m},{n}")

    # width never exceeds gonality where both are known exactly
    for g, gon in ((y42, 4), (t33, 6)):
        tw = exact_treewidth(g).treewidth
        _check(failures, tw <= gon, f"tw {tw} exceeds gon {gon}")
    _finish(5, "gonality", failures)


# --- criterion 6: randomized oracle property suites -------------------------------------


def _random_connected_graph(rng: random.Random, n: int) -> Graph:
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        a, b = order[rng.randrange(i)], order[i]
        edges.add((min(a, b), max(a, b)))
    for _ in range(rng.randrange(n)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return Graph(n, sorted(edges))


def _random_connected_set(rng: random.Random, g: Graph) -> int:
    want = rng.randint(1, max(1, g.n // 2))
    s = 1 << rng.randrange(g.n)
    while s.bit_count() < want:
        outside = bits_list(g.neighborhood(s) & ~s)
        if not outside:
            break
        s |= 1 << rng.choice(outside)
    return s


def _random_bramble(rng: random.Random, g: Graph) -> Bramble | None:
    want = rng.randint(3, 8)
    elements: list[int] = []
    for _ in range(60):
        s = _random_connected_set(rng, g)
        if s not in elements and all(sets_touch(g, s, e) for e in elements):
            elements.append(s)
            if len(elements) == want:
                break
    if len(elements) < 2:
        return None
    return Bramble.from_elements(g, elements)


def _subset_outdegrees(g: Graph, q: int) -> list[tuple[int, list[int]]]:
    """For each nonempty vertex subset avoiding q, the per-member count of
    edges leaving the subset. A subset can fire legally iff every member
    holds at least that many chips."""
    others = [v for v in range(g.n) if v != q]
    table = []
    for bits in range(1, 1 << len(others)):
        s = 0
        for i, v in enumerate(others):
            if bits >> i & 1:
                s |= 1 << v
        need = [(g.adj[v] & ~s).bit_count() for v in bits_list(s)]
        table.append((s, need))
    return table


def _oracle_reduce(g: Graph, d: Divisor, q: int,
                   table: list[tuple[int, list[int]]]) -> tuple[tuple[int, ...], list[int]]:
    """Reduce by iterated bounded searches, no burning traversal.

    Debt clearing fires the ball around q just inside the farthest layer
    still in debt; every debt vertex on that layer has an inward neighbor,
    so the farthest debt distance strictly shrinks. Stabilisation then
    scans the full subset table and fires the union of every legally
    fireable subset until none remains."""
    chips = list(d.chips)
    script = [0] * g.n
    dist = [-1] * g.n
    dist[q] = 0
    frontier = [q]
    while frontier:
        nxt = []
        for u in frontier:
            for v in bits_list(g.adj[u]):
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt

    def fire(mask: int) -> None:
        for v in bits_list(mask):
            out = (g.adj[v] & ~mask).bit_count()
            chips[v] -= out
            script[v] += 1
            for u in bits_list(g.adj[v] & ~mask):
                chips[u] += 1

    for _ in range(100000):
        debt = [v for v in range(g.n) if v != q and chips[v] < 0]
        if not debt:
            break
        radius = max(dist[v] for v in debt) - 1
        fire(sum(1 << v for v in range(g.n) if dist[v] <= radius))
    else:
        raise AssertionError("debt clearing did not terminate")

    for _ in range(100000):
        fireable = 0
        for s, need in table:
            if all(chips[v] >= k for v, k in zip(bits_list(s), need)):
                fireable |= s
        if not fireable:
            break
        fire(fireable)
    else:
        raise AssertionError("stabilisation did not terminate")
    return tuple(chips), script


def test_criterion_6_property_suites():
    import numpy as np

    failures: list[str] = []
    rng = random.Random(20260814)

    # 6a: exact hitting sets against plain subset enumeration
    produced = 0
    while produced < 50:
        g = _random_connected_graph(rng, rng.randint(4, 12))
        b = _random_bramble(rng, g)
        if b is None:
            continue
        produced += 1
        cert = min_hitting_set(b)
        want = hitting_set_oracle(b.elements, g.n)[0]
        _check(failures, cert.order == want,
               f"hitting set {cert.order} vs oracle {want} on {g.n}v family")
        _check(failures, all(cert.witness & e for e in b.elements),
               "witness misses an element")

    # 6b: q-reduction against iterated bounded script searches that never
    # run the burning traversal, plus direct Laplacian algebra on both
    # scripts
    for trial in range(30):
        g = _random_connected_graph(rng, rng.randint(3, 8))
        d = Divisor(tuple(rng.randint(-2, 3) for _ in range(g.n)))
        q = 0
        reduced, script = q_reduce(g, d, q)
        table = _subset_outdegrees(g, q)
        oracle_chips, oracle_script = _oracle_reduce(g, d, q, table)
        _check(failures, reduced.chips == oracle_chips,
               f"trial {trial}: q_reduce {reduced.chips} vs oracle {oracle_chips}")

        lap = np.zeros((g.n, g.n), dtype=np.int64)
        for v in range(g.n):
            lap[v, v] = g.degree(v)
        for a, bvert in g.edges:
            lap[a, bvert] -= 1
            lap[bvert, a] -= 1
        for vec, target in ((script.counts, reduced.chips),
                            (tuple(oracle_script), oracle_chips)):
            moved = np.array(d.chips, dtype=np.int64) - lap @ np.array(vec)
            _check(failures, tuple(int(c) for c in moved) == target,
                   f"trial {trial}: script algebra mismatch")
        _check(failures, min(script.counts) == 0,
               f"trial {trial}: library script not normalized")
        shift = oracle_script[q] - script.counts[q]
        _check(failures,
               tuple(c + shift for c in script.counts) == tuple(oracle_script),
               f"trial {trial}: scripts differ beyond a constant shift")

        _check(failures,
               all(c >= 0 for v, c in enumerate(reduced.chips) if v != q),
               f"trial {trial}: reduced form in debt")
        _check(failures, not any(
            all(reduced.chips[v] >= k for v, k in zip(bits_list(s), need))
            for s, need in table),
               f"trial {trial}: reduced form admits a legal firing")

    # 6c: the reduced form is invariant under arbitrary firing scripts
    for trial in range(100):
        g = _random_connected_graph(rng, rng.randint(3, 8))
        d = Divisor(tuple(rng.randint(-2, 3) for _ in range(g.n)))
        s = FiringScript(tuple(rng.randint(-2, 2) for _ in range(g.n)))
        moved = apply_firing_script(g, d, s)
        _check(failures,
               q_reduce(g, d, 0)[0].chips == q_reduce(g, moved, 0)[0].chips,
               f"invariance trial {trial} differs")

    # 6d: the validator pins each decomposition condition separately
    p3 = Graph(3, [(0, 1), (1, 2)])
    bad1 = TreeDecomposition((0b011, 0b010), ((0, 1),), 3)
    bad2 = TreeDecomposition((0b011, 0b100), ((0, 1),), 3)
    bad3 = TreeDecomposition((0b011, 0b110, 0b001), ((0, 1), (1, 2)), 3)
    for td, want in ((bad1, 1), (bad2, 2), (bad3, 3)):
        report = validate_tree_decomposition(p3, td)
        _check(failures, not report.valid and report.condition == want,
               f"violation {want} not detected")
    _finish(6, "property suites", failures)


# --- criterion 7: format round trips ------------------------------------------------------


def test_criterion_7_format_round_trips():
    failures: list[str] = []
    graphs = [
        fam("grid", 3, 3), fam("grid", 3, 4),
        fam("stacked_prism", 4, 2), fam("stacked_prism", 6, 3),
        fam("stacked_prism", 7, 2), fam("stacked_prism", 5, 3),
        fam("stacked_prism", 7, 3), fam("stacked_prism", 8, 4),
        fam("toroidal_grid", 3, 3), fam("toroidal_grid", 4, 3),
        fam("toroidal_grid", 5, 3), fam("toroidal_grid", 5, 4),
        fam("toroidal_grid", 7, 3),
    ]
    for g in graphs:
        text = write_gr(g)
        _check(failures, write_gr(read_gr(text)) == text,
               f".gr round trip differs for {g.family}")
        if g.n <= 16:
            td = exact_treewidth(g).decomposition
        else:
            td = decomposition_from_elimination_order(g, min_fill_order(g)[0])
        td_text = write_td(td)
        _check(failures, write_td(read_td(td_text)) == td_text,
               f".td round trip differs for {g.family}")
    _finish(7, "format round trips", failures)
