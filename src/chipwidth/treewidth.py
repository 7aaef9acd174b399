"""Exact treewidth, tree decompositions, and the covering-bag argument.

The exact solver answers "is treewidth <= k" by depth-first search over
elimination prefixes with memoized failed states. Each state is the bitmask
of already-eliminated vertices S; the fill degree of a remaining vertex v is
the size of Q(S, v), its neighborhood in the elimination graph on the
vertices outside S. The search keeps that graph along the current path, as
QuickBB does (Gogate and Dechter, 2004): eliminating v turns Q(S, v) into a
clique, and the changed neighborhoods are restored on the way back.
Iterating k upward from a lower bound until the first success yields the
exact value together with a witness elimination order.

The search visits every feasible prefix at most once, which makes it the
classic subset dynamic program in top-down form. It also uses the
automorphism group of the graph, computed from its edges alone, so a
relabelled graph or one without family metadata gets the same symmetry: a
prefix whose image under some automorphism was refuted is skipped at every
depth. The path keeps the images of the prefix under the whole group, and a
refuted prefix is memoized by its mask and by the least of its images. That
memo also keeps one first move per orbit: the first moves go in ascending
order, so the least vertex of an orbit comes first, and once it is refuted
every other vertex of its orbit has the same key and is skipped uncounted.
Every group takes this one path. The identity alone is an image table of
one column, so a prefix's key is its mask and the memo is the plain one; a
group larger than graphs.MAX_GROUP_ORDER is replaced by the identity. The
image table is built once per graph, and only when a search runs; the group
may already have been built by the witness check, whose bramble symmetry
starts from it, and automorphism_group keeps it for the search to reuse.
Only infeasible subtrees are skipped, so the witness order, and with it the
decomposition, is the one the search finds without symmetry. It runs under
a state cap and a wall-clock budget (60 s by default) and reports bounds
when either runs out.

A lower bound enters the search from two sources, and the search starts at
the larger: a minor, contraction_degeneracy, whose minimum degree bounds
the width of every graph it is a minor of; and a witness bramble, checked on
the graph itself, whose order minus one bounds the width.
family_claims is the one table of the grid, prism and torus formulas.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Callable, Sequence

from .brambles import (
    NOT_BRAMBLE,
    Bramble,
    BrambleError,
    classify_family,
    gen_grid_bramble,
    gen_prism_b1,
    gen_prism_b2,
    gen_prism_collapsed,
    gen_torus_cde,
    gen_torus_fg,
    min_hitting_set,
)
from .graphs import (
    Graph,
    InvalidFamilyError,
    automorphism_group,
    bits_list,
    connected_span,
    iter_bits,
    mask_of,
    parse_ints,
    records,
)

DEFAULT_MAX_STATES = 100_000_000
DEFAULT_TIME_BUDGET = 60.0


class DecompositionError(Exception):
    """Base error for decomposition handling."""


class NotATreeError(DecompositionError):
    """The node/edge structure of a decomposition is not a tree."""


class TdFormatError(DecompositionError):
    """Malformed .td input."""


@dataclass(frozen=True)
class TreeDecomposition:
    """Bags indexed by node id 0..k-1 plus tree edges between node ids.
    Checked once, here: the nodes and edges form a tree (NotATreeError
    otherwise), and every bag is a set of the num_graph_vertices vertices.
    The three decomposition conditions depend on the graph, so
    validate_tree_decomposition judges them."""

    bags: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    num_graph_vertices: int

    def __post_init__(self) -> None:
        _check_tree(self)
        if min(self.bags) < 0 or max(self.bags).bit_length() > self.num_graph_vertices:
            raise DecompositionError("bag contains a vertex outside the graph")

    @property
    def width(self) -> int:
        return max(b.bit_count() for b in self.bags) - 1

    @property
    def num_bags(self) -> int:
        return len(self.bags)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate_tree_decomposition.

    condition is 1 (vertex missing from every bag), 2 (edge in no bag) or
    3 (nodes holding a vertex not connected), with a witness naming the
    offending vertex or edge; both are None when the decomposition is valid.
    """

    valid: bool
    condition: int | None = None
    witness: object = None


@dataclass(frozen=True)
class SolverLimits:
    """Budgets for exact_treewidth."""

    max_states: int = DEFAULT_MAX_STATES
    time_budget: float | None = DEFAULT_TIME_BUDGET  # seconds; None means no wall clock


@dataclass(frozen=True)
class WidthResult:
    """Solver outcome. treewidth always equals width(decomposition); it is
    the exact treewidth precisely when proof_status == "exact".
    minor_lower is contraction_degeneracy(g), the bound a minor proves, and
    witness_lower the bound the checked witness bramble proved, 0 when none
    was given; the search starts at the larger of the two. group_order is
    the order of the automorphism group the search used, 1 when no search
    ran (the lower bound met the min-fill width) or when g's group is
    larger than MAX_GROUP_ORDER."""

    treewidth: int
    decomposition: TreeDecomposition
    proof_status: str  # exact | bounds_only
    lower: int
    upper: int
    states: int
    elapsed: float
    minor_lower: int
    witness_lower: int
    group_order: int


def _check_tree(td: TreeDecomposition) -> None:
    k = td.num_bags
    if k == 0:
        raise NotATreeError("decomposition has no nodes")
    if len(td.edges) != k - 1:
        raise NotATreeError(f"{k} nodes need {k - 1} tree edges, got {len(td.edges)}")
    adj = [0] * k  # node -> bitmask of its tree neighbours
    for a, b in td.edges:
        if not (0 <= a < k and 0 <= b < k) or a == b:
            raise NotATreeError(f"bad tree edge ({a}, {b})")
        if adj[a] >> b & 1:
            raise NotATreeError(f"repeated tree edge ({a}, {b})")
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    # connected + k-1 edges + no repeats => tree
    if connected_span(adj, (1 << k) - 1) is None:
        raise NotATreeError("tree edges do not connect all nodes")


def validate_tree_decomposition(g: Graph, td: TreeDecomposition) -> ValidationReport:
    """Check the three decomposition conditions, reporting the first failure.

    td is a tree over sets of its num_graph_vertices vertices, checked when
    it was built; one for another vertex count raises DecompositionError.
    """
    if td.num_graph_vertices != g.n:
        raise DecompositionError(
            f"decomposition is for {td.num_graph_vertices} vertices, graph has {g.n}"
        )
    covered = reduce(or_, td.bags)
    if covered != g.full_mask:
        missing = (~covered & g.full_mask & -(~covered & g.full_mask)).bit_length() - 1
        return ValidationReport(False, 1, missing)
    for u, v in g.edges:
        need = (1 << u) | (1 << v)
        if not any(b & need == need for b in td.bags):
            return ValidationReport(False, 2, (u, v))
    # in a tree, the nodes whose bags hold v form this many components: the
    # nodes holding v less the tree edges with v in both bags
    parts = [0] * g.n
    for b in td.bags:
        for v in iter_bits(b):
            parts[v] += 1
    for a, b in td.edges:
        for v in iter_bits(td.bags[a] & td.bags[b]):
            parts[v] -= 1
    for v, count in enumerate(parts):
        if count != 1:
            return ValidationReport(False, 3, v)
    return ValidationReport(True)


def decomposition_from_elimination_order(g: Graph, order: Sequence[int]) -> TreeDecomposition:
    """Bags {v} + remaining fill-neighbors of v, chained by first-eliminated
    neighbor, or to the next bag where none remain (a component ends), so
    a disconnected graph gets one tree; width is the maximum back-degree."""
    if sorted(order) != list(range(g.n)):
        raise DecompositionError("elimination order must be a permutation of 0..n-1")
    n = g.n
    position = [0] * n
    for i, v in enumerate(order):
        position[v] = i
    adj = list(g.adj)
    remaining = g.full_mask
    bags: list[int] = []
    parents: list[int | None] = []
    for v in order:
        remaining &= ~(1 << v)
        nv = adj[v] & remaining
        bags.append(nv | (1 << v))
        if nv:
            first = min(iter_bits(nv), key=lambda u: position[u])
            parents.append(position[first])
            for u in iter_bits(nv):
                adj[u] |= nv & ~(1 << u)
        else:
            parents.append(None)
    edges = []
    for i, p in enumerate(parents):
        if p is not None:
            edges.append((i, p))
        elif i != n - 1:
            # disconnected remainder: hang trivial component roots in sequence
            edges.append((i, i + 1))
    return TreeDecomposition(tuple(bags), tuple(edges), n)


# --- lower/upper bound heuristics ------------------------------------------


def degeneracy(g: Graph) -> int:
    """Max over subgraphs of the minimum degree; a treewidth lower bound.

    exact_treewidth starts from contraction_degeneracy, which is never
    below it."""
    adj = list(g.adj)
    remaining = g.full_mask
    best = 0
    for _ in range(g.n):
        v = min(
            iter_bits(remaining),
            key=lambda u: ((adj[u] & remaining).bit_count(), u),
        )
        best = max(best, (adj[v] & remaining).bit_count())
        remaining &= ~(1 << v)
    return best


def contraction_degeneracy(g: Graph) -> int:
    """Max over a sequence of minors of the minimum degree; a treewidth
    lower bound, since tw(G) >= tw(H) >= mindeg(H) for every minor H.

    The sequence is minor-min-width with the least-c rule (Gogate and
    Dechter, 2004; Bodlaender and Koster, 2011): a vertex v of minimum
    degree, ties to the lowest id, is contracted into the neighbour it
    shares the fewest common neighbours with, ties to the lowest id.

    The bound is at least 1 when g has an edge: contracting keeps an edge
    until two vertices are left, a K2 of minimum degree 1. It is at least
    degeneracy(g): with v of minimum degree d, degeneracy(G) is
    max(d, degeneracy(G - v)), and G - v is a subgraph of G/uv, so by
    induction on the number of vertices the bound on G/uv is at least
    degeneracy(G - v).
    """
    adj = list(g.adj)
    remaining = g.full_mask
    best = 0
    while remaining:
        v = min(iter_bits(remaining), key=lambda u: (adj[u].bit_count(), u))
        nv = adj[v]
        best = max(best, nv.bit_count())
        remaining &= ~(1 << v)
        if not nv:
            continue
        u = min(iter_bits(nv), key=lambda w: ((adj[w] & nv).bit_count(), w))
        for w in iter_bits(nv):
            adj[w] &= ~(1 << v)
        merged = nv & ~(1 << u)
        adj[u] |= merged
        for w in iter_bits(merged):
            adj[w] |= 1 << u
    return best


def min_fill_order(g: Graph) -> tuple[list[int], int]:
    """Greedy elimination picking the vertex adding fewest fill edges.

    Returns (order, width). Deterministic: ties break on lower vertex id.
    """
    adj = list(g.adj)
    remaining = g.full_mask
    order: list[int] = []
    width = 0
    for _ in range(g.n):
        best_v = -1
        best_fill = -1
        for v in iter_bits(remaining):
            nv = adj[v] & remaining & ~(1 << v)
            fill = 0
            for u in iter_bits(nv):
                fill += (nv & ~adj[u] & ~(1 << u)).bit_count()
            if best_fill < 0 or fill < best_fill:
                best_fill = fill
                best_v = v
        v = best_v
        nv = adj[v] & remaining & ~(1 << v)
        width = max(width, nv.bit_count())
        for u in iter_bits(nv):
            adj[u] |= nv & ~(1 << u)
        remaining &= ~(1 << v)
        order.append(v)
    return order, width


class _Budget:
    __slots__ = ("max_states", "deadline", "states")

    def __init__(self, max_states: int, time_budget: float | None):
        self.max_states = max_states
        self.deadline = None if time_budget is None else time.monotonic() + time_budget
        self.states = 0

    def tick(self) -> bool:
        """Count one expanded state; True while within budget."""
        self.states += 1
        if self.states > self.max_states:
            return False
        if self.deadline is not None and not self.states & 0xFF:
            return time.monotonic() <= self.deadline
        return True


def _decide_width(
    g: Graph, k: int, budget: _Budget, images: list[list[int]]
) -> tuple[bool | None, list[int] | None]:
    """Is there an elimination order with every back-degree <= k?

    Returns (verdict, order). verdict None means the budget ran out before
    the question was settled. images[v][i] is vertex v's image under the
    i-th automorphism of g, as a bit, the identity first, as
    automorphism_group gives them. Every group takes the same path: the
    identity alone is a table of one column, whose only image of a prefix
    is its mask, which is then its key. A prefix with a refuted image is
    skipped, which drops only infeasible subtrees, so the verdict and the
    order stay those of the search without symmetry. The first moves are
    the vertices of degree <= k in ascending order; a move whose orbit's
    least vertex was refuted is skipped by the memo before it costs a state.
    """
    n = g.n
    # h[v] is Q(S, v) for every v outside the prefix S on the current path:
    # eliminating v joins h[v] into a clique, and returning undoes it
    h = list(g.adj)
    bit = [1 << v for v in range(n)]
    bits: dict[int, list[int]] = {}
    # refuted prefixes, each by its mask and by its canonical key, the
    # least of its images under the group
    failed: set[int] = set()
    path: list[int] = []
    tick = budget.tick

    def expand(s_mask: int, key: int, imgs: list[int], outside: list[int]) -> bool | None:
        # s_mask has been counted; outside lists the other vertices in
        # ascending order
        cand: list[tuple[int, int]] = []
        # simplicial vertices are safe forced moves; one with fill degree
        # above k certifies failure outright (it sits in a k+2 clique)
        forced = -1
        for v in outside:
            qv = h[v]
            nbrs = bits.get(qv)
            if nbrs is None:
                nbrs = bits[qv] = bits_list(qv)
            d = len(nbrs)
            if d <= k:
                cand.append((d, v))
            for u in nbrs:
                if qv & ~h[u] != bit[u]:
                    break
            else:
                if d > k:
                    failed.add(s_mask)
                    failed.add(key)
                    return False
                if forced < 0:
                    forced = v
        if forced >= 0:
            return descend(s_mask, key, imgs, outside, [forced])
        cand.sort()
        return descend(s_mask, key, imgs, outside, [v for _, v in cand])

    def descend(
        s_mask: int, key: int, imgs: list[int], outside: list[int], moves: list[int]
    ) -> bool | None:
        # try the moves out of s_mask in order; a child is settled without
        # eliminating into it when it leaves at most k + 1 vertices or is a
        # known failure up to symmetry, and otherwise costs a tick
        if len(outside) <= k + 2:
            if moves:
                path.append(moves[0])
                return True
            failed.add(s_mask)
            failed.add(key)
            return False
        for v in moves:
            child = s_mask | bit[v]
            if child in failed:
                continue
            cimgs = list(map(or_, imgs, images[v]))
            ckey = min(cimgs)
            if ckey in failed:
                continue
            if not tick():
                return None
            hv = h[v]
            nbrs = bits.get(hv)
            if nbrs is None:
                nbrs = bits[hv] = bits_list(hv)
            saved = [h[u] for u in nbrs]
            for u in nbrs:
                h[u] = (h[u] | hv) ^ (bit[u] | bit[v])
            res = expand(child, ckey, cimgs, [u for u in outside if u != v])
            for u, hu in zip(nbrs, saved):
                h[u] = hu
            if res:
                path.append(v)
                return True
            if res is None:
                return None
        failed.add(s_mask)
        failed.add(key)
        return False

    # fill degree at the empty prefix is the plain degree
    res = descend(0, 0, [0] * len(images[0]), list(range(n)),
                  [v for v in range(n) if g.degree(v) <= k])
    if not res:
        return res, None
    prefix = list(reversed(path))
    rest = sorted(set(range(n)) - set(prefix))
    return True, prefix + rest


def _witness_lower(g: Graph, witness: Bramble) -> int:
    """The width bound a bramble proves on g: its order minus one, strict
    or not, since a strict bramble can reach order tw + 1."""
    if witness.graph.adj != g.adj:
        raise BrambleError("witness bramble is over another graph")
    # witness.graph has g's edges; min_hitting_set reads Γ cached for it
    cls = classify_family(witness.graph, witness.elements)
    if cls.verdict == NOT_BRAMBLE:
        i, j = cls.counterexample
        raise BrambleError(f"witness is not a bramble (elements {i} and {j})")
    return min_hitting_set(witness).order - 1


def exact_treewidth(
    g: Graph, limits: SolverLimits | None = None, witness: Bramble | None = None
) -> WidthResult:
    """Exact treewidth with a witness decomposition, or bounds on budget.

    The search stops at limits.max_states expanded states or after
    limits.time_budget seconds, whichever comes first, and then returns
    proof_status "bounds_only" with the interval it has certified.

    witness is a bramble on g. It is checked on g itself, by classify_family
    and min_hitting_set, and a bramble of order w proves tw >= w - 1
    (Seymour and Thomas, 1993). The search starts at the larger of that
    bound and contraction_degeneracy(g), the bound a minor proves. A witness
    over another graph, or a family that is not a bramble, raises
    BrambleError. The check runs before the search and outside limits: no
    state cap or time budget bounds it, and on a large witness it can take
    longer than the search (the README gives wall times).
    """
    if not g.is_connected():
        raise ValueError("treewidth solver expects a connected graph")
    limits = limits or SolverLimits()
    t0 = time.monotonic()
    witness_lower = 0 if witness is None else _witness_lower(g, witness)
    budget = _Budget(limits.max_states, limits.time_budget)

    mf_order, mf_width = min_fill_order(g)
    minor_lower = contraction_degeneracy(g)
    lower = max(minor_lower, witness_lower)
    upper = mf_width
    best_order = mf_order
    group_order = 1
    if lower < upper:
        group = automorphism_group(g)
        group_order = len(group)
        images = [[1 << p[v] for p in group] for v in range(g.n)]
        k = lower
        while k < upper:
            verdict, order = _decide_width(g, k, budget, images)
            if verdict is None:
                break
            if verdict:
                upper = k
                best_order = order
                break
            k += 1
            lower = k

    td = decomposition_from_elimination_order(g, best_order)
    status = "exact" if lower == upper else "bounds_only"
    return WidthResult(
        treewidth=upper,
        decomposition=td,
        proof_status=status,
        lower=lower,
        upper=upper,
        states=budget.states,
        elapsed=time.monotonic() - t0,
        minor_lower=minor_lower,
        witness_lower=witness_lower,
        group_order=group_order,
    )


# --- covering bag -----------------------------------------------------------


@dataclass(frozen=True)
class CoveringBag:
    """The lowest-numbered bag of a tree decomposition that meets every
    element of a bramble, and its node id."""

    node: int
    bag: int


def covering_bag(td: TreeDecomposition, bramble) -> CoveringBag:
    """Return the lowest-numbered bag that meets every bramble element.

    Every tree decomposition has a bag meeting every element of a bramble
    (Seymour and Thomas, 1993), so a scan over the bags finds one. A failure
    would mean the family is not a bramble, so it raises instead of
    returning.
    """
    elements = bramble.elements
    report = validate_tree_decomposition(bramble.graph, td)
    if not report.valid:
        raise DecompositionError(
            f"covering bag needs a valid decomposition (condition {report.condition} fails)"
        )
    for node, bag in enumerate(td.bags):
        if all(e & bag for e in elements):
            return CoveringBag(node, bag)
    raise RuntimeError("no bag meets every element; the family is not a bramble")


# --- family claims ----------------------------------------------------------


@dataclass(frozen=True)
class FamilyClaims:
    """The claims on one grid, prism or torus: the width interval (two
    values on the open lines), the witness bramble's generator and the
    stock winning-divisor style, None where none exists."""

    low: int
    high: int
    witness: Callable[[Graph], Bramble] | None
    style: str | None


def family_claims(g: Graph) -> FamilyClaims:
    """The claims table, by kind and regime. Raises InvalidFamilyError
    unless g is labelled a grid, prism or torus; Graph checked the label
    against the edges when g was built."""
    fam = g.family
    if fam is None:
        raise InvalidFamilyError("family claims need a grid, prism or torus")
    m, n = fam.m, fam.n
    lo = min(m, n)
    if fam.kind == "grid":
        w = lo if g.num_edges else 0  # G1,1 is a single vertex
        return FamilyClaims(w, w, gen_grid_bramble if w >= 2 else None, None)
    if fam.kind == "stacked_prism":
        if 2 * n < m:
            return FamilyClaims(2 * n, 2 * n, gen_prism_b1, "row_twos")
        if m < 2 * n:
            return FamilyClaims(m, m, gen_prism_b2, "column_ones")
        # open line
        return FamilyClaims(2 * n - 1, 2 * n, gen_prism_collapsed, "column_ones")
    style = "row_twos" if n <= m else "column_twos"
    if m == n:
        # open line
        return FamilyClaims(2 * n - 2, 2 * n - 1, None, style)
    if abs(m - n) == 1:
        witness = gen_torus_fg if m == n + 1 else None
        # open line
        return FamilyClaims(2 * lo - 1, 2 * lo, witness, style)
    return FamilyClaims(2 * lo, 2 * lo, gen_torus_cde if m >= n + 2 else None, style)


def family_bramble(g: Graph) -> Bramble | None:
    """The claims table's lower-bound bramble on g, or None where it has none."""
    gen = family_claims(g).witness
    return None if gen is None else gen(g)


# --- .td file format --------------------------------------------------------
#
# "s td <num_bags> <max_bag_size> <num_vertices>", then "b <id> <v...>" per
# bag (ids and vertices 1-indexed), then one "i j" line per tree edge.


def write_td(td: TreeDecomposition) -> str:
    maxbag = max(b.bit_count() for b in td.bags)
    lines = [f"s td {td.num_bags} {maxbag} {td.num_graph_vertices}"]
    for i, b in enumerate(td.bags):
        content = " ".join(str(v + 1) for v in iter_bits(b))
        lines.append(f"b {i + 1} {content}" if content else f"b {i + 1}")
    for a, b in sorted(tuple(sorted(e)) for e in td.edges):
        lines.append(f"{a + 1} {b + 1}")
    return "\n".join(lines) + "\n"


def read_td(text: str) -> TreeDecomposition:
    num_bags = -1
    num_vertices = -1
    declared_width = -1
    bags: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    for lineno, parts in records(text):
        if parts[0] == "s":
            if num_bags != -1:
                raise TdFormatError(f"line {lineno}: repeated solution line")
            if len(parts) != 5 or parts[1] != "td":
                raise TdFormatError(f"line {lineno}: expected 's td <bags> <size> <n>'")
            num_bags, declared_width, num_vertices = parse_ints(
                parts[2:], lineno, TdFormatError
            )
            if num_vertices < 0:
                raise TdFormatError(f"line {lineno}: negative vertex count")
        elif parts[0] == "b":
            if num_bags == -1:
                raise TdFormatError(f"line {lineno}: bag before solution line")
            if len(parts) < 2:
                raise TdFormatError(f"line {lineno}: expected 'b <id> <vertices>'")
            bag_id, *verts = (x - 1 for x in parse_ints(parts[1:], lineno, TdFormatError))
            if not 0 <= bag_id < num_bags:
                raise TdFormatError(f"line {lineno}: bag id out of range")
            if bag_id in bags:
                raise TdFormatError(f"line {lineno}: repeated bag {bag_id + 1}")
            if any(not 0 <= v < num_vertices for v in verts):
                raise TdFormatError(f"line {lineno}: bag vertex out of range")
            bags[bag_id] = mask_of(verts)
        else:
            if len(parts) != 2:
                raise TdFormatError(f"line {lineno}: expected tree edge 'i j'")
            a, b = (x - 1 for x in parse_ints(parts, lineno, TdFormatError))
            if not (0 <= a < num_bags and 0 <= b < num_bags):
                raise TdFormatError(f"line {lineno}: tree edge out of range")
            edges.append((a, b))
    if num_bags == -1:
        raise TdFormatError("missing solution line")
    if num_bags < 1:
        raise TdFormatError("a decomposition needs at least one bag")
    if len(bags) != num_bags:
        raise TdFormatError(f"declared {num_bags} bags, found {len(bags)}")
    bag_tuple = tuple(bags[i] for i in range(num_bags))
    if max(b.bit_count() for b in bag_tuple) != declared_width:
        raise TdFormatError("declared max bag size does not match bags")
    return TreeDecomposition(bag_tuple, tuple(edges), num_vertices)
