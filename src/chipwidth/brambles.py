"""Brambles on grid-like graphs: classification, generators, exact order.

A bramble is a family of connected vertex sets that pairwise touch (share a
vertex or an edge between them); it is strict when all pairs share a vertex.
The order of a bramble is the size of a minimum hitting set. A bramble of
order w certifies treewidth >= w - 1 (Seymour and Thomas, 1993), and a
strict one certifies no more: on some graphs a strict bramble reaches order
tw + 1. exact_treewidth takes a bramble as a witness and checks it on the
graph before it uses that bound.

Classification and the order both work on holders[v], the bitset of the
indices of the elements that hold vertex v, built in one pass by
transposing the elements' binary strings. Classification first searches
each element once, which checks that it is connected and lists its
vertices and the vertices next to it; an element then meets and touches
all the others in one OR of holders per listed vertex. The order comes
from one decision search, asked for each size in turn from a degree-sum
lower bound up: it branches on the vertices of the smallest unhit element,
drops each tried vertex from the later branches, and prunes where the
largest unhit counts of the allowed vertices cannot add up to the unhit
elements. It sorts the elements first, so it builds its own holders. The
same search fixes the lexicographically least optimal witness slot by
slot. The hot loops walk vertex lists or peel the lowest set bit in place;
the iter_bits generator costs a frame resume per vertex.

Both calls read one index per family, built by _family_index: the holders
in the given element order and a symmetry group Γ, the automorphisms of
the graph that map the element set onto itself. Every element of
automorphism_group(g) that keeps each vertex's holder count is offered as
a generator and checked on every element; one whose images are not all
elements is rejected. So Γ's vertex orbits are those of the family's whole
stabilizer, unless g's group is larger than graphs.MAX_GROUP_ORDER: then Γ
is trivial, which costs speed only. The builder keeps its last (graph,
elements) answer in a one-entry functools cache, so classify_family and
min_hitting_set on one family build the index once, and classification
transposes the elements once. Elements it cannot use (none, an empty one,
one outside the graph, a repeat) get the trivial Γ, one orbit per vertex
and every element its own representative, which sends both calls down
their plain paths. Meeting and touching are Γ-invariant, so
classification searches only one element per Γ-orbit when that proves a
strict bramble; any other family takes the full scan over the same
holders, so counterexamples do not depend on Γ. The order's decision
search branches at its root on the Γ-orbits that meet the smallest element
(orbital branching); the witness is fixed without Γ, so it stays the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, permutations, product
from operator import or_
from typing import Iterable, Iterator, Sequence

from .graphs import (
    Graph,
    InvalidFamilyError,
    automorphism_group,
    bits_list,
    connected_span,
    grid_lines,
    iter_bits,
    make_family,
    mask_of,
    parse_ints,
    records,
)

# Most distinct elements Bramble.from_elements accepts before it raises
# ElementLimitError; read at each call.
DEFAULT_ELEMENT_LIMIT = 2_000_000

NOT_BRAMBLE = "not_bramble"
BRAMBLE = "bramble"
STRICT_BRAMBLE = "strict_bramble"


class BrambleError(Exception):
    """Base error for bramble handling."""


class WrongRegimeError(BrambleError):
    """Family parameters outside the regime where the construction works."""


class ElementLimitError(BrambleError):
    """Generator would materialize more elements than the configured cap."""


@dataclass(frozen=True)
class Bramble:
    """Element masks over a graph. Checked once, here: there is at least one
    element, and each is a nonempty set of the graph's vertices. Elements
    may repeat; from_elements drops repeats."""

    graph: Graph
    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.elements:
            raise BrambleError("bramble needs at least one element")
        least = min(self.elements)
        if least == 0:
            raise BrambleError("empty element")
        if least < 0 or max(self.elements) >> self.graph.n:
            raise BrambleError("element contains a vertex outside the graph")

    @classmethod
    def from_elements(cls, graph: Graph, elements: Iterable[int]) -> "Bramble":
        seen: dict[int, None] = {}
        for e in elements:
            if e not in seen:
                if len(seen) >= DEFAULT_ELEMENT_LIMIT:
                    raise ElementLimitError(
                        f"more than {DEFAULT_ELEMENT_LIMIT} distinct elements; raise the cap"
                    )
                seen[e] = None
        return cls(graph, tuple(seen))

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class Classification:
    """verdict is not_bramble, bramble, or strict_bramble. counterexample
    names the offending element pair: a non-touching pair for not_bramble,
    or a touching-but-disjoint pair witnessing non-strictness; an element
    that is itself empty or disconnected appears paired with itself."""

    verdict: str
    counterexample: tuple[int, int] | None = None


@dataclass(frozen=True)
class OrderCertificate:
    """Exact minimum hitting set: its size and the lexicographically least
    optimal witness. nodes counts the decision-search calls behind the
    order and the witness; it is deterministic for a given element set."""

    order: int
    witness: int
    nodes: int


def is_connected_set(g: Graph, s: int) -> bool:
    """Is the induced subgraph on the mask connected? Empty is an error."""
    if s == 0:
        raise ValueError("empty vertex set")
    if s >> g.n:
        raise ValueError("set contains a vertex outside the graph")
    return connected_span(g.adj, s) is not None


def sets_touch(g: Graph, a: int, b: int) -> bool:
    """Share a vertex, or some edge joins them."""
    if a & b:
        return True
    return bool(g.neighborhood(a) & b)


def _element_holders(elements: Sequence[int], n: int) -> list[int]:
    """holders[v] is the bitset of the indices of the elements holding v.

    The transpose of the elements' n-digit binary strings: column v of the
    strings, read with element 0 as the lowest digit, is holders[v]."""
    if not elements:
        return [0] * n
    columns = zip(*[format(e, f"0{n}b") for e in elements])
    # string position 0 is vertex n - 1
    return [int("".join(col)[::-1], 2) for col in columns][::-1]


# --- the family index ---------------------------------------------------------


# What the two searches read of a family: the vertex orbits, as masks in
# order of their least vertex, of a group Γ of automorphisms of the graph
# that maps the element set onto itself; the least element index of each
# element orbit, ascending; and holders[v] over the elements in the given
# order. A plain tuple: a class would cost the package's import.
_Index = tuple[list[int], list[int], list[int]]


@lru_cache(maxsize=1)
def _family_index(g: Graph, elements: tuple[int, ...]) -> _Index:
    """Γ and the holders for the elements, kept for the last (g, elements)
    asked. The trivial Γ when there are none or one of them is empty,
    outside the graph or repeated; no holders when one is outside the
    graph, since the scan stops at or before that element.

    The candidate generators are the elements of automorphism_group(g) but
    the identity. A candidate that joins no two vertex orbits of the
    generators kept so far is skipped, and so is one that does not keep
    every vertex's holder count, which a symmetry keeps. The others are
    kept only if every element's image is an element, and rejected at the
    first image that is not; an image is the OR of one table lookup per
    byte of the element. A candidate that maps the element set onto itself
    is therefore kept or maps each vertex into its orbit, so Γ, generated
    by the kept candidates, has the vertex orbits of the family's whole
    stabilizer in Aut(g). Past MAX_GROUP_ORDER, automorphism_group gives
    the identity alone and Γ is trivial; that costs speed only.
    """
    n = g.n
    outside = elements and (min(elements) < 0 or max(elements) >> n)
    holders = [] if outside else _element_holders(elements, n)
    index = {e: i for i, e in enumerate(elements)}
    if not elements or outside or min(elements) == 0 or len(index) != len(elements):
        return [1 << v for v in range(n)], list(range(len(elements))), holders
    holding = [h.bit_count() for h in holders]
    shifts = range(0, n, 8)
    # column s holds byte s / 8 of every element, shared by all candidates
    columns = [[e >> s & 255 for e in elements] for s in shifts]
    orbit_of = list(range(n))  # vertex -> least vertex of its orbit
    kept: list[list[int]] = []  # per kept candidate, index -> image index
    for p in automorphism_group(g)[1:]:
        if all(orbit_of[p[v]] == orbit_of[v] for v in range(n)):
            continue
        if any(holding[p[v]] != holding[v] for v in range(n)):
            continue
        lookups = []
        for s in shifts:
            table = [0]  # table[x] is the image of byte value x at s
            for v in range(s, min(s + 8, n)):
                image = 1 << p[v]
                table += [t | image for t in table]
            lookups.append(table.__getitem__)
        images = map(lookups[0], columns[0])
        for look, column in zip(lookups[1:], columns[1:]):
            images = map(or_, images, map(look, column))
        try:
            kept.append(list(map(index.__getitem__, images)))
        except KeyError:
            continue
        for v in range(n):
            a, b = orbit_of[v], orbit_of[p[v]]
            if a != b:
                low, high = min(a, b), max(a, b)
                orbit_of = [low if o == high else o for o in orbit_of]
        if not any(orbit_of):
            break  # transitive: every later candidate would be skipped
    orbits: dict[int, int] = {}
    for v, o in enumerate(orbit_of):
        orbits[o] = orbits.get(o, 0) | 1 << v
    representatives = []
    seen = bytearray(len(elements))
    for i in range(len(elements)):
        if seen[i]:
            continue
        representatives.append(i)
        seen[i] = 1
        todo = [i]
        while todo:
            x = todo.pop()
            for image in kept:
                y = image[x]
                if not seen[y]:
                    seen[y] = 1
                    todo.append(y)
    return [orbits[o] for o in sorted(orbits)], representatives, holders


def classify_family(g: Graph, elements: Iterable[int]) -> Classification:
    """Name the first non-touching pair, else the first disjoint pair, in
    index order.

    Through the per-vertex holders bitsets an element meets and touches the
    others in a few big-int ORs, over its vertices and over the vertices of
    its neighbourhood. Meeting and touching are invariant under the
    family's symmetry group Γ (see _family_index). So when every element
    orbit's representative is connected and meets every element, the
    family is a strict bramble. Every other family, and one whose Γ is
    trivial, goes through the full scan, so counterexamples are the same
    with or without Γ.
    """
    elems = tuple(elements)
    _, representatives, holders = _family_index(g, elems)
    holder = holders.__getitem__
    everything = (1 << len(elems)) - 1
    if len(representatives) < len(elems):
        for i in representatives:
            span = connected_span(g.adj, elems[i])
            if span is None or reduce(or_, map(holder, span[0])) != everything:
                break
        else:
            return Classification(STRICT_BRAMBLE)
    spans = []
    for i, e in enumerate(elems):
        if e == 0:
            return Classification(NOT_BRAMBLE, (i, i))
        if e >> g.n:
            raise ValueError("set contains a vertex outside the graph")
        span = connected_span(g.adj, e)
        if span is None:
            return Classification(NOT_BRAMBLE, (i, i))
        spans.append(span)
    later = everything  # indices above i once bit i is cleared
    disjoint_pair: tuple[int, int] | None = None
    for i, (inside, rim) in enumerate(spans):
        later ^= 1 << i
        meets = reduce(or_, map(holder, inside))
        touches = reduce(or_, map(holder, rim), meets)
        apart = later & ~touches
        if apart:
            return Classification(NOT_BRAMBLE, (i, (apart & -apart).bit_length() - 1))
        disjoint = later & ~meets
        if disjoint and disjoint_pair is None:
            disjoint_pair = (i, (disjoint & -disjoint).bit_length() - 1)
    if disjoint_pair is None:
        return Classification(STRICT_BRAMBLE)
    return Classification(BRAMBLE, disjoint_pair)


# --- exact minimum hitting set ----------------------------------------------


def _greedy_hitting_set(holders: list[int], unhit: int) -> int:
    """Take the vertex in the most unhit elements, ties to the lowest id,
    until every element is hit."""
    chosen = 0
    while unhit:
        v = max(range(len(holders)),
                key=lambda u: ((unhit & holders[u]).bit_count(), -u))
        chosen |= 1 << v
        unhit &= ~holders[v]
    return chosen


class _HittingSearch:
    """Decision search for hitting sets over element-index bitsets.

    Elements are sorted once by (size, lowest vertex, mask), so the lowest
    set bit of an unhit bitset names the smallest unhit element. holders[v]
    is the bitset of the element indices holding v, paired with bit v in
    vertex_holders. nodes counts the calls of exists, the work measure of
    the search.
    """

    def __init__(self, elements: Iterable[int], n: int):
        self.elements = sorted(elements, key=lambda e: (e.bit_count(), e & -e, e))
        self.holders = _element_holders(self.elements, n)
        self.vertex_holders = [(1 << v, h) for v, h in enumerate(self.holders)]
        self.n = n
        self.everything = (1 << len(self.elements)) - 1
        self.nodes = 0

    def degree_bound(self, unhit: int, allowed: int) -> int:
        """Fewest allowed vertices whose unhit counts, largest first, add up
        to the number of unhit elements; n + 1 if some element has no
        allowed vertex."""
        counts = []
        covered = 0
        for b, h in self.vertex_holders:
            if allowed & b:
                hit = unhit & h
                if hit:
                    counts.append(hit.bit_count())
                    covered |= hit
        if covered != unhit:
            return self.n + 1
        counts.sort(reverse=True)
        need = unhit.bit_count()
        used = 0
        while need > 0:
            need -= counts[used]
            used += 1
        return used

    def exists(self, unhit: int, size: int, allowed: int) -> bool:
        """Can `size` vertices of the allowed mask hit every unhit element?

        Branches on the allowed vertices of the smallest unhit element; a
        vertex once tried leaves `allowed` for the siblings after it, so no
        vertex set is searched twice."""
        self.nodes += 1
        if not unhit:
            return True
        if size <= 0 or self.degree_bound(unhit, allowed) > size:
            return False
        choices = self.elements[(unhit & -unhit).bit_length() - 1] & allowed
        while choices:
            low = choices & -choices
            choices ^= low
            allowed ^= low
            if self.exists(unhit & ~self.holders[low.bit_length() - 1], size - 1, allowed):
                return True
        return False

    def exists_by_orbits(self, size: int, orbits: list[int]) -> bool:
        """exists(everything, size, all vertices), branching at the root on
        disjoint vertex masks in order of their least vertex: the vertex
        orbits that meet the smallest element, of a group that maps the
        elements onto themselves. Under the trivial group they are that
        element's vertices, which is exists' own root branching.

        Orbital branching (Ostrowski, Linderoth, Rossi and Smriglio, 2011):
        if a hitting set meets orbit O_i first, a group element maps it to
        one of the same size that holds the least vertex of O_i and still
        avoids O_1 ... O_(i-1). So child i takes that vertex and bars the
        earlier orbits; a transitive group leaves one child. The root is
        not pruned: min_hitting_set asks only sizes from its degree bound
        up."""
        self.nodes += 1
        unhit = self.everything  # not empty: a bramble has an element
        allowed = (1 << self.n) - 1
        for orbit in orbits:
            low = orbit & -orbit
            if self.exists(unhit & ~self.holders[low.bit_length() - 1], size - 1, allowed ^ low):
                return True
            allowed &= ~orbit
        return False

    def lex_least(self, order: int) -> int:
        """The lexicographically least hitting set of the given (optimal)
        size, fixed one slot at a time."""
        witness = 0
        unhit = self.everything
        floor = 0
        for slot in range(order):
            left = order - slot - 1
            for v in range(floor, self.n):
                rest = unhit & ~self.holders[v]
                above = ((1 << self.n) - 1) & ~((1 << (v + 1)) - 1)
                if self.exists(rest, left, above):
                    witness |= 1 << v
                    unhit = rest
                    floor = v + 1
                    break
            else:
                raise AssertionError("witness reconstruction lost feasibility")
        return witness


def min_hitting_set(b: Bramble) -> OrderCertificate:
    """Exact minimum hitting set of the bramble's elements.

    Counts up from the degree-sum bound at the root and asks a decision
    search for a hitting set of each size in turn, until one exists or the
    size reaches that of a greedy hitting set. The search branches on the
    vertices of the smallest unhit element, each tried vertex barred from
    the branches after it, and prunes with the degree-sum bound over
    per-vertex bitsets of element indices. The root branches instead on
    the orbits of the family's symmetry group Γ (see _family_index) that
    meet the smallest element, never more of them than its vertices. The
    witness is the lexicographically least optimal hitting set, so equal
    inputs always give byte-equal certificates.
    """
    n = b.graph.n
    search = _HittingSearch(b.elements, n)
    orbits = [o for o in _family_index(b.graph, b.elements)[0] if o & search.elements[0]]
    full = (1 << n) - 1
    upper = _greedy_hitting_set(search.holders, search.everything).bit_count()
    k = search.degree_bound(search.everything, full)
    while k < upper and not search.exists_by_orbits(k, orbits):
        k += 1
    witness = search.lex_least(k)
    return OrderCertificate(k, witness, search.nodes)


# --- generators --------------------------------------------------------------


def _require_family(g: Graph, kind: str, what: str) -> tuple[list[int], list[int]]:
    """g's rows and columns (see grid_lines), or InvalidFamilyError unless
    g is labelled kind. Graph checked the label against the edges when g
    was built."""
    fam = g.family
    if fam is None or fam.kind != kind:
        raise InvalidFamilyError(f"{what} needs a {kind} graph")
    return grid_lines(g)


def gen_grid_bramble(g: Graph) -> Bramble:
    """Crosses: the union of row i and column j, for every (i, j)."""
    rows, cols = _require_family(g, "grid", "grid bramble")
    return Bramble.from_elements(g, (row | col for row in rows for col in cols))


def gen_prism_b1(g: Graph) -> Bramble:
    """Tall-prism bramble: a column missing one vertex plus two full rows
    that avoid the deleted point. Needs 2n < m; order is 2n."""
    rows, cols = _require_family(g, "stacked_prism", "prism bramble b1")
    m, n = len(rows), len(cols)
    if not 2 * n < m:
        raise WrongRegimeError(f"b1 needs 2n < m, got m={m}, n={n}")

    def gen() -> Iterator[int]:
        for col in cols:
            for d, row in enumerate(rows):
                cut = col & ~row
                for r1, r2 in combinations(rows[:d] + rows[d + 1:], 2):
                    yield cut | r1 | r2

    return Bramble.from_elements(g, gen())


def gen_prism_b2(g: Graph) -> Bramble:
    """Wide-prism bramble: crosses, one row plus two cut columns, and two
    rows plus two columns cut in a common row. Needs m < 2n; order is m."""
    rows, cols = _require_family(g, "stacked_prism", "prism bramble b2")
    m, n = len(rows), len(cols)
    if not m < 2 * n:
        raise WrongRegimeError(f"b2 needs m < 2n, got m={m}, n={n}")

    def gen() -> Iterator[int]:
        # crosses
        for row in rows:
            for col in cols:
                yield row | col
        # one row, two columns, each column cut in a distinct row off the row
        for r, row in enumerate(rows):
            others = rows[:r] + rows[r + 1:]
            for c1, c2 in combinations(cols, 2):
                for d1, d2 in permutations(others, 2):
                    yield row | (c1 & ~d1) | (c2 & ~d2)
        # two rows, two columns cut in one common row avoiding both rows
        for r1, r2 in combinations(range(m), 2):
            pair = rows[r1] | rows[r2]
            others = [row for d, row in enumerate(rows) if d != r1 and d != r2]
            for c1, c2 in combinations(cols, 2):
                for d in others:
                    yield pair | (c1 & ~d) | (c2 & ~d)

    return Bramble.from_elements(g, gen())


def gen_prism_collapsed(g: Graph) -> Bramble:
    """prism_b2 of Y(2n-1, n), pulled back to Y(2n, n) through the merge of
    rows 0 and 1: element e lifts to its rows shifted down one plus its row
    0 in place. Merging a hitting set of the lifts hits every element, so
    the order stays 2n - 1. Needs m = 2n."""
    rows, cols = _require_family(g, "stacked_prism", "collapsed prism bramble")
    m, n = len(rows), len(cols)
    if m != 2 * n:
        raise WrongRegimeError(f"collapsed bramble needs m = 2n, got m={m}, n={n}")
    small = gen_prism_b2(make_family("stacked_prism", m - 1, n))
    lifts = (e << n | e & rows[0] for e in small.elements)
    return Bramble.from_elements(g, lifts)


def gen_torus_cde(g: Graph) -> Bramble:
    """Wide-torus bramble, defined for m >= n + 2.

    Three shapes: a cut column with four cut rows (no column taking three of
    the row cuts), a full column with three cut rows (cuts not all aligned),
    and two cut columns with three rows all cut in one outside column.
    The order reaches 2n on T7,3 but falls short at small margins: 5 on
    T5,3 and T6,3, and 6 on T6,4. gen_balanced_bramble reaches 2n on T5,3.
    """
    rows, cols = _require_family(g, "toroidal_grid", "torus bramble cde")
    m, n = len(rows), len(cols)
    if not m >= n + 2:
        raise WrongRegimeError(f"cde needs m >= n + 2, got m={m}, n={n}")
    # cut_row[r][c] is row r without its vertex in column c, and
    # cut_col[j][d] column j without its vertex in row d
    cut_row = [[row & ~col for col in cols] for row in rows]
    cut_col = [[col & ~row for row in rows] for col in cols]

    def gen() -> Iterator[int]:
        for j in range(n):
            others = [c for c in range(n) if c != j]
            no_triple = _product_no_triple(others, 4)
            not_constant = _product_not_constant(others, 3)
            # C: cut column + four cut rows, row cuts never 3-aligned
            for rs in combinations(range(m), 4):
                r0, r1, r2, r3 = (cut_row[r] for r in rs)
                cut_rows = [r0[w] | r1[x] | r2[y] | r3[z] for w, x, y, z in no_triple]
                for d in range(m):
                    if d not in rs:
                        base = cut_col[j][d]
                        for e in cut_rows:
                            yield base | e
            # D: full column + three cut rows, cuts not all in one column
            for rs in combinations(range(m), 3):
                r0, r1, r2 = (cut_row[r] for r in rs)
                for x, y, z in not_constant:
                    yield cols[j] | r0[x] | r1[y] | r2[z]
        # E: two cut columns + three rows cut in a common outside column
        for j1, j2 in combinations(range(n), 2):
            shared = [c for c in range(n) if c != j1 and c != j2]
            for rs in combinations(range(m), 3):
                r0, r1, r2 = (cut_row[r] for r in rs)
                cut_rows = [r0[c] | r1[c] | r2[c] for c in shared]
                outside = [d for d in range(m) if d not in rs]
                for d1 in outside:
                    c1 = cut_col[j1][d1]
                    for d2 in outside:
                        base = c1 | cut_col[j2][d2]
                        for e in cut_rows:
                            yield base | e

    return Bramble.from_elements(g, gen())


def _product_no_triple(choices: list[int], count: int) -> list[tuple[int, ...]]:
    """Tuples over choices where no value occurs three or more times."""
    return [
        tup for tup in product(choices, repeat=count)
        if max(tup.count(c) for c in set(tup)) < 3
    ]


def _product_not_constant(choices: list[int], count: int) -> list[tuple[int, ...]]:
    return [tup for tup in product(choices, repeat=count) if any(c != tup[0] for c in tup)]


def gen_torus_fg(g: Graph) -> Bramble:
    """Near-square-torus bramble of order 2n for m = n + 1. Not strict:
    shapes are a cut column plus a full row, and a cut column plus two cut
    rows. The first two rows together form a hitting set of size 2n."""
    rows, cols = _require_family(g, "toroidal_grid", "torus bramble fg")
    m, n = len(rows), len(cols)
    if m != n + 1:
        raise WrongRegimeError(f"fg needs m = n + 1, got m={m}, n={n}")

    def gen() -> Iterator[int]:
        for j, col in enumerate(cols):
            other_cols = cols[:j] + cols[j + 1:]
            for d, row in enumerate(rows):
                cut = col & ~row
                other_rows = rows[:d] + rows[d + 1:]
                # F: cut column + one full row avoiding the cut
                for r in other_rows:
                    yield cut | r
                # G: cut column + two cut rows avoiding the cut
                for r1, r2 in combinations(other_rows, 2):
                    for c1 in other_cols:
                        left = cut | (r1 & ~c1)
                        for c2 in other_cols:
                            yield left | (r2 & ~c2)

    return Bramble.from_elements(g, gen())


def gen_balanced_bramble(g: Graph) -> Bramble:
    """Every connected vertex set of exactly floor(n/2) + 1 vertices.

    Each element holds more than half the vertices, so any two share one
    and the family is a strict bramble on any graph. A connected set with
    more vertices contains one of these (drop leaves of a spanning tree),
    so adding the larger sets would not change the order. The order is the
    size of a smallest set whose removal leaves no component above n/2.
    On toroidal grids it reaches 2n on T5,3, T6,3 and T7,3, but not on
    T6,4, where the 7 vertices {0, 2, 5, 8, 10, 15, 23} leave no component
    above half. The element count grows fast: 3,990 on T5,3, 24,363 on
    T6,3, 111,405 on T7,3.
    """
    size = g.n // 2 + 1

    def grow(chosen: int, frontier: int, banned: int) -> Iterator[int]:
        # frontier is N(chosen) minus chosen and banned; each branch either
        # takes its lowest frontier vertex or bans it for good, so every
        # connected set is reached exactly once
        if chosen.bit_count() == size:
            yield chosen
            return
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grown = chosen | low
            reach = g.neighborhood(low) & ~grown & ~banned
            yield from grow(grown, frontier | reach, banned)
            banned |= low

    def gen() -> Iterator[int]:
        for root in range(g.n):
            below = (1 << root) - 1  # the root is the lowest vertex of its sets
            yield from grow(1 << root, g.adj[root] & ~below, below)

    return Bramble.from_elements(g, gen())


# --- bramble file format ------------------------------------------------------
#
# Header "b <num_elements> <num_vertices>", then one line of 1-indexed
# vertex ids per element; "c" lines are comments.


def write_bramble(b: Bramble) -> str:
    lines = [f"b {len(b.elements)} {b.graph.n}"]
    for e in sorted(b.elements, key=lambda x: bits_list(x)):
        lines.append(" ".join(str(v + 1) for v in iter_bits(e)))
    return "\n".join(lines) + "\n"


def read_bramble(text: str, g: Graph) -> Bramble:
    header: tuple[int, int] | None = None
    elements: dict[int, None] = {}
    for lineno, parts in records(text):
        if header is None:
            if parts[0] != "b" or len(parts) != 3:
                raise BrambleError(f"line {lineno}: expected 'b <elements> <vertices>'")
            header = tuple(parse_ints(parts[1:], lineno, BrambleError))
            if header[1] != g.n:
                raise BrambleError(
                    f"bramble is over {header[1]} vertices, graph has {g.n}"
                )
            continue
        verts = [x - 1 for x in parse_ints(parts, lineno, BrambleError)]
        if any(not 0 <= v < g.n for v in verts):
            raise BrambleError(f"line {lineno}: vertex out of range")
        e = mask_of(verts)
        if e in elements:
            raise BrambleError(f"line {lineno}: repeated element")
        elements[e] = None
    if header is None:
        raise BrambleError("missing header line")
    if len(elements) != header[0]:
        raise BrambleError(f"declared {header[0]} elements, found {len(elements)}")
    return Bramble.from_elements(g, elements)
