"""Graph core: bitset vertex sets, grid-like families, and .gr I/O.

Vertices are integers 0..n-1. Vertex sets are Python int bitmasks (bit v set
means vertex v is in the set). Graphs are simple, undirected, and immutable
after construction; family constructors always produce connected graphs.

Grid-like families use a fixed labeling: the vertex in row i, column j gets
id i*n + j, where m is the number of rows and n the number of columns. In a
stacked prism (cycle x path) and a toroidal grid (cycle x cycle) a column
induces an m-cycle; rows induce paths (prism) or n-cycles (torus).

A path on k vertices is the one-column grid G(k,1) and a cycle the
one-column prism Y(k,1); they carry those labels. grid_lines(g) gives the
rows and columns of any labelled graph as bitmasks.

Family metadata is checked once, where a Graph is built: Graph refuses a
grid, prism or torus label whose formula does not give its edges, and
make_family, which takes its edges from the formula, sets it after. Every
reader of g.family (rows and columns, brambles, stock divisors, the claims
table) can therefore trust it.

Two helpers are shared by the other modules. connected_span is the one
connectivity search: Graph.is_connected, the bramble checks and the tree
check of a decomposition all run it. records is the one loop over the
lines of a text format; the .td, bramble and divisor readers take their
lines from it, while read_gr keeps its own, since its "c family" comment
is data.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence


class GraphError(Exception):
    """Base error for graph construction and file handling."""


class InvalidFamilyError(GraphError):
    """Family parameters out of range, metadata that does not fit the edges,
    or an operation that needs family metadata."""


class FormatError(GraphError):
    """Malformed .gr input."""


# kind -> (is the first factor a cycle, is the second a cycle); the first
# factor has m vertices and the second n
_FACTOR_CYCLES = {
    "grid": (False, False),
    "stacked_prism": (True, False),
    "toroidal_grid": (True, True),
}
GRID_KINDS = tuple(_FACTOR_CYCLES)


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def iter_bits(mask: int) -> Iterator[int]:
    """Yield set bit positions in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_list(mask: int) -> list[int]:
    return list(iter_bits(mask))


def parse_ints(words: Sequence[str], lineno: int, error: type[Exception]) -> list[int]:
    """The words of an input line as plain decimal integers, each an
    optional minus sign and ASCII digits; a word that is not one raises
    error, naming the line."""
    line = " ".join(words)
    # int() also takes underscores, a plus sign and non-ASCII digits
    if line.isascii() and "_" not in line and "+" not in line:
        try:
            return [int(w) for w in words]
        except ValueError:
            pass
    raise error(f"line {lineno}: expected integers, got {line!r}")


def records(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, words) for each line of text that is neither blank nor
    a comment, a line whose first character is "c"; lines count from 1."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("c"):
            yield lineno, line.split()


def connected_span(adj: Sequence[int], s: int) -> tuple[list[int], list[int]] | None:
    """The vertices of a nonempty set s in search order and the vertices
    outside s adjacent to it, or None if s does not induce a connected
    subgraph of the bitmask adjacency adj. One search answers all three:
    once it has reached all of s, the union of the adjacencies it read is
    N(s)."""
    low = s & -s
    rest = s ^ low  # the vertices of s not reached yet
    reached = [low.bit_length() - 1]
    reach = 0
    for v in reached:
        a = adj[v]
        reach |= a
        new = a & rest
        rest ^= new
        while new:
            low = new & -new
            reached.append(low.bit_length() - 1)
            new ^= low
    if rest:
        return None
    rim = []
    new = reach & ~s
    while new:
        low = new & -new
        rim.append(low.bit_length() - 1)
        new ^= low
    return reached, rim


@dataclass(frozen=True)
class FamilyMeta:
    """Which named family a graph was built as, with its grid dimensions.

    kind is one of grid, stacked_prism, toroidal_grid; m counts rows and n
    counts columns. A path or a cycle is a grid or a prism with n = 1.
    """

    kind: str
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.kind not in GRID_KINDS:
            raise InvalidFamilyError(
                f"unknown family kind {self.kind!r}, expected one of {GRID_KINDS}"
            )


class Graph:
    """Immutable simple undirected graph with bitmask adjacency.

    Parallel edges collapse to one. family, when given, must describe the
    edges (see the module docstring); otherwise construction raises
    InvalidFamilyError.
    """

    __slots__ = ("n", "edges", "adj", "family")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        family: FamilyMeta | None = None,
    ) -> None:
        if n < 1:
            raise GraphError("graph needs at least one vertex")
        seen: set[tuple[int, int]] = set()
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"loop at vertex {u} not allowed")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                continue
            seen.add((u, v))
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        # the vertex count comes first, so a false label cannot force a huge
        # rebuild
        if family is not None and (
            family.m * family.n != n or set(_family_edges(family)) != seen
        ):
            raise InvalidFamilyError(
                f"the edges are not those of {family.kind} {family.m} {family.n}"
            )
        self.n = n
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(seen))
        self.adj: tuple[int, ...] = tuple(adj)
        self.family = family

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return bits_list(self.adj[v])

    def neighborhood(self, mask: int) -> int:
        """Union of adjacencies over a vertex set (may overlap the set)."""
        out = 0
        for v in iter_bits(mask):
            out |= self.adj[v]
        return out

    def is_connected(self) -> bool:
        return connected_span(self.adj, self.full_mask) is not None

    def relabeled(self, perm: Sequence[int]) -> "Graph":
        """New graph with vertex v renamed perm[v]. Family metadata drops."""
        if sorted(perm) != list(range(self.n)):
            raise GraphError("relabeling must be a permutation of 0..n-1")
        edges = [(perm[u], perm[v]) for u, v in self.edges]
        return Graph(self.n, edges)

    def __repr__(self) -> str:
        fam = f", family={self.family.kind}({self.family.m},{self.family.n})" if self.family else ""
        return f"Graph(n={self.n}, edges={self.num_edges}{fam})"


def _family_edges(fam: FamilyMeta) -> list[tuple[int, int]]:
    """Edges (u, v), u < v, of the grid, prism or torus that fam names,
    vertex (i, j) at i*n + j. Raises InvalidFamilyError on sizes out of
    range: a cycle factor needs 3 vertices."""
    m, n = fam.m, fam.n
    first, second = _FACTOR_CYCLES[fam.kind]
    low_m, low_n = (3 if first else 1), (3 if second else 1)
    if m < low_m or n < low_n:
        raise InvalidFamilyError(
            f"{fam.kind} needs m >= {low_m} and n >= {low_n}, got {m}, {n}"
        )

    def line(k: int, cycle: bool) -> list[tuple[int, int]]:
        return [(a, a + 1) for a in range(k - 1)] + ([(0, k - 1)] if cycle else [])

    edges = [(i * n + a, i * n + b) for i in range(m) for a, b in line(n, second)]
    edges += [(a * n + j, c * n + j) for a, c in line(m, first) for j in range(n)]
    return edges


def make_family(kind: str, m: int, n: int) -> Graph:
    """Grid (path x path), stacked prism (cycle x path), or torus (cycle x cycle).

    Rows are copies of the second factor: vertex (i, j) -> i*n + j with
    0 <= i < m, 0 <= j < n. A path on k vertices is make_family("grid",
    k, 1) and a cycle make_family("stacked_prism", k, 1).
    """
    fam = FamilyMeta(kind, m, n)
    g = Graph(m * n, _family_edges(fam))
    g.family = fam  # the formula's own edges: the label needs no check
    return g


def family_graphs(max_vertices: int) -> Iterator[Graph]:
    """Every grid, prism and torus of at most max_vertices vertices, by rows
    m, then columns n, then kind in the order grid, prism, torus."""
    for m in range(1, max_vertices + 1):
        for n in range(1, max_vertices // m + 1):
            yield make_family("grid", m, n)
            if m >= 3:
                yield make_family("stacked_prism", m, n)
            if m >= 3 and n >= 3:
                yield make_family("toroidal_grid", m, n)


def grid_lines(g: Graph) -> tuple[list[int], list[int]]:
    """The rows and the columns of a labelled graph as bitmasks, top to
    bottom and left to right. Row i and column j meet in vertex i*n + j, so
    cols[j] & ~rows[i] is column j without its row-i vertex."""
    fam = g.family
    if fam is None:
        raise InvalidFamilyError("row/column access needs family metadata")
    m, n = fam.m, fam.n
    first_col = mask_of(range(0, m * n, n))
    return [((1 << n) - 1) << (i * n) for i in range(m)], [first_col << j for j in range(n)]


# Automorphism groups larger than this are replaced by the identity alone:
# the width search pays for every element at every state, and the bramble
# checks offer every element as a generator of their symmetry group.
MAX_GROUP_ORDER = 1024


@lru_cache(maxsize=1)
def automorphism_group(g: Graph) -> list[list[int]]:
    """Every automorphism of g as a vertex permutation, the identity first.

    A stabilizer chain is built along _search_order: the level of order[i]
    holds one automorphism for each image of order[i] while order[:i] stays
    fixed, the identity first, and levels with one element are left out.
    The levels are built deepest first, so an image reached by composing
    automorphisms already found needs no search. The group is every product
    of one element per level, each element once. Its order, the product of
    the level sizes, is known before any element is built; past
    MAX_GROUP_ORDER the result is the identity alone.

    The result for the last graph asked is kept, so a witness check and the
    width search that follows it on one graph build the group once. The
    returned list is therefore shared between calls on one graph and must
    not be changed. The cap is read when the group is built: after patching
    MAX_GROUP_ORDER, call automorphism_group.cache_clear().
    """
    n = g.n
    order = _search_order(g)
    identity = list(range(n))
    found: list[list[int]] = []
    levels: list[list[list[int]]] = []  # deepest first
    fixed = g.full_mask
    for i in reversed(range(n)):
        v = order[i]
        fixed ^= 1 << v
        # an image of v is adjacent to the image of a fixed neighbour, which
        # is that neighbour itself
        anchors = g.adj[v] & fixed
        pool = g.adj[anchors.bit_length() - 1] if anchors else g.full_mask
        # orbit[w] fixes order[:i] and sends v to w; the automorphisms found
        # so far fix order[:i], and the orbit stays closed under them
        orbit = {v: identity}
        dv = g.degree(v)
        for w in iter_bits(pool & ~fixed):
            if w in orbit or g.degree(w) != dv:
                continue
            mapping = identity[:]
            for u in order[i:]:
                mapping[u] = -1
            if not _extend(g, order, mapping, i, 1 << w):
                continue
            found.append(mapping)
            todo = list(orbit)
            while todo:
                x = todo.pop()
                for p in found:
                    y = p[x]
                    if y not in orbit:
                        orbit[y] = [p[u] for u in orbit[x]]
                        todo.append(y)
        if len(orbit) > 1:
            levels.append(list(orbit.values()))
    size = 1
    for level in levels:
        size *= len(level)
    if size > MAX_GROUP_ORDER:
        return [identity]
    group = [identity]
    for level in levels:
        group = [[t[u] for u in p] for t in level for p in group]
    return group


def _extend(g: Graph, order: list[int], mapping: list[int], i: int, allowed: int) -> bool:
    """Complete mapping to an automorphism of g by backtracking.

    mapping sends order[:i], i < n, into g and holds -1 elsewhere; order[i]
    may go only to the vertices in the bitmask allowed. Returns whether a
    completion exists, which is then left in mapping. The images of each
    vertex are tried in ascending order, so the completion is the first in
    that order; the backtracking keeps its own stack, so the depth of the
    graph is not bounded by Python's recursion limit.
    """
    n, adj = g.n, g.adj
    # mapped holds order[:j] and taken their images
    mapped = taken = 0
    for v in order[:i]:
        mapped |= 1 << v
        taken |= 1 << mapping[v]
    # per vertex of order[i:j + 1]: (want, its untried images), None until
    # the vertex is first reached
    path: list[tuple[int, int] | None] = [None]
    while path:
        j = i + len(path) - 1
        v = order[j]
        if path[-1] is None:
            # an image of v is adjacent to the images of its mapped
            # neighbours and to no other mapped vertex
            want = 0
            pool = (allowed if j == i else g.full_mask) & ~taken
            for u in iter_bits(adj[v] & mapped):
                want |= 1 << mapping[u]
                pool &= adj[mapping[u]]
        else:
            want, pool = path[-1]
        dv = adj[v].bit_count()
        while pool:
            low = pool & -pool
            pool ^= low
            w = low.bit_length() - 1
            if adj[w].bit_count() == dv and adj[w] & taken == want:
                break
        else:
            # no image left: the vertex before v takes its next one
            mapping[v] = -1
            path.pop()
            if path:
                u = order[j - 1]
                mapped ^= 1 << u
                taken ^= 1 << mapping[u]
            continue
        path[-1] = (want, pool)
        mapping[v] = w
        mapped |= 1 << v
        taken |= low
        if j + 1 == n:
            return True
        path.append(None)
    return False


def _search_order(g: Graph) -> list[int]:
    # Rarest degree first, then grow so every vertex sees a mapped neighbor
    # when the graph is connected; falls back to fresh seeds per component.
    adj = g.adj
    deg = [a.bit_count() for a in adj]
    freq = Counter(deg)
    order: list[int] = []
    placed = reach = 0
    while len(order) < g.n:
        cand = reach & ~placed
        if cand:
            nxt = max(iter_bits(cand), key=lambda v: ((adj[v] & placed).bit_count(), deg[v], -v))
        else:
            cand = g.full_mask & ~placed
            nxt = min(iter_bits(cand), key=lambda v: (freq[deg[v]], -deg[v], v))
        order.append(nxt)
        placed |= 1 << nxt
        reach |= adj[nxt]
    return order


# --- .gr file format (treewidth-track exchange format) ---------------------
#
# Header "p tw <num_vertices> <num_edges>", one "u v" line per edge,
# 1-indexed, "c" lines are comments. The writer leads with a family comment
# when metadata is present so generated files round-trip losslessly.

_FAMILY_COMMENT = "c family"


def write_gr(g: Graph) -> str:
    lines = []
    if g.family is not None:
        f = g.family
        lines.append(f"{_FAMILY_COMMENT} {f.kind} {f.m} {f.n}")
    lines.append(f"p tw {g.n} {g.num_edges}")
    for u, v in g.edges:
        lines.append(f"{u + 1} {v + 1}")
    return "\n".join(lines) + "\n"


def read_gr(text: str) -> Graph:
    n = -1
    declared_edges = -1
    family: FamilyMeta | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("c"):
            parts = line.split()
            if len(parts) == 5 and parts[1] == "family" and parts[2] in GRID_KINDS:
                try:
                    family = FamilyMeta(parts[2], *parse_ints(parts[3:], lineno, ValueError))
                except ValueError:
                    pass
            continue
        parts = line.split()
        if parts[0] == "p":
            if n != -1:
                raise FormatError(f"line {lineno}: repeated problem line")
            if len(parts) != 4 or parts[1] != "tw":
                raise FormatError(f"line {lineno}: expected 'p tw <n> <m>'")
            n, declared_edges = parse_ints(parts[2:], lineno, FormatError)
            if n < 1:
                raise FormatError("graph must have at least one vertex")
            # refused here, before n sizes anything: a connected graph on n
            # vertices has at least n - 1 edges, and each is a line of input
            if declared_edges < n - 1:
                raise FormatError(
                    f"line {lineno}: a connected graph on {n} vertices needs at least "
                    f"{n - 1} edges, {declared_edges} declared"
                )
        else:
            if n == -1:
                raise FormatError(f"line {lineno}: edge before problem line")
            if len(parts) != 2:
                raise FormatError(f"line {lineno}: expected 'u v'")
            u, v = (x - 1 for x in parse_ints(parts, lineno, FormatError))
            if not (0 <= u < n and 0 <= v < n):
                raise FormatError(f"line {lineno}: vertex out of range")
            if u == v:
                raise FormatError(f"line {lineno}: loop not allowed")
            edges.append((u, v))
    if n == -1:
        raise FormatError("missing problem line")
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    if len(edge_set) != len(edges):
        raise FormatError("parallel edge in input")
    if len(edges) != declared_edges:
        raise FormatError(f"declared {declared_edges} edges, found {len(edges)}")
    try:
        g = Graph(n, edges, family)
    except InvalidFamilyError:
        g = Graph(n, edges)  # a family comment that does not fit the edges is dropped
    if not g.is_connected():
        raise FormatError("graph is not connected")
    return g
