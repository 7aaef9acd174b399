"""Graph core: bitset vertex sets, grid-like families, and .gr I/O.

Vertices are integers 0..n-1. Vertex sets are Python int bitmasks (bit v set
means vertex v is in the set). Graphs are simple, undirected, and immutable
after construction; family constructors always produce connected graphs.

Grid-like families use a fixed labeling: the vertex in row i, column j gets
id i*n + j, where m is the number of rows and n the number of columns. In a
stacked prism (cycle x path) and a toroidal grid (cycle x cycle) a column
induces an m-cycle; rows induce paths (prism) or n-cycles (torus).

Family metadata is checked once, where a Graph is built: Graph refuses a
path, cycle, grid, prism or torus label whose formula does not give its
edges. Every reader of g.family (rows and columns, brambles, stock
divisors, the claims table) can therefore trust it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class GraphError(Exception):
    """Base error for graph construction and file handling."""


class InvalidFamilyError(GraphError):
    """Family parameters out of range, metadata that does not fit the edges,
    or an operation that needs family metadata."""


class FormatError(GraphError):
    """Malformed .gr input."""


ELEMENTARY_KINDS = ("path", "cycle")
GRID_KINDS = ("grid", "stacked_prism", "toroidal_grid")
FAMILY_KINDS = ELEMENTARY_KINDS + GRID_KINDS


def bit(v: int) -> int:
    return 1 << v


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


@dataclass(frozen=True)
class FamilyMeta:
    """Which named family a graph was built as, with its grid dimensions.

    kind is one of path, cycle, grid, stacked_prism, toroidal_grid. For
    grid-like kinds m counts rows and n counts columns; elementary kinds
    store their length as m with n = 1.
    """

    kind: str
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.kind not in FAMILY_KINDS:
            raise InvalidFamilyError(f"unknown family kind {self.kind!r}")


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

    @property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return bits_list(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighborhood(self, mask: int) -> int:
        """Union of adjacencies over a vertex set (may overlap the set)."""
        out = 0
        for v in iter_bits(mask):
            out |= self.adj[v]
        return out

    def is_connected(self) -> bool:
        return mask_connected(self.adj, self.full_mask)

    def relabeled(self, perm: Sequence[int]) -> "Graph":
        """New graph with vertex v renamed perm[v]. Family metadata drops."""
        if sorted(perm) != list(range(self.n)):
            raise GraphError("relabeling must be a permutation of 0..n-1")
        edges = [(perm[u], perm[v]) for u, v in self.edges]
        return Graph(self.n, edges)

    def __repr__(self) -> str:
        fam = f", family={self.family.kind}({self.family.m},{self.family.n})" if self.family else ""
        return f"Graph(n={self.n}, edges={self.num_edges}{fam})"


def mask_connected(adj: Sequence[int], mask: int) -> bool:
    """Is the subgraph induced by mask connected? Empty mask is rejected."""
    if mask == 0:
        raise ValueError("empty vertex set has no connectivity verdict")
    seen = mask & -mask
    frontier = seen
    while frontier:
        reach = 0
        for v in iter_bits(frontier):
            reach |= adj[v]
        frontier = reach & mask & ~seen
        seen |= frontier
    return seen == mask


# kind -> (is the first factor a cycle, is the second a cycle); the first
# factor has m vertices and the second n, and a path or a cycle has n = 1
_FACTOR_CYCLES = {
    "path": (False, False),
    "cycle": (True, False),
    "grid": (False, False),
    "stacked_prism": (True, False),
    "toroidal_grid": (True, True),
}


def _family_edges(fam: FamilyMeta) -> list[tuple[int, int]]:
    """Edges (u, v), u < v, of the path, cycle, grid, prism or torus that
    fam names, vertex (i, j) at i*n + j. Raises InvalidFamilyError on sizes
    out of range: a cycle factor needs 3 vertices."""
    m, n = fam.m, fam.n
    first, second = _FACTOR_CYCLES[fam.kind]
    low_m, low_n = (3 if first else 1), (3 if second else 1)
    if fam.kind in ELEMENTARY_KINDS:
        if m < low_m or n != 1:
            raise InvalidFamilyError(f"{fam.kind} needs k >= {low_m} and n = 1, got {m}, {n}")
    elif m < low_m or n < low_n:
        raise InvalidFamilyError(
            f"{fam.kind} needs m >= {low_m} and n >= {low_n}, got {m}, {n}"
        )

    def line(k: int, cycle: bool) -> list[tuple[int, int]]:
        return [(a, a + 1) for a in range(k - 1)] + ([(0, k - 1)] if cycle else [])

    edges = [(i * n + a, i * n + b) for i in range(m) for a, b in line(n, second)]
    edges += [(a * n + j, c * n + j) for a, c in line(m, first) for j in range(n)]
    return edges


def make_elementary(kind: str, k: int) -> Graph:
    """Path on k >= 1 vertices or cycle on k >= 3 vertices."""
    if kind not in ELEMENTARY_KINDS:
        raise InvalidFamilyError(f"elementary kind must be path or cycle, got {kind!r}")
    fam = FamilyMeta(kind, k, 1)
    return Graph(k, _family_edges(fam), fam)


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; vertex (a, b) of g x h gets id a*|V(h)| + b.
    The result carries no family metadata."""
    nh = h.n
    edges: list[tuple[int, int]] = []
    for a in range(g.n):
        base = a * nh
        for b, c in h.edges:
            edges.append((base + b, base + c))
    for a, c in g.edges:
        for b in range(nh):
            edges.append((a * nh + b, c * nh + b))
    return Graph(g.n * nh, edges)


def make_family(kind: str, m: int, n: int) -> Graph:
    """Grid (path x path), stacked prism (cycle x path), or torus (cycle x cycle).

    Rows are copies of the second factor: vertex (i, j) -> i*n + j with
    0 <= i < m, 0 <= j < n.
    """
    if kind not in GRID_KINDS:
        raise InvalidFamilyError(f"family kind must be one of {GRID_KINDS}, got {kind!r}")
    fam = FamilyMeta(kind, m, n)
    return Graph(m * n, _family_edges(fam), fam)


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


def line_vertices(g: Graph, which: str, index: int) -> int:
    """Bitmask of one row or column of a grid-like family graph."""
    fam = g.family
    if fam is None or fam.kind not in GRID_KINDS:
        raise InvalidFamilyError("row/column access needs grid-like family metadata")
    m, n = fam.m, fam.n
    if which == "row":
        if not 0 <= index < m:
            raise InvalidFamilyError(f"row index {index} out of range for m={m}")
        return mask_of(index * n + j for j in range(n))
    if which == "column":
        if not 0 <= index < n:
            raise InvalidFamilyError(f"column index {index} out of range for n={n}")
        return mask_of(i * n + index for i in range(m))
    raise InvalidFamilyError(f"which must be 'row' or 'column', got {which!r}")


def are_isomorphic(g: Graph, h: Graph, return_mapping: bool = False):
    """Backtracking isomorphism test with degree pruning.

    Suited to the small graphs handled here (a few dozen vertices). The
    mapping, when requested, sends g-vertex v to mapping[v] in h.
    """
    ok = (
        g.n == h.n
        and g.num_edges == h.num_edges
        and sorted(map(int.bit_count, g.adj)) == sorted(map(int.bit_count, h.adj))
    )
    mapping = [-1] * g.n
    if ok:
        ok = _extend(g, h, _search_order(g), mapping, 0)
    if return_mapping:
        return ok, (mapping if ok else None)
    return ok


# Automorphism groups larger than this are replaced by the identity alone:
# the width search pays for every element at every state.
MAX_GROUP_ORDER = 1024


def automorphism_group(g: Graph) -> list[list[int]]:
    """Every automorphism of g as a vertex permutation, the identity first.

    Built as a stabilizer chain along _search_order: level i holds one
    automorphism for each image of order[i] while order[:i] stays fixed,
    and the group is every product of one element per level, each element
    once. The levels are built deepest first, so an image reached by
    composing automorphisms already found needs no search. The group's
    order, the product of the level sizes, is known before any element is
    built; past MAX_GROUP_ORDER the result is the identity alone.
    """
    n = g.n
    order = _search_order(g)
    identity = list(range(n))
    found: list[list[int]] = []
    levels: list[list[list[int]]] = []
    size = 1
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
            if not _extend(g, g, order, mapping, i, 1 << w):
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
        size *= len(orbit)
        if size > MAX_GROUP_ORDER:
            return [identity]
        if len(orbit) > 1:
            levels.append(list(orbit.values()))
    group = [identity]
    for level in levels:
        group = [[t[u] for u in p] for t in level for p in group]
    return group


def _extend(g: Graph, h: Graph, order: list[int], mapping: list[int], i: int,
            allowed: int = -1) -> bool:
    """Complete mapping to an isomorphism from g to h by backtracking.

    mapping sends order[:i] into h and holds -1 elsewhere; order[i] may go
    only to the vertices in the bitmask allowed. Returns whether a
    completion exists, which is then left in mapping.
    """
    n, full = g.n, h.full_mask
    gadj, hadj = g.adj, h.adj
    gmask = hmask = 0
    for v in order[:i]:
        gmask |= 1 << v
        hmask |= 1 << mapping[v]

    def step(j: int, allowed: int) -> bool:
        nonlocal gmask, hmask
        if j == n:
            return True
        v = order[j]
        # an image of v is adjacent to the images of its mapped neighbours
        # and to no other mapped vertex
        want = 0
        pool = full & allowed & ~hmask
        for u in iter_bits(gadj[v] & gmask):
            want |= 1 << mapping[u]
            pool &= hadj[mapping[u]]
        dv = gadj[v].bit_count()
        for w in iter_bits(pool):
            if hadj[w].bit_count() != dv or hadj[w] & hmask != want:
                continue
            mapping[v] = w
            gmask |= 1 << v
            hmask |= 1 << w
            if step(j + 1, -1):
                return True
            gmask ^= 1 << v
            hmask ^= 1 << w
        mapping[v] = -1
        return False

    return step(i, allowed)


def _search_order(g: Graph) -> list[int]:
    # Rarest degree first, then grow so every vertex sees a mapped neighbor
    # when the graph is connected; falls back to fresh seeds per component.
    from collections import Counter

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
            if len(parts) == 5 and parts[1] == "family" and parts[2] in FAMILY_KINDS:
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
