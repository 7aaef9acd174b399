"""Chip-firing: divisors, q-reduction, equivalence, and the gonality game.

A divisor assigns an integer chip count to every vertex. Firing a vertex
sends one chip along each incident edge; a firing script fires each vertex
a given number of times, changing the divisor by the Laplacian action
d - L s. The q-reduced representative of a divisor class (computed by
debt consolidation followed by Dhar's burning loop) is unique, which makes
equivalence decidable and drives the winning test of the gonality game:
d wins iff for every vertex v the v-reduced form of d - (v) is effective.

One Dhar burn serves both q_reduce and the winning test (Dhar 1990). Fire
spreads from the base vertex over neighbour lists with a stack, and a
vertex catches fire once its burnt neighbours outnumber its chips, so one
round costs O(E); the unburnt set is then fired once. The winning test
skips every v with d(v) >= 1, where d - (v) is already effective, and
otherwise burns from v starting at d - (v): it stops with "survives" as
soon as v is out of debt, because firing sets without v only adds chips
to v, and with "loses" when the fire reaches every vertex.

exact_gonality runs that first burn for many divisors at once. Almost
every divisor it enumerates loses at its lowest chipless vertex in the
first round, so after a scalar head each degree is built in runs of
chip bytes straight from the enumeration, and one bit-sliced burn over
big ints settles a run together. Only the divisors it leaves open get the
scalar winning test.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations_with_replacement, islice
from math import comb
from typing import Iterable

from .graphs import (
    Graph,
    InvalidFamilyError,
    grid_lines,
    iter_bits,
    parse_ints,
    records,
)

# Most divisors exact_gonality enumerates, over all degrees; read at each
# call. A degree that would pass it ends the search with lower_bound_only.
ENUMERATION_CAP = 10_000_000

# exact_gonality tests the first _RUN divisors of each degree one at a time,
# then burns the rest in runs of _RUN, 2 * _RUN, 4 * _RUN, ...; a last run
# shorter than _RUN is tested one at a time too.
_RUN = 64


class ChipFiringError(Exception):
    """Base error for chip-firing operations."""


@dataclass(frozen=True)
class Divisor:
    """Integer chips per vertex."""

    chips: tuple[int, ...]

    @property
    def degree(self) -> int:
        return sum(self.chips)

    @property
    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.chips)


@dataclass(frozen=True)
class FiringScript:
    """How many times each vertex fires (negative = borrows)."""

    counts: tuple[int, ...]

    def normalized(self) -> "FiringScript":
        """Shift so the minimum entry is zero; same divisor action."""
        low = min(self.counts)
        return FiringScript(tuple(c - low for c in self.counts))


def _check_divisor(g: Graph, d: Divisor) -> None:
    if len(d.chips) != g.n:
        raise ChipFiringError(f"divisor has {len(d.chips)} entries, graph has {g.n}")


def apply_firing_script(g: Graph, d: Divisor, s: FiringScript) -> Divisor:
    """d - L s: each vertex v loses deg(v)*s[v] chips and gains one chip per
    firing of each neighbor."""
    _check_divisor(g, d)
    if len(s.counts) != g.n:
        raise ChipFiringError(f"script has {len(s.counts)} entries, graph has {g.n}")
    out = list(d.chips)
    for v in range(g.n):
        sv = s.counts[v]
        if sv:
            out[v] -= g.degree(v) * sv
            for u in g.neighbors(v):
                out[u] += sv
    return Divisor(tuple(out))


def _fire_set(g: Graph, chips: list[int], members: int) -> None:
    # simultaneous firing of a vertex set: only boundary edges move chips
    for v in iter_bits(members):
        outside = g.adj[v] & ~members
        k = outside.bit_count()
        if k:
            chips[v] -= k
            for u in iter_bits(outside):
                chips[u] += 1


def _neighbor_lists(g: Graph, what: str) -> list[list[int]]:
    if not g.is_connected():
        raise ChipFiringError(f"{what} needs a connected graph")
    return [g.neighbors(v) for v in range(g.n)]


def _burn_and_fire(nbrs: list[list[int]], chips: list[int], q: int) -> list[int]:
    """One round of Dhar's burning from q: fire spreads to a vertex once its
    burnt neighbours outnumber its chips; the unburnt set then fires once.
    Returns the fired vertices, empty when the fire reached every vertex."""
    n = len(nbrs)
    heat = [0] * n
    burnt = [False] * n
    burnt[q] = True
    stack = [q]
    left = n - 1
    while stack:
        for w in nbrs[stack.pop()]:
            if not burnt[w]:
                heat[w] += 1
                if heat[w] > chips[w]:
                    burnt[w] = True
                    stack.append(w)
                    left -= 1
    if not left:
        return []
    fired = [w for w in range(n) if not burnt[w]]
    for w in fired:
        # heat[w] counts all burnt neighbours of an unburnt w
        chips[w] -= heat[w]
        for u in nbrs[w]:
            if burnt[u]:
                chips[u] += 1
    return fired


_LOOP_CAP = 10_000_000


def q_reduce(g: Graph, d: Divisor, q: int) -> tuple[Divisor, FiringScript]:
    """Unique q-reduced representative of d's class, with the script used.

    Stage 1 repeatedly fires {q} + every out-of-debt vertex until no vertex
    but q is in debt. Stage 2 runs Dhar's burning from q and fires the
    unburnt set until the fire consumes everything. The returned script is
    normalized to minimum entry zero and satisfies
    apply_firing_script(g, d, script) == reduced.
    """
    _check_divisor(g, d)
    if not 0 <= q < g.n:
        raise ChipFiringError(f"vertex {q} out of range")
    nbrs = _neighbor_lists(g, "q-reduction")
    n = g.n
    chips = list(d.chips)
    script = [0] * n
    qbit = 1 << q

    for _ in range(_LOOP_CAP):
        if all(chips[v] >= 0 for v in range(n) if v != q):
            break
        members = qbit
        for v in range(n):
            if v != q and chips[v] >= 0:
                members |= 1 << v
        _fire_set(g, chips, members)
        for v in iter_bits(members):
            script[v] += 1
    else:
        raise ChipFiringError("internal: debt consolidation failed to settle")

    for _ in range(_LOOP_CAP):
        fired = _burn_and_fire(nbrs, chips, q)
        if not fired:
            break
        for v in fired:
            script[v] += 1
    else:
        raise ChipFiringError("internal: burning loop failed to stabilize")

    return Divisor(tuple(chips)), FiringScript(tuple(script)).normalized()


def _losing_vertex(nbrs: list[list[int]], chips: tuple[int, ...]) -> int | None:
    """Lowest v whose v-reduced form of d - (v) is in debt at v, or None.

    Vertices with d(v) >= 1 are skipped. Otherwise the burn from v starts at
    d - (v) and stops at the first firing that brings v out of debt.
    """
    for v, dv in enumerate(chips):
        if dv:
            continue
        c = list(chips)
        c[v] = -1
        while True:
            if not _burn_and_fire(nbrs, c, v):
                return v
            if c[v] >= 0:
                break
    return None


def is_winning_divisor(g: Graph, d: Divisor) -> tuple[bool, int | None]:
    """Can d pay off any single opponent chip? Returns the first vertex
    where it cannot (lowest id), or None when d wins everywhere.

    d loses at v iff the v-reduced form of d - (v) is in debt at v; the
    module docstring describes the test.
    """
    _check_divisor(g, d)
    if not d.is_effective:
        raise ChipFiringError("the gonality game starts from an effective divisor")
    fail_v = _losing_vertex(_neighbor_lists(g, "the gonality game"), d.chips)
    return fail_v is None, fail_v


@dataclass(frozen=True)
class GonalityResult:
    """Outcome of exact_gonality.

    status "exact" means gonality is the least degree of a winning divisor
    and losing_proof lists, for every effective divisor of degree
    gonality - 1, the first opponent vertex that defeats it. Passing
    ENUMERATION_CAP or max_degree yields status "lower_bound_only" with
    gonality None and lower = 1 + the largest fully refuted degree. reductions
    counts the per-vertex winning tests run (vertices with d(v) >= 1 are
    skipped, so they do not count); it is deterministic.
    """

    gonality: int | None
    status: str  # exact | lower_bound_only
    winning_divisor: Divisor | None
    losing_proof: tuple[tuple[tuple[int, ...], int], ...]
    lower: int
    divisors_checked: int
    reductions: int


def _divisor_rows(sums: Iterable[tuple[int, ...]], k: int, count: int) -> bytes:
    """The next count divisors of degree k (no more than are left), as
    rows of n chip bytes in lexicographic order.

    sums is combinations_with_replacement(range(k + 1), n - 1): running sums
    of the first n - 1 chips. Row (s1, ..., s(n-1), k) minus itself shifted
    a byte, lane 0 masked, is the divisor; sums never decrease, so no borrow
    crosses a lane. Chips fit a byte: a winner exists by degree n, and for
    n >= 256 degree 256 alone is over ENUMERATION_CAP.
    """
    kb = bytes((k,))
    data = kb.join(map(bytes, islice(sums, count))) + kb
    x = int.from_bytes(data, "big")
    lanes = int.from_bytes((b"\0" + b"\xff" * (len(data) // count - 1)) * count, "big")
    return (x - ((x >> 8) & lanes)).to_bytes(len(data), "big")


def _first_burn(nbrs: list[list[int]], data: bytes, k: int) -> str:
    """Which divisors of a run lose at their lowest chipless vertex in the
    first round of its burn: character i is "1" when row i of data does.

    data is a run from _divisor_rows. Bit-sliced over big ints, with the
    most significant bit for row 0. below[w][t - 1] marks the divisors with
    fewer than t chips on w; heat[t - 1] marks those with at least t burnt
    neighbours of w, so w ignites where heat[t - 1] & below[w][t - 1] for
    some t. Levels stop at k + 1, the least heat that beats every chip
    count of degree k. Each burn starts at the divisor's lowest chipless
    vertex, whose chips the first round never reads, and sweeps repeat until
    no vertex ignites: a monotone burn ends in the same set in any order.
    """
    n = len(nbrs)
    size = len(data) // n
    full = (1 << size) - 1
    below = []
    for w in range(n):
        column = data[w::n]
        below.append([int(column.translate(b"1" * t + b"0" * (256 - t)), 2)
                      for t in range(1, min(len(nbrs[w]), k + 1) + 1)])
    burnt = []
    chipped = full  # divisors with a chip on every vertex so far
    for w in range(n):
        burnt.append(below[w][0] & chipped)
        chipped &= ~below[w][0]
    spreading = True
    while spreading:
        spreading = False
        for w in range(n):
            levels = below[w]
            heat = [0] * len(levels)
            for u in nbrs[w]:
                x = burnt[u]
                for t in range(len(heat) - 1, 0, -1):
                    heat[t] |= heat[t - 1] & x
                heat[0] |= x
            caught = burnt[w]
            for h, b in zip(heat, levels):
                caught |= h & b
            if caught != burnt[w]:
                burnt[w] = caught
                spreading = True
    settled = full
    for b in burnt:
        settled &= b
    return format(settled, f"0{size}b")


def exact_gonality(g: Graph, max_degree: int | None = None) -> GonalityResult:
    """Least degree of a winning divisor, by plain exhaustive enumeration.

    Degrees are scanned upward; within a degree, divisors are tried in
    lexicographic order, so the reported winner is the lexicographically
    least one of minimum degree. No symmetry reduction is attempted. Each
    degree comes from _divisor_rows in the runs _RUN describes. A divisor
    that _first_burn settles loses at its lowest chipless vertex after one
    test, as the scalar test would find; every other one gets the winning
    test of is_winning_divisor, in order. Chip tuples are cut from a run
    only for that test and the losing proof.
    """
    nbrs = _neighbor_lists(g, "the gonality game")
    if max_degree is None:
        max_degree = g.n  # one chip everywhere always wins
    if max_degree < 0:
        raise ChipFiringError(f"max_degree must be at least 0, got {max_degree}")
    checked = 0
    reductions = 0
    last_losing: list[tuple[tuple[int, ...], int]] = []
    for k in range(max_degree + 1):
        count = comb(g.n + k - 1, k)
        if checked + count > ENUMERATION_CAP:
            return GonalityResult(None, "lower_bound_only", None,
                                  tuple(last_losing), k, checked, reductions)
        losing: list[tuple[tuple[int, ...], int]] = []
        sums = combinations_with_replacement(range(k + 1), g.n - 1)
        done = 0
        while done < count:
            stop = min(2 * done or _RUN, count)
            data = _divisor_rows(sums, k, stop - done)
            # the head goes one by one: a winner there ends the search
            settled = (_first_burn(nbrs, data, k) if done and stop - done >= _RUN
                       else "0" * _RUN)
            for chips, first in zip(zip(*[iter(data)] * g.n), settled):
                if first == "1":
                    losing.append((chips, chips.index(0)))
                    continue
                fail_v = _losing_vertex(nbrs, chips)
                if fail_v is None:
                    reductions += len(losing) + chips.count(0)
                    return GonalityResult(k, "exact", Divisor(chips), tuple(last_losing),
                                          k, checked + len(losing) + 1, reductions)
                # its test at fail_v is counted below
                reductions += chips[:fail_v].count(0)
                losing.append((chips, fail_v))
            done = stop
        checked += count
        reductions += count
        last_losing = losing
    return GonalityResult(None, "lower_bound_only", None,
                          tuple(last_losing), max_degree + 1, checked, reductions)


def gen_winning_divisor(g: Graph, style: str, index: int = 0) -> Divisor:
    """Known winning divisors for prisms and toroidal grids.

    column_ones (prism): one chip on each vertex of a column, degree m.
    row_twos (prism or torus): two chips on each vertex of a row, degree 2n.
    column_twos (torus): two chips on each vertex of a column, degree 2m.
    """
    fam = g.family
    if fam is None:
        raise InvalidFamilyError("winning divisor generator needs a family graph")
    # style -> (kinds it is stocked on, the line it loads, chips per vertex)
    styles = {
        "column_ones": (("stacked_prism",), "column", 1),
        "row_twos": (("stacked_prism", "toroidal_grid"), "row", 2),
        "column_twos": (("toroidal_grid",), "column", 2),
    }
    allowed = tuple(s for s, (kinds, _, _) in styles.items() if fam.kind in kinds)
    if not allowed:
        raise InvalidFamilyError(f"no stock winning divisor for family {fam.kind!r}")
    if style not in allowed:
        raise InvalidFamilyError(
            f"style {style!r} is not defined on {fam.kind} (choose from {allowed})"
        )
    _, which, amount = styles[style]
    rows, cols = grid_lines(g)
    lines, size = (rows, "m") if which == "row" else (cols, "n")
    if not 0 <= index < len(lines):
        raise InvalidFamilyError(f"{which} index {index} out of range for {size}={len(lines)}")
    chips = [0] * g.n
    for v in iter_bits(lines[index]):
        chips[v] = amount
    return Divisor(tuple(chips))


# --- divisor file format ------------------------------------------------------
#
# Header "d <num_vertices> <degree>", then one "v chips" line per vertex
# with nonzero chips (vertices 1-indexed, chips may be negative); "c" lines
# are comments.


def write_divisor(g: Graph, d: Divisor) -> str:
    _check_divisor(g, d)
    lines = [f"d {g.n} {d.degree}"]
    for v, c in enumerate(d.chips):
        if c:
            lines.append(f"{v + 1} {c}")
    return "\n".join(lines) + "\n"


def read_divisor(text: str, g: Graph) -> Divisor:
    header_seen = False
    declared_degree = 0
    chips = [0] * g.n
    assigned: set[int] = set()
    for lineno, parts in records(text):
        if not header_seen:
            if parts[0] != "d" or len(parts) != 3:
                raise ChipFiringError(f"line {lineno}: expected 'd <vertices> <degree>'")
            num_vertices, declared_degree = parse_ints(parts[1:], lineno, ChipFiringError)
            if num_vertices != g.n:
                raise ChipFiringError(
                    f"divisor is over {num_vertices} vertices, graph has {g.n}"
                )
            header_seen = True
            continue
        if len(parts) != 2:
            raise ChipFiringError(f"line {lineno}: expected '<vertex> <chips>'")
        v, c = parse_ints(parts, lineno, ChipFiringError)
        v -= 1
        if not 0 <= v < g.n:
            raise ChipFiringError(f"line {lineno}: vertex out of range")
        if v in assigned:
            raise ChipFiringError(f"line {lineno}: vertex {v + 1} assigned twice")
        assigned.add(v)
        chips[v] = c
    if not header_seen:
        raise ChipFiringError("missing header line")
    d = Divisor(tuple(chips))
    if d.degree != declared_degree:
        raise ChipFiringError(
            f"declared degree {declared_degree}, chips sum to {d.degree}"
        )
    return d
