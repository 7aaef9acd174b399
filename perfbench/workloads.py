"""Workload inputs, certificate runs and the independent certificate checks.

Every certificate starts from .gr text that the set-up step generated from
the seed, so the package only ever sees generated inputs. A certificate is
solved with the package's public functions, then checked against a table of
known values kept here, never against the solver's own claims.

Known values come from the README tables and the family width formulas;
the few marked "seed computed" have neither and were taken from the seed
commit's own results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

WORKLOADS = ("tw_family", "tw_relabeled", "bramble_order", "gonality")

SHORT = {"grid": "G", "stacked_prism": "Y", "toroidal_grid": "T"}

# Generous wall-clock budget for every treewidth search: the searches that
# can run out of budget stop at a state cap instead, so the work done is the
# same at any machine speed. A run must end well inside it.
TIME_BUDGET_S = 3600.0

# State cap for the open m = 2n prism line Y8,4. It ends bounds_only [4, 8]
# at the seed; pruning that settles more widths shows as a smaller gap.
Y84_MAX_STATES = 4000

# Losing-proof entries re-checked by q-reduction, per gonality certificate.
LOSING_SAMPLE = 16

# (kind, m, n): (treewidth, source)
TREEWIDTH = {
    ("grid", 5, 4): (4, "formula min(m, n)"),
    ("stacked_prism", 5, 4): (5, "formula min(m, 2n)"),
    ("stacked_prism", 6, 3): (6, "README computed benchmark"),
    ("stacked_prism", 8, 4): (8, "README: the capped interval must contain 8"),
    ("toroidal_grid", 4, 4): (6, "seed computed; square torus in [2n-2, 2n-1]"),
    ("toroidal_grid", 5, 3): (6, "formula 2 min(m, n)"),
    ("toroidal_grid", 6, 3): (6, "formula 2 min(m, n)"),
}

# (kind, m, n, generator, order, strict, source)
BRAMBLES = (
    ("grid", 4, 4, "gen_grid_bramble", 4, True, "formula min(m, n)"),
    ("grid", 5, 5, "gen_grid_bramble", 5, True, "formula min(m, n)"),
    ("stacked_prism", 7, 3, "gen_prism_b1", 6, True, "formula 2n"),
    ("stacked_prism", 5, 4, "gen_prism_b2", 5, True, "formula m"),
    ("toroidal_grid", 4, 3, "gen_torus_fg", 6, False, "formula 2n"),
    ("toroidal_grid", 5, 3, "gen_torus_cde", 5, True, "README deviation, computed"),
    ("toroidal_grid", 6, 3, "gen_torus_cde", 5, True, "README deviation, computed"),
)

# (kind, m, n): (gonality, source)
GONALITY = {
    ("stacked_prism", 4, 2): (4, "README computed benchmark"),
    ("toroidal_grid", 3, 3): (6, "README companion result"),
    ("toroidal_grid", 4, 3): (6, "seed computed"),
    ("stacked_prism", 5, 3): (5, "seed computed"),
    ("toroidal_grid", 5, 3): (6, "seed computed"),
}

# The `reproduce` winning rows.
WINNING = (
    ("stacked_prism", 5, 3),
    ("stacked_prism", 7, 2),
    ("toroidal_grid", 4, 3),
    ("toroidal_grid", 5, 3),
)

TW_FAMILY = (
    ("grid", 5, 4),
    ("stacked_prism", 5, 4),
    ("stacked_prism", 6, 3),
    ("stacked_prism", 8, 4),
    ("toroidal_grid", 4, 4),
    ("toroidal_grid", 5, 3),
    ("toroidal_grid", 6, 3),
)
TW_RELABELED = (
    ("grid", 5, 4),
    ("stacked_prism", 5, 4),
    ("toroidal_grid", 4, 4),
    ("toroidal_grid", 5, 3),
    ("toroidal_grid", 6, 3),
)


class BenchmarkError(Exception):
    """The measurement itself is invalid (a clock ended a capped search, or
    a deterministic counter changed between passes)."""


@dataclass(frozen=True)
class Input:
    """One certificate request: generated .gr text plus what it should prove."""

    label: str
    task: str  # treewidth | bramble | gonality | winning
    text: str
    known: int
    max_states: int | None = None
    generator: str | None = None
    strict: bool = True
    style: str | None = None
    sample_seed: str = ""


@dataclass
class Outcome:
    """Checked certificate: failure reasons, two-sided exactness, counters."""

    failures: list[str]
    exact: bool
    counters: dict[str, int]


def _name(kind: str, m: int, n: int) -> str:
    return f"{SHORT[kind]}{m},{n}"


def winning_style(kind: str, m: int, n: int) -> tuple[str, int]:
    """The `reproduce` default style for a family and its divisor degree."""
    if kind == "stacked_prism":
        return ("column_ones", m) if m <= 2 * n else ("row_twos", 2 * n)
    return ("row_twos", 2 * n) if n <= m else ("column_twos", 2 * m)


def build_inputs(workload: str, seed: int, mods) -> list[Input]:
    """Generate the workload's inputs. The seed picks the relabellings of
    tw_relabeled and the losing entries that gonality re-checks. The
    instance list and its order are fixed, so that the cache state each
    certificate starts from does not vary with the seed."""
    make_family = mods.graphs.make_family
    write_gr = mods.graphs.write_gr
    rng = random.Random(seed)
    inputs: list[Input] = []
    if workload == "tw_family":
        for kind, m, n in TW_FAMILY:
            cap = Y84_MAX_STATES if (kind, m, n) == ("stacked_prism", 8, 4) else None
            label = f"tw({_name(kind, m, n)})" + (f"@cap{cap}" if cap else "")
            text = write_gr(make_family(kind, m, n))
            inputs.append(Input(label, "treewidth", text, TREEWIDTH[kind, m, n][0], cap))
    elif workload == "tw_relabeled":
        for kind, m, n in TW_RELABELED:
            g = make_family(kind, m, n)
            perm = list(range(g.n))
            rng.shuffle(perm)
            text = write_gr(g.relabeled(perm))
            label = f"tw({_name(kind, m, n)})~relabeled"
            inputs.append(Input(label, "treewidth", text, TREEWIDTH[kind, m, n][0]))
    elif workload == "bramble_order":
        for kind, m, n, gen, order, strict, _ in BRAMBLES:
            label = f"order({gen[4:]}@{_name(kind, m, n)})"
            text = write_gr(make_family(kind, m, n))
            inputs.append(
                Input(label, "bramble", text, order, generator=gen, strict=strict)
            )
    elif workload == "gonality":
        for (kind, m, n), (gon, _) in GONALITY.items():
            label = f"gon({_name(kind, m, n)})"
            text = write_gr(make_family(kind, m, n))
            inputs.append(
                Input(label, "gonality", text, gon, sample_seed=f"{seed}/{label}")
            )
        for kind, m, n in WINNING:
            style, degree = winning_style(kind, m, n)
            label = f"winning({_name(kind, m, n)})"
            text = write_gr(make_family(kind, m, n))
            inputs.append(Input(label, "winning", text, degree, style=style))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs


# --- solving -----------------------------------------------------------------


def solve_treewidth(g, inp: Input, mods):
    tw = mods.treewidth
    if inp.max_states is None:
        limits = tw.SolverLimits(time_budget=TIME_BUDGET_S)
    else:
        limits = tw.SolverLimits(max_states=inp.max_states, time_budget=TIME_BUDGET_S)
    return tw.exact_treewidth(g, limits)


def solve(inp: Input, mods):
    """Run the package on one input; returns the raw results to be checked."""
    g = mods.graphs.read_gr(inp.text)
    if inp.task == "treewidth":
        return g, solve_treewidth(g, inp, mods)
    if inp.task == "bramble":
        br = mods.brambles
        b = getattr(br, inp.generator)(g)
        cls = br.classify_family(g, b.elements)
        cert = br.min_hitting_set(b)
        # upper side: a min-fill decomposition, no width search
        order, _ = mods.treewidth.min_fill_order(g)
        td = mods.treewidth.decomposition_from_elimination_order(g, order)
        return g, b, cls, cert, td
    if inp.task == "gonality":
        return g, mods.chipfiring.exact_gonality(g)
    if inp.task == "winning":
        d = mods.chipfiring.gen_winning_divisor(g, inp.style)
        return g, d, mods.chipfiring.is_winning_divisor(g, d)
    raise ValueError(f"unknown task {inp.task!r}")


# --- checking ----------------------------------------------------------------


def check(inp: Input, raw, mods) -> Outcome:
    """Judge one certificate against the known-value table."""
    return _CHECKS[inp.task](inp, raw, mods)


def _td_failures(g, td, mods) -> list[str]:
    tw = mods.treewidth
    try:
        report = tw.validate_tree_decomposition(g, td)
    except tw.DecompositionError as exc:
        return [f"decomposition is not a tree decomposition: {exc}"]
    if not report.valid:
        return [f"decomposition fails condition {report.condition} at {report.witness}"]
    return []


def _check_treewidth(inp: Input, raw, mods) -> Outcome:
    g, res = raw
    failures = _td_failures(g, res.decomposition, mods)
    if not failures and res.decomposition.width != res.treewidth:
        failures.append(f"reported width {res.treewidth} != bag width {res.decomposition.width}")
    counters = {"treewidth.states": res.states, "treewidth.capped_gap": 0}
    if res.proof_status == "exact":
        if res.treewidth != inp.known:
            failures.append(f"treewidth {res.treewidth}, known {inp.known}")
    elif res.proof_status == "bounds_only":
        if inp.max_states is None or res.states <= inp.max_states:
            raise BenchmarkError(
                f"{inp.label}: bounds_only after {res.states} states, below the"
                f" state cap; a clock ended the search"
            )
        if not res.lower <= inp.known <= res.upper:
            failures.append(f"interval [{res.lower}, {res.upper}] misses {inp.known}")
        counters["treewidth.capped_gap"] = res.upper - res.lower
    else:
        failures.append(f"unknown proof status {res.proof_status!r}")
    exact = res.proof_status == "exact" and not failures
    return Outcome(failures, exact, counters)


def classify_pairs(num_elements: int, cls) -> int:
    """Element pairs classify_family examined before deciding."""
    if cls.verdict != "not_bramble":
        return comb(num_elements, 2)
    i, j = cls.counterexample
    if i == j:
        return 0
    return sum(num_elements - 1 - a for a in range(i)) + (j - i)


def _check_bramble(inp: Input, raw, mods) -> Outcome:
    g, b, cls, cert, td = raw
    failures = []
    want = "strict_bramble" if inp.strict else "bramble"
    if cls.verdict != want:
        failures.append(f"classified {cls.verdict}, known {want}")
    unhit = sum(1 for e in b.elements if not e & cert.witness)
    if unhit:
        failures.append(f"witness misses {unhit} elements")
    if cert.witness.bit_count() != cert.order:
        failures.append(f"witness has {cert.witness.bit_count()} vertices, order {cert.order}")
    if cert.order != inp.known:
        failures.append(f"order {cert.order}, known {inp.known}")
    failures += _td_failures(g, td, mods)
    # a strict bramble of order k certifies tw >= k, any other tw >= k - 1
    lower = cert.order if inp.strict else cert.order - 1
    if not failures and lower > td.width:
        failures.append(f"lower bound {lower} exceeds decomposition width {td.width}")
    counters = {
        "brambles.elements": len(b.elements),
        "brambles.classify_pairs": classify_pairs(len(b.elements), cls),
    }
    exact = not failures and lower == td.width
    return Outcome(failures, exact, counters)


def _check_gonality(inp: Input, raw, mods) -> Outcome:
    g, res = raw
    cf = mods.chipfiring
    failures = []
    counters = {"chipfiring.divisors_checked": res.divisors_checked}
    if res.status != "exact" or res.winning_divisor is None:
        failures.append(f"status {res.status}, gonality {res.gonality}")
        return Outcome(failures, False, counters)
    k = res.gonality
    if k != inp.known:
        failures.append(f"gonality {k}, known {inp.known}")
    winner = res.winning_divisor
    if winner.degree != k or not winner.is_effective:
        failures.append(f"winner has degree {winner.degree}, gonality {k}")
    elif not cf.is_winning_divisor(g, winner)[0]:
        failures.append("winner loses")
    proof = res.losing_proof
    want = comb(g.n + k - 2, k - 1)
    if len(proof) != want:
        failures.append(f"losing proof has {len(proof)} entries, want {want}")
    if len({chips for chips, _ in proof}) != len(proof):
        failures.append("losing proof repeats a divisor")
    for chips, v in proof:
        if (
            len(chips) != g.n
            or sum(chips) != k - 1
            or min(chips) < 0
            or not 0 <= v < g.n
            or chips[v] != 0
        ):
            failures.append(f"malformed losing entry {chips} at {v}")
            break
    if proof and not failures:
        rng = random.Random(inp.sample_seed)
        for idx in rng.sample(range(len(proof)), min(LOSING_SAMPLE, len(proof))):
            chips, v = proof[idx]
            attacked = list(chips)
            attacked[v] -= 1
            reduced, _ = cf.q_reduce(g, cf.Divisor(tuple(attacked)), v)
            if reduced.chips[v] >= 0:
                failures.append(f"losing entry {chips} survives an attack at {v}")
                break
    return Outcome(failures, not failures, counters)


def _check_winning(inp: Input, raw, mods) -> Outcome:
    g, d, (wins, vertex) = raw
    failures = []
    if d.degree != inp.known or not d.is_effective:
        failures.append(f"divisor has degree {d.degree}, want {inp.known}")
    if not wins:
        failures.append(f"stock winning divisor loses at {vertex}")
    return Outcome(failures, not failures, {})


_CHECKS = {
    "treewidth": _check_treewidth,
    "bramble": _check_bramble,
    "gonality": _check_gonality,
    "winning": _check_winning,
}
